#ifndef CRITIQUE_COMMON_STATUS_H_
#define CRITIQUE_COMMON_STATUS_H_

#include <string>
#include <string_view>

namespace critique {

/// \brief Outcome codes used across the library.
///
/// The library never throws on the data path (RocksDB/Arrow convention);
/// every fallible operation returns a `Status` or a `Result<T>`.  A few codes
/// carry concurrency-control semantics of their own:
///
///  * `kWouldBlock` — a lock request conflicts and the caller runs in
///    cooperative (non-blocking) mode; the step may be retried later.
///  * `kDeadlock` — the waits-for graph found a cycle and this transaction
///    was chosen as the victim; it has been aborted.
///  * `kSerializationFailure` — a multiversion engine refused a write or a
///    commit (first-committer-wins, first-writer-wins, or SSI dangerous
///    structure); the transaction has been aborted and may be retried.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kInvalidArgument,
  kFailedPrecondition,
  kWouldBlock,
  kDeadlock,
  kSerializationFailure,
  kTransactionAborted,
  kInternal,
};

/// \brief Human-readable name of a status code (e.g. "SerializationFailure").
std::string_view StatusCodeName(StatusCode code);

/// \brief A cheap, copyable success-or-error value.
///
/// Mirrors the `rocksdb::Status` / `arrow::Status` idiom: default constructed
/// is OK, factory functions build errors, `ok()` gates the happy path.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with an explicit code and optional message.
  explicit Status(StatusCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status WouldBlock(std::string msg = "") {
    return Status(StatusCode::kWouldBlock, std::move(msg));
  }
  static Status Deadlock(std::string msg = "") {
    return Status(StatusCode::kDeadlock, std::move(msg));
  }
  static Status SerializationFailure(std::string msg = "") {
    return Status(StatusCode::kSerializationFailure, std::move(msg));
  }
  static Status TransactionAborted(std::string msg = "") {
    return Status(StatusCode::kTransactionAborted, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsWouldBlock() const { return code_ == StatusCode::kWouldBlock; }
  bool IsDeadlock() const { return code_ == StatusCode::kDeadlock; }
  bool IsSerializationFailure() const {
    return code_ == StatusCode::kSerializationFailure;
  }
  bool IsTransactionAborted() const {
    return code_ == StatusCode::kTransactionAborted;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Fails fast on a violated API contract (a programming error, never a
/// runtime outcome): prints `what` to stderr and aborts, in every build
/// type (assert() vanishes under NDEBUG).
void CheckOrDie(bool ok, const char* what);

}  // namespace critique

#endif  // CRITIQUE_COMMON_STATUS_H_
