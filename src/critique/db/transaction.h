#ifndef CRITIQUE_DB_TRANSACTION_H_
#define CRITIQUE_DB_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/engine/isolation.h"
#include "critique/history/action.h"
#include "critique/model/predicate.h"
#include "critique/model/row.h"

namespace critique {

class Database;

/// \brief A move-only RAII session handle: one transaction running against
/// a `Database`.
///
/// The handle carries the transaction identity (no raw `TxnId` plumbing),
/// mirrors the engine operations one-to-one, and owns the end of the
/// transaction: destroying an active handle rolls it back, so no code path
/// — early return, error, exception — can leak an open transaction and its
/// locks.
///
/// Statuses pass through from the engine SPI unchanged, with one piece of
/// centralized protocol handling:
///
///  * an operation answered `kWouldBlock` left the engine unchanged and is
///    re-issued while the database's `RetryPolicy` allows (off by default;
///    the step-wise `Runner` interleaves blocked steps instead — and in
///    `ConcurrencyMode::kBlocking` the engine itself waits, so
///    `kWouldBlock` only surfaces as a lock-wait timeout);
///  * `kDeadlock` / `kSerializationFailure` mean the engine already rolled
///    the transaction back — the handle marks itself finished so the
///    destructor stays quiet and later calls answer `kTransactionAborted`.
///
/// Whole-transaction restarts live one level up, in `Database::Execute`.
///
/// Thread-safety: a handle may be used from any thread, but only one
/// thread at a time — "one session per thread" (see the `Database`
/// thread-safety notes).
class Transaction {
 public:
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&& other) noexcept;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Rolls back if still active.
  ~Transaction();

  /// The engine-level transaction id (history subscript).
  TxnId id() const { return id_; }

  /// True until Commit / Rollback / an engine-side abort.
  bool active() const { return active_; }

  /// The isolation contract this transaction runs (and is judged) under:
  /// `BeginOptions::level` when one was declared, else the engine's own
  /// level.
  IsolationLevel level() const { return level_; }

  /// The owning facade.
  Database& database() const { return *db_; }

  // --- reads ---------------------------------------------------------------

  /// Reads one item; nullopt when absent (or deleted at the snapshot).
  Result<std::optional<Row>> Get(const ItemId& id);

  /// Reads one item's scalar column; a NULL `Value` when the row is absent.
  Result<Value> GetScalar(const ItemId& id);

  /// SELECT ... WHERE <pred>: matching (id, row) pairs.  `name` is the
  /// history label for the predicate (the paper's "P").
  Result<std::vector<std::pair<ItemId, Row>>> GetWhere(const std::string& name,
                                                       const Predicate& pred);

  // --- writes --------------------------------------------------------------

  /// Upserts one item.
  Status Put(const ItemId& id, Row row);

  /// Upserts one scalar item (`Row::Scalar` convenience).
  Status Put(const ItemId& id, Value v);

  /// Inserts; FailedPrecondition when the item is already visible.
  Status Insert(const ItemId& id, Row row);

  /// Deletes; NotFound when the item is not visible.
  Status Erase(const ItemId& id);

  /// Atomic read-modify-write of one item — a single SQL UPDATE statement.
  Status Update(const ItemId& id,
                const std::function<Row(const std::optional<Row>&)>& transform);

  /// Bulk UPDATE ... WHERE <pred>; returns the number of rows updated.
  Result<size_t> UpdateWhere(const std::string& name, const Predicate& pred,
                             const std::function<Row(const Row&)>& transform);

  /// Bulk DELETE ... WHERE <pred>; returns the number of rows deleted.
  Result<size_t> DeleteWhere(const std::string& name, const Predicate& pred);

  // --- cursors -------------------------------------------------------------

  /// Positions the default cursor on `id` and reads it (`rc`).
  Result<std::optional<Row>> Fetch(const ItemId& id);

  /// Multi-cursor form (Section 4.1); the default cursor is "".
  Result<std::optional<Row>> FetchNamed(const std::string& cursor,
                                        const ItemId& id);

  /// Writes the current of cursor (`wc`).
  Status PutCursor(const ItemId& id, Row row);

  /// Writes the current of cursor with a scalar.
  Status PutCursor(const ItemId& id, Value v);

  /// Closes the default cursor, releasing any cursor-held lock.
  Status CloseCursor();

  /// Closes one named cursor.
  Status CloseCursorNamed(const std::string& cursor);

  // --- terminals -----------------------------------------------------------

  /// Commits; on `kSerializationFailure` the engine aborted instead (the
  /// handle is finished either way).
  Status Commit();

  /// Rolls back; OK (and a no-op) when already finished.
  Status Rollback();

  // --- two-phase commit (shard/TxnCoordinator participant protocol) --------
  //
  // Prepare moves the engine transaction in doubt: the handle stays
  // nominally active but every further operation — including the
  // destructor's rollback — is refused by the engine until the
  // coordinator's decision arrives, so an in-doubt participant survives
  // its session.  On `kSerializationFailure` (prepare-time validation
  // refused) the engine already rolled back and the handle is finished.

  /// Phase 1: validate and pin in doubt.  With a WAL attached, OK means
  /// the vote is durable (the durable-vote rule).
  Status Prepare();

  /// Phase 1 without the durability wait: validates, pins in doubt and
  /// appends the vote.  Returns the vote's LSN on `database().wal()`
  /// (nullopt without a WAL); the caller must make it durable before it
  /// counts this participant as prepared.  The 2PC coordinator awaits
  /// every participant's vote in one `CommitLog::WaitDurableAll`.
  Result<std::optional<uint64_t>> AppendVote();

  /// Phase 2, commit decision; finishes the handle on success.
  Status CommitPrepared();

  /// Phase 2, abort decision; finishes the handle on success.
  Status AbortPrepared();

 private:
  friend class Database;
  Transaction(Database* db, TxnId id, bool active,
              IsolationLevel level = IsolationLevel::kSerializable);

  /// Runs one engine operation with blocked-op retry and the finished-state
  /// bookkeeping described in the class comment.  A template (instantiated
  /// only inside database.cc) so the hot path pays no std::function type
  /// erasure per operation.
  template <typename Op>
  Status RunOp(Op&& op);

  /// Marks the handle finished when `s` says the engine ended the txn.
  void ObserveTerminalStatus(const Status& s);

  /// Idempotently leaves the active state, updating the database's
  /// open-transaction count.
  void Finish();

  Database* db_ = nullptr;  ///< null only for moved-from husks
  TxnId id_ = 0;
  bool active_ = false;
  IsolationLevel level_ = IsolationLevel::kSerializable;
  /// Manual-interleaving sessions (BeginWithId — the Runner path) surface
  /// kWouldBlock immediately: in the single-threaded cooperative model no
  /// other transaction can progress during an in-call spin, so the
  /// schedule, not the RetryPolicy, must decide when to retry.
  bool blocked_op_retry_ = true;
};

}  // namespace critique

#endif  // CRITIQUE_DB_TRANSACTION_H_
