#ifndef CRITIQUE_DB_RETRY_POLICY_H_
#define CRITIQUE_DB_RETRY_POLICY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "critique/common/status.h"
#include "critique/history/action.h"

namespace critique {

/// True for the statuses an engine uses to ask the client to try again:
/// lock waits (`kWouldBlock`), deadlock-victim aborts (`kDeadlock`) and
/// FCW / FWW / SSI refusals (`kSerializationFailure`).  Everything else
/// (NotFound, InvalidArgument, ...) is a semantic answer, never retried.
bool IsRetryableStatus(const Status& s);

/// \brief Pluggable client-side retry protocol for the `Database` facade.
///
/// The paper's engines are cooperative: they answer `kWouldBlock` instead
/// of parking a thread, abort deadlock victims, and refuse snapshot
/// conflicts at commit.  Every client used to re-implement the resulting
/// retry protocol by hand; the policy centralizes both halves of it:
///
///  * *operation-level* — whether `Transaction` should immediately re-issue
///    an operation answered `kWouldBlock` (useful once other sessions can
///    progress concurrently; pointless — and defaulted off — in the
///    single-threaded cooperative model, where the `Runner` interleaves
///    blocked steps across transactions instead);
///  * *transaction-level* — whether `Database::Execute` should roll back
///    and re-run a transaction body that failed with a retryable status,
///    the restart loop every real MVCC store asks applications to write.
class RetryPolicy {
 public:
  virtual ~RetryPolicy() = default;

  /// Display name ("no-retry", "limited(8)").
  virtual std::string name() const = 0;

  /// Re-issue an operation answered `kWouldBlock`?  `attempt` is the
  /// number of tries already made (>= 1).
  virtual bool RetryBlockedOp(int attempt) const = 0;

  /// Re-run an `Execute` body whose attempt failed with retryable status
  /// `s`?  `attempt` is the number of body runs already made (>= 1).
  virtual bool RetryTransaction(const Status& s, int attempt) const = 0;

  /// How long `Execute` should sleep before re-running the body after
  /// `attempt` failed runs (>= 1).  Zero — the default — restarts
  /// immediately; backoff policies override it to shed contention.
  virtual std::chrono::microseconds RetryDelay(int attempt) const {
    (void)attempt;
    return std::chrono::microseconds::zero();
  }

  /// The restart decision every whole-transaction retry loop applies: a
  /// `FailedPrecondition` (a declared contract the engine cannot honor)
  /// is terminal whatever the policy says, since a re-run would be
  /// refused again; otherwise `RetryTransaction` decides.
  bool ShouldRestart(const Status& s, int attempt) const {
    return !s.IsFailedPrecondition() && RetryTransaction(s, attempt);
  }
};

/// The `Execute` loop both session facades (`Database`,
/// `ShardedDatabase`) run.  `begin(first_attempt)` returns a `Result`
/// holding a fresh transaction handle; a refusal is returned as is, never
/// retried.  `first_attempt` is 0 on the first attempt and the first
/// attempt's transaction id on every restart: the facade hands it to the
/// engine as the restart's deadlock-victim seniority
/// (`Engine::InheritSeniority`).  The body runs in that transaction,
/// which is committed unless the body already finished it, and rolled
/// back on failure.  A failure is re-run (after `RetryDelay`, counting
/// one in `retries`) while `ShouldRestart` allows; otherwise the first
/// terminal status, or the last failure once the policy gives up, is
/// returned.
template <typename BeginFn, typename BodyFn>
Status RunWithRetries(const RetryPolicy& policy,
                      std::atomic<uint64_t>& retries, BeginFn&& begin,
                      BodyFn&& body) {
  TxnId first_attempt = 0;
  for (int attempt = 1;; ++attempt) {
    auto begun = begin(first_attempt);
    if (!begun.ok()) return begun.status();
    auto txn = std::move(begun).value();
    if (first_attempt == 0) first_attempt = txn.id();
    Status s = body(txn);
    if (s.ok() && txn.active()) s = txn.Commit();
    if (txn.active()) (void)txn.Rollback();
    if (s.ok() || !policy.ShouldRestart(s, attempt)) return s;
    retries.fetch_add(1, std::memory_order_relaxed);
    const std::chrono::microseconds delay = policy.RetryDelay(attempt);
    if (delay > std::chrono::microseconds::zero()) {
      std::this_thread::sleep_for(delay);
    }
  }
}

/// Never retries anything: every status surfaces to the caller unchanged.
/// The policy the step-wise `Runner` path relies on.
class NoRetryPolicy : public RetryPolicy {
 public:
  std::string name() const override { return "no-retry"; }
  bool RetryBlockedOp(int) const override { return false; }
  bool RetryTransaction(const Status&, int) const override { return false; }
};

/// Retries retryable failures a bounded number of times.
class LimitedRetryPolicy : public RetryPolicy {
 public:
  explicit LimitedRetryPolicy(int max_txn_retries = 8,
                              int max_blocked_op_retries = 0)
      : max_txn_retries_(max_txn_retries),
        max_blocked_op_retries_(max_blocked_op_retries) {}

  std::string name() const override;

  bool RetryBlockedOp(int attempt) const override {
    return attempt <= max_blocked_op_retries_;
  }
  bool RetryTransaction(const Status& s, int attempt) const override {
    return IsRetryableStatus(s) && attempt <= max_txn_retries_;
  }

  int max_txn_retries() const { return max_txn_retries_; }
  int max_blocked_op_retries() const { return max_blocked_op_retries_; }

 private:
  int max_txn_retries_;
  int max_blocked_op_retries_;
};

/// A `LimitedRetryPolicy` that sleeps exponentially longer before each
/// body restart: `base * 2^(attempt-1)`, saturating at `cap`.  The delay
/// sequence is deterministic and non-decreasing — the property the retry
/// tests assert — and bounded, so a retry storm under heavy contention
/// degrades into a paced trickle instead of a spin.
class ExponentialBackoffRetryPolicy : public LimitedRetryPolicy {
 public:
  explicit ExponentialBackoffRetryPolicy(
      int max_txn_retries = 8,
      std::chrono::microseconds base = std::chrono::microseconds(100),
      std::chrono::microseconds cap = std::chrono::milliseconds(10))
      : LimitedRetryPolicy(max_txn_retries),
        base_(base < std::chrono::microseconds::zero()
                  ? std::chrono::microseconds::zero()
                  : base),
        cap_(cap < base_ ? base_ : cap) {}

  std::string name() const override;

  std::chrono::microseconds RetryDelay(int attempt) const override;

  std::chrono::microseconds base() const { return base_; }
  std::chrono::microseconds cap() const { return cap_; }

 private:
  std::chrono::microseconds base_;
  std::chrono::microseconds cap_;
};

/// The default: `LimitedRetryPolicy(8, 0)` — restart aborted transaction
/// bodies up to 8 times, never spin on a blocked operation.
std::shared_ptr<const RetryPolicy> DefaultRetryPolicy();

}  // namespace critique

#endif  // CRITIQUE_DB_RETRY_POLICY_H_
