#ifndef CRITIQUE_OBS_TXN_TRACE_H_
#define CRITIQUE_OBS_TXN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "critique/history/action.h"

namespace critique {
namespace obs {

/// Lifecycle points a transaction passes through.
enum class TraceEventType {
  kBegin,
  kOp,       ///< one engine operation (read/write/predicate/cursor)
  kPark,     ///< session parked on kWouldBlock
  kWakeup,   ///< lock-release wakeup delivered
  kPrepare,  ///< 2PC phase 1 completed (in doubt)
  kCommit,
  kAbort,
};

/// Why a transaction aborted, in the paper's taxonomy (Berenson et al.,
/// Section 4): deadlock victim under locking, First-Committer/Updater-Wins
/// under Snapshot Isolation, dangerous-structure refusal under SSI, and the
/// 2PC abort decision delivered to a prepared participant.
enum class AbortReason {
  kNone,                  ///< not an abort event
  kExplicit,              ///< application ROLLBACK
  kDeadlockVictim,        ///< lock manager chose this txn as victim
  kFirstCommitterWins,    ///< FCW / first-updater-wins conflict (SI)
  kSsiDangerousStructure, ///< rw-antidependency pivot refusal (SSI)
  kInDoubtDecision,       ///< AbortPrepared: the 2PC abort decision
  kLockTimeout,           ///< blocking lock wait exhausted its budget
};

std::string_view TraceEventTypeName(TraceEventType t);
std::string_view AbortReasonName(AbortReason r);

/// One recorded event.
struct TraceEvent {
  uint64_t seq = 0;     ///< global record order (dense, 1-based)
  uint64_t micros = 0;  ///< steady-clock microseconds since tracer creation
  TxnId txn = 0;
  TraceEventType type = TraceEventType::kOp;
  AbortReason reason = AbortReason::kNone;
  std::string detail;  ///< free-form ("item 'x'", a refusal message, ...)

  std::string ToString() const;
};

/// \brief Opt-in fixed-capacity ring buffer of transaction lifecycle
/// events.
///
/// The tracer exists to answer "what happened to txn 17?" after the fact:
/// engines, the lock wakeup path, and the session executor append events;
/// `Dump(txn)` returns that transaction's surviving events in order.  The
/// ring overwrites oldest-first — `dropped()` says how many events are
/// gone — so recent history is always intact and memory is bounded no
/// matter how long the run.  A mutex serializes appends: tracing is a
/// diagnosis tool enabled per `Database` (`DbOptions::trace_events`), not
/// an always-on hot-path instrument like `obs::Counter`.
class TxnTracer {
 public:
  explicit TxnTracer(size_t capacity = 4096);

  void Record(TxnId txn, TraceEventType type,
              AbortReason reason = AbortReason::kNone,
              std::string detail = std::string());

  /// Events still in the ring for `txn`, in record order.
  std::vector<TraceEvent> Dump(TxnId txn) const;

  /// Human-readable dump of `txn`'s events, one per line.
  std::string Format(TxnId txn) const;

  size_t capacity() const { return capacity_; }
  /// Events overwritten so far (ring wrapped).
  uint64_t dropped() const;

 private:
  const size_t capacity_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  size_t next_ = 0;               ///< ring_[next_] is overwritten next
  uint64_t seq_ = 0;
};

}  // namespace obs
}  // namespace critique

#endif  // CRITIQUE_OBS_TXN_TRACE_H_
