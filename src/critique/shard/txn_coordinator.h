#ifndef CRITIQUE_SHARD_TXN_COORDINATOR_H_
#define CRITIQUE_SHARD_TXN_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "critique/common/status.h"
#include "critique/db/transaction.h"
#include "critique/obs/metrics.h"

namespace critique {

class CommitLog;

/// Injectable coordinator "crash" points for the in-doubt recovery tests:
/// the coordinator stops mid-protocol, returns `kInternal`, and leaves its
/// prepared participants in doubt for `ShardedDatabase::RecoverInDoubt` to
/// resolve.
enum class CoordinatorFailpoint {
  kNone,
  /// The coordinator log dies before its record is durable; every vote is
  /// durable.  Recovery finds no record and aborts.
  kBeforeDecision,
  /// The vote round completed — the commit point is durable — but no
  /// participant received `CommitPrepared`.  Recovery commits.
  kAfterDecision,
};

/// Counters exposed for benches and tests.
struct CoordinatorStats {
  uint64_t started = 0;           ///< cross-shard commits attempted
  uint64_t committed = 0;         ///< full 2PC rounds that committed
  uint64_t aborted = 0;           ///< global aborts (a participant refused)
  uint64_t prepare_failures = 0;  ///< participants that refused prepare
  uint64_t crashes = 0;           ///< coordinator crashes (failpoint, dead log)
  uint64_t recovered_commits = 0; ///< in-doubt participants recovered forward
  uint64_t recovered_aborts = 0;  ///< in-doubt participants presumed-aborted

  /// One line: "started=12 committed=10 aborted=2 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats);

/// \brief The two-phase-commit coordinator for cross-shard transactions.
///
/// Phase 1: every participant validates and appends its vote, in shard
/// order, without waiting.  Any refusal turns into a *global abort* —
/// prepared participants get `AbortPrepared`, unprepared ones roll back,
/// and the refusing status (typically `kSerializationFailure`, retryable)
/// is returned so the session layer's `RetryPolicy` restarts the whole
/// transaction.  When every participant voted yes, the coordinator appends
/// its own record (`kDecision`, naming the participant shards) and one
/// `CommitLog::WaitDurableAll` makes the votes and the record durable
/// together: shard logs first in shard order, the coordinator log last,
/// so the overlapped waits still cannot deadlock.
///
/// The commit point is the end of that one round (the parallel-commit rule
/// of CockroachDB's STAGING record and of Cornus, Guo et al., PVLDB 16(2)):
/// a global transaction is committed iff its coordinator record and every
/// participant's vote are durable and no participant log holds its
/// `kAbort`.  Nothing can refuse a commit past that point, because every
/// stock engine pins at `Prepare` (engine.h, 2PC notes).  Phase 2 only
/// delivers `CommitPrepared`, whose slim `kCommit` is buffered, never
/// awaited, so a cross-shard commit waits one device round in all.
///
/// A vote whose log died during the round never became durable: that
/// participant stays frozen in doubt, as a crash at that instant leaves
/// it, the others take `AbortPrepared` (whose `kAbort` is appended before
/// anything is released), and `kInternal` is returned.  A coordinator
/// record that did not become durable while every vote did is a
/// coordinator crash: every participant stays in doubt and `kInternal` is
/// returned.  Restart recovery (`ShardedDatabase::Recover`) applies the
/// commit rule to the logs; presumed abort covers everything the rule
/// does not prove committed.
///
/// Without a log (no `wal_dir`), the same protocol runs with nothing to
/// wait for.  The only state the coordinator keeps is the set of global
/// ids whose commit point was reached but whose participants were not all
/// told (`kAfterDecision`, or restored by `Recover`); `RecoverInDoubt`
/// drains it.
///
/// Thread-safe: the in-flight set and the counters are mutex-guarded; the
/// participant calls and the vote round run on the caller's thread with
/// no coordinator lock held (one global transaction is one session driven
/// by one thread, the same contract as everywhere else).
class TxnCoordinator {
 public:
  /// One participant of a global transaction: its shard and its session.
  struct Participant {
    uint32_t shard;
    Transaction* txn;
  };

  /// Runs 2PC over `parts` (the per-shard sessions of global transaction
  /// `gid`, in shard order).  All participant handles are finished on
  /// return except when a crash leaves prepared ones in doubt.
  Status Commit(TxnId gid, const std::vector<Participant>& parts);

  /// True when `gid` reached its commit point but some participant may
  /// still be in doubt; false means presumed abort.
  bool DecidedCommit(TxnId gid) const;

  /// Records how `RecoverInDoubt` resolved `participants` in-doubt
  /// participants of `gid`, and forgets `gid`.
  void ResolveInDoubt(TxnId gid, bool committed, uint64_t participants);

  /// Attaches the persistent coordinator log (not owned; must outlive the
  /// coordinator).  Install before any commit starts.
  void AttachLog(CommitLog* log);

  /// Seeds the committed-in-doubt set — called by
  /// `ShardedDatabase::Recover` with the ids the commit rule proved
  /// committed, before any new traffic.
  void RestoreCommitted(std::set<TxnId> gids);

  /// Installs (or clears, with kNone) a crash point.  Sticky until reset.
  void set_failpoint(CoordinatorFailpoint f);

  /// Test failpoint: runs after every vote is durable, before
  /// `CommitPrepared` is delivered — the in-doubt window, made
  /// deterministic (the callback counterpart of the crash failpoints).
  /// Runs on the committing thread with no coordinator lock held; pass
  /// nullptr to clear.  Install before any commit starts.
  void set_in_doubt_hook(std::function<void(TxnId)> hook) {
    in_doubt_hook_ = std::move(hook);
  }

  CoordinatorStats stats() const;

  /// Phase-1 wall time per 2PC round (votes plus the coordinator record
  /// made durable), microseconds.
  const obs::Histogram& prepare_histogram() const { return prepare_hist_; }

  /// Phase-2 (`CommitPrepared` delivery) wall time per 2PC round,
  /// microseconds.
  const obs::Histogram& decision_histogram() const { return decision_hist_; }

  /// Registers phase histograms plus `CoordinatorStats` gauges with `reg`
  /// under `prefix` ("coord." by convention).  The coordinator must
  /// outlive the registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  /// Counts a crash and answers the in-doubt `kInternal`.
  Status Crash(TxnId gid, const std::string& what);

  mutable std::mutex mu_;
  std::set<TxnId> committed_;  ///< commit point reached, not all told
  CommitLog* log_ = nullptr;   ///< persistent coordinator log; not owned
  CoordinatorFailpoint failpoint_ = CoordinatorFailpoint::kNone;
  std::function<void(TxnId)> in_doubt_hook_;  ///< test failpoint
  CoordinatorStats stats_;
  // Internally synchronized — recorded outside mu_.
  obs::Histogram prepare_hist_;
  obs::Histogram decision_hist_;
};

}  // namespace critique

#endif  // CRITIQUE_SHARD_TXN_COORDINATOR_H_
