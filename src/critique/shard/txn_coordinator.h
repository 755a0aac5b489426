#ifndef CRITIQUE_SHARD_TXN_COORDINATOR_H_
#define CRITIQUE_SHARD_TXN_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "critique/common/status.h"
#include "critique/db/transaction.h"
#include "critique/obs/metrics.h"
#include "critique/wal/wal_record.h"
#include "critique/wal/wal_sink.h"

namespace critique {

class CommitLog;

/// Injectable coordinator "crash" points for the in-doubt recovery tests:
/// the coordinator stops mid-protocol, returns `kInternal`, and leaves its
/// prepared participants in doubt for `ShardedDatabase::RecoverInDoubt` to
/// resolve.
enum class CoordinatorFailpoint {
  kNone,
  /// Crash after every participant prepared but before the commit decision
  /// is logged.  Presumed abort: recovery finds no decision and aborts.
  kBeforeDecision,
  /// Crash after the commit decision is logged but before any participant
  /// learned it.  Recovery finds the decision and commits.
  kAfterDecision,
};

/// Counters exposed for benches and tests.
struct CoordinatorStats {
  uint64_t started = 0;           ///< cross-shard commits attempted
  uint64_t committed = 0;         ///< full 2PC rounds that committed
  uint64_t aborted = 0;           ///< global aborts (a participant refused)
  uint64_t prepare_failures = 0;  ///< participants that refused prepare
  /// Participants refused at the *decision* phase: a certifying (SSI)
  /// engine re-validates at CommitPrepared, and an in-doubt participant
  /// whose dangerous structure completed while prepared aborts there.
  uint64_t decision_aborts = 0;
  uint64_t crashes = 0;           ///< failpoint-injected crashes
  uint64_t recovered_commits = 0; ///< in-doubt participants recovered forward
  uint64_t recovered_aborts = 0;  ///< in-doubt participants presumed-aborted

  /// One line: "started=12 committed=10 aborted=2 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats);

/// \brief The two-phase-commit coordinator for cross-shard transactions.
///
/// In phase 1 votes are appended in shard order and their device rounds
/// overlap: every participant validates and appends its vote without
/// waiting, then one `CommitLog::WaitDurableAll` makes every vote durable,
/// so a cross-shard commit waits about one device round for its votes,
/// not one per shard.  Any refusal turns into a *global abort* — prepared
/// participants get `AbortPrepared`, unprepared ones roll back, and the
/// refusing status (typically `kSerializationFailure`, retryable) is
/// returned so the session layer's `RetryPolicy` restarts the whole
/// transaction.  A vote whose log died during the wait never became
/// durable: that participant stays frozen in doubt, as a crash at that
/// instant leaves it, and the failure (`kInternal`) is returned; the
/// others take the abort decision.  Phase 2
/// logs the commit decision, then delivers `CommitPrepared` to every
/// participant; after all acknowledge, the decision is forgotten.
///
/// A certifying participant (SSI) re-validates at `CommitPrepared` and
/// may refuse with `kSerializationFailure` when a dangerous structure
/// completed while it was in doubt (engine.h, 2PC protocol notes).  The
/// refusal is an abort acknowledgement — the participant has already
/// rolled back — and the *logged* decision is still commit, so the
/// coordinator keeps delivering `CommitPrepared` to every other
/// participant (identical to what `RecoverInDoubt` would do from the
/// same log after a crash: every participant that can commit commits,
/// refusers abort), and counts each refusal as a `decision_abort`.  The
/// returned status depends on what was published: if *no* participant
/// committed, the global transaction is a clean abort and the retryable
/// `kSerializationFailure` surfaces (the session layer may safely
/// re-run the body); if some participants committed and others refused,
/// the decision was partially applied and the coordinator answers
/// `kInternal` — deliberately non-retryable, because an automatic
/// re-run would silently re-apply the committed shards' effects.
/// Serializability of each shard's own history is preserved either way
/// (that is exactly what the refusing engine enforced); the partial
/// case costs global atomicity — the same exposure a coordinator crash
/// between decision deliveries leaves, surfaced the same way (an
/// `kInternal` answer the application must reconcile).  Per-shard
/// Locking SERIALIZABLE participants never refuse a decision; see
/// docs/architecture.md.
///
/// The decision log implements **presumed abort**: an in-doubt participant
/// whose global transaction has no logged decision must abort.  Only the
/// window between logging and the last acknowledgement keeps an entry, so
/// the log stays O(in-flight cross-shard transactions).
///
/// With `AttachLog` the decision log is *persistent*: the commit decision
/// is appended to a WAL (`kDecision`) and made durable **before** the
/// in-memory entry is set and phase 2 begins — the write-ahead rule.  If
/// the append fails (a WAL failpoint "crashed" the log device), the
/// decision was never made: the coordinator counts a crash and answers
/// `kInternal` with every participant still in doubt, and restart
/// recovery presumes abort — exactly what a real coordinator losing its
/// log volume mid-decision must do.
///
/// The durable `kDecision` is the global transaction's **commit point**.
/// Phase 2 publishes on every participant, whose slim `kCommit` is
/// buffered but not awaited (engine.h, 2PC durability notes), so the
/// caller is acknowledged without any further device sync: a crash that
/// loses a participant's `kCommit` restores it in doubt, and
/// `RecoverInDoubt` rolls it forward from the still-open decision.
///
/// `kDecisionEnd` closes an entry under one invariant: **no
/// `kDecisionEnd` becomes durable before every participant's `kCommit`
/// for that gid is durable** — otherwise a crash could show recovery a
/// closed decision next to a prepared participant, and presumed abort
/// would roll that participant back.  A finished round therefore records
/// each participant log's `appended_lsn` (read after its
/// `CommitPrepared`, a conservative bound on the commit record) and parks
/// the gid on a small pending list; every cross-shard commit, and
/// `CloseCoveredDecisions`, sweeps the list and appends the end of each
/// gid whose participant logs' `durable_lsn` covers those marks (a
/// shard's next prepare or single-shard commit syncs its log).  The end
/// itself is buffered, not synced — losing it merely leaves a stale open
/// decision whose participants recovery finds already committed.
///
/// Thread-safe: the decision log, the pending ends and the counters are
/// mutex-guarded; the participant calls themselves run on the caller's
/// thread (one global transaction is one session driven by one thread,
/// the same contract as everywhere else).  Lock order: `mu_` →
/// `CommitLog::mu_` (a sweep reads participant logs and appends ends
/// under `mu_`); a `CommitLog` never calls back into the coordinator, and
/// the vote wait holds no coordinator lock or engine latch, so a thread
/// holding a device token never waits for either.
class TxnCoordinator {
 public:
  /// Runs 2PC over `parts` (the per-shard sessions of global transaction
  /// `gid`).  All participant handles are finished on return except when a
  /// failpoint "crash" leaves prepared ones in doubt.
  Status Commit(TxnId gid, const std::vector<Transaction*>& parts);

  /// The logged decision for `gid`: true = commit; nullopt = no decision,
  /// which presumed abort reads as "abort".
  std::optional<bool> DecisionFor(TxnId gid) const;

  /// Drops `gid`'s log entry once every in-doubt participant is resolved.
  /// Appends `kDecisionEnd` at once, so the caller must first make every
  /// participant's commit record durable (`RecoverInDoubt` syncs the
  /// shard logs it rolled forward).
  void ForgetDecision(TxnId gid);

  /// Appends `kDecisionEnd` for every pending decision whose participant
  /// logs have synced past its commit records.  Every cross-shard commit
  /// runs this sweep; call it after syncing the shard logs (clean
  /// shutdown) to close what is left.
  void CloseCoveredDecisions();

  /// Decisions finished in memory but still waiting for their
  /// participants' commit records to become durable before their
  /// `kDecisionEnd` may be appended.  Always 0 without a persistent log.
  size_t pending_ends() const;

  /// Attaches the persistent decision log (not owned; must outlive the
  /// coordinator).  Install before any commit starts; nullptr detaches.
  /// With a log attached, a pending end points at its participants'
  /// `CommitLog`s, so their databases must outlive every later sweep
  /// (`ShardedDatabase` owns the shards and the coordinator together).
  void AttachLog(WalSink* log);

  /// Seeds the in-memory decision table from a recovered log — called by
  /// `ShardedDatabase::Recover` with the still-open (`kDecision` without
  /// `kDecisionEnd`) entries, before any new traffic.
  void RestoreDecisions(std::map<TxnId, bool> decisions);

  /// Record recovery outcomes (called by `ShardedDatabase::RecoverInDoubt`).
  void CountRecovery(bool committed, uint64_t participants);

  /// Record a participant that refused its logged commit decision at
  /// `CommitPrepared` (certifying-engine re-validation; see class notes).
  void CountDecisionAbort();

  /// Installs (or clears, with kNone) a crash point.  Sticky until reset.
  void set_failpoint(CoordinatorFailpoint f);

  /// Test failpoint: runs after every participant prepared, before the
  /// decision is logged — the in-doubt window, made deterministic (the
  /// callback counterpart of the crash failpoints).  Runs on the
  /// committing thread with no coordinator lock held; pass nullptr to
  /// clear.  Install before any commit starts.
  void set_in_doubt_hook(std::function<void(TxnId)> hook) {
    in_doubt_hook_ = std::move(hook);
  }

  CoordinatorStats stats() const;

  /// Phase-1 (prepare-all) wall time per 2PC round, microseconds.
  const obs::Histogram& prepare_histogram() const { return prepare_hist_; }

  /// Phase-2 (decision delivery) wall time per 2PC round, microseconds.
  const obs::Histogram& decision_histogram() const { return decision_hist_; }

  /// Registers phase histograms plus `CoordinatorStats` gauges (and the
  /// `pending_ends` gauge) with `reg` under `prefix` ("coord." by
  /// convention).  The coordinator must outlive the registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  /// A participant log and the LSN its commit record must reach.
  struct LogMark {
    const CommitLog* log;
    uint64_t lsn;
  };

  /// A committed gid whose `kDecisionEnd` waits for participant
  /// durability.
  struct PendingEnd {
    TxnId gid;
    std::vector<LogMark> marks;
  };

  /// The sweep behind `CloseCoveredDecisions`.  Requires `mu_`.
  void CloseCoveredLocked();

  mutable std::mutex mu_;
  std::map<TxnId, bool> decisions_;
  std::vector<PendingEnd> pending_ends_;
  WalSink* log_ = nullptr;  ///< persistent decision log; not owned
  CoordinatorFailpoint failpoint_ = CoordinatorFailpoint::kNone;
  std::function<void(TxnId)> in_doubt_hook_;  ///< test failpoint
  CoordinatorStats stats_;
  // Internally synchronized — recorded outside mu_.
  obs::Histogram prepare_hist_;
  obs::Histogram decision_hist_;
};

}  // namespace critique

#endif  // CRITIQUE_SHARD_TXN_COORDINATOR_H_
