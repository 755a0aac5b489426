#ifndef CRITIQUE_ENGINE_SI_ENGINE_H_
#define CRITIQUE_ENGINE_SI_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "critique/common/clock.h"
#include "critique/engine/engine.h"
#include "critique/storage/mv_store.h"

namespace critique {

/// Options for `SnapshotIsolationEngine`.
struct SnapshotIsolationOptions {
  /// First-Updater-Wins ablation: abort a write immediately when another
  /// active transaction holds a pending version of the item (instead of
  /// waiting for the paper's commit-time First-Committer-Wins check).
  bool eager_write_conflicts = false;

  /// Serializable Snapshot Isolation extension: track rw anti-dependencies
  /// (the hazard this paper's write-skew analysis exposed; made precise by
  /// Cahill et al. 2008) and abort pivot transactions at commit.  May
  /// abort false positives; never admits an rw-only cycle.
  bool ssi = false;
};

/// What the commit pipeline has done so far (observability for tests and
/// benches; see the `Commit pipeline` notes on the class).
struct CommitPipelineStats {
  /// Commit-sequence slots issued (one per Commit/Prepare validation).
  uint64_t slots_issued = 0;
};

/// \brief Snapshot Isolation (Section 4.2): every transaction reads from
/// the committed snapshot at its Start-Timestamp, sees its own writes, and
/// commits only if no concurrent committed transaction wrote the same data
/// (First-Committer-Wins).
///
/// "A transaction running in Snapshot Isolation is never blocked attempting
/// a read": no operation of this engine ever returns kWouldBlock; conflicts
/// surface only as kSerializationFailure aborts.
///
/// Latching (thread-safe per the `Engine` contract, without an engine-wide
/// latch): disjoint sessions no longer queue behind one mutex.
///
///  * `table_mu_` (reader-writer) — the transaction-table registry.  Every
///    session operation holds it *shared*; only `Begin`/`BeginAt` (insert),
///    a version-GC pass (retire), and `InDoubtTransactions` take it
///    exclusive.  A transaction's own state is mutated only by its driving
///    thread ("one session per thread"), so shared table access suffices
///    for everything per-transaction.
///  * `commit_mu_` — the commit pipeline (below): validation, write-set
///    reservations, publication, and the commit-sequence counter.
///  * `ssi_mu_` — SSI bookkeeping: SIREAD tables, rw-edge sets, and (in SSI
///    mode) cross-transaction state reads, so edge tracking and pivot
///    validation see consistent neighbour states.  Never held across a
///    store scan that doesn't need it; not touched at plain SI.
///  * `store_mu_` (reader-writer) — the physical version store.  Reads and
///    scans share; writes, publication, and GC are exclusive.  A commit
///    timestamp is drawn *inside* the publication's exclusive section, so
///    any snapshot that could observe the timestamp observes the stamped
///    versions too (no torn visibility).
///
/// Lock order: table_mu_ < commit_mu_ < ssi_mu_ < store_mu_ (never
/// acquired against this order; non-nested sequential sections are free).
///
/// Commit pipeline: ending a transaction is the `Engine` participant
/// protocol's two steps, each a short section under `commit_mu_` rather
/// than one latched block.
///
///  1. *Validate and pin*: the transaction takes the next commit-sequence
///     slot and runs First-Committer-Wins, the write-set reservation check
///     and the SSI dangerous-structure checks (its own pivot status, and
///     whether its commit would complete a structure through a committed
///     or pinned pivot).  On success its write set is reserved, so no
///     overlapping transaction can slip through validation, and it is
///     *pinned*: everyone else's SSI checks count it as committed, so the
///     transaction that would close a dangerous structure through it is
///     the one refused (Cahill et al. 2008; Ports & Grittner, VLDB 2012).
///  2. *Publish*: the commit timestamp is drawn, the versions published
///     and the commit logged.  It cannot fail.
///
/// A local `Commit` runs both steps in one call, with a latch-free commit
/// window between them; `Prepare` is step 1 with the transaction frozen in
/// doubt (the reservation held until the coordinator decides), and
/// `CommitPrepared` is step 2.  A local commit is a prepare without a
/// vote.
class SnapshotIsolationEngine : public Engine {
 public:
  explicit SnapshotIsolationEngine(SnapshotIsolationOptions options = {});

  IsolationLevel level() const override {
    return options_.ssi ? IsolationLevel::kSerializableSI
                        : IsolationLevel::kSnapshotIsolation;
  }

  Status Load(const ItemId& id, Row row) override;
  Status Begin(TxnId txn) override;

  /// Per-transaction isolation contracts inside one engine: Read Committed
  /// (each statement reads the latest committed snapshot, no
  /// First-Committer-Wins check) and Snapshot Isolation are always
  /// honored; Serializable-SI is honored only when the engine runs the SSI
  /// certifier (`options().ssi`), since only then are the rw edges
  /// tracked.  Every transaction — whatever its declared level — still
  /// participates in the others' bookkeeping (its writes feed FCW probes,
  /// its reads feed SSI edges), so weak transactions never weaken a
  /// stronger neighbour's guarantee.
  Status BeginWithLevel(TxnId txn, IsolationLevel level) override;

  /// Time travel (Section 4.2): begin a transaction whose snapshot is the
  /// historical timestamp `ts` ("taking a historical perspective of the
  /// database — while never blocking or being blocked by writes").
  Status BeginAt(TxnId txn, Timestamp ts) override;

  std::optional<Timestamp> SnapshotTimestamp() const override {
    return clock_.Now();
  }

  Result<std::optional<Row>> Read(TxnId txn, const ItemId& id) override;
  Result<std::vector<std::pair<ItemId, Row>>> ReadPredicate(
      TxnId txn, const std::string& name, const Predicate& pred) override;
  Status Write(TxnId txn, const ItemId& id, Row row) override;
  Status Insert(TxnId txn, const ItemId& id, Row row) override;
  Status Delete(TxnId txn, const ItemId& id) override;
  Result<size_t> UpdateWhere(
      TxnId txn, const std::string& name, const Predicate& pred,
      const std::function<Row(const Row&)>& transform) override;
  Result<size_t> DeleteWhere(TxnId txn, const std::string& name,
                             const Predicate& pred) override;
  Result<std::optional<Row>> FetchCursor(TxnId txn, const ItemId& id) override;
  Status WriteCursor(TxnId txn, const ItemId& id, Row row) override;
  Status CloseCursor(TxnId txn) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;

  // 2PC participant protocol.  `Prepare` runs commit-pipeline step 1 (the
  // First-Committer-Wins check, the reservation check, and the SSI
  // dangerous-structure checks) *now* and freezes the transaction in
  // doubt; its write-set reservation stays held, so any other transaction
  // whose write set overlaps a prepared write set is refused at its own
  // validation (kSerializationFailure): the in-doubt window acts as a
  // commit-order reservation on the prepared write set, preserving
  // First-Committer-Wins across the coordinator boundary.  Reads are
  // untouched — pending versions stay invisible and "a transaction
  // running in Snapshot Isolation is never blocked attempting a read".
  //
  // `CommitPrepared` is commit-pipeline step 2, and it cannot fail:
  // validated means pinned.  A pinned P — prepared, or a local committer
  // in its commit window — counts as committed for everyone else's
  // conflict checks, so the transaction whose new rw-antidependency would
  // close a dangerous structure through it is the one refused: a reader U
  // with U -rw-> P when an out-neighbour of P has already committed or
  // been pinned (`CompletesCommittedPivot`), or a writer W with P -rw-> W
  // when P already has a live in-edge (`FeedsPreparedPivot`).  Every edge
  // incident to a pinned P is formed by its *active* neighbour (P neither
  // reads nor writes any more), and both checks run at that neighbour's
  // validation, so the active side always absorbs the abort.
  Result<std::optional<uint64_t>> Prepare(TxnId txn) override;
  Status CommitPrepared(TxnId txn) override { return Publish(txn, true); }
  Status AbortPrepared(TxnId txn) override;
  std::vector<TxnId> InDoubtTransactions() const override;

  /// Latest committed timestamp (the "now" a new snapshot would see).
  Timestamp Now() const { return clock_.Now(); }

  // Version GC.  The low-watermark is the smallest begin timestamp of any
  // transaction still open on this engine (prepared in-doubt participants
  // included), else "now": versions superseded at or below it are
  // invisible to every live and future snapshot.  In `kWatermark` mode a
  // pass runs automatically every `commit_interval` commits (the epoch),
  // finished transaction states and their SSI SIREAD bookkeeping are
  // retired alongside the versions, and `BeginAt` below the collected
  // floor is refused — time travel is never answered from a pruned chain.
  // In `kRetainAll` (the default) nothing is pruned unless a pass is
  // requested explicitly.

  /// Runs one GC pass now; returns the number of versions discarded.
  size_t GarbageCollectVersions() override;

  /// Backwards-compatible alias for `GarbageCollectVersions`.
  size_t GarbageCollect() { return GarbageCollectVersions(); }

  /// Stored version count (GC observability).
  size_t VersionCount() const override {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_.VersionCount();
  }

  /// Longest version chain (GC boundedness metric).
  size_t MaxVersionChainLength() const override {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    return store_.MaxChainLength();
  }

  VersionGcStats version_gc_stats() const override {
    std::lock_guard<std::mutex> lk(gc_stats_mu_);
    return gc_stats_;
  }

  /// SIREAD entries held (item readers plus predicate readers): what
  /// state retirement must bound (tests).
  size_t SireadEntryCount() const {
    std::shared_lock<std::shared_mutex> tl(table_mu_);  // GC edits it
    std::lock_guard<std::mutex> el(ssi_mu_);
    size_t n = predicate_readers_.size();
    for (const auto& [id, readers] : readers_) {
      (void)id;
      n += readers.size();
    }
    return n;
  }

  /// Highest watermark any GC pass has pruned to; `BeginAt` refuses
  /// snapshots below it.
  Timestamp gc_floor() const {
    return gc_floor_.load(std::memory_order_acquire);
  }

  /// Commit-pipeline counters (slots issued).
  CommitPipelineStats commit_pipeline_stats() const {
    std::lock_guard<std::mutex> lk(commit_mu_);
    return pipeline_stats_;
  }

  /// Base gauges plus pipeline counters, per-stage latency histograms and
  /// the GC pass histogram.
  void RegisterMetrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) override;

  /// Commit-pipeline step-1 (validate and pin) latency, microseconds.
  const obs::Histogram& validate_histogram() const { return stage1_hist_; }

  /// Commit-pipeline step-2 (publish) latency, microseconds.
  const obs::Histogram& publish_histogram() const { return stage2_hist_; }

  /// Test-only failpoint: runs between commit-pipeline steps 1 and 2 of
  /// every `Commit`, with *no engine latch held*, on the committing
  /// thread.  The hook may drive other transactions on this engine to
  /// force an rw-antidependency into the commit window, where they meet
  /// the pinned committer.  Install before any session starts; pass
  /// nullptr to clear.
  void SetCommitWindowHook(std::function<void(TxnId)> hook) {
    commit_window_hook_ = std::move(hook);
  }

  const SnapshotIsolationOptions& options() const { return options_; }

 private:
  struct TxnState : ParticipantState {
    bool committed = false;
    bool aborted = false;
    /// Validated and not yet published or rolled back: a prepared
    /// participant, or a local committer in its commit window.  Counts as
    /// committed in everyone else's SSI checks.
    bool pinned = false;
    /// Sticky GC summary: some committed rw-successor of this (committed)
    /// transaction committed *before* it and was then retired by version
    /// GC.  Keeps the dangerous-structure completion check sound after
    /// the successor's state is gone.
    bool committed_first_out = false;
    /// Declared isolation contract (BeginWithLevel); governs read
    /// timestamps (RC reads per-statement), the FCW probe (skipped at
    /// RC), and which transactions the SSI certifier refuses as pivots.
    IsolationLevel level = IsolationLevel::kSnapshotIsolation;
    Timestamp start_ts = kInvalidTimestamp;
    Timestamp commit_ts = kInvalidTimestamp;
    std::set<ItemId> write_set;
    /// Items read (SIREAD entries to drop at retirement): filled only in
    /// SSI mode, the one reader.
    std::set<ItemId> read_set;
    // SSI rw-antidependency neighbours: `in_from` holds U with U -rw-> this
    // (U read something this wrote over); `out_to` holds W with
    // this -rw-> W.  A transaction with live edges on both sides is a
    // pivot of a dangerous structure and must not commit.
    std::set<TxnId> in_from;
    std::set<TxnId> out_to;
  };

  // --- helpers; each names the latches it requires ---------------------------

  /// Requires `table_mu_` exclusive.
  Status BeginAtLocked(TxnId txn, Timestamp ts, IsolationLevel level);

  /// The snapshot a read of `st` uses *now*: the begin snapshot, except
  /// at Read Committed, where each statement reads the latest committed
  /// state ("read committed data" — no repeatable-read promise).
  Timestamp ReadTs(const TxnState& st) const {
    return st.level == IsolationLevel::kReadCommitted ? clock_.Now()
                                                      : st.start_ts;
  }
  /// Rolls `txn` back (store abort + state flags + `a<t>` record) and
  /// counts it under `why`: First-Committer-Wins and SSI refusals in their
  /// own counters, everything else as a plain abort; plus a tracer event
  /// when a tracer is attached.  Requires `table_mu_` shared; takes
  /// `ssi_mu_`/`store_mu_` internally, so the caller may hold `commit_mu_`
  /// but neither of those.
  Status AbortInternal(TxnId txn, Status reason, obs::AbortReason why);

  /// Commit-pipeline step 1: First-Committer-Wins + reservation overlap +
  /// SSI dangerous-structure checks; on success pins the transaction,
  /// reserves its write set and issues a commit slot.  Requires
  /// `table_mu_` shared + `commit_mu_`; takes `ssi_mu_`/`store_mu_`
  /// internally.  On failure the transaction is aborted and the refusal
  /// returned.
  Status ValidateAndReserve(TxnId txn);

  /// Commit-pipeline step 2 for the pinned `txn`: publishes its versions
  /// at a fresh commit timestamp, appends the commit records, retires the
  /// reservation and awaits the records a local commit must wait for.
  /// `decision` marks a `CommitPrepared`, whose `txn` must be prepared.
  /// Takes every latch it needs; call with none held.
  Status Publish(TxnId txn, bool decision);

  /// Drops `txn`'s write-set reservations.  Requires `commit_mu_`.
  void ReleaseReservations(TxnId txn);

  /// Counts a published commit toward the GC epoch; true when a periodic
  /// pass is due (kWatermark mode).  Requires `commit_mu_`.
  bool GcTick();

  Result<std::optional<Row>> DoRead(TxnId txn, const ItemId& id,
                                    Action::Type type);
  Status DoWrite(TxnId txn, const ItemId& id, std::optional<Row> new_row,
                 Action::Type type, bool is_insert);

  // True when U (by state) was concurrent with T (by state): their
  // [start, commit] intervals overlap (an active transaction's commit is
  // "infinity").  Requires `ssi_mu_` (neighbour states are read).
  bool Concurrent(const TxnState& a, const TxnState& b) const;

  // SSI edge tracking; all require `table_mu_` shared + `ssi_mu_`.
  void AddRwEdge(TxnId reader, TxnId writer);
  void TrackReadConflicts(TxnId reader, const ItemId& id);
  void TrackWriteConflicts(TxnId writer, const ItemId& id,
                           const std::optional<Row>& before,
                           const std::optional<Row>& after);

  /// Conservative pivot test: a live (non-aborted) rw edge on both sides.
  /// Requires `ssi_mu_`.
  bool SsiPivot(const TxnState& st) const;

  /// True when committing `st` (id `self`) would complete a dangerous
  /// structure whose pivot P can no longer abort: self -rw-> P and either
  /// P is *committed* and some other W in P's out-edges committed before P
  /// did (Cahill's committed-pivot rule), or P is *pinned* and some other
  /// W in P's out-edges committed or is pinned (W then commits before P
  /// may).  Requires `ssi_mu_`.
  bool CompletesCommittedPivot(TxnId self, const TxnState& st) const;

  /// True when some pinned Serializable-SI P with P -rw-> `st` has a live
  /// in-edge: committing `st` would be the out-neighbour that commits
  /// first around a pivot that can no longer abort.  Requires `ssi_mu_`.
  bool FeedsPreparedPivot(const TxnState& st) const;

  /// Guard over the per-transaction state that SSI bookkeeping reads
  /// across sessions: locked in SSI mode, disengaged (and free) at plain
  /// SI, where all such state is owner-thread-only.  Every mutation of
  /// TxnState fields outside a table-exclusive section goes through it.
  std::unique_lock<std::mutex> SsiLock() {
    std::unique_lock<std::mutex> lk(ssi_mu_, std::defer_lock);
    if (options_.ssi) lk.lock();
    return lk;
  }

  /// The SSI refusals of step 1.  Returns the refusal message, or nullopt
  /// to admit.  Requires
  /// `table_mu_` shared; takes `ssi_mu_` internally.  No-op at plain SI.
  std::optional<std::string> SsiRefusal(TxnId txn);

  /// One GC pass: compute the watermark, prune the queued chains, raise
  /// the floor, and (kWatermark mode) retire finished transaction states
  /// plus their SSI bookkeeping, walking only each retiree's own edges and
  /// reads.  Takes `table_mu_` exclusive (and `store_mu_` inside); call
  /// with no engine latch held.  Returns versions dropped.
  size_t RunGcPass();

  SnapshotIsolationOptions options_;

  /// Reader-writer latch over the transaction-table registry (see class
  /// comment for the full latching map).
  mutable std::shared_mutex table_mu_;
  /// Commit pipeline: validation order, reservations, publication.
  mutable std::mutex commit_mu_;
  /// SSI bookkeeping (SIREAD tables, edges, neighbour-state reads).
  mutable std::mutex ssi_mu_;
  /// Physical version store.
  mutable std::shared_mutex store_mu_;
  mutable std::mutex gc_stats_mu_;

  LogicalClock clock_;
  MultiVersionStore store_;                 ///< store_mu_
  std::map<TxnId, TxnState> txns_;          ///< table_mu_ (+ ssi_mu_ rules)
  // SSI SIREAD bookkeeping: item readers and predicate readers (ssi_mu_).
  std::map<ItemId, std::set<TxnId>> readers_;
  std::vector<std::pair<Predicate, TxnId>> predicate_readers_;
  // Write-set reservations of pinned transactions — local committers in
  // their commit window and prepared (in-doubt) participants (commit_mu_).
  std::map<ItemId, TxnId> reservations_;
  // `slots_issued` doubles as the commit-sequence counter: validations
  // are serialized by commit_mu_, so each owns a distinct slot number.
  CommitPipelineStats pipeline_stats_;      ///< commit_mu_
  // Per-stage commit-pipeline latency (internally synchronized).
  obs::Histogram stage1_hist_;
  obs::Histogram stage2_hist_;
  obs::Histogram gc_pass_hist_;  ///< one GC pass, periodic or explicit
  uint32_t commits_since_gc_ = 0;           ///< commit_mu_
  std::atomic<Timestamp> gc_floor_{kInvalidTimestamp};
  VersionGcStats gc_stats_;                 ///< gc_stats_mu_
  std::function<void(TxnId)> commit_window_hook_;  ///< test failpoint
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_SI_ENGINE_H_
