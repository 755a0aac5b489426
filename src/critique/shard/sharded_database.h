#ifndef CRITIQUE_SHARD_SHARDED_DATABASE_H_
#define CRITIQUE_SHARD_SHARDED_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "critique/db/database.h"
#include "critique/shard/shard_router.h"
#include "critique/shard/txn_coordinator.h"
#include "critique/wal/commit_log.h"

namespace critique {

class ShardedTransaction;

/// \brief Construction-time configuration of a `ShardedDatabase`.
struct ShardedDbOptions {
  ShardedDbOptions() = default;
  ShardedDbOptions(int shards, IsolationLevel level)
      : num_shards(shards), shard_options(level) {}

  /// How many hash partitions the keyspace splits into.
  int num_shards = 4;

  /// The per-shard engine configuration every shard is built from
  /// (isolation level or engine factory, concurrency mode, lock-wait
  /// timeout, deadlock-check interval).
  DbOptions shard_options;

  /// Heterogeneous shards: when non-empty (size must equal `num_shards`),
  /// shard `i` is built from `per_shard[i]` instead of `shard_options` —
  /// the mixed-isolation setting of Bouajjani et al., where different
  /// partitions of one logical database honor different levels.
  std::vector<DbOptions> per_shard;

  /// Facade-level `Execute` retry protocol; null selects
  /// `DefaultRetryPolicy()`.
  std::shared_ptr<const RetryPolicy> retry_policy;

  /// Seed of the facade RNG; shard RNGs derive deterministically from it.
  uint64_t seed = 1;

  /// When non-empty, durability is on: shard `i` writes its WAL to
  /// `<wal_dir>/shard-<i>.wal` and the coordinator's decision log becomes
  /// persistent at `<wal_dir>/coordinator.wal` (the directory is created
  /// if missing; construction truncates, `Recover` replays).  Group-commit
  /// and fsync settings come from the per-shard `DbOptions` as usual; the
  /// decision log reuses `shard_options`' fsync configuration.  Any
  /// `wal_path` set on the per-shard options directly is overridden.
  std::string wal_dir;
};

/// \brief A hash-partitioned database: N independent per-shard engines
/// behind one session facade, with a two-phase-commit coordinator for
/// transactions that touch more than one shard.
///
/// The paper's phenomena are defined on single-site histories; this layer
/// is where they stop composing.  Each shard is a full `Database` (any
/// engine the SPI can produce, so shards may run heterogeneous isolation
/// levels); a `ShardedTransaction` lazily opens one per-shard session per
/// shard it touches, all under a single global transaction id, so every
/// shard's recorded history carries the same subscript for the same
/// global transaction.  Commit routes by footprint:
///
///  * single-shard transactions commit directly on their shard — no
///    coordinator, no extra latency (the fast path benches measure);
///  * cross-shard transactions run 2PC through the `TxnCoordinator`:
///    prepare everywhere, log the decision, commit everywhere, with
///    presumed-abort recovery (`RecoverInDoubt`) for participants a
///    crashed coordinator left in doubt.
///
/// What 2PC does and does not give you (the cross-shard scenario family):
/// atomicity of the commit itself — yes; a global *snapshot* — no.  Two
/// shards running Snapshot Isolation still admit cross-shard write skew
/// and fractured (non-atomic) reads of an atomically-committed transfer,
/// both impossible on one SI site; per-shard Locking SERIALIZABLE + 2PC
/// keeps global histories serializable because every lock is held through
/// the in-doubt window (see shard_scenarios.h).
///
/// Thread-safety mirrors `Database`: with blocking-mode shards, drive the
/// facade from as many threads as you like, one `ShardedTransaction` per
/// thread.  Global ids, counters, and the coordinator log are atomic or
/// mutex-guarded.  Note the per-shard deadlock detectors cannot see
/// cross-shard waits-for cycles — a distributed deadlock is broken by the
/// lock-wait timeout surfacing as a retryable failure, not by victim
/// selection.
class ShardedDatabase {
 public:
  explicit ShardedDatabase(ShardedDbOptions options);
  ShardedDatabase(int num_shards, IsolationLevel level)
      : ShardedDatabase(ShardedDbOptions(num_shards, level)) {}

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  /// Clean shutdown: syncs every shard log, closes the decisions whose
  /// participant commit records that made durable, then flushes the
  /// coordinator log — so a cleanly stopped facade leaves no open
  /// decision behind.
  ~ShardedDatabase();

  /// Rebuilds the facade from the WALs under `options.wal_dir` after a
  /// crash: every shard replays its redo log (`Database::Recover`), the
  /// coordinator's decision table is reseeded from the still-open entries
  /// of its persistent log (an open entry no shard holds a participant in
  /// doubt for is already applied, and is closed instead), and the
  /// global-id allocator advances past every recovered id.  Participants
  /// a crashed coordinator left prepared come back *in doubt*; call
  /// `RecoverInDoubt()` on the returned facade to resolve them against
  /// the restored decisions (logged commit → roll forward, no decision →
  /// presumed abort).
  /// The same `options` used to build the crashed instance must be passed
  /// (engine configuration is not persisted).
  static Result<std::unique_ptr<ShardedDatabase>> Recover(
      ShardedDbOptions options);

  /// True when this facade was built by `Recover`.
  bool recovered() const { return recovered_; }

  /// The coordinator's persistent decision log; null when `wal_dir` was
  /// empty (in-memory decisions, the historical default).
  CommitLog* coordinator_log() { return coord_log_.get(); }

  int num_shards() const { return router_.num_shards(); }

  /// The shard owning `id` (pure hash of the item id).
  int ShardOf(const ItemId& id) const { return router_.ShardOf(id); }

  const ShardRouter& router() const { return router_; }

  /// Shard `i`'s session facade (engine escape hatches included).
  Database& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Database& shard(int i) const {
    return *shards_[static_cast<size_t>(i)];
  }

  /// Routed bootstrap load (before any transaction begins).
  Status Load(const ItemId& id, Row row) {
    return shard(ShardOf(id)).Load(id, std::move(row));
  }
  Status Load(const ItemId& id, Value v) {
    return shard(ShardOf(id)).Load(id, Row::Scalar(std::move(v)));
  }

  /// Starts a global transaction with the next free global id.
  ShardedTransaction Begin();

  /// Starts a global transaction under a declared per-transaction
  /// isolation contract: every per-shard session it opens is begun with
  /// `opts.level`, so the contract spans the whole footprint.  A shard
  /// whose engine cannot honor the level refuses at first touch (the
  /// heterogeneous-shard setting makes this reachable), which dooms the
  /// global transaction like any participant refusal.
  ShardedTransaction Begin(const BeginOptions& opts);

  /// Runs `body` in a fresh global transaction and commits it (2PC when it
  /// touched multiple shards).  Retryable failures — per-shard
  /// serialization refusals, deadlock victims, lock-wait timeouts, 2PC
  /// prepare refusals — roll back every participant and re-run the body
  /// while the `RetryPolicy` allows, exactly like `Database::Execute`.
  Status Execute(const std::function<Status(ShardedTransaction&)>& body);

  /// `Execute` under a declared per-transaction isolation contract.  An
  /// engine-refused contract (FailedPrecondition at first touch) is
  /// terminal, never retried.
  Status Execute(const BeginOptions& opts,
                 const std::function<Status(ShardedTransaction&)>& body);

  /// Sum of every shard's online-certification report (empty when
  /// `online_check` was off).  Violation samples concatenate in shard
  /// order; `peak_live_nodes` sums — the facade-level memory bound.
  check::CheckerReport CheckerReportAggregate() const;

  /// How many times `Execute` re-ran a body (across all threads).
  uint64_t execute_retries() const {
    return execute_retries_.load(std::memory_order_relaxed);
  }

  /// Committed transactions that never needed the coordinator.
  uint64_t single_shard_commits() const {
    return single_shard_commits_.load(std::memory_order_relaxed);
  }

  /// The cross-shard commit protocol (stats, failpoints, decision log).
  TxnCoordinator& coordinator() { return coordinator_; }
  const TxnCoordinator& coordinator() const { return coordinator_; }

  /// What presumed-abort recovery did.
  struct RecoveryReport {
    uint64_t committed = 0;  ///< in-doubt participants rolled forward
    uint64_t aborted = 0;    ///< in-doubt participants presumed aborted
    /// Participants whose logged *commit* decision was refused by the
    /// engine's decision-phase re-validation (a certifying SSI
    /// participant whose dangerous structure completed while in doubt);
    /// the engine rolled them back — nothing leaks, the refusal is the
    /// abort acknowledgement.
    uint64_t decision_aborts = 0;
  };

  /// Resolves every in-doubt participant on every shard against the
  /// coordinator's decision log: a logged commit rolls the participant
  /// forward; no logged decision means the coordinator never decided, and
  /// presumed abort rolls it back — releasing its locks and pending
  /// versions.  The logs of shards it rolled forward are synced before
  /// their decisions are closed.  Idempotent; safe on a quiescent facade.
  RecoveryReport RecoverInDoubt();

  /// Sum of every shard's engine counters (consistent per shard; the sum
  /// is exact when quiescent).
  EngineStats StatsAggregate() const;

  // --- version garbage collection ------------------------------------------
  //
  // Per-shard GC is globally safe without coordination: a cross-shard
  // transaction pins each shard's low-watermark through the engine
  // session it holds open *on that shard*, and a shard it has not touched
  // yet will give it a fresh snapshot at first touch — never one below
  // that shard's own watermark.  (In `kWatermark` mode there is no global
  // snapshot to preserve in the first place; `kRetainAll` shards keep
  // everything.)

  /// Runs one version-GC pass on every shard; returns total versions
  /// dropped.
  size_t GarbageCollectVersions();

  /// Total stored versions across all shards (exact when quiescent).
  size_t VersionCountAggregate() const;

  /// The oldest open snapshot across shards that track one (nullopt when
  /// no shard does) — the facade-level GC low-watermark.
  std::optional<Timestamp> OldestOpenSnapshot() const;

  /// The facade-level retry protocol in force.
  const RetryPolicy& retry_policy() const { return *retry_; }

  /// Derives an independent deterministic RNG stream (safe from any
  /// thread); one fork per worker thread.
  Rng ForkRng();

 private:
  friend class ShardedTransaction;

  /// Tag ctor that builds everything but the shards (and the logs) —
  /// `Recover` fills those from the WALs instead of fresh.
  struct DeferShards {};
  ShardedDatabase(const ShardedDbOptions& options, DeferShards);

  /// The effective `DbOptions` for shard `i`: per-shard template, derived
  /// seed, and (when `wal_dir` is set) the shard's WAL path.
  static DbOptions ShardOptionsFor(const ShardedDbOptions& options, int i);

  /// Wraps `writer` in a `CommitLog` and attaches it to the coordinator.
  void AttachCoordinatorLog(WalWriter writer, const ShardedDbOptions& options);

  ShardRouter router_;
  std::vector<std::unique_ptr<Database>> shards_;
  TxnCoordinator coordinator_;
  /// The coordinator's persistent decision log (heap-allocated so the raw
  /// pointer the coordinator holds stays stable); null when durability is
  /// off.
  std::unique_ptr<CommitLog> coord_log_;
  bool recovered_ = false;
  std::shared_ptr<const RetryPolicy> retry_;
  std::mutex rng_mu_;
  Rng rng_;
  std::atomic<TxnId> next_gid_{1};
  std::atomic<uint64_t> execute_retries_{0};
  std::atomic<uint64_t> single_shard_commits_{0};
};

/// \brief A move-only session handle over one global (possibly
/// cross-shard) transaction.
///
/// Mirrors the single-site `Transaction` surface for keyed operations,
/// routing each by the item's shard and lazily beginning the per-shard
/// session on first touch (so the per-shard snapshots of a multiversion
/// engine are taken at first touch, not at global begin — the lack of a
/// global snapshot point is precisely the anomaly source the scenarios
/// probe).  Predicate reads scatter to every shard and merge in shard
/// order.  Cursor operations are not routed (FailedPrecondition): cursor
/// semantics are a single-site Section 4.1 concern.
///
/// Any participant dying engine-side (deadlock victim, serialization
/// refusal) aborts the global transaction: remaining participants roll
/// back immediately and the handle finishes, so the retry layer restarts
/// the whole body — a participant abort can never strand half a global
/// transaction.
class ShardedTransaction {
 public:
  ShardedTransaction(ShardedTransaction&& other) noexcept;
  ShardedTransaction& operator=(ShardedTransaction&& other) noexcept;
  ShardedTransaction(const ShardedTransaction&) = delete;
  ShardedTransaction& operator=(const ShardedTransaction&) = delete;

  /// Rolls back every still-active participant.
  ~ShardedTransaction();

  /// The global transaction id — the history subscript on every shard.
  TxnId id() const { return gid_; }

  /// The declared per-transaction level (nullopt: each shard's default).
  std::optional<IsolationLevel> declared_level() const { return level_; }

  /// True until Commit / Rollback / a participant-side abort.
  bool active() const { return active_; }

  /// The owning facade.
  ShardedDatabase& database() const { return *db_; }

  /// Shards this transaction has opened a session on so far.
  int shards_touched() const;

  /// True when more than one shard is involved (commit will run 2PC).
  bool cross_shard() const { return shards_touched() > 1; }

  // --- reads ---------------------------------------------------------------

  Result<std::optional<Row>> Get(const ItemId& id);
  Result<Value> GetScalar(const ItemId& id);

  /// Scatter-gather SELECT ... WHERE: evaluated on every shard, results
  /// merged in shard order.  Opens a session on all shards.
  Result<std::vector<std::pair<ItemId, Row>>> GetWhere(const std::string& name,
                                                       const Predicate& pred);

  // --- writes --------------------------------------------------------------

  Status Put(const ItemId& id, Row row);
  Status Put(const ItemId& id, Value v);
  Status Insert(const ItemId& id, Row row);
  Status Erase(const ItemId& id);
  Status Update(const ItemId& id,
                const std::function<Row(const std::optional<Row>&)>& transform);

  // --- terminals -----------------------------------------------------------

  /// Commits: directly on the single touched shard, or through the 2PC
  /// coordinator when cross-shard.  Retryable refusals mean every
  /// participant has been rolled back.  `kInternal` means a coordinator
  /// failpoint "crashed" mid-protocol and prepared participants are in
  /// doubt — resolve with `ShardedDatabase::RecoverInDoubt`.
  Status Commit();

  /// Rolls back every still-active participant; OK when already finished.
  /// Participants a crashed coordinator left prepared are NOT disturbed
  /// (the engine refuses; they stay in doubt for recovery).
  Status Rollback();

 private:
  friend class ShardedDatabase;
  ShardedTransaction(ShardedDatabase* db, TxnId gid,
                     std::optional<IsolationLevel> level = std::nullopt);

  /// The session on `shard`, begun on first use.
  Result<Transaction*> Part(int shard);

  /// Propagates a participant's terminal failure to the global level: on
  /// deadlock / serialization refusal / dead-handle answers, every other
  /// participant rolls back and the handle finishes.
  Status ObservePartStatus(Status s);

  /// Rolls back every still-active participant (engine-refused rollbacks
  /// of in-doubt participants are ignored by design).
  void AbortParts();

  ShardedDatabase* db_ = nullptr;  ///< null only for moved-from husks
  TxnId gid_ = 0;
  bool active_ = false;
  std::optional<IsolationLevel> level_;  ///< declared contract, if any
  std::vector<std::optional<Transaction>> parts_;  ///< one slot per shard
};

}  // namespace critique

#endif  // CRITIQUE_SHARD_SHARDED_DATABASE_H_
