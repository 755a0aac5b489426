#ifndef CRITIQUE_DB_DATABASE_H_
#define CRITIQUE_DB_DATABASE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "critique/check/online_checker.h"
#include "critique/common/clock.h"
#include "critique/common/random.h"
#include "critique/db/retry_policy.h"
#include "critique/db/transaction.h"
#include "critique/engine/engine.h"
#include "critique/engine/isolation.h"
#include "critique/obs/metrics.h"
#include "critique/obs/txn_trace.h"
#include "critique/wal/commit_log.h"
#include "critique/wal/recovery.h"

namespace critique {

/// The engine SPI hook: produces the implementation a `Database` runs on.
/// Defaults to the built-in factory for `DbOptions::isolation`; supply your
/// own to plug in a custom engine (ablations, instrumented engines,
/// future backends) without clients noticing.
using EngineFactory = std::function<std::unique_ptr<Engine>()>;

/// How sessions resolve lock conflicts (see `Database` thread-safety
/// notes).
enum class ConcurrencyMode {
  /// Cooperative protocol: conflicting operations answer `kWouldBlock`
  /// and the caller decides when to retry — the step-wise `Runner` on one
  /// thread (the default, and the mode every paper schedule runs under),
  /// or the `SessionExecutor`, which multiplexes many parked sessions
  /// over a few workers and retries on lock-release wakeups
  /// (`SetLockWakeupHook`).  The "one session per thread at a time"
  /// contract from the thread-safety notes applies unchanged: handles may
  /// hop threads between steps, they just cannot be driven from two at
  /// once.
  kCooperative,
  /// Thread-safe blocking protocol: conflicting operations park the
  /// calling thread in the lock manager (deadlock detection + lock-wait
  /// timeout) while other sessions keep running.  Drive one `Database`
  /// from as many threads as you like, one transaction per thread.
  kBlocking,
};

/// \brief Construction-time configuration of a `Database` session facade.
struct DbOptions {
  DbOptions() = default;
  /// Convenience: options for a stock engine at `level`.
  explicit DbOptions(IsolationLevel level) : isolation(level) {}

  /// Which stock engine to build when `engine_factory` is not set.
  IsolationLevel isolation = IsolationLevel::kSerializable;

  /// Engine SPI: overrides `isolation` when set.
  EngineFactory engine_factory;

  /// Client-side retry protocol; null selects `DefaultRetryPolicy()`.
  std::shared_ptr<const RetryPolicy> retry_policy;

  /// Seed of the facade's deterministic RNG (schedule shuffles, jitter).
  uint64_t seed = 1;

  /// Lock-conflict handling; `kBlocking` makes the database safe to drive
  /// from many threads at once.
  ConcurrencyMode mode = ConcurrencyMode::kCooperative;

  /// Blocking mode only: how long one lock wait may last before it is
  /// answered `kWouldBlock` ("lock wait timeout") and surfaces to the
  /// retry protocol as an ordinary retryable failure.
  std::chrono::milliseconds lock_wait_timeout{250};

  /// How many independently latched buckets the engine's lock table is
  /// hash-partitioned into (lock-based engines; 1 = one global table).
  /// Applies in both concurrency modes.
  size_t lock_stripes = LockManager::kDefaultStripes;

  /// Version garbage collection for multiversion engines.  The default
  /// `kRetainAll` keeps every version (exact `BeginAtTimestamp` time
  /// travel, full diagnostic chains); `kWatermark` prunes versions no
  /// live or future snapshot can observe, every `version_gc_interval`
  /// commits, and refuses time travel below the collected floor.
  VersionGcMode version_gc = VersionGcMode::kRetainAll;

  /// kWatermark only: commits between automatic GC passes.
  uint32_t version_gc_interval = 64;

  // --- durability ----------------------------------------------------------

  /// Write-ahead-log file.  Empty (the default) runs the engine purely in
  /// memory, the historical behavior.  Non-empty: the constructor starts a
  /// FRESH log (truncating any existing file — an explicit "new database");
  /// to restart from an existing log use `Database::Recover`.
  std::string wal_path;

  /// Group commit: a committer parks while another's sync is in flight and
  /// leaves as soon as that sync covers its record, so many concurrent
  /// committers share one physical sync.  Off, every committer pays its
  /// own sync.
  bool group_commit = false;

  /// What a physical sync does: kFlush (fwrite+fflush, real-file
  /// durability), kSimulated (flush + `fsync_latency` sleep, the honest
  /// device model benches use), kNone (ack before durable).
  FsyncMode fsync_mode = FsyncMode::kFlush;

  /// kSimulated only: modeled device latency per physical sync.
  /// (kFsync — real fsync(2)/fdatasync per physical sync, power-loss
  /// durability — is also selectable here; see `FsyncMode`.)
  std::chrono::microseconds fsync_latency{25};

  // --- history ---------------------------------------------------------------

  /// Record the engine's history (`history()`, `HistorySnapshot()`).  Off
  /// by default: traffic needs no history, and recording costs a mutex
  /// and an ever-growing `History` on every operation.  Callers that
  /// judge histories opt in — the `Runner` refuses a database that does
  /// not record, as do the scenario harness and HISTEX.  Off, the
  /// history reads stay empty and the engine hot path takes no recorder
  /// mutex (the online checker, when on, is fed directly).  There is no
  /// bounded mode on purpose: judging a suffix of a history would give
  /// wrong phenomenon verdicts.
  bool record_history = false;

  // --- online certification ------------------------------------------------

  /// Opt-in online MVSG certification: the facade owns an
  /// `check::OnlineChecker` fed from the engine recorder's action
  /// observer, maintaining the multiversion serialization graph as
  /// commits stream in and judging every transaction against its
  /// declared isolation level (`BeginOptions::level`).  Read the verdict
  /// any time with `Database::checker()->Report()`; counters also appear
  /// in the metrics registry under "check.".  Off by default — the
  /// observer is never installed and the engine hot path is untouched.
  /// (`BeginAtTimestamp` time travel below the checker's pruned horizon
  /// is not certified: such reads are skipped, never misjudged.)
  bool online_check = false;

  /// online_check only: ingested commits between automatic watermark
  /// prune passes (bounds checker memory; `GarbageCollectVersions` also
  /// triggers one).  0 disables automatic pruning.
  uint32_t online_check_prune_interval = 256;

  // --- observability -------------------------------------------------------

  /// Transaction-tracing ring capacity in events; 0 (the default)
  /// disables tracing entirely.  When nonzero the facade owns an
  /// `obs::TxnTracer`, the engine records begin/prepare/commit/abort
  /// events (aborts tagged with the paper-taxonomy reason), and the
  /// `SessionExecutor` adds park/wakeup events; dump any transaction's
  /// events with `Database::tracer()->Format(txn)`.  The always-on
  /// metrics registry (`Database::metrics()`) is independent of this
  /// knob.
  size_t trace_events = 0;
};

/// \brief Per-transaction begin-time declarations (the paper's Table 4
/// reading: isolation is a contract each transaction picks for itself).
struct BeginOptions {
  /// The isolation level this transaction declares.  Unset runs at the
  /// engine's own level.  A set level is handed to the engine SPI
  /// (`Engine::BeginWithLevel`), which refuses contracts it cannot honor
  /// — the SI engine runs Read Committed / Snapshot Isolation (and, when
  /// built with SSI, Serializable-SI) transactions side by side; the
  /// locking engine honors any Table 2 lock protocol per transaction.
  /// The online checker, when enabled, judges the transaction against
  /// this declared level.
  std::optional<IsolationLevel> level;
};

/// \brief The public session facade over the engine SPI.
///
/// The paper's central argument is that isolation levels must be judged by
/// the histories an engine actually produces; for that, every client —
/// runner, harness, examples, benches — has to drive engines uniformly and
/// record histories identically.  `Database` owns one engine instance
/// (built through the SPI factory), hands out move-only RAII `Transaction`
/// handles with auto-assigned ids, and centralizes the retry protocol that
/// callers used to hand-roll around `kWouldBlock` / `kDeadlock` /
/// `kSerializationFailure`.
///
/// Two driving styles coexist:
///
///  * `Execute(body)` — the closure style real MVCC stores expose: run the
///    body in a fresh transaction, commit, and on a retryable failure roll
///    back and re-run under the `RetryPolicy`;
///  * `Begin()` / `BeginWithId(t)` — explicit session handles for the
///    paper's step-wise interleavings (the `Runner` path), where the
///    schedule, not a policy, decides who advances.
///
/// Thread-safety guarantees (`ConcurrencyMode::kBlocking`):
///
///  * `Begin`, `BeginAtTimestamp`, `Execute`, `ForkRng`, and every
///    `Transaction` operation are safe to call from any thread, provided
///    each `Transaction` handle is driven by one thread at a time (the
///    universal "one session per thread" contract).  Transaction ids, the
///    open-transaction count, and the `execute_retries` counter are
///    atomic; the engines serialize operation bodies internally and park
///    lock waits outside their latches.
///  * `rng()` hands out the facade's single deterministic RNG and is NOT
///    synchronized: it belongs to the cooperative single-threaded style
///    (the `Runner` path).  Concurrent workers call `ForkRng()` once per
///    thread instead, which derives an independent deterministic stream
///    under an internal mutex.
///  * `history()` is a cheap reference view for quiescent callers (no
///    sessions in flight); while threads are mid-transaction use
///    `HistorySnapshot()`.  Both are empty unless
///    `DbOptions::record_history` is set.  `stats()` and
///    `StatsSnapshot()` sum the engine's sharded counters: exact once
///    sessions are quiescent, not a consistent cut while they run.
///  * Construction and destruction are not thread-safe; finish all
///    sessions first.
///
/// In the default `kCooperative` mode conflicting operations answer
/// `kWouldBlock` for the caller to retry.  The classic driver is the
/// single-threaded `Runner`; the same "one session per thread at a time"
/// contract also makes multi-worker cooperative driving safe — the
/// `SessionExecutor` (sched layer) moves parked sessions between worker
/// threads, each handle still touched by exactly one thread at any
/// moment.
///
/// Neither copyable nor movable: open `Transaction` handles, the engine's
/// WAL sink, metrics and tracer hooks all point back into the facade.
/// Factories return a prvalue (`return Database(options);`, elided in
/// C++17); `Recover` hands out a `std::unique_ptr`.
class Database {
 public:
  /// A serializable-by-default database.
  Database() : Database(DbOptions()) {}
  /// A database running the stock engine for `level`.
  explicit Database(IsolationLevel level) : Database(DbOptions(level)) {}
  /// Requires that the engine factory (or the built-in one for
  /// `options.isolation`) produces a non-null engine; aborts with a
  /// diagnostic otherwise (in every build type).
  explicit Database(DbOptions options);

  /// A database over an already-built engine (the non-factory SPI form);
  /// `options.engine_factory` and `options.isolation` are ignored.
  /// `engine` must be non-null.
  Database(std::unique_ptr<Engine> engine, DbOptions options);

  /// Restart recovery: reads the WAL at `options.wal_path` (required),
  /// replays its intact prefix into a fresh engine (committed transactions
  /// roll forward; prepared-but-undecided participants are re-frozen in
  /// doubt for `RecoverInDoubt` / presumed abort), truncates any torn
  /// tail, and reopens the log for appending — the recovered database logs
  /// onward into the same file.  Fails on a log the engine refuses to
  /// replay (corruption past the CRC layer) or on I/O errors; a missing
  /// file is an empty log (first boot), not an error.  When `votes` is
  /// non-null it receives the log's 2PC votes (`ShardedDatabase::Recover`
  /// decides its in-doubt global transactions from them).
  static Result<std::unique_ptr<Database>> Recover(DbOptions options,
                                                   WalVotes* votes = nullptr);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Engine display name ("Locking READ COMMITTED (Degree 2)", ...).
  std::string name() const { return engine_->name(); }

  /// The isolation level the underlying engine implements.
  IsolationLevel level() const { return engine_->level(); }

  /// The lock-conflict handling mode this database was built with.
  ConcurrencyMode mode() const { return mode_; }

  /// Loads an initial row before any transaction begins (bootstrap only).
  /// With a WAL attached the load is also logged, as a `kLoad` record
  /// (buffered; durable with the next sync or clean shutdown): a
  /// redo-only log must carry the bootstrap state too, or `Recover`
  /// would rebuild a database missing every row no transaction ever
  /// rewrote — the log doubles as the checkpoint this scheme never takes.
  Status Load(const ItemId& id, Row row);

  /// Loads an initial scalar item.
  Status Load(const ItemId& id, Value v) {
    return Load(id, Row::Scalar(std::move(v)));
  }

  /// Starts a transaction with the next free id.
  Transaction Begin();

  /// Starts a transaction with the next free id under a per-transaction
  /// declaration.  Fails (FailedPrecondition) when the engine cannot
  /// honor the declared level — the contract is never silently adjusted.
  Result<Transaction> Begin(const BeginOptions& opts);

  /// Starts a transaction with an explicit id — the manual-interleaving
  /// path for the paper's schedules, where "T1" must be history subscript
  /// 1.  Fails on id reuse.  Sessions begun this way surface `kWouldBlock`
  /// immediately, bypassing the policy's op-level retry budget: the
  /// schedule (e.g. the `Runner`), not the `RetryPolicy`, decides when a
  /// blocked step runs again.
  Result<Transaction> BeginWithId(TxnId id);

  /// The explicit-id begin with a per-transaction declaration — manual
  /// interleavings over mixed-level populations.
  Result<Transaction> BeginWithId(TxnId id, const BeginOptions& opts);

  /// Time travel (Section 4.2): a transaction reading the historical
  /// snapshot `ts`.  FailedPrecondition unless the engine is multiversion
  /// with timestamped snapshots (Snapshot Isolation / SSI).
  Result<Transaction> BeginAtTimestamp(Timestamp ts);

  /// The latest committed snapshot timestamp, when the engine keeps one.
  std::optional<Timestamp> CurrentTimestamp() const;

  /// Runs `body` in a fresh transaction and commits it (unless the body
  /// already finished the transaction itself).  On a retryable failure —
  /// lock timeout, deadlock victim, First-Committer-Wins / SSI refusal —
  /// rolls back and re-runs the body while the `RetryPolicy` allows.
  /// Returns the first non-retryable status, or the last failure when
  /// retries are exhausted.  The loop is `RunWithRetries`, shared with
  /// `ShardedDatabase::Execute`.  Every restart keeps the first attempt's
  /// deadlock-victim seniority (`Engine::InheritSeniority`), so a body
  /// that keeps losing deadlocks ages until it wins them.
  Status Execute(const std::function<Status(Transaction&)>& body);

  /// `Execute` under a per-transaction declaration: every attempt (and
  /// retry) begins with `opts`.  A begin refusal (a level the engine
  /// cannot honor) and any `FailedPrecondition` are terminal, whatever
  /// the policy says.
  Status Execute(const BeginOptions& opts,
                 const std::function<Status(Transaction&)>& body);

  /// How many times `Execute` re-ran a body after a retryable failure
  /// (across all threads).
  uint64_t execute_retries() const {
    return execute_retries_.load(std::memory_order_relaxed);
  }

  /// The history recorded by the engine so far (quiescent view; see the
  /// thread-safety notes).  Empty unless `DbOptions::record_history`.
  const History& history() const { return engine_->history(); }

  /// Whether this database records its history.
  bool records_history() const { return engine_->records_history(); }

  /// A history copy safe to take while sessions are in flight (empty
  /// unless `DbOptions::record_history`).
  History HistorySnapshot() const { return engine_->HistorySnapshot(); }

  /// Engine operation counters (see the thread-safety notes); the two
  /// calls are the same.
  EngineStats stats() const { return engine_->stats(); }
  EngineStats StatsSnapshot() const { return engine_->StatsSnapshot(); }

  /// The retry protocol in force.
  const RetryPolicy& retry_policy() const { return *retry_; }

  /// The facade's deterministic RNG (seeded from `DbOptions::seed`).
  /// Cooperative single-threaded use only — concurrent workers take a
  /// `ForkRng()` stream each instead.
  Rng& rng() { return rng_; }

  /// Derives an independent deterministic RNG stream from the facade RNG
  /// (mutex-guarded; safe from any thread).  Typical use: one fork per
  /// worker thread, taken before or after — never during — a run.
  Rng ForkRng();

  /// Installs (or, with nullptr, removes) the lock-release wakeup hook on
  /// the underlying engine (`EngineConcurrency::lock_wakeup`): in
  /// cooperative mode, every operation that answers `kWouldBlock` first
  /// registers its transaction for exactly one wakeup, and the hook fires
  /// with that TxnId once a conflicting lock is released — the event a
  /// scheduler parks the session on instead of polling.  Engines without
  /// a lock table ignore it.  Must be called while no transaction is open
  /// (aborts otherwise); the hook runs on releasing threads and must only
  /// enqueue the id, never call back into this database.
  void SetLockWakeupHook(std::function<void(TxnId)> hook);

  /// SPI escape hatch for engine-specific maintenance and tests.  Clients
  /// of the session API should not need it.
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  /// Open (still-active) transaction handles pointing at this database.
  int open_transactions() const {
    return open_txns_.load(std::memory_order_relaxed);
  }

  // --- version garbage collection ------------------------------------------
  //
  // The facade tracks every open transaction's begin timestamp (for
  // timestamped engines), so the version-GC low-watermark — the oldest
  // snapshot any live session can still read — is observable here without
  // reaching into the engine.  The engine derives the same watermark from
  // its own transaction table when it prunes; the facade view exists for
  // observability, tests, and operators.

  /// The begin timestamp of the oldest still-open transaction (a lower
  /// bound on every open snapshot), or the engine's current timestamp
  /// when none are open; nullopt for engines without timestamps.
  std::optional<Timestamp> OldestOpenSnapshot() const;

  /// Runs one version-GC pass on the engine now (any mode); returns the
  /// number of versions discarded (0 for single-version engines).  With
  /// online certification enabled the checker runs a watermark prune
  /// pass alongside — its graph horizon is tied to version GC.
  size_t GarbageCollectVersions() {
    size_t n = engine_->GarbageCollectVersions();
    if (checker_ != nullptr) checker_->Prune();
    return n;
  }

  /// Stored version count (0 for single-version engines).
  size_t VersionCount() const { return engine_->VersionCount(); }

  // --- durability ----------------------------------------------------------

  /// The commit log, or nullptr when running without a WAL.
  CommitLog* wal() { return wal_.get(); }
  const CommitLog* wal() const { return wal_.get(); }

  /// True when this database came from `Recover` (vs a fresh log).
  bool recovered() const { return recovered_; }

  /// What recovery replayed (all-zero for a fresh database).
  const WalRecoveryStats& wal_recovery() const { return wal_recovery_; }

  // --- observability -------------------------------------------------------

  /// The always-on metrics registry: the engine's counters and stage
  /// histograms register under "engine.", the commit log's under "wal.",
  /// and a `SessionExecutor` adds "executor." entries while it lives.
  /// Export with `metrics().ToJson()` / `ToText()`.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The transaction tracer, or nullptr unless `DbOptions::trace_events`
  /// was nonzero.
  obs::TxnTracer* tracer() { return tracer_.get(); }
  const obs::TxnTracer* tracer() const { return tracer_.get(); }

  /// The online MVSG checker, or nullptr unless `DbOptions::online_check`
  /// was set.  `checker()->Report()` is the live certification verdict.
  check::OnlineChecker* checker() { return checker_.get(); }
  const check::OnlineChecker* checker() const { return checker_.get(); }

  /// Stall introspection: open-transaction census (ids with begin
  /// timestamps where tracked) plus the engine's own dump — lock holders,
  /// waiters, and waits-for edges for lock-based engines.  Safe to call
  /// from any thread while sessions are parked mid-conflict; this is the
  /// "why is nothing moving?" snapshot.
  std::string DebugDump() const;

 private:
  friend class Transaction;

  /// The one begin path behind every public begin: registers `id`'s
  /// snapshot bound and declared level, then begins it on the engine —
  /// at `at` (time travel) when set, else under `level` when set.  A
  /// `manual` session surfaces `kWouldBlock` immediately (see
  /// `BeginWithId`).  On refusal only the registrations this call made
  /// are undone, so a refused duplicate id leaves the live transaction
  /// holding it untouched.
  Result<Transaction> StartSession(TxnId id,
                                   std::optional<IsolationLevel> level,
                                   std::optional<Timestamp> at, bool manual);

  /// Open-snapshot registry upkeep (timestamped engines only).  Register
  /// keeps an existing entry and returns false for it.
  bool RegisterSnapshot(TxnId id, Timestamp begin_ts);
  void ForgetSnapshot(TxnId id);

  /// Attaches a freshly built commit log and points the engine at it.
  void AttachWal(WalWriter writer, const DbOptions& options);

  /// Builds the metrics registry (and the tracer, when opted in) and
  /// hands both to the engine.  Constructor-only.
  void WireObservability(const DbOptions& options);

  std::unique_ptr<Engine> engine_;
  /// The engine's raw `WalSink*` points here.  Destroyed (flushing
  /// cleanly) before the engine, which is quiescent by then and never
  /// logs from its destructor.
  std::unique_ptr<CommitLog> wal_;
  /// The engine and commit log hold raw pointers into these.  The
  /// registry always exists; the tracer only when
  /// `DbOptions::trace_events` > 0.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TxnTracer> tracer_;
  /// The engine's recorder observer captures the raw checker pointer.
  std::unique_ptr<check::OnlineChecker> checker_;
  WalRecoveryStats wal_recovery_;
  bool recovered_ = false;
  std::shared_ptr<const RetryPolicy> retry_;
  ConcurrencyMode mode_ = ConcurrencyMode::kCooperative;
  std::mutex rng_mu_;  ///< guards rng_ for ForkRng
  Rng rng_;
  std::atomic<TxnId> next_id_{1};
  std::atomic<uint64_t> execute_retries_{0};
  std::atomic<int> open_txns_{0};
  /// Whether the engine keeps timestamped snapshots (decided once at
  /// construction; snapshot tracking is skipped entirely otherwise).
  bool track_snapshots_ = false;
  mutable std::mutex snap_mu_;  ///< guards open_snapshots_
  std::map<TxnId, Timestamp> open_snapshots_;
};

}  // namespace critique

#endif  // CRITIQUE_DB_DATABASE_H_
