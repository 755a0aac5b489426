#ifndef CRITIQUE_CHECK_ONLINE_CHECKER_H_
#define CRITIQUE_CHECK_ONLINE_CHECKER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "critique/engine/isolation.h"
#include "critique/history/action.h"

namespace critique {
class History;

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace check {

/// \brief Tuning knobs for the online checker.
struct CheckerOptions {
  /// Automatic pruning cadence: a watermark prune pass runs every this
  /// many ingested commits (0 disables automatic pruning; `Prune()` can
  /// still be called explicitly, e.g. from the version-GC path).
  uint32_t prune_interval = 256;

  /// Cap on retained violation records (counters keep counting past it).
  size_t max_recorded_violations = 32;
};

/// \brief One certification failure: a committed transaction whose
/// declared isolation level forbids the structure it participated in.
struct CheckerViolation {
  TxnId txn = 0;            ///< the transaction the verdict is charged to
  std::string kind;         ///< "dirty-read" or "cycle"
  std::string detail;       ///< human-readable account (cycle path, levels)
};

/// \brief Snapshot of the checker's verdicts and bookkeeping.
///
/// `violations` counts anomalies some participant's declared level
/// forbids; `allowed_anomalies` counts MVSG cycles that are excused
/// because every guarantee on the cycle is kept (some transaction's
/// declared level permits its role in the structure — e.g. write skew
/// among Snapshot Isolation transactions, lost updates among Read
/// Committed ones).  A run of stock engines at truthfully-declared
/// levels must report `violations == 0`.
struct CheckerReport {
  uint64_t commits_certified = 0;   ///< committed txns fully ingested
  uint64_t aborts_observed = 0;     ///< aborted txns ingested (not judged)
  uint64_t violations = 0;          ///< contract-breaking anomalies
  uint64_t allowed_anomalies = 0;   ///< cycles excused by a weak level
  uint64_t dirty_reads_allowed = 0; ///< dirty reads at Degree0/ReadUncommitted
  uint64_t edges_added = 0;         ///< distinct MVSG edges inserted
  uint64_t cycle_checks = 0;        ///< backward insertions that ran a DFS
  uint64_t nodes_pruned = 0;        ///< committed nodes retired by watermark
  uint64_t live_nodes = 0;          ///< graph nodes currently retained
  uint64_t peak_live_nodes = 0;     ///< high-water mark of live_nodes
  std::vector<CheckerViolation> first_violations;  ///< capped sample

  bool ok() const { return violations == 0; }
  std::string ToString() const;

  /// Field-wise sum (the sharded facade's aggregate): every counter adds,
  /// `peak_live_nodes` too (the facade-level memory bound), and the
  /// violation samples concatenate.
  CheckerReport& operator+=(const CheckerReport& o);
};

/// \brief Incremental multiversion serialization-graph checker.
///
/// Maintains the MVSG of [BHG] Chapter 5 as actions stream in: version
/// order per item is commit order, `ww` joins adjacent versions, `wr`
/// runs creator→reader, and `rw` runs reader→creator of the *immediate
/// next* version.  The one graph has two drivers: `Database` feeds it
/// live from the engine's action observer, and `ReplayHistory` feeds it
/// a recorded history with pruning off (the offline judge behind
/// `IsMVSerializable`).
///
///  * **Incremental cycle detection.**  Nodes enter the graph at commit,
///    so node order is commit order and `ww`/`wr` edges always point
///    forward; only `rw` anti-dependencies can point backward.  A
///    Pearce–Kelly style bounded DFS runs only on backward insertions
///    (the write-skew shapes), keeping per-commit cost near-constant on
///    conflict-free workloads.
///
///  * **Pruning watermark.**  The checker counts ingested commits
///    ("epochs") and records each transaction's first-seen epoch at
///    registration (`BeginTxn`, called *before* the engine begin, so a
///    transaction's snapshot can never predate its registration epoch).
///    The watermark is the minimum first-seen epoch over open
///    transactions: a committed node older than the watermark can gain
///    no new in-edge, and once its in-degree reaches zero it can sit on
///    no future cycle and is retired (Kahn-style cascade).  Superseded
///    versions older than the watermark are dropped the same way, so
///    memory is bounded by the concurrency window, not history length.
///    (`BeginAtTimestamp` reads below the pruned horizon are the one
///    exception: their edges are silently skipped, never misjudged.)
///
///  * **Per-transaction levels.**  Each transaction is judged against
///    its *declared* isolation level (the paper's Table 4 contract): a
///    detected cycle is an allowed anomaly iff some participant's level
///    permits its role in it — Degree 0 / Read Uncommitted permit any
///    role; Read Committed–class levels permit an outgoing
///    anti-dependency (fuzzy reads, lost updates); Snapshot Isolation
///    permits being the pivot of consecutive anti-dependencies (write
///    skew, per Fekete et al.'s cycle-structure theorem); Repeatable
///    Read and the serializable levels permit nothing.  Excused cycles
///    are broken by excising the excusing edge so certification
///    continues.  Predicate reads are not tracked (item-level graph
///    only), which is what keeps Repeatable Read free of false
///    positives — phantom analysis stays with the single-version
///    analyzers in `analysis/`.
///
/// Reads in single-version histories (the locking engines record no
/// version subscripts) have their observed creator inferred from the
/// in-place store discipline: the last uncommitted writer if one is
/// live, else the last committed version.
///
/// Thread safety: all entry points lock one internal mutex.  `Ingest` is
/// designed to be called from `EngineRecorder`'s action observer, at each
/// action's call site under the engine's latches — and, while a history
/// is recorded, under the recorder mutex too.  Either way the internal
/// mutex serializes ingestion in the order the engine's latches impose,
/// which is the order the recorded history would show; the checker never
/// calls back into the engine.
class OnlineChecker {
 public:
  explicit OnlineChecker(CheckerOptions options = {});

  /// Level assumed for transactions never declared via `BeginTxn`.
  void SetDefaultLevel(IsolationLevel level);

  /// Registers an open transaction and its declared level.  Must be
  /// called before the engine's Begin so the registration epoch lower-
  /// bounds the snapshot (Database does this).  Returns false, changing
  /// nothing, when `txn` is already known — a reused id must not
  /// re-declare (or, through `CancelTxn`, drop) the transaction holding it.
  bool BeginTxn(TxnId txn, IsolationLevel level);

  /// Withdraws a registration that never produced actions (an engine
  /// Begin that was refused).  No-op if the transaction has activity.
  void CancelTxn(TxnId txn);

  /// Feeds one recorded action, in history order.
  void Ingest(const Action& a);

  /// Runs a watermark prune pass; returns the number of nodes retired.
  /// Also invoked automatically every `prune_interval` commits.
  size_t Prune();

  CheckerReport Report() const;
  uint64_t live_nodes() const;

  /// Exposes verdict counters and graph-size gauges as `<prefix>*`.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

  // Edge kinds between one ordered node pair, as a bitmask: a pair may
  // carry several conflict kinds, and excusability requires the pair to
  // be a *pure* anti-dependency.
  enum EdgeBits : uint8_t { kWw = 1, kWr = 2, kRw = 4 };

 private:
  enum class TxnStatus : uint8_t { kOpen, kCommitted, kAborted };

  struct Node {
    IsolationLevel level = IsolationLevel::kSerializable;
    TxnStatus status = TxnStatus::kOpen;
    uint64_t first_seen_epoch = 0;
    uint64_t commit_epoch = 0;
    uint64_t ord = 0;        // topological position (assigned at commit)
    bool dirty_read = false; // observed another txn's uncommitted write
    std::string dirty_detail;  // first dirty observation: item + creator
    // Observed reads: (item, creator) -> true.  One entry per distinct
    // observed version (statement-snapshot levels may observe several
    // versions of one item).
    std::map<std::pair<ItemId, TxnId>, bool> reads;
    std::vector<ItemId> writes;  // distinct items written, insertion order
    std::map<TxnId, uint8_t> out;  // committed-graph adjacency (edge mask)
    std::map<TxnId, uint8_t> in;   // reverse adjacency
  };

  struct VersionEntry {
    TxnId creator = kInitialTxn;
    uint64_t commit_epoch = 0;
    // Readers registered on this version (edges materialize lazily when
    // both endpoints commit).
    std::map<TxnId, bool> readers;
  };

  struct ItemState {
    // Committed versions in commit order; pruned from the front.  The
    // initial version (kInitialTxn) is versions[0] conceptually — it is
    // represented by `initial_readers` instead of an entry.
    std::vector<VersionEntry> versions;
    std::map<TxnId, bool> initial_readers;
    bool initial_pruned = false;  // initial version below the watermark
    // Single-version inference: last writer whose write is not yet
    // terminal (kInitialTxn = none).
    TxnId live_writer = kInitialTxn;
  };

  Node& Touch(TxnId txn);
  void IngestLocked(const Action& a);
  void IngestRead(const Action& a);
  void IngestWrite(const Action& a, const std::vector<ItemId>& items);
  void IngestCommit(TxnId txn);
  void IngestAbort(TxnId txn);
  void AddEdge(TxnId from, TxnId to, uint8_t kind);
  void RemoveEdge(TxnId from, TxnId to);
  // Searches out-edges from `from` through nodes with ord <= max_ord.
  // Returns true with `out` = the path `from` -> ... -> `to` when `to` is
  // reachable; otherwise false with `out` = every node reached (the
  // bounded forward closure of `from`).
  bool SearchForward(TxnId from, TxnId to, uint64_t max_ord,
                     std::vector<TxnId>& out);
  void ResolveCycle(TxnId from, TxnId to);
  void JudgeDirtyRead(Node& n, TxnId txn);
  size_t PruneLocked();
  uint64_t WatermarkLocked() const;
  void RecordViolation(TxnId txn, const std::string& kind,
                       const std::string& detail);

  CheckerOptions options_;
  IsolationLevel default_level_ = IsolationLevel::kSerializable;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;       // commits ingested so far
  uint64_t next_ord_ = 1;    // topological-order allocator
  uint64_t commits_since_prune_ = 0;
  std::unordered_map<TxnId, Node> nodes_;
  std::unordered_map<ItemId, ItemState> items_;
  // Reads of still-uncommitted creators, keyed by creator: merged into
  // the creator's version entry at its commit, dropped at its abort.
  std::map<std::pair<ItemId, TxnId>, std::map<TxnId, bool>> pending_reads_;
  // Aborted txn ids still referenced by open readers: id -> abort epoch.
  std::unordered_map<TxnId, uint64_t> aborted_;
  CheckerReport report_;
};

/// \brief Judges a recorded history: the report of a fresh checker with
/// `prune_interval = 0` that first registers every transaction of `h` at
/// its level in `levels` (Serializable when absent), then ingests the
/// actions in history order.  Every violation is kept in
/// `first_violations`.
CheckerReport ReplayHistory(const History& h,
                            const std::map<TxnId, IsolationLevel>& levels = {});

/// True when `level` forbids reading another transaction's uncommitted
/// writes (every level at or above Read Committed in Figure 2).
bool LevelForbidsDirtyRead(IsolationLevel level);

}  // namespace check
}  // namespace critique

#endif  // CRITIQUE_CHECK_ONLINE_CHECKER_H_
