#ifndef CRITIQUE_ENGINE_READ_CONSISTENCY_ENGINE_H_
#define CRITIQUE_ENGINE_READ_CONSISTENCY_ENGINE_H_

#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "critique/common/clock.h"
#include "critique/engine/engine.h"
#include "critique/lock/lock_manager.h"
#include "critique/storage/mv_store.h"

namespace critique {

/// \brief Oracle Read Consistency (Section 4.3): "each SQL statement
/// [sees] the most recent committed database value at the time the
/// statement began" — as if the start-timestamp advances at each
/// statement.  Writes take long Write locks, giving First-*Writer*-Wins
/// rather than First-Committer-Wins.
///
/// Consequences the paper lists, all reproduced by this engine:
///  * stronger than READ COMMITTED — P4C (cursor lost update) is
///    disallowed because `FetchCursor` locks the row at fetch
///    (SELECT ... FOR UPDATE), and `Update` applies statement-level write
///    consistency to the latest committed value;
///  * still allows non-repeatable reads (P2/P3), *general* lost updates
///    (P4, via application-level read-then-write across statements) and
///    read skew (A5A).
///
/// Thread-safe per the `Engine` contract, without an engine-wide latch:
/// the same split the other stock engines use — a reader-writer latch
/// over the transaction table (shared by operation bodies, exclusive by
/// `Begin`/admin scans/GC), a store latch whose exclusive section draws
/// the commit timestamp atomically with version stamping, and the striped
/// lock table.  In blocking mode write-lock waits run with the table
/// latch dropped so concurrent sessions keep progressing.
class ReadConsistencyEngine : public Engine {
 public:
  IsolationLevel level() const override {
    return IsolationLevel::kOracleReadConsistency;
  }

  /// Also applies `c.lock_stripes` to the engine's lock table (legal
  /// here: SetConcurrency runs before any session starts, so it is idle).
  void SetConcurrency(EngineConcurrency c) override {
    Engine::SetConcurrency(c);
    (void)lock_manager_.SetStripeCount(c.lock_stripes);
    lock_manager_.SetWakeupHook(concurrency().lock_wakeup);
  }

  Status Load(const ItemId& id, Row row) override;
  Status Begin(TxnId txn) override;
  Result<std::optional<Row>> Read(TxnId txn, const ItemId& id) override;
  Result<std::vector<std::pair<ItemId, Row>>> ReadPredicate(
      TxnId txn, const std::string& name, const Predicate& pred) override;
  Status Write(TxnId txn, const ItemId& id, Row row) override;
  Status Insert(TxnId txn, const ItemId& id, Row row) override;
  Status Delete(TxnId txn, const ItemId& id) override;
  Result<std::optional<Row>> FetchCursor(TxnId txn, const ItemId& id) override;
  Status WriteCursor(TxnId txn, const ItemId& id, Row row) override;
  Status CloseCursor(TxnId txn) override;
  Status Update(TxnId txn, const ItemId& id,
                const std::function<Row(const std::optional<Row>&)>& transform)
      override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;

  // 2PC participant protocol: like the locking engine, commit cannot fail
  // (conflicts were resolved at write-lock grant), so `Prepare` only pins
  // the transaction in doubt with its write locks held until the
  // coordinator's decision.
  Status Prepare(TxnId txn) override;
  Status CommitPrepared(TxnId txn) override;
  Status AbortPrepared(TxnId txn) override;
  std::vector<TxnId> InDoubtTransactions() const override;

  LockStats lock_stats() const { return lock_manager_.stats(); }

  /// Base gauges plus lock-table counters and wait/park histograms.
  void RegisterMetrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) override;

  /// Lock holders, waiters, and waits-for edges (stall introspection).
  std::string DebugDump() const override;

  // Version GC.  Read Consistency reads are statement-level (each
  // statement sees the most recent committed value), so the engine's
  // low-watermark is simply "now": every committed version below the
  // newest is invisible to all future statements.  `kWatermark` mode
  // prunes automatically every `commit_interval` commits and also retires
  // finished transaction states.
  size_t GarbageCollectVersions() override;
  size_t VersionCount() const override;
  size_t MaxVersionChainLength() const override;
  VersionGcStats version_gc_stats() const override;

 private:
  struct TxnState {
    bool active = false;
    /// Prepared (in doubt) by a 2PC coordinator: locks held, every
    /// operation but CommitPrepared/AbortPrepared refused.
    bool prepared = false;
    /// Items with pending versions, so commit/abort stamps O(|write set|)
    /// chains instead of scanning the whole store.  Cleared as soon as
    /// the terminal consumes it — finished states must not pin per-write
    /// memory.
    std::set<ItemId> write_set;
    /// Redo after-images (nullopt = tombstone), collected only while a WAL
    /// sink is attached; drained at Prepare or Commit, cleared with
    /// `write_set`.  Owner-thread-only.
    std::map<ItemId, std::optional<Row>> redo;
  };

  /// The table-latch guard every operation body holds (shared).
  using TableLock = std::shared_lock<std::shared_mutex>;

  // Private helpers require `table_mu_` (shared unless stated otherwise);
  // AcquireWriteLock and DoWrite may drop and re-take `lk` around a
  // blocking lock wait.
  Status CheckActive(TxnId txn) const;
  Status CheckPrepared(TxnId txn) const;
  /// Takes `store_mu_` internally.
  void Rollback(TxnId txn);
  Result<LockHandle> AcquireWriteLock(TableLock& lk, TxnId txn,
                                      const ItemId& id,
                                      std::optional<Row> after);
  Status DoWrite(TableLock& lk, TxnId txn, const ItemId& id,
                 std::optional<Row> new_row, Action::Type type, bool is_insert,
                 bool already_locked);
  Result<std::optional<Row>> DoRead(TxnId txn, const ItemId& id,
                                    Action::Type type);

  /// Counts a finished transaction toward the GC epoch; true when a
  /// periodic pass is due (kWatermark mode).  Takes `gc_mu_`.
  bool GcTick();

  /// One GC pass: prune chains below "now" and retire finished txn
  /// states.  Takes `table_mu_` exclusive (and `store_mu_` inside); call
  /// with no engine latch held.  Returns versions dropped.
  size_t RunGcPass();

  /// Reader-writer latch over the transaction-table registry (shared by
  /// operation bodies; exclusive: Begin, InDoubtTransactions, GC).
  mutable std::shared_mutex table_mu_;
  /// Latch over the version store.  The commit timestamp is drawn inside
  /// the exclusive publication section, so a statement snapshot that can
  /// see the timestamp sees the stamped versions too.
  mutable std::shared_mutex store_mu_;
  /// GC epoch counter + stats (leaf latch).
  mutable std::mutex gc_mu_;
  LogicalClock clock_;
  MultiVersionStore store_;  ///< store_mu_
  LockManager lock_manager_;
  std::map<TxnId, TxnState> txns_;
  uint32_t commits_since_gc_ = 0;  ///< gc_mu_
  VersionGcStats gc_stats_;        ///< gc_mu_
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_READ_CONSISTENCY_ENGINE_H_
