#ifndef CRITIQUE_ENGINE_LOCKING_ENGINE_H_
#define CRITIQUE_ENGINE_LOCKING_ENGINE_H_

#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "critique/engine/engine.h"
#include "critique/lock/lock_manager.h"
#include "critique/storage/sv_store.h"

namespace critique {

/// \brief The lock scheduler of Table 2, parameterized by `LockingPolicy`.
///
/// One class implements Degree 0, Locking READ UNCOMMITTED (Degree 1),
/// Locking READ COMMITTED (Degree 2), Cursor Stability, Locking REPEATABLE
/// READ and Locking SERIALIZABLE (Degree 3) — the rows of Table 2 differ
/// only in lock scopes and durations, which is the paper's point
/// (Remark 6: the phenomena-based levels of Table 3 are "disguised
/// redefinitions of locking behavior").
///
/// Writes always take item Write locks whose before/after images make
/// predicate-lock conflicts phantom-precise; rollback restores
/// before-images in LIFO order (possible exactly because long write locks
/// preclude P0, Section 3).
///
/// Thread-safe per the `Engine` contract, without an engine-wide latch:
/// a reader-writer latch over the transaction table (`table_mu_`, held
/// shared by operation bodies, exclusive only by `Begin` and admin scans)
/// plus a store latch (`store_mu_`) and the independently striped lock
/// table.  Logical isolation between sessions comes from the locks
/// themselves — Table 2's point — so disjoint sessions no longer queue
/// behind one mutex; in blocking mode lock waits run with the table latch
/// dropped, so concurrent sessions progress (and release locks) while a
/// thread is parked in the lock manager.
class LockingEngine : public Engine {
 public:
  /// Creates an engine for one of the Table 2 levels (asserts otherwise).
  explicit LockingEngine(IsolationLevel level);

  IsolationLevel level() const override { return level_; }

  /// Also applies `c.lock_stripes` to the engine's lock table (legal here:
  /// SetConcurrency runs before any session starts, so the table is idle).
  void SetConcurrency(EngineConcurrency c) override {
    Engine::SetConcurrency(c);
    (void)lock_manager_.SetStripeCount(c.lock_stripes);
    lock_manager_.SetWakeupHook(concurrency().lock_wakeup);
  }

  Status Load(const ItemId& id, Row row) override;

  /// Duplicate-id refusal covers live transactions only: a finished
  /// transaction's state is retired by the next `Begin`.
  Status Begin(TxnId txn) override;

  /// Per-transaction isolation: any Table 2 row may be declared — the
  /// rows differ only in lock scopes and durations (the paper's Remark 6),
  /// so one lock table serves every mix.  The transaction runs under
  /// `PolicyFor(level)` while its neighbours keep their own policies;
  /// since writes take long X locks at every level above Degree 0,
  /// a weak transaction still cannot break a Degree 3 neighbour's reads.
  Status BeginWithLevel(TxnId txn, IsolationLevel level) override;

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
  Result<std::optional<Row>> FetchCursorNamed(TxnId txn,
                                              const std::string& cursor,
                                              const ItemId& id) override;
  Status WriteCursor(TxnId txn, const ItemId& id, Row row) override;
  Status CloseCursor(TxnId txn) override;
  Status CloseCursorNamed(TxnId txn, const std::string& cursor) override;
  Status Commit(TxnId txn) override { return Publish(txn, false); }
  Status Abort(TxnId txn) override { return RollbackEnding(txn, false); }

  // 2PC participant protocol: `Prepare` pins the transaction in doubt with
  // every lock still held (a lock scheduler's commit cannot fail, so
  // prepare validates nothing but freezes the transaction until the
  // coordinator decides); the locks held across the in-doubt window are
  // exactly what keeps other transactions from observing or clobbering
  // uncommitted state.
  Result<std::optional<uint64_t>> Prepare(TxnId txn) override;
  Status CommitPrepared(TxnId txn) override { return Publish(txn, true); }
  Status AbortPrepared(TxnId txn) override {
    return RollbackEnding(txn, true);
  }
  std::vector<TxnId> InDoubtTransactions() const override;

  /// Forwards to the lock manager's deadlock-victim seniority.
  void InheritSeniority(TxnId txn, TxnId first_attempt) override;

  /// The active policy (a row of Table 2).
  const LockingPolicy& policy() const { return policy_; }

  /// Lock-manager counters for benchmarks.
  LockStats lock_stats() const { return lock_manager_.stats(); }

  /// Base gauges plus lock-table counters and wait/park histograms.
  void RegisterMetrics(obs::MetricsRegistry& reg,
                       const std::string& prefix) override;

  /// Lock holders, waiters, and waits-for edges (stall introspection).
  std::string DebugDump() const override;

  /// Current store contents (post-run verification).
  const SingleVersionStore& store() const { return store_; }

 private:
  struct CursorState {
    ItemId item;
    LockHandle lock = 0;
  };

  /// A prepared transaction keeps its locks and its undo.
  struct TxnState : ParticipantState {
    /// The Table 2 row this transaction runs under (its declared level's
    /// policy; the engine's own row unless BeginWithLevel said otherwise).
    LockingPolicy policy;
    std::vector<UndoRecord> undo;
    /// One entry per open cursor; "" is the default cursor.  Each holds
    /// the read lock on its current item under Cursor Stability.
    std::map<std::string, CursorState> cursors;
  };

  /// The table-latch guard every operation body holds (shared: sessions
  /// only read the registry and mutate their own entry).
  using TableLock = std::shared_lock<std::shared_mutex>;

  /// Erases the retired states, then registers `txn` under `policy`.
  /// Requires `table_mu_` exclusive.
  Status BeginLocked(TxnId txn, LockingPolicy policy);

  /// Queues finished `txn` for erasure by the next `BeginLocked`.
  /// Requires `table_mu_` (any mode).
  void Retire(TxnId txn);

  /// Commits `txn` — a prepared one when `decision` (`CommitPrepared`):
  /// logs the commit, releases every lock, and awaits what a local commit
  /// must wait for.
  Status Publish(TxnId txn, bool decision);

  /// Rolls back `txn` — a prepared one when `decision` (`AbortPrepared`).
  Status RollbackEnding(TxnId txn, bool decision);

  /// Rolls `txn` back: undo LIFO, release locks, record `a<txn>`, retire.
  /// Requires `table_mu_` shared; takes `store_mu_` internally.
  void Rollback(TxnId txn);

  /// One committed read of the store (takes `store_mu_` shared).
  std::optional<Row> StoreGet(const ItemId& id) const;

  /// Acquire with engine-side handling: on kDeadlock the transaction is
  /// rolled back before the status is returned.  In blocking mode the wait
  /// runs with `lk` (the shared table latch) dropped, so store/txn state
  /// read before the call may be stale afterwards — re-read under the
  /// re-taken latch.
  Result<LockHandle> Acquire(TableLock& lk, TxnId txn, const LockSpec& spec);

  /// Shared write path for Write / Insert / Delete / WriteCursor
  /// (`new_row == nullopt` deletes).  Requires `lk` held on entry.
  Status DoWrite(TableLock& lk, TxnId txn, const ItemId& id,
                 std::optional<Row> new_row, Action::Type type,
                 bool is_insert);

  /// Shared bulk-write path for UpdateWhere / DeleteWhere.  Takes a long
  /// Write predicate lock, then applies `transform` (nullopt result
  /// deletes) to every matching row under one recorded `w<t>[P]` action.
  Result<size_t> DoPredicateWrite(
      TableLock& lk, TxnId txn, const std::string& name,
      const Predicate& pred,
      const std::function<std::optional<Row>(const Row&)>& transform);

  /// Shared read path for Read / FetchCursor (`cursor` names the cursor
  /// when `type` is kCursorRead).  Requires `lk` held on entry.
  Result<std::optional<Row>> DoRead(TableLock& lk, TxnId txn,
                                    const ItemId& id, Action::Type type,
                                    const std::string& cursor = "");

  IsolationLevel level_;
  LockingPolicy policy_;
  /// Reader-writer latch over the transaction-table registry: operation
  /// bodies hold it shared (each session mutates only its own entry —
  /// "one session per thread"); `Begin` (insert, and erasure of retired
  /// entries) and `InDoubtTransactions` (cross-session scan) take it
  /// exclusive.
  /// Logical isolation is the lock manager's job, not this latch's.
  mutable std::shared_mutex table_mu_;
  /// Latch over the physical store (reads shared, mutations exclusive);
  /// which sessions may touch which items is already decided by the item
  /// and predicate locks.  Ordered after `table_mu_`.
  mutable std::shared_mutex store_mu_;
  SingleVersionStore store_;
  LockManager lock_manager_;
  std::map<TxnId, TxnState> txns_;
  /// Finished transactions whose `txns_` entries the next `Begin` erases
  /// (commits and rollbacks hold `table_mu_` only shared, so they queue
  /// here instead of erasing).  Guarded by `retired_mu_`.
  std::mutex retired_mu_;
  std::vector<TxnId> retired_;
};

}  // namespace critique

#endif  // CRITIQUE_ENGINE_LOCKING_ENGINE_H_
