#include "critique/engine/locking_engine.h"

#include <cassert>

namespace critique {
namespace {

// History value for a row: its scalar payload when it has one.
std::optional<Value> HistoryValue(const std::optional<Row>& row) {
  if (row.has_value() && row->Has("val")) return row->scalar();
  return std::nullopt;
}

}  // namespace

LockingEngine::LockingEngine(IsolationLevel level)
    : level_(level), policy_(PolicyFor(level)) {
  assert(IsLockingLevel(level));
}

Status LockingEngine::Load(const ItemId& id, Row row) {
  std::unique_lock<std::shared_mutex> sl(store_mu_);
  store_.Put(id, std::move(row));
  return Status::OK();
}

Status LockingEngine::Begin(TxnId txn) {
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return BeginLocked(txn, policy_);
}

Status LockingEngine::BeginWithLevel(TxnId txn, IsolationLevel level) {
  if (!IsLockingLevel(level)) {
    return Status::FailedPrecondition(
        name() + " cannot honor a per-transaction " +
        IsolationLevelName(level) +
        " contract: only the Table 2 locking levels map onto this lock "
        "scheduler");
  }
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return BeginLocked(txn, PolicyFor(level));
}

Status LockingEngine::BeginLocked(TxnId txn, LockingPolicy policy) {
  if (txn < 1) return Status::InvalidArgument("txn ids start at 1");
  {
    // The exclusive table latch excludes every session operation, so the
    // finished transactions' states can go now.  Duplicate-id refusal
    // therefore covers live ids only, as in the multiversion engines.
    std::lock_guard<std::mutex> rl(retired_mu_);
    for (TxnId t : retired_) txns_.erase(t);
    retired_.clear();
  }
  if (txns_.count(txn)) {
    return Status::InvalidArgument("txn " + std::to_string(txn) +
                                   " already used");
  }
  TxnState& st = txns_[txn];
  st.active = true;
  st.policy = policy;
  // Informational, buffered with the next sync (see the SI engine).
  if (wal_ != nullptr) wal_->Append(WalRecord::Begin(txn));
  Trace(txn, obs::TraceEventType::kBegin);
  return Status::OK();
}

void LockingEngine::RegisterMetrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) {
  Engine::RegisterMetrics(reg, prefix);
  reg.RegisterGauge(prefix + "lock.acquired",
                    [this] { return lock_manager_.stats().acquired; });
  reg.RegisterGauge(prefix + "lock.blocked",
                    [this] { return lock_manager_.stats().blocked; });
  reg.RegisterGauge(prefix + "lock.deadlocks",
                    [this] { return lock_manager_.stats().deadlocks; });
  reg.RegisterGauge(prefix + "lock.timeouts",
                    [this] { return lock_manager_.stats().timeouts; });
  reg.RegisterGauge(prefix + "lock.coop_parks",
                    [this] { return lock_manager_.stats().coop_parks; });
  reg.RegisterGauge(prefix + "lock.wakeups",
                    [this] { return lock_manager_.stats().wakeups; });
  reg.RegisterHistogram(prefix + "lock.wait_us",
                        &lock_manager_.wait_histogram());
  reg.RegisterHistogram(prefix + "lock.park_wakeup_us",
                        &lock_manager_.park_wakeup_histogram());
}

void LockingEngine::InheritSeniority(TxnId txn, TxnId first_attempt) {
  lock_manager_.InheritSeniority(txn, first_attempt);
}

std::string LockingEngine::DebugDump() const {
  return lock_manager_.DebugSnapshot().ToString();
}

Status LockingEngine::CheckActive(TxnId txn) const {
  auto it = txns_.find(txn);
  if (it == txns_.end() || !it->second.active) {
    return Status::TransactionAborted("txn " + std::to_string(txn) +
                                      " is not active");
  }
  if (it->second.prepared) {
    return Status::FailedPrecondition(
        "txn " + std::to_string(txn) +
        " is prepared (in doubt); only CommitPrepared/AbortPrepared may end "
        "it");
  }
  return Status::OK();
}

Status LockingEngine::CheckPrepared(TxnId txn) const {
  auto it = txns_.find(txn);
  if (it == txns_.end() || !it->second.active || !it->second.prepared) {
    return Status::FailedPrecondition("txn " + std::to_string(txn) +
                                      " is not prepared");
  }
  return Status::OK();
}

std::optional<Row> LockingEngine::StoreGet(const ItemId& id) const {
  std::shared_lock<std::shared_mutex> sl(store_mu_);
  return store_.Get(id);
}

void LockingEngine::Rollback(TxnId txn) {
  TxnState& st = txns_.find(txn)->second;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    for (auto it = st.undo.rbegin(); it != st.undo.rend(); ++it) {
      store_.ApplyUndo(*it);
    }
    // Appended under the store latch: a lock-free reader of the restored
    // values observes them only after the `a<t>` record exists.
    recorder_.Record([txn] { return Action::Abort(txn); });
  }
  st.undo.clear();
  st.redo.clear();
  st.active = false;
  st.cursors.clear();
  lock_manager_.ReleaseAll(txn);
  Retire(txn);
}

void LockingEngine::Retire(TxnId txn) {
  std::lock_guard<std::mutex> rl(retired_mu_);
  retired_.push_back(txn);
}

Result<LockHandle> LockingEngine::Acquire(TableLock& lk, TxnId txn,
                                          const LockSpec& spec) {
  // One wait budget for the whole operation, shared across image-redo
  // iterations: an operation may never wait longer than the configured
  // lock-wait timeout in total.
  const auto deadline =
      std::chrono::steady_clock::now() + concurrency_.lock_wait_timeout;
  LockSpec cur = spec;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    Result<LockHandle> r = AcquireLockWithProtocol(
        lock_manager_, lk, cur, remaining, [&] { Rollback(txn); });
    if (!r.ok() || !concurrency_.blocking_locks || !cur.is_item) return r;
    // Blocking mode: the wait (and the conflict decisions that granted
    // the lock) ran with the latch dropped, so the item's before-image in
    // the spec may predate the grant.  Image precision is what makes
    // predicate-vs-item conflicts phantom-exact (Section 2.3), both for
    // this request and for later requests checked against the now-held
    // lock — so on staleness, drop the grant and redo the acquire with
    // the fresh image.
    std::optional<Row> now = StoreGet(cur.item);
    if (now == cur.before_image) return r;
    lock_manager_.Release(*r);
    cur.before_image = std::move(now);
  }
}

Result<std::optional<Row>> LockingEngine::DoRead(TableLock& lk, TxnId txn,
                                                 const ItemId& id,
                                                 Action::Type type,
                                                 const std::string& cursor) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  // Copied, not referenced: a blocking Acquire drops the table latch.
  const LockingPolicy pol = txns_.find(txn)->second.policy;

  LockHandle handle = 0;
  if (pol.read_locks) {
    LockSpec spec = LockSpec::ReadItem(txn, id, StoreGet(id));
    CRITIQUE_ASSIGN_OR_RETURN(handle, Acquire(lk, txn, spec));
  }

  // Post-lock read: in blocking mode the wait released the latch, so the
  // image attached to the lock request may predate the grant.  The record
  // is appended while the store latch is still held, so the history order
  // of a read and the write whose value it observed can never invert
  // (levels without read locks can observe uncommitted writes — the
  // append must then already have happened).
  std::optional<Row> row;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    row = store_.Get(id);
    recorder_.Record(
        [&] {
          return type == Action::Type::kCursorRead
                     ? Action::CursorRead(txn, id, HistoryValue(row))
                     : Action::Read(txn, id, HistoryValue(row));
        },
        &EngineCounters::reads);
  }

  if (type == Action::Type::kCursorRead && pol.cursor_stability) {
    // The cursor moved: drop the previous position's lock, hold this one.
    CursorState& cs = txns_.find(txn)->second.cursors[cursor];
    if (cs.lock != 0) lock_manager_.Release(cs.lock);
    cs.item = id;
    cs.lock = handle;  // held until the cursor moves or closes
  } else if (handle != 0 && pol.item_read == LockDuration::kShort) {
    lock_manager_.Release(handle);
  }
  return row;
}

Result<std::optional<Row>> LockingEngine::Read(TxnId txn, const ItemId& id) {
  TableLock lk(table_mu_);
  return DoRead(lk, txn, id, Action::Type::kRead);
}

Result<std::optional<Row>> LockingEngine::FetchCursor(TxnId txn,
                                                      const ItemId& id) {
  TableLock lk(table_mu_);
  return DoRead(lk, txn, id, Action::Type::kCursorRead, "");
}

Result<std::optional<Row>> LockingEngine::FetchCursorNamed(
    TxnId txn, const std::string& cursor, const ItemId& id) {
  TableLock lk(table_mu_);
  return DoRead(lk, txn, id, Action::Type::kCursorRead, cursor);
}

Result<std::vector<std::pair<ItemId, Row>>> LockingEngine::ReadPredicate(
    TxnId txn, const std::string& name, const Predicate& pred) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  const LockingPolicy pol = txns_.find(txn)->second.policy;

  LockHandle handle = 0;
  if (pol.read_locks) {
    CRITIQUE_ASSIGN_OR_RETURN(
        handle, Acquire(lk, txn, LockSpec::ReadPredicate(txn, pred)));
  }

  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    rows = store_.Scan(pred);
    // Appended under the store latch: scan and record stay ordered
    // against every write record (see DoRead).
    recorder_.Record(
        [&] {
          Action a = Action::PredicateRead(txn, name, pred);
          for (const auto& [id, row] : rows) {
            (void)row;
            a.read_set.push_back(id);
          }
          return a;
        },
        &EngineCounters::predicate_reads);
  }

  if (handle != 0 && pol.pred_read == LockDuration::kShort) {
    lock_manager_.Release(handle);
  }
  return rows;
}

Status LockingEngine::DoWrite(TableLock& lk, TxnId txn, const ItemId& id,
                              std::optional<Row> new_row, Action::Type type,
                              bool is_insert) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));

  std::optional<Row> before = StoreGet(id);
  LockSpec spec = LockSpec::WriteItem(txn, id, before, new_row);
  CRITIQUE_ASSIGN_OR_RETURN(LockHandle handle, Acquire(lk, txn, spec));

  // The X lock now serializes writers of `id`: this is the first point
  // where existence can be decided from committed (or own) state, and
  // where the before-image for undo/history is stable.
  const bool is_delete = !new_row.has_value();
  Status precondition = Status::OK();
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    before = store_.Get(id);
    if (is_insert && before.has_value()) {
      precondition =
          Status::FailedPrecondition("insert: item '" + id + "' exists");
    } else if (is_delete && !before.has_value()) {
      precondition = Status::NotFound("delete: item '" + id + "' absent");
    } else {
      if (new_row.has_value()) {
        store_.Put(id, *new_row);
      } else {
        store_.Erase(id);
      }
      // Recorded before the store latch drops: no reader of this value
      // (levels without read locks see it immediately) can append its
      // read ahead of this write in the history.
      recorder_.Record(
          [&] {
            Action a = type == Action::Type::kCursorWrite
                           ? Action::CursorWrite(txn, id, HistoryValue(new_row))
                           : Action::Write(txn, id, HistoryValue(new_row));
            a.before_image = before;
            a.after_image = new_row;
            a.is_insert = is_insert;
            return a;
          },
          &EngineCounters::writes);
    }
  }
  if (!precondition.ok()) {
    lock_manager_.Release(handle);
    return precondition;
  }

  TxnState& st = txns_.find(txn)->second;
  st.undo.push_back(UndoRecord{id, std::move(before)});
  if (wal_ != nullptr) st.redo[id] = std::move(new_row);

  if (st.policy.write == LockDuration::kShort) {
    lock_manager_.Release(handle);  // Degree 0: action atomicity only
  }
  return Status::OK();
}

Status LockingEngine::Write(TxnId txn, const ItemId& id, Row row) {
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/false);
}

Status LockingEngine::Insert(TxnId txn, const ItemId& id, Row row) {
  // No pre-lock existence check: the store is single-version and
  // in-place, so pre-lock state may be another transaction's uncommitted
  // write — only DoWrite's post-X-lock re-check can decide the
  // precondition without reading dirty data.
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/true);
}

Status LockingEngine::Delete(TxnId txn, const ItemId& id) {
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::nullopt, Action::Type::kWrite,
                 /*is_insert=*/false);
}

Result<size_t> LockingEngine::DoPredicateWrite(
    TableLock& lk, TxnId txn, const std::string& name, const Predicate& pred,
    const std::function<std::optional<Row>(const Row&)>& transform) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));

  // "Write locks on data items and predicates (always the same)": the
  // bulk write takes a Write predicate lock covering current rows and
  // phantoms alike.
  CRITIQUE_ASSIGN_OR_RETURN(
      LockHandle handle, Acquire(lk, txn, LockSpec::WritePredicate(txn, pred)));

  TxnState& st = txns_.find(txn)->second;
  size_t rows_touched = 0;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    auto rows = store_.Scan(pred);  // post-lock scan
    rows_touched = rows.size();
    for (const auto& [id, row] : rows) {
      st.undo.push_back(UndoRecord{id, row});
      std::optional<Row> next = transform(row);
      if (next.has_value()) {
        store_.Put(id, *next);
      } else {
        store_.Erase(id);
      }
      if (wal_ != nullptr) st.redo[id] = std::move(next);
    }
    // Appended under the store latch (see DoWrite).
    recorder_.Count(&EngineCounters::writes, rows_touched);
    recorder_.Record([&] {
      Action a = Action::PredicateWrite(txn, name, pred);
      for (const auto& [id, row] : rows) {
        (void)row;
        a.read_set.push_back(id);
      }
      return a;
    });
  }

  if (st.policy.write == LockDuration::kShort) lock_manager_.Release(handle);
  return rows_touched;
}

Result<size_t> LockingEngine::UpdateWhere(
    TxnId txn, const std::string& name, const Predicate& pred,
    const std::function<Row(const Row&)>& transform) {
  TableLock lk(table_mu_);
  return DoPredicateWrite(
      lk, txn, name, pred,
      [&transform](const Row& row) -> std::optional<Row> {
        return transform(row);
      });
}

Result<size_t> LockingEngine::DeleteWhere(TxnId txn, const std::string& name,
                                          const Predicate& pred) {
  TableLock lk(table_mu_);
  return DoPredicateWrite(
      lk, txn, name, pred,
      [](const Row&) -> std::optional<Row> { return std::nullopt; });
}

Status LockingEngine::WriteCursor(TxnId txn, const ItemId& id, Row row) {
  // "The Fetching transaction can update the row, and in that case a write
  // lock will be held on the row until the transaction commits" — DoWrite
  // takes the long X lock; the cursor's S lock is subsumed.
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kCursorWrite,
                 /*is_insert=*/false);
}

Status LockingEngine::CloseCursor(TxnId txn) {
  return CloseCursorNamed(txn, "");
}

Status LockingEngine::CloseCursorNamed(TxnId txn, const std::string& cursor) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  TxnState& st = txns_.find(txn)->second;
  auto it = st.cursors.find(cursor);
  if (it != st.cursors.end()) {
    if (it->second.lock != 0) lock_manager_.Release(it->second.lock);
    st.cursors.erase(it);
  }
  return Status::OK();
}

Status LockingEngine::Commit(TxnId txn) {
  std::optional<uint64_t> wal_lsn;
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
    TxnState& st = txns_.find(txn)->second;
    st.active = false;
    st.undo.clear();
    st.cursors.clear();
    // Appended before ReleaseAll: a conflicting transaction can only
    // acquire these locks — and so append its own commit — after this
    // one's records are in the log, so log order agrees with the lock
    // schedule (long write locks; Degree 0's short write locks make no
    // durability-ordering promise, matching its atomicity-only contract).
    // A single-version store has no commit clock: kInvalidTimestamp.
    if (wal_ != nullptr && !st.redo.empty()) {
      wal_->Append(WalRecord::WriteSet(txn, WalImagesFromMap(st.redo)));
      wal_lsn = wal_->Append(WalRecord::Commit(txn, kInvalidTimestamp));
      st.redo.clear();
    }
    recorder_.Record([txn] { return Action::Commit(txn); },
                     &EngineCounters::commits);
    lock_manager_.ReleaseAll(txn);
    Retire(txn);
  }
  Trace(txn, obs::TraceEventType::kCommit);
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status LockingEngine::Abort(TxnId txn) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  Rollback(txn);
  recorder_.Count(&EngineCounters::aborts);
  Trace(txn, obs::TraceEventType::kAbort, obs::AbortReason::kExplicit);
  return Status::OK();
}

Status LockingEngine::Prepare(TxnId txn) {
  std::optional<uint64_t> wal_lsn;
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
    // A lock scheduler's commit cannot fail: every conflict was already
    // resolved when the lock was granted.  Prepare therefore only pins the
    // transaction — locks stay held, undo stays applicable — until the
    // coordinator's decision.
    TxnState& st = txns_.find(txn)->second;
    st.prepared = true;
    if (wal_ != nullptr) {
      if (!st.redo.empty()) {
        wal_->Append(WalRecord::WriteSet(txn, WalImagesFromMap(st.redo)));
        st.redo.clear();
      }
      wal_lsn = wal_->Append(WalRecord::Prepare(txn));
    }
  }
  Trace(txn, obs::TraceEventType::kPrepare);
  // Durable-vote rule: the coordinator only hears "prepared" once the
  // vote and its redo would survive a crash.
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status LockingEngine::CommitPrepared(TxnId txn) {
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckPrepared(txn));
    TxnState& st = txns_.find(txn)->second;
    st.prepared = false;
    st.active = false;
    st.undo.clear();
    st.cursors.clear();
    // Slim commit: the write set is already durable from Prepare.  The
    // record is buffered, not awaited — the coordinator's durable decision
    // is the commit point (see WalSink).
    if (wal_ != nullptr) {
      wal_->Append(WalRecord::Commit(txn, kInvalidTimestamp));
    }
    recorder_.Record([txn] { return Action::Commit(txn); },
                     &EngineCounters::commits);
    lock_manager_.ReleaseAll(txn);
    Retire(txn);
  }
  Trace(txn, obs::TraceEventType::kCommit);
  return Status::OK();
}

Status LockingEngine::AbortPrepared(TxnId txn) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckPrepared(txn));
  // Buffered only (presumed abort): a lost abort record re-restores the
  // participant in doubt and the next recovery aborts it again.
  if (wal_ != nullptr) wal_->Append(WalRecord::Abort(txn));
  txns_.find(txn)->second.prepared = false;
  Rollback(txn);
  recorder_.Count(&EngineCounters::aborts);
  Trace(txn, obs::TraceEventType::kAbort, obs::AbortReason::kInDoubtDecision);
  return Status::OK();
}

std::vector<TxnId> LockingEngine::InDoubtTransactions() const {
  // Exclusive: this is the one cross-session scan of the registry, so it
  // must not race the owners' own-state flag writes.
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  std::vector<TxnId> out;
  for (const auto& [t, st] : txns_) {
    if (st.active && st.prepared) out.push_back(t);
  }
  return out;
}

}  // namespace critique
