#include "critique/engine/read_consistency_engine.h"

#include <algorithm>

namespace critique {
namespace {

std::optional<Value> HistoryValue(const std::optional<Row>& row) {
  if (row.has_value() && row->Has("val")) return row->scalar();
  return std::nullopt;
}

}  // namespace

Status ReadConsistencyEngine::Load(const ItemId& id, Row row) {
  std::unique_lock<std::shared_mutex> sl(store_mu_);
  store_.Bootstrap(id, std::move(row), clock_.Tick());
  return Status::OK();
}

Status ReadConsistencyEngine::Begin(TxnId txn) {
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  if (txn < 1) return Status::InvalidArgument("txn ids start at 1");
  if (txns_.count(txn)) {
    return Status::InvalidArgument("txn " + std::to_string(txn) +
                                   " already used");
  }
  txns_[txn].active = true;
  // Informational, buffered with the next sync (see the SI engine).
  if (wal_ != nullptr) wal_->Append(WalRecord::Begin(txn));
  Trace(txn, obs::TraceEventType::kBegin);
  return Status::OK();
}

void ReadConsistencyEngine::RegisterMetrics(obs::MetricsRegistry& reg,
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

std::string ReadConsistencyEngine::DebugDump() const {
  return lock_manager_.DebugSnapshot().ToString();
}

Status ReadConsistencyEngine::CheckActive(TxnId txn) const {
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

Status ReadConsistencyEngine::CheckPrepared(TxnId txn) const {
  auto it = txns_.find(txn);
  if (it == txns_.end() || !it->second.active || !it->second.prepared) {
    return Status::FailedPrecondition("txn " + std::to_string(txn) +
                                      " is not prepared");
  }
  return Status::OK();
}

void ReadConsistencyEngine::Rollback(TxnId txn) {
  TxnState& st = txns_.find(txn)->second;
  st.active = false;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    store_.AbortTxn(txn, st.write_set);
    // Under the latch, see DoRead.
    recorder_.Record([txn] { return Action::Abort(txn); });
  }
  st.write_set.clear();  // dead once the versions are gone
  st.redo.clear();
  lock_manager_.ReleaseAll(txn);
}

Result<LockHandle> ReadConsistencyEngine::AcquireWriteLock(
    TableLock& lk, TxnId txn, const ItemId& id, std::optional<Row> after) {
  std::optional<Row> before;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    before = store_.Read(id, clock_.Now(), txn);
  }
  LockSpec spec = LockSpec::WriteItem(txn, id, std::move(before),
                                      std::move(after));
  // (No image-staleness redo here: this engine takes no predicate locks,
  // so its conflicts are decided by item identity alone.)
  return AcquireLockWithProtocol(lock_manager_, lk, spec,
                                 concurrency_.lock_wait_timeout,
                                 [&] { Rollback(txn); });
}

Result<std::optional<Row>> ReadConsistencyEngine::DoRead(TxnId txn,
                                                         const ItemId& id,
                                                         Action::Type type) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  // Statement-level snapshot: the most recent committed value now.  The
  // record is appended while the store latch is held, so a read can never
  // precede the publication record of the version it observed.
  std::optional<Row> row;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    std::optional<Version> version =
        store_.ReadVersionInfo(id, clock_.Now(), txn);
    if (version.has_value() && !version->tombstone) row = version->row;
    recorder_.Record(
        [&] {
          Action a = type == Action::Type::kCursorRead
                         ? Action::CursorRead(txn, id)
                         : Action::Read(txn, id);
          // Nothing committed at the statement timestamp: the statement
          // observed the initial (absent) state of the item.  Subscript
          // it explicitly — an unversioned read would be misattributed by
          // single-version creator inference (this is a multiversion
          // history).
          a.version = version.has_value() ? version->creator : kInitialTxn;
          if (row.has_value()) a.value = HistoryValue(row);
          return a;
        },
        &EngineCounters::reads);
  }
  return row;
}

Result<std::optional<Row>> ReadConsistencyEngine::Read(TxnId txn,
                                                       const ItemId& id) {
  TableLock lk(table_mu_);
  return DoRead(txn, id, Action::Type::kRead);
}

Result<std::optional<Row>> ReadConsistencyEngine::FetchCursor(
    TxnId txn, const ItemId& id) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  // SELECT ... FOR UPDATE: the write lock at fetch is what rules out P4C.
  CRITIQUE_ASSIGN_OR_RETURN(LockHandle h,
                            AcquireWriteLock(lk, txn, id, std::nullopt));
  (void)h;  // long duration; released at commit/abort
  return DoRead(txn, id, Action::Type::kCursorRead);
}

Result<std::vector<std::pair<ItemId, Row>>>
ReadConsistencyEngine::ReadPredicate(TxnId txn, const std::string& name,
                                     const Predicate& pred) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    rows = store_.Scan(pred, clock_.Now(), txn);
    // Appended under the store latch (see DoRead).
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
  return rows;
}

Status ReadConsistencyEngine::DoWrite(TableLock& lk, TxnId txn,
                                      const ItemId& id,
                                      std::optional<Row> new_row,
                                      Action::Type type, bool is_insert,
                                      bool already_locked) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  if (!already_locked) {
    CRITIQUE_ASSIGN_OR_RETURN(LockHandle h,
                              AcquireWriteLock(lk, txn, id, new_row));
    // A blocking wait released the latch, so the Insert/Delete
    // preconditions checked before it may have been decided by a
    // concurrent committer; the granted X lock now makes the re-check
    // stable.
    std::optional<Row> committed;
    {
      std::shared_lock<std::shared_mutex> sl(store_mu_);
      committed = store_.Read(id, clock_.Now(), txn);
    }
    if (is_insert && committed.has_value()) {
      lock_manager_.Release(h);
      return Status::FailedPrecondition("insert: item '" + id + "' exists");
    }
    if (!new_row.has_value() && !committed.has_value()) {
      lock_manager_.Release(h);
      return Status::NotFound("delete: item '" + id + "' absent");
    }
  }
  // Post-lock read: statement-level write consistency against the latest
  // committed value at lock-grant time.  Recorded under the store latch
  // (see DoRead).
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    // The before-image only feeds the action.
    std::optional<Row> before;
    if (recorder_.wants_actions()) before = store_.Read(id, clock_.Now(), txn);
    if (new_row.has_value()) {
      store_.Write(id, *new_row, txn);
    } else {
      store_.Delete(id, txn);
    }
    recorder_.Record(
        [&] {
          Action a = type == Action::Type::kCursorWrite
                         ? Action::CursorWrite(txn, id, HistoryValue(new_row))
                         : Action::Write(txn, id, HistoryValue(new_row));
          a.version = txn;
          a.before_image = std::move(before);
          a.after_image = new_row;
          a.is_insert = is_insert;
          return a;
        },
        &EngineCounters::writes);
    if (wal_ != nullptr) {
      txns_.find(txn)->second.redo[id] = std::move(new_row);
    }
  }
  txns_.find(txn)->second.write_set.insert(id);
  return Status::OK();
}

Status ReadConsistencyEngine::Write(TxnId txn, const ItemId& id, Row row) {
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/false, /*already_locked=*/false);
}

Status ReadConsistencyEngine::Insert(TxnId txn, const ItemId& id, Row row) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    if (store_.Read(id, clock_.Now(), txn).has_value()) {
      return Status::FailedPrecondition("insert: item '" + id + "' exists");
    }
  }
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/true, /*already_locked=*/false);
}

Status ReadConsistencyEngine::Delete(TxnId txn, const ItemId& id) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    if (!store_.Read(id, clock_.Now(), txn).has_value()) {
      return Status::NotFound("delete: item '" + id + "' absent");
    }
  }
  return DoWrite(lk, txn, id, std::nullopt, Action::Type::kWrite,
                 /*is_insert=*/false, /*already_locked=*/false);
}

Status ReadConsistencyEngine::WriteCursor(TxnId txn, const ItemId& id,
                                          Row row) {
  // The fetch already holds the write lock.
  TableLock lk(table_mu_);
  return DoWrite(lk, txn, id, std::move(row), Action::Type::kCursorWrite,
                 /*is_insert=*/false, /*already_locked=*/true);
}

Status ReadConsistencyEngine::CloseCursor(TxnId txn) {
  TableLock lk(table_mu_);
  return CheckActive(txn);
}

Status ReadConsistencyEngine::Update(
    TxnId txn, const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  // Statement-level write consistency: lock first, then apply the
  // transform to the most recent committed value ("the underlying
  // mechanism recomputes the appropriate version of the row as of the
  // statement timestamp").
  CRITIQUE_ASSIGN_OR_RETURN(LockHandle h,
                            AcquireWriteLock(lk, txn, id, std::nullopt));
  (void)h;
  CRITIQUE_ASSIGN_OR_RETURN(std::optional<Row> current,
                            DoRead(txn, id, Action::Type::kRead));
  return DoWrite(lk, txn, id, transform(current), Action::Type::kWrite,
                 /*is_insert=*/false, /*already_locked=*/true);
}

Status ReadConsistencyEngine::Commit(TxnId txn) {
  bool gc_due = false;
  std::optional<uint64_t> wal_lsn;
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
    TxnState& st = txns_.find(txn)->second;
    st.active = false;
    {
      // Draw the commit timestamp inside the exclusive section that
      // stamps the versions: a statement snapshot new enough to observe
      // the timestamp observes the stamped versions too.  The commit
      // record is appended in the same section, so no read of a stamped
      // version can precede it in the history — and commits publish in
      // log order, which recovery's sequential replay relies on.
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      const Timestamp commit_ts = clock_.Tick();
      store_.CommitTxn(txn, commit_ts, st.write_set);
      if (wal_ != nullptr && !st.redo.empty()) {
        wal_->Append(WalRecord::WriteSet(txn, WalImagesFromMap(st.redo)));
        wal_lsn = wal_->Append(WalRecord::Commit(txn, commit_ts));
      }
      recorder_.Record([txn] { return Action::Commit(txn); },
                       &EngineCounters::commits);
    }
    st.write_set.clear();  // dead once the versions are stamped
    st.redo.clear();
    lock_manager_.ReleaseAll(txn);
    gc_due = GcTick();
  }
  Trace(txn, obs::TraceEventType::kCommit);
  if (gc_due) (void)RunGcPass();
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status ReadConsistencyEngine::Abort(TxnId txn) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
  Rollback(txn);
  recorder_.Count(&EngineCounters::aborts);
  Trace(txn, obs::TraceEventType::kAbort, obs::AbortReason::kExplicit);
  return Status::OK();
}

Status ReadConsistencyEngine::Prepare(TxnId txn) {
  std::optional<uint64_t> wal_lsn;
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckActive(txn));
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
  // Durable-vote rule (see the locking engine).
  if (wal_lsn.has_value()) return wal_->WaitDurable(*wal_lsn);
  return Status::OK();
}

Status ReadConsistencyEngine::CommitPrepared(TxnId txn) {
  bool gc_due = false;
  {
    TableLock lk(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckPrepared(txn));
    TxnState& st = txns_.find(txn)->second;
    st.prepared = false;
    st.active = false;
    {
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      const Timestamp commit_ts = clock_.Tick();
      store_.CommitTxn(txn, commit_ts, st.write_set);
      // Slim commit: the write set is already durable from Prepare.
      // Buffered, not awaited: the durable decision is the commit point.
      if (wal_ != nullptr) wal_->Append(WalRecord::Commit(txn, commit_ts));
      recorder_.Record([txn] { return Action::Commit(txn); },
                       &EngineCounters::commits);
    }
    st.write_set.clear();  // dead once the versions are stamped
    lock_manager_.ReleaseAll(txn);
    gc_due = GcTick();
  }
  Trace(txn, obs::TraceEventType::kCommit);
  if (gc_due) (void)RunGcPass();
  return Status::OK();
}

Status ReadConsistencyEngine::AbortPrepared(TxnId txn) {
  TableLock lk(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckPrepared(txn));
  // Buffered only (presumed abort; see the locking engine).
  if (wal_ != nullptr) wal_->Append(WalRecord::Abort(txn));
  txns_.find(txn)->second.prepared = false;
  Rollback(txn);
  recorder_.Count(&EngineCounters::aborts);
  Trace(txn, obs::TraceEventType::kAbort, obs::AbortReason::kInDoubtDecision);
  return Status::OK();
}

std::vector<TxnId> ReadConsistencyEngine::InDoubtTransactions() const {
  // Exclusive: the one cross-session scan of the registry.
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  std::vector<TxnId> out;
  for (const auto& [t, st] : txns_) {
    if (st.active && st.prepared) out.push_back(t);
  }
  return out;
}

bool ReadConsistencyEngine::GcTick() {
  if (gc_policy_.mode != VersionGcMode::kWatermark) return false;
  std::lock_guard<std::mutex> gl(gc_mu_);
  const uint32_t interval = std::max<uint32_t>(1, gc_policy_.commit_interval);
  if (++commits_since_gc_ < interval) return false;
  commits_since_gc_ = 0;
  return true;
}

size_t ReadConsistencyEngine::RunGcPass() {
  size_t dropped = 0;
  {
    std::unique_lock<std::shared_mutex> tl(table_mu_);
    // Statement-level reads always take the newest committed value, so no
    // snapshot ever looks below "now" — the watermark is the clock itself.
    {
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      dropped = store_.GarbageCollect(clock_.Now());
    }
    if (gc_policy_.mode == VersionGcMode::kWatermark) {
      // Retire finished transaction states.  Duplicate-id detection no
      // longer covers retired ids (the session facade never reuses an id,
      // and a sharded global id may legitimately begin here long after
      // higher ids committed — refusing it would fail a valid txn).
      for (auto it = txns_.begin(); it != txns_.end();) {
        if (!it->second.active) {
          it = txns_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> gl(gc_mu_);
    ++gc_stats_.runs;
    gc_stats_.collected += dropped;
  }
  return dropped;
}

size_t ReadConsistencyEngine::GarbageCollectVersions() {
  {
    std::lock_guard<std::mutex> gl(gc_mu_);
    commits_since_gc_ = 0;  // an explicit pass restarts the epoch
  }
  return RunGcPass();
}

size_t ReadConsistencyEngine::VersionCount() const {
  std::shared_lock<std::shared_mutex> sl(store_mu_);
  return store_.VersionCount();
}

size_t ReadConsistencyEngine::MaxVersionChainLength() const {
  std::shared_lock<std::shared_mutex> sl(store_mu_);
  return store_.MaxChainLength();
}

VersionGcStats ReadConsistencyEngine::version_gc_stats() const {
  std::lock_guard<std::mutex> gl(gc_mu_);
  return gc_stats_;
}

}  // namespace critique
