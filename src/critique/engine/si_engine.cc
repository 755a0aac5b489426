#include "critique/engine/si_engine.h"

#include <algorithm>

namespace critique {
namespace {

// `w<txn>[P]` over the scanned rows, subscripted with its own version.
Action PredicateWriteAction(TxnId txn, const std::string& name,
                            const Predicate& pred,
                            const std::vector<std::pair<ItemId, Row>>& rows) {
  Action a = Action::PredicateWrite(txn, name, pred);
  a.version = txn;
  for (const auto& [id, row] : rows) {
    (void)row;
    a.read_set.push_back(id);
  }
  return a;
}

}  // namespace

SnapshotIsolationEngine::SnapshotIsolationEngine(
    SnapshotIsolationOptions options)
    : options_(options) {}

Status SnapshotIsolationEngine::Load(const ItemId& id, Row row) {
  std::unique_lock<std::shared_mutex> sl(store_mu_);
  store_.Bootstrap(id, std::move(row), clock_.Tick());
  return Status::OK();
}

Status SnapshotIsolationEngine::Begin(TxnId txn) {
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return BeginAtLocked(txn, clock_.Tick(), level());
}

Status SnapshotIsolationEngine::BeginWithLevel(TxnId txn,
                                               IsolationLevel level) {
  const bool honored =
      level == IsolationLevel::kReadCommitted ||
      level == IsolationLevel::kSnapshotIsolation ||
      (level == IsolationLevel::kSerializableSI && options_.ssi);
  if (!honored) {
    return Status::FailedPrecondition(
        name() + " cannot honor a per-transaction " +
        IsolationLevelName(level) + " contract" +
        (level == IsolationLevel::kSerializableSI
             ? " without the SSI certifier (SnapshotIsolationOptions::ssi)"
             : ""));
  }
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return BeginAtLocked(txn, clock_.Tick(), level);
}

Status SnapshotIsolationEngine::BeginAt(TxnId txn, Timestamp ts) {
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return BeginAtLocked(txn, ts, level());
}

Status SnapshotIsolationEngine::BeginAtLocked(TxnId txn, Timestamp ts,
                                              IsolationLevel level) {
  if (txn < 1) return Status::InvalidArgument("txn ids start at 1");
  if (txns_.count(txn)) {
    return Status::InvalidArgument("txn " + std::to_string(txn) +
                                   " already used");
  }
  const Timestamp floor = gc_floor_.load(std::memory_order_acquire);
  if (ts < floor) {
    // Accurate in both modes: the floor only rises when a GC pass prunes
    // (periodic in kWatermark; explicit GarbageCollectVersions in either
    // mode), so never advise switching to a mode already in force.
    return Status::FailedPrecondition(
        "snapshot timestamp " + std::to_string(ts) +
        " is below the version-GC floor " + std::to_string(floor) +
        ": history up to the floor has been pruned (for exact time travel "
        "stay in VersionGcMode::kRetainAll and run no explicit GC passes)");
  }
  TxnState st;
  st.active = true;
  st.level = level;
  st.start_ts = ts;
  txns_[txn] = st;
  LogBegin(txn);
  Trace(txn, obs::TraceEventType::kBegin);
  return Status::OK();
}

Status SnapshotIsolationEngine::AbortInternal(TxnId txn, Status reason,
                                              obs::AbortReason why) {
  TxnState& st = txns_.find(txn)->second;
  // Serialization failures count by the paper's taxonomy; application
  // rollbacks and 2PC abort decisions count as plain aborts.
  const EngineRecorder::CounterField counter =
      why == obs::AbortReason::kFirstCommitterWins ? &EngineCounters::fcw_aborts
      : why == obs::AbortReason::kSsiDangerousStructure
          ? &EngineCounters::ssi_aborts
          : &EngineCounters::aborts;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    store_.AbortTxn(txn, st.write_set);
    // Under the latch, see DoRead.
    recorder_.Record([txn] { return Action::Abort(txn); }, counter);
  }
  Trace(txn, obs::TraceEventType::kAbort, why,
        reason.ok() ? std::string() : std::string(reason.message()));
  {
    auto el = SsiLock();
    st.active = false;
    st.aborted = true;
    st.pinned = false;
  }
  st.prepared = false;
  st.redo.clear();
  return reason;
}

bool SnapshotIsolationEngine::Concurrent(const TxnState& a,
                                         const TxnState& b) const {
  const Timestamp a_end =
      a.commit_ts == kInvalidTimestamp ? ~Timestamp{0} : a.commit_ts;
  const Timestamp b_end =
      b.commit_ts == kInvalidTimestamp ? ~Timestamp{0} : b.commit_ts;
  return a.start_ts < b_end && b.start_ts < a_end;
}

void SnapshotIsolationEngine::AddRwEdge(TxnId reader, TxnId writer) {
  auto r = txns_.find(reader);
  auto w = txns_.find(writer);
  if (r == txns_.end() || w == txns_.end()) return;
  r->second.out_to.insert(writer);
  w->second.in_from.insert(reader);
}

void SnapshotIsolationEngine::TrackReadConflicts(TxnId reader,
                                                 const ItemId& id) {
  readers_[id].insert(reader);
  TxnState& rd = txns_.find(reader)->second;
  // reader -rw-> U for every concurrent U that produced a newer version.
  for (auto& [u, ust] : txns_) {
    if (u == reader || ust.aborted) continue;
    if (!ust.write_set.count(id)) continue;
    if (!Concurrent(rd, ust)) continue;
    AddRwEdge(reader, u);
  }
}

void SnapshotIsolationEngine::TrackWriteConflicts(
    TxnId writer, const ItemId& id, const std::optional<Row>& before,
    const std::optional<Row>& after) {
  TxnState& wr = txns_.find(writer)->second;
  auto it = readers_.find(id);
  if (it != readers_.end()) {
    for (TxnId u : it->second) {
      auto uit = txns_.find(u);
      if (u == writer || uit == txns_.end() || uit->second.aborted) continue;
      if (!Concurrent(wr, uit->second)) continue;
      AddRwEdge(u, writer);  // U read the old version; writer replaces it
    }
  }
  // Predicate readers: the write (either image) entering the predicate's
  // coverage is the phantom-precise rw edge ordinary SIREAD item tracking
  // misses.
  for (const auto& [pred, u] : predicate_readers_) {
    auto uit = txns_.find(u);
    if (u == writer || uit == txns_.end() || uit->second.aborted) continue;
    if (!Concurrent(wr, uit->second)) continue;
    const bool covered =
        (before.has_value() && pred.Covers(id, *before)) ||
        (after.has_value() && pred.Covers(id, *after));
    if (covered) AddRwEdge(u, writer);
  }
}

bool SnapshotIsolationEngine::SsiPivot(const TxnState& st) const {
  // A pivot has a live (non-aborted) rw edge on both sides.
  auto live = [&](const std::set<TxnId>& peers) {
    for (TxnId u : peers) {
      auto it = txns_.find(u);
      if (it != txns_.end() && !it->second.aborted) return true;
    }
    return false;
  };
  return live(st.in_from) && live(st.out_to);
}

bool SnapshotIsolationEngine::CompletesCommittedPivot(
    TxnId self, const TxnState& st) const {
  // self -rw-> P with P committed or pinned: P can no longer abort, so
  // if some other W in P's out-edges commits before P (the dangerous
  // structure's "T3 commits first"), self completing the in-edge side must
  // abort instead.  The edge forms *after* P's own validation.
  for (TxnId u : st.out_to) {
    auto it = txns_.find(u);
    if (it == txns_.end()) continue;  // retired or gone: dead edge
    const TxnState& p = it->second;
    if (p.aborted || !(p.committed || p.pinned)) continue;
    // Only a Serializable-SI pivot's contract demands the refusal: a
    // plain-SI pivot is permitted its write skew (the structure is its
    // declared anomaly, not a broken guarantee).
    if (p.level != IsolationLevel::kSerializableSI) continue;
    if (p.committed_first_out) return true;  // witness retired by GC
    for (TxnId w : p.out_to) {
      if (w == self) continue;
      auto wt = txns_.find(w);
      if (wt == txns_.end() || wt->second.aborted) continue;
      const TxnState& ws = wt->second;
      // A pinned P commits after every W already committed, and maybe
      // after a pinned W: either may be the one that commits first.
      if (p.pinned ? (ws.committed || ws.pinned)
                     : (ws.committed && ws.commit_ts < p.commit_ts)) {
        return true;
      }
    }
  }
  return false;
}

bool SnapshotIsolationEngine::FeedsPreparedPivot(const TxnState& st) const {
  // P -rw-> self with P pinned: self commits before P, so a live in-edge
  // of P closes a dangerous structure whose pivot can no longer abort.
  // The in-edge may be self's own (write skew between self and P).
  for (TxnId u : st.in_from) {
    auto it = txns_.find(u);
    if (it == txns_.end()) continue;
    const TxnState& p = it->second;
    if (!p.pinned || p.level != IsolationLevel::kSerializableSI) continue;
    for (TxnId r : p.in_from) {
      auto rt = txns_.find(r);
      if (rt != txns_.end() && !rt->second.aborted) return true;
    }
  }
  return false;
}

std::optional<std::string> SnapshotIsolationEngine::SsiRefusal(TxnId txn) {
  if (!options_.ssi) return std::nullopt;
  std::lock_guard<std::mutex> el(ssi_mu_);
  const TxnState& st = txns_.find(txn)->second;
  // A transaction is refused as a pivot only under its own declared
  // Serializable-SI contract — a plain-SI neighbour keeps its write skew.
  // The pinned-pivot checks below run for *every* level, because there
  // the broken contract would be the committed or pinned pivot's.
  if (st.level == IsolationLevel::kSerializableSI && SsiPivot(st)) {
    return "ssi: pivot in an rw-antidependency dangerous structure";
  }
  if (CompletesCommittedPivot(txn, st)) {
    return "ssi: commit would complete a dangerous structure through an "
           "already-committed or pinned pivot";
  }
  if (FeedsPreparedPivot(st)) {
    return "ssi: commit would precede a pinned pivot that already has "
           "an rw-antidependency in-edge";
  }
  return std::nullopt;
}

Result<std::optional<Row>> SnapshotIsolationEngine::DoRead(TxnId txn,
                                                           const ItemId& id,
                                                           Action::Type type) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  TxnState& st = txns_.find(txn)->second;

  // Recorded under the store latch: a read can never precede the record
  // of the version write (or publication) it observed in the history.
  std::optional<Row> row;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    std::optional<Version> version = store_.ReadVersionInfo(id, ReadTs(st), txn);
    if (version.has_value() && !version->tombstone) row = version->row;
    recorder_.Record(
        [&] {
          Action a = type == Action::Type::kCursorRead
                         ? Action::CursorRead(txn, id)
                         : Action::Read(txn, id);
          // Nothing visible at the read timestamp: the transaction
          // observed the item absent — its initial state, or a delete
          // whose chain GC dropped.  Subscript it explicitly — an
          // unversioned read would be misattributed by single-version
          // creator inference (this is a multiversion history).
          a.version = version.has_value() ? version->creator
                                          : store_.AbsentVersionCreator(id);
          if (row.has_value()) a.value = HistoryValue(row);
          return a;
        },
        &EngineCounters::reads);
  }
  if (options_.ssi) {
    auto el = SsiLock();
    st.read_set.insert(id);
    TrackReadConflicts(txn, id);
  }
  return row;
}

Result<std::optional<Row>> SnapshotIsolationEngine::Read(TxnId txn,
                                                         const ItemId& id) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  return DoRead(txn, id, Action::Type::kRead);
}

Result<std::optional<Row>> SnapshotIsolationEngine::FetchCursor(
    TxnId txn, const ItemId& id) {
  // Snapshot reads never block; a cursor adds nothing under SI.
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  return DoRead(txn, id, Action::Type::kCursorRead);
}

Result<std::vector<std::pair<ItemId, Row>>>
SnapshotIsolationEngine::ReadPredicate(TxnId txn, const std::string& name,
                                       const Predicate& pred) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  TxnState& st = txns_.find(txn)->second;

  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    rows = store_.Scan(pred, ReadTs(st), txn);
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
  if (options_.ssi) {
    auto el = SsiLock();
    for (const auto& [id, row] : rows) {
      (void)row;
      st.read_set.insert(id);
      TrackReadConflicts(txn, id);
    }
    // Phantom-precise SIREAD: remember the predicate itself, plus rw
    // edges to concurrent transactions whose pending/later writes
    // already fall under it.  One store acquisition covers the whole
    // scan (lock order ssi_mu_ < store_mu_).
    predicate_readers_.emplace_back(pred, txn);
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    for (auto& [u, ust] : txns_) {
      if (u == txn || ust.aborted || !Concurrent(st, ust)) continue;
      for (const ItemId& wid : ust.write_set) {
        std::optional<Version> vi =
            store_.ReadVersionInfo(wid, ~Timestamp{0}, u);
        if (vi.has_value() && !vi->tombstone && pred.Covers(wid, vi->row)) {
          AddRwEdge(txn, u);
        }
      }
    }
  }
  return rows;
}

Status SnapshotIsolationEngine::DoWrite(TxnId txn, const ItemId& id,
                                        std::optional<Row> new_row,
                                        Action::Type type, bool is_insert) {
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  TxnState& st = txns_.find(txn)->second;

  bool eager_conflict = false;
  std::optional<Row> before;
  {
    // One exclusive section: the eager probe, the before-image, the
    // pending install, and the record stay atomic with respect to other
    // writers and to readers appending their own records (see DoRead).
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    if (options_.eager_write_conflicts &&
        store_.HasConcurrentPendingWrite(id, txn)) {
      eager_conflict = true;
    } else {
      before = store_.Read(id, ReadTs(st), txn);
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
            a.before_image = before;
            a.after_image = new_row;
            a.is_insert = is_insert;
            return a;
          },
          &EngineCounters::writes);
    }
  }
  if (eager_conflict) {
    return AbortInternal(
        txn,
        Status::SerializationFailure(
            "first-updater-wins: concurrent pending write on '" + id + "'"),
        obs::AbortReason::kFirstCommitterWins);
  }
  {
    auto el = SsiLock();
    st.write_set.insert(id);
    if (options_.ssi) TrackWriteConflicts(txn, id, before, new_row);
  }
  if (wal_ != nullptr) st.redo[id] = std::move(new_row);
  return Status::OK();
}

Status SnapshotIsolationEngine::Write(TxnId txn, const ItemId& id, Row row) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  return DoWrite(txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/false);
}

Status SnapshotIsolationEngine::Insert(TxnId txn, const ItemId& id, Row row) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  const Timestamp read_ts = ReadTs(txns_.find(txn)->second);
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    if (store_.Read(id, read_ts, txn).has_value()) {
      return Status::FailedPrecondition("insert: item '" + id +
                                        "' visible in snapshot");
    }
  }
  return DoWrite(txn, id, std::move(row), Action::Type::kWrite,
                 /*is_insert=*/true);
}

Status SnapshotIsolationEngine::Delete(TxnId txn, const ItemId& id) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  const Timestamp read_ts = ReadTs(txns_.find(txn)->second);
  {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    if (!store_.Read(id, read_ts, txn).has_value()) {
      return Status::NotFound("delete: item '" + id + "' not visible");
    }
  }
  return DoWrite(txn, id, std::nullopt, Action::Type::kWrite,
                 /*is_insert=*/false);
}

Result<size_t> SnapshotIsolationEngine::UpdateWhere(
    TxnId txn, const std::string& name, const Predicate& pred,
    const std::function<Row(const Row&)>& transform) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  TxnState& st = txns_.find(txn)->second;
  std::vector<std::pair<ItemId, Row>> rows;
  std::vector<Row> nexts;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    rows = store_.Scan(pred, ReadTs(st), txn);
    nexts.reserve(rows.size());
    for (const auto& [id, row] : rows) {
      Row next = transform(row);
      store_.Write(id, next, txn);
      nexts.push_back(std::move(next));
    }
    // Appended under the store latch (see DoRead).
    recorder_.Count(&EngineCounters::writes, rows.size());
    recorder_.Record(
        [&] { return PredicateWriteAction(txn, name, pred, rows); });
  }
  {
    auto el = SsiLock();
    for (size_t i = 0; i < rows.size(); ++i) {
      st.write_set.insert(rows[i].first);
      if (options_.ssi) {
        TrackWriteConflicts(txn, rows[i].first, rows[i].second, nexts[i]);
      }
    }
  }
  if (wal_ != nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) st.redo[rows[i].first] = nexts[i];
  }
  return rows.size();
}

Result<size_t> SnapshotIsolationEngine::DeleteWhere(TxnId txn,
                                                    const std::string& name,
                                                    const Predicate& pred) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  TxnState& st = txns_.find(txn)->second;
  std::vector<std::pair<ItemId, Row>> rows;
  {
    std::unique_lock<std::shared_mutex> sl(store_mu_);
    rows = store_.Scan(pred, ReadTs(st), txn);
    for (const auto& [id, row] : rows) {
      (void)row;
      store_.Delete(id, txn);
    }
    // Appended under the store latch (see DoRead).
    recorder_.Count(&EngineCounters::writes, rows.size());
    recorder_.Record(
        [&] { return PredicateWriteAction(txn, name, pred, rows); });
  }
  {
    auto el = SsiLock();
    for (const auto& [id, row] : rows) {
      st.write_set.insert(id);
      if (options_.ssi) TrackWriteConflicts(txn, id, row, std::nullopt);
    }
  }
  if (wal_ != nullptr) {
    for (const auto& [id, row] : rows) {
      (void)row;
      st.redo[id] = std::nullopt;
    }
  }
  return rows.size();
}

Status SnapshotIsolationEngine::WriteCursor(TxnId txn, const ItemId& id,
                                            Row row) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  return DoWrite(txn, id, std::move(row), Action::Type::kCursorWrite,
                 /*is_insert=*/false);
}

Status SnapshotIsolationEngine::CloseCursor(TxnId txn) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  return CheckActive(txns_, txn);
}

void SnapshotIsolationEngine::ReleaseReservations(TxnId txn) {
  const TxnState& st = txns_.find(txn)->second;
  for (const ItemId& id : st.write_set) {
    auto it = reservations_.find(id);
    if (it != reservations_.end() && it->second == txn) {
      reservations_.erase(it);
    }
  }
}

Status SnapshotIsolationEngine::ValidateAndReserve(TxnId txn) {
  TxnState& st = txns_.find(txn)->second;
  // The commit-sequence slot: stage-1 entries are serialized by
  // commit_mu_, so this counter orders every validation.
  ++pipeline_stats_.slots_issued;

  // First-Committer-Wins: some transaction with a Commit-Timestamp inside
  // [start_ts, now] wrote data this transaction also wrote.  Publication
  // is serialized behind `commit_mu_`, held here, so the probe is stable;
  // one store acquisition covers the whole write set.
  // A Read Committed transaction declared no lost-update protection: its
  // statements already read the latest committed state, so the interval
  // probe is skipped and overwriting a concurrent commit is its permitted
  // anomaly (P4), not a serialization failure.
  std::optional<ItemId> fcw_conflict;
  if (st.level != IsolationLevel::kReadCommitted) {
    std::shared_lock<std::shared_mutex> sl(store_mu_);
    for (const ItemId& id : st.write_set) {
      if (store_.LatestCommitTs(id) > st.start_ts) {
        fcw_conflict = id;
        break;
      }
    }
  }
  if (fcw_conflict.has_value()) {
    return AbortInternal(
        txn,
        Status::SerializationFailure(
            "first-committer-wins: '" + *fcw_conflict +
            "' was committed during this transaction's interval"),
        obs::AbortReason::kFirstCommitterWins);
  }

  // Reservation overlap: a pinned transaction — a local committer in its
  // commit window or a prepared (in-doubt) participant — has validated its
  // write set but not yet published a commit timestamp.  A later
  // committer overlapping that write set would slip past the timestamp
  // probe above and both would install — a lost update
  // First-Committer-Wins exists to prevent.  The reserving side
  // must stay committable (it already said yes), so the requester aborts.
  for (const ItemId& id : st.write_set) {
    auto it = reservations_.find(id);
    if (it != reservations_.end() && it->second != txn) {
      return AbortInternal(
          txn,
          Status::SerializationFailure(
              "first-committer-wins: '" + id + "' is reserved by " +
              "in-flight/prepared txn " + std::to_string(it->second)),
          obs::AbortReason::kFirstCommitterWins);
    }
  }

  if (auto refusal = SsiRefusal(txn)) {
    return AbortInternal(txn, Status::SerializationFailure(*refusal),
                         obs::AbortReason::kSsiDangerousStructure);
  }

  // Validated means pinned: from here on the other sessions' SSI checks
  // count this transaction as committed (see `CompletesCommittedPivot`).
  {
    auto el = SsiLock();
    st.pinned = true;
  }
  for (const ItemId& id : st.write_set) reservations_[id] = txn;
  return Status::OK();
}

Status SnapshotIsolationEngine::Publish(TxnId txn, bool decision) {
  bool gc_due = false;
  std::optional<uint64_t> wal_lsn;
  {
    obs::ScopedTimer t(stage2_hist_);
    std::shared_lock<std::shared_mutex> tl(table_mu_);
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckState(txns_, txn, /*prepared=*/decision));
    TxnState& st = txns_.find(txn)->second;
    // The commit timestamp is drawn inside the store-exclusive section
    // that stamps the versions, so any snapshot new enough to see the
    // timestamp is guaranteed to find the versions already stamped — and
    // the commit record is appended in the same section, so no read of a
    // stamped version can precede it in the history.
    {
      auto el = SsiLock();
      {
        std::unique_lock<std::shared_mutex> sl(store_mu_);
        st.commit_ts = clock_.Tick();
        store_.CommitTxn(txn, st.commit_ts, st.write_set);
        recorder_.Record([txn] { return Action::Commit(txn); },
                         &EngineCounters::commits);
        // Behind commit_mu_: log order is commit order, the property
        // recovery's sequential replay relies on.
        wal_lsn = LogCommit(txn, st, st.commit_ts);
      }
      st.active = false;
      st.committed = true;
      st.pinned = false;
    }
    st.prepared = false;
    ReleaseReservations(txn);
    Trace(txn, obs::TraceEventType::kCommit);
    gc_due = GcTick();
  }
  if (gc_due) (void)RunGcPass();
  // The durability wait runs with no engine latch held: other sessions
  // keep validating and publishing while this one sits out the fsync (and,
  // in group mode, rides another leader's batch).
  return AwaitDurable(wal_lsn);
}

Status SnapshotIsolationEngine::Commit(TxnId txn) {
  {
    obs::ScopedTimer t(stage1_hist_);
    std::shared_lock<std::shared_mutex> tl(table_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRITIQUE_RETURN_NOT_OK(ValidateAndReserve(txn));
  }
  // The commit window: no engine latch held, so other sessions run
  // freely, checked against this pinned transaction.  The hook is the
  // test failpoint that makes the window deterministic.
  if (commit_window_hook_) commit_window_hook_(txn);
  return Publish(txn, /*decision=*/false);
}

bool SnapshotIsolationEngine::GcTick() {
  if (gc_policy_.mode != VersionGcMode::kWatermark) return false;
  const uint32_t interval = std::max<uint32_t>(1, gc_policy_.commit_interval);
  if (++commits_since_gc_ < interval) return false;
  commits_since_gc_ = 0;
  return true;
}

Result<std::optional<uint64_t>> SnapshotIsolationEngine::Prepare(
    TxnId txn) {
  // Validate and pin, then stay in doubt: the write-set reservation rides
  // the whole in-doubt window, and publication runs at the decision.
  obs::ScopedTimer t(stage1_hist_);
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  std::lock_guard<std::mutex> cl(commit_mu_);
  CRITIQUE_RETURN_NOT_OK(ValidateAndReserve(txn));
  // The vote is appended behind commit_mu_ like a commit (the reservation
  // ordering argument covers prepares too).
  std::optional<uint64_t> wal_lsn = LogVote(txn, txns_.find(txn)->second);
  Trace(txn, obs::TraceEventType::kPrepare);
  return wal_lsn;
}

Status SnapshotIsolationEngine::AbortPrepared(TxnId txn) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  {
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRITIQUE_RETURN_NOT_OK(CheckState(txns_, txn, /*prepared=*/true));
    LogAbort(txn, txns_.find(txn)->second);
    ReleaseReservations(txn);
  }
  return AbortInternal(txn, Status::OK(), obs::AbortReason::kInDoubtDecision);
}

std::vector<TxnId> SnapshotIsolationEngine::InDoubtTransactions() const {
  std::unique_lock<std::shared_mutex> tl(table_mu_);
  return InDoubt(txns_);
}

Status SnapshotIsolationEngine::Abort(TxnId txn) {
  std::shared_lock<std::shared_mutex> tl(table_mu_);
  CRITIQUE_RETURN_NOT_OK(CheckActive(txns_, txn));
  return AbortInternal(txn, Status::OK(), obs::AbortReason::kExplicit);
}

size_t SnapshotIsolationEngine::RunGcPass() {
  obs::ScopedTimer timer(gc_pass_hist_);
  size_t dropped = 0;
  // Retired states leave the table under the latch and are destroyed after
  // it is released (declared after the timer, so the pass times them too).
  std::vector<decltype(txns_)::node_type> retired;
  {
    std::unique_lock<std::shared_mutex> tl(table_mu_);
    // Low-watermark: the oldest begin timestamp still open (prepared
    // in-doubt participants and mid-pipeline committers are active and
    // count), else "now".  Every version superseded at or below it is
    // invisible to all live snapshots, and future snapshots only begin at
    // >= now.
    Timestamp watermark = clock_.Now();
    for (const auto& [t, st] : txns_) {
      (void)t;
      if (st.active && st.start_ts < watermark) watermark = st.start_ts;
    }
    {
      std::unique_lock<std::shared_mutex> sl(store_mu_);
      dropped = store_.GarbageCollect(watermark, recorder_.recording());
    }
    if (watermark > gc_floor_.load(std::memory_order_relaxed)) {
      gc_floor_.store(watermark, std::memory_order_release);
    }

    if (gc_policy_.mode == VersionGcMode::kWatermark) {
      // Retire transaction states whose interval ended at or below the
      // watermark: nothing still active was concurrent with them (any
      // active T concurrent with committed U has T.start < U.commit, which
      // would have kept the watermark below U.commit), so no live SSI edge
      // can need them — a missing neighbour reads as "not live", which is
      // exactly what these retirees are.  Aborted states are dead already.
      // Duplicate-id detection no longer covers retired ids (the session
      // facade's monotonic id assignment never reuses one, and a sharded
      // global id may legitimately arrive here long after higher ids
      // committed — refusing it would fail a valid cross-shard txn).
      //
      // The exclusive table latch excludes every session operation, so the
      // SSI structures are safe to edit here without `ssi_mu_`.
      for (auto it = txns_.begin(); it != txns_.end();) {
        const TxnState& st = it->second;
        const bool dead =
            st.aborted || (st.committed && st.commit_ts <= watermark);
        auto next = std::next(it);
        if (!st.active && dead) retired.push_back(txns_.extract(it));
        it = next;
      }
      // Unhook each retiree from its own neighbours and SIREAD entries
      // (`AddRwEdge` records every edge on both ends), so the cleanup costs
      // the retirees' edges and reads, not the table or the reader index.
      for (const auto& node : retired) {
        const TxnId r = node.key();
        const TxnState& rs = node.mapped();
        for (TxnId w : rs.out_to) {
          auto wt = txns_.find(w);
          if (wt != txns_.end()) wt->second.in_from.erase(r);
        }
        for (TxnId u : rs.in_from) {
          auto ut = txns_.find(u);
          if (ut == txns_.end()) continue;
          TxnState& us = ut->second;
          // Summarize before forgetting: a retired committed rw-successor
          // that committed before its (surviving, committed) predecessor
          // is a dangerous structure's "T3 commits first" witness — keep
          // that one bit so the completion check stays sound.
          if (rs.committed && us.committed && rs.commit_ts < us.commit_ts) {
            us.committed_first_out = true;
          }
          us.out_to.erase(r);
        }
        // Drop the retiree's SIREAD bookkeeping so SSI memory is bounded
        // alongside the version chains (plain SI records none).
        for (const ItemId& id : rs.read_set) {
          auto rd = readers_.find(id);
          if (rd == readers_.end()) continue;
          rd->second.erase(r);
          if (rd->second.empty()) readers_.erase(rd);
        }
      }
      // Predicate SIREAD entries go with their reader's state.
      if (!retired.empty()) {
        predicate_readers_.erase(
            std::remove_if(predicate_readers_.begin(),
                           predicate_readers_.end(),
                           [&](const std::pair<Predicate, TxnId>& pr) {
                             return txns_.count(pr.second) == 0;
                           }),
            predicate_readers_.end());
      }
    }
  }
  {
    std::lock_guard<std::mutex> gl(gc_stats_mu_);
    ++gc_stats_.runs;
    gc_stats_.collected += dropped;
  }
  return dropped;
}

void SnapshotIsolationEngine::RegisterMetrics(obs::MetricsRegistry& reg,
                                              const std::string& prefix) {
  Engine::RegisterMetrics(reg, prefix);
  reg.RegisterGauge(prefix + "pipeline.slots_issued", [this] {
    return commit_pipeline_stats().slots_issued;
  });
  reg.RegisterHistogram(prefix + "pipeline.validate_us", &stage1_hist_);
  reg.RegisterHistogram(prefix + "pipeline.publish_us", &stage2_hist_);
  reg.RegisterHistogram(prefix + "gc.pass_us", &gc_pass_hist_);
}

size_t SnapshotIsolationEngine::GarbageCollectVersions() {
  {
    std::lock_guard<std::mutex> cl(commit_mu_);
    commits_since_gc_ = 0;  // an explicit pass restarts the epoch
  }
  return RunGcPass();
}

}  // namespace critique
