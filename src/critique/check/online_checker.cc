#include "critique/check/online_checker.h"

#include <algorithm>
#include <sstream>

#include "critique/obs/metrics.h"

namespace critique {
namespace check {

namespace {

const char* EdgeName(uint8_t mask) {
  switch (mask) {
    case OnlineChecker::kWw:
      return "ww";
    case OnlineChecker::kWr:
      return "wr";
    case OnlineChecker::kRw:
      return "rw";
    default:
      return "mixed";
  }
}

}  // namespace

bool LevelForbidsDirtyRead(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kDegree0:
    case IsolationLevel::kReadUncommitted:
      return false;
    default:
      return true;
  }
}

std::string CheckerReport::ToString() const {
  std::ostringstream os;
  os << "certified=" << commits_certified << " violations=" << violations
     << " allowed_anomalies=" << allowed_anomalies
     << " dirty_reads_allowed=" << dirty_reads_allowed
     << " edges=" << edges_added << " cycle_checks=" << cycle_checks
     << " live_nodes=" << live_nodes << " peak_live_nodes=" << peak_live_nodes
     << " pruned=" << nodes_pruned;
  for (const auto& v : first_violations) {
    os << "\n  T" << v.txn << " " << v.kind << ": " << v.detail;
  }
  return os.str();
}

CheckerReport& CheckerReport::operator+=(const CheckerReport& o) {
  commits_certified += o.commits_certified;
  aborts_observed += o.aborts_observed;
  violations += o.violations;
  allowed_anomalies += o.allowed_anomalies;
  dirty_reads_allowed += o.dirty_reads_allowed;
  edges_added += o.edges_added;
  cycle_checks += o.cycle_checks;
  nodes_pruned += o.nodes_pruned;
  live_nodes += o.live_nodes;
  peak_live_nodes += o.peak_live_nodes;
  first_violations.insert(first_violations.end(), o.first_violations.begin(),
                          o.first_violations.end());
  return *this;
}

OnlineChecker::OnlineChecker(CheckerOptions options)
    : options_(options) {}

void OnlineChecker::SetDefaultLevel(IsolationLevel level) {
  std::lock_guard<std::mutex> lk(mu_);
  default_level_ = level;
}

bool OnlineChecker::BeginTxn(TxnId txn, IsolationLevel level) {
  if (txn == kInitialTxn) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (nodes_.count(txn) != 0) return false;
  Touch(txn).level = level;
  return true;
}

void OnlineChecker::CancelTxn(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = nodes_.find(txn);
  if (it == nodes_.end()) return;
  const Node& n = it->second;
  if (n.status == TxnStatus::kOpen && n.reads.empty() && n.writes.empty()) {
    nodes_.erase(it);
  }
}

void OnlineChecker::Ingest(const Action& a) {
  if (a.txn == kInitialTxn) return;
  std::lock_guard<std::mutex> lk(mu_);
  IngestLocked(a);
}

void OnlineChecker::IngestLocked(const Action& a) {
  switch (a.type) {
    case Action::Type::kRead:
    case Action::Type::kCursorRead:
      IngestRead(a);
      break;
    case Action::Type::kWrite:
    case Action::Type::kCursorWrite:
    case Action::Type::kPredicateWrite:
      IngestWrite(a, WrittenItems(a));
      break;
    case Action::Type::kPredicateRead:
      // Predicate reads are deliberately not tracked online: the graph is
      // item-level, so phantom-only anomalies stay with the offline
      // analyzers and Repeatable Read is never falsely accused.
      Touch(a.txn);
      break;
    case Action::Type::kCommit:
      IngestCommit(a.txn);
      break;
    case Action::Type::kAbort:
      IngestAbort(a.txn);
      break;
  }
}

OnlineChecker::Node& OnlineChecker::Touch(TxnId txn) {
  auto [it, inserted] = nodes_.try_emplace(txn);
  if (inserted) {
    it->second.level = default_level_;
    it->second.first_seen_epoch = epoch_;
  }
  return it->second;
}

void OnlineChecker::IngestRead(const Action& a) {
  Node& n = Touch(a.txn);
  if (n.status != TxnStatus::kOpen) return;
  ItemState& item = items_[a.item];
  TxnId creator;
  if (a.version.has_value()) {
    creator = *a.version;
  } else {
    // Single-version history: the in-place store exposes the last
    // uncommitted writer when one is live, else the last committed write.
    creator = item.live_writer != kInitialTxn
                  ? item.live_writer
                  : (item.versions.empty() ? kInitialTxn
                                           : item.versions.back().creator);
  }
  if (creator == a.txn) return;  // reading one's own write
  n.reads[{a.item, creator}] = true;
  if (creator == kInitialTxn) {
    if (!item.initial_pruned) item.initial_readers[a.txn] = true;
    return;
  }
  auto cit = nodes_.find(creator);
  if (cit != nodes_.end() && cit->second.status == TxnStatus::kOpen) {
    // Dirty read: the wr edge (and any successor) materializes if and
    // when the creator commits; judged against the reader's level at the
    // reader's commit.
    if (!n.dirty_read) {
      n.dirty_detail = "read " + a.item + " from open T" +
                       std::to_string(creator);
    }
    n.dirty_read = true;
    pending_reads_[{a.item, creator}][a.txn] = true;
    return;
  }
  if (aborted_.count(creator) != 0) {
    if (!n.dirty_read) {
      n.dirty_detail = "read " + a.item + " from aborted T" +
                       std::to_string(creator);
    }
    n.dirty_read = true;  // observed data that never committed
    return;
  }
  // Committed creator (its node may already be pruned; the version entry
  // is what matters for future anti-dependencies).
  for (auto vit = item.versions.rbegin(); vit != item.versions.rend(); ++vit) {
    if (vit->creator == creator) {
      vit->readers[a.txn] = true;
      break;
    }
  }
}

void OnlineChecker::IngestWrite(const Action& a,
                                const std::vector<ItemId>& written) {
  Node& n = Touch(a.txn);
  if (n.status != TxnStatus::kOpen) return;
  for (const ItemId& id : written) {
    if (std::find(n.writes.begin(), n.writes.end(), id) == n.writes.end()) {
      n.writes.push_back(id);
    }
    items_[id].live_writer = a.txn;
  }
}

void OnlineChecker::IngestCommit(TxnId txn) {
  Node& n = Touch(txn);
  if (n.status != TxnStatus::kOpen) return;
  const uint64_t e = ++epoch_;
  n.status = TxnStatus::kCommitted;
  n.commit_epoch = e;
  n.ord = next_ord_++;
  ++report_.commits_certified;
  JudgeDirtyRead(n, txn);

  // Reads: wr edge from each committed creator, rw edge to the creator of
  // the immediate next version when it already exists (mirrors the
  // offline builder; readers of a still-latest version get their rw edge
  // from the superseding writer's commit below).
  for (const auto& [key, unused] : n.reads) {
    (void)unused;
    const auto& [item_id, creator] = key;
    auto iit = items_.find(item_id);
    if (iit == items_.end()) continue;
    ItemState& item = iit->second;
    if (creator == kInitialTxn) {
      if (item.initial_pruned) continue;
      if (!item.versions.empty() && item.versions.front().creator != txn) {
        AddEdge(txn, item.versions.front().creator, kRw);
      }
      continue;
    }
    auto cit = nodes_.find(creator);
    if (cit != nodes_.end() && cit->second.status == TxnStatus::kOpen) {
      continue;  // still pending; the creator's commit flushes the edges
    }
    if (aborted_.count(creator) != 0) continue;
    AddEdge(creator, txn, kWr);
    for (size_t i = item.versions.size(); i-- > 0;) {
      if (item.versions[i].creator != creator) continue;
      if (i + 1 < item.versions.size() &&
          item.versions[i + 1].creator != txn) {
        AddEdge(txn, item.versions[i + 1].creator, kRw);
      }
      break;
    }
  }

  // Writes: this commit appends one version per written item (version
  // order is commit order), drawing ww from the previous version's
  // creator and rw from its committed readers, and flushing wr edges to
  // any committed transaction that read this one's formerly-dirty data.
  for (const ItemId& item_id : n.writes) {
    ItemState& item = items_[item_id];
    if (item.live_writer == txn) item.live_writer = kInitialTxn;
    VersionEntry entry;
    entry.creator = txn;
    entry.commit_epoch = e;
    auto pit = pending_reads_.find({item_id, txn});
    if (pit != pending_reads_.end()) {
      entry.readers = std::move(pit->second);
      pending_reads_.erase(pit);
    }
    if (item.versions.empty()) {
      if (!item.initial_pruned) {
        for (const auto& [r, unused] : item.initial_readers) {
          (void)unused;
          if (r != txn) AddEdge(r, txn, kRw);
        }
      }
    } else {
      const VersionEntry& prev = item.versions.back();
      if (prev.creator != txn) AddEdge(prev.creator, txn, kWw);
      for (const auto& [r, unused] : prev.readers) {
        (void)unused;
        if (r != txn) AddEdge(r, txn, kRw);
      }
    }
    for (const auto& [r, unused] : entry.readers) {
      (void)unused;
      if (r != txn) AddEdge(txn, r, kWr);
    }
    item.versions.push_back(std::move(entry));
  }

  report_.peak_live_nodes =
      std::max<uint64_t>(report_.peak_live_nodes, nodes_.size());
  if (options_.prune_interval != 0 &&
      ++commits_since_prune_ >= options_.prune_interval) {
    PruneLocked();
  }
}

void OnlineChecker::IngestAbort(TxnId txn) {
  Node& n = Touch(txn);
  if (n.status != TxnStatus::kOpen) return;
  ++report_.aborts_observed;
  for (const ItemId& item_id : n.writes) {
    ItemState& item = items_[item_id];
    if (item.live_writer == txn) item.live_writer = kInitialTxn;
    pending_reads_.erase({item_id, txn});
  }
  nodes_.erase(txn);
  aborted_[txn] = epoch_;
}

void OnlineChecker::JudgeDirtyRead(Node& n, TxnId txn) {
  if (!n.dirty_read) return;
  if (LevelForbidsDirtyRead(n.level)) {
    RecordViolation(txn, "dirty-read",
                    n.dirty_detail + " while declared " +
                        IsolationLevelName(n.level));
  } else {
    ++report_.dirty_reads_allowed;
  }
}

void OnlineChecker::AddEdge(TxnId from, TxnId to, uint8_t kind) {
  if (from == to || from == kInitialTxn || to == kInitialTxn) return;
  auto fit = nodes_.find(from);
  auto tit = nodes_.find(to);
  if (fit == nodes_.end() || tit == nodes_.end()) return;  // pruned/aborted
  Node& f = fit->second;
  Node& t = tit->second;
  if (f.status != TxnStatus::kCommitted || t.status != TxnStatus::kCommitted) {
    return;
  }
  uint8_t& mask = f.out[to];
  const bool new_pair = (mask == 0);
  if ((mask & kind) != 0 && !new_pair) return;
  mask |= kind;
  t.in[from] = mask;
  if (!new_pair) return;
  ++report_.edges_added;
  if (f.ord < t.ord) return;  // forward edge keeps the order valid
  ++report_.cycle_checks;
  ResolveCycle(from, to);
}

void OnlineChecker::RemoveEdge(TxnId from, TxnId to) {
  auto fit = nodes_.find(from);
  if (fit != nodes_.end()) fit->second.out.erase(to);
  auto tit = nodes_.find(to);
  if (tit != nodes_.end()) tit->second.in.erase(from);
}

std::vector<TxnId> OnlineChecker::FindPath(TxnId from, TxnId to,
                                           uint64_t max_ord) {
  std::map<TxnId, TxnId> parent;
  std::vector<TxnId> stack{from};
  parent[from] = from;
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (cur == to) {
      std::vector<TxnId> path;
      for (TxnId x = to;; x = parent[x]) {
        path.push_back(x);
        if (x == from) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    const Node& n = nodes_.at(cur);
    for (const auto& [next, unused] : n.out) {
      (void)unused;
      if (parent.count(next) != 0) continue;
      auto nit = nodes_.find(next);
      if (nit == nodes_.end() || nit->second.ord > max_ord) continue;
      parent[next] = cur;
      stack.push_back(next);
    }
  }
  return {};
}

void OnlineChecker::ResolveCycle(TxnId from, TxnId to) {
  // The new edge from->to points backward in the maintained topological
  // order.  Repeatedly look for a closing path to->...->from; each cycle
  // found is judged against its participants' declared levels and then
  // broken (by excising the excusing edge, or the new edge on a
  // violation) so certification continues on an acyclic graph.
  while (true) {
    auto fit = nodes_.find(from);
    auto tit = nodes_.find(to);
    if (fit == nodes_.end() || tit == nodes_.end()) return;
    if (fit->second.out.count(to) == 0) return;  // the new edge was excised
    const uint64_t max_ord = fit->second.ord;
    std::vector<TxnId> path = FindPath(to, from, max_ord);
    if (path.empty()) break;  // acyclic again; restore the order below

    // The cycle is path[0]=to -> ... -> path[k]=from plus from->to.
    const size_t k = path.size();
    auto out_mask = [&](size_t i) {
      TxnId u = path[i];
      TxnId v = (i + 1 < k) ? path[i + 1] : to;
      return nodes_.at(u).out.at(v);
    };
    auto in_mask = [&](size_t i) {
      return out_mask((i + k - 1) % k);
    };
    std::optional<size_t> excuser;
    for (size_t i = 0; i < k && !excuser.has_value(); ++i) {
      switch (nodes_.at(path[i]).level) {
        case IsolationLevel::kDegree0:
        case IsolationLevel::kReadUncommitted:
          excuser = i;
          break;
        case IsolationLevel::kReadCommitted:
        case IsolationLevel::kCursorStability:
        case IsolationLevel::kOracleReadConsistency:
          // A pure outgoing anti-dependency: the level never promised
          // repeatable reads, so fuzzy reads / lost updates are its due.
          if (out_mask(i) == kRw) excuser = i;
          break;
        case IsolationLevel::kSnapshotIsolation:
          // The pivot of consecutive anti-dependencies (write skew): the
          // one cycle shape plain SI admits (Fekete et al.).  A ww or wr
          // edge at the pivot would mean first-committer-wins or the
          // snapshot discipline failed — never excused.
          if (out_mask(i) == kRw && in_mask(i) == kRw) excuser = i;
          break;
        default:
          break;  // RR and the serializable levels excuse nothing
      }
    }

    std::ostringstream cyc;
    for (size_t i = 0; i < k; ++i) {
      cyc << "T" << path[i] << "("
          << IsolationLevelName(nodes_.at(path[i]).level) << ") -"
          << EdgeName(out_mask(i)) << "-> ";
    }
    cyc << "T" << path[0];

    if (excuser.has_value()) {
      ++report_.allowed_anomalies;
      const size_t i = *excuser;
      TxnId u = path[i];
      TxnId v = (i + 1 < k) ? path[i + 1] : to;
      RemoveEdge(u, v);
      if (u == from && v == to) return;  // removed the inserted edge itself
      continue;  // the inserted edge may close another cycle
    }
    RecordViolation(path[k - 1], "cycle", cyc.str());
    RemoveEdge(from, to);
    return;
  }

  // No cycle: restore topological order Pearce-Kelly style by permuting
  // the affected region [ord(to), ord(from)].
  Node& f = nodes_.at(from);
  Node& t = nodes_.at(to);
  const uint64_t lo = t.ord;
  const uint64_t hi = f.ord;
  // Forward closure of `to` within the region.
  std::vector<TxnId> fwd;
  {
    std::map<TxnId, bool> seen;
    std::vector<TxnId> stack{to};
    seen[to] = true;
    while (!stack.empty()) {
      TxnId cur = stack.back();
      stack.pop_back();
      fwd.push_back(cur);
      for (const auto& [next, unused] : nodes_.at(cur).out) {
        (void)unused;
        auto nit = nodes_.find(next);
        if (nit == nodes_.end() || nit->second.ord > hi || seen[next]) {
          continue;
        }
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  // Backward closure of `from` within the region.
  std::vector<TxnId> bwd;
  {
    std::map<TxnId, bool> seen;
    std::vector<TxnId> stack{from};
    seen[from] = true;
    while (!stack.empty()) {
      TxnId cur = stack.back();
      stack.pop_back();
      bwd.push_back(cur);
      for (const auto& [prev, unused] : nodes_.at(cur).in) {
        (void)unused;
        auto nit = nodes_.find(prev);
        if (nit == nodes_.end() || nit->second.ord < lo || seen[prev]) {
          continue;
        }
        seen[prev] = true;
        stack.push_back(prev);
      }
    }
  }
  auto by_ord = [this](TxnId a, TxnId b) {
    return nodes_.at(a).ord < nodes_.at(b).ord;
  };
  std::sort(fwd.begin(), fwd.end(), by_ord);
  std::sort(bwd.begin(), bwd.end(), by_ord);
  std::vector<uint64_t> slots;
  slots.reserve(fwd.size() + bwd.size());
  for (TxnId x : bwd) slots.push_back(nodes_.at(x).ord);
  for (TxnId x : fwd) slots.push_back(nodes_.at(x).ord);
  std::sort(slots.begin(), slots.end());
  size_t si = 0;
  for (TxnId x : bwd) nodes_.at(x).ord = slots[si++];
  for (TxnId x : fwd) nodes_.at(x).ord = slots[si++];
}

uint64_t OnlineChecker::WatermarkLocked() const {
  uint64_t w = epoch_;
  for (const auto& [id, n] : nodes_) {
    (void)id;
    if (n.status == TxnStatus::kOpen) w = std::min(w, n.first_seen_epoch);
  }
  return w;
}

size_t OnlineChecker::Prune() {
  std::lock_guard<std::mutex> lk(mu_);
  return PruneLocked();
}

size_t OnlineChecker::PruneLocked() {
  commits_since_prune_ = 0;
  const uint64_t w = WatermarkLocked();
  // Retire committed sources older than the watermark: no new in-edge can
  // ever reach them, and a node without in-edges sits on no cycle.
  std::vector<TxnId> queue;
  for (const auto& [id, n] : nodes_) {
    if (n.status == TxnStatus::kCommitted && n.commit_epoch < w &&
        n.in.empty()) {
      queue.push_back(id);
    }
  }
  size_t pruned = 0;
  while (!queue.empty()) {
    TxnId id = queue.back();
    queue.pop_back();
    auto it = nodes_.find(id);
    if (it == nodes_.end()) continue;
    for (const auto& [succ, unused] : it->second.out) {
      (void)unused;
      auto sit = nodes_.find(succ);
      if (sit == nodes_.end()) continue;
      Node& s = sit->second;
      s.in.erase(id);
      if (s.status == TxnStatus::kCommitted && s.commit_epoch < w &&
          s.in.empty()) {
        queue.push_back(succ);
      }
    }
    nodes_.erase(it);
    ++pruned;
  }
  report_.nodes_pruned += pruned;
  // Superseded versions older than the watermark can gain no new reader.
  for (auto& [item_id, item] : items_) {
    (void)item_id;
    while (item.versions.size() > 1 && item.versions[1].commit_epoch < w) {
      item.versions.erase(item.versions.begin());
    }
    if (!item.initial_pruned && !item.versions.empty() &&
        item.versions.front().commit_epoch < w) {
      item.initial_pruned = true;
      item.initial_readers.clear();
    }
  }
  for (auto it = aborted_.begin(); it != aborted_.end();) {
    if (it->second < w) {
      it = aborted_.erase(it);
    } else {
      ++it;
    }
  }
  return pruned;
}

void OnlineChecker::RecordViolation(TxnId txn, const std::string& kind,
                                    const std::string& detail) {
  ++report_.violations;
  if (report_.first_violations.size() < options_.max_recorded_violations) {
    report_.first_violations.push_back(CheckerViolation{txn, kind, detail});
  }
}

CheckerReport OnlineChecker::Report() const {
  std::lock_guard<std::mutex> lk(mu_);
  CheckerReport r = report_;
  r.live_nodes = nodes_.size();
  r.peak_live_nodes = std::max(r.peak_live_nodes, r.live_nodes);
  return r;
}

uint64_t OnlineChecker::live_nodes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_.size();
}

void OnlineChecker::RegisterMetrics(obs::MetricsRegistry& reg,
                                    const std::string& prefix) {
  reg.RegisterGauge(prefix + "commits_certified",
                    [this] { return Report().commits_certified; });
  reg.RegisterGauge(prefix + "violations",
                    [this] { return Report().violations; });
  reg.RegisterGauge(prefix + "allowed_anomalies",
                    [this] { return Report().allowed_anomalies; });
  reg.RegisterGauge(prefix + "edges_added",
                    [this] { return Report().edges_added; });
  reg.RegisterGauge(prefix + "live_nodes", [this] { return live_nodes(); });
  reg.RegisterGauge(prefix + "nodes_pruned",
                    [this] { return Report().nodes_pruned; });
}

}  // namespace check
}  // namespace critique
