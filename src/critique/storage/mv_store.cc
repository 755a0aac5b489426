#include "critique/storage/mv_store.h"

#include <algorithm>

namespace critique {

void MultiVersionStore::Bootstrap(const ItemId& id, Row row, Timestamp ts) {
  Version v;
  v.row = std::move(row);
  v.creator = kInitialTxn;
  v.commit_ts = ts;
  chains_[id].push_back(std::move(v));
}

const Version* MultiVersionStore::Visible(const VersionChain& chain,
                                          Timestamp ts, TxnId txn) {
  // Own pending version wins ("the transaction's writes will be reflected
  // in this snapshot").
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    if (!rit->committed() && rit->creator == txn) return &*rit;
  }
  // Latest committed version at or before the snapshot.
  const Version* best = nullptr;
  for (const auto& v : chain) {
    if (!v.committed() || v.commit_ts > ts) continue;
    if (!best || v.commit_ts > best->commit_ts) best = &v;
  }
  return best;
}

const Version* MultiVersionStore::Visible(const ItemId& id, Timestamp ts,
                                          TxnId txn) const {
  auto it = chains_.find(id);
  return it == chains_.end() ? nullptr : Visible(it->second, ts, txn);
}

std::optional<Row> MultiVersionStore::Read(const ItemId& id, Timestamp ts,
                                           TxnId txn) const {
  const Version* v = Visible(id, ts, txn);
  if (!v || v->tombstone) return std::nullopt;
  return v->row;
}

std::optional<Version> MultiVersionStore::ReadVersionInfo(const ItemId& id,
                                                          Timestamp ts,
                                                          TxnId txn) const {
  const Version* v = Visible(id, ts, txn);
  if (!v) return std::nullopt;
  return *v;
}

void MultiVersionStore::Write(const ItemId& id, Row row, TxnId txn) {
  auto& chain = chains_[id];
  for (auto& v : chain) {
    if (!v.committed() && v.creator == txn) {
      v.row = std::move(row);
      v.tombstone = false;
      return;
    }
  }
  Version v;
  v.row = std::move(row);
  v.creator = txn;
  chain.push_back(std::move(v));
}

void MultiVersionStore::Delete(const ItemId& id, TxnId txn) {
  auto& chain = chains_[id];
  for (auto& v : chain) {
    if (!v.committed() && v.creator == txn) {
      v.tombstone = true;
      return;
    }
  }
  Version v;
  v.creator = txn;
  v.tombstone = true;
  chain.push_back(std::move(v));
}

bool MultiVersionStore::HasPendingWrite(const ItemId& id, TxnId txn) const {
  auto it = chains_.find(id);
  if (it == chains_.end()) return false;
  for (const auto& v : it->second) {
    if (!v.committed() && v.creator == txn) return true;
  }
  return false;
}

bool MultiVersionStore::HasConcurrentPendingWrite(const ItemId& id,
                                                  TxnId txn) const {
  auto it = chains_.find(id);
  if (it == chains_.end()) return false;
  for (const auto& v : it->second) {
    if (!v.committed() && v.creator != txn) return true;
  }
  return false;
}

Timestamp MultiVersionStore::LatestCommitTs(const ItemId& id) const {
  auto it = chains_.find(id);
  if (it == chains_.end()) return kInvalidTimestamp;
  Timestamp best = kInvalidTimestamp;
  for (const auto& v : it->second) {
    if (v.committed() && v.commit_ts > best) best = v.commit_ts;
  }
  return best;
}

void MultiVersionStore::CommitTxn(TxnId txn, Timestamp commit_ts,
                                  const std::set<ItemId>& items) {
  for (const ItemId& id : items) {
    auto it = chains_.find(id);
    if (it == chains_.end()) continue;
    for (auto& v : it->second) {
      if (!v.committed() && v.creator == txn) v.commit_ts = commit_ts;
    }
  }
}

void MultiVersionStore::AbortTxn(TxnId txn, const std::set<ItemId>& items) {
  for (const ItemId& id : items) {
    auto it = chains_.find(id);
    if (it == chains_.end()) continue;
    auto& chain = it->second;
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&](const Version& v) {
                                 return !v.committed() && v.creator == txn;
                               }),
                chain.end());
    if (chain.empty()) chains_.erase(it);
  }
}

std::vector<std::pair<ItemId, Row>> MultiVersionStore::Scan(
    const Predicate& pred, Timestamp ts, TxnId txn) const {
  std::vector<std::pair<ItemId, Row>> out;
  for (const auto& [id, chain] : chains_) {
    const Version* v = Visible(chain, ts, txn);
    if (!v || v->tombstone) continue;
    if (pred.Covers(id, v->row)) out.emplace_back(id, v->row);
  }
  return out;
}

size_t MultiVersionStore::GarbageCollect(Timestamp watermark) {
  size_t dropped = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    auto& chain = it->second;
    // Newest committed version at or below the watermark must survive.
    Timestamp keep_ts = kInvalidTimestamp;
    for (const auto& v : chain) {
      if (v.committed() && v.commit_ts <= watermark && v.commit_ts > keep_ts) {
        keep_ts = v.commit_ts;
      }
    }
    auto obsolete = [&](const Version& v) {
      return v.committed() && v.commit_ts < keep_ts;
    };
    size_t before = chain.size();
    chain.erase(std::remove_if(chain.begin(), chain.end(), obsolete),
                chain.end());
    dropped += before - chain.size();
    // A lone committed tombstone at/below the watermark reads exactly like
    // an absent item at every surviving snapshot: drop the whole chain.
    if (chain.size() == 1 && chain[0].committed() && chain[0].tombstone &&
        chain[0].commit_ts <= watermark) {
      ++dropped;
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

size_t MultiVersionStore::VersionCount() const {
  size_t n = 0;
  for (const auto& [id, chain] : chains_) {
    (void)id;
    n += chain.size();
  }
  return n;
}

size_t MultiVersionStore::MaxChainLength() const {
  size_t n = 0;
  for (const auto& [id, chain] : chains_) {
    (void)id;
    n = std::max(n, chain.size());
  }
  return n;
}

std::vector<Version> MultiVersionStore::Chain(const ItemId& id) const {
  auto it = chains_.find(id);
  if (it == chains_.end()) return {};
  return it->second;
}

}  // namespace critique
