// Model-based check of the multiversion store contract (mv_store.h).
//
// A seeded random schedule of writes, deletes, commits (optionally with
// stamps reserved in one order and applied in another), aborts and
// watermark GCs drives a MultiVersionStore side by side with a reference
// model that keeps the full, never-pruned history.  After every step each
// observable answer of the store is checked against the model: visibility
// for every live snapshot (>= the GC watermark) and reader, pending-write
// probes, the First-Committer-Wins probe, key-ordered scans, the shape of
// every chain under the GC contract, and the size counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "critique/storage/mv_store.h"

namespace critique {
namespace {

/// One workload shape for the random schedule.
struct Shape {
  const char* name;
  int keys;            ///< size of the key universe
  int bootstrapped;    ///< keys loaded at ts 1 (the rest start absent)
  int max_open;        ///< concurrently open writers
  int delete_pct;      ///< share of writes that are deletes
  int abort_pct;       ///< share of finished writers that abort
  int gc_pct;          ///< chance per step of a GC at a new watermark
  bool shuffled;       ///< commit stamps applied out of reservation order
};

const Shape kShapes[] = {
    {"HotKey", 1, 1, 4, 10, 20, 10, false},
    {"WideKeyspace", 64, 48, 6, 10, 20, 10, false},
    {"DeleteHeavy", 8, 8, 4, 60, 10, 15, false},
    {"AbortHeavy", 8, 4, 6, 15, 70, 10, false},
    {"OutOfOrderStamps", 6, 6, 8, 15, 15, 10, true},
    {"GcEveryStep", 8, 8, 4, 25, 20, 100, true},
    {"NeverGc", 8, 8, 4, 25, 20, 0, true},
    {"ManyConcurrentWriters", 4, 2, 16, 20, 30, 10, true},
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

constexpr TxnId kOutsider = 1'000'000;  // a reader with no pending writes

/// The expected visible version: creator, commit_ts (0 while pending),
/// and the value (nullopt for a tombstone).
struct ModelVersion {
  Timestamp ts;
  TxnId creator;
  std::optional<int64_t> value;

  bool operator<(const ModelVersion& o) const {
    return std::tie(ts, creator, value) < std::tie(o.ts, o.creator, o.value);
  }
  bool operator==(const ModelVersion& o) const {
    return ts == o.ts && creator == o.creator && value == o.value;
  }
};

void PrintTo(const ModelVersion& v, std::ostream* os) {
  *os << "{ts=" << v.ts << " T" << v.creator << " "
      << (v.value ? std::to_string(*v.value) : "tombstone") << "}";
}

ModelVersion FromStore(const Version& v) {
  std::optional<int64_t> value;
  if (!v.tombstone) value = v.row.scalar().AsInt();
  return {v.commit_ts, v.creator, value};
}

/// Full history: committed versions per key (never pruned) and pending
/// writes per transaction.
struct Model {
  std::map<ItemId, std::vector<ModelVersion>> committed;
  std::map<TxnId, std::map<ItemId, std::optional<int64_t>>> pending;

  std::optional<ModelVersion> NewestAtOrBelow(const ItemId& k,
                                              Timestamp ts) const {
    std::optional<ModelVersion> best;
    auto it = committed.find(k);
    if (it == committed.end()) return best;
    for (const auto& v : it->second) {
      if (v.ts <= ts && (!best || v.ts > best->ts)) best = v;
    }
    return best;
  }

  std::optional<ModelVersion> Visible(const ItemId& k, Timestamp ts,
                                      TxnId txn) const {
    auto p = pending.find(txn);
    if (p != pending.end()) {
      auto w = p->second.find(k);
      if (w != p->second.end()) return ModelVersion{0, txn, w->second};
    }
    return NewestAtOrBelow(k, ts);
  }

  Timestamp LatestCommitTs(const ItemId& k) const {
    auto v = NewestAtOrBelow(k, ~Timestamp{0});
    return v ? v->ts : kInvalidTimestamp;
  }
};

class MVStoreModelTest
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {
 protected:
  void SetUp() override {
    shape_ = std::get<0>(GetParam());
    rng_.seed(std::get<1>(GetParam()));
    for (int i = 0; i < shape_.keys; ++i) {
      keys_.push_back("k" + std::to_string(10 + i));
    }
    // Load in scrambled order so append order differs from key order.
    std::vector<ItemId> load(keys_.begin(),
                             keys_.begin() + shape_.bootstrapped);
    std::shuffle(load.begin(), load.end(), rng_);
    for (const ItemId& k : load) {
      store_.Bootstrap(k, Row::Scalar(Value(int64_t{0})), 1);
      model_.committed[k].push_back({1, kInitialTxn, 0});
    }
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(int pct) { return static_cast<int>(rng_() % 100) < pct; }

  std::set<ItemId> WriteSet(TxnId t) const {
    std::set<ItemId> out;
    for (const auto& [k, v] : model_.pending.at(t)) out.insert(k);
    return out;
  }

  void Commit(TxnId t, Timestamp ts) {
    store_.CommitTxn(t, ts, WriteSet(t));
    for (const auto& [k, v] : model_.pending[t]) {
      model_.committed[k].push_back({ts, t, v});
    }
    model_.pending.erase(t);
  }

  // One random step of the schedule.
  void Step() {
    if (open_.size() < static_cast<size_t>(shape_.max_open) &&
        (open_.empty() || Chance(25))) {
      open_.push_back(next_txn_);
      model_.pending[next_txn_++];
    } else if (!open_.empty() && Chance(70)) {
      TxnId t = open_[Pick(open_.size())];
      const ItemId& k = keys_[Pick(keys_.size())];
      if (Chance(shape_.delete_pct)) {
        store_.Delete(k, t);
        model_.pending[t][k] = std::nullopt;
      } else {
        int64_t value = static_cast<int64_t>(rng_() % 1000) + 1;
        store_.Write(k, Row::Scalar(Value(value)), t);
        model_.pending[t][k] = value;
      }
    } else if (!open_.empty()) {
      size_t i = Pick(open_.size());
      TxnId t = open_[i];
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      if (Chance(shape_.abort_pct)) {
        store_.AbortTxn(t, WriteSet(t));
        model_.pending.erase(t);
      } else if (shape_.shuffled) {
        reserved_[t] = ++clock_;
      } else {
        Commit(t, ++clock_);
      }
    }
    if (!reserved_.empty() && Chance(40)) {
      auto it = std::next(reserved_.begin(),
                          static_cast<std::ptrdiff_t>(Pick(reserved_.size())));
      Commit(it->first, it->second);
      reserved_.erase(it);
    }
    if (Chance(shape_.gc_pct)) {
      // The watermark never passes a reserved-but-unapplied stamp, as an
      // engine's oldest open snapshot never passes a commit in flight.
      Timestamp cap = clock_;
      for (const auto& [t, ts] : reserved_) cap = std::min(cap, ts - 1);
      if (cap > watermark_) watermark_ += rng_() % (cap - watermark_ + 1);
      size_t before = store_.VersionCount();
      size_t dropped = store_.GarbageCollect(watermark_);
      EXPECT_EQ(dropped, before - store_.VersionCount());
    }
  }

  void ExpectChainFollowsContract(const ItemId& k) {
    std::map<TxnId, std::optional<int64_t>> pending;
    std::vector<ModelVersion> newer, at_or_below;
    for (const Version& v : store_.Chain(k)) {
      ModelVersion mv = FromStore(v);
      if (!v.committed()) {
        EXPECT_TRUE(pending.emplace(v.creator, mv.value).second)
            << k << ": two pending versions of T" << v.creator;
      } else {
        (v.commit_ts > watermark_ ? newer : at_or_below).push_back(mv);
      }
    }
    std::map<TxnId, std::optional<int64_t>> want_pending;
    for (const auto& [t, writes] : model_.pending) {
      auto w = writes.find(k);
      if (w != writes.end()) want_pending[t] = w->second;
    }
    EXPECT_EQ(pending, want_pending) << k;

    // Everything newer than the watermark survives, exactly.
    std::vector<ModelVersion> want_newer;
    for (const auto& v : model_.committed[k]) {
      if (v.ts > watermark_) want_newer.push_back(v);
    }
    std::sort(newer.begin(), newer.end());
    std::sort(want_newer.begin(), want_newer.end());
    EXPECT_EQ(newer, want_newer) << k;

    // At most the newest version at or below the watermark survives; it
    // may be gone only when it is a tombstone (the chain was dropped).
    auto want_base = model_.NewestAtOrBelow(k, watermark_);
    ASSERT_LE(at_or_below.size(), 1u) << k;
    if (!at_or_below.empty()) {
      ASSERT_TRUE(want_base.has_value()) << k;
      EXPECT_EQ(at_or_below[0], *want_base) << k;
    } else if (want_base) {
      EXPECT_FALSE(want_base->value.has_value()) << k << " lost a live base";
    }

    // First-Committer-Wins verdicts agree for every start >= watermark.
    Timestamp full = model_.LatestCommitTs(k);
    Timestamp got = store_.LatestCommitTs(k);
    if (full > watermark_) {
      EXPECT_EQ(got, full) << k;
    } else if (got != full) {
      EXPECT_EQ(got, kInvalidTimestamp) << k;
    }
  }

  void ExpectReadsMatch(const ItemId& k, Timestamp ts, TxnId reader) {
    auto want = model_.Visible(k, ts, reader);
    auto row = store_.Read(k, ts, reader);
    if (want && want->value) {
      ASSERT_TRUE(row.has_value()) << k << "@" << ts << " T" << reader;
      EXPECT_EQ(*row, Row::Scalar(Value(*want->value)));
    } else {
      EXPECT_FALSE(row.has_value()) << k << "@" << ts << " T" << reader;
    }
    auto info = store_.ReadVersionInfo(k, ts, reader);
    if (info) {
      ASSERT_TRUE(want.has_value()) << k << "@" << ts << " T" << reader;
      EXPECT_EQ(FromStore(*info), *want) << k << "@" << ts << " T" << reader;
    } else if (want) {
      // Only a GC-dropped committed tombstone may read as absent.
      EXPECT_FALSE(want->value.has_value()) << k << "@" << ts;
      EXPECT_LE(want->ts, watermark_) << k << "@" << ts;
      EXPECT_NE(want->ts, kInvalidTimestamp) << k << "@" << ts;
    }
  }

  void ExpectScanMatches(Timestamp ts, TxnId reader) {
    std::vector<std::pair<ItemId, Row>> all, big;
    for (const ItemId& k : keys_) {  // keys_ is in ascending key order
      auto v = model_.Visible(k, ts, reader);
      if (!v || !v->value) continue;
      all.emplace_back(k, Row::Scalar(Value(*v->value)));
      if (*v->value >= 500) big.emplace_back(k, Row::Scalar(Value(*v->value)));
    }
    EXPECT_EQ(store_.Scan(Predicate::All(), ts, reader), all)
        << "@" << ts << " T" << reader;
    EXPECT_EQ(store_.Scan(Predicate::Cmp("val", CompareOp::kGe,
                                         Value(int64_t{500})),
                          ts, reader),
              big)
        << "@" << ts << " T" << reader;
  }

  void ExpectMatchesModel() {
    std::vector<TxnId> readers = {kOutsider};
    for (const auto& [t, writes] : model_.pending) readers.push_back(t);
    std::vector<Timestamp> snapshots = {
        watermark_, clock_, watermark_ + Pick(clock_ - watermark_ + 1)};
    size_t versions = 0, longest = 0, items = 0;
    for (const ItemId& k : keys_) {
      ExpectChainFollowsContract(k);
      size_t n = store_.Chain(k).size();
      versions += n;
      longest = std::max(longest, n);
      items += n > 0 ? 1 : 0;
      for (TxnId t : readers) {
        EXPECT_EQ(store_.HasPendingWrite(k, t),
                  model_.pending.count(t) && model_.pending[t].count(k));
        bool other = false;
        for (const auto& [o, writes] : model_.pending) {
          other |= o != t && writes.count(k) > 0;
        }
        EXPECT_EQ(store_.HasConcurrentPendingWrite(k, t), other);
        for (Timestamp ts : snapshots) ExpectReadsMatch(k, ts, t);
      }
    }
    EXPECT_EQ(store_.VersionCount(), versions);
    EXPECT_EQ(store_.MaxChainLength(), longest);
    EXPECT_EQ(store_.ItemCount(), items);  // aborts leave no empty chains
    for (Timestamp ts : snapshots) {
      ExpectScanMatches(ts, kOutsider);
      ExpectScanMatches(ts, readers[Pick(readers.size())]);
    }
  }

  Shape shape_{};
  std::mt19937_64 rng_;
  std::vector<ItemId> keys_;
  MultiVersionStore store_;
  Model model_;
  std::vector<TxnId> open_;
  std::map<TxnId, Timestamp> reserved_;  // finished, stamp not yet applied
  TxnId next_txn_ = 2;
  Timestamp clock_ = 1;
  Timestamp watermark_ = 0;
};

TEST_P(MVStoreModelTest, MatchesReferenceModel) {
  constexpr int kSteps = 300;
  for (int i = 0; i < kSteps && !HasFailure(); ++i) {
    Step();
    ExpectMatchesModel();
  }
  // Drain: apply every reserved stamp, then collect at the newest stamp;
  // each surviving chain is then one live version.
  for (TxnId t : open_) {
    store_.AbortTxn(t, WriteSet(t));
    model_.pending.erase(t);
  }
  open_.clear();
  for (const auto& [t, ts] : reserved_) Commit(t, ts);
  reserved_.clear();
  ExpectMatchesModel();
  watermark_ = clock_;
  store_.GarbageCollect(watermark_);
  ExpectMatchesModel();
  EXPECT_LE(store_.MaxChainLength(), 1u);
  for (const ItemId& k : keys_) {
    for (const Version& v : store_.Chain(k)) EXPECT_FALSE(v.tombstone) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MVStoreModelTest,
    ::testing::Combine(::testing::ValuesIn(kShapes),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4})),
    [](const ::testing::TestParamInfo<MVStoreModelTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace critique
