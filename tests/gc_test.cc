// Version garbage collection: watermark semantics, the store's GC queue
// (checked against the full-walk rule it replaced), RetainAll time-travel
// exactness, the kWatermark floor refusal, Database/ShardedDatabase
// low-watermark tracking, bounded chains under churn, and GC under
// concurrent writers (run under --tsan for the data-race certificate).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/engine/si_engine.h"
#include "critique/shard/sharded_database.h"
#include "critique/storage/mv_store.h"

namespace critique {
namespace {

DbOptions WatermarkOptions(uint32_t interval) {
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.version_gc = VersionGcMode::kWatermark;
  opts.version_gc_interval = interval;
  return opts;
}

// --- store-level watermark semantics ----------------------------------------

TEST(MVStoreGcTest, PrunesOnlyBelowWatermark) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(int64_t{0})), 1);
  for (TxnId t = 2; t <= 6; ++t) {
    store.Write("x", Row::Scalar(Value(int64_t(t))), t);
    store.CommitTxn(t, t * 10, std::set<ItemId>{"x"});
  }
  // Chain commit timestamps: 1, 20, 30, 40, 50, 60.  Watermark 45 keeps
  // the newest at/below it (40) and everything newer.
  EXPECT_EQ(store.GarbageCollect(45), 3u);
  EXPECT_TRUE(store.Read("x", 45, 99)->scalar().Equals(Value(int64_t{4})));
  EXPECT_TRUE(store.Read("x", 65, 99)->scalar().Equals(Value(int64_t{6})));
  EXPECT_EQ(store.MaxChainLength(), 3u);
}

TEST(MVStoreGcTest, DropsTombstoneOnlyChains) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(int64_t{1})), 1);
  store.Delete("x", 2);
  store.CommitTxn(2, 10, std::set<ItemId>{"x"});
  ASSERT_EQ(store.ItemCount(), 1u);
  // Watermark above the tombstone: the whole chain folds away — an
  // absent item and a tombstone read identically at surviving snapshots.
  EXPECT_EQ(store.GarbageCollect(20), 2u);
  EXPECT_EQ(store.ItemCount(), 0u);
  EXPECT_FALSE(store.Read("x", 30, 99).has_value());
}

TEST(MVStoreGcTest, RememberedDropNamesTheDeleterOfAnAbsentItem) {
  MultiVersionStore store;
  store.Bootstrap("x", Row::Scalar(Value(int64_t{1})), 1);
  store.Bootstrap("y", Row::Scalar(Value(int64_t{1})), 1);
  store.Delete("x", 2);
  store.Delete("y", 3);
  store.CommitTxn(2, 10, std::set<ItemId>{"x"});
  store.CommitTxn(3, 10, std::set<ItemId>{"y"});
  // Only a remembering pass keeps the deleter; an unknown item and a
  // chain dropped by a plain pass both read as the initial state.
  EXPECT_EQ(store.GarbageCollect(5), 0u);
  EXPECT_EQ(store.AbsentVersionCreator("x"), kInitialTxn);
  store.Write("y", Row::Scalar(Value(int64_t{2})), 4);  // pins y's chain
  EXPECT_EQ(store.GarbageCollect(20, /*remember_drops=*/true), 3u);
  EXPECT_EQ(store.ItemCount(), 1u);
  EXPECT_EQ(store.AbsentVersionCreator("x"), 2);
  EXPECT_EQ(store.AbsentVersionCreator("y"), kInitialTxn);
  EXPECT_EQ(store.AbsentVersionCreator("z"), kInitialTxn);
  MultiVersionStore plain;
  plain.Bootstrap("x", Row::Scalar(Value(int64_t{1})), 1);
  plain.Delete("x", 2);
  plain.CommitTxn(2, 10, std::set<ItemId>{"x"});
  EXPECT_EQ(plain.GarbageCollect(20), 2u);
  EXPECT_EQ(plain.AbsentVersionCreator("x"), kInitialTxn);
}

// A recorded read of an item whose delete GC collected names the delete's
// version, not the initial one: otherwise the MVSG would draw a false
// anti-dependency to the item's first creator.
TEST(GcHistoryTest, AbsentReadAfterCollectedDeleteNamesTheDeleter) {
  for (IsolationLevel level : {IsolationLevel::kSnapshotIsolation,
                               IsolationLevel::kOracleReadConsistency}) {
    DbOptions opts(level);
    opts.record_history = true;
    Database db(opts);
    (void)db.Load("x", Value(int64_t{0}));
    Transaction writer = db.Begin();
    ASSERT_TRUE(writer.Put("x", Value(int64_t{1})).ok());
    ASSERT_TRUE(writer.Commit().ok());
    Transaction deleter = db.Begin();
    ASSERT_TRUE(deleter.Erase("x").ok());
    const TxnId deleter_id = deleter.id();
    ASSERT_TRUE(deleter.Commit().ok());
    (void)db.GarbageCollectVersions();
    ASSERT_EQ(db.engine().VersionCount(), 0u) << "the chain was dropped";

    Transaction reader = db.Begin();
    auto row = reader.Get("x");
    EXPECT_TRUE(!row.ok() || !row->has_value());
    ASSERT_TRUE(reader.Commit().ok());
    const History h = db.HistorySnapshot();
    const Action* read = nullptr;
    for (const Action& a : h.actions()) {
      if (a.txn == reader.id() && a.IsRead()) read = &a;
    }
    ASSERT_NE(read, nullptr) << h.ToString();
    EXPECT_EQ(read->version, std::optional<TxnId>(deleter_id))
        << IsolationLevelName(level) << ": " << h.ToString();
  }
}

// --- the GC queue: a pass visits only the chains that can shrink ------------

Row IntRow(int64_t v) { return Row::Scalar(Value(v)); }

TEST(MVStoreGcQueueTest, OverwritesQueueOnlyTheirChains) {
  MultiVersionStore store;
  for (int i = 0; i < 100000; ++i) {
    store.Bootstrap("k" + std::to_string(i), IntRow(i), 1);
  }
  EXPECT_EQ(store.QueuedChainCount(), 0u);  // one version each: nothing to do
  for (TxnId t = 2; t <= 11; ++t) {
    const ItemId id = "k" + std::to_string(t * 997);
    store.Write(id, IntRow(-1), t);
    EXPECT_EQ(store.QueuedChainCount(), t - 2) << "a pending write queues nothing";
    store.CommitTxn(t, t, std::set<ItemId>{id});
  }
  EXPECT_EQ(store.QueuedChainCount(), 10u);
  EXPECT_EQ(store.GarbageCollect(100), 10u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  EXPECT_EQ(store.VersionCount(), 100000u);
  EXPECT_EQ(store.GarbageCollect(100), 0u);
}

TEST(MVStoreGcQueueTest, PinnedChainStaysQueuedUntilTheSnapshotEnds) {
  MultiVersionStore store;
  store.Bootstrap("x", IntRow(0), 1);
  store.Write("x", IntRow(1), 2);
  store.CommitTxn(2, 10, std::set<ItemId>{"x"});
  // An open snapshot at 5 holds the watermark below the overwrite: both
  // versions are still visible to someone, and the chain can still shrink.
  EXPECT_EQ(store.GarbageCollect(5), 0u);
  EXPECT_EQ(store.QueuedChainCount(), 1u);
  EXPECT_EQ(store.Chain("x").size(), 2u);
  // The snapshot ends; the first pass after it prunes and dequeues.
  EXPECT_EQ(store.GarbageCollect(10), 1u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  EXPECT_EQ(store.Chain("x").size(), 1u);
}

TEST(MVStoreGcQueueTest, TombstoneAboveWatermarkStaysQueuedThenDropsWhole) {
  MultiVersionStore store;
  store.Bootstrap("x", IntRow(0), 1);
  store.Delete("x", 2);
  store.CommitTxn(2, 10, std::set<ItemId>{"x"});
  EXPECT_EQ(store.QueuedChainCount(), 1u);
  // Watermark between the two: the bootstrap version is the one a
  // snapshot at 5 reads, and the tombstone is above the watermark.
  EXPECT_EQ(store.GarbageCollect(5), 0u);
  EXPECT_EQ(store.QueuedChainCount(), 1u);
  EXPECT_EQ(store.ItemCount(), 1u);
  // At 10 the tombstone becomes the survivor and then goes itself.
  EXPECT_EQ(store.GarbageCollect(10), 2u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  EXPECT_EQ(store.ItemCount(), 0u);
  EXPECT_EQ(store.GarbageCollect(20), 0u);
}

TEST(MVStoreGcQueueTest, SecondLoadQueuesTheItem) {
  MultiVersionStore store;
  store.Bootstrap("x", IntRow(0), 1);
  store.Bootstrap("y", IntRow(0), 2);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  store.Bootstrap("x", IntRow(1), 3);
  EXPECT_EQ(store.QueuedChainCount(), 1u);
  store.Bootstrap("x", IntRow(2), 4);  // already queued: queued once
  EXPECT_EQ(store.QueuedChainCount(), 1u);
  EXPECT_EQ(store.GarbageCollect(4), 2u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  EXPECT_TRUE(store.Read("x", 4, 99)->scalar().Equals(Value(int64_t{2})));
}

TEST(MVStoreGcQueueTest, AbortedInsertLeavesNoDanglingCandidate) {
  MultiVersionStore store;
  // An insert that aborts erases the chain it created; it was never
  // queued, so the next pass touches nothing freed (ASan certifies).
  store.Write("new", IntRow(1), 5);
  store.AbortTxn(5, std::set<ItemId>{"new"});
  EXPECT_EQ(store.ItemCount(), 0u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  // A queued chain survives an abort on it: the abort removes only the
  // pending version, and a queued chain always holds a committed one.
  store.Bootstrap("x", IntRow(0), 1);
  store.Write("x", IntRow(1), 2);
  store.CommitTxn(2, 10, std::set<ItemId>{"x"});
  store.Write("x", IntRow(2), 6);
  store.AbortTxn(6, std::set<ItemId>{"x"});
  ASSERT_EQ(store.QueuedChainCount(), 1u);
  // Re-insert after a committed delete, then abort: the tombstone chain
  // keeps its place on the queue and is dropped by the pass.
  store.Delete("y", 7);
  store.CommitTxn(7, 11, std::set<ItemId>{"y"});
  store.Write("y", IntRow(3), 8);
  store.AbortTxn(8, std::set<ItemId>{"y"});
  EXPECT_EQ(store.QueuedChainCount(), 2u);
  EXPECT_EQ(store.GarbageCollect(20), 2u);
  EXPECT_EQ(store.QueuedChainCount(), 0u);
  EXPECT_EQ(store.ItemCount(), 1u);
}

// The full-walk rule the queue replaced, kept here as the reference: every
// pass visits every chain.
class FullWalkStore {
 public:
  void Bootstrap(const ItemId& id, Row row, Timestamp ts) {
    Version v;
    v.row = std::move(row);
    v.commit_ts = ts;
    chains_[id].push_back(std::move(v));
  }
  void Put(const ItemId& id, std::optional<Row> row, TxnId txn) {
    auto& chain = chains_[id];
    for (auto& v : chain) {
      if (!v.committed() && v.creator == txn) {
        v.tombstone = !row.has_value();
        if (row.has_value()) v.row = std::move(*row);
        return;
      }
    }
    Version v;
    v.creator = txn;
    v.tombstone = !row.has_value();
    if (row.has_value()) v.row = std::move(*row);
    chain.push_back(std::move(v));
  }
  void Commit(TxnId txn, Timestamp ts, const std::set<ItemId>& items) {
    for (const ItemId& id : items) {
      auto it = chains_.find(id);
      if (it == chains_.end()) continue;
      for (auto& v : it->second) {
        if (!v.committed() && v.creator == txn) v.commit_ts = ts;
      }
    }
  }
  void Abort(TxnId txn, const std::set<ItemId>& items) {
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
  size_t GarbageCollect(Timestamp watermark) {
    size_t dropped = 0;
    for (auto it = chains_.begin(); it != chains_.end();) {
      auto& chain = it->second;
      Timestamp keep_ts = kInvalidTimestamp;
      for (const auto& v : chain) {
        if (v.committed() && v.commit_ts <= watermark &&
            v.commit_ts > keep_ts) {
          keep_ts = v.commit_ts;
        }
      }
      const size_t before = chain.size();
      chain.erase(std::remove_if(chain.begin(), chain.end(),
                                 [&](const Version& v) {
                                   return v.committed() &&
                                          v.commit_ts < keep_ts;
                                 }),
                  chain.end());
      dropped += before - chain.size();
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
  std::vector<Version> Chain(const ItemId& id) const {
    auto it = chains_.find(id);
    return it == chains_.end() ? std::vector<Version>{} : it->second;
  }

 private:
  std::map<ItemId, std::vector<Version>> chains_;
};

bool SameChain(const std::vector<Version>& a, const std::vector<Version>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tombstone != b[i].tombstone || a[i].creator != b[i].creator ||
        a[i].commit_ts != b[i].commit_ts ||
        (!a[i].tombstone && !a[i].row.scalar().Equals(b[i].row.scalar()))) {
      return false;
    }
  }
  return true;
}

TEST(MVStoreGcQueueTest, MatchesTheFullWalkOnRandomSequences) {
  const std::vector<ItemId> items = {"a", "b", "c", "d", "e", "f"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    auto below = [&rng](uint64_t n) { return rng() % n; };
    MultiVersionStore store;
    FullWalkStore ref;
    Timestamp clock = 0;
    TxnId next_txn = 1;
    std::map<TxnId, std::set<ItemId>> open;  // txn -> write set
    size_t passes = 0;
    for (int step = 0; step < 600; ++step) {
      const ItemId& id = items[below(items.size())];
      const uint64_t op = below(100);
      if (op < 5) {
        const Row row = IntRow(int64_t(step));
        store.Bootstrap(id, row, ++clock);
        ref.Bootstrap(id, row, clock);
      } else if (op < 15 || open.empty()) {
        open[next_txn++];
      } else {
        auto it = open.begin();
        std::advance(it, below(open.size()));
        const TxnId t = it->first;
        if (op < 55) {
          const Row row = IntRow(int64_t(step));
          store.Write(id, row, t);
          ref.Put(id, row, t);
          it->second.insert(id);
        } else if (op < 65) {
          store.Delete(id, t);
          ref.Put(id, std::nullopt, t);
          it->second.insert(id);
        } else if (op < 80) {
          store.CommitTxn(t, ++clock, it->second);
          ref.Commit(t, clock, it->second);
          open.erase(it);
        } else if (op < 88) {
          store.AbortTxn(t, it->second);
          ref.Abort(t, it->second);
          open.erase(it);
        } else {
          // Any watermark, monotone or not: the rule is per chain.
          const Timestamp wm = below(clock + 2);
          ASSERT_EQ(store.GarbageCollect(wm), ref.GarbageCollect(wm))
              << "seed " << seed << " step " << step;
          ++passes;
          for (const ItemId& i : items) {
            ASSERT_TRUE(SameChain(store.Chain(i), ref.Chain(i)))
                << "seed " << seed << " step " << step << " item " << i;
          }
          ASSERT_LE(store.QueuedChainCount(), store.ItemCount());
        }
      }
    }
    EXPECT_GT(passes, 0u);
  }
}

// --- engine-level watermark + floor -----------------------------------------

TEST(SiGcTest, OpenSnapshotPinsWatermark) {
  SnapshotIsolationEngine e;
  (void)e.Load("x", Row::Scalar(Value(int64_t{0})));
  ASSERT_TRUE(e.Begin(1).ok());  // old snapshot stays open
  for (TxnId t = 2; t <= 5; ++t) {
    ASSERT_TRUE(e.Begin(t).ok());
    ASSERT_TRUE(e.Write(t, "x", Row::Scalar(Value(int64_t(t)))).ok());
    ASSERT_TRUE(e.Commit(t).ok());
  }
  const size_t before = e.VersionCount();
  (void)e.GarbageCollectVersions();
  // T1's snapshot predates every later commit: its visible version and
  // everything newer must survive (nothing below T1's snapshot exists but
  // the bootstrap version, which is exactly what it reads).
  auto seen = e.Read(1, "x");
  ASSERT_TRUE(seen.ok());
  EXPECT_TRUE((*seen)->scalar().Equals(Value(int64_t{0})));
  EXPECT_LE(e.VersionCount(), before);
  ASSERT_TRUE(e.Commit(1).ok());
  (void)e.GarbageCollectVersions();
  EXPECT_EQ(e.VersionCount(), 1u);  // only the newest survives now
}

TEST(SiGcTest, BeginAtBelowFloorRefusedAfterGc) {
  SnapshotIsolationEngine e;
  (void)e.Load("x", Row::Scalar(Value(int64_t{0})));
  Timestamp old_ts = e.Now();
  for (TxnId t = 1; t <= 4; ++t) {
    ASSERT_TRUE(e.Begin(t).ok());
    ASSERT_TRUE(e.Write(t, "x", Row::Scalar(Value(int64_t(t)))).ok());
    ASSERT_TRUE(e.Commit(t).ok());
  }
  (void)e.GarbageCollectVersions();
  ASSERT_GT(e.gc_floor(), old_ts);
  // Below the floor: refused, never answered from a pruned chain.
  Status s = e.BeginAt(100, old_ts);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  // At or above the floor: fine.
  EXPECT_TRUE(e.BeginAt(101, e.gc_floor()).ok());
}

TEST(SiGcTest, RetainAllKeepsTimeTravelExact) {
  // Default options: RetainAll — many updates, then historical reads see
  // every intermediate state exactly.
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("x", Value(int64_t{0}));
  std::vector<Timestamp> after;
  for (int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      return txn.Put("x", Value(i));
    }).ok());
    after.push_back(*db.CurrentTimestamp());
  }
  EXPECT_GE(db.VersionCount(), 21u);  // nothing pruned
  for (size_t i = 0; i < after.size(); i += 5) {
    auto t = db.BeginAtTimestamp(after[i]);
    ASSERT_TRUE(t.ok());
    auto v = t->GetScalar("x");
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v->Equals(Value(static_cast<int64_t>(i + 1))));
    (void)t->Commit();
  }
}

TEST(SiGcTest, WatermarkModeBoundsChainsAutomatically) {
  Database db(WatermarkOptions(/*interval=*/8));
  (void)db.Load("x", Value(int64_t{0}));
  (void)db.Load("y", Value(int64_t{0}));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      return txn.Put(i % 2 == 0 ? "x" : "y", Value(i));
    }).ok());
  }
  // 200 committed writes, but the periodic GC keeps each chain at most
  // one epoch long.
  EXPECT_LE(db.engine().MaxVersionChainLength(), 9u);
  EXPECT_LE(db.VersionCount(), 18u);
  EXPECT_GT(db.engine().version_gc_stats().runs, 0u);
  EXPECT_GT(db.engine().version_gc_stats().collected, 100u);
  // The data is still right.
  auto t = db.Begin();
  auto x = t.GetScalar("x");
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(x->Equals(Value(int64_t{198})));
}

TEST(SiGcTest, WatermarkModeRetiresSsiBookkeeping) {
  DbOptions opts = WatermarkOptions(/*interval=*/4);
  opts.isolation = IsolationLevel::kSerializableSI;
  Database db(opts);
  (void)db.Load("x", Value(int64_t{0}));
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      auto v = txn.GetScalar("x");
      if (!v.ok()) return v.status();
      return txn.Put("x", Value(i));
    }).ok());
  }
  // Chains bounded even with SIREAD tracking on; and the engine still
  // detects fresh write skew afterwards (bookkeeping retirement must not
  // lobotomize SSI).
  EXPECT_LE(db.engine().MaxVersionChainLength(), 5u);
  (void)db.Load("a", Value(int64_t{50}));
  (void)db.Load("b", Value(int64_t{50}));
  Transaction t1 = db.Begin();
  Transaction t2 = db.Begin();
  ASSERT_TRUE(t1.GetScalar("a").ok());
  ASSERT_TRUE(t1.GetScalar("b").ok());
  ASSERT_TRUE(t2.GetScalar("a").ok());
  ASSERT_TRUE(t2.GetScalar("b").ok());
  ASSERT_TRUE(t1.Put("a", Value(int64_t{-10})).ok());
  ASSERT_TRUE(t2.Put("b", Value(int64_t{-10})).ok());
  Status s1 = t1.Commit();
  Status s2 = t2.Commit();
  EXPECT_TRUE(s1.ok() != s2.ok())
      << "SSI must abort exactly one of the write-skew pair: " << s1.ToString()
      << " / " << s2.ToString();
}

TEST(SiGcTest, RetirementDropsEverySireadEntry) {
  DbOptions opts = WatermarkOptions(/*interval=*/4);
  opts.isolation = IsolationLevel::kSerializableSI;
  Database db(opts);
  const auto& engine =
      dynamic_cast<const SnapshotIsolationEngine&>(db.engine());
  for (int64_t k = 0; k < 8; ++k) {
    (void)db.Load("k" + std::to_string(k), Value(k));
  }
  const Predicate all = Predicate::Cmp("val", CompareOp::kGe, Value(int64_t{0}));
  Transaction open = db.Begin();
  ASSERT_TRUE(open.GetScalar("k0").ok());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      auto v = txn.GetScalar("k" + std::to_string(i % 8));
      if (!v.ok()) return v.status();
      if (i % 5 == 0) {
        auto rows = txn.GetWhere("P", all);
        if (!rows.ok()) return rows.status();
      }
      return txn.Put("k" + std::to_string((i + 3) % 8), Value(i));
    }).ok());
  }
  // The open reader pins the watermark: nothing that overlapped it retires.
  EXPECT_GT(engine.SireadEntryCount(), 0u);
  ASSERT_TRUE(open.Commit().ok());
  (void)db.GarbageCollectVersions();
  // Every reader ended at or below the watermark and retired, taking its
  // item and predicate SIREAD entries along.
  EXPECT_EQ(engine.SireadEntryCount(), 0u);
}

TEST(SiGcTest, LowIdBeginStillWorksAfterStateRetirement) {
  // A sharded global transaction can first touch a shard long after
  // higher-id single-shard transactions committed there and GC retired
  // their states.  Its (lower) id must still be accepted — retirement
  // must never refuse an id the engine has simply never seen.
  Database db(WatermarkOptions(/*interval=*/2));
  (void)db.Load("x", Value(int64_t{0}));
  // Reserve a low id for the "late-arriving cross-shard participant".
  const TxnId late_id = 500;
  for (TxnId t = late_id + 1; t <= late_id + 10; ++t) {
    auto txn = db.BeginWithId(t);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Put("x", Value(int64_t(t))).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_GT(db.engine().version_gc_stats().runs, 0u);  // retirement ran
  auto late = db.BeginWithId(late_id);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE(late->Put("x", Value(int64_t{-1})).ok());
  EXPECT_TRUE(late->Commit().ok());
}

TEST(RcGcTest, WatermarkModeBoundsReadConsistencyChains) {
  DbOptions opts(IsolationLevel::kOracleReadConsistency);
  opts.version_gc = VersionGcMode::kWatermark;
  opts.version_gc_interval = 8;
  Database db(opts);
  (void)db.Load("x", Value(int64_t{0}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      return txn.Put("x", Value(i));
    }).ok());
  }
  EXPECT_LE(db.engine().MaxVersionChainLength(), 9u);
  EXPECT_GT(db.engine().version_gc_stats().collected, 0u);
  auto t = db.Begin();
  auto v = t.GetScalar("x");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Equals(Value(int64_t{99})));
}

// Every pass of both multiversion engines, periodic or explicit, lands in
// the registered `engine.gc.pass_us` histogram.
uint64_t PassHistogramCount(Database& db) {
  for (const auto& sample : db.metrics().Collect()) {
    if (sample.name == "engine.gc.pass_us") return sample.histogram.count;
  }
  ADD_FAILURE() << "engine.gc.pass_us is not registered";
  return 0;
}

TEST(GcPassHistogramTest, TimesEveryPassOfBothMultiversionEngines) {
  for (IsolationLevel level : {IsolationLevel::kSnapshotIsolation,
                               IsolationLevel::kOracleReadConsistency}) {
    DbOptions opts = WatermarkOptions(/*interval=*/4);
    opts.isolation = level;
    Database db(opts);
    (void)db.Load("x", Value(int64_t{0}));
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(db.Execute([&](Transaction& txn) {
        return txn.Put("x", Value(i));
      }).ok());
    }
    (void)db.GarbageCollectVersions();
    const uint64_t runs = db.engine().version_gc_stats().runs;
    EXPECT_EQ(runs, 20u / 4 + 1) << IsolationLevelName(level);
    EXPECT_EQ(PassHistogramCount(db), runs) << IsolationLevelName(level);
  }
}

// --- facade-level low-watermark tracking ------------------------------------

TEST(DatabaseGcTest, OldestOpenSnapshotTracksSessions) {
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("x", Value(int64_t{0}));
  ASSERT_TRUE(db.OldestOpenSnapshot().has_value());

  Transaction t1 = db.Begin();
  Timestamp pinned = *db.OldestOpenSnapshot();
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Execute([&](Transaction& txn) {
      return txn.Put("x", Value(i));
    }).ok());
  }
  // t1 still open: the low-watermark must not have advanced past its
  // begin bound.
  EXPECT_EQ(*db.OldestOpenSnapshot(), pinned);
  ASSERT_TRUE(t1.Commit().ok());
  EXPECT_GT(*db.OldestOpenSnapshot(), pinned);
}

TEST(DatabaseGcTest, LockingEngineHasNoSnapshotsOrVersions) {
  Database db(IsolationLevel::kSerializable);
  (void)db.Load("x", Value(int64_t{0}));
  EXPECT_FALSE(db.OldestOpenSnapshot().has_value());
  EXPECT_EQ(db.VersionCount(), 0u);
  EXPECT_EQ(db.GarbageCollectVersions(), 0u);
}

TEST(ShardedGcTest, PerShardGcBoundsAggregateVersions) {
  ShardedDbOptions opts(/*shards=*/3, IsolationLevel::kSnapshotIsolation);
  opts.shard_options.version_gc = VersionGcMode::kWatermark;
  opts.shard_options.version_gc_interval = 8;
  ShardedDatabase db(opts);
  for (int64_t k = 0; k < 12; ++k) {
    (void)db.Load("acct" + std::to_string(k), Value(int64_t{100}));
  }
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(db.Execute([&](ShardedTransaction& txn) {
      return txn.Update("acct" + std::to_string(i % 12),
                        [](const std::optional<Row>& row) {
                          int64_t v = row.has_value()
                                          ? static_cast<int64_t>(
                                                *row->scalar().AsNumeric())
                                          : 0;
                          return Row::Scalar(Value(v + 1));
                        });
    }).ok());
  }
  EXPECT_TRUE(db.OldestOpenSnapshot().has_value());
  const size_t resident = db.VersionCountAggregate();
  // 150 committed updates across 12 items; per-shard epoch GC must keep
  // the aggregate near the item count, not the txn count.
  EXPECT_LE(resident, 12u + 3u * 8u);
  (void)db.GarbageCollectVersions();
  EXPECT_LE(db.VersionCountAggregate(), resident);
}

// --- concurrency: GC under live writers (TSan certifies) --------------------

TEST(GcConcurrencyTest, GcUnderConcurrentWritersIsSafe) {
  DbOptions opts = WatermarkOptions(/*interval=*/4);
  opts.mode = ConcurrencyMode::kBlocking;
  Database db(opts);
  const int64_t kItems = 8;
  for (int64_t k = 0; k < kItems; ++k) {
    (void)db.Load("k" + std::to_string(k), Value(int64_t{0}));
  }
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &committed, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Status s = db.Execute([&](Transaction& txn) {
          return txn.Put("k" + std::to_string((t * 3 + i) % kItems),
                         Value(int64_t{i}));
        });
        if (s.ok()) committed.fetch_add(1);
      }
    });
  }
  // A maintenance thread running explicit GC passes against the writers.
  std::thread gc([&db] {
    for (int i = 0; i < 50; ++i) {
      (void)db.GarbageCollectVersions();
      (void)db.OldestOpenSnapshot();
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  gc.join();

  // Client-side successes and engine-side commits must agree exactly
  // (a retry budget may legitimately exhaust under contention, so the
  // absolute count is ">= most", not "== all").
  const EngineStats stats = db.stats();
  EXPECT_EQ(stats.commits, committed.load());
  EXPECT_GE(committed.load(),
            static_cast<uint64_t>(kThreads * kTxnsPerThread * 3 / 4));
  EXPECT_LE(db.engine().MaxVersionChainLength(), 16u);
  // Every item still readable and scalar-valued.
  auto t = db.Begin();
  for (int64_t k = 0; k < kItems; ++k) {
    auto v = t.Get("k" + std::to_string(k));
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v->has_value());
  }
}

}  // namespace
}  // namespace critique
