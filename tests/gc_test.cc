// Version garbage collection: watermark semantics, RetainAll time-travel
// exactness, the kWatermark floor refusal, Database/ShardedDatabase
// low-watermark tracking, bounded chains under churn, and GC under
// concurrent writers (run under --tsan for the data-race certificate).

#include <gtest/gtest.h>

#include <atomic>
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
