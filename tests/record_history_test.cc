// History recording is opt-in (`DbOptions::record_history`).  Off, a
// database keeps no per-transaction state once a transaction finishes,
// and the online checker is fed exactly what it is fed while recording.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "critique/db/database.h"
#include "critique/exec/runner.h"

namespace critique {
namespace {

TEST(RecordHistoryTest, OffByDefaultAndReadsStayEmpty) {
  Database db(IsolationLevel::kSnapshotIsolation);
  EXPECT_FALSE(db.records_history());
  ASSERT_TRUE(db.Execute([](Transaction& t) { return t.Put("x", Value(1)); })
                  .ok());
  EXPECT_TRUE(db.history().empty());
  EXPECT_TRUE(db.HistorySnapshot().empty());
  EXPECT_EQ(db.stats().commits, 1u) << "counters count either way";
}

TEST(RecordHistoryTest, RunnerRefusesADatabaseThatDoesNotRecord) {
  // A phenomenon verdict on an empty history would pass vacuously.
  Database db(IsolationLevel::kSerializable);
  Runner runner(db);
  runner.AddProgram(1, Program().Read("x").Commit());
  auto run = runner.Run({1, 1});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsFailedPrecondition()) << run.status().ToString();
}

// --- retained heap per transaction -------------------------------------------

#if defined(__GLIBC__)
uint64_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return uint64_t(mi.uordblks) + uint64_t(mi.hblkhd);
}
#endif

// Heap growth per committed transfer across `kTxns` transfers, measured
// after a warm-up that lets every table reach its steady capacity.
double RetainedBytesPerTxn(Database& db) {
#if defined(__GLIBC__)
  constexpr int kItems = 64;
  constexpr int kWarmup = 2000;
  constexpr int kTxns = 20000;
  for (int i = 0; i < kItems; ++i) {
    EXPECT_TRUE(db.Load("k" + std::to_string(i), Value(int64_t{100})).ok());
  }
  Rng rng(7);
  auto transfer = [&] {
    const uint64_t a = rng.Uniform(kItems);
    const uint64_t b = (a + 1 + rng.Uniform(kItems - 1)) % kItems;
    const ItemId from = "k" + std::to_string(a);
    const ItemId to = "k" + std::to_string(b);
    EXPECT_TRUE(db.Execute([&](Transaction& t) -> Status {
                    CRITIQUE_ASSIGN_OR_RETURN(Value f, t.GetScalar(from));
                    CRITIQUE_ASSIGN_OR_RETURN(Value g, t.GetScalar(to));
                    CRITIQUE_RETURN_NOT_OK(t.Put(from, Value(f.AsInt() - 1)));
                    return t.Put(to, Value(g.AsInt() + 1));
                  }).ok());
  };
  for (int i = 0; i < kWarmup; ++i) transfer();
  const uint64_t commits0 = db.stats().commits;
  const uint64_t heap0 = HeapInUse();
  for (int i = 0; i < kTxns; ++i) transfer();
  const uint64_t heap1 = HeapInUse();
  const uint64_t commits = db.stats().commits - commits0;
  EXPECT_EQ(commits, uint64_t{kTxns});
  return (double(heap1) - double(heap0)) / double(commits);
#else
  (void)db;
  return 0;
#endif
}

// The bound: a few bytes of allocator noise per transaction, far below
// the kilobytes a recorded history (or an unretired transaction state)
// costs.
constexpr double kMaxRetainedBytesPerTxn = 64;

TEST(RetainedHeapTest, BlockingLockingSerializableKeepsNothingPerTxn) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "heap accounting needs glibc's mallinfo2";
#endif
  DbOptions opts(IsolationLevel::kSerializable);
  opts.mode = ConcurrencyMode::kBlocking;
  Database db(opts);
  EXPECT_LT(RetainedBytesPerTxn(db), kMaxRetainedBytesPerTxn);
}

TEST(RetainedHeapTest, CheckedSnapshotIsolationKeepsNothingPerTxn) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "heap accounting needs glibc's mallinfo2";
#endif
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.version_gc = VersionGcMode::kWatermark;
  opts.online_check = true;
  Database db(opts);
  EXPECT_LT(RetainedBytesPerTxn(db), kMaxRetainedBytesPerTxn);
}

// --- the checker feed does not depend on recording ---------------------------

struct FeedOutcome {
  check::CheckerReport report;
  EngineStats stats;
  size_t recorded_actions = 0;
};

// One seeded single-thread interleaving of `kTxns` short transactions
// over a few hot keys, at most four open at a time, each declaring one of
// `levels`.  Cooperative mode: a blocked step is simply retried on a
// later turn, and the engine resolves deadlocks by aborting a requester.
FeedOutcome RunInterleaving(IsolationLevel engine,
                            const std::vector<IsolationLevel>& levels,
                            bool record, uint64_t seed) {
  constexpr int kTxns = 240;
  constexpr int kKeys = 5;
  DbOptions opts(engine);
  opts.online_check = true;
  opts.online_check_prune_interval = 16;
  opts.record_history = record;
  Database db(opts);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(db.Load("k" + std::to_string(k), Value(int64_t{0})).ok());
  }

  struct Live {
    Transaction txn;
    int steps_left;
  };
  std::vector<Live> live;
  Rng rng(seed);
  int begun = 0;
  int64_t next_value = 1;
  while (begun < kTxns || !live.empty()) {
    const bool may_begin =
        live.empty() || (live.size() < 4 && rng.Chance(0.3));
    if (begun < kTxns && may_begin) {
      BeginOptions bo;
      bo.level = levels[rng.Uniform(levels.size())];
      Result<Transaction> t = db.Begin(bo);
      EXPECT_TRUE(t.ok()) << t.status().ToString();
      ++begun;
      if (t.ok()) {
        live.push_back({std::move(t).value(),
                        2 + static_cast<int>(rng.Uniform(4))});
      }
      continue;
    }
    const size_t i = rng.Uniform(live.size());
    Live& l = live[i];
    Status s;
    if (l.steps_left == 0) {
      s = rng.Chance(0.1) ? l.txn.Rollback() : l.txn.Commit();
    } else {
      const ItemId key = "k" + std::to_string(rng.Uniform(kKeys));
      if (rng.Chance(0.5)) {
        s = l.txn.Get(key).status();
      } else {
        s = l.txn.Put(key, Value(next_value++));
      }
    }
    if (s.IsWouldBlock()) continue;  // retried on a later turn
    --l.steps_left;
    if (!l.txn.active()) live.erase(live.begin() + static_cast<long>(i));
  }

  FeedOutcome out;
  out.report = db.checker()->Report();
  out.stats = db.StatsSnapshot();
  out.recorded_actions = db.history().size();
  return out;
}

void ExpectSameFeed(IsolationLevel engine,
                    const std::vector<IsolationLevel>& levels) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const FeedOutcome on = RunInterleaving(engine, levels, true, seed);
    const FeedOutcome off = RunInterleaving(engine, levels, false, seed);
    EXPECT_EQ(on.report.ToString(), off.report.ToString()) << "seed " << seed;
    EXPECT_EQ(on.report.aborts_observed, off.report.aborts_observed);
    EXPECT_EQ(on.stats.ToString(), off.stats.ToString()) << "seed " << seed;
    EXPECT_GT(on.report.commits_certified, 100u) << "seed " << seed;
    EXPECT_GT(on.recorded_actions, 0u);
    EXPECT_EQ(off.recorded_actions, 0u);
  }
}

TEST(CheckerFeedTest, MixedLevelSnapshotEngineFeedIsUnchanged) {
  ExpectSameFeed(IsolationLevel::kSerializableSI,
                 {IsolationLevel::kReadCommitted,
                  IsolationLevel::kSnapshotIsolation,
                  IsolationLevel::kSerializableSI});
}

TEST(CheckerFeedTest, OracleReadConsistencyFeedIsUnchanged) {
  ExpectSameFeed(IsolationLevel::kOracleReadConsistency,
                 {IsolationLevel::kOracleReadConsistency});
}

TEST(CheckerFeedTest, DirtyReadingLockingFeedIsUnchanged) {
  // Degree 0 and Read Uncommitted read uncommitted writes: the checker
  // infers each read's creator from the single-version action order.
  ExpectSameFeed(IsolationLevel::kDegree0,
                 {IsolationLevel::kDegree0, IsolationLevel::kReadUncommitted});
  const FeedOutcome run = RunInterleaving(
      IsolationLevel::kDegree0,
      {IsolationLevel::kDegree0, IsolationLevel::kReadUncommitted}, false, 1);
  EXPECT_GT(run.report.dirty_reads_allowed, 0u)
      << "the interleaving must exercise dirty-read inference";
}

}  // namespace
}  // namespace critique
