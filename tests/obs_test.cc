// The observability layer, held to its own standard: exact numbers.
//
//  * Counter / Histogram: sharded relaxed-atomic recording from N threads
//    must reconcile *exactly* after join — sum, count, max, and bucket
//    totals, not approximately.  (Run under `check.sh --tsan` like the
//    rest of the suite: the sharding discipline must also be race-free.)
//  * MetricsRegistry: export round-trip (JSON + text), prefix unregister.
//  * TxnTracer: the ring keeps the newest `capacity` events, counts what
//    it dropped, and tags aborts with the paper-taxonomy reason — the SSI
//    dangerous-structure test drives a real Cahill pivot through the SSI
//    engine and reads the reason back off the completer's trace.
//  * EngineStats: the serialization-abort split (fcw / ssi / in-doubt)
//    must sum back to the aggregate it breaks down.
//  * Database::DebugDump: a session wedged on a lock conflict must name
//    its blocker and the waits-for edge, deterministically.
//  * TxnCoordinator gauges: `coord.pending_ends` counts the committed
//    decisions still waiting for their participants' commit records to
//    become durable, and drops to 0 once the shard logs sync.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/obs/metrics.h"
#include "critique/obs/txn_trace.h"
#include "critique/shard/sharded_database.h"

namespace critique {
namespace {

using obs::AbortReason;
using obs::TraceEventType;

// ---------------------------------------------------------------------------
// Counter / Histogram exact reconciliation
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, CounterReconcilesExactlyAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
      c.Add(5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * (kPerThread + 5));
}

TEST(ObsMetricsTest, HistogramReconcilesExactlyAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t v = 0; v < kPerThread; ++v) h.Record(v);
    });
  }
  for (auto& t : threads) t.join();

  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.sum, kThreads * (kPerThread * (kPerThread - 1) / 2));
  EXPECT_EQ(s.max, kPerThread - 1);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  // Percentiles are conservative: never below the true rank value, at
  // most one power of two above it, and clamped to the recorded max.
  EXPECT_LE(s.Percentile(50), s.Percentile(99));
  EXPECT_LE(s.Percentile(100), s.max);
  EXPECT_GE(s.Percentile(50), kPerThread / 2 - 1);
}

TEST(ObsMetricsTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);
  // Clamp: values beyond the last bucket's range land in the last bucket.
  EXPECT_EQ(obs::Histogram::BucketOf(~uint64_t{0}),
            obs::Histogram::kBuckets - 1);
}

TEST(ObsMetricsTest, DisabledMetricsRecordNothing) {
  obs::Counter c;
  obs::Histogram h;
  obs::SetMetricsEnabled(false);
  c.Add(7);
  h.Record(7);
  { obs::ScopedTimer t(h); }
  obs::SetMetricsEnabled(true);  // restore the shipping state first
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);  // re-enabling re-arms the same instrument
}

// ---------------------------------------------------------------------------
// MetricsRegistry export
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, RegistryExportsAndUnregistersByPrefix) {
  obs::MetricsRegistry reg;
  obs::Counter c;
  obs::Histogram h;
  c.Add(3);
  h.Record(9);
  reg.RegisterCounter("a.count", &c);
  reg.RegisterHistogram("a.lat_us", &h);
  reg.RegisterGauge("b.gauge", [] { return uint64_t{42}; });

  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.lat_us\""), std::string::npos) << json;
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("a.count: 3"), std::string::npos) << text;

  // Collect() is sorted by name, so exports are diffable run to run.
  const auto samples = reg.Collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.count");
  EXPECT_EQ(samples[1].name, "a.lat_us");
  EXPECT_EQ(samples[2].name, "b.gauge");

  reg.Unregister("a.");
  const auto rest = reg.Collect();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].name, "b.gauge");
}

// ---------------------------------------------------------------------------
// TxnTracer ring semantics
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, RingKeepsNewestEventsAndCountsDropped) {
  obs::TxnTracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    tracer.Record(1, TraceEventType::kOp, AbortReason::kNone,
                  "op" + std::to_string(i));
  }
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.Dump(1);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().detail, "op2");  // the two oldest fell out
  EXPECT_EQ(events.back().detail, "op5");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(tracer.Dump(2).size(), 0u);  // other transactions unaffected
  EXPECT_NE(tracer.Format(2).find("no events"), std::string::npos);
}

TEST(ObsTraceTest, AbortReasonsRenderInThePaperTaxonomy) {
  EXPECT_EQ(obs::AbortReasonName(AbortReason::kFirstCommitterWins),
            "first-committer-wins");
  EXPECT_EQ(obs::AbortReasonName(AbortReason::kSsiDangerousStructure),
            "ssi-dangerous-structure");
  EXPECT_EQ(obs::AbortReasonName(AbortReason::kDeadlockVictim),
            "deadlock-victim");
  EXPECT_EQ(obs::AbortReasonName(AbortReason::kInDoubtDecision),
            "in-doubt-decision");
}

// ---------------------------------------------------------------------------
// Database wiring: registry, tracer tagging, the abort split
// ---------------------------------------------------------------------------

TEST(ObsDatabaseTest, EngineMetricsRegisteredUnderEnginePrefix) {
  Database db{DbOptions(IsolationLevel::kSnapshotIsolation)};
  ASSERT_TRUE(db.Load("x", Row::Scalar(Value(int64_t{1}))).ok());
  Transaction t = db.Begin();
  ASSERT_TRUE(t.Put("x", Value(int64_t{2})).ok());
  ASSERT_TRUE(t.Commit().ok());
  const std::string json = db.metrics().ToJson();
  EXPECT_NE(json.find("\"engine.commits\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("engine.pipeline.validate_us"), std::string::npos)
      << json;
  EXPECT_EQ(db.tracer(), nullptr);  // tracing is opt-in, off by default
}

TEST(ObsDatabaseTest, FirstCommitterWinsAbortIsTaggedAndSplit) {
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.trace_events = 256;
  Database db(opts);
  ASSERT_TRUE(db.Load("x", Row::Scalar(Value(int64_t{0}))).ok());

  auto t1 = db.BeginWithId(1);
  auto t2 = db.BeginWithId(2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(t1->Put("x", Value(int64_t{1})).ok());
  ASSERT_TRUE(t1->Commit().ok());
  // T2's snapshot predates T1's commit, so the overlapping write is
  // accepted optimistically and First-Committer-Wins refuses T2 at its
  // own commit, where the timestamp probe sees T1 inside T2's interval.
  ASSERT_TRUE(t2->Put("x", Value(int64_t{2})).ok());
  Status s = t2->Commit();
  ASSERT_TRUE(s.IsSerializationFailure()) << s.ToString();

  const EngineStats stats = db.stats();
  EXPECT_EQ(stats.serialization_aborts, 1u);
  EXPECT_EQ(stats.fcw_aborts, 1u);
  EXPECT_EQ(stats.ssi_aborts, 0u);
  EXPECT_EQ(stats.in_doubt_aborts, 0u);

  ASSERT_NE(db.tracer(), nullptr);
  const auto events = db.tracer()->Dump(2);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, TraceEventType::kAbort);
  EXPECT_EQ(events.back().reason, AbortReason::kFirstCommitterWins);
}

TEST(ObsDatabaseTest, SsiDangerousStructureAbortIsTaggedAndSplit) {
  // The Cahill dangerous structure T1 -rw-> T2 -rw-> T3 with T3 committed
  // first and T2 the pivot (the ssi_escape_test shape, driven through the
  // facade): the in-edge forms after the pivot committed, so the
  // completer T1 must abort at its own commit — and the trace must say
  // *why* in the paper's vocabulary.
  DbOptions opts(IsolationLevel::kSerializableSI);
  opts.trace_events = 256;
  Database db(opts);
  ASSERT_TRUE(db.Load("x", Row::Scalar(Value(int64_t{0}))).ok());
  ASSERT_TRUE(db.Load("y", Row::Scalar(Value(int64_t{0}))).ok());

  auto t3 = db.BeginWithId(3);
  auto t2 = db.BeginWithId(2);
  ASSERT_TRUE(t3.ok() && t2.ok());
  ASSERT_TRUE(t2->Get("x").ok());                       // T2 -rw-> T3 source
  ASSERT_TRUE(t3->Put("x", Value(int64_t{1})).ok());
  ASSERT_TRUE(t3->Commit().ok());                       // T3 commits first
  ASSERT_TRUE(t2->Put("y", Value(int64_t{1})).ok());
  auto t1 = db.BeginWithId(1);                          // snapshot < T2 commit
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2->Commit().ok());                       // the pivot commits

  auto y = t1->Get("y");                                // forms T1 -rw-> T2
  ASSERT_TRUE(y.ok());
  ASSERT_TRUE(t1->Get("x").ok());                       // closes the cycle
  Status c1 = t1->Commit();
  ASSERT_TRUE(c1.IsSerializationFailure()) << c1.ToString();

  const EngineStats stats = db.stats();
  EXPECT_EQ(stats.serialization_aborts, 1u);
  EXPECT_EQ(stats.ssi_aborts, 1u);
  EXPECT_EQ(stats.fcw_aborts, 0u);
  EXPECT_EQ(stats.in_doubt_aborts, 0u);
  // The split is a breakdown, never a second ledger.
  EXPECT_EQ(stats.fcw_aborts + stats.ssi_aborts + stats.in_doubt_aborts,
            stats.serialization_aborts);

  ASSERT_NE(db.tracer(), nullptr);
  const auto events = db.tracer()->Dump(1);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, TraceEventType::kAbort);
  EXPECT_EQ(events.back().reason, AbortReason::kSsiDangerousStructure);
  EXPECT_NE(db.tracer()->Format(1).find("ssi-dangerous-structure"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Stall introspection
// ---------------------------------------------------------------------------

TEST(ObsDatabaseTest, DebugDumpNamesBlockerAndWaitsForEdge) {
  // Deterministic wedge: T1 holds the X lock on "k"; T2's write answers
  // kWouldBlock (cooperative mode, manual sessions — nothing retries or
  // parks a thread).  The dump must name the holder, the waiter, and the
  // T2 -> T1 edge while both sessions are still open.
  DbOptions opts(IsolationLevel::kSerializable);
  opts.mode = ConcurrencyMode::kCooperative;
  Database db(opts);
  ASSERT_TRUE(db.Load("k", Row::Scalar(Value(int64_t{0}))).ok());

  auto t1 = db.BeginWithId(1);
  auto t2 = db.BeginWithId(2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(t1->Put("k", Value(int64_t{1})).ok());
  Status s = t2->Put("k", Value(int64_t{2}));
  ASSERT_TRUE(s.IsWouldBlock()) << s.ToString();

  const std::string dump = db.DebugDump();
  EXPECT_NE(dump.find("open transactions: 2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("T1 holds X on item 'k'"), std::string::npos) << dump;
  EXPECT_NE(dump.find("T2 -> T1"), std::string::npos) << dump;

  ASSERT_TRUE(t2->Rollback().ok());
  ASSERT_TRUE(t1->Commit().ok());
  // Quiescent again: the wedge must leave nothing behind in the dump.
  const std::string after = db.DebugDump();
  EXPECT_NE(after.find("open transactions: 0"), std::string::npos) << after;
  EXPECT_NE(after.find("waits-for edges (0)"), std::string::npos) << after;
}

// ---------------------------------------------------------------------------
// 2PC coordinator gauges
// ---------------------------------------------------------------------------

TEST(ObsCoordinatorTest, PendingEndsGaugeCountsDecisionsAwaitingDurability) {
  const std::string dir = testing::TempDir() + "critique_obs_pending_ends";
  std::filesystem::remove_all(dir);
  ShardedDbOptions opt(2, IsolationLevel::kSerializable);
  opt.wal_dir = dir;
  ShardedDatabase db(opt);
  obs::MetricsRegistry reg;
  db.coordinator().RegisterMetrics(reg, "coord.");
  EXPECT_NE(reg.ToJson().find("\"coord.pending_ends\":0"), std::string::npos);

  ItemId x, y;
  for (int i = 0; x.empty() || y.empty(); ++i) {
    const ItemId id = "k" + std::to_string(i);
    if (db.ShardOf(id) == 0 && x.empty()) x = id;
    if (db.ShardOf(id) == 1 && y.empty()) y = id;
  }
  ASSERT_TRUE(db.Load(x, Value(int64_t{1})).ok());
  ASSERT_TRUE(db.Load(y, Value(int64_t{1})).ok());
  ASSERT_TRUE(db.Execute([&](ShardedTransaction& t) -> Status {
                  CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(int64_t{2})));
                  return t.Put(y, Value(int64_t{2}));
                }).ok());

  // Committed and acked, but neither participant's commit record has
  // synced: the decision waits for its kDecisionEnd.
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"coord.pending_ends\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"coord.committed\":1"), std::string::npos) << json;

  for (int s = 0; s < db.num_shards(); ++s) {
    ASSERT_TRUE(db.shard(s).wal()->SyncAll().ok());
  }
  db.coordinator().CloseCoveredDecisions();
  json = reg.ToJson();
  EXPECT_NE(json.find("\"coord.pending_ends\":0"), std::string::npos) << json;
}

TEST(ObsCoordinatorTest, PendingEndsGaugeStaysZeroWithoutADecisionLog) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  obs::MetricsRegistry reg;
  db.coordinator().RegisterMetrics(reg, "coord.");
  ItemId x, y;
  for (int i = 0; x.empty() || y.empty(); ++i) {
    const ItemId id = "k" + std::to_string(i);
    if (db.ShardOf(id) == 0 && x.empty()) x = id;
    if (db.ShardOf(id) == 1 && y.empty()) y = id;
  }
  ASSERT_TRUE(db.Execute([&](ShardedTransaction& t) -> Status {
                  CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(int64_t{2})));
                  return t.Put(y, Value(int64_t{2}));
                }).ok());
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"coord.committed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"coord.pending_ends\":0"), std::string::npos) << json;
}

}  // namespace
}  // namespace critique
