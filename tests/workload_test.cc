// Workload generator tests: Zipf distribution shape, program construction,
// and the invariant helpers used by the benchmark harness.

#include <gtest/gtest.h>

#include <map>

#include "critique/db/database.h"
#include "critique/exec/runner.h"
#include "critique/workload/workload.h"
#include "critique/workload/zipf.h"

namespace critique {
namespace {

// Options for a database whose history the test judges (through a
// Runner, which refuses databases that do not record).
DbOptions Recording(IsolationLevel level) {
  DbOptions options(level);
  options.record_history = true;
  return options;
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(7);
  std::map<uint64_t, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Next(rng)]++;
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_GT(counts[k], kDraws / 10 / 2) << "key " << k;
    EXPECT_LT(counts[k], kDraws / 10 * 2) << "key " << k;
  }
}

TEST(ZipfTest, SkewFavorsLowKeys) {
  ZipfGenerator zipf(100, 0.99);
  Rng rng(7);
  std::map<uint64_t, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Next(rng)]++;
  // Key 0 must dominate key 50 heavily under theta=0.99.
  EXPECT_GT(counts[0], 10 * std::max(counts[50], 1));
}

TEST(ZipfTest, BoundsRespected) {
  ZipfGenerator zipf(5, 0.5);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(rng), 5u);
}

TEST(WorkloadTest, LoadInitialPopulatesItems) {
  WorkloadOptions opts;
  opts.num_items = 8;
  opts.initial_balance = 25;
  WorkloadGenerator gen(opts);
  Database db(IsolationLevel::kSerializable);
  ASSERT_TRUE(gen.LoadInitial(db).ok());
  EXPECT_EQ(WorkloadGenerator::TotalBalance(db, 8), 8 * 25);
}

TEST(WorkloadTest, TransferPreservesTotalWhenSerial) {
  WorkloadOptions opts;
  opts.num_items = 4;
  WorkloadGenerator gen(opts);
  Database db(Recording(IsolationLevel::kSerializable));
  ASSERT_TRUE(gen.LoadInitial(db).ok());
  Rng rng(11);
  Runner runner(db);
  runner.AddProgram(1, gen.MakeTransferTxn(rng, 10));
  runner.AddProgram(2, gen.MakeTransferTxn(rng, 5));
  auto result = runner.Run(runner.RoundRobinSchedule());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(WorkloadGenerator::TotalBalance(db, 4), 4 * 100);
}

TEST(WorkloadTest, AuditComputesSum) {
  WorkloadOptions opts;
  opts.num_items = 3;
  opts.initial_balance = 7;
  WorkloadGenerator gen(opts);
  Database db(Recording(IsolationLevel::kSnapshotIsolation));
  ASSERT_TRUE(gen.LoadInitial(db).ok());
  Runner runner(db);
  runner.AddProgram(1, gen.MakeAuditTxn());
  auto result = runner.Run(runner.RoundRobinSchedule());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->locals.at(1).GetInt("sum"), 21);
}

TEST(WorkloadTest, MixedTxnDeterministicInSeed) {
  WorkloadOptions opts;
  opts.num_items = 16;
  WorkloadGenerator gen(opts);
  Rng a(99), b(99);
  Program pa = gen.MakeMixedTxn(a);
  Program pb = gen.MakeMixedTxn(b);
  EXPECT_EQ(pa.size(), pb.size());
}

TEST(WorkloadTest, UpdateTxnTouchesDistinctItems) {
  WorkloadOptions opts;
  opts.num_items = 32;
  WorkloadGenerator gen(opts);
  Rng rng(5);
  // ops reads + ops writes + commit.
  Program p = gen.MakeUpdateTxn(rng, 6);
  EXPECT_EQ(p.size(), 6 * 2 + 1);
}

TEST(WorkloadTest, ReadOnlyTxnHasNoWrites) {
  WorkloadOptions opts;
  opts.num_items = 8;
  WorkloadGenerator gen(opts);
  Database db(Recording(IsolationLevel::kSnapshotIsolation));
  ASSERT_TRUE(gen.LoadInitial(db).ok());
  Rng rng(5);
  Runner runner(db);
  runner.AddProgram(1, gen.MakeReadOnlyTxn(rng, 5));
  auto result = runner.Run(runner.RoundRobinSchedule());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(db.stats().writes, 0u);
  EXPECT_EQ(db.stats().reads, 5u);
}

}  // namespace
}  // namespace critique
