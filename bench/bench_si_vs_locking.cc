// Section 4.2's concurrency claims, measured:
//
//   "A transaction running in Snapshot Isolation is never blocked
//    attempting a read ... it never blocks read-only transactions, and
//    readers do not block updates."
//
// The experiment runs the same transfer+audit workload under each engine
// and reports (a) blocked-operation counts for readers and writers and
// (b) wall-clock throughput of the interleaved execution.  The paper's
// predicted *shape*: SI shows zero reader blocking at every contention
// level, while locking levels block more as read locks lengthen
// (RC < RR < SERIALIZABLE); SI's cost surfaces as serialization aborts
// instead.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/exec/runner.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

const IsolationLevel kLevels[] = {
    IsolationLevel::kReadCommitted,     IsolationLevel::kRepeatableRead,
    IsolationLevel::kSerializable,      IsolationLevel::kSnapshotIsolation,
    IsolationLevel::kSerializableSI,    IsolationLevel::kOracleReadConsistency,
};

struct MixResult {
  uint64_t blocked = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t serialization_aborts = 0;
  int committed = 0;
  int total = 0;
};

MixResult RunMix(IsolationLevel level, uint64_t seed, int writers,
                 int readers, uint64_t items, double theta) {
  DbOptions db_options(level);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  WorkloadOptions opts;
  opts.num_items = items;
  opts.zipf_theta = theta;
  WorkloadGenerator gen(opts);
  (void)gen.LoadInitial(db);
  Rng rng(seed);
  Runner runner(db);
  int t = 1;
  for (int w = 0; w < writers; ++w) {
    runner.AddProgram(t++, gen.MakeTransferTxn(rng, 3));
  }
  for (int r = 0; r < readers; ++r) {
    runner.AddProgram(t++, gen.MakeAuditTxn());
  }
  auto result = runner.Run(runner.RandomSchedule(rng));
  MixResult out;
  if (!result.ok()) return out;
  out.blocked = result->blocked_retries;
  out.deadlock_aborts = db.stats().deadlock_aborts;
  out.serialization_aborts = db.stats().serialization_aborts;
  for (const auto& [txn, o] : result->outcomes) {
    (void)txn;
    ++out.total;
    out.committed += o == TxnOutcome::kCommitted;
  }
  return out;
}

void PrintBlockingTable() {
  std::printf(
      "Reader/writer interference, 6 transfers + 4 whole-table audits,\n"
      "8 items, zipf 0.9, 40 seeds (totals across seeds):\n\n");
  std::printf("%-36s %10s %10s %10s %12s\n", "Level", "blocked",
              "deadlocks", "ser-aborts", "committed");
  for (IsolationLevel level : kLevels) {
    MixResult total;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      MixResult r = RunMix(level, seed, 6, 4, 8, 0.9);
      total.blocked += r.blocked;
      total.deadlock_aborts += r.deadlock_aborts;
      total.serialization_aborts += r.serialization_aborts;
      total.committed += r.committed;
      total.total += r.total;
    }
    std::printf("%-36s %10llu %10llu %10llu %7d/%d\n",
                IsolationLevelName(level).c_str(),
                static_cast<unsigned long long>(total.blocked),
                static_cast<unsigned long long>(total.deadlock_aborts),
                static_cast<unsigned long long>(total.serialization_aborts),
                total.committed, total.total);
  }
  std::printf(
      "\nExpected shape (paper): the SI rows show 0 blocked operations —\n"
      "readers never block and never block writers; locking rows block\n"
      "increasingly with longer read locks and resolve conflicts by\n"
      "deadlock aborts, SI by serialization aborts.\n\n");
}

void BM_TransferAuditMix(benchmark::State& state) {
  IsolationLevel level = kLevels[state.range(0)];
  uint64_t seed = 1;
  uint64_t ops = 0;
  for (auto _ : state) {
    MixResult r = RunMix(level, seed++, 6, 4, 8, 0.9);
    benchmark::DoNotOptimize(r);
    ops += static_cast<uint64_t>(r.total);
  }
  state.counters["txns_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_TransferAuditMix)->DenseRange(0, 5);

void BM_ReadOnlyUnderWriteLoad(benchmark::State& state) {
  // Latency of a whole-table audit while transfers run, per level.
  IsolationLevel level = kLevels[state.range(0)];
  uint64_t seed = 100;
  for (auto _ : state) {
    MixResult r = RunMix(level, seed++, 8, 1, 8, 0.9);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_ReadOnlyUnderWriteLoad)->DenseRange(0, 5);

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  std::printf("==== Section 4.2: SI vs locking — reader/writer blocking "
              "====\n\n");
  critique::PrintBlockingTable();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
