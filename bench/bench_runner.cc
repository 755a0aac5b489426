// Substrate bench: the execution layer — schedule replay cost, program
// step dispatch, drain overhead, and history recording, across engines.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/exec/runner.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

void BM_ReplayH1Schedule(benchmark::State& state) {
  // Cost of replaying the paper's H1 interleaving end to end.
  for (auto _ : state) {
    DbOptions db_options(IsolationLevel::kReadCommitted);
    db_options.record_history = true;  // the Runner judges the history
    Database db(db_options);
    (void)db.Load("x", Value(50));
    (void)db.Load("y", Value(50));
    Runner runner(db);
    Program t1;
    t1.Read("x")
        .WriteComputed("x",
                       [](const TxnLocals& l) {
                         return Value(l.GetInt("x") - 40);
                       })
        .Read("y")
        .WriteComputed("y",
                       [](const TxnLocals& l) {
                         return Value(l.GetInt("y") + 40);
                       })
        .Commit();
    Program t2;
    t2.Read("x").Read("y").Commit();
    runner.AddProgram(1, std::move(t1));
    runner.AddProgram(2, std::move(t2));
    benchmark::DoNotOptimize(runner.Run(ParseSchedule("1 1 2 2 2 1 1 1")));
  }
}
BENCHMARK(BM_ReplayH1Schedule);

void BM_ManyTransactionsRoundRobin(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    DbOptions db_options(IsolationLevel::kSnapshotIsolation);
    db_options.record_history = true;  // the Runner judges the history
    Database db(db_options);
    WorkloadOptions opts;
    opts.num_items = 32;
    WorkloadGenerator gen(opts);
    (void)gen.LoadInitial(db);
    Rng rng(7);
    Runner runner(db);
    for (int t = 1; t <= txns; ++t) {
      runner.AddProgram(t, gen.MakeTransferTxn(rng, 1));
    }
    auto schedule = runner.RoundRobinSchedule();
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.Run(schedule));
  }
  state.SetItemsProcessed(state.iterations() * txns);
}
BENCHMARK(BM_ManyTransactionsRoundRobin)->Arg(4)->Arg(16)->Arg(64);

void BM_ScheduleGeneration(benchmark::State& state) {
  DbOptions db_options(IsolationLevel::kSnapshotIsolation);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  WorkloadOptions opts;
  WorkloadGenerator gen(opts);
  Rng rng(7);
  Runner runner(db);
  for (int t = 1; t <= 16; ++t) {
    runner.AddProgram(t, gen.MakeTransferTxn(rng, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.RandomSchedule(rng));
  }
}
BENCHMARK(BM_ScheduleGeneration);

void BM_HistoryRecordingOverhead(benchmark::State& state) {
  // Session read-path cost: facade dispatch + engine op + history append.
  DbOptions db_options(IsolationLevel::kSnapshotIsolation);
  db_options.record_history = true;  // the cost this bench measures
  Database db(db_options);
  (void)db.Load("x", Value(1));
  Transaction txn = db.Begin();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn.Get("x"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryRecordingOverhead);

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  std::printf("==== Substrate bench: execution runner ====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
