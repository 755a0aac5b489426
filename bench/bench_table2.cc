// Reproduces Table 2 (locking isolation levels defined by lock scope and
// duration) and benchmarks the lock scheduler itself: per-level lock
// traffic on a fixed probe workload, plus micro-costs of the lock manager
// paths the policies exercise.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/engine/locking_engine.h"
#include "critique/exec/runner.h"
#include "critique/harness/report.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

const IsolationLevel kLockingLevels[] = {
    IsolationLevel::kDegree0,        IsolationLevel::kReadUncommitted,
    IsolationLevel::kReadCommitted,  IsolationLevel::kCursorStability,
    IsolationLevel::kRepeatableRead, IsolationLevel::kSerializable,
};

// Runs a fixed transfer+audit workload and reports the lock traffic each
// policy generates — the observable face of Table 2's durations.
void PrintLockTraffic() {
  std::printf("Lock traffic of a fixed workload (4 transfers + 1 audit, "
              "8 items, seed 1):\n");
  std::printf("%-36s %10s %10s %10s %10s\n", "Level", "acquired", "blocked",
              "deadlocks", "held@end");
  for (IsolationLevel level : kLockingLevels) {
    // The locking engine is plugged in through the SPI so its lock stats
    // stay reachable behind the facade.
    DbOptions options;
    options.engine_factory = [level] {
      return std::make_unique<LockingEngine>(level);
    };
    options.record_history = true;  // the Runner judges the history
    Database db(options);
    WorkloadOptions opts;
    opts.num_items = 8;
    WorkloadGenerator gen(opts);
    if (!gen.LoadInitial(db).ok()) continue;
    Rng rng(1);
    Runner runner(db);
    for (int t = 1; t <= 4; ++t) {
      runner.AddProgram(t, gen.MakeTransferTxn(rng, 5));
    }
    runner.AddProgram(5, gen.MakeAuditTxn());
    auto result = runner.Run(runner.RandomSchedule(rng));
    if (!result.ok()) {
      std::printf("%-36s RUN ERROR: %s\n", IsolationLevelName(level).c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    LockStats ls = static_cast<LockingEngine&>(db.engine()).lock_stats();
    std::printf("%-36s %10llu %10llu %10llu %10llu\n",
                IsolationLevelName(level).c_str(),
                static_cast<unsigned long long>(ls.acquired),
                static_cast<unsigned long long>(ls.blocked),
                static_cast<unsigned long long>(ls.deadlocks),
                static_cast<unsigned long long>(ls.acquired - ls.released));
  }
  std::printf("\n");
}

// Shared bootstrap for the raw-SPI micro benches below (the workload
// generator's LoadInitial speaks to the facade, not raw engines).
void LoadItems(Engine& engine, uint64_t n) {
  WorkloadOptions defaults;
  for (uint64_t k = 0; k < n; ++k) {
    (void)engine.Load(WorkloadGenerator::ItemName(k),
                      Row::Scalar(Value(defaults.initial_balance)));
  }
}

void BM_EngineReadPath(benchmark::State& state) {
  // Raw SPI path (no facade): the substrate cost the session API wraps.
  IsolationLevel level = kLockingLevels[state.range(0)];
  LockingEngine engine(level);
  LoadItems(engine, 64);
  (void)engine.Begin(1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Read(1, WorkloadGenerator::ItemName(rng.Uniform(64))));
  }
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_EngineReadPath)->DenseRange(0, 5);

void BM_EngineWritePath(benchmark::State& state) {
  IsolationLevel level = kLockingLevels[state.range(0)];
  LockingEngine engine(level);
  LoadItems(engine, 64);
  (void)engine.Begin(1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Write(
        1, WorkloadGenerator::ItemName(rng.Uniform(64)),
        Row::Scalar(Value(static_cast<int64_t>(rng.Uniform(1000))))));
  }
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_EngineWritePath)->DenseRange(0, 5);

void BM_CommitWithLockRelease(benchmark::State& state) {
  // Cost of commit as a function of held long locks.
  const int64_t locks = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    LockingEngine engine(IsolationLevel::kSerializable);
    for (int64_t k = 0; k < locks; ++k) {
      (void)engine.Load(WorkloadGenerator::ItemName(k),
                        Row::Scalar(Value(0)));
    }
    (void)engine.Begin(1);
    for (int64_t k = 0; k < locks; ++k) {
      (void)engine.Read(1, WorkloadGenerator::ItemName(k));
    }
    state.ResumeTiming();
    (void)engine.Commit(1);
  }
}
BENCHMARK(BM_CommitWithLockRelease)->Arg(4)->Arg(32)->Arg(256);

void BM_FullTransferWorkload(benchmark::State& state) {
  IsolationLevel level = kLockingLevels[state.range(0)];
  for (auto _ : state) {
    state.PauseTiming();
    DbOptions options;
    options.engine_factory = [level] {
      return std::make_unique<LockingEngine>(level);
    };
    options.record_history = true;  // the Runner judges the history
    Database db(options);
    WorkloadOptions opts;
    opts.num_items = 16;
    WorkloadGenerator gen(opts);
    (void)gen.LoadInitial(db);
    Rng rng(11);
    Runner runner(db);
    for (int t = 1; t <= 8; ++t) {
      runner.AddProgram(t, gen.MakeTransferTxn(rng, 3));
    }
    auto schedule = runner.RandomSchedule(rng);
    state.ResumeTiming();
    auto result = runner.Run(schedule);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_FullTransferWorkload)->DenseRange(0, 5);

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  std::printf("==== Table 2 reproduction (locking isolation levels) ====\n\n");
  std::printf("%s\n", critique::RenderTable2().c_str());
  critique::PrintLockTraffic();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
