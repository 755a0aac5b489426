// Reproduces Table 3 (the corrected, P0-inclusive phenomena matrix) and
// mechanically verifies Remark 6: the phenomena-based definitions and the
// locking scheduler behaviours coincide.  For each locking level, random
// transfer workloads are executed and the recorded histories are checked
// against the level's forbidden-phenomena row — the locking engine must
// never produce a history its Table 3 row forbids.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "critique/analysis/ansi_levels.h"
#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/exec/runner.h"
#include "critique/harness/report.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

struct LevelRow {
  IsolationLevel engine_level;
  AnsiLevel table3_level;
};

const LevelRow kRows[] = {
    {IsolationLevel::kReadUncommitted, AnsiLevel::kReadUncommitted},
    {IsolationLevel::kReadCommitted, AnsiLevel::kReadCommitted},
    {IsolationLevel::kRepeatableRead, AnsiLevel::kRepeatableRead},
    {IsolationLevel::kSerializable, AnsiLevel::kSerializable},
};

// One random run at `level`; returns the recorded history.
History RunOnce(IsolationLevel level, uint64_t seed) {
  DbOptions db_options(level);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  WorkloadOptions opts;
  opts.num_items = 6;
  opts.zipf_theta = 0.8;
  WorkloadGenerator gen(opts);
  (void)gen.LoadInitial(db);
  Rng rng(seed);
  Runner runner(db);
  for (int t = 1; t <= 5; ++t) {
    runner.AddProgram(t, gen.MakeTransferTxn(rng, 2));
  }
  auto result = runner.Run(runner.RandomSchedule(rng));
  return result.ok() ? result->history : History();
}

void PrintRemark6Verification() {
  std::printf(
      "Remark 6 verification: 200 random runs per locking level; the\n"
      "recorded histories must exhibit NONE of the phenomena the matching\n"
      "Table 3 row forbids.\n\n");
  std::printf("%-36s %-28s %s\n", "Engine", "forbidden (Table 3)",
              "violations/runs");
  bool all_ok = true;
  for (const LevelRow& row : kRows) {
    auto forbidden = ForbiddenPhenomena(
        row.table3_level, AnsiInterpretation::kBroad, AnsiTable::kTable3);
    std::string flist;
    for (Phenomenon p : forbidden) {
      if (!flist.empty()) flist += ",";
      flist += PhenomenonName(p);
    }
    int violations = 0;
    const int kRuns = 200;
    for (uint64_t seed = 1; seed <= kRuns; ++seed) {
      History h = RunOnce(row.engine_level, seed);
      for (Phenomenon p : forbidden) {
        if (Exhibits(h, p)) {
          ++violations;
          break;
        }
      }
    }
    all_ok &= violations == 0;
    std::printf("%-36s %-28s %d/%d\n",
                IsolationLevelName(row.engine_level).c_str(), flist.c_str(),
                violations, kRuns);
  }
  std::printf("\n%s\n\n", all_ok
                              ? "Remark 6 HOLDS: locking == phenomena-based "
                                "definitions on every sampled run."
                              : "Remark 6 VIOLATED (see above).");
}

void BM_RandomRunWithPhenomenaAudit(benchmark::State& state) {
  IsolationLevel level = kRows[state.range(0)].engine_level;
  uint64_t seed = 1;
  for (auto _ : state) {
    History h = RunOnce(level, seed++);
    benchmark::DoNotOptimize(ExhibitedPhenomena(h));
  }
  state.SetLabel(IsolationLevelName(level));
}
BENCHMARK(BM_RandomRunWithPhenomenaAudit)->DenseRange(0, 3);

void BM_ForbiddenSetLookup(benchmark::State& state) {
  for (auto _ : state) {
    for (AnsiLevel level : AllAnsiLevels()) {
      benchmark::DoNotOptimize(ForbiddenPhenomena(
          level, AnsiInterpretation::kBroad, AnsiTable::kTable3));
    }
  }
}
BENCHMARK(BM_ForbiddenSetLookup);

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  std::printf("==== Table 3 reproduction (phenomena-based definitions) "
              "====\n\n");
  std::printf("%s\n", critique::RenderTable3().c_str());
  critique::PrintRemark6Verification();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
