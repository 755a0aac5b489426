// Section 4.2's abort-behaviour prediction, measured:
//
//   "[Snapshot Isolation] probably isn't good for long-running update
//    transactions competing with high-contention short transactions,
//    since the long-running transactions are unlikely to be the first
//    writer of everything they write, and so will probably be aborted."
//
// The experiment sweeps the length of one long update transaction running
// against a stream of short hot-spot updates and reports the long
// transaction's fate under Snapshot Isolation (First-Committer-Wins
// aborts) versus Locking SERIALIZABLE (it blocks others / deadlocks
// instead).  Expected shape: the SI long-transaction abort rate climbs
// toward 1 as its length grows; under locking the long transaction
// usually survives while the short transactions stall behind its locks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "critique/common/json_writer.h"
#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/exec/runner.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

struct LongTxnResult {
  bool long_committed = false;
  int short_committed = 0;
  int short_total = 0;
  uint64_t blocked = 0;
};

// One long update transaction over `long_ops` items interleaved with
// `short_txns` single-item hot-spot updates.
LongTxnResult RunLongVsShort(IsolationLevel level, uint64_t seed,
                             size_t long_ops, int short_txns) {
  DbOptions db_options(level);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  WorkloadOptions opts;
  opts.num_items = 16;
  opts.zipf_theta = 0.9;  // shorts hammer the hot keys
  WorkloadGenerator gen(opts);
  (void)gen.LoadInitial(db);
  Rng rng(seed);
  Runner runner(db);
  runner.AddProgram(1, gen.MakeUpdateTxn(rng, long_ops));
  for (int t = 0; t < short_txns; ++t) {
    runner.AddProgram(2 + t, gen.MakeUpdateTxn(rng, 1));
  }
  auto result = runner.Run(runner.RandomSchedule(rng));
  LongTxnResult out;
  if (!result.ok()) return out;
  out.long_committed = result->Committed(1);
  out.short_total = short_txns;
  for (int t = 0; t < short_txns; ++t) {
    out.short_committed += result->Committed(2 + t);
  }
  out.blocked = result->blocked_retries;
  return out;
}

struct SweepPoint {
  std::string level;
  size_t len = 0;
  double long_commit_rate = 0;
  double short_commit_rate = 0;
  uint64_t blocked = 0;
};

std::vector<SweepPoint> RunAbortSweep() {
  std::vector<SweepPoint> points;
  const IsolationLevel levels[] = {IsolationLevel::kSnapshotIsolation,
                                   IsolationLevel::kSerializable};
  for (IsolationLevel level : levels) {
    for (size_t len : {2, 4, 8, 12}) {
      int long_ok = 0, short_ok = 0, short_total = 0;
      uint64_t blocked = 0;
      const int kSeeds = 50;
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        LongTxnResult r = RunLongVsShort(level, seed, len, 8);
        long_ok += r.long_committed;
        short_ok += r.short_committed;
        short_total += r.short_total;
        blocked += r.blocked;
      }
      SweepPoint p;
      p.level = IsolationLevelName(level);
      p.len = len;
      p.long_commit_rate = static_cast<double>(long_ok) / kSeeds;
      p.short_commit_rate =
          short_total ? static_cast<double>(short_ok) / short_total : 0;
      p.blocked = blocked;
      points.push_back(std::move(p));
    }
  }
  return points;
}

void PrintAbortSweep(const std::vector<SweepPoint>& points) {
  std::printf(
      "Long update transaction vs 8 short hot-spot updates (16 items,\n"
      "zipf 0.9, 50 seeds per point).  'long %%' = long txn commit rate,\n"
      "'short %%' = short txn commit rate, 'blocked' = total lock waits.\n\n");
  std::printf("%-34s %8s %8s %8s %10s\n", "Level", "len", "long %", "short %",
              "blocked");
  for (const SweepPoint& p : points) {
    std::printf("%-34s %8zu %7.0f%% %7.0f%% %10llu\n", p.level.c_str(), p.len,
                100 * p.long_commit_rate, 100 * p.short_commit_rate,
                static_cast<unsigned long long>(p.blocked));
  }
  std::printf(
      "\nExpected shape (paper): under SI the long transaction's commit\n"
      "rate falls sharply with its length (First-Committer-Wins), while\n"
      "short transactions sail through unblocked; under locking the long\n"
      "transaction mostly survives but short transactions queue behind\n"
      "its locks (large 'blocked' column).\n\n");
}

std::string SweepToJson(const std::vector<SweepPoint>& points) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench"); w.String("abort_rates");
  w.Key("short_txns"); w.Int(8);
  w.Key("seeds"); w.Int(50);
  w.Key("points");
  w.BeginArray();
  for (const SweepPoint& p : points) {
    w.BeginObject();
    w.Key("level"); w.String(p.level);
    w.Key("long_txn_len"); w.UInt(p.len);
    w.Key("long_commit_rate"); w.Double(p.long_commit_rate);
    w.Key("short_commit_rate"); w.Double(p.short_commit_rate);
    w.Key("blocked"); w.UInt(p.blocked);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void BM_LongVsShort(benchmark::State& state) {
  IsolationLevel level = state.range(0) == 0
                             ? IsolationLevel::kSnapshotIsolation
                             : IsolationLevel::kSerializable;
  size_t len = static_cast<size_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunLongVsShort(level, seed++, len, 8));
  }
  state.SetLabel(IsolationLevelName(level) + " len=" + std::to_string(len));
}
BENCHMARK(BM_LongVsShort)
    ->Args({0, 4})
    ->Args({0, 12})
    ->Args({1, 4})
    ->Args({1, 12});

void BM_FirstCommitterWinsCheck(benchmark::State& state) {
  // Micro-cost of the FCW commit-time validation as write sets grow.
  const size_t writes = static_cast<size_t>(state.range(0));
  Database db(IsolationLevel::kSnapshotIsolation);
  WorkloadOptions opts;
  opts.num_items = 512;
  WorkloadGenerator gen(opts);
  (void)gen.LoadInitial(db);
  for (auto _ : state) {
    state.PauseTiming();
    Transaction txn = db.Begin();
    for (size_t k = 0; k < writes; ++k) {
      (void)txn.Put(WorkloadGenerator::ItemName(k), Value(1));
    }
    state.ResumeTiming();
    (void)txn.Commit();
  }
}
BENCHMARK(BM_FirstCommitterWinsCheck)->Arg(4)->Arg(32)->Arg(128);

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  auto json_path = critique::bench::TakeJsonFlag(argc, argv);

  std::printf("==== Section 4.2: abort behaviour — long vs short update "
              "transactions ====\n\n");
  auto points = critique::RunAbortSweep();
  critique::PrintAbortSweep(points);
  if (json_path.has_value()) {
    critique::bench::WriteJsonFile(*json_path, critique::SweepToJson(points));
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
