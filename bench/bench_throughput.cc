// Real-throughput measurement of the blocking concurrent session API:
// N OS threads of closure-style `Database::Execute` bodies (the mixed
// Zipf workload) against each stock engine, reporting txns/sec, abort
// rate, and latency percentiles per isolation level.
//
// This is the first bench whose numbers come from genuinely concurrent
// transactions rather than cooperative interleaving, which is what the
// paper's Section 4.2 performance claims are actually about: under
// Snapshot Isolation readers neither block nor are blocked, so its
// throughput should hold up under contention where the locking engine
// queues (blocked waits) and aborts (deadlock victims).
//
//   bench_throughput [--threads N] [--txns-per-thread M] [--items K]
//                    [--theta Z] [--write-fraction F] [--ops-per-txn O]
//                    [--seed S] [--timeout-ms T] [--stripes B]
//                    [--gc-every G] [--disjoint] [--group-commit]
//                    [--fsync-us U] [--json PATH] [--quiet]
//
// --stripes sets the lock-table stripe count of the lock-based engines
// (1 = the old single global table); --gc-every enables kWatermark
// version GC on the multiversion engines with that commit interval
// (0 = retain all versions, the default).  The per-engine JSON reports
// the end-of-run stored version count so the GC effect is visible in the
// baseline.
//
// --group-commit additionally runs each engine twice with a write-ahead
// log attached (FsyncMode::kSimulated, --fsync-us of device latency per
// physical sync): once in single-commit mode (one fsync per commit, the
// classic discipline — workload tag "wal_serial") and once with the
// group-commit pipeline ("wal_group": a committer parks while another's
// sync is in flight, leaves once that sync covers its record, and leads
// the next sync itself if it was missed).  Same engine,
// same workload, same simulated device; the only variable is whether
// concurrent committers share syncs.  The JSON rows carry the log's
// append/sync/batch counters so the gate can assert the batching
// actually happened rather than trusting the throughput delta alone.
//
// --disjoint additionally runs each engine under a *disjoint-session*
// workload: every thread owns its own slice of the keyspace, so there is
// no data contention at all and throughput is bounded purely by how much
// the engine's internal latching lets independent sessions overlap — the
// metric the engine-latch split (reader-writer txn table + store latch +
// striped lock table, replacing one engine-wide mutex) is gated on.
// Disjoint increments are exactly countable, so the run also asserts
// sum == initial + committed * ops_per_txn at every level.
//
// A plain binary (no google-benchmark dependency): a throughput driver
// wants one timed run per configuration, not statistical repetition of a
// micro-kernel.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "critique/common/json_writer.h"
#include "critique/db/database.h"
#include "critique/workload/parallel_driver.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

struct Config {
  int threads = 8;
  uint64_t txns_per_thread = 200;
  uint64_t items = 64;
  double theta = 0.6;
  double write_fraction = 0.5;
  uint64_t ops_per_txn = 4;
  uint64_t seed = 1;
  int64_t timeout_ms = 250;
  int64_t stripes = static_cast<int64_t>(LockManager::kDefaultStripes);
  int64_t gc_every = 0;  ///< 0 = kRetainAll
  bool disjoint = false;  ///< also run the disjoint-session workload
  bool group_commit = false;  ///< also run wal_serial vs wal_group passes
  int64_t fsync_us = 25;  ///< simulated device latency per physical sync
  bool quiet = false;
};

/// WAL attachment for one engine pass.  Empty path = run without a log
/// (the non-durable baseline the other workloads use).
struct WalSetup {
  std::string path;
  bool group = false;
};

struct EngineResult {
  std::string name;
  std::string level;
  std::string workload = "mixed";  ///< "mixed" (zipf transfers) | "disjoint"
  ParallelRunStats run;
  bool balance_ok = false;   ///< no lost updates: total balance preserved
  bool balance_must_hold = false;  ///< level disallows P4 (Serializable / SI)
  uint64_t version_count = 0;  ///< stored versions at end of run (MV engines)
  bool wal = false;            ///< pass ran with a commit log attached
  GroupCommitStats wal_stats;  ///< valid only when `wal`
};

DbOptions MakeDbOptions(IsolationLevel level, const Config& cfg,
                        const WalSetup& wal = {}) {
  DbOptions opts(level);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.lock_wait_timeout = std::chrono::milliseconds(cfg.timeout_ms);
  opts.seed = cfg.seed;
  opts.lock_stripes = static_cast<size_t>(cfg.stripes);
  if (cfg.gc_every > 0) {
    opts.version_gc = VersionGcMode::kWatermark;
    opts.version_gc_interval = static_cast<uint32_t>(cfg.gc_every);
  }
  if (!wal.path.empty()) {
    opts.wal_path = wal.path;
    opts.group_commit = wal.group;
    // kSimulated so the serial-vs-group comparison measures the pipeline
    // against a fixed device latency, not whatever this machine's page
    // cache happens to do.
    opts.fsync_mode = FsyncMode::kSimulated;
    opts.fsync_latency = std::chrono::microseconds(cfg.fsync_us);
  }
  return opts;
}

// Disjoint-session mode: thread t read-modify-writes only items in its own
// keyspace slice, so the run measures latch overlap, not lock conflicts.
EngineResult RunEngineDisjoint(IsolationLevel level, const Config& cfg) {
  Database db(MakeDbOptions(level, cfg));

  WorkloadOptions wopts;
  wopts.num_items = cfg.items;
  WorkloadGenerator gen(wopts);
  (void)gen.LoadInitial(db);

  // Caller guarantees threads <= items (checked in main), so every
  // thread owns a non-empty, non-overlapping slice.
  const uint64_t slice = cfg.items / static_cast<uint64_t>(cfg.threads);
  const uint64_t ops = cfg.ops_per_txn;

  ParallelDriverOptions dopts;
  dopts.threads = cfg.threads;
  dopts.txns_per_thread = cfg.txns_per_thread;
  ParallelDriver driver(db, dopts);

  EngineResult out;
  out.name = db.name();
  out.level = IsolationLevelName(level);
  out.workload = "disjoint";
  out.run = driver.RunIndexed([&](Transaction& txn, Rng& rng, int thread) {
    const uint64_t base = static_cast<uint64_t>(thread) * slice;
    for (uint64_t i = 0; i < ops; ++i) {
      const ItemId item = WorkloadGenerator::ItemName(
          base + rng.Uniform(slice));
      auto v = txn.GetScalar(item);
      if (!v.ok()) return v.status();
      auto n = v->AsNumeric();
      CRITIQUE_RETURN_NOT_OK(txn.Put(
          item, Value(static_cast<int64_t>(n.value_or(0)) + 1)));
    }
    return Status::OK();
  });
  // Disjoint increments are exactly countable at every level: each
  // committed transaction adds ops_per_txn to the total, aborted attempts
  // roll back cleanly, and no thread can lose another thread's update.
  const int64_t expect =
      static_cast<int64_t>(cfg.items) * wopts.initial_balance +
      static_cast<int64_t>(out.run.committed * ops);
  out.balance_ok = WorkloadGenerator::TotalBalance(db, cfg.items) == expect;
  out.balance_must_hold = true;
  // One quiescent GC pass before counting: the raw end-of-run count
  // depends on where the last automatic pass happened to land (noise the
  // baseline gate would trip on), while the post-pass count is exactly
  // the versions GC can never reclaim.  Automatic-pass boundedness is
  // bench_mvcc_store's gate.
  if (cfg.gc_every > 0) (void)db.GarbageCollectVersions();
  out.version_count = db.VersionCount();
  return out;
}

EngineResult RunEngine(IsolationLevel level, const Config& cfg,
                       const WalSetup& wal = {}) {
  Database db(MakeDbOptions(level, cfg, wal));

  WorkloadOptions wopts;
  wopts.num_items = cfg.items;
  wopts.zipf_theta = cfg.theta;
  wopts.ops_per_txn = cfg.ops_per_txn;
  wopts.write_fraction = cfg.write_fraction;
  WorkloadGenerator gen(wopts);
  (void)gen.LoadInitial(db);

  ParallelDriverOptions dopts;
  dopts.threads = cfg.threads;
  dopts.txns_per_thread = cfg.txns_per_thread;
  ParallelDriver driver(db, dopts);

  EngineResult out;
  out.name = db.name();
  out.level = IsolationLevelName(level);
  if (!wal.path.empty()) {
    out.workload = wal.group ? "wal_group" : "wal_serial";
  }
  out.run = driver.Run([&gen](Transaction& txn, Rng& rng) {
    return gen.ApplyTransferTxn(txn, rng, /*amount=*/1);
  });
  if (db.wal() != nullptr) {
    out.wal = true;
    out.wal_stats = db.wal()->stats();
  }
  // Transfers preserve the global sum unless an update was lost.  The
  // paper: Serializable and SI disallow P4; Oracle Read Consistency
  // admits application-level lost updates across statements, so its sum
  // may legitimately drift under contention — reported, not enforced.
  const int64_t expect =
      static_cast<int64_t>(cfg.items) * wopts.initial_balance;
  out.balance_ok = WorkloadGenerator::TotalBalance(db, cfg.items) == expect;
  out.balance_must_hold = level == IsolationLevel::kSerializable ||
                          level == IsolationLevel::kSnapshotIsolation;
  // Same quiescent-pass rule as the disjoint runner (see its comment).
  if (cfg.gc_every > 0) (void)db.GarbageCollectVersions();
  out.version_count = db.VersionCount();
  return out;
}

void PrintHuman(const Config& cfg, const std::vector<EngineResult>& results) {
  std::printf(
      "==== Concurrent throughput: %d threads x %llu txns, %llu items, "
      "zipf %.2f ====\n\n",
      cfg.threads, static_cast<unsigned long long>(cfg.txns_per_thread),
      static_cast<unsigned long long>(cfg.items), cfg.theta);
  std::printf("%-34s %10s %8s %9s %9s %9s %9s\n", "Engine", "txn/s",
              "abort %", "p50 us", "p90 us", "p99 us", "sum ok");
  for (const EngineResult& r : results) {
    const std::string label =
        r.workload == "mixed" ? r.name : r.name + " [" + r.workload + "]";
    std::printf("%-34s %10.0f %7.1f%% %9.0f %9.0f %9.0f %9s\n",
                label.c_str(), r.run.txns_per_second(),
                100 * r.run.abort_rate(), r.run.latency.p50_us,
                r.run.latency.p90_us, r.run.latency.p99_us,
                r.balance_ok ? "yes" : "NO");
  }
  bool any_wal = false;
  for (const EngineResult& r : results) any_wal |= r.wal;
  if (any_wal) {
    std::printf("\n%-34s %10s %10s %10s %10s\n", "Durability (WAL)",
                "appends", "syncs", "batched", "max batch");
    for (const EngineResult& r : results) {
      if (!r.wal) continue;
      std::printf("%-34s %10llu %10llu %10llu %10llu\n",
                  (r.name + " [" + r.workload + "]").c_str(),
                  static_cast<unsigned long long>(r.wal_stats.appends),
                  static_cast<unsigned long long>(r.wal_stats.syncs),
                  static_cast<unsigned long long>(r.wal_stats.batched),
                  static_cast<unsigned long long>(r.wal_stats.max_batch));
    }
    std::printf(
        "\nwal_serial pays one device sync per commit; in wal_group one\n"
        "sync retires every commit appended before it, and a commit it\n"
        "missed leads the next sync itself.  Fewer syncs for the same\n"
        "appends is the group-commit win.\n");
  }
  std::printf(
      "\nExpected shape (Section 4.2): SI commits read-heavy traffic\n"
      "without blocking; the locking engine pays for contention in lock\n"
      "waits and deadlock aborts.  'sum ok' certifies no lost updates —\n"
      "required at Serializable and SI, while Oracle Read Consistency may\n"
      "legitimately lose application-level updates (P4) under contention.\n");
}

std::string ToJson(const Config& cfg,
                   const std::vector<EngineResult>& results) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench"); w.String("throughput");
  w.Key("threads"); w.Int(cfg.threads);
  w.Key("txns_per_thread"); w.UInt(cfg.txns_per_thread);
  w.Key("items"); w.UInt(cfg.items);
  w.Key("zipf_theta"); w.Double(cfg.theta);
  w.Key("write_fraction"); w.Double(cfg.write_fraction);
  w.Key("ops_per_txn"); w.UInt(cfg.ops_per_txn);
  w.Key("seed"); w.UInt(cfg.seed);
  w.Key("lock_wait_timeout_ms"); w.Int(cfg.timeout_ms);
  w.Key("lock_stripes"); w.Int(cfg.stripes);
  w.Key("gc_every"); w.Int(cfg.gc_every);
  w.Key("fsync_us"); w.Int(cfg.fsync_us);
  w.Key("engines");
  w.BeginArray();
  for (const EngineResult& r : results) {
    w.BeginObject();
    w.Key("name"); w.String(r.name);
    w.Key("level"); w.String(r.level);
    w.Key("workload"); w.String(r.workload);
    w.Key("txns_per_sec"); w.Double(r.run.txns_per_second());
    w.Key("abort_rate"); w.Double(r.run.abort_rate());
    w.Key("committed"); w.UInt(r.run.committed);
    w.Key("failed"); w.UInt(r.run.failed);
    w.Key("retries"); w.UInt(r.run.retries);
    w.Key("engine_commits"); w.UInt(r.run.engine_commits);
    w.Key("engine_aborts"); w.UInt(r.run.engine_aborts);
    w.Key("elapsed_seconds"); w.Double(r.run.elapsed_seconds);
    w.Key("latency_us");
    w.BeginObject();
    w.Key("p50"); w.Double(r.run.latency.p50_us);
    w.Key("p90"); w.Double(r.run.latency.p90_us);
    w.Key("p99"); w.Double(r.run.latency.p99_us);
    w.Key("max"); w.Double(r.run.latency.max_us);
    w.EndObject();
    w.Key("balance_preserved"); w.Bool(r.balance_ok);
    w.Key("version_count"); w.UInt(r.version_count);
    if (r.wal) {
      w.Key("wal");
      w.BeginObject();
      w.Key("appends"); w.UInt(r.wal_stats.appends);
      w.Key("syncs"); w.UInt(r.wal_stats.syncs);
      w.Key("sync_waits"); w.UInt(r.wal_stats.sync_waits);
      w.Key("batched"); w.UInt(r.wal_stats.batched);
      w.Key("max_batch"); w.UInt(r.wal_stats.max_batch);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace
}  // namespace critique

int main(int argc, char** argv) {
  using namespace critique;
  using namespace critique::bench;

  Config cfg;
  auto json_path = TakeJsonFlag(argc, argv);
  cfg.threads = static_cast<int>(TakeIntFlag(argc, argv, "--threads", 8));
  cfg.txns_per_thread = static_cast<uint64_t>(
      TakeIntFlag(argc, argv, "--txns-per-thread", 200));
  cfg.items = static_cast<uint64_t>(TakeIntFlag(argc, argv, "--items", 64));
  cfg.theta = TakeDoubleFlag(argc, argv, "--theta", 0.6);
  cfg.write_fraction =
      TakeDoubleFlag(argc, argv, "--write-fraction", 0.5);
  cfg.ops_per_txn =
      static_cast<uint64_t>(TakeIntFlag(argc, argv, "--ops-per-txn", 4));
  cfg.seed = static_cast<uint64_t>(TakeIntFlag(argc, argv, "--seed", 1));
  cfg.timeout_ms = TakeIntFlag(argc, argv, "--timeout-ms", 250);
  cfg.stripes = TakeIntFlag(argc, argv, "--stripes",
                            static_cast<int64_t>(LockManager::kDefaultStripes));
  cfg.gc_every = TakeIntFlag(argc, argv, "--gc-every", 0);
  cfg.disjoint = TakeBoolFlag(argc, argv, "--disjoint");
  cfg.group_commit = TakeBoolFlag(argc, argv, "--group-commit");
  cfg.fsync_us = TakeIntFlag(argc, argv, "--fsync-us", 25);
  cfg.quiet = TakeBoolFlag(argc, argv, "--quiet");
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\n", argv[1]);
    return 2;
  }
  if (cfg.disjoint &&
      static_cast<uint64_t>(cfg.threads) > cfg.items) {
    std::fprintf(stderr,
                 "--disjoint needs at least one item per thread "
                 "(threads=%d > items=%llu): the slices would overlap and "
                 "the workload would no longer be disjoint\n",
                 cfg.threads, static_cast<unsigned long long>(cfg.items));
    return 2;
  }

  const IsolationLevel levels[] = {
      IsolationLevel::kSerializable,
      IsolationLevel::kSnapshotIsolation,
      IsolationLevel::kOracleReadConsistency,
  };
  std::vector<EngineResult> results;
  for (IsolationLevel level : levels) {
    results.push_back(RunEngine(level, cfg));
  }
  if (cfg.disjoint) {
    for (IsolationLevel level : levels) {
      results.push_back(RunEngineDisjoint(level, cfg));
    }
  }
  if (cfg.group_commit) {
    // Same engine + workload + simulated device, serial vs group: the
    // throughput delta isolates the commit pipeline.
    int wal_file = 0;
    for (bool group : {false, true}) {
      for (IsolationLevel level : levels) {
        WalSetup wal;
        wal.path = (std::filesystem::temp_directory_path() /
                    ("bench_throughput_" + std::to_string(::getpid()) + "_" +
                     std::to_string(wal_file++) + ".wal"))
                       .string();
        wal.group = group;
        results.push_back(RunEngine(level, cfg, wal));
        std::filesystem::remove(wal.path);  // measurement only; no replay
      }
    }
  }

  if (!cfg.quiet) PrintHuman(cfg, results);
  if (json_path.has_value()) {
    WriteJsonFile(*json_path, ToJson(cfg, results));
  }

  // Non-zero exit when a level that forbids lost updates lost one:
  // CI-visible correctness.
  for (const EngineResult& r : results) {
    if (r.balance_must_hold && !r.balance_ok) return 1;
  }
  return 0;
}
