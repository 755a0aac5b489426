// Micro-benchmarks of the durability subsystem itself: how fast the
// write-ahead log appends, syncs, batches, and replays — the layer under
// `bench_throughput --group-commit`, measured without an engine in the
// way.
//
//   bench_wal [--appends N] [--syncs M] [--threads T] [--commits C]
//             [--fsync-us U] [--replay-txns R] [--json PATH] [--quiet]
//
// Four timed sections:
//
//   append   N buffered `Append`s of a representative one-row write set
//            (FsyncMode::kNone — no device in the loop): the in-memory
//            framing + CRC cost per record.
//   sync     M append+WaitDurable rounds, single-commit, kFlush: one
//            physical write+flush per round, the per-commit floor a real
//            log pays with batching off and no modeled device latency.
//   commit   T threads x C commits each (append write set + commit, then
//            WaitDurable), against a simulated device sleeping --fsync-us
//            per sync — once in single-commit mode, once with group
//            commit.  Same work, same device; the commits/sec ratio is
//            the group-commit win and the sync counters prove the
//            batching happened.
//   replay   builds a log of R committed single-put transactions through
//            a real `Database`, shuts down cleanly, then times
//            `Database::Recover` — records/sec and txns/sec of redo.
//
// All JSON rate keys end in `_per_sec` so the regression gate can treat
// them uniformly as higher-is-better floors.
//
// A plain binary (no google-benchmark): each section is one timed run of
// a configured size, which is what a trajectory baseline wants.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "critique/common/json_writer.h"
#include "critique/db/database.h"
#include "critique/wal/commit_log.h"
#include "critique/wal/wal_record.h"
#include "critique/wal/wal_writer.h"

namespace critique {
namespace {

struct Config {
  uint64_t appends = 200000;
  uint64_t syncs = 2000;
  int threads = 8;
  uint64_t commits = 50;  ///< per thread, in the commit section
  int64_t fsync_us = 200;
  uint64_t replay_txns = 5000;
  bool quiet = false;
};

struct Results {
  double append_per_sec = 0;
  double sync_per_sec = 0;
  double serial_commits_per_sec = 0;
  double group_commits_per_sec = 0;
  GroupCommitStats serial_stats;
  GroupCommitStats group_stats;
  double replay_records_per_sec = 0;
  double replay_txns_per_sec = 0;
  uint64_t replay_records = 0;
  uint64_t replay_committed = 0;
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string TempWalPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("bench_wal_" + std::to_string(::getpid()) + "_" + tag + ".wal"))
      .string();
}

/// A representative commit payload: one scalar after-image.
WalRecord SampleWriteSet(TxnId txn) {
  return WalRecord::WriteSet(
      txn, {{"item-" + std::to_string(txn % 64),
             Row::Scalar(Value(static_cast<int64_t>(txn)))}});
}

CommitLog MakeLog(const std::string& path, CommitLog::Options opts) {
  auto writer = WalWriter::Create(path);
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", path.c_str(),
                 writer.status().ToString().c_str());
    std::exit(1);
  }
  return CommitLog(std::move(writer).value(), opts);
}

double BenchAppend(const Config& cfg) {
  const std::string path = TempWalPath("append");
  CommitLog::Options opts;
  opts.fsync_mode = FsyncMode::kNone;  // no device: pure framing cost
  double per_sec = 0;
  {
    CommitLog log = MakeLog(path, opts);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < cfg.appends; ++i) {
      log.Append(SampleWriteSet(static_cast<TxnId>(i + 1)));
    }
    per_sec = static_cast<double>(cfg.appends) / Seconds(t0);
  }
  std::filesystem::remove(path);
  return per_sec;
}

double BenchSync(const Config& cfg) {
  const std::string path = TempWalPath("sync");
  CommitLog::Options opts;
  opts.fsync_mode = FsyncMode::kFlush;  // real write+flush, no sleep
  double per_sec = 0;
  {
    CommitLog log = MakeLog(path, opts);
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < cfg.syncs; ++i) {
      const uint64_t lsn = log.Append(SampleWriteSet(static_cast<TxnId>(i + 1)));
      Status s = log.WaitDurable(lsn);
      if (!s.ok()) {
        std::fprintf(stderr, "sync failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    per_sec = static_cast<double>(cfg.syncs) / Seconds(t0);
  }
  std::filesystem::remove(path);
  return per_sec;
}

/// T threads each durably committing C times against a simulated device.
double BenchCommits(const Config& cfg, bool group, GroupCommitStats* stats) {
  const std::string path = TempWalPath(group ? "group" : "serial");
  CommitLog::Options opts;
  opts.group_commit = group;
  opts.fsync_mode = FsyncMode::kSimulated;
  opts.fsync_latency = std::chrono::microseconds(cfg.fsync_us);
  double per_sec = 0;
  {
    CommitLog log = MakeLog(path, opts);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < cfg.threads; ++t) {
      threads.emplace_back([&log, &cfg, t] {
        for (uint64_t i = 0; i < cfg.commits; ++i) {
          const TxnId txn =
              static_cast<TxnId>(t * static_cast<int>(cfg.commits) + i + 1);
          log.Append(SampleWriteSet(txn));
          const uint64_t lsn = log.Append(WalRecord::Commit(txn, 0));
          Status s = log.WaitDurable(lsn);
          if (!s.ok()) {
            std::fprintf(stderr, "commit sync failed: %s\n",
                         s.ToString().c_str());
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    per_sec = static_cast<double>(cfg.threads) *
              static_cast<double>(cfg.commits) / Seconds(t0);
    *stats = log.stats();
  }
  std::filesystem::remove(path);
  return per_sec;
}

void BenchReplay(const Config& cfg, Results* out) {
  const std::string path = TempWalPath("replay");
  // Build the log through the real facade so replay exercises the real
  // record stream (loads, begins, write sets, commits), not a synthetic
  // one.
  DbOptions build(IsolationLevel::kSnapshotIsolation);
  build.wal_path = path;
  build.fsync_mode = FsyncMode::kNone;  // building is not the measurement
  {
    Database db(build);
    for (int i = 0; i < 8; ++i) {
      (void)db.Load("item-" + std::to_string(i), Value(int64_t{0}));
    }
    for (uint64_t i = 0; i < cfg.replay_txns; ++i) {
      Status s = db.Execute([&](Transaction& txn) {
        return txn.Put("item-" + std::to_string(i % 8),
                       Value(static_cast<int64_t>(i)));
      });
      if (!s.ok()) {
        std::fprintf(stderr, "build txn failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
  }  // clean shutdown flushes the buffered tail

  DbOptions rec_opts(IsolationLevel::kSnapshotIsolation);
  rec_opts.wal_path = path;
  const auto t0 = std::chrono::steady_clock::now();
  auto rec = Database::Recover(rec_opts);
  const double secs = Seconds(t0);
  if (!rec.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 rec.status().ToString().c_str());
    std::exit(1);
  }
  const WalRecoveryStats& stats = (*rec)->wal_recovery();
  out->replay_records = stats.records;
  out->replay_committed = stats.committed_replayed;
  out->replay_records_per_sec = static_cast<double>(stats.records) / secs;
  out->replay_txns_per_sec =
      static_cast<double>(stats.committed_replayed) / secs;
  if (stats.committed_replayed != cfg.replay_txns) {
    std::fprintf(stderr,
                 "replay lost transactions: committed %llu of %llu\n",
                 static_cast<unsigned long long>(stats.committed_replayed),
                 static_cast<unsigned long long>(cfg.replay_txns));
    std::exit(1);
  }
  std::filesystem::remove(path);
}

void PrintHuman(const Config& cfg, const Results& r) {
  std::printf("==== WAL micro-benchmarks ====\n\n");
  std::printf("append (buffered, no device):   %12.0f records/sec\n",
              r.append_per_sec);
  std::printf("sync (single-commit, kFlush):   %12.0f syncs/sec\n",
              r.sync_per_sec);
  std::printf(
      "\ndurable commits, %d threads x %llu, simulated device %lld us/sync:\n",
      cfg.threads, static_cast<unsigned long long>(cfg.commits),
      static_cast<long long>(cfg.fsync_us));
  std::printf("  single-commit:  %10.0f commits/sec  (%llu syncs)\n",
              r.serial_commits_per_sec,
              static_cast<unsigned long long>(r.serial_stats.syncs));
  std::printf("  group commit:   %10.0f commits/sec  (%llu syncs, "
              "%llu batched, max batch %llu)\n",
              r.group_commits_per_sec,
              static_cast<unsigned long long>(r.group_stats.syncs),
              static_cast<unsigned long long>(r.group_stats.batched),
              static_cast<unsigned long long>(r.group_stats.max_batch));
  if (r.serial_commits_per_sec > 0) {
    std::printf("  speedup:        %10.2fx\n",
                r.group_commits_per_sec / r.serial_commits_per_sec);
  }
  std::printf(
      "\nreplay (%llu records, %llu committed txns):\n"
      "  %12.0f records/sec, %12.0f txns/sec\n",
      static_cast<unsigned long long>(r.replay_records),
      static_cast<unsigned long long>(r.replay_committed),
      r.replay_records_per_sec, r.replay_txns_per_sec);
}

std::string ToJson(const Config& cfg, const Results& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench"); w.String("wal");
  w.Key("appends"); w.UInt(cfg.appends);
  w.Key("syncs"); w.UInt(cfg.syncs);
  w.Key("threads"); w.Int(cfg.threads);
  w.Key("commits_per_thread"); w.UInt(cfg.commits);
  w.Key("fsync_us"); w.Int(cfg.fsync_us);
  w.Key("replay_txns"); w.UInt(cfg.replay_txns);
  w.Key("append_per_sec"); w.Double(r.append_per_sec);
  w.Key("sync_per_sec"); w.Double(r.sync_per_sec);
  w.Key("serial_commits_per_sec"); w.Double(r.serial_commits_per_sec);
  w.Key("group_commits_per_sec"); w.Double(r.group_commits_per_sec);
  w.Key("serial_syncs"); w.UInt(r.serial_stats.syncs);
  w.Key("group_syncs"); w.UInt(r.group_stats.syncs);
  w.Key("group_batched"); w.UInt(r.group_stats.batched);
  w.Key("group_max_batch"); w.UInt(r.group_stats.max_batch);
  w.Key("replay_records"); w.UInt(r.replay_records);
  w.Key("replay_committed"); w.UInt(r.replay_committed);
  w.Key("replay_records_per_sec"); w.Double(r.replay_records_per_sec);
  w.Key("replay_txns_per_sec"); w.Double(r.replay_txns_per_sec);
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
  cfg.appends =
      static_cast<uint64_t>(TakeIntFlag(argc, argv, "--appends", 200000));
  cfg.syncs = static_cast<uint64_t>(TakeIntFlag(argc, argv, "--syncs", 2000));
  cfg.threads = static_cast<int>(TakeIntFlag(argc, argv, "--threads", 8));
  cfg.commits =
      static_cast<uint64_t>(TakeIntFlag(argc, argv, "--commits", 50));
  cfg.fsync_us = TakeIntFlag(argc, argv, "--fsync-us", 200);
  cfg.replay_txns =
      static_cast<uint64_t>(TakeIntFlag(argc, argv, "--replay-txns", 5000));
  cfg.quiet = TakeBoolFlag(argc, argv, "--quiet");
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\n", argv[1]);
    return 2;
  }
  if (cfg.threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }

  Results r;
  r.append_per_sec = BenchAppend(cfg);
  r.sync_per_sec = BenchSync(cfg);
  r.serial_commits_per_sec =
      BenchCommits(cfg, /*group=*/false, &r.serial_stats);
  r.group_commits_per_sec = BenchCommits(cfg, /*group=*/true, &r.group_stats);
  BenchReplay(cfg, &r);

  if (!cfg.quiet) PrintHuman(cfg, r);
  if (json_path.has_value()) {
    WriteJsonFile(*json_path, ToJson(cfg, r));
  }
  return 0;
}
