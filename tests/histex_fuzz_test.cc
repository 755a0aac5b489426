// HISTEX fuzz harness tests: seeded random histories over engines ×
// per-transaction level mixes × shard counts, every commit certified by
// the online checker, and every recorded history replayed unpruned to the
// same verdicts.  Environment knobs (all optional):
//
//   HISTEX_SEEDS=N        seeds per configuration (default 5)
//   HISTEX_TXNS=N         transactions per run (default 200)
//   HISTEX_FAILURE_DIR=D  write failing-seed replay files into D
//   HISTEX_REPLAY=CFG     HistexFuzz.Replay runs this one configuration
//
// A failing run prints (and, with HISTEX_FAILURE_DIR, persists) a
// copy-pasteable replay command; the nightly CI job uploads those files
// as artifacts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "critique/harness/histex.h"

namespace critique {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

int SeedsPerConfig() { return std::max(1, EnvInt("HISTEX_SEEDS", 5)); }
int TxnsPerRun() { return std::max(1, EnvInt("HISTEX_TXNS", 200)); }

// Runs one configuration and asserts the certification invariants every
// stock engine must keep: zero violations, and the serialization-abort
// split counters summing to the total.
void CheckRun(HistexConfig cfg) {
  cfg.txns = TxnsPerRun();
  HistexResult r = RunHistex(cfg);
  if (!r.ok) {
    const char* dir = std::getenv("HISTEX_FAILURE_DIR");
    if (dir != nullptr && *dir != '\0') {
      std::ofstream out(std::string(dir) + "/histex_seed" +
                        std::to_string(cfg.seed) + "_" +
                        LevelToken(cfg.engine) + ".txt");
      out << cfg.ToString() << "\n" << ReplayCommand(cfg) << "\n"
          << r.detail << "\n";
    }
    ADD_FAILURE() << "histex run failed: " << cfg.ToString() << "\n"
                  << r.detail;
    return;
  }
  EXPECT_EQ(r.report.violations, 0u) << cfg.ToString();
  if (cfg.shards == 1) {
    EXPECT_EQ(r.committed, r.report.commits_certified) << cfg.ToString();
  } else {
    // A cross-shard transaction is certified once per participant shard.
    EXPECT_GE(r.report.commits_certified, r.committed) << cfg.ToString();
    // The sharded oracles: every global id is all-or-nothing across the
    // shards' recorded histories, and every shard's own checker is clean.
    // The run must actually reach 2PC for either to mean anything.
    EXPECT_GT(r.cross_shard_commits, 0u) << cfg.ToString();
    EXPECT_EQ(r.torn_global_txns, 0u) << cfg.ToString();
    ASSERT_EQ(r.shard_violations.size(), static_cast<size_t>(cfg.shards));
    for (int s = 0; s < cfg.shards; ++s) {
      EXPECT_EQ(r.shard_violations[static_cast<size_t>(s)], 0u)
          << "shard " << s << ": " << cfg.ToString();
    }
  }
  // Satellite invariant: the abort-split counters account for every
  // serialization abort, at every level mix and shard count.
  EXPECT_EQ(r.stats.fcw_aborts + r.stats.ssi_aborts,
            r.stats.serialization_aborts)
      << cfg.ToString();
}

// Every odd seed prunes the live checker after every commit, the most
// aggressive cadence, so the replay oracle (an unpruned replay of the
// recorded history must reach the same verdicts) tests pruning hardest.
void Sweep(IsolationLevel engine, std::vector<IsolationLevel> mix,
           int shards) {
  for (int s = 0; s < SeedsPerConfig(); ++s) {
    HistexConfig cfg;
    cfg.seed = 1 + static_cast<uint64_t>(s);
    cfg.engine = engine;
    cfg.txn_levels = mix;
    cfg.shards = shards;
    if (cfg.seed % 2 == 1) cfg.checker_prune_interval = 1;
    CheckRun(cfg);
  }
}

TEST(HistexFuzz, LockingSerializable) {
  Sweep(IsolationLevel::kSerializable, {}, 1);
}

TEST(HistexFuzz, LockingMixedTable2Levels) {
  Sweep(IsolationLevel::kSerializable,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSerializable,
         IsolationLevel::kCursorStability, IsolationLevel::kRepeatableRead},
        1);
}

TEST(HistexFuzz, LockingWeakEngineWithReadUncommitted) {
  Sweep(IsolationLevel::kReadCommitted,
        {IsolationLevel::kReadUncommitted, IsolationLevel::kReadCommitted},
        1);
}

TEST(HistexFuzz, SnapshotIsolation) {
  Sweep(IsolationLevel::kSnapshotIsolation, {}, 1);
}

TEST(HistexFuzz, SnapshotIsolationWithReadCommitted) {
  Sweep(IsolationLevel::kSnapshotIsolation,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation},
        1);
}

TEST(HistexFuzz, SerializableSI) {
  Sweep(IsolationLevel::kSerializableSI, {}, 1);
}

TEST(HistexFuzz, SerializableSIFullMix) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation,
         IsolationLevel::kSerializableSI},
        1);
}

TEST(HistexFuzz, OracleReadConsistency) {
  Sweep(IsolationLevel::kOracleReadConsistency, {}, 1);
}

TEST(HistexFuzz, ShardedLockingSerializable) {
  Sweep(IsolationLevel::kSerializable, {}, 3);
}

TEST(HistexFuzz, ShardedSerializableSIFullMix) {
  Sweep(IsolationLevel::kSerializableSI,
        {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshotIsolation,
         IsolationLevel::kSerializableSI},
        3);
}

TEST(HistexFuzz, DeterministicReplay) {
  HistexConfig cfg;
  cfg.seed = 42;
  cfg.engine = IsolationLevel::kSerializable;
  cfg.txn_levels = {IsolationLevel::kReadCommitted,
                    IsolationLevel::kSerializable};
  cfg.txns = 150;
  HistexResult a = RunHistex(cfg);
  HistexResult b = RunHistex(cfg);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.blocked_steps, b.blocked_steps);
  EXPECT_EQ(a.forced_rollbacks, b.forced_rollbacks);
  EXPECT_EQ(a.report.edges_added, b.report.edges_added);
  EXPECT_EQ(a.report.violations, b.report.violations);
}

TEST(HistexFuzz, DumpParsesBackItemForItem) {
  // The history HISTEX_DUMP prints must parse back with every item
  // action's item and version intact, or a failing seed cannot be
  // replayed offline.  40 items give two-letter names as well.
  HistexConfig cfg;
  cfg.seed = 2;
  cfg.engine = IsolationLevel::kSnapshotIsolation;
  cfg.items = 40;
  cfg.txns = 150;
  HistexResult r = RunHistex(cfg);
  ASSERT_TRUE(r.ok) << r.detail;
  Result<History> parsed = History::Parse(r.history.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<Action>& want = r.history.actions();
  const std::vector<Action>& got = parsed->actions();
  ASSERT_EQ(got.size(), want.size());
  size_t item_actions = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (!want[i].IsRead() && !want[i].IsWrite()) continue;
    ++item_actions;
    EXPECT_EQ(got[i].item, want[i].item) << want[i].ToString();
    EXPECT_EQ(got[i].version, want[i].version) << want[i].ToString();
  }
  EXPECT_GT(item_actions, 0u);
}

TEST(HistexFuzz, ConfigRoundTrip) {
  HistexConfig cfg;
  cfg.seed = 99;
  cfg.engine = IsolationLevel::kSerializableSI;
  cfg.txn_levels = {IsolationLevel::kReadCommitted,
                    IsolationLevel::kSerializableSI};
  cfg.shards = 4;
  cfg.sessions = 7;
  cfg.txns = 321;
  cfg.items = 9;
  cfg.max_ops = 5;
  cfg.checker_prune_interval = 16;
  auto parsed = ParseHistexConfig(cfg.ToString());
  ASSERT_TRUE(parsed.has_value()) << cfg.ToString();
  EXPECT_EQ(parsed->ToString(), cfg.ToString());

  // Empty mix round-trips too.
  cfg.txn_levels.clear();
  parsed = ParseHistexConfig(cfg.ToString());
  ASSERT_TRUE(parsed.has_value()) << cfg.ToString();
  EXPECT_EQ(parsed->ToString(), cfg.ToString());

  EXPECT_FALSE(ParseHistexConfig("seed=1 bogus=2").has_value());
  EXPECT_FALSE(ParseHistexConfig("engine=nope").has_value());
}

TEST(HistexFuzz, UnhonorableMixFailsFast) {
  // The SI engine cannot honor a Repeatable Read contract; the run must
  // refuse the configuration, not run it silently at another level.
  HistexConfig cfg;
  cfg.engine = IsolationLevel::kSnapshotIsolation;
  cfg.txn_levels = {IsolationLevel::kRepeatableRead};
  cfg.txns = 10;
  HistexResult r = RunHistex(cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.committed, 0u);
}

// Replays the configuration in HISTEX_REPLAY verbatim — the debugging
// entry point named by `ReplayCommand`.
TEST(HistexFuzz, Replay) {
  const char* spec = std::getenv("HISTEX_REPLAY");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set HISTEX_REPLAY='seed=... engine=...' to replay";
  }
  auto cfg = ParseHistexConfig(spec);
  ASSERT_TRUE(cfg.has_value()) << "unparseable HISTEX_REPLAY: " << spec;
  HistexResult r = RunHistex(*cfg);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.report.violations, 0u) << r.report.ToString();
}

}  // namespace
}  // namespace critique
