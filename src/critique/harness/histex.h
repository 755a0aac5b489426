#ifndef CRITIQUE_HARNESS_HISTEX_H_
#define CRITIQUE_HARNESS_HISTEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "critique/check/online_checker.h"
#include "critique/engine/engine.h"
#include "critique/engine/isolation.h"

namespace critique {

/// \brief One HISTEX run: a seeded random history exerciser.
///
/// In the spirit of the paper's authors' history generators, a run drives
/// a seeded random workload of short transactions against a real engine
/// (or a sharded facade), with the online MVSG checker certifying every
/// commit as it happens.  Everything is derived deterministically from
/// `seed`, so a failing configuration replays bit-for-bit (see
/// `ReplayCommand`).
///
/// Execution is single-threaded and cooperative: up to `sessions`
/// transactions are open at once and a seeded scheduler picks which one
/// advances each step.  A `kWouldBlock` answer parks the session (the
/// scheduler retries it later); when every runnable step is blocked the
/// exerciser breaks the livelock by rolling back the longest-blocked
/// session — exactly the role of a lock-wait timeout.
struct HistexConfig {
  uint64_t seed = 1;

  /// The engine the database is built from (`DbOptions::isolation`).
  IsolationLevel engine = IsolationLevel::kSerializable;

  /// Per-transaction declared levels, cycled in begin order; empty means
  /// every transaction runs at the engine's own level.  Every entry must
  /// be honorable by `engine` (the run fails fast otherwise).
  std::vector<IsolationLevel> txn_levels;

  /// 1 = a single `Database`; >1 = a `ShardedDatabase` with this many
  /// hash partitions (cross-shard transactions and 2PC included).
  int shards = 1;

  int sessions = 4;    ///< concurrently open transactions
  int txns = 200;      ///< total transactions to drive
  int items = 16;      ///< keyspace size ("x0".."x<items-1>")
  int max_ops = 6;     ///< ops per transaction: 1..max_ops

  /// `DbOptions::online_check_prune_interval` for the run.
  uint32_t checker_prune_interval = 64;

  /// "seed=7 engine=ser mix=rc,si shards=2 ... prune=64" — parseable by
  /// `ParseHistexConfig`.
  std::string ToString() const;
};

/// \brief What one run did, and the checker's verdict on it.
struct HistexResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;           ///< engine aborts + livelock rollbacks
  uint64_t blocked_steps = 0;     ///< steps answered kWouldBlock
  uint64_t forced_rollbacks = 0;  ///< livelock-breaker interventions
  check::CheckerReport report;    ///< online certification (aggregated)
  EngineStats stats;              ///< engine counters (aggregated)
  bool ok = false;                ///< ran to completion, zero violations
  std::string detail;             ///< failure account (incl. replay hint)
};

/// Runs one exerciser configuration to completion.
HistexResult RunHistex(const HistexConfig& config);

/// The declared level of the k-th transaction begun (0-based).
IsolationLevel HistexLevelForTxn(const HistexConfig& config, uint64_t k);

/// Short stable token for a level: d0 ru rc cs rr ser si orc ssi.
std::string LevelToken(IsolationLevel level);

/// Inverse of `LevelToken`; nullopt on an unknown token.
std::optional<IsolationLevel> ParseLevelToken(const std::string& token);

/// Parses "rc,si,ssi" into a level mix; nullopt on any unknown token.
std::optional<std::vector<IsolationLevel>> ParseLevelMix(
    const std::string& spec);

/// Parses the `HistexConfig::ToString` format ("key=value" pairs separated
/// by spaces or semicolons; unknown keys refused).  Nullopt on any parse
/// error.
std::optional<HistexConfig> ParseHistexConfig(const std::string& spec);

/// A copy-pasteable shell command that replays `config` through the fuzz
/// test binary (the CI artifact written next to a failing seed).
std::string ReplayCommand(const HistexConfig& config);

}  // namespace critique

#endif  // CRITIQUE_HARNESS_HISTEX_H_
