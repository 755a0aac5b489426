#include "critique/harness/histex.h"

#include <cstdlib>
#include <map>
#include <sstream>
#include <type_traits>
#include <utility>

#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/history/history.h"
#include "critique/shard/sharded_database.h"

namespace critique {
namespace {

// One planned operation of a transaction program.
enum class OpKind { kGet, kPut, kRmw, kScan, kInsert, kErase };

struct Op {
  OpKind kind = OpKind::kGet;
  ItemId item;
  int64_t value = 0;
};

// "x" plus the index in base 26 over a..z: no digit, so the version
// subscript a printed history appends (`r5[xb3]`) parses back as one.
ItemId ItemName(uint64_t i) {
  std::string name;
  do {
    name.insert(name.begin(), static_cast<char>('a' + i % 26));
    i /= 26;
  } while (i != 0);
  return "x" + name;
}

// How a session ends: one `Commit` step, or two steps — `Prepare`, then
// the decision in a later step, so other sessions run while it is pinned.
// A hash of the seed and the session index picks about one single-site
// session in four for two steps, and one in four of those for the abort
// decision.  `ShardedTransaction` has no split prepare.
enum class End { kCommit, kPrepareCommit, kPrepareAbort };

End SessionEnd(uint64_t seed, uint64_t k) {
  const uint64_t r = Rng(seed * 0x9E3779B97F4A7C15ULL + k).Uniform(16);
  if (r >= 4) return End::kCommit;
  return r == 0 ? End::kPrepareAbort : End::kPrepareCommit;
}

// One end step (see `End`); sets `prepared` when it left `t` in doubt.
Status EndStep(Transaction& t, End end, bool& prepared) {
  if (end == End::kCommit) return t.Commit();
  if (prepared) {
    return end == End::kPrepareCommit ? t.CommitPrepared() : t.AbortPrepared();
  }
  Status s = t.Prepare();
  prepared = s.ok();
  return s;
}

Status EndStep(ShardedTransaction& t, End, bool&) { return t.Commit(); }

// Deterministic program generation: kind weights favor the read/write mix
// that actually produces conflicts, with a sprinkle of predicate scans and
// existence-changing ops.
std::vector<Op> MakeProgram(const HistexConfig& cfg, Rng& rng,
                            int64_t& value_counter) {
  const size_t n = 1 + rng.Uniform(static_cast<uint64_t>(cfg.max_ops));
  std::vector<Op> prog;
  prog.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Op op;
    const uint64_t r = rng.Uniform(100);
    if (r < 35) {
      op.kind = OpKind::kGet;
    } else if (r < 65) {
      op.kind = OpKind::kPut;
    } else if (r < 85) {
      op.kind = OpKind::kRmw;
    } else if (r < 90) {
      op.kind = OpKind::kScan;
    } else if (r < 95) {
      op.kind = OpKind::kInsert;
    } else {
      op.kind = OpKind::kErase;
    }
    op.item = ItemName(rng.Uniform(static_cast<uint64_t>(cfg.items)));
    op.value = ++value_counter;
    prog.push_back(std::move(op));
  }
  return prog;
}

// Runs one op on either session-handle flavor (Transaction and
// ShardedTransaction expose the same keyed surface).
template <typename TxnT>
Status StepOp(TxnT& t, const Op& op) {
  switch (op.kind) {
    case OpKind::kGet:
      return t.Get(op.item).status();
    case OpKind::kPut:
      return t.Put(op.item, Value(op.value));
    case OpKind::kRmw:
      return t.Update(op.item, [&op](const std::optional<Row>& r) {
        int64_t base = op.value;
        if (r.has_value() && r->scalar().is_int()) base += r->scalar().AsInt();
        return Row::Scalar(Value(base));
      });
    case OpKind::kScan:
      return t.GetWhere("P", Predicate::All()).status();
    case OpKind::kInsert:
      return t.Insert(op.item, Row::Scalar(Value(op.value)));
    case OpKind::kErase:
      return t.Erase(op.item);
  }
  return Status::OK();
}

// A declared-contract refusal is a configuration error, never a workload
// outcome; the message is authored by the engines' BeginWithLevel.
bool IsContractRefusal(const Status& s) {
  return s.IsFailedPrecondition() &&
         std::string(s.message()).find("cannot honor") != std::string::npos;
}

template <typename TxnT>
struct Sess {
  std::optional<TxnT> txn;
  std::vector<Op> prog;
  size_t pc = 0;
  int blocked = 0;  // consecutive kWouldBlock answers
  End end = End::kCommit;
  bool prepared = false;
};

// The cooperative stepper shared by the single-site and sharded paths.
// `begin(level)` opens the next session; `gc()` runs a version-GC pass
// (exercising the checker's GC-coupled pruning).  Every opened session's
// id and level go into `levels` for the replay oracle.  Returns false on
// a fatal (non-workload) error, with `out.detail` set.
template <typename TxnT, typename BeginFn, typename GcFn>
bool RunLoop(const HistexConfig& cfg, Rng& rng, BeginFn begin, GcFn gc,
             int64_t& value_counter, std::map<TxnId, IsolationLevel>& levels,
             HistexResult& out) {
  std::vector<Sess<TxnT>> live;
  uint64_t started = 0;
  uint64_t finished = 0;
  // Livelock breaker: a session blocked this many consecutive times rolls
  // back (the cooperative analogue of a lock-wait timeout).
  const int block_cap = 8 + 4 * cfg.sessions;

  auto fatal = [&](const std::string& what, const Status& s) {
    out.detail = what + ": " + s.ToString();
    return false;
  };

  while (true) {
    while (live.size() < static_cast<size_t>(cfg.sessions) &&
           started < static_cast<uint64_t>(cfg.txns)) {
      const IsolationLevel level = HistexLevelForTxn(cfg, started);
      Result<TxnT> r = begin(level);
      if (!r.ok()) return fatal("begin refused", r.status());
      Sess<TxnT> s;
      s.txn.emplace(std::move(r).value());
      levels[s.txn->id()] = level;
      s.prog = MakeProgram(cfg, rng, value_counter);
      if (std::is_same_v<TxnT, Transaction>) {
        s.end = SessionEnd(cfg.seed, started);
      }
      live.push_back(std::move(s));
      ++started;
    }
    if (live.empty()) break;

    const size_t idx = rng.Uniform(live.size());
    Sess<TxnT>& s = live[idx];
    auto retire = [&](bool count_abort) {
      if (count_abort) ++out.aborted;
      ++finished;
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    };

    if (s.pc >= s.prog.size()) {
      const bool deciding = s.prepared;
      Status cs = EndStep(*s.txn, s.end, s.prepared);
      if (cs.ok() && !deciding && s.prepared) continue;  // in doubt
      if (cs.ok() && s.end == End::kPrepareAbort) {
        retire(true);
      } else if (cs.ok()) {
        ++out.committed;
        retire(false);
        if (out.committed % 32 == 0) gc();
      } else if (cs.IsSerializationFailure() || cs.IsDeadlock() ||
                 cs.IsTransactionAborted()) {
        retire(true);
      } else if (cs.IsWouldBlock()) {
        ++out.blocked_steps;
        if (++s.blocked > block_cap) {
          (void)s.txn->Rollback();
          ++out.forced_rollbacks;
          retire(true);
        }
      } else {
        return fatal("commit failed", cs);
      }
      continue;
    }

    Status os = StepOp(*s.txn, s.prog[s.pc]);
    if (IsContractRefusal(os)) return fatal("contract refused", os);
    if (os.ok() || os.IsNotFound() || os.IsFailedPrecondition()) {
      // NotFound / FailedPrecondition are benign op preconditions (erase
      // of an absent item, insert of a visible one).
      ++s.pc;
      s.blocked = 0;
    } else if (os.IsWouldBlock()) {
      ++out.blocked_steps;
      if (++s.blocked > block_cap) {
        (void)s.txn->Rollback();
        ++out.forced_rollbacks;
        retire(true);
      }
    } else if (os.IsSerializationFailure() || os.IsDeadlock() ||
               os.IsTransactionAborted()) {
      // The engine already finished the transaction.
      retire(true);
    } else {
      return fatal("operation failed", os);
    }
  }
  (void)finished;
  return true;
}

// The verdicts the replay oracle compares.
std::string Verdicts(const check::CheckerReport& r) {
  std::ostringstream os;
  os << "violations=" << r.violations
     << " allowed_anomalies=" << r.allowed_anomalies
     << " dirty_reads_allowed=" << r.dirty_reads_allowed
     << " certified=" << r.commits_certified
     << " aborts=" << r.aborts_observed;
  return os.str();
}

// The replay oracle: the recorded history, replayed through a fresh
// checker with pruning off, must reach the live (pruned) checker's
// verdicts.  Returns an account of any difference, else "".
std::string ReplayMismatch(const History& history,
                           const std::map<TxnId, IsolationLevel>& levels,
                           const check::CheckerReport& live) {
  const check::CheckerReport replay = check::ReplayHistory(history, levels);
  if (Verdicts(live) == Verdicts(replay)) return "";
  return "  live:   " + Verdicts(live) + "\n  replay: " + Verdicts(replay) +
         "\n  replay report: " + replay.ToString() + "\n";
}

void Finish(const HistexConfig& cfg, bool ran, const std::string& mismatch,
            HistexResult& out) {
  if (!ran) {
    out.ok = false;
    out.detail += "\nreplay: " + ReplayCommand(cfg);
    return;
  }
  out.ok = out.report.ok() && mismatch.empty();
  if (!out.report.ok()) {
    out.detail = "online certification failed:\n" + out.report.ToString() +
                 "\nreplay: " + ReplayCommand(cfg);
  } else if (!mismatch.empty()) {
    out.detail = "replay oracle: the unpruned replay disagrees with the "
                 "online checker\n" + cfg.ToString() + "\n" + mismatch +
                 "replay: " + ReplayCommand(cfg);
  }
}

HistexResult RunSingle(const HistexConfig& cfg) {
  HistexResult out;
  DbOptions opts(cfg.engine);
  opts.seed = cfg.seed;
  opts.online_check = true;
  opts.online_check_prune_interval = cfg.checker_prune_interval;
  opts.record_history = true;  // HISTEX_DUMP prints it on failure
  Database db(opts);
  // Preload the even half of the keyspace so inserts and erases both have
  // live and absent targets.
  for (int i = 0; i < cfg.items; i += 2) {
    (void)db.Load(ItemName(static_cast<uint64_t>(i)), Value(0));
  }
  Rng rng(cfg.seed);
  int64_t value_counter = 0;
  std::map<TxnId, IsolationLevel> levels;
  const bool ran = RunLoop<Transaction>(
      cfg, rng,
      [&](IsolationLevel level) {
        BeginOptions bo;
        if (!cfg.txn_levels.empty()) bo.level = level;
        return db.Begin(bo);
      },
      [&] { (void)db.GarbageCollectVersions(); }, value_counter, levels,
      out);
  out.report = db.checker()->Report();
  out.stats = db.StatsSnapshot();
  out.history = db.HistorySnapshot();
  Finish(cfg, ran, ran ? ReplayMismatch(out.history, levels, out.report) : "",
         out);
  // HISTEX_DUMP=1 appends the full recorded history to the failure
  // account — the raw material for shrinking a failing seed by hand.
  if (!out.ok && std::getenv("HISTEX_DUMP") != nullptr) {
    out.detail += "\nhistory:\n" + out.history.ToString();
  }
  return out;
}

HistexResult RunSharded(const HistexConfig& cfg) {
  HistexResult out;
  ShardedDbOptions sopts(cfg.shards, cfg.engine);
  sopts.seed = cfg.seed;
  sopts.shard_options.online_check = true;
  sopts.shard_options.online_check_prune_interval = cfg.checker_prune_interval;
  sopts.shard_options.record_history = true;  // the atomicity oracle reads it
  ShardedDatabase db(sopts);
  for (int i = 0; i < cfg.items; i += 2) {
    (void)db.Load(ItemName(static_cast<uint64_t>(i)), Value(0));
  }
  Rng rng(cfg.seed);
  int64_t value_counter = 0;
  std::map<TxnId, IsolationLevel> levels;
  const bool ran = RunLoop<ShardedTransaction>(
      cfg, rng,
      [&](IsolationLevel level) -> Result<ShardedTransaction> {
        BeginOptions bo;
        if (!cfg.txn_levels.empty()) bo.level = level;
        return db.Begin(bo);
      },
      [&] { (void)db.GarbageCollectVersions(); }, value_counter, levels,
      out);
  out.report = db.CheckerReportAggregate();
  out.stats = db.StatsAggregate();
  out.cross_shard_commits = db.coordinator().stats().committed;
  // Cross-shard atomicity: a global id ends the same way in every shard
  // history that recorded it (bit 1: committed there, bit 2: aborted).
  // Each shard's history also goes through the replay oracle.
  std::map<TxnId, int> ends;
  std::string mismatch;
  for (int s = 0; s < cfg.shards; ++s) {
    const Database& shard = db.shard(s);
    const check::CheckerReport live = shard.checker()->Report();
    out.shard_violations.push_back(live.violations);
    const History history = shard.HistorySnapshot();
    for (const Action& a : history.actions()) {
      if (a.type == Action::Type::kCommit) ends[a.txn] |= 1;
      if (a.type == Action::Type::kAbort) ends[a.txn] |= 2;
    }
    if (!ran) continue;
    const std::string m = ReplayMismatch(history, levels, live);
    if (!m.empty()) mismatch += "shard " + std::to_string(s) + ":\n" + m;
  }
  for (const auto& [gid, end] : ends) {
    if (end == 3) ++out.torn_global_txns;
  }
  Finish(cfg, ran, mismatch, out);
  if (out.ok && out.torn_global_txns != 0) {
    out.ok = false;
    out.detail = std::to_string(out.torn_global_txns) +
                 " global transaction(s) committed on one shard and aborted "
                 "on another\nreplay: " + ReplayCommand(cfg);
  }
  return out;
}

}  // namespace

std::string HistexConfig::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << " engine=" << LevelToken(engine) << " mix=";
  if (txn_levels.empty()) {
    os << "-";
  } else {
    for (size_t i = 0; i < txn_levels.size(); ++i) {
      if (i > 0) os << ",";
      os << LevelToken(txn_levels[i]);
    }
  }
  os << " shards=" << shards << " sessions=" << sessions << " txns=" << txns
     << " items=" << items << " ops=" << max_ops << " prune="
     << checker_prune_interval;
  return os.str();
}

HistexResult RunHistex(const HistexConfig& config) {
  return config.shards > 1 ? RunSharded(config) : RunSingle(config);
}

IsolationLevel HistexLevelForTxn(const HistexConfig& config, uint64_t k) {
  if (config.txn_levels.empty()) return config.engine;
  return config.txn_levels[k % config.txn_levels.size()];
}

std::string LevelToken(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kDegree0:
      return "d0";
    case IsolationLevel::kReadUncommitted:
      return "ru";
    case IsolationLevel::kReadCommitted:
      return "rc";
    case IsolationLevel::kCursorStability:
      return "cs";
    case IsolationLevel::kRepeatableRead:
      return "rr";
    case IsolationLevel::kSerializable:
      return "ser";
    case IsolationLevel::kSnapshotIsolation:
      return "si";
    case IsolationLevel::kOracleReadConsistency:
      return "orc";
    case IsolationLevel::kSerializableSI:
      return "ssi";
  }
  return "?";
}

std::optional<IsolationLevel> ParseLevelToken(const std::string& token) {
  for (IsolationLevel l : AllEngineLevels()) {
    if (LevelToken(l) == token) return l;
  }
  return std::nullopt;
}

std::optional<std::vector<IsolationLevel>> ParseLevelMix(
    const std::string& spec) {
  std::vector<IsolationLevel> mix;
  if (spec.empty() || spec == "-") return mix;
  std::istringstream is(spec);
  std::string token;
  while (std::getline(is, token, ',')) {
    std::optional<IsolationLevel> l = ParseLevelToken(token);
    if (!l.has_value()) return std::nullopt;
    mix.push_back(*l);
  }
  return mix;
}

std::optional<HistexConfig> ParseHistexConfig(const std::string& spec) {
  HistexConfig cfg;
  std::string normalized = spec;
  for (char& c : normalized) {
    if (c == ';') c = ' ';
  }
  std::istringstream is(normalized);
  std::string pair;
  while (is >> pair) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    try {
      if (key == "seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "engine") {
        std::optional<IsolationLevel> l = ParseLevelToken(val);
        if (!l.has_value()) return std::nullopt;
        cfg.engine = *l;
      } else if (key == "mix") {
        std::optional<std::vector<IsolationLevel>> mix = ParseLevelMix(val);
        if (!mix.has_value()) return std::nullopt;
        cfg.txn_levels = std::move(*mix);
      } else if (key == "shards") {
        cfg.shards = std::stoi(val);
      } else if (key == "sessions") {
        cfg.sessions = std::stoi(val);
      } else if (key == "txns") {
        cfg.txns = std::stoi(val);
      } else if (key == "items") {
        cfg.items = std::stoi(val);
      } else if (key == "ops") {
        cfg.max_ops = std::stoi(val);
      } else if (key == "prune") {
        cfg.checker_prune_interval =
            static_cast<uint32_t>(std::stoul(val));
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (cfg.shards < 1 || cfg.sessions < 1 || cfg.txns < 0 || cfg.items < 1 ||
      cfg.max_ops < 1) {
    return std::nullopt;
  }
  return cfg;
}

std::string ReplayCommand(const HistexConfig& config) {
  return "HISTEX_REPLAY='" + config.ToString() +
         "' ./critique_tests --gtest_filter='HistexFuzz.Replay'";
}

}  // namespace critique
