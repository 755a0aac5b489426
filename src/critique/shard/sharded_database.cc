#include "critique/shard/sharded_database.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "critique/wal/recovery.h"
#include "critique/wal/wal_writer.h"

namespace critique {
namespace {

// Contract violations on the facade are programming errors; fail fast with
// a diagnostic in every build type (same policy as `Database`).
void CheckOrDie(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "critique::ShardedDatabase contract violation: %s\n",
                 what);
    std::abort();
  }
}

std::string ShardWalPath(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard) + ".wal";
}

std::string CoordinatorWalPath(const std::string& dir) {
  return dir + "/coordinator.wal";
}

// mkdir -p (one level): the WAL directory must exist before any log file
// is opened inside it.  EEXIST is fine — crash/recover cycles reuse it.
bool EnsureWalDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return true;
  return errno == EEXIST;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedDatabase
// ---------------------------------------------------------------------------

ShardedDatabase::ShardedDatabase(const ShardedDbOptions& options, DeferShards)
    : router_(options.num_shards),
      retry_(options.retry_policy ? options.retry_policy
                                  : DefaultRetryPolicy()),
      rng_(options.seed) {
  CheckOrDie(options.num_shards >= 1, "num_shards must be >= 1");
  CheckOrDie(options.per_shard.empty() ||
                 options.per_shard.size() ==
                     static_cast<size_t>(options.num_shards),
             "per_shard options must match num_shards");
  if (!options.wal_dir.empty()) {
    CheckOrDie(EnsureWalDir(options.wal_dir),
               "could not create the WAL directory");
  }
}

DbOptions ShardedDatabase::ShardOptionsFor(const ShardedDbOptions& options,
                                           int i) {
  DbOptions o = options.per_shard.empty()
                    ? options.shard_options
                    : options.per_shard[static_cast<size_t>(i)];
  // Independent deterministic stream per shard, whatever the template's
  // seed was.
  o.seed = options.seed * 1000003u + static_cast<uint64_t>(i) + 1;
  if (!options.wal_dir.empty()) {
    o.wal_path = ShardWalPath(options.wal_dir, i);
  }
  return o;
}

void ShardedDatabase::AttachCoordinatorLog(WalWriter writer,
                                           const ShardedDbOptions& options) {
  CommitLog::Options lo;
  lo.group_commit = options.shard_options.group_commit;
  lo.fsync_mode = options.shard_options.fsync_mode;
  lo.fsync_latency = options.shard_options.fsync_latency;
  coord_log_ = std::make_unique<CommitLog>(std::move(writer), lo);
  coordinator_.AttachLog(coord_log_.get());
}

ShardedDatabase::ShardedDatabase(ShardedDbOptions options)
    : ShardedDatabase(options, DeferShards{}) {
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Database>(ShardOptionsFor(options, i)));
  }
  if (!options.wal_dir.empty()) {
    Result<WalWriter> w =
        WalWriter::Create(CoordinatorWalPath(options.wal_dir),
                          options.shard_options.fsync_mode);
    CheckOrDie(w.ok(), "could not create the coordinator decision log");
    AttachCoordinatorLog(std::move(w).value(), options);
  }
}

ShardedDatabase::~ShardedDatabase() {
  // Clean shutdown closes every decision: the shard logs sync the
  // participants' buffered commit records, the sweep appends the ends
  // they now cover, and only then does the coordinator log flush (its
  // member destructor runs before the shards').  A dead shard log keeps
  // its decisions open, exactly as a crash would.
  if (coord_log_ == nullptr) return;
  for (auto& shard : shards_) {
    if (shard->wal() != nullptr) (void)shard->wal()->SyncAll();
  }
  coordinator_.CloseCoveredDecisions();
}

Result<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Recover(
    ShardedDbOptions options) {
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument(
        "ShardedDatabase::Recover requires ShardedDbOptions::wal_dir");
  }
  auto db = std::unique_ptr<ShardedDatabase>(
      new ShardedDatabase(options, DeferShards{}));

  // Every shard replays its own redo log; committed effects come back,
  // prepared participants come back in doubt with their locks re-taken.
  TxnId id_floor = 1;
  db->shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    CRITIQUE_ASSIGN_OR_RETURN(Database shard,
                              Database::Recover(ShardOptionsFor(options, i)));
    if (shard.wal_recovery().max_txn + 1 > id_floor) {
      id_floor = shard.wal_recovery().max_txn + 1;
    }
    db->shards_.push_back(std::make_unique<Database>(std::move(shard)));
  }

  // The coordinator's decision table is rebuilt from the still-open
  // entries of its persistent log — a durable kDecision without a closing
  // kDecisionEnd is a commit some participant may not have heard about.
  const std::string coord_path = CoordinatorWalPath(options.wal_dir);
  CRITIQUE_ASSIGN_OR_RETURN(WalReadResult coord_wal,
                            WalReader::ReadFile(coord_path));
  std::map<TxnId, bool> decisions =
      ExtractCoordinatorDecisions(coord_wal.records);
  std::set<TxnId> in_doubt;
  for (const auto& shard : db->shards_) {
    for (TxnId gid : shard->engine().InDoubtTransactions()) {
      in_doubt.insert(gid);
    }
  }
  // An open decision no shard holds a participant in doubt for is applied
  // everywhere — every participant's commit replayed from its own log —
  // so it is closed now instead of lingering across restarts.  (A crash
  // between a participant log's sync and the sweep that would have
  // appended the end leaves exactly this.)
  std::vector<TxnId> applied;
  for (auto it = decisions.begin(); it != decisions.end();) {
    if (it->first + 1 > id_floor) id_floor = it->first + 1;
    if (in_doubt.count(it->first) != 0) {
      ++it;
      continue;
    }
    applied.push_back(it->first);
    it = decisions.erase(it);
  }
  db->coordinator_.RestoreDecisions(std::move(decisions));
  CRITIQUE_ASSIGN_OR_RETURN(
      WalWriter coord_writer,
      WalWriter::OpenForAppend(coord_path, coord_wal.valid_bytes,
                               options.shard_options.fsync_mode));
  db->AttachCoordinatorLog(std::move(coord_writer), options);
  for (TxnId gid : applied) {
    (void)db->coord_log_->Append(WalRecord::DecisionEnd(gid));
  }

  db->next_gid_.store(id_floor, std::memory_order_relaxed);
  db->recovered_ = true;
  return db;
}

ShardedTransaction ShardedDatabase::Begin() {
  TxnId gid = next_gid_.fetch_add(1, std::memory_order_relaxed);
  return ShardedTransaction(this, gid);
}

ShardedTransaction ShardedDatabase::Begin(const BeginOptions& opts) {
  TxnId gid = next_gid_.fetch_add(1, std::memory_order_relaxed);
  return ShardedTransaction(this, gid, opts.level);
}

Status ShardedDatabase::Execute(
    const std::function<Status(ShardedTransaction&)>& body) {
  return Execute(BeginOptions{}, body);
}

Status ShardedDatabase::Execute(
    const BeginOptions& opts,
    const std::function<Status(ShardedTransaction&)>& body) {
  for (int attempt = 1;; ++attempt) {
    ShardedTransaction txn = Begin(opts);
    Status s = body(txn);
    // A shard that refused the declared contract at first touch
    // (FailedPrecondition) can never honor it on a re-run: terminal.
    if (s.IsFailedPrecondition()) return s;
    if (s.ok() && txn.active()) s = txn.Commit();
    if (txn.active()) (void)txn.Rollback();
    if (s.ok()) return s;
    if (!retry_->RetryTransaction(s, attempt)) return s;
    execute_retries_.fetch_add(1, std::memory_order_relaxed);
    const auto delay = retry_->RetryDelay(attempt);
    if (delay > std::chrono::microseconds::zero()) {
      std::this_thread::sleep_for(delay);
    }
  }
}

ShardedDatabase::RecoveryReport ShardedDatabase::RecoverInDoubt() {
  RecoveryReport rep;
  // gid -> (decision, participants resolved) so the coordinator's log can
  // be cleaned up and its recovery counters updated per global txn.
  std::map<TxnId, std::pair<bool, uint64_t>> resolved;
  std::vector<CommitLog*> rolled_forward;  // shard logs holding new commits
  for (auto& shard : shards_) {
    Engine& engine = shard->engine();
    bool shard_rolled_forward = false;
    for (TxnId gid : engine.InDoubtTransactions()) {
      // Presumed abort: only an explicitly logged commit decision rolls an
      // in-doubt participant forward.
      const bool commit = coordinator_.DecisionFor(gid).value_or(false);
      Status s = commit ? engine.CommitPrepared(gid)
                        : engine.AbortPrepared(gid);
      if (commit && s.IsSerializationFailure()) {
        // A certifying participant re-validated at the decision and found
        // its dangerous structure completed while in doubt: it aborted
        // itself (terminal, nothing leaked).  The gid still resolves —
        // recovery must not spin on it — but the participant is an abort,
        // not a forward roll.
        ++rep.decision_aborts;
        coordinator_.CountDecisionAbort();
        resolved[gid].first = true;
        continue;
      }
      if (!s.ok()) continue;  // raced with another resolver; nothing leaked
      if (commit) {
        ++rep.committed;
        shard_rolled_forward = true;
      } else {
        ++rep.aborted;
      }
      auto& entry = resolved[gid];
      entry.first = commit;
      ++entry.second;
    }
    if (shard_rolled_forward && shard->wal() != nullptr) {
      rolled_forward.push_back(shard->wal());
    }
  }
  // CommitPrepared only buffers the participants' commit records, and no
  // kDecisionEnd may become durable before them: sync every shard that
  // rolled something forward before closing a decision.  A failed sync
  // keeps every decision open for the next recovery to re-resolve.
  bool synced = true;
  for (CommitLog* wal : rolled_forward) synced = wal->SyncAll().ok() && synced;
  for (const auto& [gid, outcome] : resolved) {
    coordinator_.CountRecovery(outcome.first, outcome.second);
    if (outcome.first && synced) coordinator_.ForgetDecision(gid);
  }
  return rep;
}

EngineStats ShardedDatabase::StatsAggregate() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    const EngineStats s = shard->StatsSnapshot();
    total.reads += s.reads;
    total.predicate_reads += s.predicate_reads;
    total.writes += s.writes;
    total.commits += s.commits;
    total.aborts += s.aborts;
    total.deadlock_aborts += s.deadlock_aborts;
    total.serialization_aborts += s.serialization_aborts;
    total.blocked_ops += s.blocked_ops;
    // The taxonomy breakdown sums like its aggregate — dropping it here
    // silently broke `fcw + ssi + in_doubt == serialization_aborts` at the
    // facade level.
    total.fcw_aborts += s.fcw_aborts;
    total.ssi_aborts += s.ssi_aborts;
    total.in_doubt_aborts += s.in_doubt_aborts;
  }
  return total;
}

check::CheckerReport ShardedDatabase::CheckerReportAggregate() const {
  check::CheckerReport total;
  for (const auto& shard : shards_) {
    const check::OnlineChecker* c = shard->checker();
    if (c == nullptr) continue;
    const check::CheckerReport r = c->Report();
    total.commits_certified += r.commits_certified;
    total.aborts_observed += r.aborts_observed;
    total.violations += r.violations;
    total.allowed_anomalies += r.allowed_anomalies;
    total.dirty_reads_allowed += r.dirty_reads_allowed;
    total.edges_added += r.edges_added;
    total.cycle_checks += r.cycle_checks;
    total.nodes_pruned += r.nodes_pruned;
    total.live_nodes += r.live_nodes;
    total.peak_live_nodes += r.peak_live_nodes;
    total.first_violations.insert(total.first_violations.end(),
                                  r.first_violations.begin(),
                                  r.first_violations.end());
  }
  return total;
}

size_t ShardedDatabase::GarbageCollectVersions() {
  size_t dropped = 0;
  for (const auto& shard : shards_) dropped += shard->GarbageCollectVersions();
  return dropped;
}

size_t ShardedDatabase::VersionCountAggregate() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->VersionCount();
  return n;
}

std::optional<Timestamp> ShardedDatabase::OldestOpenSnapshot() const {
  std::optional<Timestamp> oldest;
  for (const auto& shard : shards_) {
    std::optional<Timestamp> s = shard->OldestOpenSnapshot();
    if (s.has_value() && (!oldest.has_value() || *s < *oldest)) oldest = s;
  }
  return oldest;
}

Rng ShardedDatabase::ForkRng() {
  std::lock_guard<std::mutex> lk(rng_mu_);
  return Rng(rng_.Next());
}

// ---------------------------------------------------------------------------
// ShardedTransaction
// ---------------------------------------------------------------------------

ShardedTransaction::ShardedTransaction(ShardedDatabase* db, TxnId gid,
                                       std::optional<IsolationLevel> level)
    : db_(db), gid_(gid), active_(true), level_(level) {
  parts_.resize(static_cast<size_t>(db->num_shards()));
}

ShardedTransaction::ShardedTransaction(ShardedTransaction&& other) noexcept
    : db_(other.db_),
      gid_(other.gid_),
      active_(other.active_),
      level_(other.level_),
      parts_(std::move(other.parts_)) {
  other.db_ = nullptr;
  other.active_ = false;
  other.parts_.clear();
}

ShardedTransaction& ShardedTransaction::operator=(
    ShardedTransaction&& other) noexcept {
  if (this != &other) {
    AbortParts();
    db_ = other.db_;
    gid_ = other.gid_;
    active_ = other.active_;
    level_ = other.level_;
    parts_ = std::move(other.parts_);
    other.db_ = nullptr;
    other.active_ = false;
    other.parts_.clear();
  }
  return *this;
}

ShardedTransaction::~ShardedTransaction() { AbortParts(); }

void ShardedTransaction::AbortParts() {
  for (auto& part : parts_) {
    if (part.has_value() && part->active()) (void)part->Rollback();
  }
  active_ = false;
}

int ShardedTransaction::shards_touched() const {
  int n = 0;
  for (const auto& part : parts_) {
    if (part.has_value()) ++n;
  }
  return n;
}

Result<Transaction*> ShardedTransaction::Part(int shard) {
  auto& slot = parts_[static_cast<size_t>(shard)];
  if (!slot.has_value()) {
    // The same global id on every shard: each shard's history subscripts
    // the same global transaction identically, and in-doubt participants
    // are resolvable against the coordinator log by id alone.
    CRITIQUE_ASSIGN_OR_RETURN(
        Transaction t,
        db_->shard(shard).BeginWithId(gid_, BeginOptions{level_}));
    slot.emplace(std::move(t));
  }
  return &*slot;
}

Status ShardedTransaction::ObservePartStatus(Status s) {
  // A participant the engine already finished (deadlock victim,
  // serialization refusal, dead handle) dooms the global transaction:
  // abort everyone now so no half of it lingers.  `kWouldBlock` is not
  // terminal — the operation did nothing and may be retried.
  if (s.IsDeadlock() || s.IsSerializationFailure() ||
      s.IsTransactionAborted()) {
    AbortParts();
  }
  return s;
}

Result<std::optional<Row>> ShardedTransaction::Get(const ItemId& id) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  auto r = part->Get(id);
  if (!r.ok()) return ObservePartStatus(r.status());
  return r;
}

Result<Value> ShardedTransaction::GetScalar(const ItemId& id) {
  CRITIQUE_ASSIGN_OR_RETURN(std::optional<Row> row, Get(id));
  if (!row.has_value()) return Value();
  return row->scalar();
}

Result<std::vector<std::pair<ItemId, Row>>> ShardedTransaction::GetWhere(
    const std::string& name, const Predicate& pred) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  std::vector<std::pair<ItemId, Row>> out;
  for (int s = 0; s < db_->num_shards(); ++s) {
    CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(s));
    auto r = part->GetWhere(name, pred);
    if (!r.ok()) return ObservePartStatus(r.status());
    auto rows = std::move(r).value();
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

Status ShardedTransaction::Put(const ItemId& id, Row row) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  return ObservePartStatus(part->Put(id, std::move(row)));
}

Status ShardedTransaction::Put(const ItemId& id, Value v) {
  return Put(id, Row::Scalar(std::move(v)));
}

Status ShardedTransaction::Insert(const ItemId& id, Row row) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  return ObservePartStatus(part->Insert(id, std::move(row)));
}

Status ShardedTransaction::Erase(const ItemId& id) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  return ObservePartStatus(part->Erase(id));
}

Status ShardedTransaction::Update(
    const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  return ObservePartStatus(part->Update(id, transform));
}

Status ShardedTransaction::Commit() {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }

  std::vector<Transaction*> open;
  for (auto& part : parts_) {
    if (part.has_value() && part->active()) open.push_back(&*part);
  }

  if (open.empty()) {  // read-nothing transaction: trivially committed
    active_ = false;
    return Status::OK();
  }

  if (open.size() == 1) {
    // Single-shard fast path: the shard's own commit is the whole
    // protocol.  A cooperative `kWouldBlock` leaves the handle usable for
    // the schedule to retry, exactly like `Transaction::Commit`.
    Status s = open.front()->Commit();
    if (s.IsWouldBlock()) return s;
    active_ = false;
    if (s.ok()) {
      db_->single_shard_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }

  Status s = db_->coordinator_.Commit(gid_, open);
  // On success or global abort every participant handle is finished.  On a
  // failpoint "crash" (`kInternal`) prepared participants survive their
  // handles: the rollback below is refused engine-side and they stay in
  // doubt for RecoverInDoubt.
  AbortParts();
  return s;
}

Status ShardedTransaction::Rollback() {
  if (db_ == nullptr) {
    return Status::TransactionAborted("moved-from sharded transaction");
  }
  if (!active_) return Status::OK();
  AbortParts();
  return Status::OK();
}

}  // namespace critique
