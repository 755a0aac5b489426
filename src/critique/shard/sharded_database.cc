#include "critique/shard/sharded_database.h"

#include <sys/stat.h>

#include <cerrno>
#include <map>
#include <set>
#include <utility>

#include "critique/wal/recovery.h"
#include "critique/wal/wal_writer.h"

namespace critique {
namespace {

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
    CheckOrDie(w.ok(), "could not create the coordinator log");
    AttachCoordinatorLog(std::move(w).value(), options);
  }
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
  // prepared participants come back in doubt with their locks re-taken,
  // and each log reports the 2PC votes it holds.
  TxnId id_floor = 1;
  std::vector<WalVotes> votes(static_cast<size_t>(options.num_shards));
  std::set<TxnId> in_doubt;
  db->shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    CRITIQUE_ASSIGN_OR_RETURN(
        std::unique_ptr<Database> shard,
        Database::Recover(ShardOptionsFor(options, i),
                          &votes[static_cast<size_t>(i)]));
    if (shard->wal_recovery().max_txn + 1 > id_floor) {
      id_floor = shard->wal_recovery().max_txn + 1;
    }
    for (TxnId gid : shard->engine().InDoubtTransactions()) {
      in_doubt.insert(gid);
    }
    db->shards_.push_back(std::move(shard));
  }

  // The commit rule decides every in-doubt global transaction from the
  // coordinator's records and the shards' votes; whatever it does not
  // prove committed is presumed aborted.  The id allocator also resumes
  // past every record, so a global id whose votes were lost is never
  // reused under its old record.
  const std::string coord_path = CoordinatorWalPath(options.wal_dir);
  CRITIQUE_ASSIGN_OR_RETURN(WalReadResult coord_wal,
                            WalReader::ReadFile(coord_path));
  for (const WalRecord& rec : coord_wal.records) {
    if (rec.txn + 1 > id_floor) id_floor = rec.txn + 1;
  }
  db->coordinator_.RestoreCommitted(
      CommittedInDoubt(coord_wal.records, votes, in_doubt));
  CRITIQUE_ASSIGN_OR_RETURN(
      WalWriter coord_writer,
      WalWriter::OpenForAppend(coord_path, coord_wal.valid_bytes,
                               options.shard_options.fsync_mode));
  db->AttachCoordinatorLog(std::move(coord_writer), options);

  db->next_gid_.store(id_floor, std::memory_order_relaxed);
  db->recovered_ = true;
  return db;
}

ShardedTransaction ShardedDatabase::Begin() { return Begin(BeginOptions{}); }

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
  return RunWithRetries(
      *retry_, execute_retries_,
      [&](TxnId first_attempt) -> Result<ShardedTransaction> {
        ShardedTransaction txn = Begin(opts);
        txn.seniority_ = first_attempt;  // handed to every shard it opens
        return txn;
      },
      body);
}

ShardedDatabase::RecoveryReport ShardedDatabase::RecoverInDoubt() {
  RecoveryReport rep;
  // gid -> (decision, participants resolved), for the coordinator's
  // recovery counters.
  std::map<TxnId, std::pair<bool, uint64_t>> resolved;
  for (auto& shard : shards_) {
    Engine& engine = shard->engine();
    for (TxnId gid : engine.InDoubtTransactions()) {
      // Presumed abort: only a reached commit point rolls forward.
      const bool commit = coordinator_.DecidedCommit(gid);
      Status s = commit ? engine.CommitPrepared(gid)
                        : engine.AbortPrepared(gid);
      if (!s.ok()) continue;  // raced with another resolver; nothing leaked
      ++(commit ? rep.committed : rep.aborted);
      auto& entry = resolved[gid];
      entry.first = commit;
      ++entry.second;
    }
  }
  // The resolutions' records are buffered, not synced: a crash that loses
  // one leaves the same durable votes and records behind, and the next
  // recovery decides the same way.
  for (const auto& [gid, outcome] : resolved) {
    coordinator_.ResolveInDoubt(gid, outcome.first, outcome.second);
  }
  return rep;
}

EngineStats ShardedDatabase::StatsAggregate() const {
  EngineStats total;
  for (const auto& shard : shards_) total += shard->StatsSnapshot();
  return total;
}

check::CheckerReport ShardedDatabase::CheckerReportAggregate() const {
  check::CheckerReport total;
  for (const auto& shard : shards_) {
    if (shard->checker() != nullptr) total += shard->checker()->Report();
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
      seniority_(other.seniority_),
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
    seniority_ = other.seniority_;
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
    // are resolvable against the votes and the coordinator log by id
    // alone.
    Database& site = db_->shard(shard);
    CRITIQUE_ASSIGN_OR_RETURN(Transaction t,
                              site.BeginWithId(gid_, BeginOptions{level_}));
    if (seniority_ != 0) site.engine().InheritSeniority(gid_, seniority_);
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

template <typename Op>
Status ShardedTransaction::OnShardOf(const ItemId& id, Op&& op) {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }
  CRITIQUE_ASSIGN_OR_RETURN(Transaction * part, Part(db_->ShardOf(id)));
  return ObservePartStatus(op(*part));
}

Result<std::optional<Row>> ShardedTransaction::Get(const ItemId& id) {
  std::optional<Row> out;
  CRITIQUE_RETURN_NOT_OK(OnShardOf(id, [&](Transaction& part) {
    CRITIQUE_ASSIGN_OR_RETURN(out, part.Get(id));
    return Status::OK();
  }));
  return out;
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
  return OnShardOf(id,
                   [&](Transaction& p) { return p.Put(id, std::move(row)); });
}

Status ShardedTransaction::Put(const ItemId& id, Value v) {
  return Put(id, Row::Scalar(std::move(v)));
}

Status ShardedTransaction::Insert(const ItemId& id, Row row) {
  return OnShardOf(
      id, [&](Transaction& p) { return p.Insert(id, std::move(row)); });
}

Status ShardedTransaction::Erase(const ItemId& id) {
  return OnShardOf(id, [&](Transaction& p) { return p.Erase(id); });
}

Status ShardedTransaction::Update(
    const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  return OnShardOf(id, [&](Transaction& p) { return p.Update(id, transform); });
}

Status ShardedTransaction::Commit() {
  if (!active_) {
    return Status::TransactionAborted("sharded transaction finished");
  }

  std::vector<TxnCoordinator::Participant> open;
  for (size_t shard = 0; shard < parts_.size(); ++shard) {
    auto& part = parts_[shard];
    if (part.has_value() && part->active()) {
      open.push_back({static_cast<uint32_t>(shard), &*part});
    }
  }

  if (open.empty()) {  // read-nothing transaction: trivially committed
    active_ = false;
    return Status::OK();
  }

  if (open.size() == 1) {
    // Single-shard fast path: the shard's own commit is the whole
    // protocol.  A cooperative `kWouldBlock` leaves the handle usable for
    // the schedule to retry, exactly like `Transaction::Commit`.
    Status s = open.front().txn->Commit();
    if (s.IsWouldBlock()) return s;
    active_ = false;
    if (s.ok()) {
      db_->single_shard_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }

  Status s = db_->coordinator_.Commit(gid_, open);
  // On success or global abort every participant handle is finished.  On a
  // "crash" (`kInternal`) prepared participants survive their handles: the
  // rollback below is refused engine-side and they stay in doubt for
  // RecoverInDoubt.
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
