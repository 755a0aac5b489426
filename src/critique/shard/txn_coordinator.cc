#include "critique/shard/txn_coordinator.h"

#include <ostream>

#include "critique/db/database.h"
#include "critique/wal/commit_log.h"

namespace critique {

std::string CoordinatorStats::ToString() const {
  return "started=" + std::to_string(started) +
         " committed=" + std::to_string(committed) +
         " aborted=" + std::to_string(aborted) +
         " prepare_failures=" + std::to_string(prepare_failures) +
         " crashes=" + std::to_string(crashes) +
         " recovered_commits=" + std::to_string(recovered_commits) +
         " recovered_aborts=" + std::to_string(recovered_aborts);
}

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats) {
  return os << stats.ToString();
}

Status TxnCoordinator::Commit(TxnId gid,
                              const std::vector<Participant>& parts) {
  CoordinatorFailpoint fp;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.started;
    fp = failpoint_;
  }

  // Phase 1.  Every participant validates and appends its vote, in shard
  // order, without waiting for its log device.  A refusal means the
  // refusing engine already rolled its participant back (or the
  // participant was already dead); everyone else must now abort too, and
  // nothing is awaited.  Otherwise the coordinator's record joins the
  // votes as the last log, and one overlapped wait makes them all
  // durable: the commit point costs one device round however many shards
  // take part.
  std::vector<CommitLog::DurableWait> waits;
  std::vector<size_t> voters;  // waits[k] was cast by parts[voters[k]]
  waits.reserve(parts.size() + 1);
  voters.reserve(parts.size());
  size_t prepared = 0;
  Status failure;
  uint64_t failures = 0;
  {
    obs::ScopedTimer t(prepare_hist_);
    for (; prepared < parts.size(); ++prepared) {
      Transaction* p = parts[prepared].txn;
      Result<std::optional<uint64_t>> vote = p->AppendVote();
      if (!vote.ok()) {
        failure = vote.status();
        failures = 1;
        break;
      }
      if (vote->has_value()) {
        waits.push_back({p->database().wal(), **vote, Status::OK()});
        voters.push_back(prepared);
      }
    }
    if (failure.ok()) {
      if (log_ != nullptr && fp != CoordinatorFailpoint::kBeforeDecision) {
        std::vector<uint32_t> shards;
        shards.reserve(parts.size());
        for (const Participant& p : parts) shards.push_back(p.shard);
        waits.push_back(
            {log_, log_->Append(WalRecord::Decision(gid, std::move(shards))),
             Status::OK()});
      }
      CommitLog::WaitDurableAll(waits);
    }
  }
  for (size_t k = 0; k < voters.size(); ++k) {
    if (waits[k].status.ok()) continue;
    // A vote whose log died never became durable: the participant stays
    // frozen in doubt, as a crash at this instant leaves it (the engine
    // refuses the rollback; the handle is finished).
    (void)parts[voters[k]].txn->Rollback();
    if (failure.ok()) failure = waits[k].status;
    ++failures;
  }
  if (!failure.ok()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.prepare_failures += failures;
      ++stats_.aborted;
    }
    // Global abort.  Prepared participants take the abort decision, whose
    // kAbort outranks any vote recovery finds; unprepared successors (and
    // the refuser, if its handle survived) roll back plainly.
    for (size_t j = 0; j < parts.size(); ++j) {
      Transaction* p = parts[j].txn;
      if (!p->active()) continue;
      (void)(j < prepared ? p->AbortPrepared() : p->Rollback());
    }
    return failure;
  }

  // Every vote is durable and no participant has heard the outcome — the
  // window the deterministic failpoint exposes to tests.
  if (in_doubt_hook_) in_doubt_hook_(gid);

  if (fp == CoordinatorFailpoint::kBeforeDecision) {
    return Crash(gid, "crashed before its record became durable");
  }
  if (waits.size() > voters.size() && !waits.back().status.ok()) {
    return Crash(gid, "log died before its record became durable (" +
                          waits.back().status.ToString() + ")");
  }
  if (fp == CoordinatorFailpoint::kAfterDecision) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      committed_.insert(gid);
    }
    return Crash(gid, "crashed after the commit point");
  }

  // Phase 2: the commit point is durable, so this only tells the
  // participants.  Each CommitPrepared buffers its slim kCommit and
  // publishes; none can refuse (prepared means pinned), and none syncs.
  {
    obs::ScopedTimer t(decision_hist_);
    for (const Participant& p : parts) {
      Status s = p.txn->CommitPrepared();
      if (s.ok()) continue;
      // A protocol bug worth surfacing loudly; the commit stands, and
      // RecoverInDoubt rolls the rest forward.
      std::lock_guard<std::mutex> lk(mu_);
      committed_.insert(gid);
      return Status::Internal("participant refused CommitPrepared for gid " +
                              std::to_string(gid) + ": " + s.ToString());
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.committed;
  return Status::OK();
}

Status TxnCoordinator::Crash(TxnId gid, const std::string& what) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.crashes;
  }
  return Status::Internal("coordinator " + what + " for gid " +
                          std::to_string(gid) + "; participants left in doubt");
}

bool TxnCoordinator::DecidedCommit(TxnId gid) const {
  std::lock_guard<std::mutex> lk(mu_);
  return committed_.count(gid) != 0;
}

void TxnCoordinator::ResolveInDoubt(TxnId gid, bool committed,
                                    uint64_t participants) {
  std::lock_guard<std::mutex> lk(mu_);
  committed_.erase(gid);
  if (committed) {
    stats_.recovered_commits += participants;
  } else {
    stats_.recovered_aborts += participants;
  }
}

void TxnCoordinator::AttachLog(CommitLog* log) {
  std::lock_guard<std::mutex> lk(mu_);
  log_ = log;
}

void TxnCoordinator::RestoreCommitted(std::set<TxnId> gids) {
  std::lock_guard<std::mutex> lk(mu_);
  committed_ = std::move(gids);
}

void TxnCoordinator::set_failpoint(CoordinatorFailpoint f) {
  std::lock_guard<std::mutex> lk(mu_);
  failpoint_ = f;
}

CoordinatorStats TxnCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void TxnCoordinator::RegisterMetrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) {
  reg.RegisterGauge(prefix + "started", [this] { return stats().started; });
  reg.RegisterGauge(prefix + "committed",
                    [this] { return stats().committed; });
  reg.RegisterGauge(prefix + "aborted", [this] { return stats().aborted; });
  reg.RegisterGauge(prefix + "prepare_failures",
                    [this] { return stats().prepare_failures; });
  reg.RegisterHistogram(prefix + "prepare_us", &prepare_hist_);
  reg.RegisterHistogram(prefix + "decision_us", &decision_hist_);
}

}  // namespace critique
