#include "critique/shard/txn_coordinator.h"

#include <algorithm>
#include <ostream>

#include "critique/db/database.h"
#include "critique/wal/commit_log.h"

namespace critique {

std::string CoordinatorStats::ToString() const {
  return "started=" + std::to_string(started) +
         " committed=" + std::to_string(committed) +
         " aborted=" + std::to_string(aborted) +
         " prepare_failures=" + std::to_string(prepare_failures) +
         " decision_aborts=" + std::to_string(decision_aborts) +
         " crashes=" + std::to_string(crashes) +
         " recovered_commits=" + std::to_string(recovered_commits) +
         " recovered_aborts=" + std::to_string(recovered_aborts);
}

std::ostream& operator<<(std::ostream& os, const CoordinatorStats& stats) {
  return os << stats.ToString();
}

Status TxnCoordinator::Commit(TxnId gid,
                              const std::vector<Transaction*>& parts) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.started;
  }

  // Phase 1: prepare in shard order.  A refusal means the refusing engine
  // already rolled its participant back (or the participant was already
  // dead); everyone else must now abort too.
  {
    obs::ScopedTimer t(prepare_hist_);
    for (size_t i = 0; i < parts.size(); ++i) {
      Status s = parts[i]->Prepare();
      if (s.ok()) continue;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.prepare_failures;
      ++stats_.aborted;
      // Global abort.  Prepared predecessors take the abort decision;
      // unprepared successors (and the refuser, if its handle survived)
      // roll back plainly.  Presumed abort: nothing to log.
      for (size_t j = 0; j < i; ++j) (void)parts[j]->AbortPrepared();
      for (size_t j = i; j < parts.size(); ++j) {
        if (parts[j]->active()) (void)parts[j]->Rollback();
      }
      return s;
    }
  }

  // All participants are prepared (in doubt) and no decision exists yet —
  // the window the deterministic failpoint exposes to tests.
  if (in_doubt_hook_) in_doubt_hook_(gid);

  CoordinatorFailpoint fp;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fp = failpoint_;
    if (fp == CoordinatorFailpoint::kBeforeDecision) ++stats_.crashes;
  }
  if (fp == CoordinatorFailpoint::kBeforeDecision) {
    return Status::Internal(
        "coordinator crashed before logging a decision for gid " +
        std::to_string(gid) + "; participants left in doubt");
  }

  // Write-ahead: the commit decision becomes durable before the in-memory
  // table (which phase 2 and recovery readers consult) ever shows it.  A
  // failed append means the decision was never made — the log device died
  // first — so the coordinator "crashes" and presumed abort governs.
  if (log_ != nullptr) {
    Status ls = log_->AppendDurable(WalRecord::Decision(gid, true));
    if (!ls.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.crashes;
      return Status::Internal(
          "coordinator log died before the commit decision for gid " +
          std::to_string(gid) + " became durable (" + ls.ToString() +
          "); participants left in doubt");
    }
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    decisions_[gid] = true;
    if (fp == CoordinatorFailpoint::kAfterDecision) ++stats_.crashes;
  }
  if (fp == CoordinatorFailpoint::kAfterDecision) {
    return Status::Internal(
        "coordinator crashed after logging commit for gid " +
        std::to_string(gid) + "; participants left in doubt");
  }

  // Phase 2: deliver the decision.  A lock-scheduler participant can
  // never refuse here; a certifying (SSI) participant may answer
  // kSerializationFailure when its dangerous structure completed while in
  // doubt — it has already rolled itself back (an abort acknowledgement).
  // The *logged* decision is still commit, so every other participant
  // still receives CommitPrepared — exactly what crash recovery would do
  // with the same log — and the retryable refusal surfaces to the session
  // layer afterwards.  Anything but a serialization refusal is a protocol
  // bug worth surfacing loudly.
  //
  // No participant syncs here: the durable decision is the commit point.
  // Each participant log's appended LSN, read after its CommitPrepared,
  // bounds the commit record the decision's end must wait for.
  Status refusal = Status::OK();
  uint64_t refused = 0;
  uint64_t committed_parts = 0;
  std::vector<LogMark> marks;
  {
    obs::ScopedTimer t(decision_hist_);
    for (Transaction* p : parts) {
      const CommitLog* plog = p->database().wal();
      Status s = p->CommitPrepared();
      if (plog != nullptr) marks.push_back({plog, plog->appended_lsn()});
      if (s.ok()) {
        ++committed_parts;
        continue;
      }
      if (!s.IsSerializationFailure()) {
        return Status::Internal("participant refused CommitPrepared for gid " +
                                std::to_string(gid) + ": " + s.ToString());
      }
      if (refusal.ok()) refusal = s;
      ++refused;
    }
  }

  // All participants are terminal.  The durable entry closes only once
  // every participant's commit record is durable too: park it, and sweep
  // every parked entry the prepares of this round may have covered.
  std::lock_guard<std::mutex> lk(mu_);
  decisions_.erase(gid);  // all participants terminal; nothing left to recover
  if (log_ != nullptr) {
    pending_ends_.push_back({gid, std::move(marks)});
    CloseCoveredLocked();
  }
  if (!refusal.ok()) {
    stats_.decision_aborts += refused;
    ++stats_.aborted;
    if (committed_parts == 0) {
      // Nothing published anywhere: the global transaction is a clean
      // abort and the serialization refusal is safe to retry.
      return refusal;
    }
    // Some participants durably committed, the refusers aborted: the
    // decision was *partially applied*.  This must NOT surface as a
    // retryable status — the session layer's automatic retry would
    // silently re-apply the committed shards' effects.  Like a
    // coordinator crash, it surfaces as kInternal for the application to
    // reconcile (every participant is terminal; nothing is in doubt).
    return Status::Internal(
        "commit decision for gid " + std::to_string(gid) +
        " partially applied: " + std::to_string(committed_parts) +
        " participant(s) committed, " + std::to_string(refused) +
        " refused at the decision phase (" + refusal.ToString() +
        "); cross-shard atomicity was lost — do not blindly retry");
  }
  ++stats_.committed;
  return Status::OK();
}

std::optional<bool> TxnCoordinator::DecisionFor(TxnId gid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = decisions_.find(gid);
  if (it == decisions_.end()) return std::nullopt;
  return it->second;
}

void TxnCoordinator::ForgetDecision(TxnId gid) {
  if (log_ != nullptr) (void)log_->Append(WalRecord::DecisionEnd(gid));
  std::lock_guard<std::mutex> lk(mu_);
  decisions_.erase(gid);
}

void TxnCoordinator::CloseCoveredDecisions() {
  std::lock_guard<std::mutex> lk(mu_);
  CloseCoveredLocked();
}

void TxnCoordinator::CloseCoveredLocked() {
  if (log_ == nullptr) return;
  auto covered = [](const PendingEnd& e) {
    return std::all_of(e.marks.begin(), e.marks.end(), [](const LogMark& m) {
      return m.log->durable_lsn() >= m.lsn;
    });
  };
  for (auto it = pending_ends_.begin(); it != pending_ends_.end();) {
    if (!covered(*it)) {
      ++it;
      continue;
    }
    // Buffered, not synced: it reaches the device with the next decision.
    (void)log_->Append(WalRecord::DecisionEnd(it->gid));
    it = pending_ends_.erase(it);
  }
}

size_t TxnCoordinator::pending_ends() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_ends_.size();
}

void TxnCoordinator::AttachLog(WalSink* log) {
  std::lock_guard<std::mutex> lk(mu_);
  log_ = log;
}

void TxnCoordinator::RestoreDecisions(std::map<TxnId, bool> decisions) {
  std::lock_guard<std::mutex> lk(mu_);
  decisions_ = std::move(decisions);
}

void TxnCoordinator::CountRecovery(bool committed, uint64_t participants) {
  std::lock_guard<std::mutex> lk(mu_);
  if (committed) {
    stats_.recovered_commits += participants;
  } else {
    stats_.recovered_aborts += participants;
  }
}

void TxnCoordinator::CountDecisionAbort() {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.decision_aborts;
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
  reg.RegisterGauge(prefix + "decision_aborts",
                    [this] { return stats().decision_aborts; });
  reg.RegisterGauge(prefix + "pending_ends", [this] {
    return static_cast<uint64_t>(pending_ends());
  });
  reg.RegisterHistogram(prefix + "prepare_us", &prepare_hist_);
  reg.RegisterHistogram(prefix + "decision_us", &decision_hist_);
}

}  // namespace critique
