#include "critique/wal/commit_log.h"

#include <algorithm>
#include <ostream>

namespace critique {

std::string GroupCommitStats::ToString() const {
  return "appends=" + std::to_string(appends) +
         " syncs=" + std::to_string(syncs) +
         " sync_waits=" + std::to_string(sync_waits) +
         " batched=" + std::to_string(batched) +
         " max_batch=" + std::to_string(max_batch);
}

std::ostream& operator<<(std::ostream& os, const GroupCommitStats& stats) {
  return os << stats.ToString();
}

CommitLog::~CommitLog() {
  // A live log going away is a clean shutdown; a dead one already holds
  // exactly the crash-durable prefix and must stay that way.
  (void)SyncAll();
}

uint64_t CommitLog::Append(const WalRecord& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!dead_.ok()) return 0;
  if (failpoint_ == WalFailpoint::kPreAppend) {
    dead_ = Status::Internal(
        "wal: crashed before append (failpoint); record was never logged");
    return 0;
  }
  ++stats_.appends;
  return writer_.Append(rec);
}

CommitLog::Step CommitLog::BeginWaitLocked(std::unique_lock<std::mutex>& lk,
                                           uint64_t lsn, Status* s) {
  if (!dead_.ok()) {
    *s = dead_;
    return Step::kDone;
  }
  if (lsn == 0) {
    *s = Status::Internal("wal: WaitDurable on a failed append");
    return Step::kDone;
  }
  // Ack-before-durable by configuration; and single-commit mode does not
  // piggyback: a record another committer's round already covered still
  // pays a full device round, the cost model the --group-commit bench
  // contrasts.
  if (options_.fsync_mode == FsyncMode::kNone ||
      (options_.group_commit && durable_lsn_ >= lsn)) {
    *s = Status::OK();
    return Step::kDone;
  }
  ++stats_.sync_waits;
  if (syncing_) {
    // Another thread holds the token.  A group-mode wait parks: the round
    // that covers this LSN retires the entry and counts it.
    if (options_.group_commit) parked_.push_back(lsn);
    return Step::kParked;
  }
  return BeginRoundLocked(lk, lsn, s) ? Step::kInRound : Step::kDone;
}

bool CommitLog::BeginRoundLocked(std::unique_lock<std::mutex>& lk,
                                 uint64_t lsn, Status* s) {
  syncing_ = true;
  if (failpoint_ == WalFailpoint::kPreSync) {
    *s = FinishRoundLocked(
        lsn, Status::Internal(
                 "wal: crashed before sync (failpoint); unsynced records lost"));
    return false;
  }
  auto [staged_lsn, bytes] = writer_.StagePending();
  // The device write runs with `mu_` released: while the device is busy,
  // other sessions keep appending and parking — the window group commit
  // batches.  The token keeps the writer's file exclusive.
  lk.unlock();
  round_start_ = std::chrono::steady_clock::now();
  Status submitted = writer_.SubmitStaged(
      bytes, staged_lsn, options_.fsync_mode, options_.fsync_latency);
  lk.lock();
  ++stats_.syncs;
  if (!submitted.ok()) {
    *s = FinishRoundLocked(lsn, submitted);
    return false;
  }
  return true;
}

Status CommitLog::EndRoundLocked(std::unique_lock<std::mutex>& lk,
                                 uint64_t lsn) {
  // The token holder alone touches the writer's file and `round_start_`.
  lk.unlock();
  Status s = writer_.CompleteStaged();
  const uint64_t covered = writer_.durable_lsn();
  fsync_hist_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - round_start_)
          .count()));
  lk.lock();
  if (s.ok()) durable_lsn_ = std::max(durable_lsn_, covered);
  return FinishRoundLocked(lsn, s);
}

Status CommitLog::FinishRoundLocked(uint64_t lsn, Status s) {
  if (!s.ok()) dead_ = s;
  // Retire every parked wait this round covered — all of them once the
  // log is dead, since no round will ever run again.
  const size_t parked = parked_.size();
  parked_.erase(std::remove_if(parked_.begin(), parked_.end(),
                               [&](uint64_t p) {
                                 return !dead_.ok() || p <= durable_lsn_;
                               }),
                parked_.end());
  const uint64_t retired = parked - parked_.size();
  const uint64_t batch = retired + (lsn != 0 ? 1 : 0);
  stats_.batched += retired;
  if (batch > 0) batch_hist_.Record(batch);
  // Single-commit rounds are not batches: max_batch stays 0 there.
  if (options_.group_commit) {
    stats_.max_batch = std::max(stats_.max_batch, batch);
  }
  syncing_ = false;
  sync_cv_.notify_all();
  return s;
}

Status CommitLog::AwaitParkedLocked(std::unique_lock<std::mutex>& lk,
                                    uint64_t lsn) {
  if (options_.group_commit) {
    sync_cv_.wait(lk, [&] {
      return !syncing_ || !dead_.ok() || durable_lsn_ >= lsn;
    });
    if (durable_lsn_ >= lsn) return Status::OK();
    if (!dead_.ok()) return dead_;  // retired by the round that died
    // The round missed this LSN and handed the token over: lead the next.
    parked_.erase(std::find(parked_.begin(), parked_.end(), lsn));
  }
  return LeadRoundLocked(lk, lsn);
}

Status CommitLog::LeadRoundLocked(std::unique_lock<std::mutex>& lk,
                                  uint64_t lsn) {
  sync_cv_.wait(lk, [&] { return !syncing_ || !dead_.ok(); });
  if (!dead_.ok()) return dead_;
  Status s;
  if (!BeginRoundLocked(lk, lsn, &s)) return s;
  return EndRoundLocked(lk, lsn);
}

Status CommitLog::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  Status s;
  const Step step = BeginWaitLocked(lk, lsn, &s);
  if (step == Step::kInRound) return EndRoundLocked(lk, lsn);
  if (step == Step::kParked) return AwaitParkedLocked(lk, lsn);
  return s;
}

void CommitLog::WaitDurableAll(std::vector<DurableWait>& waits) {
  // Begin, in the caller's order: each wait takes its log's free token and
  // submits a round, or parks without blocking.
  for (DurableWait& w : waits) {
    std::unique_lock<std::mutex> lk(w.log->mu_);
    w.step = w.log->BeginWaitLocked(lk, w.lsn, &w.status);
  }
  // End the submitted rounds, whose devices ran side by side.  Ending a
  // round waits only for its device, never for a token.
  for (DurableWait& w : waits) {
    if (w.step != Step::kInRound) continue;
    std::unique_lock<std::mutex> lk(w.log->mu_);
    w.status = w.log->EndRoundLocked(lk, w.lsn);
  }
  // Only now, holding no token, wait out the parked ones.
  for (DurableWait& w : waits) {
    if (w.step != Step::kParked) continue;
    std::unique_lock<std::mutex> lk(w.log->mu_);
    w.status = w.log->AwaitParkedLocked(lk, w.lsn);
  }
}

Status CommitLog::SyncAll() {
  std::unique_lock<std::mutex> lk(mu_);
  return LeadRoundLocked(lk, 0);
}

uint64_t CommitLog::appended_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return writer_.appended_lsn();
}

uint64_t CommitLog::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (dead_.ok() && options_.fsync_mode == FsyncMode::kNone) {
    return writer_.appended_lsn();
  }
  return durable_lsn_;
}

void CommitLog::set_failpoint(WalFailpoint f) {
  std::lock_guard<std::mutex> lk(mu_);
  failpoint_ = f;
}

GroupCommitStats CommitLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void CommitLog::RegisterMetrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) {
  reg.RegisterGauge(prefix + "appends", [this] { return stats().appends; });
  reg.RegisterGauge(prefix + "syncs", [this] { return stats().syncs; });
  reg.RegisterGauge(prefix + "sync_waits",
                    [this] { return stats().sync_waits; });
  reg.RegisterGauge(prefix + "batched", [this] { return stats().batched; });
  reg.RegisterGauge(prefix + "max_batch",
                    [this] { return stats().max_batch; });
  reg.RegisterHistogram(prefix + "fsync_us", &fsync_hist_);
  reg.RegisterHistogram(prefix + "batch_size", &batch_hist_);
}

}  // namespace critique
