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

Status CommitLog::SyncRoundLocked(std::unique_lock<std::mutex>& lk,
                                  uint64_t lsn) {
  if (options_.group_commit && lsn != 0 && syncing_) {
    // Park while another thread holds the token.  The round that covers
    // this LSN retires the entry and counts it; one that does not hands
    // the token over, and this wait leads the next round itself.
    parked_.push_back(lsn);
    sync_cv_.wait(lk, [&] {
      return !syncing_ || !dead_.ok() || durable_lsn_ >= lsn;
    });
    if (durable_lsn_ >= lsn) return Status::OK();
    if (!dead_.ok()) return dead_;  // retired by the round that died
    parked_.erase(std::find(parked_.begin(), parked_.end(), lsn));
  }
  sync_cv_.wait(lk, [&] { return !syncing_ || !dead_.ok(); });
  if (!dead_.ok()) return dead_;
  syncing_ = true;

  Status s;
  if (failpoint_ == WalFailpoint::kPreSync) {
    s = Status::Internal(
        "wal: crashed before sync (failpoint); unsynced records lost");
  } else {
    auto [staged_lsn, bytes] = writer_.StagePending();
    // The device write runs with `mu_` released: while this thread sleeps
    // on the (simulated) fsync, other sessions keep appending and parking
    // — the window group commit batches.  The token keeps the writer's
    // file exclusive.
    lk.unlock();
    {
      // Times the device write + (simulated) fsync, i.e. exactly the
      // window other sessions batch behind.
      obs::ScopedTimer t(fsync_hist_);
      s = writer_.WriteStaged(bytes, staged_lsn, options_.fsync_mode,
                              options_.fsync_latency);
    }
    lk.lock();
    ++stats_.syncs;
    if (s.ok()) durable_lsn_ = std::max(durable_lsn_, staged_lsn);
  }
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

Status CommitLog::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!dead_.ok()) return dead_;
  if (lsn == 0) {
    return Status::Internal("wal: WaitDurable on a failed append");
  }
  if (options_.fsync_mode == FsyncMode::kNone) {
    return Status::OK();  // ack-before-durable by configuration
  }
  // Single-commit mode does not piggyback: a record another committer's
  // round already covered still pays a full device round, the cost model
  // the --group-commit bench contrasts.
  if (options_.group_commit && durable_lsn_ >= lsn) return Status::OK();
  ++stats_.sync_waits;
  return SyncRoundLocked(lk, lsn);
}

Status CommitLog::SyncAll() {
  std::unique_lock<std::mutex> lk(mu_);
  return SyncRoundLocked(lk, 0);
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
