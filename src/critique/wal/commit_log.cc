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

Status CommitLog::SyncRoundLocked(std::unique_lock<std::mutex>& lk) {
  if (failpoint_ == WalFailpoint::kPreSync) {
    dead_ = Status::Internal(
        "wal: crashed before sync (failpoint); unsynced records lost");
    return dead_;
  }
  auto [staged_lsn, bytes] = writer_.StagePending();
  // The device write runs with `mu_` released: while this thread sleeps
  // on the (simulated) fsync, other sessions keep appending — the window
  // group commit batches.  `syncing_` (held by the caller) keeps the
  // writer's file exclusive.
  lk.unlock();
  Status s;
  {
    // Times the device write + (simulated) fsync, i.e. exactly the window
    // other sessions batch behind.
    obs::ScopedTimer t(fsync_hist_);
    s = writer_.WriteStaged(bytes, staged_lsn, options_.fsync_mode,
                            options_.fsync_latency);
  }
  lk.lock();
  ++stats_.syncs;
  if (!s.ok()) {
    dead_ = s;
    return s;
  }
  if (staged_lsn > durable_lsn_) durable_lsn_ = staged_lsn;
  return Status::OK();
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

  if (!options_.group_commit) {
    // Single-commit discipline: every committer performs its own
    // physical sync, serialized at the device — one fsync per commit,
    // the throughput ceiling group commit exists to break.  (No
    // piggybacking: a record another committer's flush already covered
    // still pays a full device round here, which is the cost model the
    // --group-commit bench contrasts.)
    ++stats_.sync_waits;
    sync_cv_.wait(lk, [&] { return !syncing_ || !dead_.ok(); });
    if (!dead_.ok()) return dead_;
    syncing_ = true;
    Status s = SyncRoundLocked(lk);
    syncing_ = false;
    batch_hist_.Record(1);  // one committer per sync, by definition
    sync_cv_.notify_all();
    return s;
  }

  // Group commit.
  if (durable_lsn_ >= lsn) return Status::OK();
  if (syncing_) {
    // Follower: park on a future; some leader's round covers this LSN
    // (the record was appended before this call, so the next stage
    // includes it).  No device work on this thread.
    auto waiter = std::make_unique<Waiter>();
    waiter->lsn = lsn;
    std::future<Status> done = waiter->done.get_future();
    waiters_.push_back(std::move(waiter));
    ++stats_.sync_waits;
    lk.unlock();
    return done.get();
  }

  // Leader: batch everything appended so far into one write + one sync,
  // retire covered waiters, repeat until this LSN and every parked
  // follower are durable.
  syncing_ = true;
  ++stats_.sync_waits;
  Status s = Status::OK();
  while (true) {
    s = SyncRoundLocked(lk);
    uint64_t retired = 0;
    auto it = waiters_.begin();
    while (it != waiters_.end()) {
      if (!s.ok() || (*it)->lsn <= durable_lsn_) {
        (*it)->done.set_value(s);
        it = waiters_.erase(it);
        ++retired;
      } else {
        ++it;
      }
    }
    stats_.batched += retired;
    stats_.max_batch = std::max(stats_.max_batch, retired + 1);
    batch_hist_.Record(retired + 1);  // followers retired + the leader
    if (!s.ok()) break;
    if (waiters_.empty() && durable_lsn_ >= lsn) break;
  }
  syncing_ = false;
  sync_cv_.notify_all();
  return s;
}

Status CommitLog::SyncAll() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!dead_.ok()) return dead_;
  sync_cv_.wait(lk, [&] { return !syncing_ || !dead_.ok(); });
  if (!dead_.ok()) return dead_;
  syncing_ = true;
  Status s = SyncRoundLocked(lk);
  syncing_ = false;
  sync_cv_.notify_all();
  return s;
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
