#include "critique/sched/session_executor.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace critique {

std::string SessionExecutorStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "submitted=%llu completed=%llu committed=%llu failed=%llu "
                "steps=%llu parks=%llu wakeups=%llu retries=%llu "
                "steals=%llu peak_open_sessions=%llu",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(parks),
                static_cast<unsigned long long>(wakeups),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(steals),
                static_cast<unsigned long long>(peak_open_sessions));
  return buf;
}

std::ostream& operator<<(std::ostream& os, const SessionExecutorStats& stats) {
  return os << stats.ToString();
}

SessionExecutor::SessionExecutor(Database& db, SessionExecutorOptions options)
    : db_(db), options_(options) {
  CheckOrDie(db_.mode() == ConcurrencyMode::kCooperative,
             "the executor multiplexes cooperative sessions; a kBlocking "
             "database parks OS threads instead");
  CheckOrDie(db_.open_transactions() == 0,
             "executor attached to a database with open transactions");
  // A policy that re-issues blocked operations would spin inside the
  // step instead of surfacing kWouldBlock for the park/wakeup path.
  CheckOrDie(!db_.retry_policy().RetryBlockedOp(1),
             "the retry policy must not retry blocked operations "
             "(kWouldBlock is the executor's park signal)");
  options_.workers = std::max(1, options_.workers);
  paused_.store(options_.start_paused, std::memory_order_release);
  db_.SetLockWakeupHook([this](TxnId txn) { Wake(txn); });
  {
    obs::MetricsRegistry& reg = db_.metrics();
    reg.RegisterGauge("executor.submitted",
                      [this] { return stats().submitted; });
    reg.RegisterGauge("executor.completed",
                      [this] { return stats().completed; });
    reg.RegisterGauge("executor.committed",
                      [this] { return stats().committed; });
    reg.RegisterGauge("executor.parks", [this] { return stats().parks; });
    reg.RegisterGauge("executor.wakeups", [this] { return stats().wakeups; });
    reg.RegisterGauge("executor.retries", [this] { return stats().retries; });
    reg.RegisterGauge("executor.steals", [this] { return stats().steals; });
    reg.RegisterGauge("executor.peak_open_sessions",
                      [this] { return stats().peak_open_sessions; });
    reg.RegisterGauge("executor.ready_queue_depth",
                      [this] { return ready_queue_depth(); });
    reg.RegisterHistogram("executor.step_us", &step_hist_);
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < options_.workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

SessionExecutor::~SessionExecutor() {
  stop_.store(true, std::memory_order_release);
  NotifySleepers(/*all=*/true);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Unfinished sessions: forget their wakeup targets first, then let the
  // Transaction destructors roll everything back.  Rollbacks fire the
  // wakeup hook (lock releases), which now finds an empty index — safe,
  // because `this` still exists and `Wake` on an unknown id is a no-op.
  {
    std::lock_guard<std::mutex> il(index_mu_);
    txn_index_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    tasks_.clear();
  }
  // Every session is closed now, so the facade accepts the reset.
  db_.SetLockWakeupHook(nullptr);
  // The registry outlives the executor; its entries must not.
  db_.metrics().Unregister("executor.");
}

uint64_t SessionExecutor::Submit(uint64_t num_steps, StepFn step, DoneFn done) {
  auto owned = std::make_unique<SessionTask>();
  owned->num_steps = num_steps;
  owned->step = std::move(step);
  owned->done = std::move(done);
  SessionTask* task = owned.get();
  {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    task->id = next_task_id_++;
    tasks_.emplace(task->id, std::move(owned));
  }
  // `Push` hands the task to the workers: one may run, finish, and free
  // it before this function returns, so nothing may touch `task` after
  // the push — snapshot the id first.
  const uint64_t id = task->id;
  submitted_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> tl(task->mu);  // state is kReady already
    Push(task, static_cast<size_t>(id));
  }
  return id;
}

void SessionExecutor::Pause() {
  paused_.store(true, std::memory_order_release);
}

void SessionExecutor::Resume() {
  paused_.store(false, std::memory_order_release);
  NotifySleepers(/*all=*/true);
}

void SessionExecutor::Drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [&] {
    return completed_.load(std::memory_order_acquire) >=
           submitted_.load(std::memory_order_acquire);
  });
}

bool SessionExecutor::DrainFor(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(drain_mu_);
  return drain_cv_.wait_for(lk, timeout, [&] {
    return completed_.load(std::memory_order_acquire) >=
           submitted_.load(std::memory_order_acquire);
  });
}

SessionExecutorStats SessionExecutor::stats() const {
  SessionExecutorStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.committed = committed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.steps = steps_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.peak_open_sessions = peak_open_.load(std::memory_order_relaxed);
  return s;
}

void SessionExecutor::WorkerLoop(size_t wi) {
  while (!stop_.load(std::memory_order_acquire)) {
    SessionTask* task =
        paused_.load(std::memory_order_acquire) ? nullptr : PopTask(wi);
    if (task != nullptr) {
      RunTask(task, wi);
      continue;
    }
    // Nothing runnable: sleep until a push/timer/resume/stop.  The
    // re-checks under sleep_mu_ pair with the producers' empty critical
    // sections, so a notification can never slip between a check and the
    // wait — this loop has no fallback poll.
    std::unique_lock<std::mutex> sl(sleep_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    if (!paused_.load(std::memory_order_acquire)) {
      if (ready_count_.load(std::memory_order_acquire) > 0) continue;
      std::optional<std::chrono::steady_clock::time_point> deadline =
          NextTimerDeadline();
      if (deadline.has_value()) {
        sleep_cv_.wait_until(sl, *deadline);
        continue;
      }
    }
    sleep_cv_.wait(sl);
  }
}

SessionExecutor::SessionTask* SessionExecutor::PopTask(size_t wi) {
  Worker& mine = *workers_[wi];
  {
    std::lock_guard<std::mutex> wl(mine.mu);
    if (!mine.queue.empty()) {
      SessionTask* t = mine.queue.front();
      mine.queue.pop_front();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  // Work stealing: scan the other queues, taking from the back (the
  // "coldest" end — the owner drains the front).
  for (size_t i = 1; i < workers_.size(); ++i) {
    Worker& victim = *workers_[(wi + i) % workers_.size()];
    std::lock_guard<std::mutex> wl(victim.mu);
    if (!victim.queue.empty()) {
      SessionTask* t = victim.queue.back();
      victim.queue.pop_back();
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return PopDueTimer();
}

SessionExecutor::SessionTask* SessionExecutor::PopDueTimer() {
  std::lock_guard<std::mutex> tl(timer_mu_);
  if (timers_.empty() ||
      timers_.top().when > std::chrono::steady_clock::now()) {
    return nullptr;
  }
  SessionTask* t = timers_.top().task;
  timers_.pop();
  return t;
}

std::optional<std::chrono::steady_clock::time_point>
SessionExecutor::NextTimerDeadline() {
  std::lock_guard<std::mutex> tl(timer_mu_);
  if (timers_.empty()) return std::nullopt;
  return timers_.top().when;
}

void SessionExecutor::RunTask(SessionTask* task, size_t wi) {
  {
    std::lock_guard<std::mutex> tl(task->mu);
    task->state = TaskState::kRunning;
    task->wake_pending = false;  // re-run in progress: fold it in
  }
  if (!task->txn.has_value()) {
    task->txn.emplace(db_.Begin());
    task->txn_id = task->txn->id();
    {
      // Registered before the first step runs, so a park inside the step
      // always has a wakeup target.
      std::lock_guard<std::mutex> il(index_mu_);
      txn_index_[task->txn_id] = task;
    }
    if (!task->counted_begin) {
      task->counted_begin = true;
      first_begins_.fetch_add(1, std::memory_order_relaxed);
    }
    const uint64_t open = static_cast<uint64_t>(
        open_sessions_.fetch_add(1, std::memory_order_relaxed) + 1);
    uint64_t prev = peak_open_.load(std::memory_order_relaxed);
    while (open > prev && !peak_open_.compare_exchange_weak(
                              prev, open, std::memory_order_relaxed)) {
    }
  }
  Status s = Status::OK();
  for (;;) {
    if (task->next_step >= task->num_steps) {
      // Commit pass.  The barrier (clamped so it can never exceed what
      // was actually submitted) re-queues instead of committing until
      // enough sessions are open — at most one extra queue cycle per
      // unbegun session, since every dispatch of a fresh task opens it.
      const uint64_t barrier = std::min<uint64_t>(
          options_.commit_barrier, submitted_.load(std::memory_order_acquire));
      if (first_begins_.load(std::memory_order_acquire) < barrier) {
        std::lock_guard<std::mutex> tl(task->mu);
        task->state = TaskState::kReady;
        Push(task, wi);
        return;
      }
      s = task->txn->Commit();
      if (s.ok()) {
        FinishTask(task, s, /*committed=*/true);
        return;
      }
      break;
    }
    {
      obs::ScopedTimer t(step_hist_);
      s = task->step(*task->txn, task->next_step);
    }
    if (!s.ok()) break;
    steps_.fetch_add(1, std::memory_order_relaxed);
    ++task->next_step;
    if (options_.yield_every_step) {
      std::lock_guard<std::mutex> tl(task->mu);
      task->state = TaskState::kReady;
      Push(task, wi);
      return;
    }
  }
  if (s.IsWouldBlock()) {
    Park(task);
    return;
  }
  if (s.IsDeadlock() || s.IsSerializationFailure()) {
    HandleRetryableAbort(task, s, wi);
    return;
  }
  FinishTask(task, s, /*committed=*/false);
}

void SessionExecutor::Park(SessionTask* task) {
  parks_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TxnTracer* tracer = db_.tracer()) {
    tracer->Record(task->txn_id, obs::TraceEventType::kPark);
  }
  // The park decision and any concurrent wakeup serialize on the task
  // mutex: a wakeup that raced the tail of the step is sitting in
  // wake_pending and converts the park into an immediate re-queue, so it
  // cannot be lost; one that arrives after we set kParked re-queues the
  // task itself (see Wake).
  std::lock_guard<std::mutex> tl(task->mu);
  if (task->wake_pending) {
    task->wake_pending = false;
    task->state = TaskState::kReady;
    Push(task, static_cast<size_t>(task->id));
  } else {
    task->state = TaskState::kParked;
  }
}

void SessionExecutor::Wake(TxnId txn) {
  // Runs on whichever thread released the conflicting lock — possibly a
  // worker mid-RunTask, possibly the destructor's rollback sweep.  The
  // whole body stays under index_mu_: FinishTask deregisters under it
  // before destroying a task, so a found pointer cannot dangle.
  std::lock_guard<std::mutex> il(index_mu_);
  auto it = txn_index_.find(txn);
  if (it == txn_index_.end()) return;
  SessionTask* task = it->second;
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TxnTracer* tracer = db_.tracer()) {
    tracer->Record(txn, obs::TraceEventType::kWakeup);
  }
  std::lock_guard<std::mutex> tl(task->mu);
  if (task->state == TaskState::kParked) {
    task->state = TaskState::kReady;
    Push(task, static_cast<size_t>(task->id));
  } else {
    // Still running (or already re-queued): remember the wakeup so a
    // park decision in flight consumes it instead of sleeping through it.
    task->wake_pending = true;
  }
}

void SessionExecutor::HandleRetryableAbort(SessionTask* task, const Status& s,
                                           size_t wi) {
  {
    std::lock_guard<std::mutex> il(index_mu_);
    txn_index_.erase(task->txn_id);
  }
  task->txn_id = 0;
  if (task->txn->active()) (void)task->txn->Rollback();
  task->txn.reset();  // ReleaseAll inside wakes whoever we blocked
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  ++task->attempt;
  const RetryPolicy& policy = db_.retry_policy();
  if (!policy.ShouldRestart(s, task->attempt)) {
    FinishTask(task, s, /*committed=*/false);
    return;
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  task->next_step = 0;
  const std::chrono::microseconds delay = policy.RetryDelay(task->attempt);
  if (delay > std::chrono::microseconds::zero()) {
    {
      std::lock_guard<std::mutex> tl(task->mu);
      task->state = TaskState::kReady;
    }
    // Only the timer heap holds the task now (its transaction is gone, so
    // no wakeup can target it); a worker re-runs it when the delay ends.
    ScheduleRetry(task, delay);
  } else {
    std::lock_guard<std::mutex> tl(task->mu);
    task->state = TaskState::kReady;
    Push(task, wi);
  }
}

void SessionExecutor::FinishTask(SessionTask* task, const Status& s,
                                 bool committed) {
  if (task->txn_id != 0) {
    std::lock_guard<std::mutex> il(index_mu_);
    txn_index_.erase(task->txn_id);
    task->txn_id = 0;
  }
  if (task->txn.has_value()) {
    if (task->txn->active()) (void)task->txn->Rollback();
    task->txn.reset();
    open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (committed) {
    committed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t id = task->id;
  DoneFn done = std::move(task->done);
  {
    std::lock_guard<std::mutex> lk(tasks_mu_);
    tasks_.erase(id);  // destroys the task; `task` is dead past here
  }
  // The done callback runs before the completion count ticks, so `Drain`
  // returning guarantees every callback has finished — callers may tear
  // down whatever the callbacks touch as soon as Drain returns.
  if (done) done(id, s);
  completed_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section: pairs with the Drain predicate check so the
    // increment above cannot slip between a check and the wait.
    std::lock_guard<std::mutex> dl(drain_mu_);
  }
  drain_cv_.notify_all();
}

void SessionExecutor::Push(SessionTask* task, size_t wi) {
  // Caller holds task->mu with state already kReady — the task becomes
  // claimable the instant the queue mutex drops, and the claimant's first
  // action (locking task->mu in RunTask) serializes after us.
  wi %= workers_.size();
  {
    std::lock_guard<std::mutex> wl(workers_[wi]->mu);
    workers_[wi]->queue.push_back(task);
  }
  ready_count_.fetch_add(1, std::memory_order_release);
  NotifySleepers(/*all=*/false);
}

void SessionExecutor::ScheduleRetry(SessionTask* task,
                                    std::chrono::microseconds delay) {
  {
    std::lock_guard<std::mutex> tl(timer_mu_);
    timers_.push(TimerEntry{std::chrono::steady_clock::now() + delay, task});
  }
  // All sleepers: the earliest deadline may have moved, and which worker
  // computed its wait against the old one is unknowable.
  NotifySleepers(/*all=*/true);
}

void SessionExecutor::NotifySleepers(bool all) {
  // The empty critical section makes the producer's state change visible
  // to any sleeper between its predicate check and its wait.
  { std::lock_guard<std::mutex> sl(sleep_mu_); }
  if (all) {
    sleep_cv_.notify_all();
  } else {
    sleep_cv_.notify_one();
  }
}

}  // namespace critique
