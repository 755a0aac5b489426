#ifndef CRITIQUE_SCHED_SESSION_EXECUTOR_H_
#define CRITIQUE_SCHED_SESSION_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "critique/common/status.h"
#include "critique/db/database.h"
#include "critique/obs/metrics.h"

namespace critique {

/// \brief Configuration of a `SessionExecutor`.
struct SessionExecutorOptions {
  /// Worker threads the open sessions are multiplexed onto.  The whole
  /// point of the executor is that this stays small (the C10K shape: 100k
  /// open sessions over <= 8 workers); clamped to >= 1.
  int workers = 4;

  /// When true (the default), a session yields back to its run queue
  /// after every successful step, so long transaction bodies cannot
  /// monopolize a worker.  False runs a session's remaining steps (and
  /// its commit) to completion in one dispatch — fewer queue round trips,
  /// coarser fairness.
  bool yield_every_step = true;

  /// Start with dispatch paused (`Resume` releases the workers): lets a
  /// caller submit a large batch and measure from a common starting gun.
  bool start_paused = false;

  /// When nonzero, a session that has finished its steps is re-queued
  /// instead of committed until that many sessions have begun (clamped to
  /// the number submitted so far, so it can never wedge the executor).
  /// This is the "hold the doors" knob benchmarks use to guarantee the
  /// advertised number of sessions is genuinely open *simultaneously*
  /// before the first commit; leave at 0 for normal operation.
  uint64_t commit_barrier = 0;
};

/// Monotonic counters describing what an executor has done so far.
struct SessionExecutorStats {
  uint64_t submitted = 0;   ///< sessions handed to `Submit`
  uint64_t completed = 0;   ///< sessions finished (committed or failed)
  uint64_t committed = 0;   ///< sessions that committed
  uint64_t failed = 0;      ///< sessions that ended in a non-retryable error
  uint64_t steps = 0;       ///< successful step executions
  uint64_t parks = 0;       ///< sessions parked on `kWouldBlock`
  uint64_t wakeups = 0;     ///< lock-release wakeups delivered to sessions
  uint64_t retries = 0;     ///< whole-session restarts after retryable aborts
  uint64_t steals = 0;      ///< tasks taken from another worker's queue
  uint64_t peak_open_sessions = 0;  ///< max simultaneously open transactions

  /// One line: "submitted=100000 completed=100000 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const SessionExecutorStats& stats);

/// \brief Multiplexes many open transactions onto a few worker threads.
///
/// Every open session used to cost an OS thread (the `kBlocking` model),
/// which caps "heavy traffic" experiments at a few dozen transactions.
/// The executor instead drives `ConcurrencyMode::kCooperative` sessions as
/// resumable tasks: a session's body is a step function invoked with its
/// `Transaction` and a step index, and after each step the task yields
/// back to a per-worker run queue (work stealing keeps the workers busy).
/// A step answered `kWouldBlock` *parks* the session — no thread waits on
/// it — and the lock manager's grant hook (`Database::SetLockWakeupHook`)
/// re-enqueues it the moment a release grants its queued lock request;
/// there is no polling anywhere on the lock-wait path.  Grant order is
/// FIFO per contended item (the lock manager grants the oldest queued
/// request first), so a hot key cannot starve parked sessions.  Retryable aborts — deadlock victim, First-Committer-Wins /
/// SSI refusal — roll the session back and re-submit it through the
/// database's `RetryPolicy` (honoring `RetryDelay` via a timer, not a
/// sleeping worker).  Commits compose with group commit naturally: the
/// workers that reach `Commit` together share one physical sync at the
/// `CommitLog` batch boundary.
///
/// Contracts:
///  * the database must be `kCooperative` with no open transactions, and
///    its retry policy must not spin on blocked operations
///    (`RetryBlockedOp(1)` false — the default policy qualifies); the
///    constructor aborts otherwise and installs the wakeup hook, which the
///    destructor removes;
///  * the executor owns the database's lock-wakeup hook and should be the
///    only thing driving sessions while it lives (external cooperative
///    sessions are safe but wake nobody when they block);
///  * step functions must be *resumable*: a step that failed with
///    `kWouldBlock` is re-invoked with the same index after the wakeup,
///    so each step must tolerate re-execution from its start (re-reading
///    is naturally idempotent; re-acquiring a lock the session already
///    holds is a no-op).  Steps run on whichever worker dequeued the task
///    — one thread at a time, never two, which is exactly the
///    `Transaction` thread contract;
///  * `done` callbacks and step functions run on worker threads and must
///    not call back into the executor's blocking APIs (`Drain`, the
///    destructor), though `Submit` from inside a step is allowed.
class SessionExecutor {
 public:
  /// A session body: invoked once per step with the session's transaction
  /// and the 0-based step index; `num_steps` successful steps are
  /// followed by an executor-driven `Commit`.  Return `kWouldBlock` to
  /// park (engines do this for you), any other error to finish the
  /// session (retryable errors restart it per the `RetryPolicy`).
  using StepFn = std::function<Status(Transaction&, uint64_t step)>;

  /// Completion callback: session id + final status (OK iff committed).
  using DoneFn = std::function<void(uint64_t id, const Status&)>;

  /// Installs the wakeup hook and starts the workers.  `db` must outlive
  /// the executor.
  explicit SessionExecutor(Database& db, SessionExecutorOptions options = {});

  /// Rolls back every unfinished session, joins the workers, and removes
  /// the wakeup hook.  Prefer draining first; destruction mid-flight is
  /// safe but abandons unfinished sessions without their `done` calls.
  ~SessionExecutor();

  SessionExecutor(const SessionExecutor&) = delete;
  SessionExecutor& operator=(const SessionExecutor&) = delete;

  /// Enqueues a session of `num_steps` steps; returns its id (ids are
  /// 1-based and dense).  Safe from any thread, including worker threads.
  uint64_t Submit(uint64_t num_steps, StepFn step, DoneFn done = nullptr);

  /// Stop/resume dispatching (already-running steps finish).  `Resume`
  /// is the starting gun for `start_paused` executors.
  void Pause();
  void Resume();

  /// Blocks until every submitted session has completed — `done`
  /// callbacks included, so state they touch may be torn down on return.
  ///
  /// Sessions only complete while the executor is dispatching: `Drain`
  /// on a paused executor (including `start_paused` without `Resume`)
  /// blocks until some other thread resumes it — it never runs sessions
  /// itself.  Call `Resume` first, or use `DrainFor` when another thread
  /// owns the pause/resume schedule.
  void Drain();

  /// `Drain` with a deadline; true when everything completed in time.
  /// Same caveat as `Drain`: a paused executor makes no progress, so
  /// this returns false at the deadline unless someone resumes it.
  bool DrainFor(std::chrono::milliseconds timeout);

  /// Counter snapshot (cheap; safe any time).
  SessionExecutorStats stats() const;

  /// Per-step dispatch latency (one `StepFn` invocation), microseconds.
  const obs::Histogram& step_histogram() const { return step_hist_; }

  /// Tasks sitting in run queues right now (the C10K backlog gauge).
  uint64_t ready_queue_depth() const {
    const int n = ready_count_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<uint64_t>(n) : 0;
  }

  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  enum class TaskState { kReady, kRunning, kParked };

  /// A resumable session: the coroutine-style state machine the workers
  /// drive.  `mu` guards `state` + `wake_pending`; everything else is
  /// only touched by the (single) thread currently running the task.
  struct SessionTask {
    uint64_t id = 0;
    uint64_t num_steps = 0;
    StepFn step;
    DoneFn done;
    std::optional<Transaction> txn;
    TxnId txn_id = 0;       ///< nonzero while registered in txn_index_
    uint64_t next_step = 0;
    int attempt = 0;        ///< body runs so far (for the RetryPolicy)
    bool counted_begin = false;  ///< contributed to first_begins_ already

    std::mutex mu;
    TaskState state = TaskState::kReady;
    /// A wakeup that arrived while the task was running; consumed by the
    /// park decision so the wakeup cannot be lost.
    bool wake_pending = false;
  };

  struct Worker {
    std::mutex mu;
    std::deque<SessionTask*> queue;  ///< push_back / pop_front FIFO
    std::thread thread;
  };

  struct TimerEntry {
    std::chrono::steady_clock::time_point when;
    SessionTask* task;
    bool operator>(const TimerEntry& o) const { return when > o.when; }
  };

  void WorkerLoop(size_t wi);
  SessionTask* PopTask(size_t wi);
  SessionTask* PopDueTimer();
  std::optional<std::chrono::steady_clock::time_point> NextTimerDeadline();
  void RunTask(SessionTask* task, size_t wi);
  void Park(SessionTask* task);
  void Wake(TxnId txn);
  void HandleRetryableAbort(SessionTask* task, const Status& s, size_t wi);
  void FinishTask(SessionTask* task, const Status& s, bool committed);
  void Push(SessionTask* task, size_t wi);
  void ScheduleRetry(SessionTask* task, std::chrono::microseconds delay);
  void NotifySleepers(bool all);

  Database& db_;
  SessionExecutorOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex tasks_mu_;  ///< guards tasks_ + next_task_id_
  std::unordered_map<uint64_t, std::unique_ptr<SessionTask>> tasks_;
  uint64_t next_task_id_ = 1;

  /// TxnId -> parked/running task, for the wakeup hook.  `Wake` runs
  /// entirely under this mutex and `FinishTask` deregisters under it
  /// before destroying a task, which is the use-after-free guard.
  std::mutex index_mu_;
  std::unordered_map<TxnId, SessionTask*> txn_index_;

  /// Idle-worker parking lot: `Push` increments `ready_count_`, enters an
  /// empty `sleep_mu_` critical section, and notifies — the classic
  /// lost-notify-free handoff.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<int> ready_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  std::mutex timer_mu_;  ///< guards timers_ (RetryDelay re-submissions)
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> wakeups_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> first_begins_{0};  ///< distinct sessions ever begun
  std::atomic<int> open_sessions_{0};
  std::atomic<uint64_t> peak_open_{0};

  obs::Histogram step_hist_;  ///< internally synchronized
};

}  // namespace critique

#endif  // CRITIQUE_SCHED_SESSION_EXECUTOR_H_
