#ifndef CRITIQUE_LOCK_LOCK_MANAGER_H_
#define CRITIQUE_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/history/action.h"
#include "critique/model/predicate.h"
#include "critique/model/row.h"
#include "critique/obs/metrics.h"

namespace critique {

/// Lock modes: Read (Share) and Write (Exclusive), Section 2.3.
enum class LockMode { kShared, kExclusive };

/// Lock durations of Table 2.  Durations are enforced by the engines (the
/// manager releases by handle); the enum exists so policies can be stated
/// in the paper's vocabulary.
enum class LockDuration { kShort, kLong };

/// "S" / "X".
std::string_view LockModeName(LockMode m);

/// Identifies one granted lock for targeted release. 0 is never granted.
using LockHandle = uint64_t;

/// \brief What a transaction asks to lock.
///
/// Item locks (`is_item == true`) name a specific record; predicate locks
/// carry a <search condition>.  Conflicts between an item lock and a
/// predicate lock are decided by coverage of the item's row *images* —
/// a write's before- or after-image satisfying the predicate conflicts,
/// which is exactly the phantom-inclusive conflict rule of Section 2.3.
/// Images should be attached whenever known; without them the manager
/// answers conservatively (may block more, never less).
struct LockSpec {
  TxnId txn = 0;
  LockMode mode = LockMode::kShared;
  bool is_item = true;
  ItemId item;                       // when is_item
  std::optional<Predicate> pred;     // when !is_item
  std::optional<Row> before_image;   // item side: current row (if any)
  std::optional<Row> after_image;    // item side: row after the write

  /// Item S lock on `item`, with the row being read as image.
  static LockSpec ReadItem(TxnId t, ItemId item, std::optional<Row> row);
  /// Item X lock on `item` with before/after images of the write.
  static LockSpec WriteItem(TxnId t, ItemId item, std::optional<Row> before,
                            std::optional<Row> after);
  /// Predicate S lock.
  static LockSpec ReadPredicate(TxnId t, Predicate p);
  /// Predicate X lock (bulk writes; rare).
  static LockSpec WritePredicate(TxnId t, Predicate p);
};

/// Counters exposed for benchmarks and tests.
struct LockStats {
  uint64_t acquired = 0;
  uint64_t blocked = 0;   ///< conflicts: failed TryAcquire calls + waits begun
  uint64_t deadlocks = 0;
  uint64_t released = 0;
  uint64_t timeouts = 0;  ///< blocking acquires that hit the wait timeout
  uint64_t coop_parks = 0;  ///< cooperative requests queued (WouldBlock)
  uint64_t wakeups = 0;     ///< grant notifications delivered to the hook

  /// One line: "acquired=12 blocked=3 deadlocks=0 ...".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const LockStats& stats);

/// \brief Point-in-time picture of the lock table for stall diagnosis
/// (`Database::DebugDump`): who holds what, who waits on what, and the
/// waits-for edges connecting them.
struct LockDebugSnapshot {
  struct HeldEntry {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
    std::string what;  ///< "item 'x'" / "predicate <p>"
  };
  struct WaiterEntry {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
    std::string what;
    bool cooperative = false;  ///< a queued TryAcquire (vs a parked thread)
  };
  std::vector<HeldEntry> held;
  std::vector<WaiterEntry> waiters;
  /// Edge (a, b): transaction a waits for transaction b.
  std::vector<std::pair<TxnId, TxnId>> waits_for;

  /// Multi-line report: held locks, waiters, then waits-for edges.
  std::string ToString() const;
};

/// \brief A striped lock table with item and predicate locks, one request
/// queue per locked item, grant on release, and deterministic deadlock
/// handling.
///
/// Every item has one queue, as in Gray & Reuter's lock manager: its granted
/// group, then its waiting requests in FIFO order.  A request that nothing
/// blocks is granted at once.  A fresh request waits behind the conflicting
/// holders and behind every earlier waiter whose mode is incompatible with
/// it.  A holder's compatible re-request is granted at once; a holder's
/// upgrade that conflicts waits ahead of every other waiter.  A release (or
/// `ReleaseAll`) grants, in queue order, each waiter that nothing blocks any
/// more, and wakes exactly those: a parked `Acquire` through its own wait
/// slot, a cooperative requester through the wakeup hook.
///
/// Layout: the queues are hash-partitioned across `stripe_count()`
/// independently latched buckets (two requests on the same item always meet
/// in the same bucket), so a conflict-free acquire or release touches one
/// bucket latch and scans one bucket.  Predicate requests, which can
/// conflict with an item in any bucket, live in a side table mutated only
/// while every bucket latch is held (ascending order) and readable under any
/// single one.  A predicate waiter waits for its conflicting holders only;
/// an item release that a predicate waiter was blocked by re-runs the
/// predicate grant pass under every latch.
///
/// Deadlock detection runs once per wait, when the request is queued, under
/// every bucket latch.  Its waits-for edges are computed live from the
/// queues: a waiter waits for its blockers as defined above.  Edges form
/// only when a request is queued (the probe runs) or granted (the grantee
/// waits for nothing), so every cycle is found by the probe of the request
/// that closed it.  Victims:
///
///  * `TryAcquire`: the requester, always.  Its request leaves the queue and
///    it answers `Deadlock`; the engine aborts it.
///  * `Acquire`: the cycle's most *junior* member.  A transaction's
///    seniority is its id — lower is older — unless `InheritSeniority` gave
///    it an earlier one (an `Execute` restart keeps its first attempt's).
///    When the requester is the most junior, or seniorities tie, or the
///    junior is not a parked `Acquire`, the requester is the victim.
///    Otherwise the junior's request leaves its queue and its wait slot
///    answers `Deadlock`; the probe repeats until no cycle runs through the
///    requester.  Each victim is counted once, when it answers.
///
/// Latch order (strict, everywhere): bucket 0 < bucket 1 < ... < bucket N-1.
///
/// Thread-safe; at most one in-flight acquire per transaction at a time
/// (a transaction is one session driven by one thread).
class LockManager {
 public:
  /// Default bucket count; `DbOptions::lock_stripes` overrides per
  /// database.
  static constexpr size_t kDefaultStripes = 16;

  explicit LockManager(size_t stripes = kDefaultStripes);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Re-partitions the table into `stripes` buckets (clamped to
  /// [1, kMaxStripes]).  Precondition: the manager is QUIESCENT — no
  /// locks held, no waiters, and no concurrent calls of any kind; the
  /// engines satisfy this by calling it only from `SetConcurrency`,
  /// before any session starts.  Returns false (changing nothing) when
  /// requests exist, but that refusal is a best-effort guard for
  /// sequential misuse only: a call racing other operations is undefined
  /// behaviour (the bucket vector, mutexes included, is rebuilt).
  bool SetStripeCount(size_t stripes);

  /// Number of hash buckets the item-lock table is partitioned into.
  size_t stripe_count() const { return buckets_.size(); }

  /// Non-blocking acquire.  A conflicting request joins its queue and
  /// answers `WouldBlock` (or `Deadlock`, see the class comment).  The
  /// caller's retry with the same transaction, target and mode claims that
  /// request, granted or still queued, and its row images replace the
  /// queued ones; a granted request whose new images conflict with a
  /// predicate holder is given back and requested afresh.  `ReleaseAll`
  /// removes a request nobody claimed.
  Result<LockHandle> TryAcquire(const LockSpec& spec);

  /// Blocking acquire: a conflicting request joins its queue and the
  /// calling thread sleeps on its own wait slot until a release grants the
  /// request, a deadlock probe dooms it (`Deadlock`), or `timeout` elapses
  /// (`WouldBlock` carrying a lock-wait-timeout message — the caller treats
  /// it like any other retryable conflict).
  Result<LockHandle> Acquire(const LockSpec& spec,
                             std::chrono::milliseconds timeout);

  /// \brief Installs the cooperative release-notification hook (the sched
  /// layer's event-driven park/wakeup path; nullptr uninstalls).
  ///
  /// With a hook installed, a release that grants a queued `TryAcquire`
  /// request invokes the hook once with its transaction, outside every
  /// lock-table latch; the woken session's retry claims the granted lock.
  /// Queue order is FIFO per item (readers behind a reader head are granted
  /// together, up to the first writer), so a hot item cannot starve an old
  /// waiter behind fresh arrivals.  A request removed without a grant — by
  /// `ReleaseAll` or a deadlock verdict — wakes nobody.  The hook may run
  /// under a caller's engine latch — releases happen inside engine
  /// operations — and must not call back into the lock manager; enqueueing
  /// the waiter with its own scheduler is the intended body.
  ///
  /// Precondition: quiescent, exactly as `SetStripeCount` (install before
  /// any session starts).
  void SetWakeupHook(std::function<void(TxnId)> hook);

  /// Releases one granted lock (no-op on unknown handles) and grants the
  /// waiters it was blocking.
  void Release(LockHandle handle);

  /// Releases everything `txn` holds, removes its queued requests, forgets
  /// its inherited seniority (commit/abort time for long locks), and grants
  /// the waiters its locks were blocking.
  void ReleaseAll(TxnId txn);

  /// Makes `txn` compete in blocking victim selection with the seniority
  /// of `first_attempt` (see the class comment) until `ReleaseAll(txn)`.
  /// Call before `txn` requests any lock.
  void InheritSeniority(TxnId txn, TxnId first_attempt);

  /// Transactions holding locks that conflict with `spec` (diagnostics).
  std::vector<TxnId> Blockers(const LockSpec& spec) const;

  /// Number of locks currently held (all transactions).
  size_t HeldCount() const;

  /// Number of locks currently held by `txn`.
  size_t HeldCountBy(TxnId txn) const;

  LockStats stats() const;

  /// Consistent snapshot of holders, waiters, and waits-for edges (takes
  /// the global view; diagnostics only).
  LockDebugSnapshot DebugSnapshot() const;

  /// Wall time blocked `Acquire` calls spent waiting, microseconds per
  /// wait episode (conflict-free acquires never touch the clock).
  const obs::Histogram& wait_histogram() const { return wait_hist_; }

  /// Cooperative queue -> grant latency, microseconds per granted
  /// `TryAcquire` request (the event-driven analogue of `wait_histogram`).
  const obs::Histogram& park_wakeup_histogram() const {
    return park_wakeup_hist_;
  }

  /// Registers the `LockStats` gauges (acquired, blocked, deadlocks,
  /// timeouts, coop_parks, wakeups) and the wait and park-wakeup
  /// histograms (wait_us, park_wakeup_us) with `reg` under `prefix`
  /// ("engine.lock." by convention).  The manager must outlive the
  /// registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  /// Handles carry their bucket in the low byte (0 = the predicate side
  /// table, i+1 = bucket i), so `Release` goes straight to the right
  /// latch.  The cap keeps the global view (all bucket latches + a
  /// caller's engine latch) comfortably under ThreadSanitizer's
  /// 64-locks-held-per-thread limit, so the TSan gate can certify the slow
  /// path too; past ~the core count extra stripes buy nothing anyway.
  static constexpr size_t kMaxStripes = 48;
  static constexpr uint64_t kBucketTagBits = 8;
  static constexpr uint64_t kPredTag = 0;

  /// A parked `Acquire`'s wait slot, on the waiting thread's stack.  Whoever
  /// grants or dooms the request sets `state` and signals `cv` while
  /// holding the latch the waiter sleeps with (its item's bucket; bucket 0
  /// for a predicate).
  struct WaitSlot {
    enum class State { kWaiting, kGranted, kDoomed };
    State state = State::kWaiting;
    std::condition_variable cv;
  };

  /// A lock handed to its caller.
  struct HeldLock {
    LockHandle handle;
    LockSpec spec;
  };

  /// A request not yet handed to its caller: a queued one, or a
  /// `TryAcquire` request granted while its caller was away (it counts as
  /// held until the caller's retry claims it).
  struct Waiter {
    LockHandle handle;
    LockSpec spec;
    WaitSlot* slot = nullptr;  ///< a parked `Acquire`'s; nullptr: TryAcquire
    bool granted = false;      ///< TryAcquire only
    /// When a TryAcquire request was queued (park -> wakeup histogram).
    std::chrono::steady_clock::time_point queued_at{};
  };

  /// The requests on one bucket's items, or on predicates.  The waiters on
  /// one item, in list order, are that item's queue.  A list, so no
  /// capacity outlives a wait.
  struct Queue {
    std::vector<HeldLock> held;
    std::list<Waiter> waiting;
  };

  /// One stripe: a latch and the queues of the items hashed here.
  struct Bucket : Queue {
    mutable std::mutex mu;
  };

  /// A queued request, located for a deadlock probe.
  struct WaitRef {
    Queue* queue;
    std::list<Waiter>::iterator it;
  };
  using WaitIndex = std::multimap<TxnId, WaitRef>;

  size_t BucketOf(const ItemId& id) const;

  /// Locks every bucket latch in ascending order (the global view).
  std::vector<std::unique_lock<std::mutex>> LockAllBuckets() const;

  bool SpecsConflict(const LockSpec& held, const LockSpec& want) const;

  /// The queue `spec` belongs to and the tag its handles carry.
  std::pair<Queue*, uint64_t> QueueOf(const LockSpec& spec);

  /// Does `spec.txn` hold `spec.item` in `q` (claimed or not)?
  static bool HolderLocked(const Queue& q, const LockSpec& spec);

  /// Does anything block `spec`?  Its blockers are the conflicting holders
  /// and, for an item request, the incompatible waiters queued before
  /// `until` in its bucket (every waiter when `until` is nullptr).  With
  /// `out`, collects every blocking transaction; without, stops at the
  /// first.  An item spec needs its bucket's latch, a predicate spec every
  /// latch.
  bool BlockedLocked(const LockSpec& spec, const Waiter* until,
                     std::vector<TxnId>* out) const;

  /// `BlockedLocked`'s `until` for a request that waits for no waiter.
  static const Waiter* FrontLocked(const Queue& q) {
    return q.waiting.empty() ? nullptr : &q.waiting.front();
  }

  /// Would a new request for `spec` in `q` be granted now?  A holder's
  /// request waits for no waiter, a fresh one for every incompatible one.
  /// Collects the blockers into `out` as `BlockedLocked` does.
  bool GrantableLocked(const Queue& q, const LockSpec& spec,
                       std::vector<TxnId>* out) const;

  /// A fresh handle whose low byte is `tag`.
  LockHandle NewHandle(uint64_t tag);

  /// Grants `spec` at once into `q`'s held locks.
  LockHandle HoldLocked(Queue& q, uint64_t tag, const LockSpec& spec);

  /// Grants, in queue order, every waiter in `q` that nothing blocks any
  /// more: a parked `Acquire` through its slot, a `TryAcquire` request
  /// through the hook (its transaction appended to `wake`).  Needs `q`'s
  /// latch (every latch for the predicate queue).
  void GrantWaitersLocked(Queue& q, std::vector<TxnId>& wake);

  /// Both grant passes over every queue.  Requires every latch.
  void GrantAllLocked(std::vector<TxnId>& wake);

  /// Does a waiting predicate request exist?  Requires any bucket latch.
  bool PredWaitersLocked() const;

  /// Erases a waiter and grants the waiters it was blocking.
  void RemoveLocked(Queue& q, std::list<Waiter>::iterator it,
                    std::vector<TxnId>& wake);

  /// Conflict path shared by both acquires, under every latch: grants
  /// `spec` when nothing blocks it, else queues it, with its blockers in
  /// `blockers`, and probes for deadlocks (see the class comment).  A
  /// `slot` marks a parked `Acquire`.  Returns the request's handle —
  /// granted at once iff `blockers` stays empty — or `Deadlock`.
  Result<LockHandle> EnqueueLocked(const LockSpec& spec, WaitSlot* slot,
                                   std::vector<TxnId>& blockers,
                                   std::vector<TxnId>& wake);

  /// Every waiting request by transaction.  Requires every latch.
  WaitIndex IndexWaitersLocked();

  /// Cycle probe from `requester`: the members of one waits-for cycle
  /// through it, `requester` first, or empty when none.  Requires every
  /// latch.
  std::vector<TxnId> FindCycleLocked(TxnId requester,
                                     const WaitIndex& waiting) const;

  /// `txn`'s seniority key (lower is older).  Requires bucket 0's latch.
  TxnId SeniorityLocked(TxnId txn) const;

  /// Delivers collected wakeups to the hook.  Call with NO latches held.
  void NotifyCoopWaiters(const std::vector<TxnId>& wake);

  /// "item 'x'" / "predicate <p>" for conflict messages.
  static std::string Describe(const LockSpec& spec);
  static std::string JoinTxns(const std::vector<TxnId>& txns);

  /// The stripes.  unique_ptr because Bucket (a mutex) is neither movable
  /// nor copyable; the vector itself is resized only by `SetStripeCount` on
  /// an idle manager.
  std::vector<std::unique_ptr<Bucket>> buckets_;

  /// Predicate requests: mutated only with every bucket latch held,
  /// readable under any single bucket latch (any reader's latch is among
  /// the mutator's held set).
  Queue preds_;

  /// Inherited seniority: txn -> the id it competes as (see
  /// `InheritSeniority`); cleared by `ReleaseAll`.  Guarded by bucket 0's
  /// latch, which every deadlock probe holds.
  std::map<TxnId, TxnId> seniority_;

  std::atomic<LockHandle> next_seq_{1};

  /// Written only by SetWakeupHook (under every latch, on a quiescent
  /// manager); read by grant passes under a latch.
  std::function<void(TxnId)> wakeup_hook_;

  std::atomic<uint64_t> stat_acquired_{0};
  std::atomic<uint64_t> stat_blocked_{0};
  std::atomic<uint64_t> stat_deadlocks_{0};
  std::atomic<uint64_t> stat_released_{0};
  std::atomic<uint64_t> stat_timeouts_{0};
  std::atomic<uint64_t> stat_coop_parks_{0};
  std::atomic<uint64_t> stat_wakeups_{0};

  obs::Histogram wait_hist_;         ///< blocking-acquire wait episodes (us)
  obs::Histogram park_wakeup_hist_;  ///< cooperative queue -> grant (us)
};

}  // namespace critique

#endif  // CRITIQUE_LOCK_LOCK_MANAGER_H_
