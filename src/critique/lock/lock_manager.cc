#include "critique/lock/lock_manager.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <ostream>
#include <set>

namespace critique {

std::string_view LockModeName(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

std::string LockStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "acquired=%llu blocked=%llu deadlocks=%llu released=%llu "
                "timeouts=%llu coop_parks=%llu wakeups=%llu",
                (unsigned long long)acquired, (unsigned long long)blocked,
                (unsigned long long)deadlocks, (unsigned long long)released,
                (unsigned long long)timeouts, (unsigned long long)coop_parks,
                (unsigned long long)wakeups);
  return buf;
}

std::ostream& operator<<(std::ostream& os, const LockStats& stats) {
  return os << stats.ToString();
}

std::string LockDebugSnapshot::ToString() const {
  std::string out;
  out += "held locks (" + std::to_string(held.size()) + "):\n";
  for (const HeldEntry& h : held) {
    out += "  T" + std::to_string(h.txn) + " holds " +
           std::string(LockModeName(h.mode)) + " on " + h.what + "\n";
  }
  out += "waiters (" + std::to_string(waiters.size()) + "):\n";
  for (const WaiterEntry& w : waiters) {
    out += "  T" + std::to_string(w.txn) + " wants " +
           std::string(LockModeName(w.mode)) + " on " + w.what +
           (w.cooperative ? " [parked session]" : " [blocked thread]") + "\n";
  }
  out += "waits-for edges (" + std::to_string(waits_for.size()) + "):\n";
  for (const auto& e : waits_for) {
    out += "  T" + std::to_string(e.first) + " -> T" +
           std::to_string(e.second) + "\n";
  }
  return out;
}

LockSpec LockSpec::ReadItem(TxnId t, ItemId item, std::optional<Row> row) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kShared;
  s.is_item = true;
  s.item = std::move(item);
  s.before_image = std::move(row);
  return s;
}

LockSpec LockSpec::WriteItem(TxnId t, ItemId item, std::optional<Row> before,
                             std::optional<Row> after) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kExclusive;
  s.is_item = true;
  s.item = std::move(item);
  s.before_image = std::move(before);
  s.after_image = std::move(after);
  return s;
}

LockSpec LockSpec::ReadPredicate(TxnId t, Predicate p) {
  LockSpec s;
  s.txn = t;
  s.mode = LockMode::kShared;
  s.is_item = false;
  s.pred = std::move(p);
  return s;
}

LockSpec LockSpec::WritePredicate(TxnId t, Predicate p) {
  LockSpec s = ReadPredicate(t, std::move(p));
  s.mode = LockMode::kExclusive;
  return s;
}

namespace {

// Does the predicate lock `pred_side` cover the item lock `item_side`?
// Image-precise when images exist, conservative otherwise.
bool PredicateCoversItem(const LockSpec& pred_side, const LockSpec& item_side) {
  const Predicate& p = *pred_side.pred;
  bool any_image = false;
  if (item_side.before_image.has_value()) {
    any_image = true;
    if (p.Covers(item_side.item, *item_side.before_image)) return true;
  }
  if (item_side.after_image.has_value()) {
    any_image = true;
    if (p.Covers(item_side.item, *item_side.after_image)) return true;
  }
  if (any_image) return false;
  // No images (e.g. a read of an absent row): fall back to structural
  // overlap between the predicate and "key = item".
  return p.MayOverlap(Predicate::KeyIs(item_side.item));
}

void AddUnique(std::vector<TxnId>& out, TxnId t) {
  if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
}

}  // namespace

LockManager::LockManager(size_t stripes) {
  stripes = std::max<size_t>(1, std::min(stripes, kMaxStripes));
  buckets_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
}

bool LockManager::SetStripeCount(size_t stripes) {
  stripes = std::max<size_t>(1, std::min(stripes, kMaxStripes));
  {
    auto all = LockAllBuckets();
    for (const auto& b : buckets_) {
      if (!b->held.empty() || !b->waiting.empty()) return false;
    }
    if (!preds_.held.empty() || !preds_.waiting.empty()) return false;
  }
  // Idle (and, per contract, quiescent: configuration happens before any
  // session starts), so rebuilding the stripe vector is safe.
  if (stripes == buckets_.size()) return true;
  std::vector<std::unique_ptr<Bucket>> next;
  next.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) next.push_back(std::make_unique<Bucket>());
  buckets_ = std::move(next);
  return true;
}

void LockManager::SetWakeupHook(std::function<void(TxnId)> hook) {
  // Grant passes read the hook under a bucket latch; holding every latch
  // orders this write before all of them.
  auto all = LockAllBuckets();
  wakeup_hook_ = std::move(hook);
}

void LockManager::NotifyCoopWaiters(const std::vector<TxnId>& wake) {
  if (wake.empty()) return;
  stat_wakeups_.fetch_add(wake.size(), std::memory_order_relaxed);
  for (TxnId t : wake) wakeup_hook_(t);
}

size_t LockManager::BucketOf(const ItemId& id) const {
  // FNV-1a over the item bytes, then a splitmix64-style finalizer.  The
  // finalizer matters: ShardRouter partitions by the same FNV-1a hash
  // (shard/shard_router.h — not reused here because lock/ sits below
  // shard/ in the layering), so taking `fnv % stripes` would leave a
  // shard's lock manager using only the buckets congruent to its own
  // shard index — the mix decouples the two moduli.
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<size_t>(h % buckets_.size());
}

std::vector<std::unique_lock<std::mutex>> LockManager::LockAllBuckets() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(buckets_.size());
  for (const auto& b : buckets_) locks.emplace_back(b->mu);
  return locks;
}

bool LockManager::SpecsConflict(const LockSpec& held,
                                const LockSpec& want) const {
  if (held.txn == want.txn) return false;
  if (held.mode == LockMode::kShared && want.mode == LockMode::kShared) {
    return false;
  }
  if (held.is_item && want.is_item) return held.item == want.item;
  if (!held.is_item && !want.is_item) {
    return held.pred->MayOverlap(*want.pred);
  }
  const LockSpec& pred_side = held.is_item ? want : held;
  const LockSpec& item_side = held.is_item ? held : want;
  return PredicateCoversItem(pred_side, item_side);
}

std::pair<LockManager::Queue*, uint64_t> LockManager::QueueOf(
    const LockSpec& spec) {
  if (!spec.is_item) return {&preds_, kPredTag};
  const size_t bi = BucketOf(spec.item);
  return {buckets_[bi].get(), bi + 1};
}

bool LockManager::HolderLocked(const Queue& q, const LockSpec& spec) {
  auto mine = [&](const LockSpec& s) {
    return s.txn == spec.txn && s.item == spec.item;
  };
  return std::any_of(
             q.held.begin(), q.held.end(),
             [&](const HeldLock& h) { return mine(h.spec); }) ||
         std::any_of(q.waiting.begin(), q.waiting.end(), [&](const Waiter& w) {
           return w.granted && mine(w.spec);
         });
}

bool LockManager::BlockedLocked(const LockSpec& spec, const Waiter* until,
                                std::vector<TxnId>* out) const {
  bool blocked = false;
  auto hit = [&](const LockSpec& other) {  // true means "stop scanning"
    if (!SpecsConflict(other, spec)) return false;
    blocked = true;
    if (out == nullptr) return true;
    AddUnique(*out, other.txn);
    return false;
  };
  // The holders of `q` and, with `waiters`, its waiters before `until`.
  auto scan = [&](const Queue& q, bool waiters) {
    for (const HeldLock& h : q.held) {
      if (hit(h.spec)) return true;
    }
    for (const Waiter& w : q.waiting) {
      waiters = waiters && &w != until;
      if ((w.granted || waiters) && hit(w.spec)) return true;
    }
    return false;
  };
  if (spec.is_item) {
    if (scan(*buckets_[BucketOf(spec.item)], true)) return true;
  } else {
    for (const auto& b : buckets_) {
      if (scan(*b, false)) return true;
    }
  }
  // The predicate queue is safely readable under any bucket latch: every
  // mutator holds them all.
  scan(preds_, false);
  return blocked;
}

bool LockManager::GrantableLocked(const Queue& q, const LockSpec& spec,
                                  std::vector<TxnId>* out) const {
  const bool holder = spec.is_item && HolderLocked(q, spec);
  return !BlockedLocked(spec, holder ? FrontLocked(q) : nullptr, out);
}

LockHandle LockManager::NewHandle(uint64_t tag) {
  return (next_seq_.fetch_add(1, std::memory_order_relaxed)
          << kBucketTagBits) |
         tag;
}

LockHandle LockManager::HoldLocked(Queue& q, uint64_t tag,
                                   const LockSpec& spec) {
  const LockHandle handle = NewHandle(tag);
  stat_acquired_.fetch_add(1, std::memory_order_relaxed);
  q.held.push_back(HeldLock{handle, spec});
  return handle;
}

void LockManager::GrantWaitersLocked(Queue& q, std::vector<TxnId>& wake) {
  // One forward pass suffices: a grant only adds a holder, so it can block
  // a later waiter but never unblock an earlier one.
  for (auto it = q.waiting.begin(); it != q.waiting.end();) {
    if (it->granted || BlockedLocked(it->spec, &*it, nullptr)) {
      ++it;
      continue;
    }
    stat_acquired_.fetch_add(1, std::memory_order_relaxed);
    if (it->slot != nullptr) {
      it->slot->state = WaitSlot::State::kGranted;
      it->slot->cv.notify_one();
      q.held.push_back(HeldLock{it->handle, std::move(it->spec)});
      it = q.waiting.erase(it);
      continue;
    }
    it->granted = true;
    if (obs::MetricsEnabled()) {
      park_wakeup_hist_.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - it->queued_at)
              .count()));
    }
    if (wakeup_hook_) wake.push_back(it->spec.txn);
    ++it;
  }
}

void LockManager::GrantAllLocked(std::vector<TxnId>& wake) {
  for (const auto& b : buckets_) GrantWaitersLocked(*b, wake);
  GrantWaitersLocked(preds_, wake);
}

bool LockManager::PredWaitersLocked() const {
  return std::any_of(preds_.waiting.begin(), preds_.waiting.end(),
                     [](const Waiter& w) { return !w.granted; });
}

void LockManager::RemoveLocked(Queue& q, std::list<Waiter>::iterator it,
                               std::vector<TxnId>& wake) {
  q.waiting.erase(it);
  GrantWaitersLocked(q, wake);
}

LockManager::WaitIndex LockManager::IndexWaitersLocked() {
  WaitIndex out;
  auto add = [&](Queue& q) {
    for (auto it = q.waiting.begin(); it != q.waiting.end(); ++it) {
      if (!it->granted) out.emplace(it->spec.txn, WaitRef{&q, it});
    }
  };
  for (const auto& b : buckets_) add(*b);
  add(preds_);
  return out;
}

std::vector<TxnId> LockManager::FindCycleLocked(
    TxnId requester, const WaitIndex& waiting) const {
  // DFS from the requester over live edges; a path back to it is a cycle
  // its request just closed.
  std::set<TxnId> visited;
  std::vector<TxnId> path{requester};
  std::function<bool(TxnId)> reaches = [&](TxnId u) -> bool {
    std::vector<TxnId> next;
    auto [lo, hi] = waiting.equal_range(u);
    for (auto it = lo; it != hi; ++it) {
      const Waiter& w = *it->second.it;
      BlockedLocked(w.spec, &w, &next);
    }
    for (TxnId v : next) {
      if (v == requester) return true;
      if (!visited.insert(v).second) continue;
      path.push_back(v);
      if (reaches(v)) return true;
      path.pop_back();
    }
    return false;
  };
  if (!reaches(requester)) path.clear();
  return path;
}

TxnId LockManager::SeniorityLocked(TxnId txn) const {
  auto it = seniority_.find(txn);
  return it == seniority_.end() ? txn : it->second;
}

void LockManager::InheritSeniority(TxnId txn, TxnId first_attempt) {
  std::lock_guard<std::mutex> bl(buckets_[0]->mu);
  seniority_[txn] = first_attempt;
}

Result<LockHandle> LockManager::EnqueueLocked(const LockSpec& spec,
                                              WaitSlot* slot,
                                              std::vector<TxnId>& blockers,
                                              std::vector<TxnId>& wake) {
  auto [q, tag] = QueueOf(spec);
  if (GrantableLocked(*q, spec, &blockers)) return HoldLocked(*q, tag, spec);
  // A holder's request goes ahead of every waiter; a fresh one joins the
  // back of the queue.
  const LockHandle handle = NewHandle(tag);
  auto own = q->waiting.insert(
      spec.is_item && HolderLocked(*q, spec) ? q->waiting.begin()
                                             : q->waiting.end(),
      Waiter{handle, spec, slot, false, std::chrono::steady_clock::now()});
  for (;;) {
    const WaitIndex waiting = IndexWaitersLocked();
    const std::vector<TxnId> cycle = FindCycleLocked(spec.txn, waiting);
    if (cycle.empty()) return handle;
    // A parked Acquire sacrifices the cycle's most junior member when that
    // member is itself parked; everyone else is its own victim.
    TxnId junior = spec.txn;
    if (slot != nullptr) {
      TxnId key = SeniorityLocked(spec.txn);
      bool tie = false;
      for (size_t i = 1; i < cycle.size(); ++i) {
        const TxnId k = SeniorityLocked(cycle[i]);
        if (k > key) {
          junior = cycle[i];
          key = k;
          tie = false;
        } else if (k == key) {
          tie = true;
        }
      }
      if (tie) junior = spec.txn;
    }
    const WaitRef* doomed = nullptr;
    auto [lo, hi] = waiting.equal_range(junior);
    for (auto it = lo; it != hi && junior != spec.txn; ++it) {
      if (it->second.it->slot != nullptr) doomed = &it->second;
    }
    if (doomed == nullptr) {
      // Still queued: a request in a cycle waits for someone.
      RemoveLocked(*q, own, wake);
      stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("deadlock: T" + std::to_string(spec.txn) +
                              " waits on" + JoinTxns(blockers));
    }
    WaitSlot* victim = doomed->it->slot;
    victim->state = WaitSlot::State::kDoomed;
    victim->cv.notify_one();
    RemoveLocked(*doomed->queue, doomed->it, wake);
  }
}

std::string LockManager::Describe(const LockSpec& spec) {
  return spec.is_item ? "item '" + spec.item + "'"
                      : "predicate " + spec.pred->ToString();
}

std::string LockManager::JoinTxns(const std::vector<TxnId>& txns) {
  std::string out;
  for (TxnId t : txns) out += " T" + std::to_string(t);
  return out;
}

Result<LockHandle> LockManager::TryAcquire(const LockSpec& spec) {
  std::vector<TxnId> blockers;
  std::vector<TxnId> wake;
  bool gave_back = false;
  // The caller's retry claims its own request (see the header).  Answers,
  // or returns nullopt when the request must be made afresh.
  auto claim = [&](Queue& q) -> std::optional<Result<LockHandle>> {
    auto it = std::find_if(q.waiting.begin(), q.waiting.end(),
                           [&](const Waiter& w) {
      return w.slot == nullptr && w.spec.txn == spec.txn &&
             w.spec.mode == spec.mode &&
             (spec.is_item ? w.spec.item == spec.item
                           : *w.spec.pred == *spec.pred);
    });
    if (it == q.waiting.end()) return std::nullopt;
    it->spec = spec;  // the retry's row images replace the queued ones
    if (!BlockedLocked(spec, it->granted ? FrontLocked(q) : &*it,
                       &blockers)) {
      if (!it->granted) stat_acquired_.fetch_add(1, std::memory_order_relaxed);
      const LockHandle handle = it->handle;
      q.held.push_back(HeldLock{handle, std::move(it->spec)});
      q.waiting.erase(it);
      return handle;
    }
    if (!it->granted) {
      stat_blocked_.fetch_add(1, std::memory_order_relaxed);
      return Status::WouldBlock(Describe(spec) + " locked by" +
                                JoinTxns(blockers));
    }
    // Granted under images a predicate holder covers once refreshed.
    RemoveLocked(q, it, wake);
    stat_released_.fetch_add(1, std::memory_order_relaxed);
    blockers.clear();
    gave_back = true;
    return std::nullopt;
  };
  Result<LockHandle> r = [&]() -> Result<LockHandle> {
    if (spec.is_item) {
      // Fast path: one bucket latch, one bucket scan (plus the — normally
      // empty — predicate queue).
      const size_t bi = BucketOf(spec.item);
      Bucket& b = *buckets_[bi];
      std::lock_guard<std::mutex> bl(b.mu);
      if (auto answer = claim(b)) return *answer;
      if (GrantableLocked(b, spec, nullptr)) return HoldLocked(b, bi + 1, spec);
    }
    // Conflict (or predicate spec): the global view, so the grant decision,
    // the queueing and the deadlock probe are one atomic picture.
    auto all = LockAllBuckets();
    if (gave_back) GrantWaitersLocked(preds_, wake);
    if (!spec.is_item) {
      if (auto answer = claim(preds_)) return *answer;
    }
    Result<LockHandle> q = EnqueueLocked(spec, nullptr, blockers, wake);
    if (!q.ok() || blockers.empty()) return q;
    stat_blocked_.fetch_add(1, std::memory_order_relaxed);
    stat_coop_parks_.fetch_add(1, std::memory_order_relaxed);
    return Status::WouldBlock(Describe(spec) + " locked by" +
                              JoinTxns(blockers));
  }();
  NotifyCoopWaiters(wake);  // outside every lock-table latch
  return r;
}

Result<LockHandle> LockManager::Acquire(const LockSpec& spec,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const size_t bi = spec.is_item ? BucketOf(spec.item) : 0;
  Bucket& park = *buckets_[bi];  // predicate waiters sleep on bucket 0
  if (spec.is_item) {
    std::lock_guard<std::mutex> bl(park.mu);
    if (GrantableLocked(park, spec, nullptr)) {
      return HoldLocked(park, bi + 1, spec);
    }
  }
  WaitSlot slot;
  std::vector<TxnId> blockers;
  std::vector<TxnId> wake;
  Result<LockHandle> r = [&] {
    auto all = LockAllBuckets();
    return EnqueueLocked(spec, &slot, blockers, wake);
  }();
  NotifyCoopWaiters(wake);
  if (!r.ok() || blockers.empty()) return r;
  stat_blocked_.fetch_add(1, std::memory_order_relaxed);
  const auto wait_start = std::chrono::steady_clock::now();

  wake.clear();
  std::unique_lock<std::mutex> bl(park.mu);
  while (slot.state == WaitSlot::State::kWaiting &&
         slot.cv.wait_until(bl, deadline) == std::cv_status::no_timeout) {
  }
  std::vector<std::unique_lock<std::mutex>> all;
  if (slot.state == WaitSlot::State::kWaiting && !spec.is_item) {
    bl.unlock();  // a predicate request leaves its queue under every latch
    all = LockAllBuckets();
  }
  const WaitSlot::State state = slot.state;
  if (state == WaitSlot::State::kWaiting) {
    Queue& q = spec.is_item ? static_cast<Queue&>(park) : preds_;
    auto own = std::find_if(q.waiting.begin(), q.waiting.end(),
                            [&](const Waiter& w) { return w.handle == *r; });
    blockers.clear();
    BlockedLocked(spec, &*own, &blockers);
    RemoveLocked(q, own, wake);
  }
  if (bl.owns_lock()) bl.unlock();
  all.clear();
  NotifyCoopWaiters(wake);
  if (obs::MetricsEnabled()) {
    wait_hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count()));
  }
  if (state == WaitSlot::State::kGranted) return r;
  if (state == WaitSlot::State::kDoomed) {
    stat_deadlocks_.fetch_add(1, std::memory_order_relaxed);
    return Status::Deadlock("deadlock: T" + std::to_string(spec.txn) +
                            " is the junior member of a waits-for cycle");
  }
  stat_timeouts_.fetch_add(1, std::memory_order_relaxed);
  return Status::WouldBlock("lock wait timeout (" +
                            std::to_string(timeout.count()) + "ms): " +
                            Describe(spec) + " locked by" + JoinTxns(blockers));
}

void LockManager::Release(LockHandle handle) {
  if (handle == 0) return;
  const uint64_t tag = handle & ((1u << kBucketTagBits) - 1);
  std::vector<TxnId> wake;
  auto erase = [&](Queue& q) {
    auto it =
        std::find_if(q.held.begin(), q.held.end(),
                     [&](const HeldLock& h) { return h.handle == handle; });
    if (it == q.held.end()) return false;
    q.held.erase(it);
    GrantWaitersLocked(q, wake);
    return true;
  };
  bool erased = false;
  if (tag == kPredTag) {
    // A predicate may have blocked waiters in every queue.
    auto all = LockAllBuckets();
    erased = erase(preds_);
    if (erased) GrantAllLocked(wake);
  } else {
    const size_t bi = static_cast<size_t>(tag) - 1;
    if (bi >= buckets_.size()) return;
    bool pred_pass = false;
    {
      std::lock_guard<std::mutex> bl(buckets_[bi]->mu);
      erased = erase(*buckets_[bi]);
      pred_pass = erased && PredWaitersLocked();
    }
    if (pred_pass) {
      auto all = LockAllBuckets();
      GrantWaitersLocked(preds_, wake);
    }
  }
  if (erased) stat_released_.fetch_add(1, std::memory_order_relaxed);
  NotifyCoopWaiters(wake);  // outside every lock-table latch
}

void LockManager::ReleaseAll(TxnId txn) {
  std::vector<TxnId> wake;
  size_t released = 0;
  // Drops every request of `txn` from `q`; true when there was one.
  auto drop = [&](Queue& q) {
    const size_t held = q.held.size();
    q.held.erase(std::remove_if(q.held.begin(), q.held.end(),
                                [&](const HeldLock& h) {
                                  return h.spec.txn == txn;
                                }),
                 q.held.end());
    released += held - q.held.size();
    bool any = held != q.held.size();
    for (auto it = q.waiting.begin(); it != q.waiting.end();) {
      if (it->spec.txn != txn) {
        ++it;
        continue;
      }
      released += it->granted;
      any = true;
      it = q.waiting.erase(it);
    }
    return any;
  };
  bool any_pred = false;
  {
    std::lock_guard<std::mutex> bl(buckets_[0]->mu);
    any_pred = !preds_.held.empty() || !preds_.waiting.empty();
  }
  if (any_pred) {
    // The transaction may hold predicate locks: take the global view once.
    auto all = LockAllBuckets();
    for (const auto& b : buckets_) drop(*b);
    drop(preds_);
    seniority_.erase(txn);
    GrantAllLocked(wake);
  } else {
    // Common case (no predicate requests anywhere): one bucket at a time.
    // A predicate request queued meanwhile is granted under every latch.
    bool pred_pass = false;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      Bucket& b = *buckets_[i];
      std::lock_guard<std::mutex> bl(b.mu);
      if (i == 0) seniority_.erase(txn);
      if (drop(b)) {
        GrantWaitersLocked(b, wake);
        pred_pass |= PredWaitersLocked();
      }
    }
    if (pred_pass) {
      auto all = LockAllBuckets();
      GrantWaitersLocked(preds_, wake);
    }
  }
  stat_released_.fetch_add(released, std::memory_order_relaxed);
  NotifyCoopWaiters(wake);  // outside every lock-table latch
}

std::vector<TxnId> LockManager::Blockers(const LockSpec& spec) const {
  auto all = LockAllBuckets();
  std::vector<TxnId> out;
  // Holders only: waiters before the front of the item's queue are none.
  const Queue& q = spec.is_item ? *buckets_[BucketOf(spec.item)] : preds_;
  BlockedLocked(spec, FrontLocked(q), &out);
  return out;
}

size_t LockManager::HeldCount() const {
  size_t n = 0;
  auto count_in = [&](const Queue& q) {
    n += q.held.size();
    for (const Waiter& w : q.waiting) n += w.granted;
  };
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> bl(b->mu);
    count_in(*b);
    if (&b == &buckets_.front()) count_in(preds_);
  }
  return n;
}

size_t LockManager::HeldCountBy(TxnId txn) const {
  size_t n = 0;
  auto count_in = [&](const Queue& q) {
    for (const HeldLock& h : q.held) n += h.spec.txn == txn;
    for (const Waiter& w : q.waiting) n += w.granted && w.spec.txn == txn;
  };
  for (const auto& b : buckets_) {
    std::lock_guard<std::mutex> bl(b->mu);
    count_in(*b);
    if (&b == &buckets_.front()) count_in(preds_);
  }
  return n;
}

LockStats LockManager::stats() const {
  LockStats s;
  s.acquired = stat_acquired_.load(std::memory_order_relaxed);
  s.blocked = stat_blocked_.load(std::memory_order_relaxed);
  s.deadlocks = stat_deadlocks_.load(std::memory_order_relaxed);
  s.released = stat_released_.load(std::memory_order_relaxed);
  s.timeouts = stat_timeouts_.load(std::memory_order_relaxed);
  s.coop_parks = stat_coop_parks_.load(std::memory_order_relaxed);
  s.wakeups = stat_wakeups_.load(std::memory_order_relaxed);
  return s;
}

void LockManager::RegisterMetrics(obs::MetricsRegistry& reg,
                                  const std::string& prefix) {
  reg.RegisterGauge(prefix + "acquired", [this] { return stats().acquired; });
  reg.RegisterGauge(prefix + "blocked", [this] { return stats().blocked; });
  reg.RegisterGauge(prefix + "deadlocks",
                    [this] { return stats().deadlocks; });
  reg.RegisterGauge(prefix + "timeouts", [this] { return stats().timeouts; });
  reg.RegisterGauge(prefix + "coop_parks",
                    [this] { return stats().coop_parks; });
  reg.RegisterGauge(prefix + "wakeups", [this] { return stats().wakeups; });
  reg.RegisterHistogram(prefix + "wait_us", &wait_hist_);
  reg.RegisterHistogram(prefix + "park_wakeup_us", &park_wakeup_hist_);
}

LockDebugSnapshot LockManager::DebugSnapshot() const {
  // The global view: holders, waiters, and edges are one atomic picture —
  // exactly what diagnosing a wedged session needs.
  LockDebugSnapshot snap;
  auto all = LockAllBuckets();
  auto add = [&](const Queue& q) {
    auto held = [&](const LockSpec& s) {
      snap.held.push_back(
          LockDebugSnapshot::HeldEntry{s.txn, s.mode, Describe(s)});
    };
    for (const HeldLock& h : q.held) held(h.spec);
    for (const Waiter& w : q.waiting) {
      if (w.granted) {
        held(w.spec);
        continue;
      }
      snap.waiters.push_back(LockDebugSnapshot::WaiterEntry{
          w.spec.txn, w.spec.mode, Describe(w.spec), w.slot == nullptr});
      std::vector<TxnId> to;
      BlockedLocked(w.spec, &w, &to);
      for (TxnId t : to) snap.waits_for.emplace_back(w.spec.txn, t);
    }
  };
  for (const auto& b : buckets_) add(*b);
  add(preds_);
  return snap;
}

}  // namespace critique
