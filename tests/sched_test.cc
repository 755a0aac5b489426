// Session executor (sched layer): the lock manager's grant-notification
// hook (FIFO grant order, S-batching, ReleaseAll cancellation), its
// exposure through EngineConcurrency / Database::SetLockWakeupHook, and
// the SessionExecutor itself — exact-count reconciliation over disjoint
// and hot keys, peak-open-session accounting, fairness under a hot key
// (no parked session starves, no polling), deadlock-retry integration,
// and a park/wakeup handoff smoke meant to run under --tsan (lost
// wakeups show up as a DrainFor timeout; races as TSan reports).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/engine/locking_engine.h"
#include "critique/lock/lock_manager.h"
#include "critique/sched/session_executor.h"

// Sanitized builds trade scale for instrumentation: keep the shapes, cut
// the session counts.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CRITIQUE_SANITIZED 1
#endif
#endif
#if !defined(CRITIQUE_SANITIZED) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define CRITIQUE_SANITIZED 1
#endif

namespace critique {
namespace {

using std::chrono::milliseconds;

LockSpec W(TxnId t, const ItemId& id) {
  return LockSpec::WriteItem(t, id, std::nullopt, std::nullopt);
}
LockSpec R(TxnId t, const ItemId& id) {
  return LockSpec::ReadItem(t, id, std::nullopt);
}

// ---------------------------------------------------------------------------
// LockManager grant-notification hook
// ---------------------------------------------------------------------------

TEST(WakeupHookTest, FifoHeadWokenAloneForExclusive) {
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  auto h1 = lm.TryAcquire(W(1, "k"));
  ASSERT_TRUE(h1.ok());
  EXPECT_TRUE(lm.TryAcquire(W(2, "k")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(W(3, "k")).status().IsWouldBlock());

  // Head of the FIFO only: T2 registered first, and an X waiter is woken
  // alone.
  lm.Release(*h1);
  EXPECT_EQ(woken, (std::vector<TxnId>{2}));

  auto h2 = lm.TryAcquire(W(2, "k"));
  ASSERT_TRUE(h2.ok());
  lm.Release(*h2);
  EXPECT_EQ(woken, (std::vector<TxnId>{2, 3}));

  LockStats s = lm.stats();
  EXPECT_EQ(s.coop_parks, 2u);
  EXPECT_EQ(s.wakeups, 2u);
}

TEST(WakeupHookTest, SharedWaitersBatchUpToFirstExclusive) {
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  auto h1 = lm.TryAcquire(W(1, "k"));
  ASSERT_TRUE(h1.ok());
  EXPECT_TRUE(lm.TryAcquire(R(2, "k")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(R(3, "k")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(W(4, "k")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(R(5, "k")).status().IsWouldBlock());

  // Readers admit together: the S head batches the later S waiters, but
  // only up to the first X — T5 queued behind the writer stays parked.
  lm.Release(*h1);
  EXPECT_EQ(woken, (std::vector<TxnId>{2, 3}));
}

TEST(WakeupHookTest, ReRegistrationKeepsFifoSeniority) {
  // An X waiter keeps its place in the queue until it is granted: a retry
  // while it still conflicts claims its queued request instead of queueing
  // again behind waiters that arrived meanwhile, and a release wakes only
  // the waiter it grants.
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  auto h1 = lm.TryAcquire(R(1, "k"));
  auto h2 = lm.TryAcquire(R(2, "k"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_TRUE(lm.TryAcquire(W(3, "k")).status().IsWouldBlock());

  // T1's release grants nothing (T2 still holds S), so it wakes nobody.
  lm.Release(*h1);
  EXPECT_TRUE(woken.empty());

  // T4 queues up behind T3, then T3's retry still conflicts.
  EXPECT_TRUE(lm.TryAcquire(W(4, "k")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(W(3, "k")).status().IsWouldBlock());

  // The last release grants T3, not T4: T3's wait began first.
  lm.Release(*h2);
  ASSERT_EQ(woken, (std::vector<TxnId>{3}));

  auto h3 = lm.TryAcquire(W(3, "k"));
  ASSERT_TRUE(h3.ok());
  EXPECT_EQ(woken.size(), 1u);  // and T3 was not queued twice
  lm.ReleaseAll(3);
  EXPECT_EQ(woken, (std::vector<TxnId>{3, 4}));
}

TEST(WakeupHookTest, ReleaseAllNeverMissesARacingFirstWaiter) {
  // Regression stress for a lost-wakeup race: ReleaseAll used to read
  // the cooperative-waiter count once, before taking any bucket latch.
  // A TryAcquire registering the FIRST waiter (under all bucket latches)
  // could land between that read and the bucket loop; ReleaseAll then
  // dropped the conflicting lock without collecting the wakeup and the
  // waiter stayed parked forever.  The count is now re-read under each
  // bucket latch, which orders it against registration.
  LockManager lm(4);
  std::mutex mu;
  std::condition_variable cv;
  bool woken = false;
  lm.SetWakeupHook([&](TxnId) {
    {
      std::lock_guard<std::mutex> l(mu);
      woken = true;
    }
    cv.notify_all();
  });
#if defined(CRITIQUE_SANITIZED)
  const int kIters = 300;
#else
  const int kIters = 3000;
#endif
  for (int i = 0; i < kIters; ++i) {
    {
      std::lock_guard<std::mutex> l(mu);
      woken = false;
    }
    ASSERT_TRUE(lm.TryAcquire(W(1, "k")).ok());
    std::thread releaser([&] { lm.ReleaseAll(1); });
    Result<LockHandle> r = lm.TryAcquire(W(2, "k"));
    if (r.status().IsWouldBlock()) {
      std::unique_lock<std::mutex> l(mu);
      const bool ok = cv.wait_for(l, std::chrono::seconds(10),
                                  [&] { return woken; });
      EXPECT_TRUE(ok) << "lost wakeup on iteration " << i;
      if (!ok) {
        releaser.join();
        break;
      }
    }
    releaser.join();
    lm.ReleaseAll(2);
  }
  EXPECT_EQ(lm.HeldCount(), 0u);
}

TEST(WakeupHookTest, ReleaseAllWakesAcrossItemsAndCancelsOwnRegistration) {
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  ASSERT_TRUE(lm.TryAcquire(W(1, "a")).ok());
  ASSERT_TRUE(lm.TryAcquire(W(1, "b")).ok());
  EXPECT_TRUE(lm.TryAcquire(W(2, "a")).status().IsWouldBlock());
  EXPECT_TRUE(lm.TryAcquire(W(3, "b")).status().IsWouldBlock());
  // T2 is blocked AND holds nothing T1 needs; now make T2 also a waiter
  // that T1's rollback must not wake twice or strand.
  lm.ReleaseAll(1);
  std::sort(woken.begin(), woken.end());
  EXPECT_EQ(woken, (std::vector<TxnId>{2, 3}));

  // A waiter rolled back while parked cancels its own registration: no
  // stale wakeup fires later.
  woken.clear();
  auto ha = lm.TryAcquire(W(2, "a"));
  ASSERT_TRUE(ha.ok());
  EXPECT_TRUE(lm.TryAcquire(W(3, "a")).status().IsWouldBlock());
  lm.ReleaseAll(3);  // T3 gives up while parked
  lm.Release(*ha);
  EXPECT_TRUE(woken.empty());
}

TEST(WakeupHookTest, DeadlockVerdictLeavesNoRegistration) {
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  ASSERT_TRUE(lm.TryAcquire(W(1, "a")).ok());
  ASSERT_TRUE(lm.TryAcquire(W(2, "b")).ok());
  EXPECT_TRUE(lm.TryAcquire(W(2, "a")).status().IsWouldBlock());
  // T1 -> b closes the cycle: requester is the victim, and the verdict
  // must leave no wakeup registration behind for T1.
  EXPECT_TRUE(lm.TryAcquire(W(1, "b")).status().IsDeadlock());

  lm.ReleaseAll(1);  // the victim rolls back; its lock on "a" wakes T2
  EXPECT_EQ(woken, (std::vector<TxnId>{2}));
  lm.ReleaseAll(2);
  EXPECT_EQ(woken.size(), 1u);  // nobody is registered for T1 anymore
}

TEST(WakeupHookTest, PredicateWaitersWokenByItemRelease) {
  LockManager lm(4);
  std::vector<TxnId> woken;
  lm.SetWakeupHook([&](TxnId t) { woken.push_back(t); });

  auto h = lm.TryAcquire(W(1, "x"));
  ASSERT_TRUE(h.ok());
  // A predicate waiter structurally overlapping item "x".
  EXPECT_TRUE(
      lm.TryAcquire(LockSpec::WritePredicate(2, Predicate::KeyIs("x")))
          .status()
          .IsWouldBlock());
  lm.Release(*h);
  EXPECT_EQ(woken, (std::vector<TxnId>{2}));
}

// ---------------------------------------------------------------------------
// Hook exposure through EngineConcurrency / the Database facade
// ---------------------------------------------------------------------------

TEST(WakeupHookTest, DatabaseExposesHookThroughEngineConcurrency) {
  Database db(IsolationLevel::kSerializable);
  std::mutex mu;
  std::vector<TxnId> woken;
  db.SetLockWakeupHook([&](TxnId t) {
    std::lock_guard<std::mutex> lk(mu);
    woken.push_back(t);
  });
  ASSERT_TRUE(db.Load("x", Value(1)).ok());

  Transaction t1 = db.Begin();
  Transaction t2 = db.Begin();
  ASSERT_TRUE(t1.Put("x", Value(2)).ok());
  auto blocked = t2.Get("x");
  ASSERT_TRUE(blocked.status().IsWouldBlock());
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_TRUE(woken.empty());
  }
  ASSERT_TRUE(t1.Commit().ok());  // releases T1's X lock -> wakes T2
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(woken, (std::vector<TxnId>{t2.id()}));
  }
  ASSERT_TRUE(t2.Get("x").ok());
  ASSERT_TRUE(t2.Commit().ok());

  // Uninstalling requires quiescence and stops further notifications.
  db.SetLockWakeupHook(nullptr);
  Transaction t3 = db.Begin();
  ASSERT_TRUE(t3.Put("x", Value(3)).ok());
  ASSERT_TRUE(t3.Commit().ok());
  std::lock_guard<std::mutex> lk(mu);
  EXPECT_EQ(woken.size(), 1u);
}

// ---------------------------------------------------------------------------
// SessionExecutor
// ---------------------------------------------------------------------------

DbOptions CoopOptions(IsolationLevel level, int txn_retries = 64) {
  DbOptions opt(level);
  opt.mode = ConcurrencyMode::kCooperative;
  opt.retry_policy = std::make_shared<LimitedRetryPolicy>(txn_retries, 0);
  return opt;
}

Status IncrementStep(Transaction& txn, const ItemId& key) {
  return txn.Update(key, [](const std::optional<Row>& r) {
    const int64_t v = r.has_value() && !r->scalar().is_null()
                          ? r->scalar().AsInt()
                          : 0;
    return Row::Scalar(Value(v + 1));
  });
}

int64_t ReadCount(Database& db, const ItemId& key) {
  Transaction t = db.Begin();
  auto v = t.GetScalar(key);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  const int64_t out = v.ok() && !v->is_null() ? v->AsInt() : 0;
  EXPECT_TRUE(t.Commit().ok());
  return out;
}

TEST(SessionExecutorTest, DisjointSessionsAllCommitExactCounts) {
  const int kSessions = 2000;
  Database db(CoopOptions(IsolationLevel::kSerializable));
  SessionExecutorOptions opt;
  opt.workers = 4;
  SessionExecutor ex(db, opt);
  std::atomic<int> ok_done{0};
  for (int i = 0; i < kSessions; ++i) {
    const ItemId key = "k" + std::to_string(i);
    ex.Submit(1,
              [key](Transaction& txn, uint64_t) {
                return IncrementStep(txn, key);
              },
              [&](uint64_t, const Status& s) { ok_done += s.ok(); });
  }
  ex.Drain();
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.submitted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(ok_done.load(), kSessions);
  EXPECT_EQ(db.open_transactions(), 0);
  for (int i = 0; i < kSessions; i += 97) {
    EXPECT_EQ(ReadCount(db, "k" + std::to_string(i)), 1);
  }
}

TEST(SessionExecutorTest, PeakOpenSessionsReachesSubmitted) {
  const int kSessions = 500;
  Database db(CoopOptions(IsolationLevel::kSnapshotIsolation));
  SessionExecutorOptions opt;
  opt.workers = 4;
  opt.start_paused = true;
  opt.commit_barrier = kSessions;
  SessionExecutor ex(db, opt);
  for (int i = 0; i < kSessions; ++i) {
    const ItemId key = "p" + std::to_string(i);
    ex.Submit(1, [key](Transaction& txn, uint64_t) {
      return txn.Put(key, Value(1));
    });
  }
  ex.Resume();
  ex.Drain();
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  // The commit barrier held the doors: every session was open at once.
  EXPECT_GE(st.peak_open_sessions, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(db.open_transactions(), 0);
}

TEST(SessionExecutorTest, HotKeyFairnessNoParkedSessionStarves) {
  // One X-locked key, hundreds of parked writers, 4 workers.  Every
  // session must drain through the FIFO wait list — a starved parked
  // session shows up as a DrainFor timeout — and the wait path must be
  // event-driven: every cooperative park is resolved by a wakeup, never
  // by a timeout or a poll.
  const int kSessions = 256;
  Database db(CoopOptions(IsolationLevel::kSerializable));
  ASSERT_TRUE(db.Load("hot", Value(0)).ok());
  SessionExecutorOptions opt;
  opt.workers = 4;
  SessionExecutor ex(db, opt);
  for (int i = 0; i < kSessions; ++i) {
    ex.Submit(1, [i](Transaction& txn, uint64_t) {
      return txn.Put("hot", Value(i));  // blind write: X lock, no upgrade
    });
  }
  ASSERT_TRUE(ex.DrainFor(milliseconds(60000)));
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.parks, 0u);

  auto* engine = dynamic_cast<LockingEngine*>(&db.engine());
  ASSERT_NE(engine, nullptr);
  LockStats ls = engine->lock_stats();
  EXPECT_EQ(ls.timeouts, 0u);        // nobody waited on a clock
  EXPECT_GT(ls.wakeups, 0u);         // the hook, not polling, resumed them
  EXPECT_EQ(ls.coop_parks, ls.wakeups);  // every park ended in a wakeup
  EXPECT_EQ(st.parks, ls.coop_parks);
}

TEST(SessionExecutorTest, HotKeyIncrementsReconcileThroughDeadlockRetries) {
  // Read-modify-write on one key under locking SERIALIZABLE: the S->X
  // upgrade pattern deadlocks constantly, so this drives the executor's
  // abort -> RetryPolicy -> re-enqueue loop hard.  Exactly one increment
  // per session must survive.  Backoff is load-bearing: with zero-delay
  // retries the aborted sessions re-take S immediately and the parked
  // X waiter's window never opens under a sanitizer's slowdown.
  const int kSessions = 96;
  DbOptions dbo(IsolationLevel::kSerializable);
  dbo.mode = ConcurrencyMode::kCooperative;
  dbo.retry_policy = std::make_shared<ExponentialBackoffRetryPolicy>(1 << 20);
  Database db(dbo);
  ASSERT_TRUE(db.Load("ctr", Value(0)).ok());
  SessionExecutorOptions opt;
  opt.workers = 4;
  SessionExecutor ex(db, opt);
  for (int i = 0; i < kSessions; ++i) {
    ex.Submit(1, [](Transaction& txn, uint64_t) {
      return IncrementStep(txn, "ctr");
    });
  }
  ASSERT_TRUE(ex.DrainFor(milliseconds(120000)));
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(ReadCount(db, "ctr"), kSessions);
}

TEST(SessionExecutorTest, ContendedSnapshotIsolationRetriesToExactCount) {
  // First-Committer-Wins refusals (kSerializationFailure) re-enqueue
  // through the policy — with backoff, so the timer path runs too.
  const int kSessions = 1000;
  const int kKeys = 32;
  DbOptions dbo(IsolationLevel::kSnapshotIsolation);
  dbo.mode = ConcurrencyMode::kCooperative;
  dbo.retry_policy = std::make_shared<ExponentialBackoffRetryPolicy>(
      1 << 20, std::chrono::microseconds(50), std::chrono::microseconds(800));
  Database db(dbo);
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.Load("s" + std::to_string(k), Value(0)).ok());
  }
  SessionExecutorOptions opt;
  opt.workers = 4;
  SessionExecutor ex(db, opt);
  for (int i = 0; i < kSessions; ++i) {
    const ItemId key = "s" + std::to_string(i % kKeys);
    ex.Submit(1, [key](Transaction& txn, uint64_t) {
      return IncrementStep(txn, key);
    });
  }
  ASSERT_TRUE(ex.DrainFor(milliseconds(120000)));
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_GT(st.retries, 0u);  // FCW definitely fired at this contention
  int64_t sum = 0;
  for (int k = 0; k < kKeys; ++k) sum += ReadCount(db, "s" + std::to_string(k));
  EXPECT_EQ(sum, kSessions);
}

TEST(SessionExecutorTest, ParkWakeupHandoffNoLostWakeups) {
  // The TSan smoke: few workers, many sessions hammering a handful of
  // keys in *different orders* (so parks, wakeups, deadlock aborts, and
  // retries all interleave).  A lost wakeup wedges a parked session
  // forever and fails the DrainFor; a racy handoff is a TSan report.
  const int kKeys = 8;
#if defined(CRITIQUE_SANITIZED)
  const int kSessions = 256;
#else
  const int kSessions = 512;
#endif
  Database db(CoopOptions(IsolationLevel::kSerializable, 1 << 20));
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.Load("h" + std::to_string(k), Value(0)).ok());
  }
  SessionExecutorOptions opt;
  opt.workers = 2;
  SessionExecutor ex(db, opt);
  for (int i = 0; i < kSessions; ++i) {
    // Each session writes two hot keys; odd sessions in reverse order,
    // manufacturing lock-order cycles on purpose.
    const ItemId a = "h" + std::to_string(i % kKeys);
    const ItemId b = "h" + std::to_string((i + 3) % kKeys);
    const bool flip = (i % 2) != 0;
    ex.Submit(2, [a, b, flip, i](Transaction& txn, uint64_t step) {
      const ItemId& key = (step == 0) == flip ? b : a;
      return txn.Put(key, Value(i));
    });
  }
  ASSERT_TRUE(ex.DrainFor(milliseconds(120000)));
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(db.open_transactions(), 0);
}

TEST(SessionExecutorTest, ExactCountReconciliationManySessions) {
  // The C10K claim at test scale: massively more open sessions than
  // workers, every one of them open concurrently at some point is not
  // asserted here (that is the peak test / bench) — what is asserted is
  // exact accounting: every session commits exactly once and every
  // increment lands.  Snapshot Isolation keeps the per-op cost flat at
  // this width.
#if defined(CRITIQUE_SANITIZED)
  const int kSessions = 20000;
#else
  const int kSessions = 100000;
#endif
  Database db(CoopOptions(IsolationLevel::kSnapshotIsolation));
  SessionExecutorOptions opt;
  opt.workers = 8;
  SessionExecutor ex(db, opt);
  std::atomic<uint64_t> acked{0};
  for (int i = 0; i < kSessions; ++i) {
    const ItemId key = "m" + std::to_string(i);
    ex.Submit(1,
              [key](Transaction& txn, uint64_t) {
                return IncrementStep(txn, key);
              },
              [&](uint64_t, const Status& s) { acked += s.ok(); });
  }
  ex.Drain();
  SessionExecutorStats st = ex.stats();
  EXPECT_EQ(st.committed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(acked.load(), static_cast<uint64_t>(kSessions));
  EXPECT_EQ(db.open_transactions(), 0);
  // Spot-check reconciliation across the key space.
  for (int i = 0; i < kSessions; i += 997) {
    EXPECT_EQ(ReadCount(db, "m" + std::to_string(i)), 1);
  }
}

TEST(SessionExecutorTest, NonRetryableErrorFinishesSessionWithStatus) {
  Database db(CoopOptions(IsolationLevel::kSerializable));
  SessionExecutor ex(db);
  Status seen = Status::OK();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ex.Submit(1,
            [](Transaction& txn, uint64_t) {
              return txn.Erase("never-existed");  // NotFound: semantic, final
            },
            [&](uint64_t, const Status& s) {
              std::lock_guard<std::mutex> lk(mu);
              seen = s;
              done = true;
              cv.notify_all();
            });
  ex.Drain();
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
  EXPECT_TRUE(seen.IsNotFound());
  EXPECT_EQ(ex.stats().failed, 1u);
  EXPECT_EQ(db.open_transactions(), 0);
}

TEST(SessionExecutorTest, DestructorRollsBackUnfinishedSessions) {
  Database db(CoopOptions(IsolationLevel::kSerializable));
  ASSERT_TRUE(db.Load("x", Value(0)).ok());
  {
    SessionExecutorOptions opt;
    opt.workers = 2;
    opt.start_paused = true;
    SessionExecutor ex(db, opt);
    for (int i = 0; i < 16; ++i) {
      ex.Submit(1, [](Transaction& txn, uint64_t) {
        return txn.Put("x", Value(99));
      });
    }
    // Never resumed: the destructor abandons the queue and rolls back
    // whatever had begun.
  }
  EXPECT_EQ(db.open_transactions(), 0);
  EXPECT_EQ(ReadCount(db, "x"), 0);
  // The hook was removed: plain cooperative use works afterwards.
  Transaction t = db.Begin();
  ASSERT_TRUE(t.Put("x", Value(1)).ok());
  ASSERT_TRUE(t.Commit().ok());
}

}  // namespace
}  // namespace critique
