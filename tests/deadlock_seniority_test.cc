// Deadlock-victim seniority in blocking mode: a probe that closes a
// waits-for cycle aborts the cycle's most junior member, and an `Execute`
// restart keeps its first attempt's seniority, so a body that keeps
// losing deadlocks ages until it wins them.  `scripts/check.sh --stress`
// loops this suite under ThreadSanitizer (the doom-and-wake handoff is a
// cross-thread race).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/lock/lock_manager.h"

namespace critique {
namespace {

using std::chrono::milliseconds;

// Long budgets: the tests must be decided by dooming, never by a timeout
// or a recheck slice.
constexpr milliseconds kWait{10000};

bool ParkedWaiter(const LockManager& lm, TxnId txn) {
  for (const auto& w : lm.DebugSnapshot().waiters) {
    if (w.txn == txn && !w.cooperative) return true;
  }
  return false;
}

// `parked` and `prober` both hold S on x; `parked` parks on its upgrade,
// then `prober`'s upgrade closes the cycle.  Returns both answers; a
// loser's locks are released the way its engine would roll it back.
struct UpgradeRace {
  Status parked;
  Status prober;
};

UpgradeRace RaceUpgrades(LockManager& lm, TxnId parked, TxnId prober) {
  for (TxnId t : {parked, prober}) {
    EXPECT_TRUE(lm.TryAcquire(LockSpec::ReadItem(t, "x", std::nullopt)).ok());
  }
  UpgradeRace out;
  std::thread waiter([&] {
    auto r = lm.Acquire(
        LockSpec::WriteItem(parked, "x", std::nullopt, std::nullopt), kWait,
        kWait);
    out.parked = r.status();
    if (!r.ok()) lm.ReleaseAll(parked);
  });
  while (!ParkedWaiter(lm, parked)) std::this_thread::yield();
  auto r = lm.Acquire(
      LockSpec::WriteItem(prober, "x", std::nullopt, std::nullopt), kWait,
      kWait);
  out.prober = r.status();
  if (!r.ok()) lm.ReleaseAll(prober);
  waiter.join();
  return out;
}

TEST(SeniorityTest, SeniorUpgradeDoomsParkedJuniorUpgrader) {
  LockManager lm;
  UpgradeRace race = RaceUpgrades(lm, /*parked=*/2, /*prober=*/1);
  EXPECT_TRUE(race.prober.ok()) << race.prober.ToString();
  EXPECT_TRUE(race.parked.IsDeadlock()) << race.parked.ToString();
  EXPECT_EQ(lm.stats().deadlocks, 1u) << "one victim, counted once";
  EXPECT_EQ(lm.HeldCountBy(1), 2u);  // its S and the granted X
  EXPECT_EQ(lm.HeldCountBy(2), 0u);
}

TEST(SeniorityTest, InheritedSeniorityOutranksAYoungerId) {
  // T5 restarts an Execute body first tried as T1: it competes as T1, so
  // the parked T4 is the junior member and loses.
  LockManager lm;
  lm.InheritSeniority(5, 1);
  UpgradeRace race = RaceUpgrades(lm, /*parked=*/4, /*prober=*/5);
  EXPECT_TRUE(race.prober.ok()) << race.prober.ToString();
  EXPECT_TRUE(race.parked.IsDeadlock()) << race.parked.ToString();

  // ReleaseAll forgot the inheritance: parked T5 is junior to T3 now.
  lm.ReleaseAll(5);
  race = RaceUpgrades(lm, /*parked=*/5, /*prober=*/3);
  EXPECT_TRUE(race.prober.ok()) << race.prober.ToString();
  EXPECT_TRUE(race.parked.IsDeadlock()) << race.parked.ToString();

  // The requester is the victim when it is the junior member.
  lm.ReleaseAll(3);
  race = RaceUpgrades(lm, /*parked=*/7, /*prober=*/8);
  EXPECT_TRUE(race.prober.IsDeadlock()) << race.prober.ToString();
  EXPECT_TRUE(race.parked.ok()) << race.parked.ToString();
  EXPECT_EQ(lm.stats().deadlocks, 3u);
}

TEST(SeniorityTest, HotKeyTransfersNeverExhaustTheirRestarts) {
  // Two threads move money both ways between two accounts under blocking
  // Locking SERIALIZABLE: nearly every overlap is an S-to-X upgrade
  // deadlock.  With the stock policy (8 restarts, exponential backoff), a
  // body that lost a deadlock must not keep losing until it gives up.
  DbOptions opts(IsolationLevel::kSerializable);
  opts.mode = ConcurrencyMode::kBlocking;
  opts.retry_policy = std::make_shared<ExponentialBackoffRetryPolicy>();
  Database db(opts);
  ASSERT_TRUE(db.Load("a", Value(int64_t{100000})).ok());
  ASSERT_TRUE(db.Load("b", Value(int64_t{100000})).ok());

  constexpr int kExecutesPerThread = 5000;
  std::atomic<int> failed{0};
  std::vector<std::string> first_failure(2);
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w, rng = db.ForkRng()]() mutable {
      for (int i = 0; i < kExecutesPerThread; ++i) {
        const bool forward = rng.Chance(0.5);
        const ItemId from = forward ? "a" : "b";
        const ItemId to = forward ? "b" : "a";
        Status s = db.Execute([&](Transaction& t) -> Status {
          CRITIQUE_ASSIGN_OR_RETURN(Value f, t.GetScalar(from));
          CRITIQUE_ASSIGN_OR_RETURN(Value g, t.GetScalar(to));
          CRITIQUE_RETURN_NOT_OK(t.Put(from, Value(f.AsInt() - 1)));
          return t.Put(to, Value(g.AsInt() + 1));
        });
        if (!s.ok() && failed.fetch_add(1) == 0) {
          first_failure[static_cast<size_t>(w)] = s.ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failed.load(), 0) << first_failure[0] << first_failure[1];
  const EngineStats stats = db.StatsSnapshot();
  EXPECT_EQ(stats.commits, 2u * kExecutesPerThread);
  EXPECT_GT(stats.deadlock_aborts, 0u) << "the workload must contend";
  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("a")->AsInt() + audit.GetScalar("b")->AsInt(),
            200000);
  EXPECT_TRUE(audit.Commit().ok());
}

}  // namespace
}  // namespace critique
