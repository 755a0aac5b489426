// Session-facade tests: RAII rollback of Transaction handles, move-only
// handle semantics, id assignment, the pluggable engine SPI, blocked-op
// retry under RetryPolicy, and Database::Execute's serialization-failure
// restart loop (the contract the acceptance criteria name).

#include <gtest/gtest.h>

#include <memory>

#include "critique/db/database.h"
#include "critique/engine/locking_engine.h"
#include "critique/engine/si_engine.h"

namespace critique {
namespace {

// --- construction / options -------------------------------------------------

TEST(DatabaseTest, DefaultIsSerializable) {
  Database db;
  EXPECT_EQ(db.level(), IsolationLevel::kSerializable);
}

TEST(DatabaseTest, LevelConstructorBuildsStockEngine) {
  Database db(IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(db.level(), IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(db.name(), "Snapshot Isolation");
}

TEST(DatabaseTest, EngineFactorySpiPlugsInCustomEngine) {
  DbOptions options;
  // The isolation field is ignored once a factory is supplied.
  options.isolation = IsolationLevel::kReadUncommitted;
  options.engine_factory = [] {
    SnapshotIsolationOptions si;
    si.ssi = true;
    return std::make_unique<SnapshotIsolationEngine>(si);
  };
  Database db(options);
  EXPECT_EQ(db.level(), IsolationLevel::kSerializableSI);
}

TEST(DatabaseTest, DefaultRetryPolicyIsLimited) {
  Database db;
  EXPECT_EQ(db.retry_policy().name(), "limited(8,0)");
}

TEST(DatabaseTest, OpenTransactionCountTracksHandles) {
  Database db;
  EXPECT_EQ(db.open_transactions(), 0);
  {
    Transaction a = db.Begin();
    Transaction b = db.Begin();
    EXPECT_EQ(db.open_transactions(), 2);
    Transaction c = std::move(a);  // transfer, not a new open txn
    EXPECT_EQ(db.open_transactions(), 2);
    ASSERT_TRUE(b.Commit().ok());
    EXPECT_EQ(db.open_transactions(), 1);
  }  // c rolls back on destruction
  EXPECT_EQ(db.open_transactions(), 0);
}

// --- transaction basics -----------------------------------------------------

TEST(TransactionTest, AutoIdsAreUniqueAndIncreasing) {
  Database db;
  Transaction a = db.Begin();
  Transaction b = db.Begin();
  EXPECT_NE(a.id(), b.id());
  EXPECT_GT(b.id(), a.id());
  (void)a.Commit();
  (void)b.Commit();
}

TEST(TransactionTest, BeginWithIdRejectsReuse) {
  Database db;
  auto t1 = db.BeginWithId(1);
  ASSERT_TRUE(t1.ok());
  auto dup = db.BeginWithId(1);
  EXPECT_FALSE(dup.ok());
  // Auto ids skip past explicitly used ones.
  Transaction t2 = db.Begin();
  EXPECT_GT(t2.id(), 1);
  (void)t1->Commit();
  (void)t2.Commit();
}

TEST(TransactionTest, RefusedDuplicateIdLeavesTheLiveTransactionAlone) {
  // The refused begin must neither move the GC watermark past the live
  // T1's snapshot nor drop T1 (which has not acted yet) from the checker.
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.online_check = true;
  opts.online_check_prune_interval = 0;
  Database db(opts);
  ASSERT_TRUE(db.Load("x", Value(0)).ok());
  auto t1 = db.BeginWithId(1);
  ASSERT_TRUE(t1.ok());
  for (int i = 1; i <= 2; ++i) {
    ASSERT_TRUE(
        db.Execute([&](Transaction& t) { return t.Put("x", Value(i)); }).ok());
  }
  const std::optional<Timestamp> oldest = db.OldestOpenSnapshot();
  const uint64_t live = db.checker()->Report().live_nodes;
  ASSERT_TRUE(oldest.has_value());
  ASSERT_LT(*oldest, *db.CurrentTimestamp());

  auto dup = db.BeginWithId(1);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsInvalidArgument()) << dup.status().ToString();
  EXPECT_EQ(db.OldestOpenSnapshot(), oldest);
  EXPECT_EQ(db.checker()->Report().live_nodes, live);

  Result<Value> x = t1->GetScalar("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->AsInt(), 0) << "T1 still reads its own snapshot";
  ASSERT_TRUE(t1->Commit().ok());
  EXPECT_EQ(db.checker()->Report().commits_certified, 3u);
  EXPECT_TRUE(db.checker()->Report().ok());
}

TEST(TransactionTest, ReadYourOwnWrites) {
  Database db;
  (void)db.Load("x", Value(1));
  Transaction txn = db.Begin();
  ASSERT_TRUE(txn.Put("x", Value(5)).ok());
  auto v = txn.GetScalar("x");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Equals(Value(5)));
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(TransactionTest, OperationsAfterCommitAnswerTransactionAborted) {
  Database db;
  (void)db.Load("x", Value(1));
  Transaction txn = db.Begin();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_TRUE(txn.Get("x").status().IsTransactionAborted());
  EXPECT_TRUE(txn.Commit().IsTransactionAborted());
  EXPECT_TRUE(txn.Rollback().ok());  // idempotent no-op
}

// --- RAII rollback ----------------------------------------------------------

TEST(TransactionTest, DroppedHandleRollsBack) {
  Database db;
  (void)db.Load("x", Value(7));
  {
    Transaction txn = db.Begin();
    ASSERT_TRUE(txn.Put("x", Value(999)).ok());
    // no Commit: destructor must roll back and release the write lock
  }
  EXPECT_EQ(db.stats().aborts, 1u);
  Transaction check = db.Begin();
  auto v = check.GetScalar("x");  // would block if the lock leaked
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->Equals(Value(7)));
  (void)check.Commit();
}

TEST(TransactionTest, DroppedHandleAfterEngineAbortStaysQuiet) {
  // When the engine already aborted the transaction (deadlock /
  // serialization), the destructor must not double-abort.
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("x", Value(1));
  {
    Transaction t1 = db.Begin();
    Transaction t2 = db.Begin();
    ASSERT_TRUE(t1.Put("x", Value(2)).ok());
    ASSERT_TRUE(t1.Commit().ok());
    ASSERT_TRUE(t2.Put("x", Value(3)).ok());
    EXPECT_TRUE(t2.Commit().IsSerializationFailure());  // FCW
    EXPECT_FALSE(t2.active());
    // t2's handle dies here; stats must show exactly one serialization
    // abort and no application abort.
  }
  EXPECT_EQ(db.stats().serialization_aborts, 1u);
  EXPECT_EQ(db.stats().aborts, 0u);
}

TEST(TransactionTest, MoveTransfersOwnership) {
  Database db;
  (void)db.Load("x", Value(7));
  Transaction a = db.Begin();
  ASSERT_TRUE(a.Put("x", Value(8)).ok());
  Transaction b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): husk check
  EXPECT_TRUE(b.active());
  EXPECT_TRUE(a.Get("x").status().IsTransactionAborted());
  EXPECT_TRUE(b.Commit().ok());
  Transaction check = db.Begin();
  EXPECT_TRUE(check.GetScalar("x")->Equals(Value(8)));
  (void)check.Commit();
}

TEST(TransactionTest, MoveAssignmentRollsBackTheOverwrittenTxn) {
  Database db;
  (void)db.Load("x", Value(1));
  Transaction a = db.Begin();
  ASSERT_TRUE(a.Put("x", Value(2)).ok());
  a = db.Begin();  // the original transaction must be rolled back
  EXPECT_EQ(db.stats().aborts, 1u);
  auto v = a.GetScalar("x");  // not blocked by the dead txn's lock
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Equals(Value(1)));
  (void)a.Commit();
}

// --- blocked-op retry under RetryPolicy ------------------------------------

TEST(RetryPolicyTest, RetryableStatusClassification) {
  EXPECT_TRUE(IsRetryableStatus(Status::WouldBlock()));
  EXPECT_TRUE(IsRetryableStatus(Status::Deadlock()));
  EXPECT_TRUE(IsRetryableStatus(Status::SerializationFailure()));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound()));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
}

TEST(RetryPolicyTest, BlockedOpsAreReissuedUpToTheBudget) {
  DbOptions options;
  options.isolation = IsolationLevel::kSerializable;
  options.retry_policy =
      std::make_shared<LimitedRetryPolicy>(/*max_txn_retries=*/0,
                                           /*max_blocked_op_retries=*/3);
  Database db(options);
  (void)db.Load("x", Value(1));

  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());

  Transaction blocked = db.Begin();
  Status s = blocked.Get("x").status();
  EXPECT_TRUE(s.IsWouldBlock());
  // 1 initial attempt + 3 policy retries, all answered kWouldBlock.
  EXPECT_EQ(db.stats().blocked_ops, 4u);
  EXPECT_TRUE(blocked.active());  // blocked ops leave the txn usable

  // After the holder commits, the same op goes through.
  ASSERT_TRUE(holder.Commit().ok());
  auto v = blocked.GetScalar("x");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Equals(Value(2)));
  (void)blocked.Commit();
}

TEST(RetryPolicyTest, ManualSessionsBypassBlockedOpRetry) {
  // BeginWithId sessions are the step-wise interleaving path: even with an
  // op-retry budget configured, kWouldBlock must surface immediately so
  // the schedule (e.g. the Runner) decides when to retry.
  DbOptions options;
  options.retry_policy = std::make_shared<LimitedRetryPolicy>(8, 3);
  Database db(options);
  (void)db.Load("x", Value(1));
  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());
  auto manual = db.BeginWithId(42);
  ASSERT_TRUE(manual.ok());
  EXPECT_TRUE(manual->Get("x").status().IsWouldBlock());
  EXPECT_EQ(db.stats().blocked_ops, 1u);  // no in-call spin
  (void)holder.Rollback();
  (void)manual->Rollback();
}

TEST(RetryPolicyTest, NoRetryPolicySurfacesTheFirstBlock) {
  DbOptions options;
  options.retry_policy = std::make_shared<NoRetryPolicy>();
  Database db(options);
  (void)db.Load("x", Value(1));
  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());
  Transaction blocked = db.Begin();
  EXPECT_TRUE(blocked.Get("x").status().IsWouldBlock());
  EXPECT_EQ(db.stats().blocked_ops, 1u);
  (void)holder.Rollback();
  (void)blocked.Rollback();
}

// --- Database::Execute ------------------------------------------------------

TEST(ExecuteTest, CommitsTheBodyOnce) {
  Database db;
  (void)db.Load("x", Value(1));
  int calls = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++calls;
    auto v = txn.GetScalar("x");
    if (!v.ok()) return v.status();
    return txn.Put("x", Value(static_cast<int64_t>(*v->AsNumeric()) + 1));
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(db.execute_retries(), 0u);
  Transaction check = db.Begin();
  EXPECT_TRUE(check.GetScalar("x")->Equals(Value(2)));
  (void)check.Commit();
}

TEST(ExecuteTest, RespectsABodyThatFinishesItsOwnTransaction) {
  Database db;
  (void)db.Load("x", Value(1));
  Status s = db.Execute([](Transaction& txn) {
    (void)txn.Put("x", Value(2));
    return txn.Rollback();  // the body decides: no commit
  });
  EXPECT_TRUE(s.ok());
  Transaction check = db.Begin();
  EXPECT_TRUE(check.GetScalar("x")->Equals(Value(1)));
  (void)check.Commit();
}

TEST(ExecuteTest, RetriesSerializationFailureUntilSuccess) {
  // The real First-Committer-Wins restart: the body's first attempt loses
  // the commit race against a hoarding session that commits after the
  // body's snapshot was taken; the retry runs on a fresh snapshot and
  // succeeds.
  DbOptions options(IsolationLevel::kSnapshotIsolation);
  options.retry_policy = std::make_shared<LimitedRetryPolicy>(4);
  Database db(options);
  (void)db.Load("balance", Value(0));

  Transaction hoarder = db.Begin();
  ASSERT_TRUE(hoarder.Put("balance", Value(100)).ok());

  int attempts = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++attempts;
    if (attempts == 1) {
      // Fix the snapshot first, then let the hoarder win the commit race.
      auto snap = txn.GetScalar("balance");
      EXPECT_TRUE(snap.ok());
      EXPECT_TRUE(snap->Equals(Value(0)));
      EXPECT_TRUE(hoarder.Commit().ok());
    }
    auto v = txn.GetScalar("balance");
    if (!v.ok()) return v.status();
    return txn.Put("balance",
                   Value(static_cast<int64_t>(*v->AsNumeric()) + 1));
  });

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(db.execute_retries(), 1u);
  EXPECT_EQ(db.stats().serialization_aborts, 1u);
  Transaction check = db.Begin();
  EXPECT_TRUE(check.GetScalar("balance")->Equals(Value(101)));
  (void)check.Commit();
}

TEST(ExecuteTest, ExhaustsRetriesAndSurfacesTheFailure) {
  DbOptions options(IsolationLevel::kSerializable);
  options.retry_policy = std::make_shared<LimitedRetryPolicy>(2);
  Database db(options);
  (void)db.Load("x", Value(1));

  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());  // never released

  int attempts = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++attempts;
    return txn.Get("x").status();
  });
  EXPECT_TRUE(s.IsWouldBlock());
  EXPECT_EQ(attempts, 3);  // 1 + 2 retries
  EXPECT_EQ(db.execute_retries(), 2u);
  (void)holder.Rollback();
}

TEST(ExecuteTest, NonRetryableErrorsAreNotRetried) {
  Database db;
  int attempts = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++attempts;
    return txn.Erase("no_such_item");
  });
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(db.execute_retries(), 0u);
}

TEST(ExecuteTest, DeadlockVictimIsRetried) {
  // A deadlock-victim restart: the holder owns x and waits for y; the
  // Execute body owns y and then requests x, closing the cycle.  The lock
  // manager's requester-as-victim policy aborts the body, and Execute
  // re-runs it.
  DbOptions options;
  options.engine_factory = [] {
    return std::make_unique<LockingEngine>(IsolationLevel::kSerializable);
  };
  options.retry_policy = std::make_shared<LimitedRetryPolicy>(4);
  Database db(options);
  (void)db.Load("x", Value(1));
  (void)db.Load("y", Value(1));

  Transaction holder = db.Begin();
  ASSERT_TRUE(holder.Put("x", Value(2)).ok());

  int attempts = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++attempts;
    if (attempts == 1) {
      CRITIQUE_RETURN_NOT_OK(txn.Put("y", Value(3)));  // body holds y
      EXPECT_TRUE(holder.Put("y", Value(4)).IsWouldBlock());  // holder waits
      Status dead = txn.Put("x", Value(3));  // closes the cycle: victim
      EXPECT_TRUE(dead.IsDeadlock()) << dead.ToString();
      EXPECT_FALSE(txn.active());  // the engine already rolled us back
      return dead;  // Execute restarts the body
    }
    // Retry path: release the holder so the body can finish.
    (void)holder.Rollback();
    CRITIQUE_RETURN_NOT_OK(txn.Put("y", Value(5)));
    return txn.Put("x", Value(5));
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(db.execute_retries(), 1u);
  EXPECT_EQ(db.stats().deadlock_aborts, 1u);
}

// --- time travel through the facade ----------------------------------------

TEST(TimeTravelTest, HistoricalSnapshotsReadThePast) {
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("x", Value(1));
  ASSERT_TRUE(db.CurrentTimestamp().has_value());
  Timestamp before = *db.CurrentTimestamp();

  ASSERT_TRUE(db.Execute([](Transaction& txn) {
    return txn.Put("x", Value(2));
  }).ok());

  auto historical = db.BeginAtTimestamp(before);
  ASSERT_TRUE(historical.ok()) << historical.status().ToString();
  EXPECT_TRUE(historical->GetScalar("x")->Equals(Value(1)));
  (void)historical->Commit();

  Transaction now = db.Begin();
  EXPECT_TRUE(now.GetScalar("x")->Equals(Value(2)));
  (void)now.Commit();
}

TEST(TimeTravelTest, LockingEnginesRefuse) {
  Database db(IsolationLevel::kSerializable);
  EXPECT_FALSE(db.CurrentTimestamp().has_value());
  auto t = db.BeginAtTimestamp(1);
  EXPECT_TRUE(t.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace critique
