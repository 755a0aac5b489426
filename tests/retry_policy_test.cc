// RetryPolicy edge cases: zero retry budgets, backoff monotonicity and
// saturation, the guarantee that non-retryable statuses are never
// retried — neither by the policy predicate nor by `Database::Execute` —
// and the `Execute` contract `Database` and `ShardedDatabase` share.

#include <chrono>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "critique/db/database.h"
#include "critique/db/retry_policy.h"
#include "critique/shard/sharded_database.h"

namespace critique {
namespace {

TEST(RetryPolicyTest, ZeroMaxAttemptsNeverRetries) {
  LimitedRetryPolicy policy(/*max_txn_retries=*/0,
                            /*max_blocked_op_retries=*/0);
  EXPECT_FALSE(policy.RetryTransaction(Status::SerializationFailure("x"), 1));
  EXPECT_FALSE(policy.RetryTransaction(Status::Deadlock("x"), 1));
  EXPECT_FALSE(policy.RetryTransaction(Status::WouldBlock("x"), 1));
  EXPECT_FALSE(policy.RetryBlockedOp(1));
}

TEST(RetryPolicyTest, NonRetryableStatusesAreNeverRetried) {
  // Whatever the budget, a semantic answer is final.
  LimitedRetryPolicy generous(/*max_txn_retries=*/1000,
                              /*max_blocked_op_retries=*/1000);
  const Status semantic[] = {
      Status::OK(),           Status::NotFound("x"),
      Status::InvalidArgument("x"), Status::FailedPrecondition("x"),
      Status::TransactionAborted("x"), Status::Internal("x"),
  };
  for (const Status& s : semantic) {
    EXPECT_FALSE(IsRetryableStatus(s)) << s.ToString();
    EXPECT_FALSE(generous.RetryTransaction(s, 1)) << s.ToString();
  }
}

TEST(RetryPolicyTest, ExecuteDoesNotRerunANonRetryableBody) {
  Database db(IsolationLevel::kSerializable);
  int calls = 0;
  Status s = db.Execute([&](Transaction&) {
    ++calls;
    return Status::InvalidArgument("semantic failure");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(db.execute_retries(), 0u);
}

TEST(RetryPolicyTest, ExecuteHonorsZeroBudget) {
  DbOptions opts(IsolationLevel::kSerializable);
  opts.retry_policy = std::make_shared<LimitedRetryPolicy>(0, 0);
  Database db(opts);
  int calls = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++calls;
    (void)txn.Rollback();
    return Status::SerializationFailure("always");
  });
  EXPECT_TRUE(s.IsSerializationFailure());
  EXPECT_EQ(calls, 1);  // retryable, but the budget says no
  EXPECT_EQ(db.execute_retries(), 0u);
}

TEST(RetryPolicyTest, BackoffDelayIsMonotoneAndSaturates) {
  ExponentialBackoffRetryPolicy policy(
      /*max_txn_retries=*/16, std::chrono::microseconds(100),
      std::chrono::microseconds(5000));
  auto prev = std::chrono::microseconds::zero();
  for (int attempt = 1; attempt <= 80; ++attempt) {
    const auto d = policy.RetryDelay(attempt);
    EXPECT_GE(d, prev) << "attempt " << attempt;
    EXPECT_LE(d, policy.cap()) << "attempt " << attempt;
    prev = d;
  }
  EXPECT_EQ(policy.RetryDelay(1), std::chrono::microseconds(100));
  EXPECT_EQ(policy.RetryDelay(2), std::chrono::microseconds(200));
  // Far past the doubling horizon the delay pins to the cap — no overflow.
  EXPECT_EQ(policy.RetryDelay(64), policy.cap());
  EXPECT_EQ(policy.RetryDelay(1000), policy.cap());
}

TEST(RetryPolicyTest, BackoffDegenerateBasesStayOrdered) {
  // Zero base: never sleep, whatever the attempt.
  ExponentialBackoffRetryPolicy zero(8, std::chrono::microseconds(0),
                                     std::chrono::microseconds(1000));
  EXPECT_EQ(zero.RetryDelay(5), std::chrono::microseconds::zero());
  // Cap below base is lifted to the base (the ctor refuses an inverted
  // range rather than producing a non-monotone sequence).
  ExponentialBackoffRetryPolicy inverted(8, std::chrono::microseconds(500),
                                         std::chrono::microseconds(10));
  EXPECT_EQ(inverted.cap(), std::chrono::microseconds(500));
  EXPECT_EQ(inverted.RetryDelay(1), std::chrono::microseconds(500));
  EXPECT_EQ(inverted.RetryDelay(9), std::chrono::microseconds(500));
}

TEST(RetryPolicyTest, BackoffPolicyDrivesExecuteToSuccess) {
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.retry_policy = std::make_shared<ExponentialBackoffRetryPolicy>(
      /*max_txn_retries=*/4, std::chrono::microseconds(1),
      std::chrono::microseconds(8));
  Database db(opts);
  ASSERT_TRUE(db.Load("a", Value(0)).ok());
  int calls = 0;
  Status s = db.Execute([&](Transaction& txn) {
    ++calls;
    CRITIQUE_RETURN_NOT_OK(txn.Put("a", Value(calls)));
    if (calls < 3) {
      (void)txn.Rollback();
      return Status::SerializationFailure("warming up");
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(db.execute_retries(), 2u);
}

TEST(RetryPolicyTest, ShardedExecuteSharesTheRetryProtocol) {
  // The sharded facade surfaces retryable outcomes through the same
  // policy type; exhausting the budget returns the last failure.
  ShardedDbOptions opts(2, IsolationLevel::kSnapshotIsolation);
  opts.retry_policy = std::make_shared<LimitedRetryPolicy>(2, 0);
  ShardedDatabase db(opts);
  int calls = 0;
  Status s = db.Execute([&](ShardedTransaction& txn) {
    ++calls;
    (void)txn.Rollback();
    return Status::SerializationFailure("always");
  });
  EXPECT_TRUE(s.IsSerializationFailure());
  EXPECT_EQ(calls, 3);  // 1 try + 2 retries
  EXPECT_EQ(db.execute_retries(), 2u);
}

// --- the Execute contract, shared by both facades ---------------------------

// Re-runs after any failure, whatever its status, up to three times: only
// the loop's own terminal rule can stop it early.
class RetryEveryStatus : public RetryPolicy {
 public:
  std::string name() const override { return "retry-every-status"; }
  bool RetryBlockedOp(int) const override { return false; }
  bool RetryTransaction(const Status&, int attempt) const override {
    return attempt <= 3;
  }
};

struct SingleSite {
  using Txn = Transaction;
  static std::unique_ptr<Database> Make() {
    DbOptions o(IsolationLevel::kSnapshotIsolation);
    o.retry_policy = std::make_shared<RetryEveryStatus>();
    return std::make_unique<Database>(o);
  }
};

struct Sharded {
  using Txn = ShardedTransaction;
  static std::unique_ptr<ShardedDatabase> Make() {
    ShardedDbOptions o(2, IsolationLevel::kSnapshotIsolation);
    o.retry_policy = std::make_shared<RetryEveryStatus>();
    return std::make_unique<ShardedDatabase>(o);
  }
};

template <typename Facade>
class ExecuteContractTest : public ::testing::Test {};
using Facades = ::testing::Types<SingleSite, Sharded>;
TYPED_TEST_SUITE(ExecuteContractTest, Facades);

TYPED_TEST(ExecuteContractTest, RefusedDeclaredLevelIsTerminal) {
  // The SI engine cannot honor Repeatable Read: `Database` refuses at
  // begin (the body never runs), the sharded facade at first touch.
  auto db = TypeParam::Make();
  ASSERT_TRUE(db->Load("x", Value(0)).ok());
  int calls = 0;
  Status s = db->Execute(BeginOptions{IsolationLevel::kRepeatableRead},
                         [&](typename TypeParam::Txn& txn) {
                           ++calls;
                           return txn.Put("x", Value(1));
                         });
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_LE(calls, 1) << "the body must not run again";
  EXPECT_EQ(db->execute_retries(), 0u);
}

TYPED_TEST(ExecuteContractTest, RetryableFailureIsRerunAndCounted) {
  auto db = TypeParam::Make();
  ASSERT_TRUE(db->Load("x", Value(0)).ok());
  int calls = 0;
  Status s = db->Execute([&](typename TypeParam::Txn& txn) -> Status {
    ++calls;
    CRITIQUE_RETURN_NOT_OK(txn.Put("x", Value(calls)));
    return calls < 3 ? Status::SerializationFailure("again") : Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(db->execute_retries(), 2u);
  auto check = db->Begin();
  Result<Value> x = check.GetScalar("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->AsInt(), 3) << "only the last attempt committed";
}

}  // namespace
}  // namespace critique
