// Runner / Program tests: schedule semantics, lazy begins, blocked-step
// retries, drain, outcome classification, schedule helpers, and the
// stats/outcome consistency contract between the facade's counters and the
// runner's outcome classification.

#include <gtest/gtest.h>

#include <algorithm>

#include "critique/db/database.h"
#include "critique/engine/locking_engine.h"
#include "critique/exec/runner.h"

namespace critique {
namespace {

// Options for a database whose history the test judges (through a
// Runner, which refuses databases that do not record).
DbOptions Recording(IsolationLevel level) {
  DbOptions options(level);
  options.record_history = true;
  return options;
}

Database LockingDb(IsolationLevel level) {
  DbOptions options;
  options.record_history = true;  // the tests judge the history
  options.engine_factory = [level] {
    return std::make_unique<LockingEngine>(level);
  };
  return Database(options);
}

// The invariant the EngineStats satellite promises: every transaction the
// runner classified must be visible in the engine counters, and commits
// plus aborts must add up to the number of finished transactions.
void ExpectStatsMatchOutcomes(const Database& db, const RunResult& result) {
  uint64_t committed = 0, app_aborted = 0, deadlocked = 0, serialization = 0;
  for (const auto& [txn, outcome] : result.outcomes) {
    (void)txn;
    switch (outcome) {
      case TxnOutcome::kCommitted:
        ++committed;
        break;
      case TxnOutcome::kAbortedByApplication:
        ++app_aborted;
        break;
      case TxnOutcome::kAbortedDeadlockVictim:
        ++deadlocked;
        break;
      case TxnOutcome::kAbortedSerialization:
        ++serialization;
        break;
    }
  }
  const EngineStats& stats = db.stats();
  EXPECT_EQ(stats.commits, committed) << stats.ToString();
  EXPECT_EQ(stats.aborts, app_aborted) << stats.ToString();
  EXPECT_EQ(stats.deadlock_aborts, deadlocked) << stats.ToString();
  EXPECT_EQ(stats.serialization_aborts, serialization) << stats.ToString();
  EXPECT_EQ(stats.finished_txns(), result.outcomes.size())
      << stats.ToString();
}

TEST(ParseScheduleTest, ParsesTokens) {
  EXPECT_EQ(ParseSchedule("1 2 1"), (std::vector<TxnId>{1, 2, 1}));
  EXPECT_TRUE(ParseSchedule("").empty());
}

TEST(ProgramTest, FluentConstructionCountsSteps) {
  Program p;
  p.Read("x").Write("x", Value(1)).Commit();
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.steps()[0].kind, StepKind::kOperation);
  EXPECT_EQ(p.steps()[2].kind, StepKind::kCommit);
}

TEST(TxnLocalsTest, GetSetDefaults) {
  TxnLocals l;
  EXPECT_TRUE(l.Get("missing").is_null());
  EXPECT_EQ(l.GetInt("missing"), 0);
  l.Set("a", Value(5));
  EXPECT_EQ(l.GetInt("a"), 5);
  l.SetReadSet("P", {"x", "y"});
  EXPECT_EQ(l.GetReadSet("P").size(), 2u);
  EXPECT_TRUE(l.GetReadSet("Q").empty());
}

TEST(RunnerTest, UnknownTxnInScheduleFails) {
  Database db(Recording(IsolationLevel::kSerializable));
  Runner runner(db);
  Program p;
  p.Commit();
  runner.AddProgram(1, std::move(p));
  auto result = runner.Run({1, 7});
  EXPECT_FALSE(result.ok());
}

TEST(RunnerTest, DrainCompletesUnscheduledSteps) {
  Database db(Recording(IsolationLevel::kSerializable));
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program p;
  p.Read("x").Write("x", Value(2)).Commit();
  runner.AddProgram(1, std::move(p));
  // Empty schedule: everything happens in the drain.
  auto result = runner.Run({});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_EQ(result->history.size(), 3u);
  ExpectStatsMatchOutcomes(db, *result);
}

TEST(RunnerTest, BeginFollowsScheduleOrder) {
  // Under SI the snapshot is taken at the first step: T2 beginning after
  // T1's commit must see T1's write.
  Database db(Recording(IsolationLevel::kSnapshotIsolation));
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(2)).Commit();
  Program t2;
  t2.Read("x", "seen").Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 1 2 2"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->locals.at(2).GetInt("seen"), 2);

  // Reversed: T2 begins first and must NOT see it.
  Database db2(Recording(IsolationLevel::kSnapshotIsolation));
  (void)db2.Load("x", Value(1));
  Runner runner2(db2);
  Program t1b;
  t1b.Write("x", Value(2)).Commit();
  Program t2b;
  t2b.Read("x", "seen").Read("x", "seen2").Commit();
  runner2.AddProgram(1, std::move(t1b));
  runner2.AddProgram(2, std::move(t2b));
  auto result2 = runner2.Run(ParseSchedule("2 1 1 2 2"));
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->locals.at(2).GetInt("seen2"), 1);
}

TEST(RunnerTest, BlockedStepRetriesAndSucceeds) {
  Database db = LockingDb(IsolationLevel::kReadCommitted);
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(2)).Commit();
  Program t2;
  t2.Read("x", "seen").Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  // T2's read lands while T1 holds the write lock: it must retry, then
  // observe the committed 2.
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 2 2"));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->blocked_retries, 0u);
  EXPECT_EQ(result->locals.at(2).GetInt("seen"), 2);
  ExpectStatsMatchOutcomes(db, *result);
}

TEST(RunnerTest, OutcomeClassification) {
  Database db = LockingDb(IsolationLevel::kRepeatableRead);
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program t1;  // will deadlock against t2
  t1.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 1);
    }).Commit();
  Program t2;
  t2.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 1);
    }).Commit();
  Program t3;  // aborts voluntarily
  t3.Read("x").Abort();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  runner.AddProgram(3, std::move(t3));
  auto result = runner.Run(ParseSchedule("1 2 3 3 1 2 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcomes.at(3), TxnOutcome::kAbortedByApplication);
  int deadlock_victims = 0, committed = 0;
  for (TxnId t : {1, 2}) {
    deadlock_victims +=
        result->outcomes.at(t) == TxnOutcome::kAbortedDeadlockVictim;
    committed += result->outcomes.at(t) == TxnOutcome::kCommitted;
  }
  EXPECT_EQ(deadlock_victims, 1);
  EXPECT_EQ(committed, 1);
  ExpectStatsMatchOutcomes(db, *result);
}

TEST(RunnerTest, SerializationOutcome) {
  Database db(Recording(IsolationLevel::kSnapshotIsolation));
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(2)).Commit();
  Program t2;
  t2.Write("x", Value(3)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 1 2"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.at(1), TxnOutcome::kCommitted);
  EXPECT_EQ(result->outcomes.at(2), TxnOutcome::kAbortedSerialization);
  EXPECT_TRUE(result->final_status.at(2).IsSerializationFailure());
  ExpectStatsMatchOutcomes(db, *result);
}

TEST(RunnerTest, RoundRobinCoversAllSteps) {
  Database db(Recording(IsolationLevel::kSerializable));
  Runner runner(db);
  Program t1;
  t1.Write("a", Value(1)).Commit();  // 2 steps
  Program t2;
  t2.Write("b", Value(1)).Write("c", Value(1)).Commit();  // 3 steps
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto schedule = runner.RoundRobinSchedule();
  EXPECT_EQ(schedule.size(), 5u);
  EXPECT_EQ(std::count(schedule.begin(), schedule.end(), 1), 2);
  EXPECT_EQ(std::count(schedule.begin(), schedule.end(), 2), 3);
}

TEST(RunnerTest, RandomScheduleIsPermutationOfSteps) {
  Database db(Recording(IsolationLevel::kSerializable));
  Runner runner(db);
  Program t1;
  t1.Write("a", Value(1)).Commit();
  Program t2;
  t2.Write("b", Value(1)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  Rng rng(4);
  auto schedule = runner.RandomSchedule(rng);
  EXPECT_EQ(schedule.size(), 4u);
  EXPECT_EQ(std::count(schedule.begin(), schedule.end(), 1), 2);
  EXPECT_EQ(std::count(schedule.begin(), schedule.end(), 2), 2);
}

TEST(RunnerTest, FatalStepErrorSurfacesAsRunError) {
  Database db(Recording(IsolationLevel::kSerializable));
  Runner runner(db);
  Program p;
  p.Delete("never_existed").Commit();
  runner.AddProgram(1, std::move(p));
  auto result = runner.Run({1, 1});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
}

TEST(RunnerTest, UpdateStatementStep) {
  Database db(Recording(IsolationLevel::kSerializable));
  (void)db.Load("x", Value(10));
  Runner runner(db);
  Program p;
  p.UpdateAddStatement("x", 7).Commit();
  runner.AddProgram(1, std::move(p));
  auto result = runner.Run(runner.RoundRobinSchedule());
  ASSERT_TRUE(result.ok());
  Transaction reader = db.Begin();
  auto r = reader.GetScalar("x");
  EXPECT_TRUE(r->Equals(Value(17)));
  (void)reader.Commit();
}

TEST(RunnerTest, ExplicitIdsAndAutoIdsCoexist) {
  // A runner using explicit ids 1..2 must not collide with auto-assigned
  // inspection sessions begun afterwards.
  Database db(Recording(IsolationLevel::kSerializable));
  (void)db.Load("x", Value(1));
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(2)).Commit();
  Program t2;
  t2.Read("x").Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  ASSERT_TRUE(runner.Run(runner.RoundRobinSchedule()).ok());
  Transaction after = db.Begin();
  EXPECT_GT(after.id(), 2);
  (void)after.Commit();
}

TEST(TxnOutcomeTest, Names) {
  EXPECT_EQ(TxnOutcomeName(TxnOutcome::kCommitted), "committed");
  EXPECT_EQ(TxnOutcomeName(TxnOutcome::kAbortedDeadlockVictim),
            "aborted (deadlock victim)");
}

}  // namespace
}  // namespace critique
