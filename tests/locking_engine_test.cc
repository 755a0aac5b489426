// LockingEngine tests: each Table 2 level's behaviour on the paper's
// scenarios, driven deterministically through the Runner.

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/phenomena.h"
#include "critique/engine/locking_engine.h"
#include "critique/exec/runner.h"

namespace critique {
namespace {

Value FinalScalar(Engine& engine, const ItemId& id, TxnId reader = 77) {
  EXPECT_TRUE(engine.Begin(reader).ok());
  auto r = engine.Read(reader, id);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(engine.Commit(reader).ok());
  return r->has_value() ? (*r)->scalar() : Value();
}


// Wraps a locking engine in a session facade; the tests reach the raw
// engine through db.engine() for level-specific assertions.
Database MakeDb(IsolationLevel level) {
  DbOptions options;
  options.record_history = true;  // the tests judge the history
  options.engine_factory = [level] {
    return std::make_unique<LockingEngine>(level);
  };
  return Database(options);
}

// T1 transfers 40 from x to y; T2 reads both and records the sum (H1's
// inconsistent analysis shape).
void AddTransferAndAudit(Runner& runner) {
  Program t1;
  t1.Read("x")
      .WriteComputed("x", [](const TxnLocals& l) {
        return Value(l.GetInt("x") - 40);
      })
      .Read("y")
      .WriteComputed("y", [](const TxnLocals& l) {
        return Value(l.GetInt("y") + 40);
      })
      .Commit();
  Program t2;
  t2.Read("x", "x2").Read("y", "y2").Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
}

// H1's interleaving: T1 debits x, T2 audits, T1 credits y.
const char kH1Schedule[] = "1 1 2 2 2 1 1 1";

TEST(LockingEngineTest, BeginValidation) {
  LockingEngine e(IsolationLevel::kSerializable);
  EXPECT_FALSE(e.Begin(0).ok());
  EXPECT_TRUE(e.Begin(1).ok());
  EXPECT_FALSE(e.Begin(1).ok());  // reuse
}

TEST(LockingEngineTest, OpsOnInactiveTxnRejected) {
  LockingEngine e(IsolationLevel::kSerializable);
  EXPECT_TRUE(e.Read(9, "x").status().IsTransactionAborted());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Commit(1).ok());
  EXPECT_TRUE(e.Write(1, "x", Row::Scalar(Value(1)))
                  .IsTransactionAborted());
}

TEST(LockingEngineTest, AbortRestoresBeforeImages) {
  LockingEngine e(IsolationLevel::kSerializable);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(10))).ok());
  ASSERT_TRUE(e.Insert(1, "z", Row::Scalar(Value(7))).ok());
  ASSERT_TRUE(e.Delete(1, "x").ok());
  ASSERT_TRUE(e.Abort(1).ok());
  EXPECT_TRUE(FinalScalar(e, "x").Equals(Value(50)));
  EXPECT_TRUE(FinalScalar(e, "z", 78).is_null());
}

TEST(LockingEngineTest, InsertExistingAndDeleteMissingRejected) {
  LockingEngine e(IsolationLevel::kSerializable);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  EXPECT_TRUE(e.Insert(1, "x", Row::Scalar(Value(2))).IsFailedPrecondition());
  EXPECT_TRUE(e.Delete(1, "nope").IsNotFound());
}

TEST(LockingEngineTest, HistoryRecordsImagesAndValues) {
  LockingEngine e(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Read(1, "x").ok());
  ASSERT_TRUE(e.Write(1, "x", Row::Scalar(Value(10))).ok());
  ASSERT_TRUE(e.Commit(1).ok());
  const History& h = e.history();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].ToString(), "r1[x=50]");
  EXPECT_EQ(h[1].ToString(), "w1[x=10]");
  ASSERT_TRUE(h[1].before_image.has_value());
  EXPECT_TRUE(h[1].before_image->scalar().Equals(Value(50)));
  EXPECT_EQ(h[2].ToString(), "c1");
}

// --- Inconsistent analysis (H1) across levels -------------------------------

TEST(LockingEngineTest, ReadUncommittedAllowsDirtyReadOfTransfer) {
  Database db = MakeDb(IsolationLevel::kReadUncommitted);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  AddTransferAndAudit(runner);
  auto result = runner.Run(ParseSchedule(kH1Schedule));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  // T2 saw the in-flight transfer: sum is 60, not 100.
  EXPECT_EQ(result->locals.at(2).GetInt("x2") +
                result->locals.at(2).GetInt("y2"),
            60);
  // The engine-recorded history exhibits P1, matching Table 3.
  EXPECT_TRUE(Exhibits(result->history, Phenomenon::kP1));
  EXPECT_FALSE(IsSerializable(result->history));
}

TEST(LockingEngineTest, ReadCommittedBlocksDirtyRead) {
  Database db = MakeDb(IsolationLevel::kReadCommitted);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  AddTransferAndAudit(runner);
  auto result = runner.Run(ParseSchedule(kH1Schedule));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_GT(result->blocked_retries, 0u);  // T2 waited on T1's write lock
  EXPECT_EQ(result->locals.at(2).GetInt("x2") +
                result->locals.at(2).GetInt("y2"),
            100);
  EXPECT_FALSE(Exhibits(result->history, Phenomenon::kP1));
}

TEST(LockingEngineTest, SerializableRunIsSerializable) {
  Database db = MakeDb(IsolationLevel::kSerializable);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(50))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(50))).ok());
  Runner runner(db);
  AddTransferAndAudit(runner);
  auto result = runner.Run(ParseSchedule(kH1Schedule));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsSerializable(result->history));
  EXPECT_EQ(result->locals.at(2).GetInt("x2") +
                result->locals.at(2).GetInt("y2"),
            100);
}

// --- Dirty write (P0) --------------------------------------------------------

TEST(LockingEngineTest, Degree0AllowsDirtyWrite) {
  Database db = MakeDb(IsolationLevel::kDegree0);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(0))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(0))).ok());
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(1)).Write("y", Value(1)).Commit();
  Program t2;
  t2.Write("x", Value(2)).Write("y", Value(2)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  // w1[x] w2[x] w2[y] c2 w1[y] c1: the paper's x=y constraint violation.
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Exhibits(result->history, Phenomenon::kP0));
  Value x = FinalScalar(e, "x"), y = FinalScalar(e, "y", 78);
  EXPECT_FALSE(x.Equals(y));  // x=2, y=1: both transactions' writes survive
}

TEST(LockingEngineTest, Degree1PreventsDirtyWrite) {
  // Even Locking READ UNCOMMITTED holds long write locks (Remark 3).
  Database db = MakeDb(IsolationLevel::kReadUncommitted);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(0))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(0))).ok());
  Runner runner(db);
  Program t1;
  t1.Write("x", Value(1)).Write("y", Value(1)).Commit();
  Program t2;
  t2.Write("x", Value(2)).Write("y", Value(2)).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(Exhibits(result->history, Phenomenon::kP0));
  Value x = FinalScalar(e, "x"), y = FinalScalar(e, "y", 78);
  EXPECT_TRUE(x.Equals(y));  // whichever order, x == y holds
}

// --- Lost update (P4) --------------------------------------------------------

TEST(LockingEngineTest, ReadCommittedAllowsLostUpdate) {
  Database db = MakeDb(IsolationLevel::kReadCommitted);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  // H4: r1[x] r2[x] w2[x] c2 w1[x] c1.
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_TRUE(Exhibits(result->history, Phenomenon::kP4));
  EXPECT_TRUE(FinalScalar(e, "x").Equals(Value(130)));  // T2's +20 lost
}

TEST(LockingEngineTest, RepeatableReadPreventsLostUpdateViaDeadlock) {
  Database db = MakeDb(IsolationLevel::kRepeatableRead);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Read("x").WriteComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Long read locks force a write-write deadlock; exactly one survives.
  int committed = result->Committed(1) + result->Committed(2);
  EXPECT_EQ(committed, 1);
  EXPECT_FALSE(Exhibits(result->history, Phenomenon::kP4));
  // The survivor's increment is intact.
  Value final = FinalScalar(e, "x");
  EXPECT_TRUE(final.Equals(Value(120)) || final.Equals(Value(130)));
}

// --- Cursor Stability (P4C) --------------------------------------------------

TEST(LockingEngineTest, CursorStabilityPreventsCursorLostUpdate) {
  Database db = MakeDb(IsolationLevel::kCursorStability);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int committed = result->Committed(1) + result->Committed(2);
  EXPECT_EQ(committed, 1);  // cursor locks force a deadlock; one survives
  EXPECT_FALSE(Exhibits(result->history, Phenomenon::kP4C));
}

TEST(LockingEngineTest, ReadCommittedAllowsCursorLostUpdate) {
  Database db = MakeDb(IsolationLevel::kReadCommitted);
  auto& e = static_cast<LockingEngine&>(db.engine());
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(100))).ok());
  Runner runner(db);
  Program t1;
  t1.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 30);
    }).Commit();
  Program t2;
  t2.Fetch("x").WriteCursorComputed("x", [](const TxnLocals& l) {
      return Value(l.GetInt("x") + 20);
    }).Commit();
  runner.AddProgram(1, std::move(t1));
  runner.AddProgram(2, std::move(t2));
  auto result = runner.Run(ParseSchedule("1 2 2 2 1 1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->Committed(1));
  EXPECT_TRUE(result->Committed(2));
  EXPECT_TRUE(Exhibits(result->history, Phenomenon::kP4C));
  EXPECT_TRUE(FinalScalar(e, "x").Equals(Value(130)));
}

TEST(LockingEngineTest, CursorLockReleasedWhenCursorMoves) {
  LockingEngine e(IsolationLevel::kCursorStability);
  ASSERT_TRUE(e.Load("x", Row::Scalar(Value(1))).ok());
  ASSERT_TRUE(e.Load("y", Row::Scalar(Value(2))).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.FetchCursor(1, "x").ok());
  ASSERT_TRUE(e.Begin(2).ok());
  // x is cursor-locked: T2 cannot write it.
  EXPECT_TRUE(e.Write(2, "x", Row::Scalar(Value(9))).IsWouldBlock());
  // Cursor moves to y: x's lock is released.
  ASSERT_TRUE(e.FetchCursor(1, "y").ok());
  EXPECT_TRUE(e.Write(2, "x", Row::Scalar(Value(9))).ok());
  // y is now protected instead.
  EXPECT_TRUE(e.Write(2, "y", Row::Scalar(Value(9))).IsWouldBlock());
  ASSERT_TRUE(e.CloseCursor(1).ok());
  EXPECT_TRUE(e.Write(2, "y", Row::Scalar(Value(9))).ok());
}

// --- Phantoms (P3) -----------------------------------------------------------

TEST(LockingEngineTest, RepeatableReadAllowsPhantoms) {
  LockingEngine e(IsolationLevel::kRepeatableRead);
  ASSERT_TRUE(e.Load("e1", Row().Set("active", true)).ok());
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);

  ASSERT_TRUE(e.Begin(1).ok());
  auto first = e.ReadPredicate(1, "Active", actives);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 1u);

  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Insert(2, "e2", Row().Set("active", true)).ok());
  ASSERT_TRUE(e.Commit(2).ok());

  auto second = e.ReadPredicate(1, "Active", actives);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 2u);  // the phantom appeared
  ASSERT_TRUE(e.Commit(1).ok());
  EXPECT_TRUE(Exhibits(e.history(), Phenomenon::kA3));
}

TEST(LockingEngineTest, SerializablePreventsPhantoms) {
  LockingEngine e(IsolationLevel::kSerializable);
  ASSERT_TRUE(e.Load("e1", Row().Set("active", true)).ok());
  Predicate actives = Predicate::Cmp("active", CompareOp::kEq, true);

  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.ReadPredicate(1, "Active", actives).ok());

  ASSERT_TRUE(e.Begin(2).ok());
  // Long predicate lock: the insert into the predicate blocks.
  EXPECT_TRUE(e.Insert(2, "e2", Row().Set("active", true)).IsWouldBlock());
  // An insert outside the predicate is fine.
  EXPECT_TRUE(e.Insert(2, "e3", Row().Set("active", false)).ok());

  auto second = e.ReadPredicate(1, "Active", actives);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 1u);
  ASSERT_TRUE(e.Commit(1).ok());
  ASSERT_TRUE(e.Commit(2).ok());
  EXPECT_FALSE(Exhibits(e.history(), Phenomenon::kA3));
}

}  // namespace
}  // namespace critique
