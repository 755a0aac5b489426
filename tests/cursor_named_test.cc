// Named multi-cursor coverage through the session API
// (Transaction::FetchNamed / CloseCursorNamed) across the locking, SI and
// read-consistency engines, including the Section 4.1 case: "the technique
// of putting a cursor on an item to hold its value stable can be used for
// multiple items, at the cost of using multiple cursors" — parlaying
// Cursor Stability to effective REPEATABLE READ for a fixed item set.

#include <gtest/gtest.h>

#include "critique/db/database.h"
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

// --- Cursor Stability: named cursors pin items independently ----------------

TEST(NamedCursorTest, CursorStabilityPinsEachNamedCursorsItem) {
  Database db(IsolationLevel::kCursorStability);
  (void)db.Load("x", Value(1));
  (void)db.Load("y", Value(2));

  Transaction reader = db.Begin();
  ASSERT_TRUE(reader.FetchNamed("cx", "x").ok());
  ASSERT_TRUE(reader.FetchNamed("cy", "y").ok());

  Transaction writer = db.Begin();
  // Both items are pinned simultaneously — the multi-cursor trick.
  EXPECT_TRUE(writer.Put("x", Value(9)).IsWouldBlock());
  EXPECT_TRUE(writer.Put("y", Value(9)).IsWouldBlock());

  // Closing one cursor releases only that item.
  ASSERT_TRUE(reader.CloseCursorNamed("cx").ok());
  EXPECT_TRUE(writer.Put("x", Value(9)).ok());
  EXPECT_TRUE(writer.Put("y", Value(9)).IsWouldBlock());

  ASSERT_TRUE(reader.Commit().ok());
  EXPECT_TRUE(writer.Put("y", Value(9)).ok());
  ASSERT_TRUE(writer.Commit().ok());
}

TEST(NamedCursorTest, DefaultCursorStillMovesItsLock) {
  // The unnamed cursor keeps single-cursor semantics: moving it releases
  // the previous item.
  Database db(IsolationLevel::kCursorStability);
  (void)db.Load("x", Value(1));
  (void)db.Load("y", Value(2));
  Transaction reader = db.Begin();
  ASSERT_TRUE(reader.Fetch("x").ok());
  ASSERT_TRUE(reader.Fetch("y").ok());
  Transaction writer = db.Begin();
  EXPECT_TRUE(writer.Put("x", Value(9)).ok());
  EXPECT_TRUE(writer.Put("y", Value(9)).IsWouldBlock());
  (void)writer.Rollback();
  (void)reader.Rollback();
}

TEST(NamedCursorTest, ReadCommittedDoesNotHoldNamedCursorLocks) {
  // Below Cursor Stability the named fetch takes only a short read lock:
  // nothing stays pinned.
  Database db(IsolationLevel::kReadCommitted);
  (void)db.Load("x", Value(1));
  Transaction reader = db.Begin();
  ASSERT_TRUE(reader.FetchNamed("cx", "x").ok());
  Transaction writer = db.Begin();
  EXPECT_TRUE(writer.Put("x", Value(9)).ok());
  (void)writer.Rollback();
  (void)reader.Rollback();
}

// --- SI: named cursors delegate; readers never block writers ---------------

TEST(NamedCursorTest, SnapshotIsolationNamedCursorsNeverBlock) {
  Database db(IsolationLevel::kSnapshotIsolation);
  (void)db.Load("x", Value(1));

  Transaction reader = db.Begin();
  auto fetched = reader.FetchNamed("c1", "x");
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE((*fetched)->scalar().Equals(Value(1)));

  // A concurrent writer is not blocked by the open cursor...
  Transaction writer = db.Begin();
  EXPECT_TRUE(writer.Put("x", Value(9)).ok());
  EXPECT_TRUE(writer.Commit().ok());

  // ...and the cursor re-fetch still sees the snapshot value.
  auto refetched = reader.FetchNamed("c1", "x");
  ASSERT_TRUE(refetched.ok());
  EXPECT_TRUE((*refetched)->scalar().Equals(Value(1)));
  EXPECT_TRUE(reader.CloseCursorNamed("c1").ok());
  EXPECT_TRUE(reader.Commit().ok());
  EXPECT_EQ(db.stats().blocked_ops, 0u);
}

// --- Oracle Read Consistency: cursor fetch locks at fetch time --------------

TEST(NamedCursorTest, ReadConsistencyCursorLocksAtFetch) {
  // Section 4.3: Oracle Read Consistency forbids P4C because FETCH is
  // SELECT ... FOR UPDATE — a *long* write lock at fetch time; the named
  // form delegates to the same path, and closing the cursor does not
  // release it (only commit/abort does).
  Database db(IsolationLevel::kOracleReadConsistency);
  (void)db.Load("x", Value(1));

  Transaction t1 = db.Begin();
  ASSERT_TRUE(t1.FetchNamed("c", "x").ok());

  Transaction t2 = db.Begin();
  EXPECT_TRUE(t2.Put("x", Value(9)).IsWouldBlock());

  ASSERT_TRUE(t1.CloseCursorNamed("c").ok());
  EXPECT_TRUE(t2.Put("x", Value(9)).IsWouldBlock());  // still held: FOR UPDATE

  ASSERT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Put("x", Value(9)).ok());
  (void)t2.Commit();
}

// --- Section 4.1: the multi-cursor parlay defeats cursor write skew ---------

// Doctor-style guarded withdrawal against x + y (see the A5B scenario),
// reading through named cursors when `pinned`.
Program ParlayTxn(bool pinned, const ItemId& target, const std::string& xv,
                  const std::string& yv) {
  Program p;
  if (pinned) {
    p.FetchNamed("cx", "x", xv).FetchNamed("cy", "y", yv);
  } else {
    p.Read("x", xv).Read("y", yv);
  }
  p.Custom(StepKind::kOperation, [target, xv, yv](StepContext& ctx) {
    if (ctx.locals.GetInt(xv) + ctx.locals.GetInt(yv) < 100) {
      return Status::OK();  // would overdraw: skip the withdrawal
    }
    int64_t current = ctx.locals.GetInt(target == "x" ? xv : yv);
    return ctx.txn.Put(target, Value(current - 90));
  });
  p.Commit();
  return p;
}

int64_t JointBalance(Database& db) {
  Transaction txn = db.Begin();
  auto x = txn.GetScalar("x");
  auto y = txn.GetScalar("y");
  int64_t out = 0;
  if (x.ok() && x->AsNumeric()) out += static_cast<int64_t>(*x->AsNumeric());
  if (y.ok() && y->AsNumeric()) out += static_cast<int64_t>(*y->AsNumeric());
  (void)txn.Commit();
  return out;
}

TEST(NamedCursorTest, MultiCursorParlayPreventsWriteSkewAtCursorStability) {
  // With every read pinned by its own cursor, Cursor Stability behaves
  // like REPEATABLE READ on the pinned set: H5's write skew cannot leave
  // the joint balance negative.
  Database db(Recording(IsolationLevel::kCursorStability));
  (void)db.Load("x", Value(50));
  (void)db.Load("y", Value(50));
  Runner runner(db);
  runner.AddProgram(1, ParlayTxn(true, "y", "x1", "y1"));
  runner.AddProgram(2, ParlayTxn(true, "x", "x2", "y2"));
  auto result = runner.Run(ParseSchedule("1 1 2 2 1 2 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(JointBalance(db), 0);
  // The pins force the conflict to surface as blocking/deadlock instead.
  EXPECT_TRUE(result->blocked_retries > 0 ||
              db.stats().deadlock_aborts > 0);
}

TEST(NamedCursorTest, UnpinnedReadsStillShowWriteSkewAtCursorStability) {
  // The contrast making the parlay non-vacuous: with plain reads the same
  // schedule empties the joint account at Cursor Stability.
  Database db(Recording(IsolationLevel::kCursorStability));
  (void)db.Load("x", Value(50));
  (void)db.Load("y", Value(50));
  Runner runner(db);
  runner.AddProgram(1, ParlayTxn(false, "y", "x1", "y1"));
  runner.AddProgram(2, ParlayTxn(false, "x", "x2", "y2"));
  auto result = runner.Run(ParseSchedule("1 1 2 2 1 2 1 2"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->Committed(1));
  ASSERT_TRUE(result->Committed(2));
  EXPECT_LE(JointBalance(db), 0);
}

}  // namespace
}  // namespace critique
