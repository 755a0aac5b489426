// Write skew (A5B) in its classic clinical form: two doctors are on call,
// the hospital requires at least one on call at all times, and both file
// "take me off call" simultaneously.  Each transaction checks the
// constraint against its own snapshot, sees two doctors, and removes
// itself — under Snapshot Isolation both commit and the ward is empty.
//
// This is the paper's H5 (Section 4.2) with rows instead of balances, and
// the reason SI is not serializable despite passing every ANSI phenomenon.
// The SSI extension (the future-work direction this paper seeded) refuses
// the same interleaving.
//
// Build & run:  ./build/example_write_skew_oncall

#include <cstdio>

#include "critique/analysis/mv_analysis.h"
#include "critique/db/database.h"
#include "critique/exec/runner.h"

using namespace critique;

namespace {

Predicate OnCall() {
  return Predicate::Cmp("oncall", CompareOp::kEq, Value(true));
}

// Doctor `self` checks the on-call roster, then signs off.  The roster is
// read both item-wise (so the multiversion serialization graph sees the
// versioned reads) and through the predicate (the constraint check).
Program SignOffTxn(const ItemId& self) {
  Program p;
  p.Read("alice").Read("bob");
  p.ReadPredicate("OnCall", OnCall());
  p.Custom(StepKind::kOperation, [self](StepContext& ctx) {
    // Application-level constraint check against the transaction's view.
    if (ctx.locals.GetInt("OnCall.count") < 2) {
      // Would leave the ward empty: refuse (abort).
      return ctx.txn.Rollback().ok() ? Status::OK()
                                     : Status::Internal("abort failed");
    }
    return ctx.txn.Put(self, Row().Set("oncall", false).Set("name", self));
  });
  p.Commit();
  return p;
}

void RunAt(IsolationLevel level) {
  DbOptions db_options(level);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  (void)db.Load("alice", Row().Set("oncall", true).Set("name", "alice"));
  (void)db.Load("bob", Row().Set("oncall", true).Set("name", "bob"));

  Runner runner(db);
  runner.AddProgram(1, SignOffTxn("alice"));
  runner.AddProgram(2, SignOffTxn("bob"));
  // Both check the roster before either signs off (H5's interleaving).
  auto result = runner.Run(ParseSchedule("1 2 1 2 1 2"));
  if (!result.ok()) {
    std::printf("%-36s run error: %s\n", IsolationLevelName(level).c_str(),
                result.status().ToString().c_str());
    return;
  }

  // Count doctors still on call.
  Transaction reader = db.Begin();
  auto roster = reader.GetWhere("Final", OnCall());
  (void)reader.Commit();
  size_t remaining = roster.ok() ? roster->size() : 0;

  std::printf("%-36s alice:%-9s bob:%-9s on call after: %zu  %s\n",
              IsolationLevelName(level).c_str(),
              result->Committed(1) ? "committed" : "aborted",
              result->Committed(2) ? "committed" : "aborted", remaining,
              remaining == 0 ? "<- WRITE SKEW: ward is empty!" : "");
}

}  // namespace

int main() {
  std::printf("Write skew (A5B): two on-call doctors both sign off after\n"
              "checking the 'at least one on call' constraint.\n\n");
  const IsolationLevel levels[] = {
      IsolationLevel::kReadCommitted,
      IsolationLevel::kRepeatableRead,
      IsolationLevel::kSnapshotIsolation,
      IsolationLevel::kSerializable,
      IsolationLevel::kSerializableSI,
  };
  for (IsolationLevel level : levels) RunAt(level);

  // Show the rw-antidependency cycle behind the SI failure.
  std::printf("\nUnder SI the multiversion serialization graph closes an\n"
              "rw-only cycle (the hazard SSI instruments):\n");
  DbOptions db_options(IsolationLevel::kSnapshotIsolation);
  db_options.record_history = true;  // the Runner judges the history
  Database db(db_options);
  (void)db.Load("alice", Row().Set("oncall", true));
  (void)db.Load("bob", Row().Set("oncall", true));
  Runner runner(db);
  runner.AddProgram(1, SignOffTxn("alice"));
  runner.AddProgram(2, SignOffTxn("bob"));
  auto result = runner.Run(ParseSchedule("1 2 1 2 1 2"));
  if (result.ok()) {
    auto g = MVSerializationGraph::Build(result->history);
    std::printf("%s", g.ToString().c_str());
    std::printf("rw-only cycle: %s\n", g.HasRwOnlyCycle() ? "yes" : "no");
  }
  return 0;
}
