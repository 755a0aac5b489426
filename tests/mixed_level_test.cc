// Per-transaction isolation levels: transactions at different declared
// contracts sharing one engine, judged individually by the online
// checker (each gets its own row of the paper's Table 4).

#include <gtest/gtest.h>

#include "critique/db/database.h"
#include "critique/shard/sharded_database.h"

namespace critique {
namespace {

DbOptions CheckedOptions(IsolationLevel engine) {
  DbOptions opts(engine);
  opts.online_check = true;
  return opts;
}

Result<Transaction> BeginAt(Database& db, IsolationLevel level) {
  BeginOptions bo;
  bo.level = level;
  return db.Begin(bo);
}

TEST(MixedLevelTest, DeclaredLevelIsVisibleOnTheHandle) {
  Database db(CheckedOptions(IsolationLevel::kSerializable));
  auto weak = BeginAt(db, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(weak.ok());
  EXPECT_EQ(weak->level(), IsolationLevel::kReadCommitted);
  auto plain = db.Begin(BeginOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->level(), IsolationLevel::kSerializable);
  EXPECT_TRUE(weak->Rollback().ok());
  EXPECT_TRUE(plain->Rollback().ok());
}

TEST(MixedLevelTest, EnginesRefuseContractsTheyCannotHonor) {
  Database locking(CheckedOptions(IsolationLevel::kSerializable));
  auto si = BeginAt(locking, IsolationLevel::kSnapshotIsolation);
  EXPECT_TRUE(si.status().IsFailedPrecondition()) << si.status().ToString();

  Database snapshot(CheckedOptions(IsolationLevel::kSnapshotIsolation));
  auto rr = BeginAt(snapshot, IsolationLevel::kRepeatableRead);
  EXPECT_TRUE(rr.status().IsFailedPrecondition()) << rr.status().ToString();
  // Serializable-SI needs the SSI certifier, absent from the plain SI
  // engine.
  auto ssi = BeginAt(snapshot, IsolationLevel::kSerializableSI);
  EXPECT_TRUE(ssi.status().IsFailedPrecondition()) << ssi.status().ToString();

  // A refusal leaves no residue: the next begin works and the checker
  // holds no stuck registration (nothing pins the watermark).
  auto fine = snapshot.Begin(BeginOptions{});
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(fine->Commit().ok());
  EXPECT_TRUE(snapshot.checker()->Report().ok());
}

// An RC reader walking item-by-item beside a Serializable writer sees a
// fractured view — its own permitted anomaly, not the writer's problem.
TEST(MixedLevelTest, ReadCommittedReaderBesideSerializableWritersInSI) {
  Database db(CheckedOptions(IsolationLevel::kSnapshotIsolation));
  ASSERT_TRUE(db.Load("x", Value(50)).ok());
  ASSERT_TRUE(db.Load("y", Value(50)).ok());

  auto reader = BeginAt(db, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(reader.ok());
  auto rx = reader->GetScalar("x");
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->AsInt(), 50);

  // A transfer commits between the reader's two statements.
  auto writer = BeginAt(db, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put("x", Value(10)).ok());
  ASSERT_TRUE(writer->Put("y", Value(90)).ok());
  ASSERT_TRUE(writer->Commit().ok());

  // RC reads per statement: the new y is visible — the 140 total is the
  // inconsistent-analysis anomaly RC permits.
  auto ry = reader->GetScalar("y");
  ASSERT_TRUE(ry.ok());
  EXPECT_EQ(ry->AsInt(), 90);
  ASSERT_TRUE(reader->Commit().ok());

  check::CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

// The same interleaving with the reader declared at the engine's own SI
// level reads from the snapshot — no anomaly exists to excuse.
TEST(MixedLevelTest, SnapshotReaderSeesNoFracture) {
  Database db(CheckedOptions(IsolationLevel::kSnapshotIsolation));
  ASSERT_TRUE(db.Load("x", Value(50)).ok());
  ASSERT_TRUE(db.Load("y", Value(50)).ok());

  auto reader = BeginAt(db, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Get("x").ok());

  auto writer = BeginAt(db, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Put("x", Value(10)).ok());
  ASSERT_TRUE(writer->Put("y", Value(90)).ok());
  ASSERT_TRUE(writer->Commit().ok());

  auto ry = reader->GetScalar("y");
  ASSERT_TRUE(ry.ok());
  EXPECT_EQ(ry->AsInt(), 50);
  ASSERT_TRUE(reader->Commit().ok());

  check::CheckerReport r = db.checker()->Report();
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
}

// An SI-declared pivot inside an SSI engine population: the engine does
// not refuse the dangerous structure on the weak transaction's account,
// and the checker excuses the resulting write skew as SI's due.
TEST(MixedLevelTest, SnapshotIsolationTxnInsideSsiPopulation) {
  Database db(CheckedOptions(IsolationLevel::kSerializableSI));
  ASSERT_TRUE(db.Load("x", Value(1)).ok());
  ASSERT_TRUE(db.Load("y", Value(1)).ok());

  auto weak = BeginAt(db, IsolationLevel::kSnapshotIsolation);
  auto strong = BeginAt(db, IsolationLevel::kSerializableSI);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(weak->Get("x").ok());
  ASSERT_TRUE(weak->Get("y").ok());
  ASSERT_TRUE(strong->Get("x").ok());
  ASSERT_TRUE(strong->Get("y").ok());
  ASSERT_TRUE(weak->Put("x", Value(0)).ok());
  ASSERT_TRUE(strong->Put("y", Value(0)).ok());

  Status sw = weak->Commit();
  Status ss = strong->Commit();

  check::CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  if (sw.ok() && ss.ok()) {
    // The engine let the skew through on the SI transaction's account;
    // the checker charges it to the level that permits it.
    EXPECT_EQ(r.allowed_anomalies, 1u);
  }

  // The same structure among two SSI-declared transactions is refused by
  // the engine outright.
  ASSERT_TRUE(db.Load("a", Value(1)).ok());
  ASSERT_TRUE(db.Load("b", Value(1)).ok());
  auto t1 = BeginAt(db, IsolationLevel::kSerializableSI);
  auto t2 = BeginAt(db, IsolationLevel::kSerializableSI);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t1->Get("a").ok());
  ASSERT_TRUE(t1->Get("b").ok());
  ASSERT_TRUE(t2->Get("a").ok());
  ASSERT_TRUE(t2->Get("b").ok());
  ASSERT_TRUE(t1->Put("a", Value(0)).ok());
  ASSERT_TRUE(t2->Put("b", Value(0)).ok());
  Status s1 = t1->Commit();
  Status s2 = t2->Commit();
  EXPECT_TRUE(!s1.ok() || !s2.ok());
  EXPECT_EQ(db.checker()->Report().violations, 0u);
}

// The lock scheduler honors any Table 2 protocol per transaction: an RC
// reader takes short read locks and slips between a Serializable
// writer's operations instead of blocking behind it.
TEST(MixedLevelTest, LockingMixesReadCommittedWithSerializable) {
  Database db(CheckedOptions(IsolationLevel::kSerializable));
  ASSERT_TRUE(db.Load("x", Value(7)).ok());

  auto strong = db.Begin(BeginOptions{});
  ASSERT_TRUE(strong.ok());
  ASSERT_TRUE(strong->Get("x").ok());  // long S lock at Serializable

  // An RC writer would block behind the S lock; an RC *reader* shares it.
  auto weak = BeginAt(db, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(weak.ok());
  auto rx = weak->GetScalar("x");
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->AsInt(), 7);
  ASSERT_TRUE(weak->Commit().ok());
  ASSERT_TRUE(strong->Commit().ok());

  check::CheckerReport r = db.checker()->Report();
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(MixedLevelTest, AbortSplitCountersSumUnderMixedLevels) {
  // Drive SI + RC + SSI transactions into first-committer-wins and SSI
  // conflicts; the serialization-abort breakdown must stay exhaustive.
  Database db(CheckedOptions(IsolationLevel::kSerializableSI));
  ASSERT_TRUE(db.Load("k", Value(0)).ok());
  for (int round = 0; round < 20; ++round) {
    auto a = BeginAt(db, round % 2 == 0 ? IsolationLevel::kSnapshotIsolation
                                        : IsolationLevel::kSerializableSI);
    auto b = BeginAt(db, round % 3 == 0 ? IsolationLevel::kReadCommitted
                                        : IsolationLevel::kSerializableSI);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    (void)a->Get("k");
    (void)b->Get("k");
    (void)a->Put("k", Value(round));
    (void)b->Put("k", Value(-round));
    (void)a->Commit();
    (void)b->Commit();
  }
  EngineStats s = db.StatsSnapshot();
  EXPECT_GT(s.serialization_aborts, 0u);
  EXPECT_EQ(s.fcw_aborts + s.ssi_aborts, s.serialization_aborts);
  EXPECT_EQ(db.checker()->Report().violations, 0u)
      << db.checker()->Report().ToString();
}

TEST(MixedLevelTest, ShardedFacadeCarriesTheDeclaredLevel) {
  ShardedDbOptions sopts(3, IsolationLevel::kSnapshotIsolation);
  sopts.shard_options.online_check = true;
  ShardedDatabase db(sopts);
  ASSERT_TRUE(db.Load("p", Value(1)).ok());
  ASSERT_TRUE(db.Load("q", Value(2)).ok());

  BeginOptions bo;
  bo.level = IsolationLevel::kReadCommitted;
  ShardedTransaction t = db.Begin(bo);
  ASSERT_TRUE(t.declared_level().has_value());
  EXPECT_EQ(*t.declared_level(), IsolationLevel::kReadCommitted);
  EXPECT_TRUE(t.Get("p").ok());
  EXPECT_TRUE(t.Get("q").ok());
  EXPECT_TRUE(t.Put("p", Value(10)).ok());
  EXPECT_TRUE(t.Commit().ok());

  // A contract no shard engine honors surfaces as a refusal at first
  // touch and is terminal under Execute (never retried).
  BeginOptions bad;
  bad.level = IsolationLevel::kRepeatableRead;
  Status s = db.Execute(bad, [](ShardedTransaction& txn) {
    Status ps = txn.Put("p", Value(99));
    if (!ps.ok()) return ps;
    return txn.Commit();
  });
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();

  check::CheckerReport r = db.CheckerReportAggregate();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GE(r.commits_certified, 1u);
}

}  // namespace
}  // namespace critique
