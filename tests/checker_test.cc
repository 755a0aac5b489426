// Online incremental MVSG checker tests: parsed multiversion histories
// replayed and judged per declared level (Table 4 contracts), parity with
// the paper's single-version judge on engine-recorded histories, and
// watermark-pruning boundedness and verdict preservation.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/check/online_checker.h"
#include "critique/db/database.h"
#include "critique/history/history.h"

namespace critique {
namespace check {
namespace {

History MustParse(std::string_view text) {
  auto r = History::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// Classic write skew: disjoint writes, crossed reads, a pure-rw cycle.
const char kWriteSkew[] = "r1[x0] r1[y0] r2[x0] r2[y0] w1[x1] w2[y2] c1 c2";

TEST(CheckerCycleTest, WriteSkewViolatesSerializable) {
  CheckerReport r = ReplayHistory(MustParse(kWriteSkew),
                                  {{1, IsolationLevel::kSerializable},
                                   {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
  EXPECT_EQ(r.commits_certified, 2u);
  ASSERT_FALSE(r.first_violations.empty());
  EXPECT_EQ(r.first_violations[0].kind, "cycle");
}

TEST(CheckerCycleTest, WriteSkewIsSnapshotIsolationsDueAnomaly) {
  CheckerReport r = ReplayHistory(MustParse(kWriteSkew),
                                  {{1, IsolationLevel::kSnapshotIsolation},
                                   {2, IsolationLevel::kSnapshotIsolation}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
  EXPECT_TRUE(r.ok());
}

TEST(CheckerCycleTest, ReRegisteringAKnownIdChangesNothing) {
  // A refused duplicate begin must not re-declare the live transaction:
  // had T1 become SI, it would excuse the write skew.
  OnlineChecker checker;
  EXPECT_TRUE(checker.BeginTxn(1, IsolationLevel::kSerializable));
  EXPECT_TRUE(checker.BeginTxn(2, IsolationLevel::kSerializable));
  EXPECT_FALSE(checker.BeginTxn(1, IsolationLevel::kSnapshotIsolation));
  const History h = MustParse(kWriteSkew);
  for (const Action& a : h.actions()) checker.Ingest(a);
  EXPECT_EQ(checker.Report().violations, 1u) << checker.Report().ToString();
  EXPECT_EQ(checker.Report().allowed_anomalies, 0u);
}

TEST(CheckerCycleTest, OneSnapshotIsolationParticipantExcusesTheCycle) {
  // T1 declared SI is a pivot with pure-rw edges both ways: its level
  // permits the role, so the Serializable neighbour's guarantee is judged
  // kept (the cycle needs T1's permitted anomaly to close).
  CheckerReport r = ReplayHistory(MustParse(kWriteSkew),
                                  {{1, IsolationLevel::kSnapshotIsolation},
                                   {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

// Lost update: T1's write clobbers T2's committed write of the version T1
// read — rw T1->T2 plus ww T2->T1.
const char kLostUpdate[] = "r1[x0] r2[x0] w2[x2] c2 w1[x1] c1";

TEST(CheckerCycleTest, LostUpdateAllowedAtReadCommitted) {
  CheckerReport r = ReplayHistory(MustParse(kLostUpdate),
                                  {{1, IsolationLevel::kReadCommitted},
                                   {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

TEST(CheckerCycleTest, LostUpdateViolatesSnapshotIsolation) {
  // SI prevents P4 (First-Committer-Wins); a ww in-edge at the pivot means
  // the snapshot discipline failed, so SI's excuse does not apply.
  CheckerReport r = ReplayHistory(MustParse(kLostUpdate),
                                  {{1, IsolationLevel::kSnapshotIsolation},
                                   {2, IsolationLevel::kSnapshotIsolation}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
}

// Fuzzy read: T1 observes two versions of x across T2's commit.
const char kFuzzyRead[] = "r1[x0] w2[x2] c2 r1[x2] c1";

TEST(CheckerCycleTest, FuzzyReadAllowedAtReadCommitted) {
  CheckerReport r = ReplayHistory(MustParse(kFuzzyRead),
                                  {{1, IsolationLevel::kReadCommitted},
                                   {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

TEST(CheckerCycleTest, FuzzyReadViolatesRepeatableRead) {
  CheckerReport r = ReplayHistory(MustParse(kFuzzyRead),
                                  {{1, IsolationLevel::kRepeatableRead},
                                   {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
}

TEST(CheckerDirtyReadTest, DirtyReadViolatesReadCommitted) {
  // T2 reads T1's still-uncommitted version, then commits first.
  CheckerReport r =
      ReplayHistory(MustParse("w1[x1] r2[x1] c2 c1"),
                    {{1, IsolationLevel::kReadCommitted},
                     {2, IsolationLevel::kReadCommitted}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  ASSERT_FALSE(r.first_violations.empty());
  EXPECT_EQ(r.first_violations[0].kind, "dirty-read");
  EXPECT_EQ(r.first_violations[0].txn, 2);
}

TEST(CheckerDirtyReadTest, DirtyReadIsReadUncommittedsDue) {
  CheckerReport r =
      ReplayHistory(MustParse("w1[x1] r2[x1] c2 c1"),
                    {{1, IsolationLevel::kReadCommitted},
                     {2, IsolationLevel::kReadUncommitted}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.dirty_reads_allowed, 1u);
}

TEST(CheckerDirtyReadTest, ReadFromAbortedCreatorCharged) {
  // The creator aborts after the read: still a dirty read for the
  // committed reader's contract.
  CheckerReport r =
      ReplayHistory(MustParse("w1[x1] r2[x1] a1 c2"),
                    {{1, IsolationLevel::kReadUncommitted},
                     {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.aborts_observed, 1u);
}

TEST(CheckerSerialTest, SerialHistoryCertifiesClean) {
  // No levels given: every transaction is replayed at Serializable.
  CheckerReport r =
      ReplayHistory(MustParse("w1[x1] c1 r2[x1] w2[y2] c2 r3[y2] c3"));
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.commits_certified, 3u);
  EXPECT_EQ(r.allowed_anomalies, 0u);
}

// --- parity with the paper's judge on engine-recorded histories ----------
//
// The paper's own touchstone for SI (Section 4.2) maps the multiversion
// history to a single-version one and asks whether that is serializable.
// For a history without predicate reads that obeys snapshot visibility
// and First-Committer-Wins, that verdict equals the MVSG's, so it is an
// independent reference for the checker.

void ExpectPaperJudgeApplies(const History& h) {
  EXPECT_TRUE(ValidateSnapshotVisibility(h).ok()) << h.ToString();
  EXPECT_TRUE(ValidateFirstCommitterWins(h).ok()) << h.ToString();
  for (const Action& a : h.actions()) {
    EXPECT_FALSE(a.IsPredicateRead()) << h.ToString();
  }
}

// Two sessions read x and y, then write one each: write skew.
void RunWriteSkew(Database& db, Status& s1, Status& s2) {
  ASSERT_TRUE(db.Load("x", Value(1)).ok());
  ASSERT_TRUE(db.Load("y", Value(1)).ok());
  auto t1 = db.Begin(BeginOptions{});
  auto t2 = db.Begin(BeginOptions{});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t1->Get("x").ok());
  ASSERT_TRUE(t1->Get("y").ok());
  ASSERT_TRUE(t2->Get("x").ok());
  ASSERT_TRUE(t2->Get("y").ok());
  ASSERT_TRUE(t1->Put("x", Value(0)).ok());
  ASSERT_TRUE(t2->Put("y", Value(0)).ok());
  s1 = t1->Commit();
  s2 = t2->Commit();
}

DbOptions CheckedRecording(IsolationLevel level) {
  DbOptions opts(level);
  opts.online_check = true;
  opts.online_check_prune_interval = 0;  // keep the whole graph
  opts.record_history = true;            // for the paper's judge
  return opts;
}

TEST(CheckerParityTest, SiEngineWriteSkewMatchesPaperJudge) {
  Database db(CheckedRecording(IsolationLevel::kSnapshotIsolation));
  Status s1, s2;
  RunWriteSkew(db, s1, s2);
  ASSERT_TRUE(s1.ok()) << s1.ToString();
  ASSERT_TRUE(s2.ok()) << s2.ToString();

  // Stock SI at its truthful level: the write skew is its due anomaly.
  CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);

  // The paper's judge agrees the history is not serializable.
  const History h = db.HistorySnapshot();
  ExpectPaperJudgeApplies(h);
  EXPECT_FALSE(IsSerializable(MapSnapshotHistoryToSingleVersion(h)));
}

TEST(CheckerParityTest, SsiEngineRefusalKeepsBothGraphsAcyclic) {
  Database db(CheckedRecording(IsolationLevel::kSerializableSI));
  Status s1, s2;
  RunWriteSkew(db, s1, s2);
  // SSI refuses at least one side of the dangerous structure.
  EXPECT_TRUE(!s1.ok() || !s2.ok());

  CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
  const History h = db.HistorySnapshot();
  ExpectPaperJudgeApplies(h);
  EXPECT_TRUE(IsSerializable(MapSnapshotHistoryToSingleVersion(h)));
}

// --- pruning ---------------------------------------------------------------

TEST(CheckerPruneTest, SequentialCommitsStayBounded) {
  CheckerOptions copts;
  copts.prune_interval = 64;
  OnlineChecker checker(copts);
  checker.SetDefaultLevel(IsolationLevel::kSerializable);
  const TxnId kTxns = 20000;
  for (TxnId t = 1; t <= kTxns; ++t) {
    checker.BeginTxn(t, IsolationLevel::kSerializable);
    checker.Ingest(Action::ReadVersion(t, "x" + std::to_string(t % 7),
                                       kInitialTxn));
    checker.Ingest(Action::WriteVersion(t, "y" + std::to_string(t % 11), t));
    checker.Ingest(Action::Commit(t));
  }
  CheckerReport r = checker.Report();
  EXPECT_EQ(r.commits_certified, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GT(r.nodes_pruned, kTxns / 2);
  // Memory bound: live graph stays near the prune cadence, nowhere near
  // history length.
  EXPECT_LT(r.live_nodes, 1000u);
  EXPECT_LT(r.peak_live_nodes, 1000u);
}

TEST(CheckerPruneTest, OpenTransactionPinsTheWatermark) {
  OnlineChecker checker(CheckerOptions{/*prune_interval=*/16});
  checker.BeginTxn(1, IsolationLevel::kSerializable);  // stays open
  for (TxnId t = 2; t <= 500; ++t) {
    checker.BeginTxn(t, IsolationLevel::kSerializable);
    checker.Ingest(Action::WriteVersion(t, "k" + std::to_string(t), t));
    checker.Ingest(Action::Commit(t));
  }
  // The open registration pins everything.
  EXPECT_GE(checker.live_nodes(), 499u);
  // Releasing it lets the cascade retire the frozen prefix.
  checker.Ingest(Action::Commit(1));
  checker.Prune();
  EXPECT_LT(checker.live_nodes(), 50u);
}

TEST(CheckerPruneTest, PruningDoesNotChangeVerdicts) {
  // A serial prefix, a lost update at Read Committed (allowed), write
  // skew at SI (allowed) and write skew at Serializable (a violation).
  const History h = MustParse(
      "w1[x1] c1 r2[x1] w2[y2] c2 "
      "r3[x1] r4[x1] w4[x4] c4 w3[x3] c3 "
      "r5[x3] r5[y2] r6[x3] r6[y2] w5[x5] w6[y6] c5 c6 "
      "r7[x5] r7[y6] r8[x5] r8[y6] w7[x7] w8[y8] c7 c8");
  const std::map<TxnId, IsolationLevel> levels = {
      {3, IsolationLevel::kReadCommitted},
      {5, IsolationLevel::kSnapshotIsolation},
      {6, IsolationLevel::kSnapshotIsolation}};
  const CheckerReport want = ReplayHistory(h, levels);
  EXPECT_EQ(want.violations, 1u) << want.ToString();
  EXPECT_EQ(want.allowed_anomalies, 2u) << want.ToString();

  // Each transaction registers at its first action, as `Database` does at
  // begin, so the watermark advances and every commit runs a prune pass.
  OnlineChecker pruned(CheckerOptions{/*prune_interval=*/1});
  for (const Action& a : h.actions()) {
    auto it = levels.find(a.txn);
    pruned.BeginTxn(a.txn, it != levels.end() ? it->second
                                              : IsolationLevel::kSerializable);
    pruned.Ingest(a);
  }
  const CheckerReport got = pruned.Report();
  EXPECT_GT(got.nodes_pruned, 0u);
  EXPECT_EQ(got.violations, want.violations) << got.ToString();
  EXPECT_EQ(got.allowed_anomalies, want.allowed_anomalies) << got.ToString();
  EXPECT_EQ(got.dirty_reads_allowed, want.dirty_reads_allowed);
  EXPECT_EQ(got.commits_certified, want.commits_certified);
  EXPECT_EQ(got.aborts_observed, want.aborts_observed);
}

}  // namespace
}  // namespace check
}  // namespace critique
