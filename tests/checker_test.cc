// Online incremental MVSG checker tests: hand-fed multiversion histories
// judged per declared level (Table 4 contracts), online/offline parity on
// engine-recorded histories, and watermark-pruning boundedness.

#include <gtest/gtest.h>

#include <map>
#include <string>

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

// Registers every transaction up front (all mutually concurrent), then
// streams the parsed history through a fresh checker.
CheckerReport FeedHistory(const std::string& text,
                          const std::map<TxnId, IsolationLevel>& levels,
                          CheckerOptions opts = {}) {
  OnlineChecker checker(opts);
  for (const auto& [txn, level] : levels) checker.BeginTxn(txn, level);
  History h = MustParse(text);
  for (const Action& a : h.actions()) checker.Ingest(a);
  return checker.Report();
}

// Classic write skew: disjoint writes, crossed reads, a pure-rw cycle.
const char kWriteSkew[] = "r1[x0] r1[y0] r2[x0] r2[y0] w1[x1] w2[y2] c1 c2";

TEST(CheckerCycleTest, WriteSkewViolatesSerializable) {
  CheckerReport r =
      FeedHistory(kWriteSkew, {{1, IsolationLevel::kSerializable},
                               {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
  EXPECT_EQ(r.commits_certified, 2u);
  ASSERT_FALSE(r.first_violations.empty());
  EXPECT_EQ(r.first_violations[0].kind, "cycle");
}

TEST(CheckerCycleTest, WriteSkewIsSnapshotIsolationsDueAnomaly) {
  CheckerReport r =
      FeedHistory(kWriteSkew, {{1, IsolationLevel::kSnapshotIsolation},
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
  CheckerReport r =
      FeedHistory(kWriteSkew, {{1, IsolationLevel::kSnapshotIsolation},
                               {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

// Lost update: T1's write clobbers T2's committed write of the version T1
// read — rw T1->T2 plus ww T2->T1.
const char kLostUpdate[] = "r1[x0] r2[x0] w2[x2] c2 w1[x1] c1";

TEST(CheckerCycleTest, LostUpdateAllowedAtReadCommitted) {
  CheckerReport r =
      FeedHistory(kLostUpdate, {{1, IsolationLevel::kReadCommitted},
                                {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

TEST(CheckerCycleTest, LostUpdateViolatesSnapshotIsolation) {
  // SI prevents P4 (First-Committer-Wins); a ww in-edge at the pivot means
  // the snapshot discipline failed, so SI's excuse does not apply.
  CheckerReport r =
      FeedHistory(kLostUpdate, {{1, IsolationLevel::kSnapshotIsolation},
                                {2, IsolationLevel::kSnapshotIsolation}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
}

// Fuzzy read: T1 observes two versions of x across T2's commit.
const char kFuzzyRead[] = "r1[x0] w2[x2] c2 r1[x2] c1";

TEST(CheckerCycleTest, FuzzyReadAllowedAtReadCommitted) {
  CheckerReport r =
      FeedHistory(kFuzzyRead, {{1, IsolationLevel::kReadCommitted},
                               {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);
}

TEST(CheckerCycleTest, FuzzyReadViolatesRepeatableRead) {
  CheckerReport r =
      FeedHistory(kFuzzyRead, {{1, IsolationLevel::kRepeatableRead},
                               {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
}

TEST(CheckerDirtyReadTest, DirtyReadViolatesReadCommitted) {
  // T2 reads T1's still-uncommitted version, then commits first.
  CheckerReport r =
      FeedHistory("w1[x1] r2[x1] c2 c1",
                  {{1, IsolationLevel::kReadCommitted},
                   {2, IsolationLevel::kReadCommitted}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  ASSERT_FALSE(r.first_violations.empty());
  EXPECT_EQ(r.first_violations[0].kind, "dirty-read");
  EXPECT_EQ(r.first_violations[0].txn, 2);
}

TEST(CheckerDirtyReadTest, DirtyReadIsReadUncommittedsDue) {
  CheckerReport r =
      FeedHistory("w1[x1] r2[x1] c2 c1",
                  {{1, IsolationLevel::kReadCommitted},
                   {2, IsolationLevel::kReadUncommitted}});
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.dirty_reads_allowed, 1u);
}

TEST(CheckerDirtyReadTest, ReadFromAbortedCreatorCharged) {
  // The creator aborts after the read: still a dirty read for the
  // committed reader's contract.
  CheckerReport r = FeedHistory(
      "w1[x1] r2[x1] a1 c2", {{1, IsolationLevel::kReadUncommitted},
                              {2, IsolationLevel::kSerializable}});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.aborts_observed, 1u);
}

TEST(CheckerSerialTest, SerialHistoryCertifiesClean) {
  CheckerReport r = FeedHistory(
      "w1[x1] c1 r2[x1] w2[y2] c2 r3[y2] c3",
      {{1, IsolationLevel::kSerializable},
       {2, IsolationLevel::kSerializable},
       {3, IsolationLevel::kSerializable}});
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.commits_certified, 3u);
  EXPECT_EQ(r.allowed_anomalies, 0u);
}

// --- online/offline parity on engine-recorded histories --------------------

TEST(CheckerParityTest, SiEngineWriteSkewMatchesOfflineGraph) {
  DbOptions opts(IsolationLevel::kSnapshotIsolation);
  opts.online_check = true;
  opts.online_check_prune_interval = 0;  // keep the whole graph
  opts.record_history = true;            // for the offline builder
  Database db(opts);
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
  ASSERT_TRUE(t1->Commit().ok());
  ASSERT_TRUE(t2->Commit().ok());

  // Stock SI at its truthful level: the write skew is its due anomaly.
  CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 1u);

  // The offline builder agrees there is a cycle.
  EXPECT_TRUE(MVSerializationGraph::Build(db.HistorySnapshot()).HasCycle());
}

TEST(CheckerParityTest, SsiEngineRefusalKeepsBothGraphsAcyclic) {
  DbOptions opts(IsolationLevel::kSerializableSI);
  opts.online_check = true;
  opts.online_check_prune_interval = 0;
  opts.record_history = true;  // for the offline builder
  Database db(opts);
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
  Status s1 = t1->Commit();
  Status s2 = t2->Commit();
  // SSI refuses at least one side of the dangerous structure.
  EXPECT_TRUE(!s1.ok() || !s2.ok());

  CheckerReport r = db.checker()->Report();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(r.allowed_anomalies, 0u);
  EXPECT_FALSE(MVSerializationGraph::Build(db.HistorySnapshot()).HasCycle());
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
  // The write-skew cycle closes within the live window even under an
  // aggressive prune cadence.
  CheckerReport r =
      FeedHistory(kWriteSkew,
                  {{1, IsolationLevel::kSerializable},
                   {2, IsolationLevel::kSerializable}},
                  CheckerOptions{/*prune_interval=*/1});
  EXPECT_EQ(r.violations, 1u) << r.ToString();
}

}  // namespace
}  // namespace check
}  // namespace critique
