// Multiversion analysis tests: the H1.SI -> H1.SI.SV mapping, snapshot
// visibility validation, first-committer-wins validation, and the MVSG
// judge (`IsMVSerializable`, a replay through the online checker).

#include <gtest/gtest.h>

#include <string>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/check/online_checker.h"
#include "critique/history/history.h"

namespace critique {
namespace {

History MustParse(std::string_view text) {
  auto r = History::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

const char kH1SI[] =
    "r1[x0=50] w1[x1=10] r2[x0=50] r2[y0=50] c2 r1[y0=50] w1[y1=90] c1";
// H5 with the version subscripts it would carry under Snapshot Isolation.
const char kH5SI[] =
    "r1[x0=50] r1[y0=50] r2[x0=50] r2[y0=50] w1[y1=-40] w2[x2=-40] c1 c2";

TEST(MVMappingTest, H1SIMapsToPaperSVForm) {
  History mapped = MapSnapshotHistoryToSingleVersion(MustParse(kH1SI));
  // The paper's H1.SI.SV, Section 4.2.
  EXPECT_EQ(mapped.ToString(),
            "r1[x=50] r1[y=50] r2[x=50] r2[y=50] c2 w1[x=10] w1[y=90] c1");
}

TEST(MVMappingTest, MappedH1SIIsSerializable) {
  // "H1.SI has the dataflows of a serializable execution."
  History mapped = MapSnapshotHistoryToSingleVersion(MustParse(kH1SI));
  EXPECT_TRUE(IsSerializable(mapped));
}

TEST(MVMappingTest, MappedH5SIStaysWriteSkewed) {
  History mapped = MapSnapshotHistoryToSingleVersion(MustParse(kH5SI));
  EXPECT_FALSE(IsSerializable(mapped));
}

TEST(MVMappingTest, MappingIsIdentityOnSerialSV) {
  History serial = MustParse("r1[x] w1[x] c1 r2[x] c2");
  History mapped = MapSnapshotHistoryToSingleVersion(serial);
  EXPECT_EQ(mapped.ToString(), serial.ToString());
}

TEST(SnapshotVisibilityTest, H1SIIsValid) {
  EXPECT_TRUE(ValidateSnapshotVisibility(MustParse(kH1SI)).ok());
}

TEST(SnapshotVisibilityTest, H5SIIsValid) {
  EXPECT_TRUE(ValidateSnapshotVisibility(MustParse(kH5SI)).ok());
}

TEST(SnapshotVisibilityTest, ReadingConcurrentWriteRejected) {
  // T2 starts before T1 commits but reads T1's version: not a snapshot read.
  History bad = MustParse("r2[x0=1] w1[x1=5] r2[x1=5] c1 c2");
  EXPECT_FALSE(ValidateSnapshotVisibility(bad).ok());
}

TEST(SnapshotVisibilityTest, OwnWritesVisible) {
  History own = MustParse("w1[x1=5] r1[x1=5] c1");
  EXPECT_TRUE(ValidateSnapshotVisibility(own).ok());
  History stale = MustParse("w1[x1=5] r1[x0=1] c1");
  EXPECT_FALSE(ValidateSnapshotVisibility(stale).ok());
}

TEST(SnapshotVisibilityTest, CommittedBeforeStartVisible) {
  // T1 commits x1, then T2 starts and must read x1.
  History good = MustParse("w1[x1=5] c1 r2[x1=5] c2");
  EXPECT_TRUE(ValidateSnapshotVisibility(good).ok());
  History bad = MustParse("w1[x1=5] c1 r2[x0=1] c2");
  EXPECT_FALSE(ValidateSnapshotVisibility(bad).ok());
}

TEST(SnapshotVisibilityTest, WriteMustCreateOwnVersion) {
  History bad = MustParse("w1[x2=5] c1");
  EXPECT_FALSE(ValidateSnapshotVisibility(bad).ok());
}

TEST(FirstCommitterWinsTest, DisjointWriteSetsPass) {
  EXPECT_TRUE(ValidateFirstCommitterWins(MustParse(kH5SI)).ok());
  EXPECT_TRUE(ValidateFirstCommitterWins(MustParse(kH1SI)).ok());
}

TEST(FirstCommitterWinsTest, OverlappingWritersRejected) {
  // Both write x and both commit with overlapping intervals.
  History bad = MustParse("w1[x1=1] w2[x2=2] c1 c2");
  EXPECT_FALSE(ValidateFirstCommitterWins(bad).ok());
}

TEST(FirstCommitterWinsTest, SequentialWritersPass) {
  History ok = MustParse("w1[x1=1] c1 w2[x2=2] c2");
  EXPECT_TRUE(ValidateFirstCommitterWins(ok).ok());
}

TEST(FirstCommitterWinsTest, AbortedWriterDoesNotConflict) {
  // First-committer-wins only constrains committed transactions.
  History ok = MustParse("w1[x1=1] w2[x2=2] a1 c2");
  EXPECT_TRUE(ValidateFirstCommitterWins(ok).ok());
}

// --- the MVSG judge: IsMVSerializable is a replay through the checker ----

// The path of the replay's one violation, which must be a cycle, with the
// participants' level names (Serializable, the replay default) left out.
std::string CyclePath(const History& h) {
  const check::CheckerReport r = check::ReplayHistory(h);
  EXPECT_EQ(r.first_violations.size(), 1u) << r.ToString();
  if (r.first_violations.empty()) return "";
  EXPECT_EQ(r.first_violations[0].kind, "cycle");
  std::string path = r.first_violations[0].detail;
  const std::string level =
      "(" + std::string(IsolationLevelName(IsolationLevel::kSerializable)) +
      ")";
  for (size_t at; (at = path.find(level)) != std::string::npos;) {
    path.erase(at, level.size());
  }
  return path;
}

TEST(MVSGTest, H5SIIsRejected) {
  EXPECT_FALSE(IsMVSerializable(MustParse(kH5SI)));
  EXPECT_EQ(CyclePath(MustParse(kH5SI)), "T2 -rw-> T1 -rw-> T2");
}

TEST(MVSGTest, H1SIIsAccepted) {
  EXPECT_TRUE(IsMVSerializable(MustParse(kH1SI)));
  EXPECT_TRUE(check::ReplayHistory(MustParse(kH1SI)).ok());
}

TEST(MVSGTest, ReadFromLaterCommittingCreatorIsNoCycle) {
  // T2 reads T1's version before T1 commits: the replay charges a dirty
  // read, but the MVSG (just T1 -wr-> T2) stays acyclic.  A verdict of
  // "no violations" would wrongly reject these histories.
  const History h = MustParse("w1[x1] r2[x1] c1 c2");
  EXPECT_TRUE(IsMVSerializable(h));
  const check::CheckerReport r = check::ReplayHistory(h);
  ASSERT_EQ(r.violations, 1u) << r.ToString();
  EXPECT_EQ(r.first_violations[0].kind, "dirty-read");
  EXPECT_TRUE(IsMVSerializable(MustParse("w1[x1] r2[x1] c2 c1")));
}

TEST(MVSGTest, WrEdgeFollowsTheVersionRead) {
  // T2 reads T1's x1 (T1 -wr-> T2) but y0 under T1's y1 (T2 -rw-> T1).
  const History h = MustParse("r2[y0] w1[x1] w1[y1] c1 r2[x1] c2");
  EXPECT_FALSE(IsMVSerializable(h));
  EXPECT_EQ(CyclePath(h), "T1 -wr-> T2 -rw-> T1");
}

TEST(MVSGTest, RwEdgeGoesToTheImmediateNextVersion) {
  // T3 reads x1, which x2 (T2) and then x4 (T4) supersede: the
  // anti-dependency runs to T2 alone, so the cycle that T4 closes by
  // reading y0 under T3's y3 passes through T2 -ww-> T4.
  const History h =
      MustParse("w1[x1] c1 r3[x1] w2[x2] c2 w4[x4] r4[y0] c4 w3[y3] c3");
  EXPECT_FALSE(IsMVSerializable(h));
  EXPECT_EQ(CyclePath(h), "T3 -rw-> T2 -ww-> T4 -rw-> T3");
}

}  // namespace
}  // namespace critique
