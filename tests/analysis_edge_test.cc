// Edge cases of the analysis layer: witness structure, dependency edge
// labels, topological determinism, cursor actions in detectors, and the
// less-travelled corners of conflicts and equivalence.

#include <gtest/gtest.h>

#include "critique/analysis/ansi_levels.h"
#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/analysis/phenomena.h"
#include "critique/history/history.h"

namespace critique {
namespace {

History MustParse(std::string_view text) {
  auto r = History::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(DependencyEdgeTest, ToStringShowsKindAndItem) {
  auto g = DependencyGraph::Build(MustParse("w1[x] c1 r2[x] c2"));
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].ToString(), "T1 -wr[x]-> T2");
  EXPECT_EQ(g.edges()[0].from_index, 0u);
  EXPECT_EQ(g.edges()[0].to_index, 2u);
}

TEST(DependencyGraphTest, TopologicalOrderDeterministic) {
  // Independent transactions: order by id (ties broken deterministically).
  auto h = MustParse("w3[c] c3 w1[a] c1 w2[b] c2");
  auto g = DependencyGraph::Build(h);
  EXPECT_EQ(g.TopologicalOrder(), (std::vector<TxnId>{1, 2, 3}));
}

TEST(DependencyGraphTest, TopologicalOrderEmptyOnCycle) {
  auto g = DependencyGraph::Build(
      MustParse("r1[x] r2[y] w1[y] w2[x] c1 c2"));
  EXPECT_TRUE(g.HasCycle());
  EXPECT_TRUE(g.TopologicalOrder().empty());
}

TEST(DependencyGraphTest, PredicateEdgeLabels) {
  auto h = MustParse("r1[P] w2[y in P] c2 c1");
  auto g = DependencyGraph::Build(h);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].item, "<P>");
}

TEST(DependencyGraphTest, SameDataflowIgnoresEdgeMultiplicity) {
  // Two reads of the same item produce two edges to the writer; the
  // deduplicated dataflow is the same as with one.
  auto a = MustParse("w1[x] c1 r2[x] r2[x] c2");
  auto b = MustParse("w1[x] c1 r2[x] c2");
  EXPECT_TRUE(DependencyGraph::Build(a).SameDataflowAs(
      DependencyGraph::Build(b)));
}

TEST(EquivalenceTest, DifferentCommittedSetsNeverEquivalent) {
  auto a = MustParse("w1[x] c1");
  auto b = MustParse("w1[x] c1 w2[y] c2");
  EXPECT_FALSE(EquivalentHistories(a, b));
}

TEST(PhenomenaEdgeTest, CursorReadsCountAsReads) {
  // P2 with a cursor read on the r1 side.
  auto h = MustParse("rc1[x] w2[x] c2 c1");
  EXPECT_TRUE(Exhibits(h, Phenomenon::kP2));
  // A1 with a cursor read on the r2 side.
  auto a1 = MustParse("w1[x] rc2[x] a1 c2");
  EXPECT_TRUE(Exhibits(a1, Phenomenon::kA1));
}

TEST(PhenomenaEdgeTest, CursorWritesCountAsWrites) {
  auto h = MustParse("wc1[x] wc2[x] c2 c1");
  EXPECT_TRUE(Exhibits(h, Phenomenon::kP0));
}

TEST(PhenomenaEdgeTest, P4CAllowsPlainSecondWrite) {
  // The paper's P4C pattern is rc1[x]...w2[x]...w1[x]...c1 — the second
  // T1 write need not be a cursor write.
  auto h = MustParse("rc1[x] w2[x] c2 w1[x] c1");
  EXPECT_TRUE(Exhibits(h, Phenomenon::kP4C));
}

TEST(PhenomenaEdgeTest, P0NeedsDistinctTransactions) {
  auto h = MustParse("w1[x] w1[x] c1");
  EXPECT_FALSE(Exhibits(h, Phenomenon::kP0));
}

TEST(PhenomenaEdgeTest, A5BRolesSwapDetected) {
  // The mirror assignment of H5's roles must also be caught.
  auto h = MustParse("r2[x] r1[y] w2[y] w1[x] c1 c2");
  EXPECT_TRUE(Exhibits(h, Phenomenon::kA5B));
}

TEST(PhenomenaEdgeTest, A5ANeedsCommittedWriter) {
  auto h = MustParse("r1[x] w2[x] w2[y] a2 r1[y] c1");
  EXPECT_FALSE(Exhibits(h, Phenomenon::kA5A));
}

TEST(PhenomenaEdgeTest, MultipleWitnessesEnumerated) {
  // Two separate dirty reads of the same write.
  auto h = MustParse("w1[x] r2[x] r3[x] c2 c3 c1");
  auto witnesses = FindPhenomenon(h, Phenomenon::kP1);
  EXPECT_EQ(witnesses.size(), 2u);
}

TEST(PhenomenaEdgeTest, WitnessIndicesInPatternOrder) {
  auto h = MustParse("r1[x=50] w2[x=60] c2 r1[x=60] c1");
  auto witnesses = FindPhenomenon(h, Phenomenon::kA2);
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0].indices, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(AnsiLevelsEdgeTest, NestingOfForbiddenSets) {
  // Each level's forbidden set contains the previous level's.
  for (AnsiTable table : {AnsiTable::kTable1, AnsiTable::kTable3}) {
    for (AnsiInterpretation interp :
         {AnsiInterpretation::kStrict, AnsiInterpretation::kBroad}) {
      std::vector<Phenomenon> prev;
      for (AnsiLevel level : AllAnsiLevels()) {
        auto cur = ForbiddenPhenomena(level, interp, table);
        for (Phenomenon p : prev) {
          EXPECT_NE(std::find(cur.begin(), cur.end(), p), cur.end());
        }
        prev = cur;
      }
    }
  }
}

TEST(MVMappingEdgeTest, StatementMappingKeepsReadPositions) {
  // Oracle-style: reads stay in place, the pending write migrates to c2.
  auto h = MustParse("w2[x2=9] r1[x0=1] c2 r1[x2=9] c1");
  History mapped = MapStatementSnapshotHistoryToSingleVersion(h);
  EXPECT_EQ(mapped.ToString(), "r1[x=1] w2[x=9] c2 r1[x=9] c1");
}

TEST(MVMappingEdgeTest, UnfinishedTransactionsProjectedAway) {
  auto h = MustParse("w1[x1=1] r2[x0=0] c2");
  History mapped = MapSnapshotHistoryToSingleVersion(h);
  EXPECT_EQ(mapped.ToString(), "r2[x=0] c2");
}

TEST(HistoryEdgeTest, EmptyHistory) {
  History h;
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_TRUE(h.Transactions().empty());
  EXPECT_TRUE(IsSerializable(h));
  EXPECT_TRUE(ExhibitedPhenomena(h).empty());
  EXPECT_EQ(h.ToString(), "");
}

TEST(HistoryEdgeTest, SingleCommit) {
  auto h = MustParse("c1");
  EXPECT_TRUE(h.IsCommitted(1));
  EXPECT_TRUE(IsSerializable(h));
}

}  // namespace
}  // namespace critique
