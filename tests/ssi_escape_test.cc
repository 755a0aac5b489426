// Deterministic minimizations of the SSI commit-window escape this repo's
// ROADMAP tracked as "SSI under true concurrency: rare non-serializable
// escape", closed by pinning every validated transaction in
// engine/si_engine.{h,cc}: a transaction that passed validation counts as
// committed in everyone else's SSI checks until it publishes.
//
// The escape, in one sentence: the pivot check used to run once, at
// validation, so an rw-antidependency that reached the pivot *after* that
// point — after its commit published, or between its validation and its
// publication — was never examined, and a dangerous structure
// (Cahill et al. 2008) slipped through fully committed.
//
// Three deterministic flavors, no threads required:
//  (1) committed pivot: the in-edge forms after the pivot committed; the
//      edge's source must now abort at its own commit (it would complete
//      the structure; the pivot can no longer be aborted);
//  (2) commit window: the in-edge forms between `Commit`'s validation and
//      version publication — forced by the engine's commit-window
//      failpoint — and the pinned pivot commits while the edge's source
//      is refused;
//  (3) GC retirement: the structure's "committed first" witness is
//      version-GC-retired before the completing commit; the sticky
//      summary bit must keep the completion check sound.
//
// Every admission assertion is judged by the multiversion serialization
// graph (MVSG, [BHG] Ch. 5) — the one-copy-serializability criterion that
// multiversion histories are actually held to (a raw single-version
// reading of an SI history mislabels legal old-snapshot reads; see
// tests/concurrency_test.cc).

#include <gtest/gtest.h>

#include "critique/analysis/mv_analysis.h"
#include "critique/check/online_checker.h"
#include "critique/engine/si_engine.h"

namespace critique {
namespace {

SnapshotIsolationEngine MakeSsi() {
  SnapshotIsolationOptions opts;
  opts.ssi = true;
  return SnapshotIsolationEngine(opts);
}

Row Scalar(int64_t v) { return Row::Scalar(Value(v)); }

// ---------------------------------------------------------------------------
// (1) Committed pivot: the edge that forms after the pivot's commit
// ---------------------------------------------------------------------------

TEST(SsiEscapeTest, InEdgeFormedAfterPivotCommitAbortsTheCompleter) {
  // Dangerous structure T1 -rw-> T2 -rw-> T3 with T3 committed first and
  // T2 the pivot.  The in-edge T1 -rw-> T2 forms only *after* T2
  // committed (T1 reads the old y from its older snapshot), so the
  // pivot's own validation could never see it: T1, the completer, must
  // abort instead.
  SnapshotIsolationEngine e = MakeSsi();
  ASSERT_TRUE(e.Load("x", Scalar(0)).ok());
  ASSERT_TRUE(e.Load("y", Scalar(0)).ok());

  ASSERT_TRUE(e.Begin(3).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Read(2, "x").ok());          // T2 will be overwritten by T3
  ASSERT_TRUE(e.Write(3, "x", Scalar(1)).ok());  // T2 -rw-> T3
  ASSERT_TRUE(e.Commit(3).ok());             // T3 commits first
  ASSERT_TRUE(e.Write(2, "y", Scalar(1)).ok());
  ASSERT_TRUE(e.Begin(1).ok());              // snapshot predates T2's commit
  ASSERT_TRUE(e.Commit(2).ok());             // pivot commits; no in-edge yet

  auto r = e.Read(1, "y");                   // forms T1 -rw-> T2, post-commit
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->scalar().Equals(Value(int64_t{0})))
      << "T1's snapshot must still see the old y";
  ASSERT_TRUE(e.Read(1, "x").ok());          // T3 -wr-> T1 closes the cycle

  Status c1 = e.Commit(1);
  EXPECT_TRUE(c1.IsSerializationFailure()) << c1.ToString();
  EXPECT_TRUE(IsMVSerializable(e.history()))
      << check::ReplayHistory(e.history()).ToString();
  EXPECT_EQ(e.stats().serialization_aborts, 1u);
}

TEST(SsiEscapeTest, ForwardWitnessOrderStillAdmits) {
  // Negative control for the completion rule: same shape, but the pivot's
  // rw-successor commits *after* the pivot, so no dangerous structure
  // with a committed-first T3 exists and everybody commits.
  SnapshotIsolationEngine e = MakeSsi();
  ASSERT_TRUE(e.Load("x", Scalar(0)).ok());
  ASSERT_TRUE(e.Load("y", Scalar(0)).ok());

  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(2, "y", Scalar(1)).ok());
  ASSERT_TRUE(e.Begin(3).ok());
  ASSERT_TRUE(e.Read(2, "x").ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Commit(2).ok());                 // pivot-to-be commits first
  ASSERT_TRUE(e.Write(3, "x", Scalar(1)).ok());  // T2 -rw-> T3 (T3 later)
  ASSERT_TRUE(e.Commit(3).ok());
  ASSERT_TRUE(e.Read(1, "y").ok());              // T1 -rw-> T2

  EXPECT_TRUE(e.Commit(1).ok())
      << "without a committed-first witness this is serializable";
  EXPECT_TRUE(IsMVSerializable(e.history()));
}

// ---------------------------------------------------------------------------
// (2) The commit window: edge forms between validation and publication
// ---------------------------------------------------------------------------

// The window's dangerous structure T1 -rw-> T2 -rw-> T3: T3 committed
// first, and T2 — the pivot, with its out-edge to T3 already formed — is
// about to commit when T1 begins.
void SetUpWindowPivot(SnapshotIsolationEngine& e) {
  ASSERT_TRUE(e.Load("x", Scalar(0)).ok());
  ASSERT_TRUE(e.Load("y", Scalar(0)).ok());
  ASSERT_TRUE(e.Begin(3).ok());
  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Read(2, "x").ok());
  ASSERT_TRUE(e.Write(3, "x", Scalar(1)).ok());  // T2 -rw-> T3
  ASSERT_TRUE(e.Commit(3).ok());                 // T3 commits first
  ASSERT_TRUE(e.Write(2, "y", Scalar(1)).ok());
  ASSERT_TRUE(e.Begin(1).ok());
}

TEST(SsiEscapeTest, EdgeInCommitWindowRefusesTheCompleter) {
  // The failpoint fires between `Commit(2)`'s validation and its
  // publication and lets T1 read the old y: the in-edge on the pivot
  // forms only now.  T2 is pinned, so it publishes; T1, which would close
  // the structure through it, is refused at its own commit.
  SnapshotIsolationEngine e = MakeSsi();
  SetUpWindowPivot(e);

  bool hook_ran = false;
  e.SetCommitWindowHook([&](TxnId committing) {
    if (committing != 2) return;
    hook_ran = true;
    // Inside T2's commit window: its pending y is still unpublished, so
    // T1 reads the old version and hangs the rw in-edge on the pivot.
    auto r = e.Read(1, "y");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE((*r)->scalar().Equals(Value(int64_t{0})));
  });

  Status c2 = e.Commit(2);
  e.SetCommitWindowHook(nullptr);
  ASSERT_TRUE(hook_ran);
  EXPECT_TRUE(c2.ok()) << c2.ToString();

  ASSERT_TRUE(e.Read(1, "x").ok());
  Status c1 = e.Commit(1);
  EXPECT_TRUE(c1.IsSerializationFailure()) << c1.ToString();
  EXPECT_EQ(e.stats().ssi_aborts, 1u);
  EXPECT_TRUE(IsMVSerializable(e.history()))
      << check::ReplayHistory(e.history()).ToString();
}

TEST(SsiEscapeTest, CompleterCommittingInsideTheWindowIsRefused) {
  // The completer reads y *and commits* inside the pivot's window.  The
  // pivot already passed validation, so it is the completer that must be
  // refused, and the pivot commits.
  SnapshotIsolationEngine e = MakeSsi();
  SetUpWindowPivot(e);

  Status c1 = Status::OK();
  e.SetCommitWindowHook([&](TxnId committing) {
    if (committing != 2) return;
    ASSERT_TRUE(e.Read(1, "y").ok());  // T1 -rw-> T2
    c1 = e.Commit(1);
  });
  Status c2 = e.Commit(2);
  e.SetCommitWindowHook(nullptr);

  EXPECT_TRUE(c1.IsSerializationFailure()) << c1.ToString();
  EXPECT_TRUE(c2.ok()) << c2.ToString();
  EXPECT_TRUE(IsMVSerializable(e.history()))
      << check::ReplayHistory(e.history()).ToString();
}

TEST(SsiEscapeTest, LocalCommitterInItsWindowIsNotInDoubt) {
  // Pinned is not in doubt: a local committer in its window is invisible
  // to the 2PC recovery surface, which would otherwise abort it.
  SnapshotIsolationEngine e = MakeSsi();
  SetUpWindowPivot(e);

  bool hook_ran = false;
  e.SetCommitWindowHook([&](TxnId committing) {
    if (committing != 2) return;
    hook_ran = true;
    EXPECT_TRUE(e.InDoubtTransactions().empty());
    EXPECT_TRUE(e.CommitPrepared(2).IsFailedPrecondition());
    EXPECT_TRUE(e.AbortPrepared(2).IsFailedPrecondition());
  });
  Status c2 = e.Commit(2);
  e.SetCommitWindowHook(nullptr);
  ASSERT_TRUE(hook_ran);
  EXPECT_TRUE(c2.ok()) << c2.ToString();
}

TEST(SsiEscapeTest, CommitWindowOverlapIsRefusedByReservation) {
  // First-Committer-Wins across the window: while T2 sits between
  // validation and publication, a competing committer overlapping its
  // write set must be refused by the write-set reservation (the timestamp
  // probe alone cannot see an unpublished commit).
  SnapshotIsolationEngine e = MakeSsi();
  ASSERT_TRUE(e.Load("y", Scalar(0)).ok());

  ASSERT_TRUE(e.Begin(2).ok());
  ASSERT_TRUE(e.Write(2, "y", Scalar(1)).ok());
  ASSERT_TRUE(e.Begin(1).ok());
  ASSERT_TRUE(e.Write(1, "y", Scalar(2)).ok());

  Status competitor = Status::OK();
  e.SetCommitWindowHook([&](TxnId committing) {
    if (committing != 2) return;
    competitor = e.Commit(1);
  });
  EXPECT_TRUE(e.Commit(2).ok());
  e.SetCommitWindowHook(nullptr);
  EXPECT_TRUE(competitor.IsSerializationFailure()) << competitor.ToString();
  EXPECT_TRUE(IsMVSerializable(e.history()));
}

// ---------------------------------------------------------------------------
// (3) GC retirement of the committed-first witness
// ---------------------------------------------------------------------------

TEST(SsiEscapeTest, RetiredWitnessStillAbortsTheCompleter) {
  // Same dangerous structure as the first test (pivot P=10, witness
  // W=11, completer T=12), but the witness is version-GC-retired before
  // the completer commits: the pivot's sticky `committed_first_out`
  // summary must keep the refusal in force.
  SnapshotIsolationOptions opts;
  opts.ssi = true;
  SnapshotIsolationEngine e(opts);
  VersionGcPolicy gc;
  gc.mode = VersionGcMode::kWatermark;
  gc.commit_interval = 1u << 30;  // explicit passes only
  e.SetVersionGc(gc);
  ASSERT_TRUE(e.Load("a", Scalar(0)).ok());
  ASSERT_TRUE(e.Load("c", Scalar(0)).ok());

  ASSERT_TRUE(e.Begin(10).ok());                  // P, the pivot
  ASSERT_TRUE(e.Read(10, "c").ok());
  ASSERT_TRUE(e.Begin(11).ok());                  // W, the witness
  ASSERT_TRUE(e.Write(11, "c", Scalar(1)).ok());  // P -rw-> W
  ASSERT_TRUE(e.Commit(11).ok());                 // W commits first
  ASSERT_TRUE(e.Write(10, "a", Scalar(1)).ok());
  ASSERT_TRUE(e.Begin(12).ok());                  // T, the completer
  ASSERT_TRUE(e.Commit(10).ok());                 // P commits, not yet pivot

  // Retire W: the only open snapshot (T=12) began after W committed, so
  // the watermark passes W's commit and its state is gone.
  (void)e.GarbageCollectVersions();

  ASSERT_TRUE(e.Read(12, "a").ok());              // T -rw-> P, post-commit
  Status ct = e.Commit(12);
  EXPECT_TRUE(ct.IsSerializationFailure())
      << "retiring the witness must not reopen the escape: "
      << ct.ToString();
  EXPECT_TRUE(IsMVSerializable(e.history()));
}

}  // namespace
}  // namespace critique
