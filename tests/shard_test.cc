// Tests for the sharded database: hash routing, the single-shard fast
// path, 2PC atomicity, the cross-shard anomaly scenarios the subsystem
// exists to demonstrate, and presumed-abort recovery of in-doubt
// participants.
//
// The acceptance triangle:
//  (a) per-shard Snapshot Isolation admits cross-shard write skew —
//      while every shard's local history validates as impeccable SI;
//  (b) per-shard Locking SERIALIZABLE + 2PC prevents it;
//  (c) a coordinator crash between prepare and decision leaves
//      participants in doubt, and recovery resolves them with nothing
//      leaked (locks released, pending versions gone, values correct).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/analysis/mv_analysis.h"
#include "critique/check/online_checker.h"
#include "critique/common/random.h"
#include "critique/engine/locking_engine.h"
#include "critique/engine/si_engine.h"
#include "critique/shard/shard_scenarios.h"
#include "critique/shard/sharded_database.h"
#include "critique/wal/commit_log.h"
#include "critique/wal/wal_writer.h"
#include "critique/workload/parallel_driver.h"
#include "critique/workload/workload.h"

namespace critique {
namespace {

// Options for databases whose histories the test judges.
DbOptions Recording(IsolationLevel level) {
  DbOptions options(level);
  options.record_history = true;
  return options;
}

ShardedDbOptions RecordingShards(int shards, IsolationLevel level) {
  ShardedDbOptions options(shards, level);
  options.shard_options.record_history = true;
  return options;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, DeterministicInRangeAndBothShardsUsed) {
  ShardRouter router(4);
  std::set<int> used;
  for (int k = 0; k < 64; ++k) {
    const ItemId id = "i" + std::to_string(k);
    const int s = router.ShardOf(id);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, router.ShardOf(id));  // pure function of the id
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 4u) << "64 keys should reach all 4 shards";

  // Placement is a function of (id, num_shards), not of router identity.
  ShardRouter again(4);
  for (int k = 0; k < 64; ++k) {
    const ItemId id = "i" + std::to_string(k);
    EXPECT_EQ(router.ShardOf(id), again.ShardOf(id));
  }
}

// ---------------------------------------------------------------------------
// Fast path and 2PC atomicity
// ---------------------------------------------------------------------------

TEST(ShardedDatabaseTest, SingleShardTransactionSkipsCoordinator) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  ASSERT_TRUE(db.Load("a", Value(1)).ok());

  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Put("a", Value(2)).ok());
  EXPECT_FALSE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(db.single_shard_commits(), 1u);
  EXPECT_EQ(db.coordinator().stats().started, 0u);
}

TEST(ShardedDatabaseTest, CrossShardCommitIsAtomicAndCoordinated) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(100)).ok());
  ASSERT_TRUE(db.Load(y, Value(100)).ok());

  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Update(x, [](const std::optional<Row>& r) {
                    return Row::Scalar(Value(r->scalar().AsInt() - 30));
                  }).ok());
  ASSERT_TRUE(txn.Update(y, [](const std::optional<Row>& r) {
                    return Row::Scalar(Value(r->scalar().AsInt() + 30));
                  }).ok());
  EXPECT_TRUE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(db.coordinator().stats().started, 1u);
  EXPECT_EQ(db.coordinator().stats().committed, 1u);

  ShardedTransaction audit = db.Begin();
  auto vx = audit.GetScalar(x);
  auto vy = audit.GetScalar(y);
  ASSERT_TRUE(vx.ok());
  ASSERT_TRUE(vy.ok());
  EXPECT_EQ(vx->AsInt(), 70);
  EXPECT_EQ(vy->AsInt(), 130);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(ShardedDatabaseTest, RollbackAbortsEveryParticipant) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(db.Load(pair->first, Value(1)).ok());
  ASSERT_TRUE(db.Load(pair->second, Value(2)).ok());

  {
    ShardedTransaction txn = db.Begin();
    ASSERT_TRUE(txn.Put(pair->first, Value(10)).ok());
    ASSERT_TRUE(txn.Put(pair->second, Value(20)).ok());
    // RAII rollback on scope exit.
  }

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(pair->first)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(pair->second)->AsInt(), 2);
  EXPECT_TRUE(audit.Commit().ok());

  // Nothing held: both locking shards granted and released symmetrically.
  for (int s = 0; s < db.num_shards(); ++s) {
    auto& eng = dynamic_cast<LockingEngine&>(db.shard(s).engine());
    EXPECT_EQ(eng.lock_stats().acquired, eng.lock_stats().released);
  }
}

TEST(ShardedDatabaseTest, ScatterGatherPredicateReadSeesEveryShard) {
  ShardedDatabase db(4, IsolationLevel::kSerializable);
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(db.Load("i" + std::to_string(k), Value(k)).ok());
  }
  ShardedTransaction txn = db.Begin();
  auto rows = txn.GetWhere("P", Predicate::Cmp("val", CompareOp::kGe, 0));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 16u);
  EXPECT_EQ(txn.shards_touched(), 4);
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(ShardedDatabaseTest, ParticipantAbortDoomsTheGlobalTransaction) {
  // Two SI sharded transactions race on one item; the First-Committer-Wins
  // loser must take its *other* participant down with it.
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(0)).ok());
  ASSERT_TRUE(db.Load(y, Value(0)).ok());

  ShardedTransaction t1 = db.Begin();
  ShardedTransaction t2 = db.Begin();
  ASSERT_TRUE(t1.Put(x, Value(1)).ok());
  ASSERT_TRUE(t1.Put(y, Value(1)).ok());
  ASSERT_TRUE(t2.Put(x, Value(2)).ok());
  ASSERT_TRUE(t2.Put(y, Value(2)).ok());
  ASSERT_TRUE(t1.Commit().ok());

  Status s = t2.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  EXPECT_FALSE(t2.active());

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(x)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(y)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(ShardedDatabaseTest, ExecuteRetriesRetryableFailures) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(db.Load("a", Value(0)).ok());

  int calls = 0;
  Status s = db.Execute([&](ShardedTransaction& txn) {
    ++calls;
    CRITIQUE_RETURN_NOT_OK(txn.Put("a", Value(calls)));
    if (calls == 1) {
      (void)txn.Rollback();
      return Status::SerializationFailure("injected retryable failure");
    }
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(db.execute_retries(), 1u);

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("a")->AsInt(), 2);
  EXPECT_TRUE(audit.Commit().ok());
}

// ---------------------------------------------------------------------------
// (a) + (b): the cross-shard anomaly family
// ---------------------------------------------------------------------------

TEST(CrossShardAnomalyTest, WriteSkewOccursWithPerShardSnapshotIsolation) {
  ShardedDatabase db(RecordingShards(2, IsolationLevel::kSnapshotIsolation));
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->anomaly) << out->detail;
  EXPECT_FALSE(out->blocked);  // "SI reads are never blocked" — nor writes here

  // The damning part: every shard's local history is impeccable Snapshot
  // Isolation, and its single-version mapping is even serializable.  The
  // anomaly exists only globally — no per-shard detector can see it.
  for (int s = 0; s < db.num_shards(); ++s) {
    const History h = db.shard(s).history();
    EXPECT_TRUE(ValidateSnapshotVisibility(h).ok());
    EXPECT_TRUE(IsSerializable(MapSnapshotHistoryToSingleVersion(h)));
  }
}

TEST(CrossShardAnomalyTest, WriteSkewPreventedByPerShardSerializable2PC) {
  ShardedDatabase db(RecordingShards(2, IsolationLevel::kSerializable));
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->anomaly) << out->detail;
  EXPECT_TRUE(out->blocked);  // the long read locks engaged...
  EXPECT_TRUE(out->aborted);  // ...and the cross-shard deadlock cost a victim

  // Global serializability witness: the union judgment per shard — each
  // local history must be serializable, and the surviving transaction
  // committed on every shard it touched (2PC atomicity).
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(IsSerializable(db.shard(s).history()));
  }
}

TEST(CrossShardAnomalyTest, WriteSkewSurvivesPerShardSsi) {
  // Even SSI shards cannot see a dangerous structure whose rw edges live
  // on different shards: one edge per shard, no local pivot.  Global
  // serializability needs coordinator-level certification — or locks.
  ShardedDatabase db(2, IsolationLevel::kSerializableSI);
  auto out = RunCrossShardWriteSkew(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->anomaly) << out->detail;
}

TEST(CrossShardAnomalyTest, FracturedReadOccursWithPerShardSnapshotIsolation) {
  ShardedDatabase db(RecordingShards(2, IsolationLevel::kSnapshotIsolation));
  auto out = RunFracturedRead(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The transfer committed atomically through 2PC, yet the reader saw the
  // pre-transfer x and the post-transfer y: there is no global snapshot.
  // A single SI site forbids exactly this (one snapshot covers all items).
  EXPECT_TRUE(out->anomaly) << out->detail;

  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(ValidateSnapshotVisibility(db.shard(s).history()).ok());
  }
}

TEST(CrossShardAnomalyTest, FracturedReadPreventedByPerShardSerializable2PC) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto out = RunFracturedRead(db);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->anomaly) << out->detail;
  EXPECT_TRUE(out->blocked);  // the transfer waited behind the audit
}

TEST(CrossShardAnomalyTest, SingleSiteSnapshotIsolationForbidsTheFracture) {
  // The control experiment: the same interleaving on ONE SI site reads a
  // consistent snapshot — the anomaly is a child of partitioning, not of
  // SI itself.
  Database db(IsolationLevel::kSnapshotIsolation);
  ASSERT_TRUE(db.Load("x", Value(100)).ok());
  ASSERT_TRUE(db.Load("y", Value(100)).ok());

  Transaction reader = db.Begin();
  ASSERT_TRUE(reader.GetScalar("x").ok());  // snapshot pinned here

  Status s = db.Execute([](Transaction& w) {
    CRITIQUE_ASSIGN_OR_RETURN(Value x, w.GetScalar("x"));
    CRITIQUE_RETURN_NOT_OK(w.Put("x", Value(x.AsInt() - 50)));
    CRITIQUE_ASSIGN_OR_RETURN(Value y, w.GetScalar("y"));
    return w.Put("y", Value(y.AsInt() + 50));
  });
  ASSERT_TRUE(s.ok());

  auto rx = reader.GetScalar("x");
  auto ry = reader.GetScalar("y");
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(ry.ok());
  EXPECT_EQ(rx->AsInt() + ry->AsInt(), 200);  // one snapshot, no fracture
  EXPECT_TRUE(reader.Commit().ok());
}

// ---------------------------------------------------------------------------
// (c): in-doubt participants and presumed-abort recovery
// ---------------------------------------------------------------------------

TEST(InDoubtRecoveryTest, CoordinatorCrashBeforeDecisionPresumesAbort) {
  ShardedDatabase db(2, IsolationLevel::kSerializable);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(10)).ok());
  ASSERT_TRUE(db.Load(y, Value(20)).ok());

  TxnId gid = 0;
  {
    ShardedTransaction txn = db.Begin();
    gid = txn.id();
    ASSERT_TRUE(txn.Put(x, Value(11)).ok());
    ASSERT_TRUE(txn.Put(y, Value(21)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kBeforeDecision);
    Status s = txn.Commit();
    EXPECT_TRUE(s.IsInternal()) << s.ToString();
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }  // the session handle is gone; the participants must not be

  // Both shards hold an in-doubt participant with the global id...
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.shard(s).engine().InDoubtTransactions(),
              std::vector<TxnId>{gid});
  }
  // ...whose write locks are still held: a probing writer is refused.
  {
    ShardedTransaction probe = db.Begin();
    EXPECT_TRUE(probe.Put(x, Value(99)).IsWouldBlock());
    (void)probe.Rollback();
  }
  // The engine refuses to let a plain abort disturb an in-doubt txn.
  EXPECT_TRUE(db.shard(db.ShardOf(x)).engine().Abort(gid).IsFailedPrecondition());

  // Presumed abort: no logged decision, so recovery rolls both back.
  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.aborted, 2u);
  EXPECT_EQ(rep.committed, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_aborts, 2u);

  // Nothing leaked: in-doubt lists empty, every lock released, values
  // restored, and the item is writable again.
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
    auto& eng = dynamic_cast<LockingEngine&>(db.shard(s).engine());
    EXPECT_EQ(eng.lock_stats().acquired, eng.lock_stats().released);
  }
  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 10);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 20);
  ASSERT_TRUE(after.Put(x, Value(12)).ok());
  EXPECT_TRUE(after.Commit().ok());

  // Recovery is idempotent.
  auto again = db.RecoverInDoubt();
  EXPECT_EQ(again.aborted + again.committed, 0u);
}

TEST(InDoubtRecoveryTest, CoordinatorCrashAfterDecisionRecoversForward) {
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(10)).ok());
  ASSERT_TRUE(db.Load(y, Value(20)).ok());

  TxnId gid = 0;
  {
    ShardedTransaction txn = db.Begin();
    gid = txn.id();
    ASSERT_TRUE(txn.Put(x, Value(11)).ok());
    ASSERT_TRUE(txn.Put(y, Value(21)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    Status s = txn.Commit();
    EXPECT_TRUE(s.IsInternal()) << s.ToString();
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }

  // The prepared write set is reserved: a conflicting committer is
  // refused (First-Committer-Wins extended across the in-doubt window).
  {
    ShardedTransaction probe = db.Begin();
    ASSERT_TRUE(probe.Put(x, Value(99)).ok());  // pending, not yet validated
    Status s = probe.Commit();
    EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  }

  // The commit point was reached, so recovery rolls both forward.
  ASSERT_TRUE(db.coordinator().DecidedCommit(gid));
  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_commits, 2u);
  // All participants acknowledged; the coordinator forgets the gid.
  EXPECT_FALSE(db.coordinator().DecidedCommit(gid));

  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 11);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 21);
  EXPECT_TRUE(after.Commit().ok());
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
  }
}

TEST(InDoubtRecoveryTest, PrepareRefusalGloballyAbortsAndIsRetryable) {
  // T1 and T2 both transfer across shards touching one common item; the
  // later committer fails *prepare* on that shard, and the coordinator
  // must abort its other, perfectly healthy participant too.
  ShardedDatabase db(2, IsolationLevel::kSnapshotIsolation);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(0)).ok());
  ASSERT_TRUE(db.Load(y, Value(0)).ok());

  ShardedTransaction t1 = db.Begin();
  ShardedTransaction t2 = db.Begin();
  ASSERT_TRUE(t1.Put(x, Value(1)).ok());
  ASSERT_TRUE(t1.Put(y, Value(1)).ok());
  ASSERT_TRUE(t2.Put(x, Value(2)).ok());
  ASSERT_TRUE(t2.Put(y, Value(2)).ok());

  ASSERT_TRUE(t1.Commit().ok());
  Status s = t2.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  EXPECT_TRUE(IsRetryableStatus(s));
  EXPECT_EQ(db.coordinator().stats().prepare_failures, 1u);
  EXPECT_EQ(db.coordinator().stats().aborted, 1u);

  // No participant of the aborted global txn survives anywhere.
  for (int sh = 0; sh < db.num_shards(); ++sh) {
    EXPECT_TRUE(db.shard(sh).engine().InDoubtTransactions().empty());
  }
  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(x)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(y)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

TEST(InDoubtRecoveryTest, HeterogeneousShardsSurviveACrashAfterDecision) {
  // Every stock engine implements a real prepared state — including
  // Oracle Read Consistency: a participant without one would be rolled
  // back by the dying session while its SI peer recovers forward
  // (atomicity torn down the middle).
  ShardedDbOptions opts;
  opts.num_shards = 2;
  opts.per_shard = {DbOptions(IsolationLevel::kSnapshotIsolation),
                    DbOptions(IsolationLevel::kOracleReadConsistency)};
  ShardedDatabase db(opts);
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId x = pair->first, y = pair->second;
  ASSERT_TRUE(db.Load(x, Value(1)).ok());
  ASSERT_TRUE(db.Load(y, Value(1)).ok());

  {
    ShardedTransaction txn = db.Begin();
    ASSERT_TRUE(txn.Put(x, Value(2)).ok());
    ASSERT_TRUE(txn.Put(y, Value(2)).ok());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    EXPECT_TRUE(txn.Commit().IsInternal());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }
  // BOTH participants survived the session's death in doubt.
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(db.shard(s).engine().InDoubtTransactions().size(), 1u);
  }

  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);
  ShardedTransaction after = db.Begin();
  EXPECT_EQ(after.GetScalar(x)->AsInt(), 2);
  EXPECT_EQ(after.GetScalar(y)->AsInt(), 2);  // no torn commit
  EXPECT_TRUE(after.Commit().ok());
}

// ---------------------------------------------------------------------------
// The SSI prepare window: prepared means pinned
// ---------------------------------------------------------------------------
//
// An SSI participant validates at Prepare.  rw-antidependencies that would
// close a dangerous structure (Cahill et al. 2008) around it *while it is
// in doubt* — the Ports & Grittner prepared-transaction hazard — are
// refused at the active transaction that forms them, as in PostgreSQL: the
// prepared participant counts as committed, so its decision cannot fail.
// These tests pin that contract: the completer is refused (retryable), the
// prepared pivot commits at its decision — directly, through the
// coordinator's phase 2, and through crash recovery — and every history
// stays serializable.

// Builds the dangerous structure around an in-doubt participant P on one
// SSI database: P reads `xr` and writes `xw`; T3 overwrites `xr` and
// commits first (P -rw-> T3); then T1 reads the old `xw` (T1 -rw-> P) and
// tries to commit, which would close the structure through the pinned P.
void CompleteStructureAroundPrepared(Database& db, const ItemId& xr,
                                     const ItemId& xw) {
  Transaction t3 = db.Begin();
  ASSERT_TRUE(t3.Put(xr, Value(int64_t{1})).ok());
  ASSERT_TRUE(t3.Commit().ok()) << "T3 (out-neighbour) must commit first";
  Transaction t1 = db.Begin();
  auto r = t1.GetScalar(xw);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt(), 0) << "P's pending write must stay invisible";
  const Status s = t1.Commit();
  EXPECT_TRUE(s.IsSerializationFailure())
      << "the completer is refused: the prepared pivot is pinned; "
      << s.ToString();
}

TEST(SsiPreparedWindowTest, CompleterIsRefusedAndPreparedPivotCommits) {
  Database db(Recording(IsolationLevel::kSerializableSI));
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = db.Begin();
  ASSERT_TRUE(p.Get("xr").ok());
  ASSERT_TRUE(p.Put("xw", Value(int64_t{1})).ok());
  ASSERT_TRUE(p.Prepare().ok()) << "not a pivot yet: prepare must admit";

  CompleteStructureAroundPrepared(db, "xr", "xw");

  Status decision = p.CommitPrepared();
  EXPECT_TRUE(decision.ok()) << decision.ToString();
  EXPECT_FALSE(p.active());
  EXPECT_TRUE(db.engine().InDoubtTransactions().empty()) << "nothing leaks";

  // P's write is published and the refused completer left nothing: the
  // committed projection stays one-copy serializable.
  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("xw")->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar("xr")->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << check::ReplayHistory(db.history()).ToString();
}

TEST(SsiPreparedWindowTest, FirstCommitterAroundAPreparedPivotIsRefused) {
  // The other order: T1 closes P's in-edge first (admitted: no
  // out-neighbour of P has committed), then T3 would become the
  // out-neighbour that commits before the pinned pivot — T3 is refused.
  Database db(Recording(IsolationLevel::kSerializableSI));
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = db.Begin();
  ASSERT_TRUE(p.Get("xr").ok());
  ASSERT_TRUE(p.Put("xw", Value(int64_t{1})).ok());
  ASSERT_TRUE(p.Prepare().ok());

  Transaction t1 = db.Begin();
  ASSERT_TRUE(t1.Get("xw").ok());  // T1 -rw-> P
  ASSERT_TRUE(t1.Commit().ok());
  Transaction t3 = db.Begin();
  ASSERT_TRUE(t3.Put("xr", Value(int64_t{1})).ok());  // P -rw-> T3
  const Status s = t3.Commit();
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();

  EXPECT_TRUE(p.CommitPrepared().ok());
  Transaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar("xw")->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar("xr")->AsInt(), 0);
  EXPECT_TRUE(audit.Commit().ok());
  EXPECT_TRUE(IsMVSerializable(db.history()))
      << check::ReplayHistory(db.history()).ToString();
}

TEST(SsiPreparedWindowTest, CoordinatorCommitsThePinnedParticipant) {
  // The same hazard through TxnCoordinator::Commit itself: the structure
  // would complete inside the in-doubt window (deterministic via the
  // coordinator's failpoint hook); the completer is refused there, and
  // phase 2 commits the participant.
  Database db(Recording(IsolationLevel::kSerializableSI));
  ASSERT_TRUE(db.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load("xw", Value(int64_t{0})).ok());

  Transaction p = db.Begin();
  ASSERT_TRUE(p.Get("xr").ok());
  ASSERT_TRUE(p.Put("xw", Value(int64_t{1})).ok());

  TxnCoordinator coordinator;
  coordinator.set_in_doubt_hook([&](TxnId gid) {
    (void)gid;
    CompleteStructureAroundPrepared(db, "xr", "xw");
  });
  const TxnId gid = p.id();
  Status s = coordinator.Commit(gid, {{0, &p}});
  coordinator.set_in_doubt_hook(nullptr);

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(p.active());
  EXPECT_EQ(coordinator.stats().committed, 1u);
  EXPECT_EQ(coordinator.stats().aborted, 0u);
  EXPECT_FALSE(coordinator.DecidedCommit(gid))
      << "nothing lingers once every participant is told";
  EXPECT_TRUE(db.engine().InDoubtTransactions().empty());
  EXPECT_TRUE(IsMVSerializable(db.history()));
}

TEST(SsiPreparedWindowTest, EveryParticipantCommitsTheDecision) {
  // Two participants, one of which sits in the middle of a structure
  // another transaction tries to complete while it is in doubt.  Before
  // prepared participants were pinned, that one refused its decision and
  // the other committed: a partially applied global transaction.  Now
  // both commit.
  Database clean{DbOptions(IsolationLevel::kSerializableSI)};
  Database pinned{DbOptions(IsolationLevel::kSerializableSI)};
  ASSERT_TRUE(clean.Load("c", Value(int64_t{0})).ok());
  ASSERT_TRUE(pinned.Load("xr", Value(int64_t{0})).ok());
  ASSERT_TRUE(pinned.Load("xw", Value(int64_t{0})).ok());

  Transaction pc = clean.Begin();
  ASSERT_TRUE(pc.Put("c", Value(int64_t{1})).ok());
  Transaction pp = pinned.Begin();
  ASSERT_TRUE(pp.Get("xr").ok());
  ASSERT_TRUE(pp.Put("xw", Value(int64_t{1})).ok());

  TxnCoordinator coordinator;
  coordinator.set_in_doubt_hook([&](TxnId gid) {
    (void)gid;
    CompleteStructureAroundPrepared(pinned, "xr", "xw");
  });
  Status s = coordinator.Commit(/*gid=*/1, {{0, &pc}, {1, &pp}});
  coordinator.set_in_doubt_hook(nullptr);

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(coordinator.stats().committed, 1u);
  EXPECT_EQ(coordinator.stats().aborted, 0u);
  Transaction a1 = clean.Begin();
  EXPECT_EQ(a1.GetScalar("c")->AsInt(), 1);
  EXPECT_TRUE(a1.Commit().ok());
  Transaction a2 = pinned.Begin();
  EXPECT_EQ(a2.GetScalar("xw")->AsInt(), 1);
  EXPECT_TRUE(a2.Commit().ok());
}

TEST(SsiPreparedWindowTest, RecoveryRollsThePinnedParticipantForward) {
  // Cross-shard flavor: a two-shard SSI transaction crashes after its
  // commit point; while it is in doubt, a structure through it is
  // attempted on one participant's shard and the completer is refused.
  // Recovery rolls both participants forward, and each shard's history
  // stays serializable.
  ShardedDatabase db(RecordingShards(2, IsolationLevel::kSerializableSI));
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  const ItemId xr = pair->first;   // structure shard
  const ItemId w = pair->second;   // clean shard
  // A second key on the structure shard for P's write.
  ItemId xw;
  for (int k = 0;; ++k) {
    ItemId candidate = "xw" + std::to_string(k);
    if (db.ShardOf(candidate) == db.ShardOf(xr) && candidate != xr) {
      xw = candidate;
      break;
    }
  }
  ASSERT_TRUE(db.Load(xr, Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load(xw, Value(int64_t{0})).ok());
  ASSERT_TRUE(db.Load(w, Value(int64_t{0})).ok());

  {
    ShardedTransaction g = db.Begin();
    ASSERT_TRUE(g.Get(xr).ok());
    ASSERT_TRUE(g.Put(xw, Value(int64_t{1})).ok());
    ASSERT_TRUE(g.Put(w, Value(int64_t{1})).ok());
    EXPECT_TRUE(g.cross_shard());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kAfterDecision);
    EXPECT_TRUE(g.Commit().IsInternal());
    db.coordinator().set_failpoint(CoordinatorFailpoint::kNone);
  }

  // While G is in doubt, attempt the structure on its xr/xw shard with
  // two single-shard (fast-path) transactions — through the facade, so
  // global ids stay in sync with the shard sessions.
  {
    ShardedTransaction t3 = db.Begin();
    ASSERT_TRUE(t3.Put(xr, Value(int64_t{1})).ok());
    ASSERT_TRUE(t3.Commit().ok()) << "T3 (out-neighbour) commits first";
    ShardedTransaction t1 = db.Begin();
    auto r = t1.GetScalar(xw);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->AsInt(), 0) << "G's pending write must stay invisible";
    const Status s = t1.Commit();
    EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  }

  auto rep = db.RecoverInDoubt();
  EXPECT_EQ(rep.committed, 2u);  // both participants roll forward
  EXPECT_EQ(rep.aborted, 0u);
  EXPECT_EQ(db.coordinator().stats().recovered_commits, 2u);
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_TRUE(db.shard(s).engine().InDoubtTransactions().empty());
    EXPECT_TRUE(IsMVSerializable(db.shard(s).history())) << "shard " << s;
  }
  // Recovery converged; a second pass finds nothing.
  auto again = db.RecoverInDoubt();
  EXPECT_EQ(again.committed + again.aborted, 0u);

  ShardedTransaction audit = db.Begin();
  EXPECT_EQ(audit.GetScalar(xw)->AsInt(), 1);
  EXPECT_EQ(audit.GetScalar(w)->AsInt(), 1);
  EXPECT_TRUE(audit.Commit().ok());
}

// ---------------------------------------------------------------------------
// Heterogeneous shards and the concurrent driver
// ---------------------------------------------------------------------------

TEST(ShardedDatabaseTest, HeterogeneousShardsRunMixedIsolationLevels) {
  ShardedDbOptions opts;
  opts.num_shards = 2;
  opts.per_shard = {DbOptions(IsolationLevel::kSnapshotIsolation),
                    DbOptions(IsolationLevel::kSerializable)};
  ShardedDatabase db(opts);
  EXPECT_EQ(db.shard(0).level(), IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(db.shard(1).level(), IsolationLevel::kSerializable);

  // The mixed facade still runs cross-shard transactions end to end.
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(db.Load(pair->first, Value(5)).ok());
  ASSERT_TRUE(db.Load(pair->second, Value(5)).ok());
  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Put(pair->first, Value(6)).ok());
  ASSERT_TRUE(txn.Put(pair->second, Value(7)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db.coordinator().stats().committed, 1u);
}

TEST(ShardedDatabaseTest, ConcurrentTransfersPreserveTheGlobalInvariant) {
  ShardedDbOptions opts(4, IsolationLevel::kSnapshotIsolation);
  opts.shard_options.mode = ConcurrencyMode::kBlocking;
  opts.seed = 42;
  ShardedDatabase db(opts);

  WorkloadOptions wopts;
  wopts.num_items = 32;
  WorkloadGenerator gen(wopts);
  ASSERT_TRUE(gen.LoadInitial(db).ok());

  ParallelDriverOptions dopts;
  dopts.threads = 4;
  dopts.txns_per_thread = 40;
  ShardedParallelDriver driver(db, dopts);
  ParallelRunStats stats =
      driver.Run([&gen](ShardedTransaction& txn, Rng& rng) {
        return gen.ApplyShardedTransferTxn(txn, rng, /*amount=*/1,
                                           /*cross_shard_prob=*/0.5);
      });

  EXPECT_EQ(stats.attempts, 160u);
  EXPECT_GT(stats.committed, 0u);
  // Transfers preserve the global sum at SI whatever mix of single-shard
  // and 2PC commits the run produced.
  EXPECT_EQ(WorkloadGenerator::TotalBalance(db, wopts.num_items),
            static_cast<int64_t>(wopts.num_items) * wopts.initial_balance);
  // Both commit paths were exercised.
  EXPECT_GT(db.single_shard_commits(), 0u);
  EXPECT_GT(db.coordinator().stats().committed, 0u);
  // Client-side commits never exceed engine-side commits (each cross-shard
  // commit records one engine commit per participant).
  EXPECT_GE(stats.engine_commits, stats.committed);
}

// ---------------------------------------------------------------------------
// Overlapped votes: a cross-shard commit waits one vote round, not one per
// participant, and the device tokens it holds side by side never deadlock
// ---------------------------------------------------------------------------

// SI shards with per-shard WALs under a fresh directory, group commit on a
// simulated device of `latency`.
ShardedDbOptions DurableShards(int shards, const std::string& name,
                               std::chrono::microseconds latency) {
  ShardedDbOptions opt(shards, IsolationLevel::kSnapshotIsolation);
  opt.wal_dir = testing::TempDir() + "critique_shard_" + name;
  opt.shard_options.group_commit = true;
  opt.shard_options.fsync_mode = FsyncMode::kSimulated;
  opt.shard_options.fsync_latency = latency;
  return opt;
}

TEST(VoteOverlapTest, CrossShardCommitWaitsOneVoteRound) {
  constexpr uint64_t kLatencyUs = 50000;
  ShardedDatabase db(DurableShards(2, "vote_overlap",
                                   std::chrono::microseconds(kLatencyUs)));
  auto pair = PickCrossShardPair(db.router());
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(db.Load(pair->first, Value(5)).ok());
  ASSERT_TRUE(db.Load(pair->second, Value(5)).ok());

  ShardedTransaction txn = db.Begin();
  ASSERT_TRUE(txn.Put(pair->first, Value(4)).ok());
  ASSERT_TRUE(txn.Put(pair->second, Value(6)).ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(txn.Commit().ok());
  const auto commit_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // The whole commit — both votes and the coordinator's record — waited
  // one device round, not one per log and not a second for a decision.
  EXPECT_GE(static_cast<uint64_t>(commit_us), kLatencyUs);
  EXPECT_LT(static_cast<uint64_t>(commit_us), 2 * kLatencyUs);
  const obs::HistogramSnapshot prepare =
      db.coordinator().prepare_histogram().Snapshot();
  ASSERT_EQ(prepare.count, 1u);
  EXPECT_LT(prepare.sum, 2 * kLatencyUs);

  std::vector<const CommitLog*> logs = {db.shard(0).wal(), db.shard(1).wal(),
                                        db.coordinator_log()};
  for (size_t i = 0; i < logs.size(); ++i) {
    const GroupCommitStats st = logs[i]->stats();
    // Each log syncs once, in the same overlapped round: a participant
    // log its vote (the slim commit is buffered), the coordinator log its
    // record.
    EXPECT_EQ(st.syncs, 1u) << "log " << i << ": " << st;
    EXPECT_EQ(st.syncs + st.batched, st.sync_waits) << "log " << i << ": "
                                                     << st;
    // No round completed before its device time.
    const obs::HistogramSnapshot fsync = logs[i]->fsync_histogram().Snapshot();
    ASSERT_EQ(fsync.count, 1u) << "log " << i;
    EXPECT_GE(fsync.sum, kLatencyUs) << "log " << i;
  }
}

// Counts the records of `type` a log file holds.
size_t CountRecords(const std::string& path, WalRecordType type) {
  Result<WalReadResult> r = WalReader::ReadFile(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return 0;
  return static_cast<size_t>(std::count_if(
      r.value().records.begin(), r.value().records.end(),
      [type](const WalRecord& rec) { return rec.type == type; }));
}

TEST(VoteOverlapTest, ContendedCoordinatorLogCoversEveryAckedCommit) {
  // Two clients run cross-shard transfers at once, so their records meet
  // at the coordinator log's device token: one wait leads a round while
  // the other parks behind it (or rides it).  Every acked commit must find
  // its record and both its votes durable, whichever way the token went.
  constexpr int kClients = 2;
  constexpr int kTransfersPerClient = 40;
  constexpr int64_t kStart = 1000;
  ShardedDbOptions opt = DurableShards(2, "coordinator_contention",
                                       std::chrono::microseconds(2000));
  opt.shard_options.mode = ConcurrencyMode::kBlocking;
  ShardedDatabase db(opt);

  // from[c] on shard 0, to[c] on shard 1: each client's own accounts.
  std::vector<ItemId> from, to;
  for (int i = 0; from.size() < kClients || to.size() < kClients; ++i) {
    const ItemId id = "c" + std::to_string(i);
    std::vector<ItemId>& side = db.ShardOf(id) == 0 ? from : to;
    if (side.size() < kClients) side.push_back(id);
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(db.Load(from[c], Value(kStart)).ok());
    ASSERT_TRUE(db.Load(to[c], Value(kStart)).ok());
  }

  std::atomic<int> ready{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (int64_t moved = 1; moved <= kTransfersPerClient; ++moved) {
        const Status s = db.Execute([&](ShardedTransaction& txn) -> Status {
          CRITIQUE_RETURN_NOT_OK(txn.Put(from[c], Value(kStart - moved)));
          return txn.Put(to[c], Value(kStart + moved));
        });
        if (!s.ok() && failed.fetch_add(1) == 0) {
          ADD_FAILURE() << "client " << c << ": " << s.ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failed.load(), 0);

  constexpr size_t kCommits = kClients * kTransfersPerClient;
  EXPECT_EQ(db.coordinator().stats().committed, kCommits);
  const GroupCommitStats cs = db.coordinator_log()->stats();
  EXPECT_EQ(cs.appends, kCommits) << "one record per cross-shard commit";
  EXPECT_EQ(cs.syncs + cs.batched, cs.sync_waits) << cs;
  // Acked means durable: the files already hold every record and vote.
  EXPECT_EQ(CountRecords(db.coordinator_log()->path(), WalRecordType::kDecision),
            kCommits);
  for (int s = 0; s < db.num_shards(); ++s) {
    EXPECT_EQ(CountRecords(db.shard(s).wal()->path(), WalRecordType::kPrepare),
              kCommits)
        << "shard " << s;
  }
}

TEST(VoteOverlapTest, MixedTransfersNeverDeadlockTheDeviceTokens) {
  // Two threads run cross-shard transfers, whose overlapped vote waits
  // hold several device tokens at once; two run single-shard transfers,
  // whose commits take one.  Each thread moves money between its own
  // accounts, so no Execute can lose a First-Committer-Wins race: a
  // failure or a hang can only come from the token protocol.
  constexpr int kShards = 3;
  constexpr int kThreads = 4;  // threads 0 and 1 cross shards
  constexpr int kTransfersPerThread = 150;
  constexpr int64_t kStart = 1000;
  ShardedDbOptions opt = DurableShards(kShards, "vote_overlap_stress",
                                       std::chrono::microseconds(100));
  opt.shard_options.mode = ConcurrencyMode::kBlocking;
  ShardedDatabase db(opt);

  // acct[t][s][k]: thread t's k-th account on shard s.
  std::vector<std::vector<std::vector<ItemId>>> acct(
      kThreads, std::vector<std::vector<ItemId>>(kShards));
  for (int t = 0; t < kThreads; ++t) {
    int filled = 0;
    for (int i = 0; filled < kShards * 2; ++i) {
      const ItemId id = "t" + std::to_string(t) + "_" + std::to_string(i);
      std::vector<ItemId>& slot = acct[t][db.ShardOf(id)];
      if (slot.size() == 2) continue;
      slot.push_back(id);
      ++filled;
      ASSERT_TRUE(db.Load(id, Value(kStart)).ok());
    }
  }

  std::atomic<int> finished{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + static_cast<uint64_t>(t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        // Cross-shard threads pick a random ordered shard triple and
        // touch two or all three of its shards; single-shard threads
        // stay on one shard.
        const int a = static_cast<int>(rng.Uniform(kShards));
        const int b = (a + 1 + static_cast<int>(rng.Uniform(kShards - 1))) %
                      kShards;
        const int c = 3 - a - b;  // the shard neither a nor b names
        const bool cross = t < 2;
        const bool three = cross && rng.Chance(0.5);
        const Status s = db.Execute([&](ShardedTransaction& txn) -> Status {
          auto move = [&](const ItemId& id, int64_t delta) -> Status {
            CRITIQUE_ASSIGN_OR_RETURN(Value v, txn.GetScalar(id));
            return txn.Put(id, Value(v.AsInt() + delta));
          };
          if (!cross) {
            CRITIQUE_RETURN_NOT_OK(move(acct[t][a][0], -1));
            return move(acct[t][a][1], 1);
          }
          CRITIQUE_RETURN_NOT_OK(move(acct[t][a][0], three ? -2 : -1));
          CRITIQUE_RETURN_NOT_OK(move(acct[t][b][0], 1));
          return three ? move(acct[t][c][0], 1) : Status::OK();
        });
        if (!s.ok() && failed.fetch_add(1) == 0) {
          ADD_FAILURE() << "thread " << t << ": " << s.ToString();
        }
      }
      finished.fetch_add(1);
    });
  }
  // A token deadlock would hang the joins below: fail loudly instead.
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (finished.load() < kThreads) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "transfers hung: device-token deadlock\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  for (std::thread& th : threads) th.join();
  watchdog.join();

  EXPECT_EQ(failed.load(), 0);
  int64_t total = 0;
  ASSERT_TRUE(db.Execute([&](ShardedTransaction& txn) -> Status {
                  total = 0;
                  for (const auto& per_thread : acct) {
                    for (const auto& per_shard : per_thread) {
                      for (const ItemId& id : per_shard) {
                        CRITIQUE_ASSIGN_OR_RETURN(Value v, txn.GetScalar(id));
                        total += v.AsInt();
                      }
                    }
                  }
                  return Status::OK();
                }).ok());
  EXPECT_EQ(total, kStart * kThreads * kShards * 2) << "money conserved";
  EXPECT_GT(db.coordinator().stats().committed, 0u);
  EXPECT_GT(db.single_shard_commits(), 0u);
  for (int s = 0; s < kShards; ++s) {
    const GroupCommitStats st = db.shard(s).wal()->stats();
    EXPECT_EQ(st.syncs + st.batched, st.sync_waits) << "shard " << s << ": "
                                                     << st;
  }
}

}  // namespace
}  // namespace critique
