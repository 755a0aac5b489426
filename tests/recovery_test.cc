// Restart-recovery tests for the durability subsystem, over every stock
// engine family: committed effects survive a crash, unsynced/uncommitted
// work never comes back, torn tails are chopped, prepared-but-undecided
// participants are restored in doubt and resolved by presumed abort —
// and the sharded crash matrix: a "kill -9" injected at every WAL stage
// of the 2PC decision pipeline, with zero lost committed transactions
// and nothing leaked after recovery at every point.
//
// The crash model: a crash image is a byte-for-byte copy of the WAL file
// taken while the instance is still running.  Everything a committer was
// acked on is synced (and thus in the copy); buffered-but-unsynced bytes
// and the crashed instance's clean-shutdown flush are not — exactly what
// a kill -9 at that instant would leave on disk.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "critique/analysis/dependency_graph.h"
#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/shard/sharded_database.h"
#include "critique/wal/wal_writer.h"

namespace critique {
namespace {

namespace fs = std::filesystem;

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "critique_recovery_" + name;
}

// The crash: snapshot the durable bytes while the victim still runs.
std::string CrashImage(const std::string& wal_path, const std::string& tag) {
  const std::string image = wal_path + "." + tag;
  fs::copy_file(wal_path, image, fs::copy_options::overwrite_existing);
  return image;
}

std::string LevelTag(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kSerializable:
      return "Locking";
    case IsolationLevel::kReadCommitted:
      return "ReadCommitted";
    case IsolationLevel::kSnapshotIsolation:
      return "SI";
    case IsolationLevel::kSerializableSI:
      return "SSI";
    case IsolationLevel::kOracleReadConsistency:
      return "OracleRC";
    default:
      return "Other";
  }
}

int64_t ReadInt(Database& db, const ItemId& id) {
  int64_t v = -1;
  EXPECT_TRUE(db.Execute([&](Transaction& t) -> Status {
                  auto r = t.GetScalar(id);
                  if (!r.ok()) return r.status();
                  v = r.value().is_null() ? -1 : r.value().AsInt();
                  return Status::OK();
                }).ok());
  return v;
}

bool Exists(Database& db, const ItemId& id) {
  bool present = false;
  EXPECT_TRUE(db.Execute([&](Transaction& t) -> Status {
                  auto r = t.Get(id);
                  if (!r.ok()) return r.status();
                  present = r.value().has_value();
                  return Status::OK();
                }).ok());
  return present;
}

Status PutCommit(Database& db, const ItemId& id, int64_t v) {
  return db.Execute(
      [&](Transaction& t) -> Status { return t.Put(id, Value(v)); });
}

// ---------------------------------------------------------------------------
// Single-site recovery, parameterized over the stock engine families
// ---------------------------------------------------------------------------

class RecoveryTest : public testing::TestWithParam<IsolationLevel> {
 protected:
  DbOptions Options(const std::string& test) {
    DbOptions o(GetParam());
    o.wal_path = TmpPath(test + "_" + LevelTag(GetParam()) + ".wal");
    return o;
  }
};

TEST_P(RecoveryTest, CommittedEffectsSurviveACrash) {
  const DbOptions opt = Options("committed");
  Database db(opt);
  ASSERT_TRUE(db.Load("a", Value(10)).ok());
  ASSERT_TRUE(db.Load("b", Value(20)).ok());

  // Three committed transactions: overwrite, insert, delete, and a
  // read-modify-write — every redo shape.
  ASSERT_TRUE(db.Execute([](Transaction& t) -> Status {
                  CRITIQUE_RETURN_NOT_OK(t.Put("a", Value(11)));
                  return t.Insert("c", Row::Scalar(Value(1)));
                }).ok());
  ASSERT_TRUE(
      db.Execute([](Transaction& t) -> Status { return t.Erase("b"); }).ok());

  // An uncommitted transaction in flight at the crash: its effects must
  // never come back (its redo is engine-buffered, only kBegin is logged —
  // and made durable by the next committed transaction's sync).
  Transaction in_flight = db.Begin();
  ASSERT_TRUE(in_flight.Put("a", Value(99)).ok());

  ASSERT_TRUE(db.Execute([](Transaction& t) -> Status {
                  return t.Update("c", [](const std::optional<Row>& r) {
                    return Row::Scalar(Value(r->scalar().AsInt() + 5));
                  });
                }).ok());

  const std::string image = CrashImage(opt.wal_path, "img");
  DbOptions ropt = opt;
  ropt.wal_path = image;
  Result<Database> r = Database::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database rec = std::move(r).value();

  EXPECT_TRUE(rec.recovered());
  EXPECT_FALSE(rec.wal_recovery().torn_tail);
  EXPECT_EQ(rec.wal_recovery().loads_replayed, 2u);
  EXPECT_EQ(rec.wal_recovery().committed_replayed, 3u);
  EXPECT_GE(rec.wal_recovery().begun_discarded, 1u) << "the in-flight txn";

  EXPECT_EQ(ReadInt(rec, "a"), 11);
  EXPECT_EQ(ReadInt(rec, "c"), 6);
  EXPECT_FALSE(Exists(rec, "b")) << "the committed delete must replay";

  // The recovered history (pure replay so far) is a serial history.
  EXPECT_TRUE(IsSerializable(rec.history()));

  // The recovered instance is live: new commits append behind the replay.
  ASSERT_TRUE(PutCommit(rec, "d", 7).ok());
  EXPECT_EQ(ReadInt(rec, "d"), 7);
}

TEST_P(RecoveryTest, TornTailIsChoppedAndTheLogStaysAppendable) {
  const DbOptions opt = Options("torn");
  Database db(opt);
  ASSERT_TRUE(db.Load("a", Value(1)).ok());
  ASSERT_TRUE(PutCommit(db, "a", 2).ok());

  std::string image = CrashImage(opt.wal_path, "img");
  {  // the crash landed mid-write: garbage half-record at the tail
    std::FILE* f = std::fopen(image.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = {0x40, 0x00, 0x00, 0x00, 0x07, 0x01};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }

  DbOptions ropt = opt;
  ropt.wal_path = image;
  Result<Database> r = Database::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database rec = std::move(r).value();
  EXPECT_TRUE(rec.wal_recovery().torn_tail);
  EXPECT_GT(rec.wal_recovery().dropped_bytes, 0u);
  EXPECT_EQ(ReadInt(rec, "a"), 2) << "the durable prefix is authoritative";

  // Crash/recover cycle 2: the chopped log took new appends coherently.
  ASSERT_TRUE(PutCommit(rec, "a", 3).ok());
  const std::string image2 = CrashImage(image, "img2");
  DbOptions ropt2 = opt;
  ropt2.wal_path = image2;
  Result<Database> r2 = Database::Recover(ropt2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  Database rec2 = std::move(r2).value();
  EXPECT_FALSE(rec2.wal_recovery().torn_tail);
  EXPECT_EQ(ReadInt(rec2, "a"), 3);
}

TEST_P(RecoveryTest, PreparedParticipantIsRestoredAndPresumedAbortFreesIt) {
  const DbOptions opt = Options("prepared_abort");
  Database db(opt);
  ASSERT_TRUE(db.Load("a", Value(1)).ok());

  Transaction part = db.Begin();
  const TxnId gid = part.id();
  ASSERT_TRUE(part.Put("a", Value(2)).ok());
  ASSERT_TRUE(part.Prepare().ok()) << "the vote must be durable when acked";

  const std::string image = CrashImage(opt.wal_path, "img");
  DbOptions ropt = opt;
  ropt.wal_path = image;
  Result<Database> r = Database::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database rec = std::move(r).value();

  EXPECT_EQ(rec.wal_recovery().prepared_restored, 1u);
  const std::vector<TxnId> in_doubt = rec.engine().InDoubtTransactions();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0], gid);

  // No decision was ever logged: presumed abort.  The rollback releases
  // the re-taken locks/reservations — a new writer gets through.
  ASSERT_TRUE(rec.engine().AbortPrepared(gid).ok());
  EXPECT_TRUE(rec.engine().InDoubtTransactions().empty());
  EXPECT_EQ(ReadInt(rec, "a"), 1) << "the undecided write must not apply";
  ASSERT_TRUE(PutCommit(rec, "a", 5).ok()) << "no leaked locks";
  EXPECT_EQ(ReadInt(rec, "a"), 5);
}

TEST_P(RecoveryTest, PreparedParticipantRollsForwardOnALoggedCommit) {
  const DbOptions opt = Options("prepared_commit");
  Database db(opt);
  ASSERT_TRUE(db.Load("a", Value(1)).ok());

  Transaction part = db.Begin();
  const TxnId gid = part.id();
  ASSERT_TRUE(part.Put("a", Value(2)).ok());
  ASSERT_TRUE(part.Prepare().ok());

  const std::string image = CrashImage(opt.wal_path, "img");
  DbOptions ropt = opt;
  ropt.wal_path = image;
  Result<Database> r = Database::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database rec = std::move(r).value();
  ASSERT_EQ(rec.engine().InDoubtTransactions().size(), 1u);

  // The coordinator's decision arrives (it was logged elsewhere): roll
  // forward.  The slim commit record this writes is buffered, not synced
  // — the durable decision is the commit point — so a crash before this
  // log syncs again restores the participant in doubt once more (cycle
  // 2, re-resolved from the same decision), and only a crash after the
  // sync replays prepare + commit with the effect standing (cycle 3).
  ASSERT_TRUE(rec.engine().CommitPrepared(gid).ok());
  const std::string unsynced = CrashImage(image, "img2");
  EXPECT_EQ(ReadInt(rec, "a"), 2);

  {
    DbOptions ropt2 = opt;
    ropt2.wal_path = unsynced;
    Result<Database> r2 = Database::Recover(ropt2);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    Database rec2 = std::move(r2).value();
    EXPECT_EQ(rec2.wal_recovery().prepared_restored, 1u);
    const std::vector<TxnId> in_doubt = rec2.engine().InDoubtTransactions();
    ASSERT_EQ(in_doubt.size(), 1u) << "the unsynced commit must not replay";
    EXPECT_EQ(in_doubt[0], gid);
    // The decision is re-delivered: the roll-forward is repeatable.
    ASSERT_TRUE(rec2.engine().CommitPrepared(gid).ok());
    EXPECT_EQ(ReadInt(rec2, "a"), 2);
  }

  ASSERT_NE(rec.wal(), nullptr);
  ASSERT_TRUE(rec.wal()->SyncAll().ok());
  const std::string synced = CrashImage(image, "img3");
  DbOptions ropt3 = opt;
  ropt3.wal_path = synced;
  Result<Database> r3 = Database::Recover(ropt3);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  Database rec3 = std::move(r3).value();
  EXPECT_EQ(rec3.wal_recovery().prepared_restored, 0u);
  EXPECT_TRUE(rec3.engine().InDoubtTransactions().empty());
  EXPECT_EQ(ReadInt(rec3, "a"), 2);
  EXPECT_TRUE(IsSerializable(rec3.history()));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, RecoveryTest,
    testing::Values(IsolationLevel::kSerializable,
                    IsolationLevel::kReadCommitted,
                    IsolationLevel::kSnapshotIsolation,
                    IsolationLevel::kSerializableSI,
                    IsolationLevel::kOracleReadConsistency),
    [](const testing::TestParamInfo<IsolationLevel>& info) {
      return LevelTag(info.param);
    });

// ---------------------------------------------------------------------------
// Group commit end to end: many concurrent committers, then a crash
// ---------------------------------------------------------------------------

TEST(RecoveryGroupCommitTest, AckedCommitsFromEveryThreadSurvive) {
  DbOptions opt(IsolationLevel::kSnapshotIsolation);
  opt.wal_path = TmpPath("group_commit_mt.wal");
  opt.group_commit = true;
  opt.fsync_mode = FsyncMode::kSimulated;
  opt.fsync_latency = std::chrono::microseconds(100);
  opt.mode = ConcurrencyMode::kBlocking;
  Database db(opt);

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(db.Load("k" + std::to_string(t), Value(0)).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      const ItemId id = "k" + std::to_string(t);
      for (int i = 1; i <= kRounds; ++i) {
        EXPECT_TRUE(db.Execute([&](Transaction& txn) -> Status {
                        return txn.Put(id, Value(int64_t{i}));
                      }).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_NE(db.wal(), nullptr);
  const GroupCommitStats stats = db.wal()->stats();
  EXPECT_LE(stats.syncs, stats.appends);

  const std::string image = CrashImage(opt.wal_path, "img");
  DbOptions ropt = opt;
  ropt.wal_path = image;
  Result<Database> r = Database::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database rec = std::move(r).value();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ReadInt(rec, "k" + std::to_string(t)), kRounds)
        << "every acked commit must be in the recovered state";
  }
}

// ---------------------------------------------------------------------------
// The sharded crash matrix: kill the coordinator at every WAL stage
// ---------------------------------------------------------------------------

// One item id on each shard of a two-shard facade: {shard 0, shard 1}.
std::pair<ItemId, ItemId> ItemPerShard(const ShardedDatabase& db,
                                       const std::string& prefix) {
  ItemId x, y;
  for (int i = 0; x.empty() || y.empty(); ++i) {
    const ItemId id = prefix + std::to_string(i);
    if (db.ShardOf(id) == 0 && x.empty()) x = id;
    if (db.ShardOf(id) == 1 && y.empty()) y = id;
  }
  return {x, y};
}

// The sharded crash: copies the two shard logs and the coordinator log
// under `dir` into a fresh `<dir>.rec`, returned for `Recover`.
std::string ShardedCrashImage(const std::string& dir) {
  const std::string rec_dir = dir + ".rec";
  fs::remove_all(rec_dir);
  fs::create_directories(rec_dir);
  for (const char* f : {"shard-0.wal", "shard-1.wal", "coordinator.wal"}) {
    fs::copy_file(dir + "/" + f, rec_dir + "/" + f);
  }
  return rec_dir;
}

struct CrashCase {
  const char* name;
  WalFailpoint wal_fp;          // on the coordinator's decision log
  CoordinatorFailpoint coord_fp;
  bool decision_survives;       // does recovery find a durable commit?
  bool acked;                   // did the doomed Commit answer OK?
};

const CrashCase kCrashMatrix[] = {
    // The decision append dies before buffering: no decision ever existed.
    {"pre_append", WalFailpoint::kPreAppend, CoordinatorFailpoint::kNone,
     false, false},
    // Appended but the sync dies before the device write: the buffered
    // decision never reaches the file — still no durable decision.
    {"pre_sync", WalFailpoint::kPreSync, CoordinatorFailpoint::kNone, false,
     false},
    // Crash after prepare, before the decision reaches the log at all.
    {"before_decision", WalFailpoint::kNone,
     CoordinatorFailpoint::kBeforeDecision, false, false},
    // The decision is durable; the crash hits before any participant
    // hears it.  Recovery must roll the whole transaction forward.
    {"after_decision", WalFailpoint::kNone,
     CoordinatorFailpoint::kAfterDecision, true, false},
    // The commit was acked — every participant published — but the crash
    // hits before any participant log syncs again, so their commit
    // records are lost.  The durable decision is the commit point: it is
    // still open, and recovery rolls both participants forward from it.
    {"after_ack", WalFailpoint::kNone, CoordinatorFailpoint::kNone, true,
     true},
};

class ShardedCrashMatrixTest
    : public testing::TestWithParam<std::tuple<int, IsolationLevel>> {};

TEST_P(ShardedCrashMatrixTest, NoLostCommitsNothingLeaked) {
  const CrashCase& cc = kCrashMatrix[std::get<0>(GetParam())];
  const IsolationLevel level = std::get<1>(GetParam());

  const std::string dir = TmpPath(std::string("matrix_") + cc.name + "_" +
                                  LevelTag(level));
  fs::remove_all(dir);
  ShardedDbOptions opt(2, level);
  opt.wal_dir = dir;
  ShardedDatabase db(opt);
  ASSERT_NE(db.coordinator_log(), nullptr);

  // One account on each shard.
  ItemId x, y;
  std::tie(x, y) = ItemPerShard(db, "acct");
  ASSERT_TRUE(db.Load(x, Value(100)).ok());
  ASSERT_TRUE(db.Load(y, Value(100)).ok());

  // A committed cross-shard transfer before the crash — it must survive
  // recovery no matter where the next one dies.
  ASSERT_TRUE(db.Execute([&](ShardedTransaction& t) -> Status {
                  CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(90)));
                  return t.Put(y, Value(110));
                }).ok());

  // Arm the crash and run the doomed transfer (raw handle, no retries).
  db.coordinator_log()->set_failpoint(cc.wal_fp);
  db.coordinator().set_failpoint(cc.coord_fp);
  {
    ShardedTransaction t = db.Begin();
    ASSERT_TRUE(t.Put(x, Value(65)).ok());
    ASSERT_TRUE(t.Put(y, Value(135)).ok());
    const Status s = t.Commit();
    if (cc.acked) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    } else {
      ASSERT_FALSE(s.ok());
      EXPECT_TRUE(s.IsInternal()) << s.ToString();
    }
  }
  EXPECT_EQ(db.coordinator().stats().crashes, cc.acked ? 0u : 1u);

  // The kill: copy the durable files; the crashed instance's buffered
  // state and shutdown flush never reach the recovering one.
  ShardedDbOptions ropt = opt;
  ropt.wal_dir = ShardedCrashImage(dir);
  Result<std::unique_ptr<ShardedDatabase>> r = ShardedDatabase::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::unique_ptr<ShardedDatabase> rec = std::move(r).value();
  EXPECT_TRUE(rec->recovered());

  const ShardedDatabase::RecoveryReport rep = rec->RecoverInDoubt();
  if (cc.decision_survives) {
    EXPECT_EQ(rep.committed, 2u) << "both participants roll forward";
    EXPECT_EQ(rep.aborted, 0u);
  } else {
    EXPECT_EQ(rep.committed, 0u);
    EXPECT_EQ(rep.aborted, 2u) << "presumed abort on both participants";
  }

  // A second crash right after recovery — once the coordinator log synced,
  // as any later decision would make it — taken before any new traffic
  // syncs the shard logs.  RecoverInDoubt synced its roll-forwards before
  // closing their decisions, so this image must recover the same state.
  ASSERT_TRUE(rec->coordinator_log()->SyncAll().ok());
  ShardedDbOptions ropt2 = opt;
  ropt2.wal_dir = ShardedCrashImage(ropt.wal_dir);

  // Zero lost committed transactions; the undecided transfer applied
  // exactly-or-not-at-all; money conserved either way.
  auto read_xy = [&](ShardedDatabase& d, int64_t* vx, int64_t* vy) {
    EXPECT_TRUE(d.Execute([&](ShardedTransaction& t) -> Status {
                   auto rx = t.GetScalar(x);
                   if (!rx.ok()) return rx.status();
                   auto ry = t.GetScalar(y);
                   if (!ry.ok()) return ry.status();
                   *vx = rx.value().AsInt();
                   *vy = ry.value().AsInt();
                   return Status::OK();
                 }).ok());
  };
  int64_t vx = -1, vy = -1;
  read_xy(*rec, &vx, &vy);
  if (cc.decision_survives) {
    EXPECT_EQ(vx, 65);
    EXPECT_EQ(vy, 135);
  } else {
    EXPECT_EQ(vx, 90);
    EXPECT_EQ(vy, 110);
  }
  EXPECT_EQ(vx + vy, 200) << "atomicity: conservation must hold";

  // Nothing leaked: no participant still in doubt, no lock or pending
  // version blocks a new writer, every shard's history stays clean.
  for (int s = 0; s < rec->num_shards(); ++s) {
    EXPECT_TRUE(rec->shard(s).engine().InDoubtTransactions().empty())
        << "shard " << s;
  }

  // Recovery is itself crash-safe: the second image recovers the state
  // the first recovery reached.
  {
    Result<std::unique_ptr<ShardedDatabase>> r2 =
        ShardedDatabase::Recover(ropt2);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    std::unique_ptr<ShardedDatabase> rec2 = std::move(r2).value();
    (void)rec2->RecoverInDoubt();
    for (int s = 0; s < rec2->num_shards(); ++s) {
      EXPECT_TRUE(rec2->shard(s).engine().InDoubtTransactions().empty())
          << "shard " << s;
    }
    int64_t vx2 = -1, vy2 = -1;
    read_xy(*rec2, &vx2, &vy2);
    EXPECT_EQ(vx2, vx);
    EXPECT_EQ(vy2, vy);
  }
  ASSERT_TRUE(rec->Execute([&](ShardedTransaction& t) -> Status {
                  CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(1)));
                  return t.Put(y, Value(2));
                }).ok())
      << "recovered shards must be fully writable (no leaked locks)";
  for (int s = 0; s < rec->num_shards(); ++s) {
    EXPECT_TRUE(IsSerializable(rec->shard(s).history())) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, ShardedCrashMatrixTest,
    testing::Combine(
        testing::Range(0, static_cast<int>(std::size(kCrashMatrix))),
        testing::Values(IsolationLevel::kSerializable,
                        IsolationLevel::kSnapshotIsolation)),
    [](const testing::TestParamInfo<std::tuple<int, IsolationLevel>>& info) {
      return std::string(kCrashMatrix[std::get<0>(info.param)].name) + "_" +
             LevelTag(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sharded group commit end to end: concurrent 2PC transfers, then a crash
// ---------------------------------------------------------------------------

// Which logs die first in the crash (see the test body).
enum class CrashOrder { kCoordinatorFirst, kShardsFirst };

class ShardedRecoveryGroupCommitTest
    : public testing::TestWithParam<CrashOrder> {};

TEST_P(ShardedRecoveryGroupCommitTest, AckedTransfersFromEveryThreadSurvive) {
  const bool shards_first = GetParam() == CrashOrder::kShardsFirst;
  const std::string dir = TmpPath(std::string("sharded_group_commit_mt_") +
                                  (shards_first ? "shards" : "coord"));
  fs::remove_all(dir);
  ShardedDbOptions opt(2, IsolationLevel::kSnapshotIsolation);
  opt.wal_dir = dir;
  opt.shard_options.group_commit = true;
  opt.shard_options.fsync_mode = FsyncMode::kSimulated;
  opt.shard_options.fsync_latency = std::chrono::microseconds(100);
  opt.shard_options.mode = ConcurrencyMode::kBlocking;
  ShardedDatabase db(opt);
  ASSERT_NE(db.coordinator_log(), nullptr);

  // Thread t moves one unit per transfer from its account on shard 0 to
  // its account on shard 1, so every transfer runs 2PC and thread t's
  // acked count says exactly how much must have moved.
  constexpr int kThreads = 8;
  constexpr int64_t kStart = 1000;
  std::vector<ItemId> from, to;
  for (int i = 0; from.size() < kThreads || to.size() < kThreads; ++i) {
    const ItemId id = "acct" + std::to_string(i);
    std::vector<ItemId>& side = db.ShardOf(id) == 0 ? from : to;
    if (side.size() < kThreads) side.push_back(id);
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(db.Load(from[t], Value(kStart)).ok());
    ASSERT_TRUE(db.Load(to[t], Value(kStart)).ok());
  }

  // Each thread transfers until the crash fails one of its commits.
  std::vector<std::atomic<int>> acked(kThreads);
  std::atomic<int> stopped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t moved = 1;; ++moved) {
        const Status s = db.Execute([&](ShardedTransaction& txn) -> Status {
          CRITIQUE_RETURN_NOT_OK(txn.Put(from[t], Value(kStart - moved)));
          return txn.Put(to[t], Value(kStart + moved));
        });
        if (!s.ok()) break;
        acked[t].fetch_add(1);
      }
      stopped.fetch_add(1);
    });
  }

  // The crash, at a random point once every thread is under way.  Each
  // log dies at its next sync, one after another, which leaves the state
  // of a crash of the first component followed by the others:
  //  * coordinator first: no decision becomes durable any more, so what a
  //    shard log still syncs is a prepare presumed abort undoes or the
  //    commit of a decision that is already durable;
  //  * shards first: no participant record becomes durable any more, so
  //    what the coordinator still syncs is a decision over durable
  //    prepares — or a decision end, which must not close a decision
  //    whose participant commits died unsynced.
  // (Copying the three live files one after another would not be a crash
  // image: a decision could close between the copies.)
  for (int t = 0; t < kThreads; ++t) {
    while (acked[t].load() == 0 && stopped.load() == 0) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(stopped.load(), 0) << "a transfer failed before the crash";
  Rng rng(15);
  std::this_thread::sleep_for(
      std::chrono::microseconds(rng.UniformRange(0, 20000)));
  auto kill_shards = [&] {
    for (int s = 0; s < db.num_shards(); ++s) {
      db.shard(s).wal()->set_failpoint(WalFailpoint::kPreSync);
    }
  };
  if (shards_first) kill_shards();
  db.coordinator_log()->set_failpoint(WalFailpoint::kPreSync);
  if (!shards_first) kill_shards();
  for (std::thread& t : threads) t.join();

  // Dead logs hold exactly their durable prefix: copy the crash image.
  ShardedDbOptions ropt = opt;
  ropt.wal_dir = ShardedCrashImage(dir);
  Result<std::unique_ptr<ShardedDatabase>> r = ShardedDatabase::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::unique_ptr<ShardedDatabase> rec = std::move(r).value();
  (void)rec->RecoverInDoubt();
  for (int s = 0; s < rec->num_shards(); ++s) {
    EXPECT_TRUE(rec->shard(s).engine().InDoubtTransactions().empty())
        << "shard " << s;
  }

  for (int t = 0; t < kThreads; ++t) {
    int64_t vf = -1, vt = -1;
    ASSERT_TRUE(rec->Execute([&](ShardedTransaction& txn) -> Status {
                    auto rf = txn.GetScalar(from[t]);
                    if (!rf.ok()) return rf.status();
                    auto rt = txn.GetScalar(to[t]);
                    if (!rt.ok()) return rt.status();
                    vf = rf.value().AsInt();
                    vt = rt.value().AsInt();
                    return Status::OK();
                  }).ok());
    EXPECT_EQ(vf + vt, 2 * kStart) << "thread " << t << ": money conserved";
    // Every acked transfer survived; at most the one in flight when the
    // logs died may have reached a durable decision without its ack.
    EXPECT_GE(kStart - vf, acked[t].load()) << "thread " << t;
    EXPECT_LE(kStart - vf, acked[t].load() + 1) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashOrders, ShardedRecoveryGroupCommitTest,
    testing::Values(CrashOrder::kCoordinatorFirst, CrashOrder::kShardsFirst),
    [](const testing::TestParamInfo<CrashOrder>& info) {
      return info.param == CrashOrder::kShardsFirst ? "ShardsFirst"
                                                     : "CoordinatorFirst";
    });

// ---------------------------------------------------------------------------
// Coordinator decision-log lifecycle and API guards
// ---------------------------------------------------------------------------

struct DecisionRecords {
  uint64_t decisions = 0;
  uint64_t ends = 0;
};

// Counts the decision records a coordinator log file holds.
DecisionRecords CountDecisionRecords(const std::string& path) {
  DecisionRecords out;
  Result<WalReadResult> r = WalReader::ReadFile(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  for (const WalRecord& rec : r.value().records) {
    if (rec.type == WalRecordType::kDecision) ++out.decisions;
    if (rec.type == WalRecordType::kDecisionEnd) ++out.ends;
  }
  return out;
}

// Syncs a live coordinator log (buffered ends included), then counts.
DecisionRecords ReadDecisionRecords(CommitLog& log) {
  EXPECT_TRUE(log.SyncAll().ok());
  return CountDecisionRecords(log.path());
}

TEST(ShardedRecoveryTest, DecidedEntriesAreClosedInTheDecisionLog) {
  const std::string dir = TmpPath("decision_lifecycle");
  fs::remove_all(dir);
  ShardedDbOptions opt(2, IsolationLevel::kSerializable);
  opt.wal_dir = dir;
  ShardedDatabase db(opt);

  ItemId x, y;
  std::tie(x, y) = ItemPerShard(db, "it");
  ASSERT_TRUE(db.Load(x, Value(1)).ok());
  ASSERT_TRUE(db.Load(y, Value(1)).ok());
  auto transfer = [&](int64_t v) {
    return db.Execute([&](ShardedTransaction& t) -> Status {
      CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(v)));
      return t.Put(y, Value(v));
    });
  };
  ASSERT_TRUE(transfer(2).ok());

  // The commit is acked, but each participant's commit record is only
  // buffered: the entry must stay open while either is unsynced — a
  // durable end next to a lost participant commit would let presumed
  // abort roll back an acked transaction.
  ASSERT_NE(db.coordinator_log(), nullptr);
  EXPECT_EQ(db.coordinator().pending_ends(), 1u);
  DecisionRecords log = ReadDecisionRecords(*db.coordinator_log());
  EXPECT_EQ(log.decisions, 1u);
  EXPECT_EQ(log.ends, 0u) << "closed before any participant commit synced";

  ASSERT_TRUE(db.shard(0).wal()->SyncAll().ok());
  db.coordinator().CloseCoveredDecisions();
  EXPECT_EQ(ReadDecisionRecords(*db.coordinator_log()).ends, 0u)
      << "closed while shard 1's commit record was still unsynced";

  // Every participant log synced: the sweep closes the entry.
  ASSERT_TRUE(db.shard(1).wal()->SyncAll().ok());
  db.coordinator().CloseCoveredDecisions();
  EXPECT_EQ(db.coordinator().pending_ends(), 0u);
  log = ReadDecisionRecords(*db.coordinator_log());
  EXPECT_EQ(log.decisions, 1u);
  EXPECT_EQ(log.ends, 1u) << "a decision its participants cover is closed";

  // In steady state no explicit sweep is needed: the next round's
  // prepares sync both shard logs, and its own sweep closes the previous
  // round's entry while parking its own.
  ASSERT_TRUE(transfer(3).ok());
  ASSERT_TRUE(transfer(4).ok());
  EXPECT_EQ(db.coordinator().pending_ends(), 1u);
  log = ReadDecisionRecords(*db.coordinator_log());
  EXPECT_EQ(log.decisions, 3u);
  EXPECT_EQ(log.ends, 2u);
}

TEST(ShardedRecoveryTest, CleanShutdownClosesEveryDecision) {
  const std::string dir = TmpPath("clean_shutdown");
  fs::remove_all(dir);
  ShardedDbOptions opt(2, IsolationLevel::kSnapshotIsolation);
  opt.wal_dir = dir;
  ItemId x, y;
  {
    ShardedDatabase db(opt);
    std::tie(x, y) = ItemPerShard(db, "it");
    ASSERT_TRUE(db.Load(x, Value(50)).ok());
    ASSERT_TRUE(db.Load(y, Value(50)).ok());
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db.Execute([&](ShardedTransaction& t) -> Status {
                      CRITIQUE_RETURN_NOT_OK(t.Put(x, Value(50 - i)));
                      return t.Put(y, Value(50 + i));
                    }).ok());
    }
    EXPECT_GE(db.coordinator().pending_ends(), 1u);
  }  // clean shutdown

  const DecisionRecords log = CountDecisionRecords(dir + "/coordinator.wal");
  EXPECT_EQ(log.decisions, 5u);
  EXPECT_EQ(log.ends, log.decisions)
      << "a clean shutdown leaves no open decision";

  // And the restart agrees: nothing in doubt, every transfer applied.
  Result<std::unique_ptr<ShardedDatabase>> r = ShardedDatabase::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::unique_ptr<ShardedDatabase> rec = std::move(r).value();
  for (int s = 0; s < rec->num_shards(); ++s) {
    EXPECT_TRUE(rec->shard(s).engine().InDoubtTransactions().empty());
  }
  const ShardedDatabase::RecoveryReport rep = rec->RecoverInDoubt();
  EXPECT_EQ(rep.committed + rep.aborted, 0u);
  ASSERT_TRUE(rec->Execute([&](ShardedTransaction& t) -> Status {
                  auto rx = t.GetScalar(x);
                  if (!rx.ok()) return rx.status();
                  auto ry = t.GetScalar(y);
                  if (!ry.ok()) return ry.status();
                  EXPECT_EQ(rx.value().AsInt(), 45);
                  EXPECT_EQ(ry.value().AsInt(), 55);
                  return Status::OK();
                }).ok());
}

TEST(ShardedRecoveryTest, RecoverClosesDecisionsWhoseParticipantsReplayed) {
  const std::string dir = TmpPath("applied_decision");
  fs::remove_all(dir);
  ShardedDbOptions opt(2, IsolationLevel::kSerializable);
  opt.wal_dir = dir;
  ShardedDatabase db(opt);
  ItemId x, y;
  std::tie(x, y) = ItemPerShard(db, "it");
  ASSERT_TRUE(db.Load(x, Value(1)).ok());
  ASSERT_TRUE(db.Load(y, Value(1)).ok());
  TxnId gid = 0;
  {
    ShardedTransaction t = db.Begin();
    gid = t.id();
    ASSERT_TRUE(t.Put(x, Value(2)).ok());
    ASSERT_TRUE(t.Put(y, Value(2)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  // Both participants' commits reach their logs, but the crash hits
  // before any sweep appends the decision's end.
  for (int s = 0; s < db.num_shards(); ++s) {
    ASSERT_TRUE(db.shard(s).wal()->SyncAll().ok());
  }
  ShardedDbOptions ropt = opt;
  ropt.wal_dir = ShardedCrashImage(dir);
  ASSERT_EQ(CountDecisionRecords(ropt.wal_dir + "/coordinator.wal").ends, 0u);

  Result<std::unique_ptr<ShardedDatabase>> r = ShardedDatabase::Recover(ropt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::unique_ptr<ShardedDatabase> rec = std::move(r).value();
  EXPECT_FALSE(rec->coordinator().DecisionFor(gid).has_value())
      << "no participant is in doubt: the decision is already applied";
  const DecisionRecords log = ReadDecisionRecords(*rec->coordinator_log());
  EXPECT_EQ(log.decisions, 1u);
  EXPECT_EQ(log.ends, 1u) << "recovery closes the applied decision";
  const ShardedDatabase::RecoveryReport rep = rec->RecoverInDoubt();
  EXPECT_EQ(rep.committed + rep.aborted, 0u);
}

TEST(ShardedRecoveryTest, RecoverRequiresAWalLocation) {
  Result<Database> r = Database::Recover(DbOptions());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());

  Result<std::unique_ptr<ShardedDatabase>> rs =
      ShardedDatabase::Recover(ShardedDbOptions());
  EXPECT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsInvalidArgument());
}

}  // namespace
}  // namespace critique
