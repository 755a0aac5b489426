// Tests for the mechanical layer of the durability subsystem: the WAL
// record codec (every record type round-trips; corruption and torn tails
// shorten the readable prefix, never misparse), the file writer (buffered
// until sync — the crash model), and the `CommitLog` pipeline
// (single-commit vs group-commit sync accounting, and the failpoints the
// crash matrix is built from).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "critique/db/database.h"
#include "critique/wal/commit_log.h"
#include "critique/wal/wal_record.h"
#include "critique/wal/wal_writer.h"

namespace critique {
namespace {

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "critique_wal_" + name;
}

// A record of every type, with images covering every Value type, a
// tombstone, and a multi-column row.
std::vector<WalRecord> SampleRecords() {
  Row multi;
  multi.Set("balance", Value(int64_t{42}))
      .Set("rate", Value(2.5))
      .Set("active", Value(true))
      .Set("name", Value("ada"))
      .Set("note", Value());
  std::vector<WalWriteImage> images;
  images.push_back({"x", Row::Scalar(Value(7))});
  images.push_back({"y", std::nullopt});  // tombstone
  images.push_back({"z", multi});

  std::vector<WalRecord> recs;
  recs.push_back(WalRecord::Begin(3));
  recs.push_back(WalRecord::WriteSet(3, images));
  recs.push_back(WalRecord::Prepare(3));
  recs.push_back(WalRecord::Commit(3, 17));
  recs.push_back(WalRecord::Abort(4));
  recs.push_back(WalRecord::Decision(9, true));
  recs.push_back(WalRecord::DecisionEnd(9));
  recs.push_back(WalRecord::LoadRow("w", Row::Scalar(Value("boot"))));
  return recs;
}

void ExpectRecordEq(const WalRecord& want, const WalRecord& got,
                    const std::string& where) {
  EXPECT_EQ(want.type, got.type) << where;
  EXPECT_EQ(want.txn, got.txn) << where;
  EXPECT_EQ(want.commit_ts, got.commit_ts) << where;
  EXPECT_EQ(want.commit_decision, got.commit_decision) << where;
  ASSERT_EQ(want.images.size(), got.images.size()) << where;
  for (size_t i = 0; i < want.images.size(); ++i) {
    EXPECT_EQ(want.images[i].id, got.images[i].id) << where;
    ASSERT_EQ(want.images[i].row.has_value(), got.images[i].row.has_value())
        << where << " image " << i;
    if (want.images[i].row.has_value()) {
      EXPECT_EQ(*want.images[i].row, *got.images[i].row)
          << where << " image " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(WalTest, CodecRoundTripsEveryRecordType) {
  for (const WalRecord& rec : SampleRecords()) {
    const std::string payload = EncodeWalRecord(rec);
    Result<WalRecord> back = DecodeWalRecord(payload);
    ASSERT_TRUE(back.ok()) << WalRecordTypeName(rec.type) << ": "
                           << back.status().ToString();
    ExpectRecordEq(rec, back.value(), WalRecordTypeName(rec.type));
  }
}

TEST(WalTest, DecodeRejectsStructuralDefects) {
  const std::string payload = EncodeWalRecord(SampleRecords()[1]);  // writeset
  // Truncated payload.
  EXPECT_FALSE(DecodeWalRecord(payload.substr(0, payload.size() - 1)).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeWalRecord(payload + "!").ok());
  // Unknown record type.
  std::string bad = payload;
  bad[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeWalRecord(bad).ok());
  // Empty payload.
  EXPECT_FALSE(DecodeWalRecord("").ok());
}

// The format property test of the issue: a framed record sequence
// truncated at EVERY byte yields some intact prefix of the original
// records plus a detected torn tail — never a misparse, never a crash.
TEST(WalTest, TruncationAtEveryByteIsAPrefixNeverAMisparse) {
  const std::vector<WalRecord> recs = SampleRecords();
  std::string buf;
  std::vector<size_t> boundaries;  // buf size after each whole record
  for (const WalRecord& rec : recs) {
    FrameWalRecord(rec, &buf);
    boundaries.push_back(buf.size());
  }

  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const WalReadResult res = ReadWalBytes(buf.substr(0, cut));
    // The parsed records are exactly the whole records below the cut.
    size_t whole = 0;
    while (whole < boundaries.size() && boundaries[whole] <= cut) ++whole;
    ASSERT_EQ(res.records.size(), whole) << "cut at byte " << cut;
    for (size_t i = 0; i < whole; ++i) {
      ExpectRecordEq(recs[i], res.records[i],
                     "cut " + std::to_string(cut) + " record " +
                         std::to_string(i));
    }
    const size_t prefix_bytes = whole == 0 ? 0 : boundaries[whole - 1];
    EXPECT_EQ(res.valid_bytes, prefix_bytes) << "cut at byte " << cut;
    EXPECT_EQ(res.total_bytes, cut);
    // Torn tail iff the cut landed strictly inside a record.
    EXPECT_EQ(res.torn_tail, cut != prefix_bytes) << "cut at byte " << cut;
  }
}

// Corruption (a flipped byte, not truncation) also just shortens the
// prefix: the CRC refuses the damaged record and everything behind it.
TEST(WalTest, CorruptByteStopsTheReadablePrefix) {
  const std::vector<WalRecord> recs = SampleRecords();
  std::string buf;
  std::vector<size_t> boundaries;
  for (const WalRecord& rec : recs) {
    FrameWalRecord(rec, &buf);
    boundaries.push_back(buf.size());
  }
  // Flip a byte inside the third record's payload.
  std::string dam = buf;
  dam[boundaries[1] + 9] = static_cast<char>(dam[boundaries[1] + 9] ^ 0x40);
  const WalReadResult res = ReadWalBytes(dam);
  ASSERT_EQ(res.records.size(), 2u);
  ExpectRecordEq(recs[0], res.records[0], "after corruption");
  ExpectRecordEq(recs[1], res.records[1], "after corruption");
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.valid_bytes, boundaries[1]);
}

// ---------------------------------------------------------------------------
// File writer: buffered-until-sync is the crash model
// ---------------------------------------------------------------------------

TEST(WalTest, WriterRoundTripsThroughAFile) {
  const std::string path = TmpPath("writer_roundtrip.wal");
  const std::vector<WalRecord> recs = SampleRecords();
  {
    Result<WalWriter> w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    WalWriter writer = std::move(w).value();
    uint64_t lsn = 0;
    for (const WalRecord& rec : recs) lsn = writer.Append(rec);
    EXPECT_EQ(lsn, recs.size());
    EXPECT_EQ(writer.durable_lsn(), 0u);  // nothing synced yet
    ASSERT_TRUE(writer.Sync().ok());
    EXPECT_EQ(writer.durable_lsn(), recs.size());

    // One more append, never synced: it must die with the writer.
    writer.Append(WalRecord::Begin(99));
  }
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().records.size(), recs.size())
      << "the unsynced suffix must not reach the file";
  EXPECT_FALSE(back.value().torn_tail);
  for (size_t i = 0; i < recs.size(); ++i) {
    ExpectRecordEq(recs[i], back.value().records[i], "file round-trip");
  }
}

TEST(WalTest, ReaderTreatsAMissingFileAsAnEmptyLog) {
  Result<WalReadResult> r = WalReader::ReadFile(TmpPath("never_created.wal"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().records.empty());
  EXPECT_FALSE(r.value().torn_tail);
}

TEST(WalTest, OpenForAppendChopsTheTornTailAndAppendsBehindIt) {
  const std::string path = TmpPath("open_for_append.wal");
  const std::vector<WalRecord> recs = SampleRecords();
  {
    Result<WalWriter> w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok());
    WalWriter writer = std::move(w).value();
    for (const WalRecord& rec : recs) writer.Append(rec);
    ASSERT_TRUE(writer.Sync().ok());
  }
  {  // a torn half-record at the tail, as a crash mid-write would leave
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = {0x10, 0x00, 0x00, 0x00, 0x01};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  Result<WalReadResult> torn = WalReader::ReadFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn.value().torn_tail);
  ASSERT_EQ(torn.value().records.size(), recs.size());

  {
    Result<WalWriter> w = WalWriter::OpenForAppend(path, torn.value().valid_bytes);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    WalWriter writer = std::move(w).value();
    writer.Append(WalRecord::Commit(42, 5));
    ASSERT_TRUE(writer.Sync().ok());
  }
  Result<WalReadResult> fixed = WalReader::ReadFile(path);
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed.value().torn_tail);
  ASSERT_EQ(fixed.value().records.size(), recs.size() + 1);
  EXPECT_EQ(fixed.value().records.back().txn, 42);
}

// ---------------------------------------------------------------------------
// CommitLog: sync accounting
// ---------------------------------------------------------------------------

TEST(WalTest, SingleCommitModePaysOneSyncPerWait) {
  const std::string path = TmpPath("single_commit.wal");
  Result<WalWriter> w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  CommitLog log(std::move(w).value(), CommitLog::Options{});
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(log.AppendDurable(WalRecord::Commit(i, 0)).ok());
  }
  const GroupCommitStats s = log.stats();
  EXPECT_EQ(s.appends, 3u);
  EXPECT_EQ(s.syncs, 3u) << "no piggybacking in single-commit mode";
  EXPECT_EQ(s.batched, 0u);

  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().records.size(), 3u);
}

TEST(WalTest, GroupCommitOneSyncCoversEverythingAppendedBefore) {
  const std::string path = TmpPath("group_commit.wal");
  Result<WalWriter> w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  CommitLog::Options opt;
  opt.group_commit = true;
  CommitLog log(std::move(w).value(), opt);

  const uint64_t lsn1 = log.Append(WalRecord::Commit(1, 0));
  const uint64_t lsn2 = log.Append(WalRecord::Commit(2, 0));
  ASSERT_TRUE(log.WaitDurable(lsn2).ok());
  EXPECT_EQ(log.stats().syncs, 1u) << "one round covers both records";
  ASSERT_TRUE(log.WaitDurable(lsn1).ok());
  EXPECT_EQ(log.stats().syncs, 1u) << "already covered: no new sync";

  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().records.size(), 2u);
}

TEST(WalTest, GroupCommitManyThreadsAllDurableFewerSyncsThanAppends) {
  const std::string path = TmpPath("group_commit_mt.wal");
  Result<WalWriter> w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  CommitLog::Options opt;
  opt.group_commit = true;
  opt.fsync_mode = FsyncMode::kSimulated;  // make batching worth winning
  opt.fsync_latency = std::chrono::microseconds(200);
  CommitLog log(std::move(w).value(), opt);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(
            log.AppendDurable(WalRecord::Commit(t * 1000 + i, 0)).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const GroupCommitStats s = log.stats();
  EXPECT_EQ(s.appends, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(s.syncs, s.appends);
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().records.size(),
            static_cast<size_t>(kThreads * kPerThread))
      << "every acked commit is in the file";
}

// ---------------------------------------------------------------------------
// Failpoints: a tripped log is dead and the file keeps the synced prefix
// ---------------------------------------------------------------------------

TEST(WalTest, PreAppendFailpointLosesTheRecordAndKillsTheLog) {
  const std::string path = TmpPath("fp_pre_append.wal");
  Result<WalWriter> w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  {
    CommitLog log(std::move(w).value(), CommitLog::Options{});
    ASSERT_TRUE(log.AppendDurable(WalRecord::Commit(1, 0)).ok());

    log.set_failpoint(WalFailpoint::kPreAppend);
    EXPECT_EQ(log.Append(WalRecord::Commit(2, 0)), 0u);
    EXPECT_FALSE(log.WaitDurable(0).ok()) << "dead log must report failure";
    EXPECT_EQ(log.Append(WalRecord::Commit(3, 0)), 0u) << "dead is terminal";
  }  // destruction of a dead log must NOT flush anything
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().records.size(), 1u);
  EXPECT_EQ(back.value().records[0].txn, 1);
}

TEST(WalTest, PreSyncFailpointLosesTheUnsyncedSuffix) {
  const std::string path = TmpPath("fp_pre_sync.wal");
  Result<WalWriter> w = WalWriter::Create(path);
  ASSERT_TRUE(w.ok());
  {
    CommitLog log(std::move(w).value(), CommitLog::Options{});
    ASSERT_TRUE(log.AppendDurable(WalRecord::Commit(1, 0)).ok());

    log.set_failpoint(WalFailpoint::kPreSync);
    const uint64_t lsn = log.Append(WalRecord::Commit(2, 0));
    EXPECT_NE(lsn, 0u) << "the append itself buffers fine";
    EXPECT_FALSE(log.WaitDurable(lsn).ok())
        << "the sync dies before the device write";
  }
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().records.size(), 1u)
      << "the buffered-but-never-synced record must not be in the file";
  EXPECT_EQ(back.value().records[0].txn, 1);
}

// ---------------------------------------------------------------------------
// Real fsync mode
// ---------------------------------------------------------------------------

TEST(WalTest, RealFsyncModeRoundTripsThroughAFile) {
  // kFsync adds a real fdatasync(2) behind the flush.  The observable
  // contract is the same as kFlush (durable_lsn advances, records read
  // back) plus the syscall succeeding against a real file — which is
  // what this exercises; power-loss behavior is the device's problem.
  const std::string path = TmpPath("real_fsync.wal");
  const std::vector<WalRecord> recs = SampleRecords();
  {
    Result<WalWriter> w = WalWriter::Create(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    WalWriter writer = std::move(w).value();
    for (const WalRecord& rec : recs) writer.Append(rec);
    Status s = writer.Sync(FsyncMode::kFsync);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(writer.durable_lsn(), recs.size());
    // A second sync with nothing staged is a legal no-op barrier.
    ASSERT_TRUE(writer.Sync(FsyncMode::kFsync).ok());
  }
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().records.size(), recs.size());
  EXPECT_FALSE(back.value().torn_tail);
}

TEST(WalTest, RealFsyncModeSyncsTheDirectoryEntryToo) {
  // Power-loss honesty needs more than fdatasync of the file: a freshly
  // created log is only durable once its directory entry is.  Create and
  // OpenForAppend take the deployment's mode and fsync the parent
  // directory under kFsync; observable here is that both paths succeed
  // against a real directory and the log round-trips.
  const std::string path = TmpPath("dir_fsync.wal");
  const std::vector<WalRecord> recs = SampleRecords();
  {
    Result<WalWriter> w = WalWriter::Create(path, FsyncMode::kFsync);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    WalWriter writer = std::move(w).value();
    for (const WalRecord& rec : recs) writer.Append(rec);
    ASSERT_TRUE(writer.Sync(FsyncMode::kFsync).ok());
  }
  Result<WalReadResult> first = WalReader::ReadFile(path);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().records.size(), recs.size());

  // Reopen-for-append in kFsync mode pins the recovery truncation (the
  // whole intact file here) before anything lands behind it.
  {
    Result<WalWriter> w = WalWriter::OpenForAppend(
        path, first.value().valid_bytes, FsyncMode::kFsync);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    WalWriter writer = std::move(w).value();
    writer.Append(recs[0]);
    ASSERT_TRUE(writer.Sync(FsyncMode::kFsync).ok());
  }
  Result<WalReadResult> back = WalReader::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().records.size(), recs.size() + 1);
  EXPECT_FALSE(back.value().torn_tail);
}

TEST(WalTest, DatabaseWithRealFsyncCommitsAndRecovers) {
  DbOptions opt(IsolationLevel::kSerializable);
  opt.wal_path = TmpPath("db_real_fsync.wal");
  opt.fsync_mode = FsyncMode::kFsync;
  {
    Database db(opt);
    ASSERT_TRUE(db.Load("a", Value(1)).ok());
    ASSERT_TRUE(db.Execute([](Transaction& t) -> Status {
                    return t.Put("a", Value(2));
                  }).ok());
    ASSERT_TRUE(db.Execute([](Transaction& t) -> Status {
                    return t.Insert("b", Row::Scalar(Value(3)));
                  }).ok());
  }
  Result<std::unique_ptr<Database>> r = Database::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Database& rec = **r;
  EXPECT_TRUE(rec.recovered());
  EXPECT_EQ(rec.wal_recovery().committed_replayed, 2u);
  Transaction t = rec.Begin();
  Result<Value> a = t.GetScalar("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->AsInt(), 2);
  Result<Value> b = t.GetScalar("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->AsInt(), 3);
  ASSERT_TRUE(t.Commit().ok());
}

}  // namespace
}  // namespace critique
