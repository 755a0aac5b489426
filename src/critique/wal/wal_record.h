#ifndef CRITIQUE_WAL_WAL_RECORD_H_
#define CRITIQUE_WAL_WAL_RECORD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "critique/common/clock.h"
#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/history/action.h"
#include "critique/model/row.h"

namespace critique {

/// The redo-record catalog of the write-ahead log (docs/architecture.md,
/// "Durability").  The log is redo-only: engines keep their undo in
/// memory, so recovery replays committed effects forward and never needs
/// before-images.  Presumed abort makes explicit abort records optional —
/// a transaction whose terminal record is missing simply never happened.
enum class WalRecordType : uint8_t {
  /// A transaction began.  Informational (recovery derives liveness from
  /// terminal records), kept because it makes the log self-describing and
  /// lets recovery advance the id allocator past ids that never reached a
  /// terminal.
  kBegin = 1,
  /// The transaction's redo images: one after-image per written item
  /// (nullopt = tombstone).  Written at `Prepare` (so the vote is durable
  /// with its effects) or immediately before `kCommit`.  A later
  /// `kWriteSet` for the same transaction supersedes an earlier one.
  kWriteSet = 2,
  /// 2PC phase 1: the participant validated and froze in doubt.  Always
  /// preceded by its `kWriteSet` and made durable before the engine
  /// answers the coordinator OK — the vote must survive a crash.
  kPrepare = 3,
  /// The transaction committed at `commit_ts` (kInvalidTimestamp for
  /// single-version engines, which have no commit clock; replay order is
  /// log order either way).  Appended inside the engine section that
  /// publishes the versions, so log order agrees with commit order.
  kCommit = 4,
  /// A *prepared* participant took the abort decision.  Never written for
  /// plain aborts: presumed abort already covers every transaction
  /// without a terminal record.
  kAbort = 5,
  /// Coordinator log only: global transaction `txn` reached phase 1 with
  /// every participant voting yes; `participants` names their shards.
  /// Appended before the votes are awaited and made durable in the same
  /// overlapped round.  It is not a decision by itself: `txn` committed iff
  /// this record and every named shard's `kPrepare` are durable and no
  /// named shard's log holds its `kAbort` (the parallel-commit rule).
  kDecision = 6,
  // 7 was the retired decision-end record: never written, refused on read.
  /// A bootstrap `Load` (outside any transaction; `txn` is 0 and
  /// meaningless).  A redo-only log must carry the loaded base rows too,
  /// or recovery would rebuild a database missing every row no
  /// transaction ever rewrote; replay feeds these straight back through
  /// `Engine::Load`.
  kLoad = 8,
};

const char* WalRecordTypeName(WalRecordType t);

/// One redo image: the committed after-state of `id` (nullopt = deleted).
struct WalWriteImage {
  ItemId id;
  std::optional<Row> row;
};

/// Flattens the per-transaction redo map the engines collect (last write
/// per item wins, which the map already enforces) into kWriteSet images.
std::vector<WalWriteImage> WalImagesFromMap(
    const std::map<ItemId, std::optional<Row>>& redo);

/// One log record.  Which fields are meaningful depends on `type`; the
/// rest stay at their defaults and are not serialized.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  TxnId txn = 0;
  Timestamp commit_ts = kInvalidTimestamp;  ///< kCommit only
  std::vector<WalWriteImage> images;        ///< kWriteSet / kLoad only
  std::vector<uint32_t> participants;       ///< kDecision only: shard ids

  static WalRecord Begin(TxnId txn) {
    return Make(WalRecordType::kBegin, txn);
  }
  static WalRecord WriteSet(TxnId txn, std::vector<WalWriteImage> images) {
    WalRecord r = Make(WalRecordType::kWriteSet, txn);
    r.images = std::move(images);
    return r;
  }
  static WalRecord Prepare(TxnId txn) {
    return Make(WalRecordType::kPrepare, txn);
  }
  static WalRecord Commit(TxnId txn, Timestamp ts) {
    WalRecord r = Make(WalRecordType::kCommit, txn);
    r.commit_ts = ts;
    return r;
  }
  static WalRecord Abort(TxnId txn) {
    return Make(WalRecordType::kAbort, txn);
  }
  static WalRecord Decision(TxnId gid, std::vector<uint32_t> participants) {
    WalRecord r = Make(WalRecordType::kDecision, gid);
    r.participants = std::move(participants);
    return r;
  }
  static WalRecord LoadRow(ItemId id, Row row) {
    WalRecord r = Make(WalRecordType::kLoad, 0);
    r.images.push_back({std::move(id), std::move(row)});
    return r;
  }

 private:
  static WalRecord Make(WalRecordType type, TxnId txn) {
    WalRecord r;
    r.type = type;
    r.txn = txn;
    return r;
  }
};

/// CRC-32 (IEEE 802.3, reflected) over `data` — the per-record checksum
/// of the on-disk framing.
uint32_t WalCrc32(const void* data, size_t len);

/// Serializes one record payload (no framing).
std::string EncodeWalRecord(const WalRecord& rec);

/// Parses one record payload.  InvalidArgument on any structural defect
/// (unknown type, short payload, trailing bytes) — readers treat that as
/// log corruption.
Result<WalRecord> DecodeWalRecord(const std::string& payload);

/// Appends `rec` to `out` with the on-disk framing:
/// [u32 payload length][u32 CRC-32 of payload][payload].
void FrameWalRecord(const WalRecord& rec, std::string* out);

/// What `ReadWalBytes` / `WalReader` found.
struct WalReadResult {
  std::vector<WalRecord> records;  ///< the valid prefix, in log order
  /// True when the log ends mid-record (torn tail: a crash landed between
  /// a buffered append and its sync, or truncated the final sync).  The
  /// valid prefix is still authoritative — exactly the durable state.
  bool torn_tail = false;
  uint64_t valid_bytes = 0;    ///< bytes of intact framed records
  uint64_t total_bytes = 0;    ///< bytes examined (file size)
};

/// Parses a byte buffer of framed records, stopping at the first torn or
/// corrupt record.  Never fails: corruption only shortens the prefix.
WalReadResult ReadWalBytes(const std::string& bytes);

}  // namespace critique

#endif  // CRITIQUE_WAL_WAL_RECORD_H_
