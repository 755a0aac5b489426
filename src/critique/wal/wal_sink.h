#ifndef CRITIQUE_WAL_WAL_SINK_H_
#define CRITIQUE_WAL_WAL_SINK_H_

#include <cstdint>

#include "critique/common/status.h"
#include "critique/wal/wal_record.h"

namespace critique {

/// \brief The durability sink engines emit redo records into.
///
/// Two-step protocol, so latched engine sections stay cheap:
///
///  1. `Append` buffers the record and returns its LSN — called *inside*
///     the engine section that publishes the commit, so log order agrees
///     with commit order;
///  2. `WaitDurable(lsn)` blocks until the record is on the log device —
///     called *after* every engine latch is released, so the fsync wait
///     never serializes other sessions' commits.
///
/// A 2PC vote splits the steps across layers: `Engine::Prepare` appends
/// the vote and reports its LSN, and the caller runs step 2 —
/// `Transaction::Prepare` for one participant, or the coordinator for all
/// of them and its own `kDecision` at once (`CommitLog::WaitDurableAll`,
/// whose device rounds overlap), before any participant counts as
/// prepared.
///
/// One commit skips step 2: a prepared 2PC participant's slim `kCommit`
/// (`Engine::CommitPrepared`) is appended but never awaited, because the
/// global commit point is already durable — every vote plus the
/// coordinator's `kDecision`, which joins the votes' overlapped round — so
/// a lost participant record is re-derived from those by recovery.
///
/// `Append` returning 0 means the log has died (a crash failpoint); the
/// matching `WaitDurable(0)` reports the failure.  Thread-safe.
class WalSink {
 public:
  virtual ~WalSink() = default;

  /// Buffers `rec`; returns its LSN (1-based), or 0 when the log is dead.
  virtual uint64_t Append(const WalRecord& rec) = 0;

  /// Blocks until every record at or below `lsn` is durable.  `lsn` 0
  /// (a dead-log append) answers the log's terminal status.
  virtual Status WaitDurable(uint64_t lsn) = 0;
};

}  // namespace critique

#endif  // CRITIQUE_WAL_WAL_SINK_H_
