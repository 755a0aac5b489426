#ifndef CRITIQUE_WAL_WAL_SINK_H_
#define CRITIQUE_WAL_WAL_SINK_H_

#include <cstdint>

#include "critique/common/status.h"
#include "critique/wal/wal_record.h"

namespace critique {

/// \brief The durability sink engines (and the 2PC coordinator) emit redo
/// records into.
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
/// One commit skips step 2: a prepared 2PC participant's slim `kCommit`
/// (`Engine::CommitPrepared`) is appended but never awaited, because the
/// coordinator's durable `kDecision` is the commit point — a lost
/// participant record is re-derived from the decision by recovery.  The
/// coordinator in turn appends `kDecisionEnd` only once every
/// participant's log has synced past that `kCommit`.
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

  /// Append + WaitDurable in one call (coordinator decisions).
  Status AppendDurable(const WalRecord& rec) {
    return WaitDurable(Append(rec));
  }
};

}  // namespace critique

#endif  // CRITIQUE_WAL_WAL_SINK_H_
