#ifndef CRITIQUE_WAL_RECOVERY_H_
#define CRITIQUE_WAL_RECOVERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/engine/engine.h"
#include "critique/wal/wal_record.h"

namespace critique {

/// What one WAL replay did (exposed through `Database::wal_recovery`).
struct WalRecoveryStats {
  uint64_t records = 0;             ///< intact records replayed over
  uint64_t loads_replayed = 0;      ///< bootstrap rows restored (kLoad)
  uint64_t committed_replayed = 0;  ///< transactions rolled forward
  /// Prepared-but-undecided transactions re-frozen in doubt, for
  /// `RecoverInDoubt` / presumed abort to resolve.
  uint64_t prepared_restored = 0;
  uint64_t aborted_discarded = 0;   ///< prepared txns with a logged abort
  /// Transactions with redo records but no terminal record: they died
  /// with the crash and presumed abort discards them.
  uint64_t begun_discarded = 0;
  bool torn_tail = false;           ///< the log ended mid-record
  uint64_t valid_bytes = 0;         ///< durable log prefix (kept)
  uint64_t dropped_bytes = 0;       ///< torn tail chopped before append
  TxnId max_txn = 0;                ///< highest id seen (id-allocator floor)

  std::string ToString() const;
};

/// Replays the intact prefix of a WAL into `engine` (fresh, quiescent, no
/// sink attached — replay must not re-log itself).
///
/// Single-threaded, in log order, through the normal engine API with the
/// original transaction ids: `kCommit` re-runs the transaction's redo
/// images and commits; `kPrepare` re-runs them and freezes the
/// participant in doubt (its locks / write-set reservations are re-taken,
/// so the in-doubt window keeps excluding conflicting writers exactly as
/// before the crash); a later `kCommit`/`kAbort` for a prepared
/// transaction resolves it through `CommitPrepared`/`AbortPrepared`.
/// Because the engines append `kCommit` inside the latched section that
/// orders publication, log order IS commit order, so sequential replay
/// can never hit a lock conflict or a First-Committer-Wins refusal — any
/// engine refusal during replay is log corruption and fails loudly.
Result<WalRecoveryStats> ReplayWal(Engine& engine, const WalReadResult& wal);

/// Rebuilds a coordinator's decision map from its decision log:
/// `kDecision` opens an entry, `kDecisionEnd` closes it (every
/// participant's commit record was durable — nothing left to recover).
/// Other record types are ignored.
std::map<TxnId, bool> ExtractCoordinatorDecisions(
    const std::vector<WalRecord>& records);

}  // namespace critique

#endif  // CRITIQUE_WAL_RECOVERY_H_
