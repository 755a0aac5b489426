#include "critique/wal/recovery.h"

#include <algorithm>
#include <map>
#include <utility>

namespace critique {
namespace {

enum class ReplayPhase { kBegun, kPrepared, kCommitted, kAborted };

Status ApplyImages(Engine& engine, TxnId txn,
                   const std::vector<WalWriteImage>& images) {
  for (const WalWriteImage& img : images) {
    if (img.row.has_value()) {
      CRITIQUE_RETURN_NOT_OK(engine.Write(txn, img.id, *img.row));
    } else {
      Status s = engine.Delete(txn, img.id);
      // A tombstone over an item the snapshot can't see (insert + delete
      // inside one transaction): the net effect is already "absent".
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

Status ReplayError(const WalRecord& rec, const Status& s) {
  return Status::Internal(
      "wal replay: engine refused " + std::string(WalRecordTypeName(rec.type)) +
      " for txn " + std::to_string(rec.txn) + ": " + s.ToString() +
      " (a refusal during sequential replay means the log is inconsistent)");
}

}  // namespace

std::string WalRecoveryStats::ToString() const {
  return "records=" + std::to_string(records) +
         " loads_replayed=" + std::to_string(loads_replayed) +
         " committed_replayed=" + std::to_string(committed_replayed) +
         " prepared_restored=" + std::to_string(prepared_restored) +
         " aborted_discarded=" + std::to_string(aborted_discarded) +
         " begun_discarded=" + std::to_string(begun_discarded) +
         " torn_tail=" + std::string(torn_tail ? "true" : "false") +
         " valid_bytes=" + std::to_string(valid_bytes) +
         " dropped_bytes=" + std::to_string(dropped_bytes) +
         " max_txn=" + std::to_string(max_txn);
}

Result<WalRecoveryStats> ReplayWal(Engine& engine, const WalReadResult& wal,
                                   WalVotes* votes) {
  WalRecoveryStats stats;
  stats.records = wal.records.size();
  stats.torn_tail = wal.torn_tail;
  stats.valid_bytes = wal.valid_bytes;
  stats.dropped_bytes = wal.total_bytes - wal.valid_bytes;

  // Redo images accumulate per transaction until its terminal record; a
  // later kWriteSet supersedes an earlier one (the slim-commit protocol
  // only ever writes one, but the format allows re-logging).
  std::map<TxnId, std::vector<WalWriteImage>> images;
  std::map<TxnId, ReplayPhase> phase;

  for (const WalRecord& rec : wal.records) {
    if (rec.txn > stats.max_txn) stats.max_txn = rec.txn;
    switch (rec.type) {
      case WalRecordType::kBegin:
        phase.emplace(rec.txn, ReplayPhase::kBegun);
        break;
      case WalRecordType::kWriteSet:
        images[rec.txn] = rec.images;
        phase.emplace(rec.txn, ReplayPhase::kBegun);
        break;
      case WalRecordType::kPrepare: {
        CRITIQUE_RETURN_NOT_OK(engine.Begin(rec.txn));
        auto it = images.find(rec.txn);
        if (it != images.end()) {
          CRITIQUE_RETURN_NOT_OK(ApplyImages(engine, rec.txn, it->second));
          images.erase(it);
        }
        // Replay runs with no log attached: there is no vote to await.
        Result<std::optional<uint64_t>> vote = engine.Prepare(rec.txn);
        if (!vote.ok()) return ReplayError(rec, vote.status());
        phase[rec.txn] = ReplayPhase::kPrepared;
        ++stats.prepared_restored;
        if (votes != nullptr) votes->prepared.push_back(rec.txn);
        break;
      }
      case WalRecordType::kCommit: {
        auto ph = phase.find(rec.txn);
        if (ph != phase.end() && ph->second == ReplayPhase::kPrepared) {
          // The decision arrived (from the coordinator, or a previous
          // recovery's RecoverInDoubt appended it): roll forward.
          Status s = engine.CommitPrepared(rec.txn);
          if (!s.ok()) return ReplayError(rec, s);
          --stats.prepared_restored;
        } else {
          CRITIQUE_RETURN_NOT_OK(engine.Begin(rec.txn));
          auto it = images.find(rec.txn);
          if (it != images.end()) {
            CRITIQUE_RETURN_NOT_OK(ApplyImages(engine, rec.txn, it->second));
            images.erase(it);
          }
          Status s = engine.Commit(rec.txn);
          if (!s.ok()) return ReplayError(rec, s);
        }
        phase[rec.txn] = ReplayPhase::kCommitted;
        ++stats.committed_replayed;
        break;
      }
      case WalRecordType::kAbort: {
        auto ph = phase.find(rec.txn);
        if (ph != phase.end() && ph->second == ReplayPhase::kPrepared) {
          Status s = engine.AbortPrepared(rec.txn);
          if (!s.ok()) return ReplayError(rec, s);
          --stats.prepared_restored;
          ++stats.aborted_discarded;
          if (votes != nullptr) votes->aborted.push_back(rec.txn);
        }
        // Not prepared: presumed abort already covers it — the images
        // are simply dropped.
        images.erase(rec.txn);
        phase[rec.txn] = ReplayPhase::kAborted;
        break;
      }
      case WalRecordType::kLoad:
        // Bootstrap rows go straight back through the bootstrap path —
        // no transaction, no history entry, exactly like the original
        // Load calls.
        for (const WalWriteImage& img : rec.images) {
          if (!img.row.has_value()) continue;  // loads never delete
          Status s = engine.Load(img.id, *img.row);
          if (!s.ok()) return ReplayError(rec, s);
          ++stats.loads_replayed;
        }
        break;
      case WalRecordType::kDecision:
        // A coordinator-log record; inert in an engine replay.
        break;
    }
  }
  if (votes != nullptr) {
    std::sort(votes->prepared.begin(), votes->prepared.end());
    std::sort(votes->aborted.begin(), votes->aborted.end());
  }

  for (const auto& [txn, ph] : phase) {
    (void)txn;
    if (ph == ReplayPhase::kBegun) ++stats.begun_discarded;
  }
  return stats;
}

std::set<TxnId> CommittedInDoubt(const std::vector<WalRecord>& coordinator,
                                 const std::vector<WalVotes>& votes,
                                 const std::set<TxnId>& in_doubt) {
  auto holds = [](const std::vector<TxnId>& ids, TxnId gid) {
    return std::binary_search(ids.begin(), ids.end(), gid);
  };
  std::set<TxnId> committed;
  for (const WalRecord& rec : coordinator) {
    if (rec.type != WalRecordType::kDecision || in_doubt.count(rec.txn) == 0) {
      continue;
    }
    const bool commit = std::all_of(
        rec.participants.begin(), rec.participants.end(), [&](uint32_t s) {
          return s < votes.size() && holds(votes[s].prepared, rec.txn) &&
                 !holds(votes[s].aborted, rec.txn);
        });
    if (commit) committed.insert(rec.txn);
  }
  return committed;
}

}  // namespace critique
