#ifndef CRITIQUE_STORAGE_MV_STORE_H_
#define CRITIQUE_STORAGE_MV_STORE_H_

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "critique/common/clock.h"
#include "critique/history/action.h"
#include "critique/model/predicate.h"
#include "critique/model/row.h"

namespace critique {

/// \brief One version in an item's version chain.
struct Version {
  Row row;
  bool tombstone = false;          ///< a committed/pending delete
  TxnId creator = kInitialTxn;     ///< transaction that produced it
  Timestamp commit_ts = kInvalidTimestamp;  ///< 0 while uncommitted

  bool committed() const { return commit_ts != kInvalidTimestamp; }
};

/// \brief Multiversion storage in the style of Reed [REE]: each item keeps
/// a chain of versions; readers pick the version visible at their snapshot
/// timestamp, writers append uncommitted versions that commit or vanish
/// atomically with their transaction.  The one store every multiversion
/// engine (Snapshot Isolation / SSI, Oracle Read Consistency) runs on.
///
/// Contract (tests/storage_test.cc, tests/gc_test.cc and the randomized
/// reference-model check in tests/mv_store_model_test.cc check it):
///
///  * Visibility for a reader (txn `t`, snapshot `ts`): `t`'s own pending
///    version if present, else the committed version with the largest
///    commit_ts <= ts — "updates by other transactions active after the
///    transaction Start-Timestamp are invisible" (Section 4.2).  Commit
///    stamps need not arrive in append order: a chain may hold a later-
///    appended version with a smaller commit_ts, and every probe
///    (visibility, `LatestCommitTs`, GC) compares timestamps, never chain
///    positions.
///  * `Scan` returns matches in ascending key order.
///  * `GarbageCollect(watermark)` keeps, per item, the newest committed
///    version at or below the watermark, everything newer, and all
///    pending versions; a chain whose only survivor is a committed
///    tombstone at or below the watermark is dropped entirely.  A pass
///    asked to remember drops keeps each such tombstone's creator, so a
///    later read that finds the item absent can still name the version
///    it saw (`AbsentVersionCreator`).
///  * A pass costs O(queued chains), not O(items).  `Bootstrap` and
///    `CommitTxn` queue a chain as a GC candidate when it holds more than
///    one committed version or a committed tombstone, the only chains the
///    rule above can shrink; a pass visits just the queue and keeps a
///    chain queued while it can still shrink (one pinned by an open
///    snapshot, a tombstone above the watermark).  Invariant: a queued
///    chain always holds a committed version, so `AbortTxn`, which
///    removes only pending ones, never erases a queued chain and the
///    queue never dangles.
///  * `CommitTxn`/`AbortTxn` take the transaction's write set and cost
///    O(|write set|); an abort erases a chain it emptied, so aborted
///    inserts stop occupying the index.
///
/// Synchronization contract: the store is NOT internally synchronized;
/// engines serialize access (the stock engines hold a reader-writer
/// `store_mu_` — reads and scans shared, mutation and GC exclusive).
class MultiVersionStore {
 public:
  MultiVersionStore() = default;
  // The GC queue holds iterators into `chains_`; a copy would dangle.
  MultiVersionStore(const MultiVersionStore&) = delete;
  MultiVersionStore& operator=(const MultiVersionStore&) = delete;

  /// Installs an initial (commit_ts = 1 by convention of the owning
  /// engine) version; used for database setup.
  void Bootstrap(const ItemId& id, Row row, Timestamp ts);

  /// The row visible to `txn` at snapshot `ts` (nullopt when absent or
  /// deleted at that snapshot).
  std::optional<Row> Read(const ItemId& id, Timestamp ts, TxnId txn) const;

  /// The visible version itself, tombstones included (for engines that
  /// record version subscripts); nullopt when no version is visible.
  std::optional<Version> ReadVersionInfo(const ItemId& id, Timestamp ts,
                                         TxnId txn) const;

  /// Appends (or replaces) `txn`'s pending version of `id`.
  void Write(const ItemId& id, Row row, TxnId txn);

  /// Appends (or replaces) `txn`'s pending tombstone of `id`.
  void Delete(const ItemId& id, TxnId txn);

  /// True when `txn` has a pending version of `id`.
  bool HasPendingWrite(const ItemId& id, TxnId txn) const;

  /// True when some *other* transaction has a pending version of `id`
  /// (the eager write-write conflict probe).
  bool HasConcurrentPendingWrite(const ItemId& id, TxnId txn) const;

  /// Largest commit timestamp of any committed version of `id`
  /// (kInvalidTimestamp when none): the First-Committer-Wins probe —
  /// a conflict exists when this exceeds the writer's start timestamp.
  Timestamp LatestCommitTs(const ItemId& id) const;

  /// Stamps all of `txn`'s pending versions of `items` with `commit_ts`.
  void CommitTxn(TxnId txn, Timestamp commit_ts,
                 const std::set<ItemId>& items);

  /// Discards all of `txn`'s pending versions of `items`, erasing chains
  /// it emptied.
  void AbortTxn(TxnId txn, const std::set<ItemId>& items);

  /// Items (id, row) visible to (`txn`, `ts`) that satisfy `pred`,
  /// in key order.
  std::vector<std::pair<ItemId, Row>> Scan(const Predicate& pred,
                                           Timestamp ts, TxnId txn) const;

  /// Drops versions no longer visible to any snapshot >= `watermark`
  /// (see the class contract), visiting only the queued chains.  With
  /// `remember_drops`, the creator of each lone tombstone dropped with its
  /// chain is kept for `AbsentVersionCreator` (one entry per such item,
  /// so engines ask for it only while recording a history).  Returns the
  /// number of versions discarded.
  size_t GarbageCollect(Timestamp watermark, bool remember_drops = false);

  /// The version subscript for a read that finds no visible version of
  /// `id`: the creator of the last tombstone a remembering pass dropped
  /// with the item's chain (every snapshot at or above that pass's
  /// watermark saw that delete), else kInitialTxn, the initial state.
  TxnId AbsentVersionCreator(const ItemId& id) const;

  /// Chains queued for the next `GarbageCollect` (tests).
  size_t QueuedChainCount() const { return queued_.size(); }

  /// Total number of stored versions (across all items).
  size_t VersionCount() const;

  /// Length of the longest version chain (0 when empty) — the GC
  /// boundedness metric benches and tests assert on.
  size_t MaxChainLength() const;

  /// Number of distinct items with at least one version.
  size_t ItemCount() const { return chains_.size(); }

  /// The full chain for an item, oldest first (diagnostics/tests); empty
  /// when unknown.
  std::vector<Version> Chain(const ItemId& id) const;

 private:
  using VersionChain = std::vector<Version>;

  /// An item's versions plus its place on the GC queue.
  struct Entry {
    VersionChain versions;
    bool queued = false;  ///< in `queued_`
  };
  using Chains = std::map<ItemId, Entry>;

  /// The version of `chain` visible to (`txn`, `ts`), or null.
  static const Version* Visible(const VersionChain& chain, Timestamp ts,
                                TxnId txn);
  /// `Visible` on `id`'s chain; null when the item is unknown.
  const Version* Visible(const ItemId& id, Timestamp ts, TxnId txn) const;

  /// True when a GC pass could still shrink `chain`: it holds more than
  /// one committed version, or a committed tombstone.
  static bool CanShrink(const VersionChain& chain);
  /// Queues `it` for the next pass when it can shrink and is not queued.
  void MaybeQueue(Chains::iterator it);

  Chains chains_;
  /// GC candidates; `std::map` iterators stay valid until their erase,
  /// and a queued chain is erased only by `GarbageCollect` itself.
  std::vector<Chains::iterator> queued_;
  /// Item -> creator of its last remembered dropped tombstone.
  std::map<ItemId, TxnId> dropped_tombstones_;
};

}  // namespace critique

#endif  // CRITIQUE_STORAGE_MV_STORE_H_
