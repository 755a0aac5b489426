#ifndef CRITIQUE_WORKLOAD_WORKLOAD_H_
#define CRITIQUE_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "critique/common/random.h"
#include "critique/db/database.h"
#include "critique/exec/program.h"
#include "critique/workload/zipf.h"

namespace critique {

// The sharded bodies only take references; keep workload.h free of the
// shard layer's headers (workload.cc includes them).
class ShardedDatabase;
class ShardedTransaction;

/// Parameters of the synthetic transaction mixes used by the benchmark
/// harness for the Section 4.2 performance claims (readers never block /
/// are never blocked under SI; long update transactions starve under
/// First-Committer-Wins).
struct WorkloadOptions {
  uint64_t num_items = 64;        ///< database size (items i0..i{n-1})
  double zipf_theta = 0.0;        ///< key skew; 0 = uniform
  size_t ops_per_txn = 4;         ///< reads+writes per transaction
  double write_fraction = 0.5;    ///< probability an op is a write
  int64_t initial_balance = 100;  ///< initial scalar per item
};

/// \brief Deterministic generator of transaction `Program`s over a scalar
/// item table.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadOptions options);

  const WorkloadOptions& options() const { return options_; }

  /// Item id for index `k` ("i0", "i1", ...).
  static ItemId ItemName(uint64_t k);

  /// Loads the initial table into `db` — a `Database`, or a
  /// `ShardedDatabase`, which routes each row to its shard.
  template <typename DbT>
  Status LoadInitial(DbT& db) const;

  /// Sum of all committed balances via a fresh (auto-id) transaction on
  /// `db` — a `Database` or a `ShardedDatabase`; -1 on failure.
  template <typename DbT>
  static int64_t TotalBalance(DbT& db, uint64_t num_items);

  /// A read-write transaction: `ops_per_txn` operations over
  /// Zipf-distributed keys; writes are read-modify-write increments.
  Program MakeMixedTxn(Rng& rng) const;

  /// A read-only transaction touching `ops` random items.
  Program MakeReadOnlyTxn(Rng& rng, size_t ops) const;

  /// An update transaction that touches `ops` distinct items, used for the
  /// long-vs-short contention experiments.
  Program MakeUpdateTxn(Rng& rng, size_t ops) const;

  /// A bank-transfer transaction (H1's shape): moves `amount` between two
  /// distinct random items, preserving the global sum invariant.
  Program MakeTransferTxn(Rng& rng, int64_t amount) const;

  // --- closure-style bodies (Database::Execute / ParallelDriver) ------------
  //
  // The same transaction shapes as the Program builders above, expressed
  // as `Execute` bodies so threaded drivers can run them: same Zipf key
  // choice, same read / read-modify-write mix, deterministic in the
  // caller's Rng.

  /// Runs one mixed transaction's operations inside `txn` (no commit; the
  /// caller — typically `Database::Execute` — owns the terminal).
  Status ApplyMixedTxn(Transaction& txn, Rng& rng) const;

  /// Runs one balance-preserving transfer of `amount` between two distinct
  /// random items inside `txn` (no commit).
  Status ApplyTransferTxn(Transaction& txn, Rng& rng, int64_t amount) const;

  // --- sharded counterparts -------------------------------------------------

  /// Runs one balance-preserving transfer inside a sharded transaction:
  /// with probability `cross_shard_prob` the two accounts are *forced*
  /// onto different shards (the transaction commits through 2PC),
  /// otherwise onto the same shard (single-shard fast path) — the knob
  /// the sharding benches sweep.  Falls back gracefully when the facade
  /// has a single shard.
  Status ApplyShardedTransferTxn(ShardedTransaction& txn, Rng& rng,
                                 int64_t amount,
                                 double cross_shard_prob) const;

  /// An audit transaction reading every item (the invariant check of the
  /// inconsistent-analysis experiments); stores the sum under "sum".
  Program MakeAuditTxn() const;

 private:
  WorkloadOptions options_;
  ZipfGenerator zipf_;
};

}  // namespace critique

#endif  // CRITIQUE_WORKLOAD_WORKLOAD_H_
