#include "critique/workload/workload.h"

#include "critique/shard/sharded_database.h"

#include <set>

namespace critique {

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), zipf_(options.num_items, options.zipf_theta) {}

ItemId WorkloadGenerator::ItemName(uint64_t k) {
  return "i" + std::to_string(k);
}

template <typename DbT>
Status WorkloadGenerator::LoadInitial(DbT& db) const {
  for (uint64_t k = 0; k < options_.num_items; ++k) {
    CRITIQUE_RETURN_NOT_OK(
        db.Load(ItemName(k), Value(options_.initial_balance)));
  }
  return Status::OK();
}

template Status WorkloadGenerator::LoadInitial(Database&) const;
template Status WorkloadGenerator::LoadInitial(ShardedDatabase&) const;

template <typename DbT>
int64_t WorkloadGenerator::TotalBalance(DbT& db, uint64_t num_items) {
  auto txn = db.Begin();
  if (!txn.active()) return -1;
  int64_t sum = 0;
  for (uint64_t k = 0; k < num_items; ++k) {
    auto r = txn.Get(ItemName(k));
    if (!r.ok()) return -1;  // RAII rollback
    if (r->has_value()) {
      auto v = (*r)->scalar().AsNumeric();
      if (v.has_value()) sum += static_cast<int64_t>(*v);
    }
  }
  if (!txn.Commit().ok()) return -1;
  return sum;
}

template int64_t WorkloadGenerator::TotalBalance(Database&, uint64_t);
template int64_t WorkloadGenerator::TotalBalance(ShardedDatabase&, uint64_t);

Program WorkloadGenerator::MakeMixedTxn(Rng& rng) const {
  Program p;
  for (size_t op = 0; op < options_.ops_per_txn; ++op) {
    ItemId item = ItemName(zipf_.Next(rng));
    if (rng.Chance(options_.write_fraction)) {
      const std::string var = item + "#" + std::to_string(op);
      p.Read(item, var);
      p.WriteComputed(item, [var](const TxnLocals& l) {
        return Value(l.GetInt(var) + 1);
      });
    } else {
      p.Read(item);
    }
  }
  p.Commit();
  return p;
}

Program WorkloadGenerator::MakeReadOnlyTxn(Rng& rng, size_t ops) const {
  Program p;
  for (size_t op = 0; op < ops; ++op) {
    p.Read(ItemName(zipf_.Next(rng)));
  }
  p.Commit();
  return p;
}

Program WorkloadGenerator::MakeUpdateTxn(Rng& rng, size_t ops) const {
  Program p;
  std::set<uint64_t> keys;
  while (keys.size() < ops && keys.size() < options_.num_items) {
    keys.insert(zipf_.Next(rng));
  }
  size_t op = 0;
  for (uint64_t k : keys) {
    ItemId item = ItemName(k);
    const std::string var = item + "#" + std::to_string(op++);
    p.Read(item, var);
    p.WriteComputed(item, [var](const TxnLocals& l) {
      return Value(l.GetInt(var) + 1);
    });
  }
  p.Commit();
  return p;
}

Program WorkloadGenerator::MakeTransferTxn(Rng& rng, int64_t amount) const {
  uint64_t from = zipf_.Next(rng);
  uint64_t to = zipf_.Next(rng);
  if (options_.num_items > 1) {
    while (to == from) to = zipf_.Next(rng);
  }
  ItemId src = ItemName(from), dst = ItemName(to);
  Program p;
  p.Read(src, "src");
  p.WriteComputed(src, [amount](const TxnLocals& l) {
    return Value(l.GetInt("src") - amount);
  });
  p.Read(dst, "dst");
  p.WriteComputed(dst, [amount](const TxnLocals& l) {
    return Value(l.GetInt("dst") + amount);
  });
  p.Commit();
  return p;
}

namespace {

// Scalar payload of an item read, defaulting absent rows to 0.
Result<int64_t> ReadBalance(Transaction& txn, const ItemId& item) {
  CRITIQUE_ASSIGN_OR_RETURN(Value v, txn.GetScalar(item));
  auto n = v.AsNumeric();
  return n.has_value() ? static_cast<int64_t>(*n) : int64_t{0};
}

}  // namespace

Status WorkloadGenerator::ApplyMixedTxn(Transaction& txn, Rng& rng) const {
  for (size_t op = 0; op < options_.ops_per_txn; ++op) {
    ItemId item = ItemName(zipf_.Next(rng));
    if (rng.Chance(options_.write_fraction)) {
      CRITIQUE_ASSIGN_OR_RETURN(int64_t cur, ReadBalance(txn, item));
      CRITIQUE_RETURN_NOT_OK(txn.Put(item, Value(cur + 1)));
    } else {
      CRITIQUE_RETURN_NOT_OK(txn.Get(item).status());
    }
  }
  return Status::OK();
}

Status WorkloadGenerator::ApplyTransferTxn(Transaction& txn, Rng& rng,
                                           int64_t amount) const {
  uint64_t from = zipf_.Next(rng);
  uint64_t to = zipf_.Next(rng);
  if (options_.num_items > 1) {
    while (to == from) to = zipf_.Next(rng);
  }
  ItemId src = ItemName(from), dst = ItemName(to);
  CRITIQUE_ASSIGN_OR_RETURN(int64_t src_bal, ReadBalance(txn, src));
  CRITIQUE_RETURN_NOT_OK(txn.Put(src, Value(src_bal - amount)));
  CRITIQUE_ASSIGN_OR_RETURN(int64_t dst_bal, ReadBalance(txn, dst));
  CRITIQUE_RETURN_NOT_OK(txn.Put(dst, Value(dst_bal + amount)));
  return Status::OK();
}

Program WorkloadGenerator::MakeAuditTxn() const {
  Program p;
  const uint64_t n = options_.num_items;
  for (uint64_t k = 0; k < n; ++k) {
    p.Read(ItemName(k), "b" + std::to_string(k));
  }
  p.Custom(StepKind::kOperation, [n](StepContext& ctx) {
    int64_t sum = 0;
    for (uint64_t k = 0; k < n; ++k) {
      sum += ctx.locals.GetInt("b" + std::to_string(k));
    }
    ctx.locals.Set("sum", sum);
    return Status::OK();
  });
  p.Commit();
  return p;
}

Status WorkloadGenerator::ApplyShardedTransferTxn(ShardedTransaction& txn,
                                                  Rng& rng, int64_t amount,
                                                  double cross_shard_prob) const {
  const ShardRouter& router = txn.database().router();
  uint64_t from = zipf_.Next(rng);
  const int src_shard = router.ShardOf(ItemName(from));
  const bool want_cross =
      router.num_shards() > 1 && rng.Chance(cross_shard_prob);

  // Draw the destination until it lands on the wanted side of the shard
  // boundary.  Bounded redraws: hash placement may be lopsided for tiny
  // tables, and a transfer with an imperfect placement is still a valid
  // transfer — determinism and forward progress beat exact mix ratios.
  uint64_t to = zipf_.Next(rng);
  for (int draws = 0; draws < 64; ++draws) {
    const bool distinct = to != from || options_.num_items == 1;
    const bool is_cross = router.ShardOf(ItemName(to)) != src_shard;
    if (distinct && is_cross == want_cross) break;
    to = zipf_.Next(rng);
  }
  if (to == from && options_.num_items > 1) {
    to = (from + 1) % options_.num_items;
  }

  ItemId src = ItemName(from), dst = ItemName(to);
  CRITIQUE_ASSIGN_OR_RETURN(Value src_val, txn.GetScalar(src));
  const int64_t src_bal = src_val.is_null() ? 0 : src_val.AsInt();
  CRITIQUE_RETURN_NOT_OK(txn.Put(src, Value(src_bal - amount)));
  CRITIQUE_ASSIGN_OR_RETURN(Value dst_val, txn.GetScalar(dst));
  const int64_t dst_bal = dst_val.is_null() ? 0 : dst_val.AsInt();
  CRITIQUE_RETURN_NOT_OK(txn.Put(dst, Value(dst_bal + amount)));
  return Status::OK();
}

}  // namespace critique
