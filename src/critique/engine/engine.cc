#include "critique/engine/engine.h"

#include <ostream>

namespace critique {

std::string EngineStats::ToString() const {
  return "reads=" + std::to_string(reads) +
         " predicate_reads=" + std::to_string(predicate_reads) +
         " writes=" + std::to_string(writes) +
         " commits=" + std::to_string(commits) +
         " aborts=" + std::to_string(aborts) +
         " deadlock_aborts=" + std::to_string(deadlock_aborts) +
         " serialization_aborts=" + std::to_string(serialization_aborts) +
         " (fcw=" + std::to_string(fcw_aborts) +
         " ssi=" + std::to_string(ssi_aborts) +
         " in_doubt=" + std::to_string(in_doubt_aborts) + ")" +
         " blocked_ops=" + std::to_string(blocked_ops);
}

EngineStats& EngineStats::operator+=(const EngineStats& o) {
  reads += o.reads;
  predicate_reads += o.predicate_reads;
  writes += o.writes;
  commits += o.commits;
  aborts += o.aborts;
  deadlock_aborts += o.deadlock_aborts;
  serialization_aborts += o.serialization_aborts;
  blocked_ops += o.blocked_ops;
  fcw_aborts += o.fcw_aborts;
  ssi_aborts += o.ssi_aborts;
  in_doubt_aborts += o.in_doubt_aborts;
  return *this;
}

std::ostream& operator<<(std::ostream& os, const EngineStats& stats) {
  return os << stats.ToString();
}

void Engine::RegisterMetrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) {
  // Field-by-field gauges over the recorder's stats snapshot: collect is
  // cold-path, so taking the recorder mutex once per field is fine.
  auto field = [this, &reg, &prefix](const char* name,
                                     uint64_t EngineStats::*member) {
    reg.RegisterGauge(prefix + name,
                      [this, member] { return StatsSnapshot().*member; });
  };
  field("reads", &EngineStats::reads);
  field("predicate_reads", &EngineStats::predicate_reads);
  field("writes", &EngineStats::writes);
  field("commits", &EngineStats::commits);
  field("aborts", &EngineStats::aborts);
  field("deadlock_aborts", &EngineStats::deadlock_aborts);
  field("serialization_aborts", &EngineStats::serialization_aborts);
  field("fcw_aborts", &EngineStats::fcw_aborts);
  field("ssi_aborts", &EngineStats::ssi_aborts);
  field("in_doubt_aborts", &EngineStats::in_doubt_aborts);
  field("blocked_ops", &EngineStats::blocked_ops);
}

Status Engine::Update(
    TxnId txn, const ItemId& id,
    const std::function<Row(const std::optional<Row>&)>& transform) {
  CRITIQUE_ASSIGN_OR_RETURN(std::optional<Row> current, Read(txn, id));
  return Write(txn, id, transform(current));
}

Result<size_t> Engine::UpdateWhere(
    TxnId txn, const std::string& name, const Predicate& pred,
    const std::function<Row(const Row&)>& transform) {
  CRITIQUE_ASSIGN_OR_RETURN(auto rows, ReadPredicate(txn, name, pred));
  for (const auto& [id, row] : rows) {
    CRITIQUE_RETURN_NOT_OK(Write(txn, id, transform(row)));
  }
  return rows.size();
}

Result<size_t> Engine::DeleteWhere(TxnId txn, const std::string& name,
                                   const Predicate& pred) {
  CRITIQUE_ASSIGN_OR_RETURN(auto rows, ReadPredicate(txn, name, pred));
  for (const auto& [id, row] : rows) {
    (void)row;
    CRITIQUE_RETURN_NOT_OK(Delete(txn, id));
  }
  return rows.size();
}

}  // namespace critique
