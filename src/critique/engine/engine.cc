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

EngineStats EngineCounters::Snapshot() const {
  EngineStats s;
  s.reads = reads.Value();
  s.predicate_reads = predicate_reads.Value();
  s.writes = writes.Value();
  s.commits = commits.Value();
  s.aborts = aborts.Value();
  s.deadlock_aborts = deadlock_aborts.Value();
  s.serialization_aborts = serialization_aborts.Value();
  s.blocked_ops = blocked_ops.Value();
  s.fcw_aborts = fcw_aborts.Value();
  s.ssi_aborts = ssi_aborts.Value();
  s.in_doubt_aborts = in_doubt_aborts.Value();
  return s;
}

std::ostream& operator<<(std::ostream& os, const EngineStats& stats) {
  return os << stats.ToString();
}

void Engine::RegisterMetrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) {
  // One gauge per counter: collect is cold-path, and each gauge sums only
  // its own counter's shards.
  auto field = [this, &reg, &prefix](const char* name,
                                     EngineRecorder::CounterField member) {
    reg.RegisterGauge(prefix + name, [this, member] {
      return (recorder_.counters().*member).Value();
    });
  };
  field("reads", &EngineCounters::reads);
  field("predicate_reads", &EngineCounters::predicate_reads);
  field("writes", &EngineCounters::writes);
  field("commits", &EngineCounters::commits);
  field("aborts", &EngineCounters::aborts);
  field("deadlock_aborts", &EngineCounters::deadlock_aborts);
  field("serialization_aborts", &EngineCounters::serialization_aborts);
  field("fcw_aborts", &EngineCounters::fcw_aborts);
  field("ssi_aborts", &EngineCounters::ssi_aborts);
  field("in_doubt_aborts", &EngineCounters::in_doubt_aborts);
  field("blocked_ops", &EngineCounters::blocked_ops);
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
