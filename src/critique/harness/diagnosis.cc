#include "critique/harness/diagnosis.h"

#include "critique/analysis/mv_analysis.h"
#include "critique/engine/engine_factory.h"

namespace critique {

Result<VariantOutcome> RunVariantOn(const EngineFactory& factory,
                                    const ScenarioVariant& variant) {
  if (!factory) return Status::InvalidArgument("null engine factory");
  std::unique_ptr<Engine> engine = factory();
  if (engine == nullptr) {
    return Status::InvalidArgument("factory returned null");
  }
  DbOptions options;
  // The runner's schedule decides when blocked steps are retried; the
  // database must not second-guess it.
  options.retry_policy = std::make_shared<NoRetryPolicy>();
  options.record_history = true;  // the verdicts judge the history
  Database db(std::move(engine), std::move(options));
  CRITIQUE_RETURN_NOT_OK(variant.load(db));
  Runner runner(db);
  variant.add_programs(runner);
  CRITIQUE_ASSIGN_OR_RETURN(RunResult run, runner.Run(variant.schedule));

  VariantOutcome out;
  out.history = run.history;
  for (const auto& [t, o] : run.outcomes) {
    (void)t;
    if (o == TxnOutcome::kAbortedDeadlockVictim ||
        o == TxnOutcome::kAbortedSerialization) {
      out.any_abort = true;
    }
  }
  out.any_block = run.blocked_retries > 0;
  switch (db.level()) {
    case IsolationLevel::kSnapshotIsolation:
    case IsolationLevel::kSerializableSI:
      out.analyzed = MapSnapshotHistoryToSingleVersion(run.history);
      break;
    case IsolationLevel::kOracleReadConsistency:
      out.analyzed = MapStatementSnapshotHistoryToSingleVersion(run.history);
      break;
    default:
      out.analyzed = run.history;
  }
  out.detected = ExhibitedPhenomena(out.analyzed);
  out.anomaly = variant.anomaly(run, db);
  return out;
}

Result<CellValue> EvaluateCellOn(const EngineFactory& factory,
                                 const AnomalyScenario& scenario) {
  size_t anomalous = 0;
  for (const auto& variant : scenario.variants) {
    CRITIQUE_ASSIGN_OR_RETURN(VariantOutcome out,
                              RunVariantOn(factory, variant));
    anomalous += out.anomaly ? 1 : 0;
  }
  if (anomalous == 0) return CellValue::kNotPossible;
  if (anomalous == scenario.variants.size()) return CellValue::kPossible;
  return CellValue::kSometimesPossible;
}

namespace {

// The published row for a known level, from the paper or the extended
// expectations.
const AnomalyMatrix& ExpectedMatrixFor(IsolationLevel level) {
  for (IsolationLevel l : PaperTable4().levels()) {
    if (l == level) return PaperTable4();
  }
  return ExtendedExpectations();
}

}  // namespace

std::string Diagnosis::ToString() const {
  std::string out = "measured row:\n";
  for (const auto& [p, cell] : row) {
    out += "  " + std::string(PhenomenonName(p)) + ": " + CellName(cell) +
           "\n";
  }
  if (!exact_matches.empty()) {
    out += "exact match:";
    for (IsolationLevel l : exact_matches) {
      out += " " + IsolationLevelName(l) + ";";
    }
    out += "\n";
  } else if (closest.has_value()) {
    out += "no exact match; closest: " + IsolationLevelName(*closest) +
           " (" + std::to_string(closest_distance) + " differing cells)\n";
  }
  return out;
}

Result<Diagnosis> DiagnoseEngine(const EngineFactory& factory) {
  Diagnosis d;
  for (const AnomalyScenario& scenario : Table4Scenarios()) {
    CRITIQUE_ASSIGN_OR_RETURN(CellValue cell,
                              EvaluateCellOn(factory, scenario));
    d.row[scenario.phenomenon] = cell;
  }

  size_t best = SIZE_MAX;
  for (IsolationLevel level : AllEngineLevels()) {
    const AnomalyMatrix& expected = ExpectedMatrixFor(level);
    size_t distance = 0;
    for (const auto& [p, cell] : d.row) {
      if (!expected.HasCell(level, p) || expected.Cell(level, p) != cell) {
        ++distance;
      }
    }
    if (distance == 0) d.exact_matches.push_back(level);
    if (distance <= best) {  // <=: later (stronger) levels win ties
      best = distance;
      d.closest = level;
      d.closest_distance = distance;
    }
  }
  return d;
}

Result<Diagnosis> DiagnoseLevel(IsolationLevel level) {
  return DiagnoseEngine([level] { return CreateEngine(level); });
}

}  // namespace critique
