#include "critique/exec/runner.h"

#include <algorithm>

#include "critique/common/string_util.h"

namespace critique {

std::string_view TxnOutcomeName(TxnOutcome o) {
  switch (o) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kAbortedByApplication:
      return "aborted (application)";
    case TxnOutcome::kAbortedDeadlockVictim:
      return "aborted (deadlock victim)";
    case TxnOutcome::kAbortedSerialization:
      return "aborted (serialization failure)";
  }
  return "?";
}

void Runner::AddProgram(TxnId txn, Program program) {
  TxnRun run;
  run.program = std::move(program);
  txns_[txn] = std::move(run);
}

Status Runner::Advance(TxnId txn, bool* progressed) {
  *progressed = false;
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("schedule names unknown txn " +
                                   std::to_string(txn));
  }
  TxnRun& run = it->second;
  if (run.finished || run.next_step >= run.program.size()) return Status::OK();

  if (!run.session.has_value()) {
    CRITIQUE_ASSIGN_OR_RETURN(Transaction session, db_.BeginWithId(txn));
    run.session.emplace(std::move(session));
    *progressed = true;
  }

  const ProgramStep& step = run.program.steps()[run.next_step];
  StepContext ctx{*run.session, run.locals};
  Status s = step.run(ctx);
  run.last_status = s;

  if (s.ok()) {
    ++run.next_step;
    *progressed = true;
    if (step.kind == StepKind::kCommit) {
      run.finished = true;
      run.outcome = TxnOutcome::kCommitted;
    } else if (step.kind == StepKind::kAbort) {
      run.finished = true;
      run.outcome = TxnOutcome::kAbortedByApplication;
    }
    return Status::OK();
  }
  if (s.IsWouldBlock()) {
    ++blocked_retries_;
    return Status::OK();  // retry this step on the next turn
  }
  if (s.IsDeadlock()) {
    run.finished = true;
    run.outcome = TxnOutcome::kAbortedDeadlockVictim;
    *progressed = true;
    return Status::OK();
  }
  if (s.IsSerializationFailure()) {
    run.finished = true;
    run.outcome = TxnOutcome::kAbortedSerialization;
    *progressed = true;
    return Status::OK();
  }
  // Anything else (InvalidArgument, FailedPrecondition, NotFound,
  // TransactionAborted) is a scenario-authoring error: fail the run.
  return Status::Internal("txn " + std::to_string(txn) + " step " +
                          std::to_string(run.next_step) +
                          " failed: " + s.ToString());
}

Result<RunResult> Runner::Run(const std::vector<TxnId>& schedule) {
  if (!db_.records_history()) {
    return Status::FailedPrecondition(
        "the Runner judges recorded histories: build the database with "
        "DbOptions::record_history");
  }
  blocked_retries_ = 0;
  for (TxnId t : schedule) {
    bool progressed = false;
    CRITIQUE_RETURN_NOT_OK(Advance(t, &progressed));
  }

  // Drain: round-robin until everything finishes.  A full pass without
  // progress means every remaining transaction is blocked, which a correct
  // engine resolves by deadlock victim selection — treat it as fatal.
  const size_t kMaxPasses = 100000;
  for (size_t pass = 0; pass < kMaxPasses; ++pass) {
    bool all_done = true;
    bool any_progress = false;
    for (auto& [t, run] : txns_) {
      if (run.finished) continue;
      all_done = false;
      bool progressed = false;
      CRITIQUE_RETURN_NOT_OK(Advance(t, &progressed));
      any_progress |= progressed;
    }
    if (all_done) break;
    if (!any_progress) {
      return Status::Internal(
          "livelock: no transaction can progress (engine failed to resolve "
          "a circular wait)");
    }
  }

  RunResult out;
  for (auto& [t, run] : txns_) {
    if (!run.finished) {
      return Status::Internal("txn " + std::to_string(t) +
                              " did not finish (drain exhausted)");
    }
    out.outcomes[t] = run.outcome;
    out.final_status[t] = run.last_status;
    out.locals[t] = run.locals;
  }
  out.history = db_.history();
  out.blocked_retries = blocked_retries_;
  return out;
}

std::vector<TxnId> Runner::RoundRobinSchedule() const {
  std::vector<TxnId> schedule;
  bool remaining = true;
  std::map<TxnId, size_t> emitted;
  while (remaining) {
    remaining = false;
    for (const auto& [t, run] : txns_) {
      if (emitted[t] < run.program.size()) {
        schedule.push_back(t);
        ++emitted[t];
        if (emitted[t] < run.program.size()) remaining = true;
      }
    }
  }
  return schedule;
}

std::vector<TxnId> Runner::RandomSchedule(Rng& rng) const {
  std::vector<TxnId> pool;
  for (const auto& [t, run] : txns_) {
    pool.insert(pool.end(), run.program.size(), t);
  }
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  }
  return pool;
}

std::vector<TxnId> ParseSchedule(std::string_view text) {
  std::vector<TxnId> out;
  for (const auto& token : SplitNonEmpty(text, ' ')) {
    out.push_back(static_cast<TxnId>(std::stoi(token)));
  }
  return out;
}

}  // namespace critique
