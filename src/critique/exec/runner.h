#ifndef CRITIQUE_EXEC_RUNNER_H_
#define CRITIQUE_EXEC_RUNNER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "critique/common/random.h"
#include "critique/common/result.h"
#include "critique/db/database.h"
#include "critique/exec/program.h"

namespace critique {

/// How a transaction ended.
enum class TxnOutcome {
  kCommitted,
  kAbortedByApplication,    ///< the program's own Abort step
  kAbortedDeadlockVictim,   ///< lock manager chose it as victim
  kAbortedSerialization,    ///< FCW / FWW / SSI refusal
};

/// "committed", "deadlock victim", ...
std::string_view TxnOutcomeName(TxnOutcome o);

/// Result of one interleaved run.
struct RunResult {
  std::map<TxnId, TxnOutcome> outcomes;
  std::map<TxnId, Status> final_status;  ///< last status per transaction
  std::map<TxnId, TxnLocals> locals;
  History history;                       ///< the engine-recorded history
  uint64_t blocked_retries = 0;          ///< kWouldBlock answers seen

  bool Committed(TxnId t) const {
    auto it = outcomes.find(t);
    return it != outcomes.end() && it->second == TxnOutcome::kCommitted;
  }
  bool Aborted(TxnId t) const {
    auto it = outcomes.find(t);
    return it != outcomes.end() && it->second != TxnOutcome::kCommitted;
  }
};

/// \brief Drives transaction programs through an engine along an explicit
/// interleaving schedule — the executable form of the paper's histories.
///
/// The schedule lists transaction ids; each entry advances that transaction
/// by one step.  A step answered `kWouldBlock` stays current and is retried
/// at the transaction's next turn (the lock-wait model).  After the
/// schedule is exhausted every unfinished transaction is drained
/// round-robin; progress is guaranteed because blocked-by-finished is
/// impossible (terminals release locks) and circular waits abort a victim
/// deterministically.
///
/// `Begin` is issued lazily at a transaction's first step, so Snapshot
/// Isolation start timestamps follow the schedule order, as in the paper's
/// histories.
///
/// The runner drives the engine exclusively through `Database` sessions:
/// each program runs in a `Transaction` obtained via `BeginWithId` (the
/// paper's histories need "T1" to be subscript 1), and the schedule — not
/// the database's `RetryPolicy` — decides when a blocked step is retried.
class Runner {
 public:
  explicit Runner(Database& db) : db_(db) {}

  /// Registers `program` as transaction `txn`.
  void AddProgram(TxnId txn, Program program);

  /// Runs to completion along `schedule` (see class comment).  Fails with
  /// FailedPrecondition when the database does not record its history
  /// (`DbOptions::record_history`: every verdict on a run judges the
  /// recorded history, and an empty one would pass vacuously),
  /// InvalidArgument on malformed schedules/programs and Internal on
  /// livelock (which a correct engine never produces).
  Result<RunResult> Run(const std::vector<TxnId>& schedule);

  /// Round-robin schedule covering every step of every program.
  std::vector<TxnId> RoundRobinSchedule() const;

  /// Uniform random schedule covering every step (deterministic in `rng`).
  std::vector<TxnId> RandomSchedule(Rng& rng) const;

 private:
  struct TxnRun {
    Program program;
    TxnLocals locals;
    std::optional<Transaction> session;  ///< RAII handle; begun lazily
    size_t next_step = 0;
    bool finished = false;
    TxnOutcome outcome = TxnOutcome::kCommitted;
    Status last_status;
  };

  /// Advances `txn` by one step; sets `*progressed` when the engine state
  /// changed (success or abort).  Returns non-OK only on fatal errors.
  Status Advance(TxnId txn, bool* progressed);

  Database& db_;
  std::map<TxnId, TxnRun> txns_;
  uint64_t blocked_retries_ = 0;
};

/// Parses "1 1 2 2 1" into a schedule.
std::vector<TxnId> ParseSchedule(std::string_view text);

}  // namespace critique

#endif  // CRITIQUE_EXEC_RUNNER_H_
