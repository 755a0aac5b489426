#ifndef CRITIQUE_WAL_COMMIT_LOG_H_
#define CRITIQUE_WAL_COMMIT_LOG_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "critique/obs/metrics.h"
#include "critique/wal/wal_sink.h"
#include "critique/wal/wal_writer.h"

namespace critique {

/// Injectable crash points for the WAL crash matrix (tests only).  Once a
/// failpoint trips, the log is *dead*: every further call answers
/// kInternal and the file keeps exactly the bytes synced before the trip
/// — the same prefix a kill -9 at that instant would leave.
enum class WalFailpoint {
  kNone,
  /// The next Append dies before buffering: the record never existed.
  kPreAppend,
  /// The next physical sync dies before writing: appended-but-unsynced
  /// records are lost (the post-append / pre-fsync window).
  kPreSync,
};

/// Group-commit observability.
struct GroupCommitStats {
  uint64_t appends = 0;     ///< records appended
  uint64_t syncs = 0;       ///< physical sync operations on the device
  uint64_t sync_waits = 0;  ///< WaitDurable calls that were not already covered
  /// Counted waits retired by a round another thread led — the batching
  /// win (0 in single-commit mode, where every wait pays its own sync).
  uint64_t batched = 0;
  /// Most waits one group-commit round retired: its leader plus the parked
  /// waits it covered (0 in single-commit mode).
  uint64_t max_batch = 0;

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const GroupCommitStats& stats);

/// \brief The thread-safe durability pipeline over one `WalWriter`.
///
/// Every physical sync goes through one *device token* (`syncing_`): its
/// holder stages everything appended so far and runs exactly one round
/// (one buffer write + one fsync), then hands the token back and returns.
/// A round has two steps.  *Begin* parks or takes the token, stages and
/// submits the bytes (the device starts); *end* waits for the device,
/// advances `durable_lsn`, retires the parked waits the round covered and
/// hands the token back.  `WaitDurable` and `SyncAll` run both steps back
/// to back; `WaitDurableAll` begins a round on several logs before it ends
/// any, so their device times overlap.
///
/// **Single-commit mode** (`group_commit = false`): every `WaitDurable`
/// takes the token and pays its own round, even for a record another
/// round already covered — one fsync per commit, the classic
/// pre-group-commit discipline whose throughput ceiling is 1/latency
/// however many sessions commit concurrently.  This is the honest
/// baseline `bench_throughput --group-commit` compares against.
///
/// **Group-commit mode** (DeWitt et al., SIGMOD 1984): a waiter parks
/// only while another thread holds the token, and returns as soon as a
/// round covers its LSN.  A waiter that round did not cover (it appended
/// after the stage) takes the token and leads the next round, which
/// covers whoever appended meanwhile — N concurrent committers cost
/// ~N/batch syncs, and every leader returns after its own round.
///
/// The writer's buffered-until-sync behavior is what makes the crash
/// matrix honest: records a failpoint or abandoned process never synced
/// are not in the file, so recovery sees exactly the durable prefix.
class CommitLog : public WalSink {
 public:
  struct Options {
    bool group_commit = false;
    FsyncMode fsync_mode = FsyncMode::kFlush;
    /// kSimulated only: device latency slept per physical sync.
    std::chrono::microseconds fsync_latency{25};
  };

  CommitLog(WalWriter writer, Options options)
      : writer_(std::move(writer)), options_(options) {}

  /// Flushes cleanly on destruction (a *live* log going away is a clean
  /// shutdown; crashes are modeled by failpoints or file truncation, not
  /// by destructors).
  ~CommitLog() override;

  uint64_t Append(const WalRecord& rec) override;
  Status WaitDurable(uint64_t lsn) override;

  struct DurableWait;  // one log's share of a `WaitDurableAll` (below)

  /// `WaitDurable` on several logs at once, their device rounds
  /// overlapped.  Each wait first takes its log's free token and submits a
  /// round, or parks if another thread holds it, in the order given; then
  /// the submitted rounds end, then the parked waits are waited out.  So
  /// the call lasts about one device round however many logs it covers.
  /// A thread blocks on a token only while it holds none, so overlapped
  /// waits cannot deadlock; pass distinct logs.
  static void WaitDurableAll(std::vector<DurableWait>& waits);

  /// Stages and syncs everything buffered (clean shutdown, tests).
  Status SyncAll();

  /// Highest LSN appended so far, durable or not (0 before any append).
  /// Read after an `Append` returns, it bounds that record's LSN from
  /// above — a valid conservative target for `durable_lsn`.
  uint64_t appended_lsn() const;

  /// Highest LSN the log device covers: every record at or below it
  /// survives a crash.  Never blocks and never syncs.  Under
  /// `FsyncMode::kNone` it equals `appended_lsn`, the same answer
  /// `WaitDurable` gives there (ack-before-durable by configuration).
  /// A dead log stops at the last LSN it synced.
  uint64_t durable_lsn() const;

  /// Installs (or clears, with kNone) a crash point.  A tripped
  /// failpoint is terminal — see `WalFailpoint`.
  void set_failpoint(WalFailpoint f);

  GroupCommitStats stats() const;

  /// Physical-sync latency, microseconds: a round from its submit to the
  /// end of its device wait.
  const obs::Histogram& fsync_histogram() const { return fsync_hist_; }

  /// Waits retired per round (the group-commit batch size): the waiter
  /// that led it plus the parked waiters it covered, so single-commit mode
  /// reads 1s.  A `SyncAll` round counts only the waiters it covered.
  const obs::Histogram& batch_histogram() const { return batch_hist_; }

  /// Registers fsync/batch histograms plus `GroupCommitStats` gauges with
  /// `reg` under `prefix` ("wal." by convention).  The log must outlive
  /// the registry entries.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& prefix);

  const std::string& path() const {
    return writer_.path();  // set at construction; immutable thereafter
  }

 private:
  // Every *Locked member requires `mu_` held (through `lk` where it is
  // passed) on entry and returns with it re-held.

  /// Where a wait stands after its first step.
  enum class Step {
    kDone,     ///< answered without a round of its own
    kInRound,  ///< leads a submitted round: `EndRoundLocked` must follow
    kParked,   ///< the token was held: `AwaitParkedLocked` must follow
  };

  /// Step 1 of a wait for `lsn`; never blocks.  Answers at once (into
  /// `*s`) when the log is dead, the LSN is 0 or already covered, or
  /// durability is off.  Otherwise counts the wait and, if the token is
  /// free, takes it and submits a round; if not, parks (group mode).
  Step BeginWaitLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn,
                       Status* s);

  /// Takes the free token and submits one round: stages everything
  /// appended and starts the device outside `mu_`.  Returns true with the
  /// round in flight; false, its status in `*s`, when the round died
  /// before the device started (failpoint, failed write).
  bool BeginRoundLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn,
                        Status* s);

  /// Step 2 of a submitted round: waits for the device outside `mu_`,
  /// advances `durable_lsn_` and finishes the round.
  Status EndRoundLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn);

  /// Closes the token holder's round with outcome `s`: a failure kills the
  /// log, the parked waits it covered (all of them on a dead log) are
  /// retired and counted, and the token is handed back.  `lsn` is the
  /// holder's own record (0 for `SyncAll`).
  Status FinishRoundLocked(uint64_t lsn, Status s);

  /// Step 2 of a parked wait: returns once a round covers `lsn`; a round
  /// that missed it hands the token over, and this wait leads the next.
  Status AwaitParkedLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn);

  /// Waits for the token, then runs both steps of one round.
  Status LeadRoundLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn);

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;  ///< device token handoff
  WalWriter writer_;                 ///< mu_, except staged writes (syncing_)
  Options options_;
  bool syncing_ = false;             ///< the device token is held
  uint64_t durable_lsn_ = 0;
  Status dead_;                      ///< !ok once a failpoint tripped
  WalFailpoint failpoint_ = WalFailpoint::kNone;
  std::vector<uint64_t> parked_;     ///< LSNs of parked group-mode waits
  /// When the token holder's round began (its `fsync_us` sample).
  std::chrono::steady_clock::time_point round_start_;
  GroupCommitStats stats_;
  // Internally synchronized (sharded atomics) — recorded outside mu_.
  obs::Histogram fsync_hist_;
  obs::Histogram batch_hist_;
};

/// One log's share of a `CommitLog::WaitDurableAll`.
struct CommitLog::DurableWait {
  CommitLog* log;
  uint64_t lsn;
  Status status;  ///< filled in: what `WaitDurable(lsn)` answers
  Step step = Step::kDone;  ///< where the wait stood after its first step
};

}  // namespace critique

#endif  // CRITIQUE_WAL_COMMIT_LOG_H_
