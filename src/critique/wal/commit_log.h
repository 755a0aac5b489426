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

  /// Physical-sync (device write + fsync) latency, microseconds.
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
  /// Takes the token and runs one round (the device write outside `mu_`),
  /// retiring the parked waits it covered.  `lsn` is the caller's record
  /// (0 for `SyncAll`); a group-mode wait first parks while the token is
  /// held, and returns without a round once one covers `lsn`.  Requires
  /// `lk` held on entry; returns with it re-held.
  Status SyncRoundLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn);

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;  ///< device token handoff
  WalWriter writer_;                 ///< mu_, except staged writes (syncing_)
  Options options_;
  bool syncing_ = false;             ///< the device token is held
  uint64_t durable_lsn_ = 0;
  Status dead_;                      ///< !ok once a failpoint tripped
  WalFailpoint failpoint_ = WalFailpoint::kNone;
  std::vector<uint64_t> parked_;     ///< LSNs of parked group-mode waits
  GroupCommitStats stats_;
  // Internally synchronized (sharded atomics) — recorded outside mu_.
  obs::Histogram fsync_hist_;
  obs::Histogram batch_hist_;
};

}  // namespace critique

#endif  // CRITIQUE_WAL_COMMIT_LOG_H_
