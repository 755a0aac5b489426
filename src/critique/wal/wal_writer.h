#ifndef CRITIQUE_WAL_WAL_WRITER_H_
#define CRITIQUE_WAL_WAL_WRITER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "critique/common/result.h"
#include "critique/common/status.h"
#include "critique/wal/wal_record.h"

namespace critique {

/// What "make it durable" means for a sync of the log device.
enum class FsyncMode {
  /// No durability barrier: `CommitLog` acks every wait at once and runs
  /// no round for it, so `CommitLog::durable_lsn()` reports the appended
  /// LSN.  Buffered records are written into the stdio stream, unflushed,
  /// only by an explicit round (`SyncAll`, which the `CommitLog`
  /// destructor runs), and reach the file when the stdio buffer fills or
  /// when the writer is destroyed (`FileCloser`).  Ack-before-durable —
  /// benches measuring pure engine cost with the log off the critical
  /// path.
  kNone,
  /// Write + flush the stdio stream per sync.  Honest ordering (a crash
  /// of *this process* loses nothing synced) without modeling device
  /// latency; the default.
  kFlush,
  /// kFlush plus a simulated device latency slept per physical sync —
  /// the knob that makes group-commit batching measurable and
  /// deterministic without real fsync(2) noise in CI.
  kSimulated,
  /// kFlush plus a real fdatasync(2) (fsync(2) where unavailable) of the
  /// descriptor per physical sync: power-loss durability, not just
  /// process-crash durability.  The honest production mode — and the one
  /// that makes group commit pay off on a real device.
  kFsync,
};

/// \brief Appends framed records to one log file.
///
/// Records are buffered in user space by `Append` and reach the file only
/// at a sync — deliberately, because that is the crash model: a "crash"
/// (abandoning the writer, or a failpoint killing it) loses exactly the
/// unsynced suffix, so tests that reopen the file observe precisely what
/// a kill -9 after the last sync would leave.  LSNs are 1-based record
/// sequence numbers, not byte offsets.
///
/// Not thread-safe: `CommitLog` (the group-commit pipeline) serializes
/// access; single-threaded tests and recovery use it directly.
class WalWriter {
 public:
  /// Creates/truncates `path` — a fresh log.  Pass the deployment's
  /// `mode`: under `kFsync` the parent directory is fsynced once so the
  /// new file's directory entry is as durable as the records later
  /// fdatasync'd into it (without this, power loss can drop the unsynced
  /// entry and the whole log with it); other modes don't model power
  /// loss and skip the barrier.
  static Result<WalWriter> Create(const std::string& path,
                                  FsyncMode mode = FsyncMode::kFlush);

  /// Opens `path` for appending after truncating it to `keep_bytes`
  /// (recovery chops the torn tail it measured with `WalReader` before
  /// new records are appended behind it).  Under `kFsync` the truncation
  /// and the directory entry are fsynced before any append, so a crash
  /// cannot resurrect the discarded tail or lose the file.
  static Result<WalWriter> OpenForAppend(const std::string& path,
                                         uint64_t keep_bytes,
                                         FsyncMode mode = FsyncMode::kFlush);

  WalWriter(WalWriter&&) noexcept = default;
  WalWriter& operator=(WalWriter&&) noexcept = default;

  /// Flushes nothing: unsynced buffered records are *meant* to die with
  /// the writer (crash semantics).  Call `Sync` first for a clean
  /// shutdown.
  ~WalWriter() = default;

  /// Buffers `rec`; returns its LSN.  No durability implied.
  uint64_t Append(const WalRecord& rec);

  /// Highest LSN appended (durable or not).
  uint64_t appended_lsn() const { return appended_lsn_; }

  /// Highest LSN the file covers.
  uint64_t durable_lsn() const { return durable_lsn_; }

  /// Moves the whole buffered suffix out for an exclusive syncer to
  /// write; returns {covered lsn, bytes}.  `CommitLog` stages under its
  /// mutex and writes outside it, so appenders keep buffering while the
  /// "device" is busy.
  std::pair<uint64_t, std::string> StagePending();

  /// Step 1 of a device round: writes the staged bytes, flushes them per
  /// `mode` and starts the device — the bytes have left user space when it
  /// returns, but are not durable until `CompleteStaged`.  Between the two
  /// steps the caller may start rounds on other logs, so their device
  /// times overlap.  Only one thread may hold a round at a time.
  Status SubmitStaged(const std::string& bytes, uint64_t staged_lsn,
                      FsyncMode mode, std::chrono::microseconds latency);

  /// Step 2: waits for the device round `SubmitStaged` started — under
  /// kSimulated sleeps until the submit time plus its latency, under
  /// kFsync runs fdatasync(2) — then advances `durable_lsn` to the
  /// round's `staged_lsn`.
  Status CompleteStaged();

  /// Stage + write in one call (single-threaded use).
  Status Sync(FsyncMode mode = FsyncMode::kFlush,
              std::chrono::microseconds latency = {});

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string buffer_;          ///< appended-but-unsynced framed records
  uint64_t appended_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  /// The submitted round `CompleteStaged` finishes.
  uint64_t submitted_lsn_ = 0;
  FsyncMode submitted_mode_ = FsyncMode::kNone;
  std::chrono::steady_clock::time_point device_done_;  ///< kSimulated
};

/// \brief Reads a whole log file, tolerating a torn tail.
struct WalReader {
  /// Parses `path`.  A missing file reads as an empty log (first boot);
  /// real I/O errors surface as a Status.  Corruption never fails: it
  /// marks `torn_tail` and shortens the prefix (see `ReadWalBytes`).
  static Result<WalReadResult> ReadFile(const std::string& path);
};

}  // namespace critique

#endif  // CRITIQUE_WAL_WAL_WRITER_H_
