#include "critique/wal/wal_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

namespace critique {
namespace {

// fsyncs the directory holding `path`: a freshly created log file is only
// durable once its *directory entry* is — fdatasync of the file covers its
// bytes and size, not the name that finds it, and a power loss with the
// entry unsynced makes the whole log vanish.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  flags |= O_DIRECTORY;
#endif
  const int fd = ::open(dir.c_str(), flags);
  if (fd < 0) {
    return Status::Internal("wal: cannot open directory '" + dir + "'");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("wal: fsync failed on directory '" + dir + "'");
  }
  return Status::OK();
}

}  // namespace

Result<WalWriter> WalWriter::Create(const std::string& path, FsyncMode mode) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("wal: cannot create '" + path + "'");
  }
  if (mode == FsyncMode::kFsync) {
    Status s = SyncParentDir(path);
    if (!s.ok()) {
      std::fclose(f);
      return s;
    }
  }
  return WalWriter(path, f);
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                           uint64_t keep_bytes,
                                           FsyncMode mode) {
  // Chop the torn tail before anything is appended behind it: a half
  // record left in place would corrupt every record written after it.  A
  // missing file is fine (first boot recovers an empty log and appends
  // from byte 0).
  struct stat st;
  const bool exists = ::stat(path.c_str(), &st) == 0;
  if (exists &&
      ::truncate(path.c_str(), static_cast<off_t>(keep_bytes)) != 0) {
    return Status::Internal("wal: cannot truncate '" + path + "' to " +
                            std::to_string(keep_bytes) + " bytes");
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal("wal: cannot open '" + path + "' for append");
  }
  if (mode == FsyncMode::kFsync) {
    // Pin the truncation (an inode change) and the entry itself before
    // records are appended behind them — recovery already decided the
    // torn tail is gone, and a power loss must not resurrect it.
    if (exists && ::fsync(::fileno(f)) != 0) {
      std::fclose(f);
      return Status::Internal("wal: fsync failed on '" + path + "'");
    }
    Status s = SyncParentDir(path);
    if (!s.ok()) {
      std::fclose(f);
      return s;
    }
  }
  return WalWriter(path, f);
}

uint64_t WalWriter::Append(const WalRecord& rec) {
  FrameWalRecord(rec, &buffer_);
  return ++appended_lsn_;
}

std::pair<uint64_t, std::string> WalWriter::StagePending() {
  std::string staged = std::move(buffer_);
  buffer_.clear();
  return {appended_lsn_, std::move(staged)};
}

Status WalWriter::SubmitStaged(const std::string& bytes, uint64_t staged_lsn,
                               FsyncMode mode,
                               std::chrono::microseconds latency) {
  if (!bytes.empty()) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
        bytes.size()) {
      return Status::Internal("wal: short write to '" + path_ + "'");
    }
  }
  if (mode != FsyncMode::kNone && std::fflush(file_.get()) != 0) {
    return Status::Internal("wal: flush failed on '" + path_ + "'");
  }
  submitted_lsn_ = staged_lsn;
  submitted_mode_ = mode;
  // The simulated device starts once the bytes have left user space.
  device_done_ = std::chrono::steady_clock::now() + latency;
  return Status::OK();
}

Status WalWriter::CompleteStaged() {
  if (submitted_mode_ == FsyncMode::kSimulated) {
    std::this_thread::sleep_until(device_done_);
  }
  if (submitted_mode_ == FsyncMode::kFsync) {
    // fdatasync suffices: recovery reads only file bytes the data sync
    // covers, and the steadily-growing size reaches the inode with it.
#if defined(__linux__)
    if (::fdatasync(::fileno(file_.get())) != 0) {
#else
    if (::fsync(::fileno(file_.get())) != 0) {
#endif
      return Status::Internal("wal: fsync failed on '" + path_ + "'");
    }
  }
  if (submitted_lsn_ > durable_lsn_) durable_lsn_ = submitted_lsn_;
  return Status::OK();
}

Status WalWriter::Sync(FsyncMode mode, std::chrono::microseconds latency) {
  auto [lsn, bytes] = StagePending();
  CRITIQUE_RETURN_NOT_OK(SubmitStaged(bytes, lsn, mode, latency));
  return CompleteStaged();
}

Result<WalReadResult> WalReader::ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // First boot: no log yet is a legitimately empty history, not an
    // error — `Database::Recover` on a fresh path starts empty.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return WalReadResult{};
    return Status::Internal("wal: cannot open '" + path + "' for read");
  }
  std::string bytes;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("wal: read error on '" + path + "'");
  }
  return ReadWalBytes(bytes);
}

}  // namespace critique
