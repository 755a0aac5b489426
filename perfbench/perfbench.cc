// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spans-out FILE] [--segment-txns K]
//
// Three closed-loop workloads, each loading a different layer, driven
// only through the public Database / ShardedDatabase / Transaction API
// with keys generated here from --seed (README.md explains the choice):
//
//   readmostly_si_100k_1c        storage: point reads + watermark GC passes
//   transfer_ser_100k_2c         lock: locking SERIALIZABLE, 2 clients
//   transfer_sharded_durable_2c  commit path: WAL, 2PC, online checker
//
// A run is a sequence of *segments*.  Each segment builds a fresh database
// (timed as set-up), runs a fixed number of transactions through the
// closed loop (timed), then checks the outputs and tears the database down.
// Segments repeat until --seconds of timed traffic have run.  A fixed
// transaction count per database keeps every per-transaction cost —
// history growth, version chains, checker graph — independent of how fast
// or how long the run is.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
// untraced and half traced, records one root span per Execute (its id is
// the transaction id) with a child span per Transaction call, reports the
// per-layer metrics, and writes the spans to --spans-out as CSV.
//
// Output: a human-readable report on stderr and one JSON object as the
// last line of stdout (workload, provenance, attempted/failed, checks,
// metrics with units).  Exit status 1 when an output check failed.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "critique/db/database.h"
#include "critique/shard/sharded_database.h"

namespace perfbench {
namespace {

using critique::DbOptions;
using critique::IsolationLevel;
using critique::ItemId;
using critique::Result;
using critique::ShardedDatabase;
using critique::ShardedDbOptions;
using critique::ShardedTransaction;
using critique::Status;
using critique::Transaction;
using critique::TxnId;
using critique::Value;

/// The retry protocol of every workload: the library's stock exponential
/// backoff (8 restarts, 100 us doubling to 10 ms).  An immediate restart
/// livelocks a deadlock victim against a peer still parked in its upgrade
/// wait, and gives up.
std::shared_ptr<const critique::RetryPolicy> Backoff() {
  return std::make_shared<critique::ExponentialBackoffRetryPolicy>();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- deterministic inputs ---------------------------------------------------

/// splitmix64: the benchmark's own generator, so the measured traffic does
/// not depend on the library's RNG or workload code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return double(Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// Zipf ranks over [0, n) by the Gray et al. (SIGMOD 1994) method, the one
/// YCSB uses; rank 0 is the hottest.  Ranks are scattered over rows by a
/// seeded affine bijection so hot rows do not cluster in key order.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, uint64_t offset)
      : n_(n), theta_(theta), offset_(offset % n) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  /// A row index in [0, n).
  uint64_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    // 1000003 is prime and larger than any row count used here, so the
    // map rank -> row is a bijection.
    return (rank * 1000003ULL + offset_) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  uint64_t offset_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// One transaction's generated inputs.
struct TxnInput {
  std::array<uint32_t, 8> rows{};
  uint8_t nops = 0;
  uint8_t rmw = 0;     ///< readmostly: bit i set = op i increments
  int64_t amount = 0;  ///< transfers
};

// --- tracing ----------------------------------------------------------------

enum SpanKind : uint8_t { kExecute, kGen, kGet, kPut, kCommit };
const char* const kSpanNames[] = {"execute", "gen", "get", "put", "commit"};
enum SpanFlag : uint8_t { kGcRan = 1, kCrossShard = 2 };

/// One timed interval.  `txn` is the root's id: the id of the transaction
/// the Execute call finally ran (its last attempt).
struct Span {
  TxnId txn = 0;
  uint8_t kind = kExecute;
  uint8_t flags = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-client state of one closed-loop client.  Cache-line aligned: the
/// clients sit side by side in a vector and each bumps its counters on
/// every transaction, which must not bounce a line between their cores.
struct alignas(64) Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  Rng rng;
  bool traced = false;
  std::vector<int64_t> latency_ns;  ///< one per Execute; failures = max
  std::vector<Span> spans;
  uint64_t executes = 0;   ///< Execute calls
  uint64_t committed = 0;  ///< Execute calls that returned OK
  uint64_t failed = 0;     ///< Execute calls that gave up
  uint64_t attempts = 0;   ///< body runs (committed + failed + retries)
  uint64_t increments = 0; ///< readmostly: committed +1 updates
  TxnId last_txn = 0;
};

constexpr int64_t kFailedLatency = INT64_MAX;

/// Runs `f`, recording a child span when the client is traced.
template <typename F>
auto Timed(Client& c, SpanKind kind, F&& f) -> decltype(f()) {
  if (!c.traced) return f();
  const int64_t t0 = NowNs();
  auto r = f();
  c.spans.push_back(Span{0, kind, 0, t0, NowNs()});
  return r;
}

uint8_t CrossFlag(const Transaction&) { return 0; }
uint8_t CrossFlag(const ShardedTransaction& t) {
  return t.cross_shard() ? kCrossShard : 0;
}

// --- process and host probes -----------------------------------------------

uint64_t HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return uint64_t(mi.uordblks) + uint64_t(mi.hblkhd);
}

struct Usage {
  double user_s = 0, sys_s = 0;
  double vol_csw = 0, minflt = 0;
};

Usage ReadUsage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
  u.vol_csw = double(ru.ru_nvcsw);
  u.minflt = double(ru.ru_minflt);
  return u;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the cache at `level` as the kernel reports it ("2048K").
std::string CacheSize(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    if (ReadFirstLine(dir + "level") == std::to_string(level) &&
        ReadFirstLine(dir + "type") != "Instruction") {
      return ReadFirstLine(dir + "size");
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Set-up steps cannot fail on a healthy build; stop loudly if one does.
void MustOk(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               s.ToString().c_str());
  std::exit(1);
}

// --- counters summed over segments -----------------------------------------

/// Named sums over a phase's segments; `Max` keeps a high-water mark.
class Totals {
 public:
  void Add(const std::string& k, double v) { m_[k] += v; }
  void Max(const std::string& k, double v) {
    auto it = m_.find(k);
    if (it == m_.end() || v > it->second) m_[k] = v;
  }
  double Get(const std::string& k) const {
    auto it = m_.find(k);
    return it == m_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> m_;
};

/// Output checks, AND-ed over every segment.
class Checks {
 public:
  void Expect(const std::string& name, bool ok) {
    auto [it, inserted] = m_.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  bool all_ok() const {
    for (const auto& kv : m_) {
      if (!kv.second) return false;
    }
    return !m_.empty();
  }
  const std::map<std::string, bool>& map() const { return m_; }

 private:
  std::map<std::string, bool> m_;
};

uint64_t Gauge(const critique::obs::MetricsRegistry& reg,
               const std::string& name) {
  for (const auto& s : reg.Collect()) {
    if (s.name == name) return s.value;
  }
  return 0;
}

critique::obs::HistogramSnapshot Hist(const critique::obs::MetricsRegistry& reg,
                                      const std::string& name) {
  for (const auto& s : reg.Collect()) {
    if (s.name == name) return s.histogram;
  }
  return {};
}

// --- workloads --------------------------------------------------------------

struct Spec {
  std::string name;
  int clients;
  uint32_t rows;
  double theta;
  uint64_t segment_txns;  ///< transactions per fresh database
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"readmostly_si_100k_1c", 1, 100000, 0.6, 12000},
      {"transfer_ser_100k_2c", 2, 100000, 0.99, 30000},
      {"transfer_sharded_durable_2c", 2, 10000, 0.6, 2500},
  };
  return specs;
}

/// One workload: builds its database(s), generates and runs transactions,
/// collects layer counters, and checks outputs.  A segment calls Setup,
/// then Execute from each client, then Collect, Verify and Teardown.
class Workload {
 public:
  Workload(const Spec& spec, uint64_t seed)
      : spec_(spec), seed_(seed), zipf_(spec.rows, spec.theta, seed) {
    keys_.reserve(spec.rows);
    initial_.reserve(spec.rows);
    Rng rng(seed ^ 0x5EEDULL);
    char buf[16];
    for (uint32_t i = 0; i < spec.rows; ++i) {
      std::snprintf(buf, sizeof buf, "acct%06u", i);
      keys_.emplace_back(buf);
      initial_.push_back(1000 + int64_t(rng.Below(1000)));
      initial_sum_ += initial_.back();
    }
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const Spec& spec() const { return spec_; }

  virtual void Setup() = 0;
  virtual TxnInput Generate(Rng& rng) const = 0;
  /// One closed-loop call: Execute with retries.  Returns its status.
  virtual Status Execute(const TxnInput& in, Client& c) = 0;
  /// Version-GC passes so far (traced commits use it to spot GC).
  virtual uint64_t GcRuns() const { return 0; }
  /// Layer counters after the timed phase; `traced` adds the costly ones.
  virtual void Collect(Totals& t, bool traced) = 0;
  virtual void Verify(Totals& t, Checks& checks, uint64_t committed,
                      uint64_t attempts, uint64_t increments) = 0;
  virtual void Teardown() = 0;

 protected:
  template <typename Txn>
  Status TimedCommit(Client& c, Txn& txn) {
    if (!c.traced) return txn.Commit();
    uint8_t flags = CrossFlag(txn);
    const uint64_t gc0 = GcRuns();
    const int64_t t0 = NowNs();
    Status s = txn.Commit();
    const int64_t t1 = NowNs();
    if (GcRuns() != gc0) flags |= kGcRan;
    c.spans.push_back(Span{0, kCommit, flags, t0, t1});
    return s;
  }

  /// Balance-preserving transfer body shared by both transfer workloads.
  template <typename Txn>
  Status Transfer(Txn& txn, const TxnInput& in, Client& c) {
    ++c.attempts;
    c.last_txn = txn.id();
    const ItemId& a = keys_[in.rows[0]];
    const ItemId& b = keys_[in.rows[1]];
    Result<Value> va = Timed(c, kGet, [&] { return txn.GetScalar(a); });
    if (!va.ok()) return va.status();
    Result<Value> vb = Timed(c, kGet, [&] { return txn.GetScalar(b); });
    if (!vb.ok()) return vb.status();
    Status s = Timed(c, kPut, [&] {
      return txn.Put(a, Value(va.value().AsInt() - in.amount));
    });
    if (!s.ok()) return s;
    s = Timed(c, kPut,
              [&] { return txn.Put(b, Value(vb.value().AsInt() + in.amount)); });
    if (!s.ok()) return s;
    return TimedCommit(c, txn);
  }

  /// Sum of every row, read in `txn`, which then commits.
  template <typename Txn>
  static bool SumRows(Txn txn, const std::vector<ItemId>& keys, int64_t* sum) {
    *sum = 0;
    for (const ItemId& k : keys) {
      Result<Value> v = txn.GetScalar(k);
      if (!v.ok() || !v.value().is_int()) return false;
      *sum += v.value().AsInt();
    }
    return txn.Commit().ok();
  }

  /// Engine counters common to every workload.
  static void AddEngineStats(Totals& t, const critique::EngineStats& st) {
    t.Add("engine.commits", double(st.commits));
    t.Add("engine.aborts", double(st.total_aborts()));
    t.Add("engine.deadlock_aborts", double(st.deadlock_aborts));
    t.Add("engine.fcw_aborts", double(st.fcw_aborts));
    t.Add("engine.finished", double(st.finished_txns()));
  }

  static void AddStorage(Totals& t, const critique::Engine& e) {
    const critique::VersionGcStats gc = e.version_gc_stats();
    t.Add("storage.gc_runs", double(gc.runs));
    t.Add("storage.collected", double(gc.collected));
    t.Add("storage.versions", double(e.VersionCount()));
    t.Max("storage.max_chain", double(e.MaxVersionChainLength()));
  }

  static void AddHistory(Totals& t, const critique::Database& db, bool traced) {
    t.Add("history.actions", double(db.history().size()));
    if (!traced) return;
    const uint64_t before = HeapInUse();
    critique::History copy = db.HistorySnapshot();
    t.Add("history.bytes", double(HeapInUse() - before));
  }

  Spec spec_;
  uint64_t seed_;
  Zipf zipf_;
  std::vector<ItemId> keys_;
  std::vector<int64_t> initial_;
  int64_t initial_sum_ = 0;
};

/// SI, 100k rows, 8 point ops per transaction with 10% increments, 1
/// client, watermark GC every 64 commits: the storage layer's workload.
class ReadMostly : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    DbOptions o(IsolationLevel::kSnapshotIsolation);
    o.version_gc = critique::VersionGcMode::kWatermark;
    o.retry_policy = Backoff();
    db_ = std::make_unique<critique::Database>(o);
    for (uint32_t i = 0; i < spec_.rows; ++i) {
      MustOk(db_->Load(keys_[i], Value(initial_[i])), "load");
    }
  }

  TxnInput Generate(Rng& rng) const override {
    TxnInput in;
    in.nops = 8;
    for (int i = 0; i < 8; ++i) {
      in.rows[i] = uint32_t(zipf_.Next(rng));
      if (rng.Below(10) == 0) in.rmw |= uint8_t(1u << i);
    }
    return in;
  }

  Status Execute(const TxnInput& in, Client& c) override {
    Status s = db_->Execute([&](Transaction& txn) -> Status {
      ++c.attempts;
      c.last_txn = txn.id();
      for (int i = 0; i < in.nops; ++i) {
        const ItemId& k = keys_[in.rows[i]];
        Result<Value> v = Timed(c, kGet, [&] { return txn.GetScalar(k); });
        if (!v.ok()) return v.status();
        if ((in.rmw >> i) & 1) {
          Status w = Timed(c, kPut,
                           [&] { return txn.Put(k, Value(v.value().AsInt() + 1)); });
          if (!w.ok()) return w;
        }
      }
      return TimedCommit(c, txn);
    });
    if (s.ok()) c.increments += uint64_t(__builtin_popcount(in.rmw));
    return s;
  }

  uint64_t GcRuns() const override {
    return db_->engine().version_gc_stats().runs;
  }

  void Collect(Totals& t, bool traced) override {
    AddEngineStats(t, db_->StatsSnapshot());
    AddStorage(t, db_->engine());
    t.Add("storage.rows", double(spec_.rows));
    AddHistory(t, *db_, traced);
    stats_ = db_->StatsSnapshot();
  }

  void Verify(Totals&, Checks& checks, uint64_t committed, uint64_t attempts,
              uint64_t increments) override {
    int64_t sum = 0;
    checks.Expect("sum_read", SumRows(db_->Begin(), keys_, &sum));
    checks.Expect("sum_equals_initial_plus_increments",
                  sum == initial_sum_ + int64_t(increments));
    checks.Expect("engine_commits_match_client", stats_.commits == committed);
    checks.Expect("engine_finished_match_attempts",
                  stats_.finished_txns() == attempts);
    checks.Expect("max_chain_length_bounded",
                  db_->engine().MaxVersionChainLength() <= 2 * 64 + 1);
  }

  void Teardown() override { db_.reset(); }

 private:
  std::unique_ptr<critique::Database> db_;
  critique::EngineStats stats_;
};

/// Locking SERIALIZABLE in blocking mode, 100k rows, Zipf 0.99 two-account
/// transfers, 2 clients: the lock layer's workload.
class TransferSer : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    DbOptions o(IsolationLevel::kSerializable);
    o.mode = critique::ConcurrencyMode::kBlocking;
    o.retry_policy = Backoff();
    db_ = std::make_unique<critique::Database>(o);
    for (uint32_t i = 0; i < spec_.rows; ++i) {
      MustOk(db_->Load(keys_[i], Value(initial_[i])), "load");
    }
  }

  TxnInput Generate(Rng& rng) const override {
    TxnInput in;
    in.nops = 2;
    in.rows[0] = uint32_t(zipf_.Next(rng));
    do {
      in.rows[1] = uint32_t(zipf_.Next(rng));
    } while (in.rows[1] == in.rows[0]);
    in.amount = 1 + int64_t(rng.Below(10));
    return in;
  }

  Status Execute(const TxnInput& in, Client& c) override {
    return db_->Execute(
        [&](Transaction& txn) { return Transfer(txn, in, c); });
  }

  void Collect(Totals& t, bool traced) override {
    stats_ = db_->StatsSnapshot();
    AddEngineStats(t, stats_);
    AddHistory(t, *db_, traced);
    const auto& reg = db_->metrics();
    t.Add("lock.acquired", double(Gauge(reg, "engine.lock.acquired")));
    t.Add("lock.blocked", double(Gauge(reg, "engine.lock.blocked")));
    t.Add("lock.deadlocks", double(Gauge(reg, "engine.lock.deadlocks")));
    t.Add("lock.timeouts", double(Gauge(reg, "engine.lock.timeouts")));
    const auto wait = Hist(reg, "engine.lock.wait_us");
    t.Add("lock.wait_sum_us", double(wait.sum));
    t.Add("lock.wait_count", double(wait.count));
  }

  void Verify(Totals&, Checks& checks, uint64_t committed, uint64_t attempts,
              uint64_t) override {
    // The clients have stopped, so a Read Committed scan reads the same sum
    // as a serializable one, without 100k long read locks (about 6x faster).
    int64_t sum = 0;
    Result<Transaction> scan =
        db_->Begin(critique::BeginOptions{IsolationLevel::kReadCommitted});
    checks.Expect("sum_read",
                  scan.ok() && SumRows(std::move(scan).value(), keys_, &sum));
    checks.Expect("transfer_sum_preserved", sum == initial_sum_);
    checks.Expect("engine_commits_match_client", stats_.commits == committed);
    checks.Expect("engine_finished_match_attempts",
                  stats_.finished_txns() == attempts);
  }

  void Teardown() override { db_.reset(); }

 private:
  std::unique_ptr<critique::Database> db_;
  critique::EngineStats stats_;
};

/// 2 SI shards with per-shard WALs and the persistent decision log, group
/// commit over a simulated 100 us device, online checker, watermark GC;
/// half the transfers cross shards.  The commit path's workload.
class TransferShardedDurable : public Workload {
 public:
  TransferShardedDurable(const Spec& spec, uint64_t seed,
                         std::string work_dir)
      : Workload(spec, seed), wal_dir_(std::move(work_dir) + "/wal") {
    critique::ShardRouter router(kShards);
    for (uint32_t i = 0; i < spec.rows; ++i) {
      by_shard_[router.ShardOf(keys_[i])].push_back(i);
    }
    for (int s = 0; s < kShards; ++s) {
      shard_zipf_.emplace_back(by_shard_[s].size(), spec.theta, seed + 1 + s);
    }
  }

  void Setup() override {
    std::filesystem::remove_all(wal_dir_);
    db_ = std::make_unique<ShardedDatabase>(Options());
    for (uint32_t i = 0; i < spec_.rows; ++i) {
      MustOk(db_->Load(keys_[i], Value(initial_[i])), "load");
    }
  }

  TxnInput Generate(Rng& rng) const override {
    TxnInput in;
    in.nops = 2;
    in.rows[0] = uint32_t(zipf_.Next(rng));
    const int from_shard = ShardOfRow(in.rows[0]);
    const int to_shard = rng.Below(2) == 0 ? 1 - from_shard : from_shard;
    const std::vector<uint32_t>& rows = by_shard_[to_shard];
    do {
      in.rows[1] = rows[shard_zipf_[to_shard].Next(rng)];
    } while (in.rows[1] == in.rows[0]);
    in.amount = 1 + int64_t(rng.Below(10));
    return in;
  }

  Status Execute(const TxnInput& in, Client& c) override {
    return db_->Execute(
        [&](ShardedTransaction& txn) { return Transfer(txn, in, c); });
  }

  uint64_t GcRuns() const override {
    uint64_t runs = 0;
    for (int s = 0; s < kShards; ++s) {
      runs += db_->shard(s).engine().version_gc_stats().runs;
    }
    return runs;
  }

  void Collect(Totals& t, bool traced) override {
    stats_ = db_->StatsAggregate();
    AddEngineStats(t, stats_);
    for (int s = 0; s < kShards; ++s) {
      critique::Database& shard = db_->shard(s);
      AddStorage(t, shard.engine());
      AddHistory(t, shard, traced);
      AddLog(t, *shard.wal());
      const auto fsync = Hist(shard.metrics(), "wal.fsync_us");
      t.Add("wal.fsync_sum_us", double(fsync.sum));
      t.Add("wal.fsync_count", double(fsync.count));
    }
    t.Add("storage.rows", double(spec_.rows));
    AddLog(t, *db_->coordinator_log());
    const critique::check::CheckerReport rep = db_->CheckerReportAggregate();
    t.Add("check.certified", double(rep.commits_certified));
    t.Add("check.violations", double(rep.violations));
    t.Add("check.edges", double(rep.edges_added));
    t.Add("check.cycle_checks", double(rep.cycle_checks));
    t.Max("check.peak_live_nodes", double(rep.peak_live_nodes));
    certified_ = rep.commits_certified;
    violations_ = rep.violations;
    const critique::CoordinatorStats cs = db_->coordinator().stats();
    t.Add("shard.cross_commits", double(cs.committed));
    t.Add("shard.single_commits", double(db_->single_shard_commits()));
    const auto prep = db_->coordinator().prepare_histogram().Snapshot();
    const auto dec = db_->coordinator().decision_histogram().Snapshot();
    t.Add("shard.prepare_sum_us", double(prep.sum));
    t.Add("shard.prepare_count", double(prep.count));
    t.Add("shard.decision_sum_us", double(dec.sum));
    t.Add("shard.decision_count", double(dec.count));
  }

  void Verify(Totals& t, Checks& checks, uint64_t, uint64_t,
              uint64_t) override {
    int64_t sum = 0;
    checks.Expect("sum_read", SumRows(db_->Begin(), keys_, &sum));
    checks.Expect("transfer_sum_preserved", sum == initial_sum_);
    checks.Expect("checker_certified_every_commit",
                  certified_ == stats_.commits);
    checks.Expect("checker_zero_violations", violations_ == 0);

    // Clean shutdown, then restart recovery from the logs.  The sum read
    // above committed on both shards through 2PC, so it is logged too.
    const uint64_t commits_at_close = db_->StatsAggregate().commits;
    db_.reset();
    t.Add("wal.log_bytes", double(LogBytes()) - double(load_log_bytes_));
    const int64_t t0 = NowNs();
    auto recovered = ShardedDatabase::Recover(Options());
    const double recovery_s = double(NowNs() - t0) * 1e-9;
    checks.Expect("recovery_ok", recovered.ok());
    if (!recovered.ok()) return;
    db_ = std::move(recovered).value();
    t.Add("wal.recovery_s", recovery_s);
    uint64_t replayed = 0, records = 0;
    for (int s = 0; s < kShards; ++s) {
      replayed += db_->shard(s).wal_recovery().committed_replayed;
      records += db_->shard(s).wal_recovery().records;
    }
    t.Add("wal.replay_records", double(records));
    checks.Expect("recovery_replayed_every_commit", replayed == commits_at_close);
    const ShardedDatabase::RecoveryReport in_doubt = db_->RecoverInDoubt();
    checks.Expect("recovery_nothing_in_doubt",
                  in_doubt.committed + in_doubt.aborted == 0);
    int64_t recovered_sum = 0;
    checks.Expect("recovered_sum_read", SumRows(db_->Begin(), keys_, &recovered_sum));
    checks.Expect("recovered_sum_preserved", recovered_sum == initial_sum_);
  }

  void Teardown() override {
    db_.reset();
    std::filesystem::remove_all(wal_dir_);
  }

  /// Log bytes a set-up alone leaves (the bootstrap load records), so the
  /// per-transaction log size counts traffic only.
  void MeasureLoadLogBytes() {
    Setup();
    db_.reset();
    load_log_bytes_ = LogBytes();
    Teardown();
  }

 private:
  static constexpr int kShards = 2;

  ShardedDbOptions Options() const {
    ShardedDbOptions o(kShards, IsolationLevel::kSnapshotIsolation);
    o.shard_options.mode = critique::ConcurrencyMode::kBlocking;
    o.shard_options.version_gc = critique::VersionGcMode::kWatermark;
    o.shard_options.group_commit = true;
    o.shard_options.fsync_mode = critique::FsyncMode::kSimulated;
    o.shard_options.fsync_latency = std::chrono::microseconds(100);
    o.shard_options.online_check = true;
    o.seed = seed_;
    o.retry_policy = Backoff();
    o.wal_dir = wal_dir_;
    return o;
  }

  int ShardOfRow(uint32_t row) const {
    return critique::ShardRouter(kShards).ShardOf(keys_[row]);
  }

  uint64_t LogBytes() const {
    uint64_t bytes = 0;
    for (const auto& e : std::filesystem::directory_iterator(wal_dir_)) {
      if (e.is_regular_file()) bytes += e.file_size();
    }
    return bytes;
  }

  static void AddLog(Totals& t, const critique::CommitLog& log) {
    const critique::GroupCommitStats g = log.stats();
    t.Add("wal.appends", double(g.appends));
    t.Add("wal.syncs", double(g.syncs));
    t.Add("wal.sync_waits", double(g.sync_waits));
  }

  std::string wal_dir_;
  std::vector<uint32_t> by_shard_[kShards];
  std::vector<Zipf> shard_zipf_;
  std::unique_ptr<ShardedDatabase> db_;
  critique::EngineStats stats_;
  uint64_t certified_ = 0;
  uint64_t violations_ = 0;
  uint64_t load_log_bytes_ = 0;
};

// --- the closed loop ----------------------------------------------------------

/// Everything one phase (a run of segments) measured.  End-to-end
/// metrics are medians over segments of the per-segment values, except
/// setup_s (see kSetupsPerSegment).
struct Phase {
  int segments = 0;
  std::vector<double> setup_s;       ///< kSetupsPerSegment per segment
  std::vector<double> seg_tps;       ///< committed / segment wall time
  std::vector<double> seg_p50_us;
  std::vector<double> seg_p99_us;
  std::vector<double> seg_cpu_us;    ///< CPU per committed transaction
  std::vector<double> seg_retained;  ///< heap growth per committed txn
  double wall_s = 0;
  Usage usage;  ///< summed over timed intervals
  std::vector<Span> spans;  ///< traced phases only
  uint64_t executes = 0, committed = 0, failed = 0, attempts = 0;
  Totals totals;
  Checks checks;
};

/// The q-quantile of `v` by nearest rank.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[size_t(q * double(v.size() - 1) + 0.5)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (sorted in place).
int64_t Percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
  rank = std::max<size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void RunClient(Workload& w, Client& c, std::atomic<uint64_t>& tickets,
               uint64_t limit) {
  while (tickets.fetch_add(1, std::memory_order_relaxed) < limit) {
    const int64_t g0 = c.traced ? NowNs() : 0;
    const TxnInput in = w.Generate(c.rng);
    const size_t first_span = c.spans.size();
    if (c.traced) c.spans.push_back(Span{0, kGen, 0, g0, NowNs()});
    const int64_t t0 = NowNs();
    Status s = w.Execute(in, c);
    const int64_t t1 = NowNs();
    ++c.executes;
    if (s.ok()) {
      ++c.committed;
      c.latency_ns.push_back(t1 - t0);
    } else {
      ++c.failed;
      c.latency_ns.push_back(kFailedLatency);
    }
    if (c.traced) {
      for (size_t i = first_span; i < c.spans.size(); ++i) {
        c.spans[i].txn = c.last_txn;
      }
      c.spans.push_back(Span{c.last_txn, kExecute, 0, t0, t1});
    }
  }
}

/// Set-ups per segment, all timed; traffic runs on the last one.  One
/// set-up takes 6-70 ms, and on a shared host its CPU time flips between
/// two modes up to 1.7x apart (most likely the vCPU's core busy with a
/// neighbour or not) for tenths of a second at a time, in a mix that
/// drifts over minutes.  The median and the mean of the samples follow that mix, so
/// setup_s is their 10th percentile: the set-up's cost when the host
/// leaves the core alone.  More set-up work still moves every sample.
constexpr int kSetupsPerSegment = 3;

/// Runs segments until `seconds` of timed traffic have run.
Phase RunPhase(Workload& w, std::vector<Client>& clients, double seconds,
               bool traced, uint64_t segment_txns) {
  Phase p;
  for (Client& c : clients) c.traced = traced;
  do {
    for (int i = 0; i < kSetupsPerSegment; ++i) {
      if (i > 0) w.Teardown();
      const int64_t s0 = NowNs();
      w.Setup();
      p.setup_s.push_back(double(NowNs() - s0) * 1e-9);
    }
    ++p.segments;
    for (Client& c : clients) {
      c.latency_ns.clear();
      c.latency_ns.reserve(segment_txns);
      c.spans.clear();
      if (traced) c.spans.reserve(segment_txns * 24 / clients.size());
      c.executes = c.committed = c.failed = c.attempts = c.increments = 0;
    }

    std::atomic<uint64_t> tickets{0};
    const uint64_t heap0 = HeapInUse();
    const Usage u0 = ReadUsage();
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> threads;
      for (Client& c : clients) {
        threads.emplace_back(RunClient, std::ref(w), std::ref(c),
                             std::ref(tickets), segment_txns);
      }
      for (std::thread& t : threads) t.join();
    }
    const int64_t t1 = NowNs();
    const Usage u1 = ReadUsage();
    const uint64_t heap1 = HeapInUse();

    const double wall_s = double(t1 - t0) * 1e-9;
    p.wall_s += wall_s;
    p.usage.user_s += u1.user_s - u0.user_s;
    p.usage.sys_s += u1.sys_s - u0.sys_s;
    p.usage.vol_csw += u1.vol_csw - u0.vol_csw;
    p.usage.minflt += u1.minflt - u0.minflt;

    uint64_t committed = 0, attempts = 0, increments = 0;
    std::vector<int64_t> latency_ns;
    latency_ns.reserve(segment_txns);
    for (Client& c : clients) {
      committed += c.committed;
      attempts += c.attempts;
      increments += c.increments;
      p.executes += c.executes;
      p.failed += c.failed;
      latency_ns.insert(latency_ns.end(), c.latency_ns.begin(),
                        c.latency_ns.end());
      p.spans.insert(p.spans.end(), c.spans.begin(), c.spans.end());
    }
    const double cpu_us =
        (u1.user_s - u0.user_s + u1.sys_s - u0.sys_s) * 1e6;
    p.seg_tps.push_back(Ratio(double(committed), wall_s));
    p.seg_p50_us.push_back(double(Percentile(latency_ns, 50)) / 1e3);
    p.seg_p99_us.push_back(double(Percentile(latency_ns, 99)) / 1e3);
    p.seg_cpu_us.push_back(Ratio(cpu_us, double(committed)));
    p.seg_retained.push_back(
        Ratio(double(heap1) - double(heap0), double(committed)));
    p.committed += committed;
    p.attempts += attempts;
    w.Collect(p.totals, traced);
    w.Verify(p.totals, p.checks, committed, attempts, increments);
    w.Teardown();
  } while (p.wall_s < seconds);
  return p;
}

// --- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Phase& p) {
  return {
      {"setup_s", Quantile(p.setup_s, 0.1), "s"},
      {"throughput_tps", Median(p.seg_tps), "1/s"},
      {"latency_p50_us", Median(p.seg_p50_us), "us"},
      {"latency_p99_us", Median(p.seg_p99_us), "us"},
      {"retained_bytes_per_txn", Median(p.seg_retained), "B"},
  };
}

/// Per-layer metrics of a traced phase; `untraced_tps` is the throughput
/// of the untraced phase of the same run (tracing overhead).
std::vector<Metric> PerLayer(const Phase& p, int clients, double untraced_tps) {
  const Totals& t = p.totals;
  const double commits = double(p.committed);         // global transactions
  const double engine_commits = t.Get("engine.commits");  // per participant
  const double k = 1000.0;

  // Span aggregates.  Children (get/put/commit) precede their root in each
  // client's stream; gen spans are siblings of the root, not children.
  double read_sum = 0, read_n = 0, write_sum = 0, write_n = 0;
  double commit_sum = 0, commit_n = 0, self_sum = 0, root_n = 0;
  double gen_sum = 0, gen_n = 0;
  double gc_sum = 0, gc_n = 0, plain_sum = 0, plain_n = 0;
  double cross_sum = 0, cross_n = 0, single_sum = 0, single_n = 0;
  std::vector<int64_t> commit_ns;
  double child_ns = 0;
  for (const Span& s : p.spans) {
    const double d = double(s.end_ns - s.start_ns);
    switch (s.kind) {
      case kGen:
        gen_sum += d, ++gen_n;
        break;
      case kGet:
        read_sum += d, ++read_n, child_ns += d;
        break;
      case kPut:
        write_sum += d, ++write_n, child_ns += d;
        break;
      case kCommit:
        commit_sum += d, ++commit_n, child_ns += d;
        commit_ns.push_back(s.end_ns - s.start_ns);
        if (s.flags & kGcRan) {
          gc_sum += d, ++gc_n;
        } else {
          plain_sum += d, ++plain_n;
        }
        if (s.flags & kCrossShard) {
          cross_sum += d, ++cross_n;
        } else {
          single_sum += d, ++single_n;
        }
        break;
      case kExecute:
        self_sum += d - child_ns, ++root_n;
        child_ns = 0;
        break;
    }
  }
  const bool sharded = t.Get("shard.cross_commits") + t.Get("shard.single_commits") > 0;
  const double gc_mean = Ratio(gc_sum, gc_n);
  const double plain_mean = Ratio(plain_sum, plain_n);
  const double client_ns = p.wall_s * 1e9 * double(clients);
  const double cpu_s = p.usage.user_s + p.usage.sys_s;
  const double tps = Median(p.seg_tps);
  const double wal_syncs = t.Get("wal.syncs");
  const double recovery_s = t.Get("wal.recovery_s");
  const double segments = double(p.segments);

  return {
      {"db.read_ns", Ratio(read_sum, read_n), "ns"},
      {"db.write_ns", Ratio(write_sum, write_n), "ns"},
      {"db.commit_ns", Ratio(commit_sum, commit_n), "ns"},
      {"db.commit_p99_us", double(Percentile(commit_ns, 99)) / 1e3, "us"},
      {"db.execute_self_ns", Ratio(self_sum, root_n), "ns"},
      {"db.retries_per_ktxn", Ratio(double(p.attempts - p.executes) * k, commits),
       "1/ktxn"},

      {"engine.aborts_per_ktxn", Ratio(t.Get("engine.aborts") * k, engine_commits),
       "1/ktxn"},
      {"engine.deadlock_aborts_per_ktxn",
       Ratio(t.Get("engine.deadlock_aborts") * k, engine_commits), "1/ktxn"},
      {"engine.fcw_aborts_per_ktxn",
       Ratio(t.Get("engine.fcw_aborts") * k, engine_commits), "1/ktxn"},
      {"engine.useful_ratio", Ratio(engine_commits, t.Get("engine.finished")),
       "ratio"},

      {"lock.acquired_per_txn", Ratio(t.Get("lock.acquired"), commits), "count"},
      {"lock.blocked_per_ktxn", Ratio(t.Get("lock.blocked") * k, commits),
       "1/ktxn"},
      {"lock.wait_us_mean",
       Ratio(t.Get("lock.wait_sum_us"), t.Get("lock.wait_count")), "us"},
      {"lock.deadlocks_per_ktxn", Ratio(t.Get("lock.deadlocks") * k, commits),
       "1/ktxn"},
      {"lock.timeouts", t.Get("lock.timeouts"), "count"},

      {"storage.gc_passes_per_ktxn", Ratio(t.Get("storage.gc_runs") * k, commits),
       "1/ktxn"},
      {"storage.gc_commit_us", gc_mean / 1e3, "us"},
      {"storage.plain_commit_us", plain_mean / 1e3, "us"},
      {"storage.gc_time_share",
       gc_n == 0 ? 0.0 : Ratio(gc_n * (gc_mean - plain_mean), client_ns),
       "ratio"},
      {"storage.versions_per_item",
       Ratio(t.Get("storage.versions"), t.Get("storage.rows")), "count"},
      {"storage.max_chain_length", t.Get("storage.max_chain"), "count"},
      {"storage.collected_per_txn", Ratio(t.Get("storage.collected"), commits),
       "count"},

      {"history.actions_per_txn", Ratio(t.Get("history.actions"), commits),
       "count"},
      {"history.bytes_per_txn", Ratio(t.Get("history.bytes"), commits), "B"},

      {"check.certified_per_commit",
       Ratio(t.Get("check.certified"), sharded ? engine_commits : 0), "ratio"},
      {"check.edges_per_txn", Ratio(t.Get("check.edges"), commits), "count"},
      {"check.cycle_checks_per_ktxn",
       Ratio(t.Get("check.cycle_checks") * k, commits), "1/ktxn"},
      {"check.peak_live_nodes", t.Get("check.peak_live_nodes"), "count"},
      {"check.violations", t.Get("check.violations"), "count"},

      {"wal.syncs_per_commit", Ratio(wal_syncs, commits), "count"},
      {"wal.records_per_sync", Ratio(t.Get("wal.appends"), wal_syncs), "count"},
      {"wal.sync_waits_per_commit", Ratio(t.Get("wal.sync_waits"), commits),
       "count"},
      {"wal.fsync_us_mean",
       Ratio(t.Get("wal.fsync_sum_us"), t.Get("wal.fsync_count")), "us"},
      {"wal.replay_records_per_s", Ratio(t.Get("wal.replay_records"), recovery_s),
       "1/s"},
      {"wal.recovery_s", sharded ? recovery_s / segments : 0.0, "s"},
      {"wal.log_bytes_per_txn", Ratio(t.Get("wal.log_bytes"), commits), "B"},

      {"shard.cross_shard_share",
       Ratio(t.Get("shard.cross_commits"),
             t.Get("shard.cross_commits") + t.Get("shard.single_commits")),
       "ratio"},
      {"shard.cross_commit_us", sharded ? Ratio(cross_sum, cross_n) / 1e3 : 0.0,
       "us"},
      {"shard.single_commit_us",
       sharded ? Ratio(single_sum, single_n) / 1e3 : 0.0, "us"},
      {"shard.prepare_us_mean",
       Ratio(t.Get("shard.prepare_sum_us"), t.Get("shard.prepare_count")), "us"},
      {"shard.decision_us_mean",
       Ratio(t.Get("shard.decision_sum_us"), t.Get("shard.decision_count")),
       "us"},

      {"process.cpu_us_per_txn", Median(p.seg_cpu_us), "us"},
      {"process.sys_cpu_share", Ratio(p.usage.sys_s, cpu_s), "ratio"},
      {"process.vol_ctx_switches_per_txn", Ratio(p.usage.vol_csw, commits),
       "count"},
      {"process.minor_faults_per_txn", Ratio(p.usage.minflt, commits), "count"},
      {"process.tracing_overhead", Ratio(tps, untraced_tps), "ratio"},

      {"bench.gen_ns_per_txn", Ratio(gen_sum, gen_n), "ns"},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "txn,span,parent,start_ns,end_ns\n";
  for (const Span& s : spans) {
    const char* parent =
        s.kind == kExecute || s.kind == kGen ? "" : kSpanNames[kExecute];
    out << s.txn << ',' << kSpanNames[s.kind] << ',' << parent << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

// --- main -----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_out;
  uint64_t segment_txns = 0;  ///< 0 = the workload's default
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else if (flag == "--segment-txns") {
      a->segment_txns = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans-out FILE] "
                 "[--segment-txns K]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : Specs()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t segment_txns =
      args.segment_txns > 0 ? args.segment_txns : spec->segment_txns;

  std::unique_ptr<Workload> w;
  if (spec->name == "readmostly_si_100k_1c") {
    w = std::make_unique<ReadMostly>(*spec, args.seed);
  } else if (spec->name == "transfer_ser_100k_2c") {
    w = std::make_unique<TransferSer>(*spec, args.seed);
  } else {
    auto sharded = std::make_unique<TransferShardedDurable>(*spec, args.seed,
                                                            args.work_dir);
    sharded->MeasureLoadLogBytes();
    w = std::move(sharded);
  }
  std::vector<Client> clients;
  for (int i = 0; i < spec->clients; ++i) {
    clients.emplace_back(args.seed * 0x100000001B3ULL + uint64_t(i) + 1);
  }
  // Warm-up: one untimed half-size segment, so the first timed one is not
  // the allocator's and the caches' cold start.  Its checks still count.
  const Phase warmup =
      RunPhase(*w, clients, 0, false, std::max<uint64_t>(1, segment_txns / 2));

  std::vector<Metric> metrics;
  Phase measured;
  std::vector<const Phase*> others = {&warmup};
  Phase untraced;
  if (!args.trace) {
    measured = RunPhase(*w, clients, args.seconds, false, segment_txns);
    metrics = EndToEnd(measured);
  } else {
    untraced = RunPhase(*w, clients, args.seconds / 2, false, segment_txns);
    measured = RunPhase(*w, clients, args.seconds / 2, true, segment_txns);
    metrics = PerLayer(measured, spec->clients, Median(untraced.seg_tps));
    others.push_back(&untraced);
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, measured.spans);
  }
  // Every Execute of the run counts as attempted, warm-up included.
  for (const Phase* o : others) {
    measured.executes += o->executes;
    measured.failed += o->failed;
    measured.attempts += o->attempts;
    for (const auto& kv : o->checks.map()) {
      measured.checks.Expect(kv.first, kv.second);
    }
  }

  // Human-readable report.
  std::fprintf(stderr, "workload %s seed %llu: %d segment(s) of %llu txns, "
               "%.3f s timed, %llu Execute calls, %llu failed\n",
               spec->name.c_str(), (unsigned long long)args.seed,
               measured.segments, (unsigned long long)segment_txns,
               measured.wall_s, (unsigned long long)measured.executes,
               (unsigned long long)measured.failed);
  std::fprintf(stderr, "  committed/s by segment:");
  for (double v : measured.seg_tps) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n  set-up ms by segment:");
  for (double v : measured.setup_s) std::fprintf(stderr, " %.1f", v * 1e3);
  std::fprintf(stderr, "\n");
  if (!args.trace) {
    std::fprintf(stderr,
                 "  setup_s: p10 of %zu set-ups; the rest: median over %d "
                 "segments; latency percentiles per segment over %llu "
                 "samples (%llu beyond p99)\n",
                 measured.setup_s.size(), measured.segments,
                 (unsigned long long)segment_txns,
                 (unsigned long long)(segment_txns / 100));
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& kv : measured.checks.map()) {
    std::fprintf(stderr, "  check %-40s %s\n", kv.first.c_str(),
                 kv.second ? "ok" : "FAILED");
  }

  // Machine-readable result.
  std::ostringstream js;
  js << "{\"workload\":" << JsonString(spec->name)
     << ",\"provenance\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":" << JsonString(CpuModel())
     << ",\"l2_cache\":" << JsonString(CacheSize(2))
     << ",\"l3_cache\":" << JsonString(CacheSize(3))
     << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"seed\":" << args.seed << ",\"rows\":" << spec->rows
     << ",\"clients\":" << spec->clients << ",\"theta\":" << spec->theta
     << ",\"segment_txns\":" << segment_txns
     << ",\"segments\":" << measured.segments << "}"
     << ",\"attempted\":" << measured.executes
     << ",\"failed\":" << measured.failed
     << ",\"retries\":" << (measured.attempts - measured.executes)
     << ",\"checks\":{";
  bool first = true;
  for (const auto& kv : measured.checks.map()) {
    js << (first ? "" : ",") << JsonString(kv.first) << ":"
       << (kv.second ? "true" : "false");
    first = false;
  }
  js << "},\"metrics\":{";
  first = true;
  for (const Metric& m : metrics) {
    js << (first ? "" : ",") << JsonString(m.name) << ":{\"value\":"
       << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return measured.checks.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
