#ifndef CRITIQUE_OBS_METRICS_H_
#define CRITIQUE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace critique {
namespace obs {

/// \brief Always-on measurement substrate: sharded counters, log2 latency
/// histograms, and a registry that exports them as JSON or text.
///
/// Everything here is built for the hot path: `Counter::Add` and
/// `Histogram::Record` are one relaxed atomic RMW on a per-thread shard
/// (plus a relaxed max probe for histograms), no locks, no allocation.
/// Reads (`Value`, `Snapshot`) sum the shards; they are monotonic but not
/// a consistent cut — exactly the right trade for monitoring counters.
///
/// The global enable switch exists so the overhead of the instrumentation
/// itself can be measured A/B on one binary (`bench_obs`): recording
/// checks it with one relaxed load and becomes a no-op when off.  It is
/// process-global and meant to be flipped only between runs, not
/// concurrently with them.

/// Flips the process-global recording switch (default: on).
void SetMetricsEnabled(bool enabled);

/// Current state of the recording switch (one relaxed load).
bool MetricsEnabled();

namespace internal {
/// Round-robin thread shard index, assigned on first use per thread.
/// Two threads may share a shard past `kShards` — correctness never
/// depends on exclusivity, only contention does.
size_t ThreadShardIndex();
constexpr size_t kShards = 16;
}  // namespace internal

/// A monotonic counter sharded across cache lines so concurrent writers
/// from different threads do not bounce one hot line.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (MetricsEnabled()) AddAlways(n);
  }

  /// `Add` regardless of the global switch: for counters that are program
  /// state rather than monitoring (`EngineStats`), which must keep
  /// counting while a disarmed run is measured.
  void AddAlways(uint64_t n = 1) {
    shards_[internal::ThreadShardIndex() % internal::kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards (relaxed; monotonic, not a consistent cut).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, internal::kShards> shards_{};
};

/// Point-in-time view of a `Histogram`; percentiles are computed from the
/// bucket counts (each answer is the inclusive upper bound of the bucket
/// the requested rank falls into, so reported percentiles are
/// conservative: never below the true value, at most one power of two
/// above it).
struct HistogramSnapshot {
  /// Bucket b counts values v with 2^(b-1) <= v < 2^b (bucket 0: v == 0).
  static constexpr size_t kBuckets = 48;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Value at percentile `p` in [0, 100]; 0 when empty.
  uint64_t Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

/// Fixed-bucket log2 histogram for latencies (microseconds by convention).
/// 48 buckets cover [0, 2^47) — two-plus days in microseconds, with no
/// branch on range in the record path (values are clamped into the last
/// bucket).
class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(uint64_t value) {
    if (!MetricsEnabled()) return;
    Shard& s = shards_[internal::ThreadShardIndex() % internal::kShards];
    s.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value && !max_.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

  /// log2 bucket index: 0 for 0, else floor(log2(v)) + 1, clamped.
  static size_t BucketOf(uint64_t v) {
    if (v == 0) return 0;
    size_t b = 64 - static_cast<size_t>(__builtin_clzll(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `b` (what `Percentile` reports).
  static uint64_t BucketUpperBound(size_t b) {
    return b == 0 ? 0 : (uint64_t{1} << b) - 1;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, internal::kShards> shards_{};
  std::atomic<uint64_t> max_{0};
};

/// Records elapsed wall time (microseconds, steady clock) into a histogram
/// when destroyed.  The clock is only read when metrics are enabled, so a
/// disabled build point costs two relaxed loads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : hist_(&h), armed_(MetricsEnabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!armed_) return;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// One exported metric in a `MetricsRegistry::Collect` snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t value = 0;           ///< counters and gauges
  HistogramSnapshot histogram;  ///< histograms only
};

/// \brief Name -> instrument catalog with JSON and text export.
///
/// The registry stores *pointers* to instruments owned elsewhere (the
/// lock manager owns its wait histogram, the WAL its fsync histogram, and
/// so on); registration is cold-path and mutex-guarded, recording never
/// touches the registry at all.  Owners whose lifetime is shorter than
/// the registry's (e.g. a `SessionExecutor`) must `Unregister` their
/// prefix before dying.
class MetricsRegistry {
 public:
  void RegisterCounter(std::string name, const Counter* c);
  void RegisterHistogram(std::string name, const Histogram* h);
  /// A gauge is sampled through `fn` at collect time (e.g. a queue depth
  /// read from an atomic, or a field of a stats snapshot).
  void RegisterGauge(std::string name, std::function<uint64_t()> fn);

  /// Removes every entry whose name starts with `prefix`.
  void Unregister(const std::string& prefix);

  /// Samples every registered instrument, sorted by name.
  std::vector<MetricSample> Collect() const;

  /// {"name": value, ..., "hist": {"count":..,"p50":..,...}, ...}
  std::string ToJson() const;

  /// One metric per line, histograms with count/mean/p50/p95/p99/max.
  std::string ToText() const;

 private:
  struct Entry {
    std::string name;
    MetricSample::Kind kind;
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
    std::function<uint64_t()> gauge;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace obs
}  // namespace critique

#endif  // CRITIQUE_OBS_METRICS_H_
