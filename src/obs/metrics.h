// Engine-wide observability: a lock-cheap metrics registry.
//
// The paper's central claim (Section 6) is that lineage-based storage
// keeps OLTP latency flat while merges and scans run concurrently —
// a claim one can only check with per-stage latency distributions, not
// averages. This registry is the engine's shared substrate for that:
//
//  - Counter: monotonically increasing, sharded 16-way over
//    cache-line-padded atomics so concurrent committers never contend
//    on one line. Add() is a single relaxed fetch_add on the caller's
//    thread-affine shard.
//  - Gauge: a point-in-time level (buffer-pool residency, epoch queue
//    depth). Single atomic; set from one place or via a snapshot-time
//    collector.
//  - Histogram: fixed-bucket log-scale latency distribution. Buckets
//    cover [0, 2^62) with <= 25% relative width (4 sub-buckets per
//    power of two), so p50/p95/p99/p999 come out of a snapshot with
//    bounded error and NO per-record allocation or lock. Recording is
//    one relaxed fetch_add on a sharded bucket. A snapshot derives the
//    total count as the sum of its bucket counts — percentiles are
//    computed against that same sum, so a snapshot racing concurrent
//    Record()s can never observe torn percentiles (a quantile always
//    lies inside the snapshotted distribution).
//
// Registry handles are stable for the registry's lifetime: look a
// metric up once (GetCounter/GetGauge/GetHistogram), cache the
// pointer, and record through it forever. Lookup takes a mutex; the
// hot path never does.
//
// Snapshot() runs registered collectors first (cheap mirror-in
// callbacks for subsystems that keep their own counters, e.g. the
// buffer pool), then copies every metric into a MetricsSnapshot that
// renders as Prometheus exposition text or one JSON line.

#ifndef LSTORE_OBS_METRICS_H_
#define LSTORE_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lstore {

namespace obs_internal {
/// The next thread's slot, handed out round-robin so shards stay
/// balanced regardless of how the OS hands out thread ids.
unsigned NextThreadSlot();
/// Thread-affine shard index in [0, nshards): stable per thread, and
/// inline so that a Counter::Add on an operation's hot path costs one
/// thread-local load beside its fetch_add.
inline unsigned ShardIndex(unsigned nshards) {
  thread_local const unsigned slot = NextThreadSlot();
  return slot % nshards;
}
}  // namespace obs_internal

/// Monotonic counter, sharded to keep concurrent Add()s off one cache
/// line. value() sums the shards (racy reads are fine: each shard is
/// monotone, so the sum never goes backwards between calls).
class Counter {
 public:
  static constexpr unsigned kShards = 16;

  void Add(uint64_t delta) {
    shards_[obs_internal::ShardIndex(kShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time level. Signed: queue depths and deltas may dip.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Snapshot of one histogram: bucket counts plus derived stats. The
/// count is DERIVED (sum of buckets), so percentiles computed from it
/// are internally consistent even when the snapshot raced recordings.
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;        ///< per-bucket counts
  std::vector<uint64_t> upper_bounds;   ///< inclusive bucket upper bounds
  uint64_t count = 0;                   ///< sum of buckets
  uint64_t sum = 0;                     ///< sum of recorded values
  uint64_t max_bound = 0;               ///< upper bound of highest hit bucket

  /// Value at quantile q in [0, 1]: the upper bound of the bucket
  /// containing the q*count-th recording (0 when empty). Bounded
  /// overestimate: true value is within 25% below the returned bound.
  uint64_t Percentile(double q) const;
};

/// Fixed-bucket log-scale histogram. Values < 4 get exact buckets;
/// above that, each power of two splits into 4 sub-buckets, giving
/// <= 25% relative bucket width across the whole range. Bucket counts
/// are sharded 8-way; Record() is one relaxed fetch_add.
class Histogram {
 public:
  static constexpr unsigned kShards = 8;
  /// 4 exact buckets + 4 sub-buckets for each power of two 2..62.
  static constexpr unsigned kBuckets = 4 + 61 * 4;

  void Record(uint64_t v) {
    unsigned s = obs_internal::ShardIndex(kShards);
    shards_[s].buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    shards_[s].sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket index of value v (exposed for tests).
  static unsigned BucketIndex(uint64_t v) {
    if (v < 4) return static_cast<unsigned>(v);
    unsigned b = std::bit_width(v) - 1;           // 2 .. 63
    if (b > 62) b = 62;                           // clamp into last row
    unsigned sub = static_cast<unsigned>((v >> (b - 2)) & 3);
    return (b - 1) * 4 + sub;
  }

  /// Inclusive upper bound of bucket i (exposed for tests).
  static uint64_t BucketUpperBound(unsigned i) {
    if (i < 4) return i;
    unsigned b = i / 4 + 1;
    unsigned sub = i % 4;
    return ((4ull + sub + 1) << (b - 2)) - 1;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets];
    std::atomic<uint64_t> sum{0};
    Shard() {
      for (auto& x : buckets) x.store(0, std::memory_order_relaxed);
    }
  };
  Shard shards_[kShards];
};

/// One consistent copy of every registered metric, renderable as
/// Prometheus exposition text or a single JSON line. Histograms whose
/// name ends in `_ns` hold nanoseconds (the convention every timing
/// site follows).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name, help;
    uint64_t value;
  };
  struct GaugeEntry {
    std::string name, help;
    int64_t value;
  };
  struct HistogramEntry {
    std::string name, help;
    HistogramSnapshot hist;
  };
  std::vector<CounterEntry> counters;      ///< sorted by name
  std::vector<GaugeEntry> gauges;          ///< sorted by name
  std::vector<HistogramEntry> histograms;  ///< sorted by name

  const CounterEntry* FindCounter(const std::string& name) const;
  const GaugeEntry* FindGauge(const std::string& name) const;
  const HistogramEntry* FindHistogram(const std::string& name) const;

  /// Counter value by name (0 when absent) — the bench-friendly
  /// accessor for before/after deltas.
  uint64_t CounterValue(const std::string& name) const;
  /// Gauge value by name (0 when absent).
  int64_t GaugeValue(const std::string& name) const;

  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges as plain samples, histograms as summaries with
  /// quantile="0.5|0.95|0.99|0.999" plus _sum and _count.
  std::string RenderPrometheus() const;

  /// One JSON line: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,p50,p95,p99,p999,max}}}.
  std::string RenderJson() const;
};

/// Name-keyed registry of counters/gauges/histograms with stable
/// addresses. Get* is idempotent: the first call creates, later calls
/// return the same handle (help text of the first call wins).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Register a callback run at the start of every Snapshot(), for
  /// subsystems that keep internal counters and mirror them into
  /// gauges on demand (buffer pool, epoch queue depth) — zero cost on
  /// their hot paths.
  void AddCollector(std::function<void(MetricsRegistry&)> fn);

  MetricsSnapshot Snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string help;
    std::unique_ptr<T> metric;
  };
  mutable std::mutex mu_;
  std::map<std::string, Named<Counter>> counters_;
  std::map<std::string, Named<Gauge>> gauges_;
  std::map<std::string, Named<Histogram>> histograms_;
  std::vector<std::function<void(MetricsRegistry&)>> collectors_;
};

}  // namespace lstore

#endif  // LSTORE_OBS_METRICS_H_
