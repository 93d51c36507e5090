// MetricsRegistry — low-overhead named counters, gauges and power-of-two
// histograms for live observation of a running file.
//
// Design constraints, in order:
//
//   1. Zero overhead when disabled. Instrumented code holds a raw handle
//      pointer (Counter*, Gauge*, Histogram*) that is nullptr when no
//      registry is installed, and every instrumentation site is one
//      predicted-not-taken branch: `if (h) h->Increment();`. No registry,
//      no atomics, no cache traffic — the null-registry path must leave
//      IoStats byte-identical to an uninstrumented build
//      (tests/obs_test.cc pins this).
//
//   2. Thread-sharded hot path. A counter or histogram may be hit from
//      every client thread of a ShardedDenseFile at once. Each
//      metric is striped over kStripesPerMetric cache-line-aligned slots;
//      a thread picks its stripe once (thread-local, round-robin
//      assignment) and then only ever does relaxed atomic adds on its
//      own line. Reads merge the stripes on demand — reads are rare
//      (snapshots), writes are the hot path.
//
//   3. Exact merges. Relaxed atomic adds never lose increments; a
//      Snapshot() taken after the writing threads joined is exact, and
//      one taken mid-run is a momentary view (each stripe internally
//      consistent).
//
// Histograms use fixed power-of-two buckets: bucket 0 holds values in
// [0, 2) (negatives clamp to 0), bucket i >= 1 holds [2^i, 2^(i+1)).
// 63 buckets cover the full non-negative int64 range, so no observation
// is ever dropped and bucket edges are identical across every metric —
// distributions are comparable without rebinning.
//
// Handles are created once (FindOrCreate* under the registry mutex,
// typically at file-open) and live as long as the registry; the hot path
// never touches the registry again. Labels distinguish per-shard
// instances of one catalog name (src/obs/metric_names.h):
// FindOrCreateCounter(kMetricShardRecords, "shard=\"3\"").

#ifndef DSF_OBS_METRICS_H_
#define DSF_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace dsf {

inline constexpr int kStripesPerMetric = 8;
inline constexpr int kHistogramBuckets = 63;

namespace internal {
// The stripe this thread writes: assigned round-robin on first use, so
// up to kStripesPerMetric concurrent writers get private cache lines.
// Striping (vs. true thread-local storage) bounds memory, survives
// thread churn, and needs no at-exit merging.
int ThisThreadStripe();
}  // namespace internal

// Monotonic counter. Increment is one relaxed fetch_add on the calling
// thread's stripe.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    stripes_[internal::ThisThreadStripe()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  int64_t Value() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  std::array<Stripe, kStripesPerMetric> stripes_;
};

// Last-writer-wins instantaneous value (fill level, imbalance ratio).
// Gauges are set rarely and by one logical owner, so a single atomic
// suffices; no striping.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed power-of-two-bucket histogram; see the header comment for the
// bucket edges. Observe is two relaxed adds (bucket + sum) plus a
// relaxed max update on the thread's stripe.
class Histogram {
 public:
  // floor(log2(value)) clamped into [0, kHistogramBuckets - 1];
  // values below 2 (including negatives) land in bucket 0.
  static int BucketOf(int64_t value);
  // Inclusive upper edge of `bucket`: 2^(bucket+1) - 1, saturating to
  // int64 max for the last bucket.
  static int64_t BucketUpperEdge(int bucket);

  void Observe(int64_t value);

  int64_t TotalCount() const;
  int64_t Sum() const;
  int64_t Max() const;  // 0 when empty
  // Merged per-bucket counts, index = bucket.
  std::array<int64_t, kHistogramBuckets> BucketCounts() const;

  // Upper-edge quantile estimate over a merged bucket array: the
  // inclusive upper edge of the bucket holding the rank-ceil(q*count)
  // observation (rank clamped into [1, count]). Because buckets are
  // power-of-two ranges the estimate is exact to within 2x and, being
  // an upper edge, never understates — the right polarity for headroom
  // checks against a hard budget. Returns 0 on an empty array; q is
  // clamped into [0, 1]. Static so callers can diff two snapshots'
  // bucket arrays and take the quantile of the *window* between them
  // (merges and diffs of per-bucket counts are exact).
  static int64_t QuantileFromBuckets(
      const std::array<int64_t, kHistogramBuckets>& buckets, double q);

 private:
  // One stripe row: the full bucket array plus sum/max, padded so
  // distinct stripes never share a cache line.
  struct alignas(64) Stripe {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
  };
  std::array<Stripe, kStripesPerMetric> stripes_;
};

// One exported metric value; `name` includes the label when present
// (Prometheus form: `dsf_shard_records{shard="3"}`).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    std::array<int64_t, kHistogramBuckets> buckets{};
  };

  // Each sorted by name (std::map iteration order of the registry).
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the metric registered under (name, label), creating it on
  // first use. `name` should be a catalog constant from metric_names.h
  // (the linter enforces this outside src/obs/); `label` an optional
  // `key="value"` qualifier. The returned handle is valid for the
  // registry's lifetime and safe to use from any thread. Registering
  // one (name, label) under two different metric types is a programming
  // error and aborts.
  Counter* FindOrCreateCounter(const std::string& name,
                               const std::string& label = "")
      DSF_EXCLUDES(mu_);
  Gauge* FindOrCreateGauge(const std::string& name,
                           const std::string& label = "")
      DSF_EXCLUDES(mu_);
  Histogram* FindOrCreateHistogram(const std::string& name,
                                   const std::string& label = "")
      DSF_EXCLUDES(mu_);

  // Merged point-in-time view of every registered metric. Exact when no
  // writer is concurrently active (e.g. after threads joined).
  MetricsSnapshot Snapshot() const DSF_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& label,
                      Kind kind) DSF_EXCLUDES(mu_);

  mutable Mutex mu_;
  // Keyed by rendered name (`name` or `name{label}`); std::map so
  // snapshots and exports come out name-sorted without a sort pass.
  std::map<std::string, Entry> metrics_ DSF_GUARDED_BY(mu_);
};

}  // namespace dsf

#endif  // DSF_OBS_METRICS_H_
