#include "obs/metrics.h"

#include <limits>

#include "util/check.h"

namespace dsf {

namespace internal {

int ThisThreadStripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripesPerMetric;
  return stripe;
}

}  // namespace internal

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

int Histogram::BucketOf(int64_t value) {
  if (value < 2) return 0;
  int bucket = 0;
  for (uint64_t v = static_cast<uint64_t>(value); v > 1; v >>= 1) ++bucket;
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

int64_t Histogram::BucketUpperEdge(int bucket) {
  DSF_CHECK(bucket >= 0 && bucket < kHistogramBuckets)
      << "bucket " << bucket << " out of range";
  if (bucket >= 62) return std::numeric_limits<int64_t>::max();
  return (static_cast<int64_t>(1) << (bucket + 1)) - 1;
}

void Histogram::Observe(int64_t value) {
  Stripe& s = stripes_[internal::ThisThreadStripe()];
  s.buckets[static_cast<size_t>(BucketOf(value))].fetch_add(
      1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  // Per-stripe running max; merged maxima are exact because max is
  // associative. The CAS loop races only within one stripe, i.e. only
  // when stripes are oversubscribed.
  int64_t seen = s.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !s.max.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const Stripe& s : stripes_) {
    for (const auto& b : s.buckets) {
      total += b.load(std::memory_order_relaxed);
    }
  }
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::Max() const {
  int64_t max = 0;
  for (const Stripe& s : stripes_) {
    const int64_t v = s.max.load(std::memory_order_relaxed);
    if (v > max) max = v;
  }
  return max;
}

int64_t Histogram::QuantileFromBuckets(
    const std::array<int64_t, kHistogramBuckets>& buckets, double q) {
  int64_t total = 0;
  for (const int64_t c : buckets) total += c;
  if (total <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the quantile observation, 1-based; ceil without drifting
  // through floating point at the top end.
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(total));
  if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  int64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[static_cast<size_t>(i)];
    if (seen >= rank) return BucketUpperEdge(i);
  }
  return BucketUpperEdge(kHistogramBuckets - 1);
}

std::array<int64_t, kHistogramBuckets> Histogram::BucketCounts() const {
  std::array<int64_t, kHistogramBuckets> out{};
  for (const Stripe& s : stripes_) {
    for (int i = 0; i < kHistogramBuckets; ++i) {
      out[static_cast<size_t>(i)] +=
          s.buckets[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    }
  }
  return out;
}

namespace {

std::string RenderKey(const std::string& name, const std::string& label) {
  if (label.empty()) return name;
  return name + "{" + label + "}";
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& label, Kind kind) {
  const std::string key = RenderKey(name, label);
  MutexLock lock(mu_);
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(key, std::move(entry)).first;
  }
  DSF_CHECK(it->second.kind == kind)
      << "metric '" << key << "' registered under two different types";
  return &it->second;
}

Counter* MetricsRegistry::FindOrCreateCounter(const std::string& name,
                                              const std::string& label) {
  return FindOrCreate(name, label, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::FindOrCreateGauge(const std::string& name,
                                          const std::string& label) {
  return FindOrCreate(name, label, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::FindOrCreateHistogram(const std::string& name,
                                                  const std::string& label) {
  return FindOrCreate(name, label, Kind::kHistogram)->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  for (const auto& [key, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snapshot.counters.push_back({key, entry.counter->Value()});
        break;
      case Kind::kGauge:
        snapshot.gauges.push_back({key, entry.gauge->Value()});
        break;
      case Kind::kHistogram: {
        MetricsSnapshot::HistogramValue h;
        h.name = key;
        h.buckets = entry.histogram->BucketCounts();
        for (const int64_t c : h.buckets) h.count += c;
        h.sum = entry.histogram->Sum();
        h.max = entry.histogram->Max();
        snapshot.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snapshot;
}

}  // namespace dsf
