// Tests for the observability subsystem (src/obs/): histogram bucket
// geometry, striped-counter exactness under a thread storm (run under
// -DDSF_SANITIZE=thread for the race check), registry handle identity,
// exporters, tracer ring semantics, the BoundCertifier report and the
// null-registry zero-overhead guarantee.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "obs/bound_certifier.h"
#include "obs/export.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_dense_file.h"
#include "storage/io_stats.h"
#include "util/random.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// ---------------------------------------------------------------------
// Histogram bucket geometry

TEST(HistogramTest, BucketEdges) {
  // Bucket 0 holds [0, 2), including clamped negatives.
  EXPECT_EQ(Histogram::BucketOf(-1000), 0);
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 0);
  // Bucket i >= 1 holds [2^i, 2^(i+1)).
  EXPECT_EQ(Histogram::BucketOf(2), 1);
  EXPECT_EQ(Histogram::BucketOf(3), 1);
  EXPECT_EQ(Histogram::BucketOf(4), 2);
  EXPECT_EQ(Histogram::BucketOf(7), 2);
  EXPECT_EQ(Histogram::BucketOf(8), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 9);
  EXPECT_EQ(Histogram::BucketOf(1024), 10);
  // The top bucket absorbs everything up to int64 max: no observation is
  // ever dropped.
  EXPECT_EQ(Histogram::BucketOf(std::numeric_limits<int64_t>::max()),
            kHistogramBuckets - 1);

  // Inclusive upper edges: 2^(bucket+1) - 1, saturating at the top.
  EXPECT_EQ(Histogram::BucketUpperEdge(0), 1);
  EXPECT_EQ(Histogram::BucketUpperEdge(1), 3);
  EXPECT_EQ(Histogram::BucketUpperEdge(9), 1023);
  EXPECT_EQ(Histogram::BucketUpperEdge(kHistogramBuckets - 1),
            std::numeric_limits<int64_t>::max());

  // Every value's bucket contains it: value <= upper edge, and above the
  // previous bucket's edge.
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{100},
                    int64_t{1} << 40}) {
    const int b = Histogram::BucketOf(v);
    EXPECT_LE(v, Histogram::BucketUpperEdge(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperEdge(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, ObserveMergesStripes) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1024);
  EXPECT_EQ(h.TotalCount(), 5);
  EXPECT_EQ(h.Sum(), 1030);
  EXPECT_EQ(h.Max(), 1024);
  const auto buckets = h.BucketCounts();
  EXPECT_EQ(buckets[0], 2);   // 0, 1
  EXPECT_EQ(buckets[1], 2);   // 2, 3
  EXPECT_EQ(buckets[10], 1);  // 1024
}

// ---------------------------------------------------------------------
// Histogram quantiles (the exporters' upper-edge estimates)

TEST(QuantileTest, EmptyAndClamping) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99), 0);

  buckets[3] = 10;  // values in [8, 16), upper edge 15
  // q is clamped into [0, 1]; any quantile of a single-bucket
  // distribution is that bucket's upper edge.
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, -0.5), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.0), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.5), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 1.0), 15);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 7.0), 15);
}

TEST(QuantileTest, RankWalksBucketBoundaries) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  buckets[0] = 98;  // [0, 2)
  buckets[5] = 1;   // [32, 64)
  buckets[9] = 1;   // [512, 1024)
  // 100 observations: ranks 1..98 in bucket 0, 99 in bucket 5, 100 in
  // bucket 9.
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.50), 1);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.98), 1);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99), 63);
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 1.0), 1023);
}

TEST(QuantileTest, UpperEdgeNeverUnderstates) {
  Histogram h;
  h.Observe(100);  // bucket 6: [64, 128), upper edge 127
  h.Observe(100);
  h.Observe(1000);  // bucket 9: [512, 1024), upper edge 1023
  // Estimates sit at or above the true quantile, within 2x.
  const std::array<int64_t, kHistogramBuckets> buckets = h.BucketCounts();
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.5), 127);
  const int64_t p99 = Histogram::QuantileFromBuckets(buckets, 0.99);
  EXPECT_EQ(p99, 1023);
  EXPECT_GE(p99, 1000);
  EXPECT_LE(p99, 2 * 1000);
}

TEST(QuantileTest, TopBucketSaturates) {
  std::array<int64_t, kHistogramBuckets> buckets{};
  buckets[kHistogramBuckets - 1] = 1;
  EXPECT_EQ(Histogram::QuantileFromBuckets(buckets, 0.99),
            std::numeric_limits<int64_t>::max());
}

TEST(QuantileTest, WindowDiffIsExact) {
  // Bucket counts merge and diff exactly, so the quantile of the
  // difference of two cumulative snapshots sees only the observations
  // made between them.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(1);  // old regime: tiny
  const std::array<int64_t, kHistogramBuckets> before = h.BucketCounts();
  for (int i = 0; i < 50; ++i) h.Observe(500);  // new regime: bucket 8
  const std::array<int64_t, kHistogramBuckets> after = h.BucketCounts();

  std::array<int64_t, kHistogramBuckets> window{};
  for (int b = 0; b < kHistogramBuckets; ++b) {
    window[static_cast<size_t>(b)] = after[static_cast<size_t>(b)] -
                                     before[static_cast<size_t>(b)];
  }
  // Cumulative p99 is polluted by the old observations' mass; the
  // window p99 is purely the new regime.
  EXPECT_EQ(Histogram::QuantileFromBuckets(window, 0.5), 511);
  EXPECT_EQ(Histogram::QuantileFromBuckets(window, 0.99), 511);
}

// ---------------------------------------------------------------------
// Thread-storm exactness (the TSan config of this test is the race check)

TEST(MetricsTest, CounterStormIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  // Relaxed striped adds lose nothing; after the join the merge is exact.
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, HistogramStormIsExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h]() {
      for (int64_t i = 0; i < kPerThread; ++i) h.Observe(i % 1000);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.TotalCount(), kThreads * kPerThread);
  EXPECT_EQ(h.Max(), 999);
  int64_t bucket_total = 0;
  for (int64_t count : h.BucketCounts()) bucket_total += count;
  EXPECT_EQ(bucket_total, h.TotalCount());
}

// ---------------------------------------------------------------------
// Registry semantics

TEST(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter(kMetricShifts);
  Counter* b = registry.FindOrCreateCounter(kMetricShifts);
  EXPECT_EQ(a, b);
  // A label makes a distinct series under the same catalog name.
  Counter* labeled = registry.FindOrCreateCounter(kMetricShifts, "shard=\"1\"");
  EXPECT_NE(a, labeled);
  a->Increment(3);
  labeled->Increment(5);

  Gauge* g = registry.FindOrCreateGauge(kMetricShardImbalance);
  g->Set(1250);
  EXPECT_EQ(g->Value(), 1250);
  g->Add(-250);
  EXPECT_EQ(g->Value(), 1000);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  // std::map order: the rendered label form sorts after the bare name.
  EXPECT_EQ(snapshot.counters[0].name, std::string(kMetricShifts));
  EXPECT_EQ(snapshot.counters[0].value, 3);
  EXPECT_EQ(snapshot.counters[1].name,
            std::string(kMetricShifts) + "{shard=\"1\"}");
  EXPECT_EQ(snapshot.counters[1].value, 5);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 1000);
}

// ---------------------------------------------------------------------
// Exporters

TEST(ExportTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter(kMetricCommands)->Increment(3);
  Histogram* h = registry.FindOrCreateHistogram(kMetricCommandAccesses);
  h->Observe(1);    // bucket 0, upper edge 1
  h->Observe(100);  // bucket 6, upper edge 127
  const std::string text = ToPrometheusText(registry.Snapshot());

  EXPECT_NE(text.find("dsf_commands_total 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  // Cumulative: the 100-observation bucket includes the earlier one.
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"127\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_sum 101\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_count 2\n"), std::string::npos)
      << text;
}

TEST(ExportTest, PrometheusSaturatedTopBucketFoldsIntoInf) {
  // Regression: a sample landing in the saturated top bucket used to
  // emit a finite le="<int64 max>" series next to +Inf — two series
  // claiming the same cumulative count, one of them asserting a finite
  // bound the catch-all bucket does not enforce. The top bucket must
  // surface only through the mandatory +Inf series.
  MetricsRegistry registry;
  Histogram* h = registry.FindOrCreateHistogram(kMetricCommandAccesses);
  h->Observe(2);                                     // bucket 1, edge 3
  h->Observe(std::numeric_limits<int64_t>::max());   // top bucket
  const std::string text = ToPrometheusText(registry.Snapshot());

  EXPECT_EQ(text.find("le=\"9223372036854775807\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"3\"} 1\n"),
            std::string::npos)
      << text;
  // +Inf still reports the full count, top-bucket sample included.
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_count 2\n"), std::string::npos)
      << text;
}

TEST(ExportTest, PrometheusExactPowerOfTwoLandsInItsOwnBucket) {
  // An exact power of two belongs to the bucket it opens: 128 is in
  // [128, 255], so the emitted edge must be le="255" — not the previous
  // bucket's le="127".
  MetricsRegistry registry;
  Histogram* h = registry.FindOrCreateHistogram(kMetricCommandAccesses);
  h->Observe(128);
  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"255\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("le=\"127\""), std::string::npos) << text;
}

TEST(ExportTest, PrometheusEmptyHistogramStillEmitsInf) {
  // The +Inf series is mandatory even when no bucket has a sample.
  MetricsRegistry registry;
  registry.FindOrCreateHistogram(kMetricCommandAccesses);
  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("dsf_command_accesses_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dsf_command_accesses_count 0\n"), std::string::npos)
      << text;
}

TEST(ExportTest, JsonSnapshotFormat) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter(kMetricCommands)->Increment(7);
  registry.FindOrCreateGauge(kMetricShardImbalance)->Set(1000);
  registry.FindOrCreateHistogram(kMetricCommandAccesses, "shard=\"0\"")
      ->Observe(5);
  const std::string json = ToJsonSnapshot(registry.Snapshot());

  EXPECT_NE(json.find("\"counters\":{\"dsf_commands_total\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"dsf_shard_imbalance_x1000\":1000}"),
            std::string::npos)
      << json;
  // Histogram keyed by its rendered (labelled) name; buckets keyed by
  // inclusive upper edge (5 lands in [4, 8), edge 7).
  EXPECT_NE(json.find("\"dsf_command_accesses{shard=\\\"0\\\"}\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"buckets\":{\"7\":1}"), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Tracer ring buffer

TEST(TracerTest, RingKeepsNewestAndCountsDropped) {
  CommandTracer tracer(/*capacity=*/4);
  for (int64_t i = 0; i < 6; ++i) {
    SpanEvent event;
    event.kind = SpanKind::kCommand;
    event.seq = i;
    tracer.Record(event);
  }
  const std::vector<SpanEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, newest retained: seq 2..5 survive, 0 and 1 dropped.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<int64_t>(i + 2));
  }
  EXPECT_EQ(tracer.dropped(), 2);

  const std::string dump = tracer.DumpJsonLines();
  EXPECT_NE(dump.find("\"seq\":5"), std::string::npos) << dump;
  EXPECT_NE(dump.find("{\"dropped\":2}"), std::string::npos) << dump;

  tracer.Clear();
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_EQ(tracer.dropped(), 0);
}

// ---------------------------------------------------------------------
// BoundCertifier

TEST(BoundCertifierTest, SeededViolationPinsExactReport) {
  // budget = K * (4J + 2) = 1 * 14 = 14.
  EXPECT_EQ(BoundCertifier::BudgetFor(/*block_size=*/1, /*j=*/3), 14);
  BoundCertifier certifier(/*num_pages=*/64, /*d=*/4, /*D=*/20,
                           /*block_size=*/1, /*j=*/3);
  MetricsRegistry registry;
  Counter* violations =
      registry.FindOrCreateCounter(kMetricBoundViolations);
  certifier.set_violations_counter(violations);
  EXPECT_EQ(certifier.budget(), 14);

  certifier.Observe(CommandKind::kInsert, 10);    // within budget
  certifier.Observe(CommandKind::kRange, 1000);   // exempt, never flagged
  certifier.Observe(CommandKind::kCompact, 500);  // exempt
  certifier.Observe(CommandKind::kDelete, 20);    // the seeded breach

  const BoundReport& report = certifier.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.budget, 14);
  EXPECT_EQ(report.commands_checked, 2);
  EXPECT_EQ(report.commands_exempt, 2);
  EXPECT_EQ(report.max_accesses, 20);
  ASSERT_EQ(report.violations.size(), 1u);
  const BoundViolation& v = report.violations[0];
  EXPECT_EQ(v.command_index, 1);  // second *checked* command
  EXPECT_EQ(v.kind, CommandKind::kDelete);
  EXPECT_EQ(v.accesses, 20);
  EXPECT_EQ(v.budget, 14);
  EXPECT_EQ(violations->Value(), 1);

  const Status status = report.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("DELETE command #1 used 20"),
            std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------
// Cross-layer wiring

DenseFile::Options BaseOptions(DenseFile::Policy policy) {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 4;
  options.D = 20;
  options.policy = policy;
  options.cache_frames = 8;  // exercise the pool instrumentation too
  return options;
}

// Drives the same seeded mixed workload against a file; returns the
// number of applied ops (identical across calls by construction).
void DriveWorkload(DenseFile& file) {
  ASSERT_TRUE(file.BulkLoad(MakeAscendingRecords(100, 2, 2)).ok());
  Rng rng(20260807);
  const Trace trace = UniformMix(400, 0.45, 0.35, 300, rng);
  std::vector<Record> scan_out;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        IgnoreStatus(file.Insert(op.record));
        break;
      case Op::Kind::kDelete:
        IgnoreStatus(file.Delete(op.record.key));
        break;
      case Op::Kind::kGet:
        IgnoreStatus(file.Get(op.record.key));
        break;
      case Op::Kind::kScan:
        scan_out.clear();
        IgnoreStatus(file.Scan(op.record.key, op.scan_hi, &scan_out));
        break;
    }
  }
}

TEST(ObsWiringTest, NullRegistryLeavesIoStatsIdentical) {
  // The zero-overhead contract: with no registry installed the
  // instrumented build must do exactly the page accesses an
  // uninstrumented one would — byte-identical IoStats, including the
  // logical/physical split and the pool counters.
  auto plain = DenseFile::Create(BaseOptions(DenseFile::Policy::kControl2));
  ASSERT_TRUE(plain.ok());

  MetricsRegistry registry;
  CommandTracer tracer;
  DenseFile::Options instrumented_options =
      BaseOptions(DenseFile::Policy::kControl2);
  instrumented_options.metrics = &registry;
  instrumented_options.tracer = &tracer;
  instrumented_options.certify_bound = true;
  auto instrumented = DenseFile::Create(instrumented_options);
  ASSERT_TRUE(instrumented.ok());

  DriveWorkload(**plain);
  DriveWorkload(**instrumented);

  const IoStats a = (*plain)->io_stats();
  const IoStats b = (*instrumented)->io_stats();
  EXPECT_EQ(a.page_reads, b.page_reads);
  EXPECT_EQ(a.page_writes, b.page_writes);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_accesses, b.sequential_accesses);
  EXPECT_EQ(a.logical_reads, b.logical_reads);
  EXPECT_EQ(a.logical_writes, b.logical_writes);

  const BufferPool::Stats ca = (*plain)->cache_stats();
  const BufferPool::Stats cb = (*instrumented)->cache_stats();
  EXPECT_EQ(ca.hits, cb.hits);
  EXPECT_EQ(ca.misses, cb.misses);

  // And the instrumented run actually observed the work.
  const MetricsSnapshot snapshot = registry.Snapshot();
  int64_t commands = -1;
  for (const auto& c : snapshot.counters) {
    if (c.name == kMetricCommands) commands = c.value;
  }
  EXPECT_EQ(commands, (*instrumented)->command_stats().commands);
  EXPECT_FALSE(tracer.Events().empty());
}

TEST(ObsWiringTest, Control2RunIsCertifiedClean) {
  MetricsRegistry registry;
  CommandTracer tracer;
  DenseFile::Options options = BaseOptions(DenseFile::Policy::kControl2);
  options.metrics = &registry;
  options.tracer = &tracer;
  options.certify_bound = true;
  options.audit_every_command = true;
  auto file = DenseFile::Create(options);
  ASSERT_TRUE(file.ok());

  DriveWorkload(**file);

  // The paper's contract, certified live: no CONTROL 2 point command
  // exceeded the K*(4J+2) envelope.
  const BoundReport* report = (*file)->bound_report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_GT(report->commands_checked, 0);
  EXPECT_GT((*file)->bound_budget(), 0);
  EXPECT_LE(report->max_accesses, report->budget);

  // Every phase span shares its enclosing command's seq, and command
  // spans carry the command's IoStats delta.
  bool saw_command_span = false;
  for (const SpanEvent& event : tracer.Events()) {
    if (event.kind == SpanKind::kCommand) {
      saw_command_span = true;
      EXPECT_GE(event.io.TotalLogical(), 0);
    }
  }
  EXPECT_TRUE(saw_command_span);
}

TEST(ObsWiringTest, CompactKeepsTheEnvelope) {
  // Compact is an exempt command: it is tallied, never flagged, and the
  // (K, J) envelope the following point commands are checked against is
  // the one fixed at open.
  DenseFile::Options options = BaseOptions(DenseFile::Policy::kControl2);
  options.certify_bound = true;
  auto file = DenseFile::Create(options);
  ASSERT_TRUE(file.ok());
  for (Key k = 1; k <= 20; ++k) ASSERT_TRUE((*file)->Insert(k, k).ok());
  const BoundReport* report = (*file)->bound_report();
  ASSERT_NE(report, nullptr);
  const int64_t budget = report->budget;
  const int64_t checked = report->commands_checked;

  ASSERT_TRUE((*file)->Compact().ok());
  EXPECT_EQ(report->budget, budget);
  EXPECT_EQ(report->commands_exempt, 1);
  ASSERT_TRUE((*file)->Insert(100, 1).ok());
  EXPECT_EQ(report->commands_checked, checked + 1);
  EXPECT_TRUE(report->ok()) << report->ToString();
}

TEST(ObsWiringTest, ShardMetricsPublishPerShardSeries) {
  MetricsRegistry registry;
  ShardedDenseFile::Options options;
  options.num_shards = 4;
  options.key_space = 4000;
  options.shard.num_pages = 64;
  options.shard.d = 4;
  options.shard.D = 20;
  options.shard.metrics = &registry;
  auto file = ShardedDenseFile::Create(options);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->BulkLoad(MakeAscendingRecords(400, 1, 10)).ok());

  (*file)->PublishMetrics();

  const MetricsSnapshot snapshot = registry.Snapshot();
  int shard_series = 0;
  int64_t imbalance = -1;
  int64_t published_total = 0;
  for (const auto& g : snapshot.gauges) {
    if (g.name.rfind(kMetricShardRecords, 0) == 0) {
      ++shard_series;
      published_total += g.value;
    }
    if (g.name == kMetricShardImbalance) imbalance = g.value;
  }
  EXPECT_EQ(shard_series, 4);
  EXPECT_EQ(published_total, (*file)->size());
  // 1000 = perfectly balanced; the uniform ascending load is close.
  EXPECT_GE(imbalance, 1000);
  EXPECT_LT(imbalance, 1500);
}

}  // namespace
}  // namespace dsf
