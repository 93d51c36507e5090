// CPU-time microbenchmarks (google-benchmark) for the core operations.
// These complement the page-access experiments E1-E9: the paper's cost
// model counts I/O, but a library user also cares that the in-memory
// bookkeeping (calibrator updates, SHIFT bookkeeping, searches) is cheap.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "baseline/btree.h"
#include "core/calibrator.h"
#include "core/control2.h"
#include "core/dense_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "util/check.h"
#include "util/deadlock.h"
#include "workload/workload.h"

namespace dsf {
namespace {

DenseFile::Options FileOptions(int64_t num_pages) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  int64_t l = 1;
  while ((1ll << l) < num_pages) ++l;
  options.D = options.d + 4 * l + 1;
  return options;
}

// In-page key search at page size D (the innermost loop of every
// command). Page::Find runs the branchless half-interval LowerBoundRecord
// (storage/record.h): the interval-shrink step compiles to a conditional
// move, so random keys cause no branch mispredictions. The win over the
// std::lower_bound baseline below grows with D — at D >= 64 the
// mispredicted-branch cost of the classic search dominates.
void BM_PageSearch(benchmark::State& state) {
  const int64_t D = state.range(0);
  std::vector<Record> records;
  for (int64_t i = 0; i < D; ++i) {
    records.push_back(Record{static_cast<Key>(2 * i + 2), 0});
  }
  Rng rng(11);
  for (auto _ : state) {
    // Odd keys miss, even keys hit: both paths share the same search.
    const Key k = rng.Uniform(static_cast<uint64_t>(2 * D) + 2) + 1;
    benchmark::DoNotOptimize(
        LowerBoundRecord(records.data(), D, k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageSearch)->Arg(8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// Baseline for BM_PageSearch: the classic branching lower_bound over the
// same records.
void BM_PageSearchStdLowerBound(benchmark::State& state) {
  const int64_t D = state.range(0);
  std::vector<Record> records;
  for (int64_t i = 0; i < D; ++i) {
    records.push_back(Record{static_cast<Key>(2 * i + 2), 0});
  }
  Rng rng(11);
  for (auto _ : state) {
    const Key k = rng.Uniform(static_cast<uint64_t>(2 * D) + 2) + 1;
    auto it = std::lower_bound(
        records.begin(), records.end(), k,
        [](const Record& r, Key key) { return r.key < key; });
    benchmark::DoNotOptimize(it);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageSearchStdLowerBound)->Arg(8)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// Raw accounted page access. Arg 0: fast path (no fault policy) — the
// hot configuration every experiment without fault injection runs in,
// one predicted-not-taken branch on the policy pointer. Arg 1: an
// installed (empty) FaultPolicy is consulted on every access, showing
// what that branch saves.
void BM_PageFileAccess(benchmark::State& state) {
  PageFile file(4096, 8);
  if (state.range(0) != 0) {
    file.set_fault_policy(std::make_shared<FaultPolicy>());
  }
  Rng rng(12);
  Page scratch;
  for (auto _ : state) {
    const Address a = static_cast<Address>(rng.Uniform(4096)) + 1;
    benchmark::DoNotOptimize(file.TryRead(a, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageFileAccess)->Arg(0)->Arg(1);

// Insert/delete pairs at random keys against a half-full file.
void BM_DenseFileInsertDelete(benchmark::State& state) {
  const int64_t num_pages = state.range(0);
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(num_pages)));
  Rng rng(1);
  DSF_CHECK(
      file->BulkLoad(MakeAscendingRecords(file->capacity() / 2, 2, 2)).ok());
  for (auto _ : state) {
    const Key k = 2 * rng.Uniform(file->capacity()) + 1;  // odd: absent
    benchmark::DoNotOptimize(file->Insert(k, k));
    benchmark::DoNotOptimize(file->Delete(k));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DenseFileInsertDelete)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DenseFileGet(benchmark::State& state) {
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(1024)));
  DSF_CHECK(file->BulkLoad(MakeAscendingRecords(file->capacity())).ok());
  Rng rng(2);
  for (auto _ : state) {
    const Key k = rng.Uniform(file->capacity()) + 1;
    benchmark::DoNotOptimize(file->Get(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseFileGet);

void BM_DenseFileScan(benchmark::State& state) {
  const int64_t span = state.range(0);
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(1024)));
  DSF_CHECK(file->BulkLoad(MakeAscendingRecords(file->capacity())).ok());
  DSF_CHECK(span < file->capacity()) << "scan span exceeds file population";
  Rng rng(3);
  // Edge blocks may hold records outside [lo, hi]; the calibrator
  // reserve may overshoot by at most two blocks of slack.
  const size_t reserve_slack = 2 * static_cast<size_t>(FileOptions(1024).D);
  for (auto _ : state) {
    const Key lo = rng.Uniform(file->capacity() - span + 1) + 1;
    std::vector<Record> out;
    benchmark::DoNotOptimize(
        file->Scan(lo, lo + static_cast<Key>(span) - 1, &out));
    // The single calibrator-aggregate reserve must cover the whole
    // result: growth-by-doubling from empty would overshoot far more.
    DSF_CHECK(out.capacity() <= out.size() + reserve_slack);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_DenseFileScan)->Arg(100)->Arg(4000);

void BM_BTreeInsertDelete(benchmark::State& state) {
  BTree::Options options;
  options.leaf_capacity = 41;
  options.internal_fanout = 32;
  std::unique_ptr<BTree> tree = std::move(*BTree::Create(options));
  DSF_CHECK(tree->BulkLoad(MakeAscendingRecords(100000, 2, 2)).ok());
  Rng rng(4);
  for (auto _ : state) {
    const Key k = 2 * rng.Uniform(100000) + 1;
    benchmark::DoNotOptimize(tree->Insert(Record{k, k}));
    benchmark::DoNotOptimize(tree->Delete(k));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BTreeInsertDelete);

void BM_CalibratorSyncLeaf(benchmark::State& state) {
  Calibrator cal(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    const Address page = rng.Uniform(cal.num_pages()) + 1;
    cal.SyncLeaf(page, static_cast<int64_t>(rng.Uniform(16)), 1, 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibratorSyncLeaf)->Arg(1024)->Arg(65536);

// The BulkLoad/Compact refresh pattern: every leaf resynced in address
// order. Per-leaf SyncLeaf re-aggregates the full root path each time
// (O(M log M) total); the batched SyncLeaves below does one bottom-up
// pass (O(M)).
void BM_CalibratorSyncLeafLoop(benchmark::State& state) {
  Calibrator cal(state.range(0));
  for (auto _ : state) {
    for (Address p = 1; p <= cal.num_pages(); ++p) {
      cal.SyncLeaf(p, 4, static_cast<Key>(p) * 10,
                   static_cast<Key>(p) * 10 + 3);
    }
  }
  state.SetItemsProcessed(state.iterations() * cal.num_pages());
}
BENCHMARK(BM_CalibratorSyncLeafLoop)->Arg(1024)->Arg(65536);

void BM_CalibratorSyncLeaves(benchmark::State& state) {
  Calibrator cal(state.range(0));
  std::vector<Calibrator::LeafUpdate> updates(
      static_cast<size_t>(cal.num_pages()));
  for (Address p = 1; p <= cal.num_pages(); ++p) {
    updates[static_cast<size_t>(p - 1)] = {4, static_cast<Key>(p) * 10,
                                           static_cast<Key>(p) * 10 + 3};
  }
  for (auto _ : state) {
    cal.SyncLeaves(1, updates);
  }
  state.SetItemsProcessed(state.iterations() * cal.num_pages());
}
BENCHMARK(BM_CalibratorSyncLeaves)->Arg(1024)->Arg(65536);

void BM_CalibratorSearch(benchmark::State& state) {
  Calibrator cal(65536);
  Rng rng(6);
  for (Address p = 1; p <= cal.num_pages(); p += 2) {
    cal.SyncLeaf(p, 4, static_cast<Key>(p) * 10, static_cast<Key>(p) * 10 + 3);
  }
  for (auto _ : state) {
    const Key k = rng.Uniform(655360) + 1;
    benchmark::DoNotOptimize(cal.FirstNonEmptyPageWithMaxGE(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibratorSearch);

// The adversarial command: descending inserts keep the hotspot leaf in a
// warning state, so every command runs J real SHIFT cycles.
void BM_Control2WorstCaseCommand(benchmark::State& state) {
  Control2::Options options;
  options.config.num_pages = 1024;
  options.config.d = 8;
  options.config.D = 8 + 41;
  std::unique_ptr<Control2> control = std::move(*Control2::Create(options));
  Key next = 1ull << 40;
  for (auto _ : state) {
    if (control->size() >= control->MaxRecords()) {
      state.PauseTiming();
      std::unique_ptr<Control2> fresh =
          std::move(*Control2::Create(options));
      control.swap(fresh);
      next = 1ull << 40;
      state.ResumeTiming();
    }
    DSF_CHECK(control->Insert(Record{next--, 0}).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Control2WorstCaseCommand);

// Observability overhead on the insert/delete hot path. Arg 0: null
// registry — the instrumentation must compile down to cached null-handle
// checks (the zero-overhead contract obs_test pins on IoStats). Arg 1:
// full instrumentation (registry + tracer + bound certifier), whose
// striped relaxed-atomic updates are gated at <5% throughput delta vs.
// Arg 0 (compare the two items_per_second series in BENCH_core.json).
void BM_MetricsOverhead(benchmark::State& state) {
  MetricsRegistry registry;
  CommandTracer tracer;
  DenseFile::Options options = FileOptions(1024);
  if (state.range(0) != 0) {
    options.metrics = &registry;
    options.tracer = &tracer;
    options.certify_bound = true;
  }
  std::unique_ptr<DenseFile> file = std::move(*DenseFile::Create(options));
  Rng rng(8);
  DSF_CHECK(
      file->BulkLoad(MakeAscendingRecords(file->capacity() / 2, 2, 2)).ok());
  for (auto _ : state) {
    const Key k = 2 * rng.Uniform(file->capacity()) + 1;  // odd: absent
    benchmark::DoNotOptimize(file->Insert(k, k));
    benchmark::DoNotOptimize(file->Delete(k));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

// The runtime lock-order detector's overhead gate (docs/ANALYSIS.md):
// Arg(0) runs the pooled+traced command path with detection off (one
// relaxed load per Lock/Unlock), Arg(1) with detection on, where every
// pool/metrics acquisition under the command's hold records an edge
// (cached thread-locally after the first sighting). CI compares the two
// items_per_second and fails above a 5% delta.
void BM_DeadlockDetectOverhead(benchmark::State& state) {
  MetricsRegistry registry;
  CommandTracer tracer;
  DenseFile::Options options = FileOptions(1024);
  options.metrics = &registry;
  options.tracer = &tracer;
  options.cache_frames = 8;  // nested shard -> pool acquisitions
  std::unique_ptr<DenseFile> file = std::move(*DenseFile::Create(options));
  Rng rng(8);
  DSF_CHECK(
      file->BulkLoad(MakeAscendingRecords(file->capacity() / 2, 2, 2)).ok());
  deadlock::Enable(state.range(0) != 0);
  for (auto _ : state) {
    const Key k = 2 * rng.Uniform(file->capacity()) + 1;  // odd: absent
    benchmark::DoNotOptimize(file->Insert(k, k));
    benchmark::DoNotOptimize(file->Delete(k));
  }
  if (state.range(0) != 0) {
    const deadlock::LockOrderReport report = deadlock::Report();
    DSF_CHECK(report.ok());
    deadlock::Enable(false);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeadlockDetectOverhead)->Arg(0)->Arg(1);

void BM_LocalShiftStationaryChurn(benchmark::State& state) {
  DenseFile::Options options = FileOptions(1024);
  options.policy = DenseFile::Policy::kLocalShift;
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(options));
  DSF_CHECK(
      file->BulkLoad(MakeAscendingRecords(file->capacity() / 2, 2, 2)).ok());
  Rng rng(7);
  for (auto _ : state) {
    const Key k = 2 * rng.Uniform(file->capacity()) + 1;
    benchmark::DoNotOptimize(file->Insert(k, k));
    benchmark::DoNotOptimize(file->Delete(k));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LocalShiftStationaryChurn);

void BM_CursorFullWalk(benchmark::State& state) {
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(1024)));
  DSF_CHECK(file->BulkLoad(MakeAscendingRecords(file->capacity())).ok());
  for (auto _ : state) {
    int64_t seen = 0;
    for (Cursor cur = file->NewCursor(); cur.Valid(); cur.Next()) {
      benchmark::DoNotOptimize(cur.record());
      ++seen;
    }
    DSF_CHECK(seen == file->size());
  }
  state.SetItemsProcessed(state.iterations() * file->size());
}
BENCHMARK(BM_CursorFullWalk);

// Full-file reorganization: reads every record and rewrites every block
// at uniform density. Sensitive to per-block/per-page allocation churn in
// the write path.
void BM_Compact(benchmark::State& state) {
  const int64_t num_pages = state.range(0);
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(num_pages)));
  DSF_CHECK(
      file->BulkLoad(MakeAscendingRecords(file->capacity() / 2, 2, 2)).ok());
  for (auto _ : state) {
    DSF_CHECK(file->Compact().ok());
  }
  state.SetItemsProcessed(state.iterations() * file->size());
}
BENCHMARK(BM_Compact)->Arg(1024)->Arg(4096);

void BM_DeleteRangeTenth(benchmark::State& state) {
  std::unique_ptr<DenseFile> file =
      std::move(*DenseFile::Create(FileOptions(1024)));
  const std::vector<Record> records =
      MakeAscendingRecords(file->capacity());
  const int64_t slice = file->capacity() / 10;
  Key lo = 1;
  for (auto _ : state) {
    state.PauseTiming();
    DSF_CHECK(file->BulkLoad(records).ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        file->DeleteRange(lo, lo + static_cast<Key>(slice) - 1));
  }
  state.SetItemsProcessed(state.iterations() * slice);
}
BENCHMARK(BM_DeleteRangeTenth);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
