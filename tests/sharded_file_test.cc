// ShardedDenseFile tests: routing, splitter learning, cross-shard
// stitching, and the concurrent differential storm — T threads of mixed
// insert/delete/get/scan traffic, cross-checked against the
// single-threaded ReferenceModel. Thread key sets are disjoint (keys
// congruent to t mod T, or one contiguous slice per thread), so the final
// contents are independent of the interleaving and a serial replay of the
// same traces is an exact oracle; every shard's invariant battery and the
// exactness of stats aggregation are validated after the storm.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/auditor.h"
#include "ingest/memtable.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/sharded_dense_file.h"
#include "storage/file_backend.h"
#include "storage/storage_backend.h"
#include "util/deadlock.h"
#include "util/temp_dir.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

ShardedDenseFile::Options SmallOptions(int num_shards, Key key_space) {
  ShardedDenseFile::Options options;
  options.num_shards = num_shards;
  options.key_space = key_space;
  options.shard.num_pages = 64;
  options.shard.d = 8;
  options.shard.D = 8 + 4 * 6 + 1;  // gap condition at M = 64
  return options;
}

// A device that takes 20 us per page transfer: a FileBackend behind a
// sleep in ReadPage and WritePage. Tests use it to widen race windows.
class SlowBackend : public StorageBackend {
 public:
  explicit SlowBackend(std::unique_ptr<StorageBackend> device)
      : device_(std::move(device)) {}

  int64_t num_pages() const override { return device_->num_pages(); }
  int64_t page_capacity() const override { return device_->page_capacity(); }
  Status WritePage(Address address, const Page& page) override {
    Wait();
    return device_->WritePage(address, page);
  }
  Status ReadPage(Address address, Page* out) override {
    Wait();
    return device_->ReadPage(address, out);
  }
  Status SyncBarrier() override { return device_->SyncBarrier(); }
  std::string Name() const override { return device_->Name(); }

 private:
  static void Wait() {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

  std::unique_ptr<StorageBackend> device_;
};

std::unique_ptr<ShardedDenseFile> MakeFile(
    const ShardedDenseFile::Options& options) {
  StatusOr<std::unique_ptr<ShardedDenseFile>> file =
      ShardedDenseFile::Create(options);
  EXPECT_TRUE(file.ok()) << file.status();
  return std::move(*file);
}

TEST(ShardedDenseFileTest, CreateValidatesOptions) {
  ShardedDenseFile::Options options = SmallOptions(4, 1000);
  options.num_shards = 0;
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());

  options = SmallOptions(4, 1000);
  options.splitters = {100, 100, 300};  // not strictly ascending
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());

  options = SmallOptions(4, 1000);
  options.splitters = {100, 200};  // wrong count for 4 shards
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());

  options = SmallOptions(8, 4);  // key space smaller than shard count
  EXPECT_TRUE(ShardedDenseFile::Create(options).status().IsInvalidArgument());
}

TEST(ShardedDenseFileTest, RoutingRespectsSplitters) {
  ShardedDenseFile::Options options = SmallOptions(4, 0);
  options.splitters = {100, 200, 300};
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);
  EXPECT_EQ(file->ShardOf(1), 0);
  EXPECT_EQ(file->ShardOf(99), 0);
  EXPECT_EQ(file->ShardOf(100), 1);  // boundary key starts the next shard
  EXPECT_EQ(file->ShardOf(199), 1);
  EXPECT_EQ(file->ShardOf(200), 2);
  EXPECT_EQ(file->ShardOf(300), 3);
  EXPECT_EQ(file->ShardOf(1u << 30), 3);

  ASSERT_TRUE(file->Insert(99, 1).ok());
  ASSERT_TRUE(file->Insert(100, 2).ok());
  ASSERT_TRUE(file->Insert(350, 3).ok());
  EXPECT_EQ(file->shard_size(0), 1);
  EXPECT_EQ(file->shard_size(1), 1);
  EXPECT_EQ(file->shard_size(2), 0);
  EXPECT_EQ(file->shard_size(3), 1);
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(ShardedDenseFileTest, PointOpsMatchSingleFileSemantics) {
  std::unique_ptr<ShardedDenseFile> file = MakeFile(SmallOptions(4, 1000));
  EXPECT_TRUE(file->Insert(42, 420).ok());
  EXPECT_TRUE(file->Insert(42, 421).IsAlreadyExists());
  EXPECT_TRUE(file->Contains(42));
  StatusOr<Value> got = file->Get(42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 420u);
  EXPECT_TRUE(file->Get(43).status().IsNotFound());
  EXPECT_TRUE(file->Delete(43).IsNotFound());
  EXPECT_TRUE(file->Delete(42).ok());
  EXPECT_EQ(file->size(), 0);
}

TEST(ShardedDenseFileTest, ReadBranchCountersAccountEveryPointRead) {
  MetricsRegistry registry;
  ShardedDenseFile::Options options = SmallOptions(4, 1000);
  options.shard.metrics = &registry;
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);
  ASSERT_TRUE(file->Insert(10, 1).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(file->Get(10).ok());
    EXPECT_FALSE(file->Contains(11));
  }
  // Single-threaded there is never a writer to contend with, so every
  // point read takes the uncontended shared-lock branch.
  int64_t shared = 0;
  int64_t epoch_hits = 0;
  int64_t fallbacks = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == kMetricReadLockShared) shared = c.value;
    if (c.name == kMetricReadLockEpochHits) epoch_hits = c.value;
    if (c.name == kMetricReadLockEpochFallbacks) fallbacks = c.value;
  }
  EXPECT_EQ(shared, 10);
  EXPECT_EQ(epoch_hits, 0);
  EXPECT_EQ(fallbacks, 0);
}

TEST(ShardedDenseFileTest, LearnSplittersBalancesSkewedSample) {
  // A heavily skewed sample: 90% of keys in [1, 100], the rest spread out.
  std::vector<Record> sample;
  for (Key k = 1; k <= 90; ++k) sample.push_back(Record{k, k});
  for (Key k = 1000; k < 1010; ++k) sample.push_back(Record{k, k});
  const std::vector<Key> splitters =
      ShardedDenseFile::LearnSplitters(sample, 4);
  ASSERT_EQ(splitters.size(), 3u);
  for (size_t i = 1; i < splitters.size(); ++i) {
    EXPECT_LT(splitters[i - 1], splitters[i]);
  }
  // Equi-depth boundaries land inside the dense region, not at uniform
  // key-space positions.
  EXPECT_LT(splitters[0], 100u);
  EXPECT_LT(splitters[1], 100u);

  ShardedDenseFile::Options options = SmallOptions(4, 0);
  options.splitters = splitters;
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);
  ASSERT_TRUE(file->BulkLoad(sample).ok());
  // No shard got more than half the records (uniform splitters would put
  // 90% into shard 0).
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(file->shard_size(i), 50) << "shard " << i;
  }
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(ShardedDenseFileTest, CrossShardScanStitchesInKeyOrder) {
  std::unique_ptr<ShardedDenseFile> file = MakeFile(SmallOptions(4, 1000));
  ReferenceModel model;
  Rng rng(7);
  const std::vector<Record> records = MakeUniformRecords(400, 1000, rng);
  ASSERT_TRUE(file->BulkLoad(records).ok());
  ASSERT_TRUE(model.Load(records).ok());

  // Ranges chosen to span 0, 1, 2 and all 4 shards (splitters at
  // 251, 501, 751 for key_space 1000).
  const std::pair<Key, Key> ranges[] = {
      {1, 50}, {200, 300}, {240, 760}, {1, 1000}, {997, 1500}, {600, 10}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<Record> got;
    ASSERT_TRUE(file->Scan(lo, hi, &got).ok());
    EXPECT_EQ(got, model.Scan(lo, hi)) << "range [" << lo << "," << hi << "]";
  }
  EXPECT_EQ(*file->ScanAll(), model.ScanAll());
}

TEST(ShardedDenseFileTest, CrossShardDeleteRangeMatchesModel) {
  std::unique_ptr<ShardedDenseFile> file = MakeFile(SmallOptions(4, 1000));
  ReferenceModel model;
  Rng rng(11);
  const std::vector<Record> records = MakeUniformRecords(400, 1000, rng);
  ASSERT_TRUE(file->BulkLoad(records).ok());
  ASSERT_TRUE(model.Load(records).ok());

  // Spans shards 1-3; compare removed counts and remaining contents.
  const int64_t model_removed =
      static_cast<int64_t>(model.Scan(300, 900).size());
  for (const Record& r : model.Scan(300, 900)) {
    ASSERT_TRUE(model.Delete(r.key).ok());
  }
  StatusOr<int64_t> removed = file->DeleteRange(300, 900);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, model_removed);
  EXPECT_EQ(*file->ScanAll(), model.ScanAll());
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(ShardedDenseFileTest, DeleteRangeWithStagingMatchesModel) {
  // Differential check for the range op over the staged+durable union:
  // half the records are still in per-shard memtables when the
  // cross-shard range delete lands.
  ShardedDenseFile::Options options = SmallOptions(4, 1000);
  options.shard.staging_entries = 32;
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);
  ReferenceModel model;
  Rng rng(17);
  const std::vector<Record> records = MakeUniformRecords(300, 1000, rng);
  ASSERT_TRUE(file->BulkLoad(records).ok());
  ASSERT_TRUE(model.Load(records).ok());
  for (Key k = 3; k <= 1000; k += 9) {
    const Record r{k, k + 1};
    const Status s = file->Insert(r);
    ASSERT_TRUE(s.ok() || s.IsAlreadyExists());
    if (s.ok()) {
      ASSERT_TRUE(model.Insert(r).ok());
    }
  }

  const int64_t expected =
      static_cast<int64_t>(model.Scan(200, 800).size());
  for (const Record& r : model.Scan(200, 800)) {
    ASSERT_TRUE(model.Delete(r.key).ok());
  }
  StatusOr<int64_t> removed = file->DeleteRange(200, 800);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, expected);
  EXPECT_EQ(*file->ScanAll(), model.ScanAll());
  ASSERT_TRUE(file->FlushStaging().ok());
  EXPECT_EQ(*file->ScanAll(), model.ScanAll());
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(ShardedDenseFileTest, DeleteRangeIsAtomicAgainstConcurrentScan) {
  // Regression: the range delete used to tombstone shard-by-shard, one
  // lock at a time, so a concurrent scan over the same range could see
  // a half-deleted prefix. Now the delete holds every affected shard
  // exclusive and scans hold them all shared: each scan observes either
  // the full pre-delete contents or the empty post-delete state, never
  // a torn middle.
  //
  // Widen the race window: every shard sits on a SlowBackend, so each
  // page access sleeps and most runs of the shard-by-shard pre-fix
  // delete let a scan observe a torn middle.
  ScopedTempDir dir("dsf-race");
  ShardedDenseFile::Options options = SmallOptions(4, 1000);
  options.shard_backend_factory =
      [&dir](int shard, int64_t num_pages, int64_t page_capacity)
      -> StatusOr<std::unique_ptr<StorageBackend>> {
    FileBackend::Options fb;
    fb.directory = dir.path() + "/shard" + std::to_string(shard);
    ::mkdir(fb.directory.c_str(), 0755);
    StatusOr<std::unique_ptr<StorageBackend>> device =
        FileBackend::CreateFactory(fb)(num_pages, page_capacity);
    if (!device.ok()) return device.status();
    return std::unique_ptr<StorageBackend>(
        std::make_unique<SlowBackend>(std::move(*device)));
  };
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);
  std::vector<Record> initial;
  for (Key k = 1; k <= 1000; k += 2) initial.push_back(Record{k, k});
  ASSERT_TRUE(file->BulkLoad(initial).ok());
  const int64_t full = static_cast<int64_t>(initial.size());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> scans_done{0};
  std::atomic<int64_t> torn{0};
  std::atomic<bool> scan_failed{false};
  std::thread scanner([&] {
    std::vector<Record> out;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      if (!file->Scan(1, 1000, &out).ok()) {
        scan_failed.store(true);
        break;
      }
      const int64_t n = static_cast<int64_t>(out.size());
      if (n != 0 && n != full) torn.fetch_add(1);
      scans_done.fetch_add(1);
    }
  });
  while (scans_done.load() < 2) std::this_thread::yield();
  StatusOr<int64_t> removed = file->DeleteRange(1, 1000);
  const int64_t after_delete = scans_done.load();
  while (scans_done.load() < after_delete + 2) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  scanner.join();

  ASSERT_FALSE(scan_failed.load());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, full);
  EXPECT_EQ(torn.load(), 0) << torn.load() << " torn scans";
  EXPECT_EQ(file->size(), 0);
}

TEST(ShardedDenseFileTest, StatsAggregateBySummation) {
  std::unique_ptr<ShardedDenseFile> file = MakeFile(SmallOptions(4, 1000));
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const Key k = rng.Uniform(1000) + 1;
    (void)file->Insert(k, k);
  }
  const IoStats total = file->io_stats();
  const CommandStats commands = file->command_stats();
  IoStats summed;
  int64_t summed_commands = 0;
  int64_t max_command = 0;
  for (int i = 0; i < file->num_shards(); ++i) {
    summed += file->shard_io_stats(i);
    summed_commands += file->shard_command_stats(i).commands;
    max_command = std::max(max_command,
                           file->shard_command_stats(i).max_command_accesses);
  }
  EXPECT_EQ(total.page_reads, summed.page_reads);
  EXPECT_EQ(total.page_writes, summed.page_writes);
  EXPECT_EQ(total.seeks, summed.seeks);
  EXPECT_EQ(total.sequential_accesses, summed.sequential_accesses);
  EXPECT_EQ(commands.commands, summed_commands);
  EXPECT_EQ(commands.max_command_accesses, max_command);
  EXPECT_EQ(commands.commands, 200);

  file->ResetStats();
  EXPECT_EQ(file->io_stats().TotalAccesses(), 0);
  EXPECT_EQ(file->command_stats().commands, 0);
}

// Per-thread mixed traces over disjoint key sets: each key's history is
// one thread's program order, so a serial replay of the traces is an
// exact oracle for any interleaving. Thread t draws its keys from those
// congruent to t + 1 modulo T, which sends every thread to every shard,
// or with `ranged` from its own contiguous slice of [1, key_space], the
// partitioned-client shape. Fractions are insert/delete/scan; the rest
// are gets, and scans span 64 keys.
std::vector<Trace> DisjointMixes(int num_threads, int64_t ops_per_thread,
                                 double insert_fraction,
                                 double delete_fraction, double scan_fraction,
                                 Key key_space, bool ranged, uint64_t seed) {
  const Key threads = static_cast<Key>(num_threads);
  const Key width = key_space / threads;
  std::vector<Trace> traces(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    const Key first = static_cast<Key>(t) + 1;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + first);
    for (int64_t i = 0; i < ops_per_thread; ++i) {
      const Key k =
          ranged ? (first - 1) * width + 1 + rng.Uniform(width)
                 : first + rng.Uniform((key_space - first) / threads + 1) *
                               threads;
      const double roll = rng.NextDouble();
      Op op;
      op.record = Record{k, k ^ seed};
      if (roll < insert_fraction) {
        op.kind = Op::Kind::kInsert;
      } else if (roll < insert_fraction + delete_fraction) {
        op.kind = Op::Kind::kDelete;
      } else if (roll < insert_fraction + delete_fraction + scan_fraction) {
        op.kind = Op::Kind::kScan;
        op.scan_hi = k + 64;
      } else {
        op.kind = Op::Kind::kGet;
      }
      traces[static_cast<size_t>(t)].push_back(op);
    }
  }
  return traces;
}

// Applies traces[t] on thread t, all threads released together by a
// latch, then joins and drains every shard's staging. Returns each status
// that was neither OK nor an expected workload rejection (AlreadyExists,
// NotFound, CapacityExceeded); each thread collects its own.
std::vector<Status> ReplayConcurrently(ShardedDenseFile& file,
                                       const std::vector<Trace>& traces) {
  std::vector<std::vector<Status>> unexpected(traces.size());
  std::latch start(static_cast<std::ptrdiff_t>(traces.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < traces.size(); ++t) {
    threads.emplace_back([&, t] {
      std::vector<Record> scan_out;
      start.arrive_and_wait();
      for (const Op& op : traces[t]) {
        Status status;
        switch (op.kind) {
          case Op::Kind::kInsert: status = file.Insert(op.record); break;
          case Op::Kind::kDelete: status = file.Delete(op.record.key); break;
          case Op::Kind::kGet: status = file.Get(op.record.key).status(); break;
          case Op::Kind::kScan:
            scan_out.clear();
            status = file.Scan(op.record.key, op.scan_hi, &scan_out);
            break;
        }
        if (!status.ok() && !status.IsAlreadyExists() &&
            !status.IsNotFound() && !status.IsCapacityExceeded()) {
          unexpected[t].push_back(status);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Status> all;
  for (const std::vector<Status>& mine : unexpected) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  const Status flush = file.FlushStaging();
  if (!flush.ok()) all.push_back(flush);
  return all;
}

// The storm: T threads of mixed traffic against S shards, then a full
// differential and invariant audit. The third parameter is per-shard
// buffer-pool frames (0 = direct to device); with pools the storm also
// exercises concurrent pin/flush cycles, one pool per shard mutex. The
// fourth is per-shard staging entries (0 = staging off); staged storms
// drive concurrent memtable puts, piggybacked drain steps, and the
// merged read view under contention, and must FlushStaging before the
// differential compare so the device+staging union is fully drained.
// The fifth parameter selects the read-mostly shared-path storm: ~90%
// point reads exercising all three read branches (shared lock, epoch
// pool read, blocking fallback) against concurrent writers and drains,
// with audit_every_command and certify_bound on so every interleaving
// is auditor- and bound-certified. Run under TSan this is the data-race
// battery for the reader-writer lock split. The sixth puts every shard
// on its own FileBackend: the pages then live only on the device, so
// concurrent readers pread into pool frames (pooled) or into their own
// scratch pages (unpooled). The seventh gives each thread a contiguous
// key slice instead of a residue class (DisjointMixes).
class ShardedStormTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, bool, bool, bool>> {};

TEST_P(ShardedStormTest, ConcurrentMixedTrafficMatchesReference) {
  const int num_shards = std::get<0>(GetParam());
  const int num_threads = std::get<1>(GetParam());
  const int cache_frames = std::get<2>(GetParam());
  const int staging_entries = std::get<3>(GetParam());
  const bool read_mostly = std::get<4>(GetParam());
  const bool on_files = std::get<5>(GetParam());
  const bool ranged = std::get<6>(GetParam());
  const Key key_space = 4000;
  const int64_t ops_per_thread = read_mostly ? 1500 : 4000;

  // Total capacity held constant across configurations: 512 pages split
  // evenly over the shards, same (d, D) everywhere.
  ShardedDenseFile::Options options;
  options.num_shards = num_shards;
  options.key_space = key_space;
  options.shard.num_pages = 512 / num_shards;
  options.shard.d = 8;
  options.shard.D = 8 + 4 * 9 + 1;
  options.shard.cache_frames = cache_frames;
  options.shard.staging_entries = staging_entries;
  MetricsRegistry registry;
  if (read_mostly) {
    options.shard.metrics = &registry;
    options.shard.audit_every_command = true;
    options.shard.certify_bound = true;
  }
  // Aggregate capacity comfortably above the number of distinct keys, so
  // no interleaving can hit CapacityExceeded and per-key outcomes stay
  // deterministic.
  ASSERT_GE(static_cast<Key>(options.num_shards * options.shard.num_pages *
                             options.shard.d),
            key_space);
  ScopedTempDir dir("dsf-storm");
  if (on_files) {
    options.shard_backend_factory = [&dir](int shard, int64_t num_pages,
                                           int64_t page_capacity) {
      FileBackend::Options fb;
      fb.directory = dir.path() + "/shard" + std::to_string(shard);
      ::mkdir(fb.directory.c_str(), 0755);
      return FileBackend::CreateFactory(fb)(num_pages, page_capacity);
    };
  }
  std::unique_ptr<ShardedDenseFile> file = MakeFile(options);

  // Warm start: half the key space pre-loaded.
  std::vector<Record> initial;
  for (Key k = 2; k <= key_space; k += 2) initial.push_back(Record{k, k ^ 5});
  ASSERT_TRUE(file->BulkLoad(initial).ok());

  const std::vector<Trace> traces = DisjointMixes(
      num_threads, ops_per_thread,
      /*insert_fraction=*/read_mostly ? 0.05 : 0.35,
      /*delete_fraction=*/read_mostly ? 0.04 : 0.30,
      /*scan_fraction=*/read_mostly ? 0.01 : 0.05, key_space, ranged,
      /*seed=*/42);
  // The oracle below needs every updated or read key in one trace only.
  std::map<Key, size_t> owner;
  for (size_t t = 0; t < traces.size(); ++t) {
    for (const Op& op : traces[t]) {
      if (op.kind == Op::Kind::kScan) continue;
      ASSERT_EQ(owner.emplace(op.record.key, t).first->second, t);
    }
  }

  const std::vector<Status> unexpected = ReplayConcurrently(*file, traces);
  ASSERT_TRUE(unexpected.empty()) << unexpected.size()
                                  << " unexpected errors, first: "
                                  << unexpected.front().ToString();

  // Oracle: the same traces replayed serially. Keys are disjoint across
  // threads, so the serial order within each trace fixes every key's
  // final state regardless of the concurrent interleaving.
  ReferenceModel model;
  ASSERT_TRUE(model.Load(initial).ok());
  for (const Trace& trace : traces) {
    for (const Op& op : trace) {
      switch (op.kind) {
        case Op::Kind::kInsert: (void)model.Insert(op.record); break;
        case Op::Kind::kDelete: (void)model.Delete(op.record.key); break;
        case Op::Kind::kGet: case Op::Kind::kScan: break;
      }
    }
  }
  EXPECT_EQ(file->size(), model.size());
  EXPECT_EQ(*file->ScanAll(), model.ScanAll());

  // Every shard survived the storm with its invariants intact (this
  // includes BALANCE(d,D) per shard), and the typed auditor certifies
  // the full catalog — density, order, counters, algorithm state, pool
  // frames and shard boundaries.
  EXPECT_TRUE(file->ValidateInvariants().ok());
  const AuditReport audit = file->Audit();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // Stats aggregation is exact: the per-shard sums equal the aggregate.
  IoStats summed;
  int64_t summed_commands = 0;
  for (int i = 0; i < file->num_shards(); ++i) {
    summed += file->shard_io_stats(i);
    summed_commands += file->shard_command_stats(i).commands;
  }
  const IoStats total = file->io_stats();
  EXPECT_EQ(total.page_reads, summed.page_reads);
  EXPECT_EQ(total.page_writes, summed.page_writes);
  EXPECT_EQ(file->command_stats().commands, summed_commands);

  if (staging_entries > 0) {
    // ReplayConcurrently's closing FlushStaging drained every shard: the
    // staged storm saw real memtable traffic, nothing lingers staged,
    // and the per-shard counters sum to the aggregate.
    const StagingStats staged = file->staging_stats();
    EXPECT_GT(staged.puts, 0);
    EXPECT_GT(staged.drained_entries, 0);
    EXPECT_EQ(staged.entries, 0);
    StagingStats summed_staging;
    for (int i = 0; i < file->num_shards(); ++i) {
      summed_staging += file->shard_staging_stats(i);
    }
    EXPECT_EQ(staged.puts, summed_staging.puts);
    EXPECT_EQ(staged.drain_steps, summed_staging.drain_steps);
    EXPECT_EQ(staged.drained_entries, summed_staging.drained_entries);
  }

  if (cache_frames > 0) {
    // The pools saw traffic, and after the final per-command flushes no
    // dirty page may linger: the device alone must hold the full state.
    const BufferPool::Stats cache = file->cache_stats();
    EXPECT_GT(cache.hits + cache.misses, 0);
    file->DiscardCaches();
    EXPECT_EQ(*file->ScanAll(), model.ScanAll());
    EXPECT_TRUE(file->ValidateInvariants().ok());
  }

  if (read_mostly) {
    // Every point read took exactly one of the three branches, and the
    // live bound certificate saw no violation on any interleaving.
    int64_t shared = 0;
    int64_t epoch_hits = 0;
    int64_t fallbacks = 0;
    int64_t bound_violations = 0;
    for (const auto& c : registry.Snapshot().counters) {
      if (c.name == kMetricReadLockShared) shared = c.value;
      if (c.name == kMetricReadLockEpochHits) epoch_hits = c.value;
      if (c.name == kMetricReadLockEpochFallbacks) fallbacks = c.value;
      if (c.name.rfind(kMetricBoundViolations, 0) == 0) {
        bound_violations += c.value;
      }
    }
    int64_t gets = 0;
    for (const Trace& trace : traces) {
      gets += std::count_if(trace.begin(), trace.end(), [](const Op& op) {
        return op.kind == Op::Kind::kGet;
      });
    }
    EXPECT_EQ(shared + epoch_hits + fallbacks, gets);
    EXPECT_EQ(bound_violations, 0);
  }

  // Under -DDSF_DEADLOCK_DETECT=ON (the default in TSan builds) the
  // runtime lock-order detector watched every acquisition this storm
  // made — shard mutexes, pool mutexes, the metrics registry — and its
  // graph must have stayed acyclic.
  if (deadlock::EverEnabled()) {
    const deadlock::LockOrderReport lock_order = deadlock::Report();
    EXPECT_TRUE(lock_order.ok()) << lock_order.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storms, ShardedStormTest,
    ::testing::Values(std::make_tuple(1, 4, 0, 0, false, false, false),
                      std::make_tuple(4, 1, 0, 0, false, false, false),
                      std::make_tuple(4, 4, 0, 0, false, false, false),
                      std::make_tuple(8, 4, 0, 0, false, false, false),
                      std::make_tuple(8, 8, 0, 0, false, false, false),
                      std::make_tuple(4, 4, 8, 0, false, false, false),
                      std::make_tuple(8, 8, 8, 0, false, false, false),
                      // Staged storms: memtable + drain under contention,
                      // without and with a per-shard pool (the latter runs
                      // the deferred-flush path too).
                      std::make_tuple(4, 4, 0, 16, false, false, false),
                      std::make_tuple(8, 8, 8, 16, false, false, false),
                      // Read-mostly shared-path storms: readers racing
                      // writers racing drains, audited and certified per
                      // command; the epoch pool-read branch needs frames
                      // to hit, so both pool-less and pooled shapes run.
                      std::make_tuple(4, 4, 0, 16, true, false, false),
                      std::make_tuple(8, 8, 8, 16, true, false, false),
                      // Device storms, one FileBackend per shard: a
                      // read-mostly pooled one (concurrent preads into
                      // frames) and an unpooled one (into caller scratch).
                      std::make_tuple(4, 4, 8, 16, true, true, false),
                      std::make_tuple(4, 4, 0, 0, false, true, false),
                      // Partitioned clients: each thread owns one key
                      // slice, and with aligned splitters mostly one shard.
                      std::make_tuple(4, 4, 0, 0, false, false, true)),
    [](const ::testing::TestParamInfo<
        std::tuple<int, int, int, int, bool, bool, bool>>& param) {
      std::string base = "S" + std::to_string(std::get<0>(param.param)) + "T" +
                         std::to_string(std::get<1>(param.param));
      const int frames = std::get<2>(param.param);
      const int staged = std::get<3>(param.param);
      if (frames > 0) base += "Pool" + std::to_string(frames);
      if (staged > 0) base += "Staged" + std::to_string(staged);
      if (std::get<4>(param.param)) base += "ReadMostly";
      if (std::get<5>(param.param)) base += "OnFiles";
      if (std::get<6>(param.param)) base += "Ranged";
      return base;
    });

}  // namespace
}  // namespace dsf
