// Ingest staging sweep: memtable size x workload under device latency.
//
// Replays write-heavy traces against a device-resident DenseFile (the
// seek-aware DiskModel with real sleeps: a seek costs --seek_us, a
// sequential page transfer --transfer_us; fixed 256-frame pool) at
// staging buffer sizes 0 (staging disabled — the baseline), 64, 256 and
// 1024 entries, and reports throughput, physical traffic and
// drain-scheduler counters per configuration as JSON — the perf
// trajectory artifact tracked in BENCH_ingest.json.
//
// Workloads:
//   ascending_burst  The headline ingest shape: the file starts 50% full
//                    (bulk-loaded low key range) and a burst of strictly
//                    ascending new keys streams in. Unstaged, every
//                    insert is a full CONTROL 2 command ending in a pool
//                    flush, and each flush scatters the arm across the
//                    target block and the advancing SHIFT frontier —
//                    roughly two seeks per command. Staged, writes land
//                    in the memtable for zero page accesses and the
//                    drain scheduler applies a whole batch under one
//                    deferred flush: the window's dirty pages (the same
//                    target block plus a consecutive stretch of frontier
//                    pages) flush as one mostly-sequential run, so the
//                    per-op seek count collapses. Target: >= 3x ops/s
//                    over staging disabled at the same pool config.
//   uniform_mix      60% inserts / 20% deletes / 20% gets over the whole
//                    key space — exercises the merged read view and
//                    tombstone staging under no locality (honest case).
//
// Every configuration runs with certify_bound: each drained entry is an
// ordinary certified command, so the sweep doubles as evidence that the
// drain scheduler never breaches the K*(4J+2) per-command envelope —
// the run aborts on any bound violation, audit failure or invariant
// break. The final Flush() (staged drains + pool write-back) is inside
// the measured wall time, so staged configurations pay for durability
// before the clock stops.
//
// A second sweep replays a 4-thread disjoint-range mix against a
// 4-shard file with a shared staging_bytes budget (split per shard,
// drain-on-rotate active) via ParallelReplayer, staging on vs off.
//
// Usage: ingest_sweep [--ops=N] [--num_pages=M] [--seek_us=S]
//                     [--transfer_us=U] [--threads=T] [--out=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "bench_common.h"
#include "core/dense_file.h"
#include "shard/sharded_dense_file.h"
#include "util/check.h"
#include "workload/parallel_replayer.h"
#include "workload/workload.h"

namespace dsf {
namespace {

constexpr int64_t kPoolFrames = 256;
constexpr double kMixInsertFraction = 0.60;
constexpr double kMixDeleteFraction = 0.20;

struct Row {
  std::string workload;
  int64_t staging_entries = 0;
  int64_t drain_batch = 0;
  int64_t drain_access_budget = 0;
  double wall_seconds = 0;
  double ops_per_second = 0;
  double speedup_vs_disabled = 1.0;
  double logical_per_op = 0;
  double physical_per_op = 0;
  IoStats io;
  BufferPool::Stats cache;
  StagingStats staging;
  int64_t bound_budget = 0;
  int64_t bound_max_accesses = 0;
  int64_t bound_violations = 0;
};

struct ShardRow {
  bool staging = false;
  int64_t staging_bytes = 0;
  double wall_seconds = 0;
  double ops_per_second = 0;
  double speedup_vs_disabled = 1.0;
  int64_t physical_writes = 0;
  int64_t seeks = 0;
  int64_t staging_puts = 0;
  int64_t staging_drain_steps = 0;
  int64_t staging_drained = 0;
};

Status Apply(DenseFile& file, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return file.Insert(op.record);
    case Op::Kind::kDelete:
      return file.Delete(op.record.key);
    case Op::Kind::kGet:
      return file.Get(op.record.key).status();
    case Op::Kind::kScan: {
      std::vector<Record> out;
      return file.Scan(op.record.key, op.scan_hi, &out);
    }
  }
  return Status::OK();
}

// The burst trace: strictly ascending brand-new keys, starting just past
// the pre-loaded range.
Trace AscendingBurst(int64_t ops, Key first_key) {
  Trace trace;
  trace.reserve(static_cast<size_t>(ops));
  for (int64_t i = 0; i < ops; ++i) {
    Op op;
    op.kind = Op::Kind::kInsert;
    const Key k = first_key + static_cast<Key>(i);
    op.record = Record{k, k * 3};
    trace.push_back(op);
  }
  return trace;
}

Row RunConfig(const std::string& workload, const Trace& trace,
              int64_t num_pages, int64_t staging_entries,
              int64_t load_records, const DiskModel& disk) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  options.D = 36;  // same geometry as the cache sweep (E16)
  options.cache_frames = kPoolFrames;
  options.staging_entries = staging_entries;
  options.certify_bound = true;
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  DSF_CHECK(created.ok()) << created.status();
  DenseFile& file = **created;

  // Warm start: load_records consecutive keys from 1 up, uniform density.
  std::vector<Record> initial;
  initial.reserve(static_cast<size_t>(load_records));
  for (Key k = 1; k <= static_cast<Key>(load_records); ++k) {
    initial.push_back(Record{k, k});
  }
  DSF_CHECK(file.BulkLoad(initial).ok());
  file.ResetIoStats();
  file.ResetCacheStats();
  // The device model applies to the measured traffic only, not the load.
  file.control().file().set_disk_model(disk, /*sleep=*/true);

  const auto start = std::chrono::steady_clock::now();
  for (const Op& op : trace) {
    const Status s = Apply(file, op);
    DSF_CHECK(s.ok() || s.IsAlreadyExists() || s.IsNotFound()) << s;
  }
  // Durability point inside the measured window: staged configurations
  // pay for their deferred writes before the clock stops.
  DSF_CHECK(file.Flush().ok());
  const auto end = std::chrono::steady_clock::now();

  file.control().file().set_disk_model(DiskModel{0, 0});
  DSF_CHECK(file.ValidateInvariants().ok());
  const AuditReport audit = file.Audit();
  DSF_CHECK(audit.ok()) << audit.ToString();
  const BoundReport* bound = file.bound_report();
  DSF_CHECK(bound != nullptr);
  DSF_CHECK(bound->ok()) << bound->ToString();

  Row row;
  row.workload = workload;
  row.staging_entries = staging_entries;
  row.drain_batch = file.drain_batch();
  row.drain_access_budget = file.drain_access_budget();
  row.wall_seconds = std::chrono::duration<double>(end - start).count();
  row.ops_per_second = static_cast<double>(trace.size()) / row.wall_seconds;
  row.io = file.io_stats();
  row.cache = file.cache_stats();
  row.staging = file.staging_stats();
  const double ops = static_cast<double>(trace.size());
  row.logical_per_op = static_cast<double>(row.io.TotalLogical()) / ops;
  row.physical_per_op = static_cast<double>(row.io.TotalAccesses()) / ops;
  row.bound_budget = bound->budget;
  row.bound_max_accesses = bound->max_accesses;
  row.bound_violations = static_cast<int64_t>(bound->violations.size());
  return row;
}

ShardRow RunShardedConfig(int num_threads, int64_t ops_per_thread,
                          int64_t num_pages, int64_t staging_bytes,
                          const DiskModel& disk) {
  ShardedDenseFile::Options options;
  options.num_shards = num_threads;
  // Each shard keeps E18's full single-file geometry (per-shard M is NOT
  // divided by S): E18b then isolates what sharding + concurrency do to
  // the staging win, instead of also shrinking per-shard J — at M/S the
  // burst's maintenance is already cheap and staging has nothing to save.
  options.shard.num_pages = num_pages;
  options.shard.d = 8;
  options.shard.D = 36;
  options.shard.certify_bound = true;
  // E18's pool budget for every shard (cache_bytes splits across shards).
  options.cache_bytes = static_cast<int64_t>(num_threads) * kPoolFrames *
                        (options.shard.D + 1) *
                        static_cast<int64_t>(sizeof(Record));
  options.staging_bytes = staging_bytes;
  const Key key_space =
      static_cast<Key>(num_pages) * 8 * static_cast<Key>(num_threads);
  options.key_space = key_space;
  StatusOr<std::unique_ptr<ShardedDenseFile>> created =
      ShardedDenseFile::Create(options);
  DSF_CHECK(created.ok()) << created.status();
  ShardedDenseFile& file = **created;

  // Per-shard mirror of E18's ascending_burst: each shard's low half is
  // pre-loaded with consecutive keys, then thread t streams an ascending
  // burst just past its own shard's loaded prefix — thread ranges align
  // with the uniform splitters, so each burst hits exactly one shard's
  // staging buffer and device.
  const Key range = key_space / num_threads;
  const int64_t shard_capacity = options.shard.num_pages * options.shard.d;
  const int64_t load_per_shard = shard_capacity / 2;
  DSF_CHECK(ops_per_thread <= shard_capacity - load_per_shard)
      << "per-shard burst would exceed shard capacity";
  std::vector<Record> initial;
  initial.reserve(static_cast<size_t>(load_per_shard) *
                  static_cast<size_t>(num_threads));
  std::vector<Trace> traces;
  traces.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    const Key lo = static_cast<Key>(t) * range + 1;
    for (int64_t i = 0; i < load_per_shard; ++i) {
      const Key k = lo + static_cast<Key>(i);
      initial.push_back(Record{k, k});
    }
    traces.push_back(
        AscendingBurst(ops_per_thread, lo + static_cast<Key>(load_per_shard)));
  }
  DSF_CHECK(file.BulkLoad(initial).ok());
  file.ResetStats();
  // The device model applies to the measured traffic only, not the load.
  file.SetDiskModel(disk, /*sleep=*/true);
  ParallelReplayer::Options replay_options;
  replay_options.num_threads = num_threads;
  replay_options.flush_staging_at_end = true;
  ParallelReplayer replayer(replay_options);
  const ReplayResult result = replayer.Replay(file, traces);
  DSF_CHECK(result.ok()) << result.first_unexpected_error;
  file.SetDiskModel(DiskModel{0, 0}, /*sleep=*/false);
  // Capture the replay's device traffic before the verification scans
  // add theirs.
  const IoStats io = file.io_stats();
  DSF_CHECK(file.ValidateInvariants().ok());
  const AuditReport audit = file.Audit();
  DSF_CHECK(audit.ok()) << audit.ToString();

  ShardRow row;
  row.staging = staging_bytes > 0;
  row.staging_bytes = staging_bytes;
  row.wall_seconds = result.wall_seconds;
  row.ops_per_second = result.OpsPerSecond();
  row.physical_writes = io.page_writes;
  row.seeks = io.seeks;
  const StagingStats staging = file.staging_stats();
  row.staging_puts = staging.puts;
  row.staging_drain_steps = staging.drain_steps;
  row.staging_drained = staging.drained_entries;
  return row;
}

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               const std::vector<ShardRow>& shard_rows, int64_t num_pages,
               int64_t total_ops, const DiskModel& disk,
               int num_threads) {
  os << "{\n";
  os << "  \"benchmark\": \"ingest_sweep\",\n";
  os << "  \"num_pages\": " << num_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"pool_frames\": " << kPoolFrames << ",\n";
  os << "  \"seek_us\": " << disk.seek_ms * 1000.0 << ",\n";
  os << "  \"transfer_us\": " << disk.transfer_ms * 1000.0 << ",\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\""
       << ", \"staging_entries\": " << r.staging_entries
       << ", \"drain_batch\": " << r.drain_batch
       << ", \"drain_access_budget\": " << r.drain_access_budget
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"speedup_vs_disabled\": " << r.speedup_vs_disabled
       << ", \"logical_per_op\": " << r.logical_per_op
       << ", \"physical_per_op\": " << r.physical_per_op
       << ", \"physical_writes\": " << r.io.page_writes
       << ", \"physical_reads\": " << r.io.page_reads
       << ", \"seeks\": " << r.io.seeks
       << ", \"write_combines\": " << r.cache.write_combines
       << ", \"additive_absorbs\": " << r.cache.additive_absorbs
       << ", \"relocations\": " << r.cache.relocations
       << ", \"ordered_flushes\": " << r.cache.ordered_flushes
       << ", \"flush_runs\": " << r.cache.flush_runs
       << ", \"evictions\": " << r.cache.evictions
       << ", \"staging_puts\": " << r.staging.puts
       << ", \"staging_hits\": " << r.staging.hits
       << ", \"staging_annihilations\": " << r.staging.annihilations
       << ", \"staging_drain_steps\": " << r.staging.drain_steps
       << ", \"staging_drained_entries\": " << r.staging.drained_entries
       << ", \"bound_budget\": " << r.bound_budget
       << ", \"bound_max_accesses\": " << r.bound_max_accesses
       << ", \"bound_violations\": " << r.bound_violations << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"sharded\": {\"threads\": " << num_threads
     << ", \"shards\": " << num_threads << ", \"configs\": [\n";
  for (size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardRow& r = shard_rows[i];
    os << "    {\"staging\": " << (r.staging ? "true" : "false")
       << ", \"staging_bytes\": " << r.staging_bytes
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"speedup_vs_disabled\": " << r.speedup_vs_disabled
       << ", \"physical_writes\": " << r.physical_writes
       << ", \"seeks\": " << r.seeks
       << ", \"staging_puts\": " << r.staging_puts
       << ", \"staging_drain_steps\": " << r.staging_drain_steps
       << ", \"staging_drained_entries\": " << r.staging_drained << "}"
       << (i + 1 < shard_rows.size() ? "," : "") << "\n";
  }
  os << "  ]}\n}\n";
}

int Main(int argc, char** argv) {
  int64_t total_ops = 5000;
  int64_t num_pages = 4096;
  int64_t seek_us = 300;
  int64_t transfer_us = 15;
  int num_threads = 4;
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
    } else if (arg.rfind("--num_pages=", 0) == 0) {
      num_pages = std::stoll(arg.substr(12));
    } else if (arg.rfind("--seek_us=", 0) == 0) {
      seek_us = std::stoll(arg.substr(10));
      DSF_CHECK(seek_us >= 0);
    } else if (arg.rfind("--transfer_us=", 0) == 0) {
      transfer_us = std::stoll(arg.substr(14));
      DSF_CHECK(transfer_us >= 0);
    } else if (arg.rfind("--threads=", 0) == 0) {
      num_threads = static_cast<int>(std::stoll(arg.substr(10)));
      DSF_CHECK(num_threads >= 1);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  const int64_t capacity = num_pages * 8;  // d * M
  const int64_t load_records = capacity / 2;
  DSF_CHECK(total_ops <= capacity - load_records)
      << "burst would exceed file capacity";
  const Key key_space = static_cast<Key>(capacity);
  DiskModel disk;
  disk.seek_ms = static_cast<double>(seek_us) * 1e-3;
  disk.transfer_ms = static_cast<double>(transfer_us) * 1e-3;

  Rng mix_rng(20260808);
  const std::vector<std::pair<std::string, Trace>> workloads = {
      {"ascending_burst",
       AscendingBurst(total_ops, static_cast<Key>(load_records) + 1)},
      {"uniform_mix",
       UniformMix(total_ops, kMixInsertFraction, kMixDeleteFraction,
                  key_space, mix_rng)},
  };
  const std::vector<int64_t> staging_sizes = {0, 64, 256, 1024};

  bench::Section("E18: ingest staging size x workload (seek " +
                 std::to_string(seek_us) + "us, transfer " +
                 std::to_string(transfer_us) + "us)");
  bench::Table table({"workload", "staging", "batch", "wall s", "Kops/s",
                      "speedup", "phys W", "seeks", "drains", "max acc",
                      "budget"});
  std::vector<Row> rows;
  for (const auto& [name, trace] : workloads) {
    double base_ops_per_second = 0;
    for (const int64_t staging : staging_sizes) {
      Row row = RunConfig(name, trace, num_pages, staging, load_records,
                          disk);
      if (staging == 0) base_ops_per_second = row.ops_per_second;
      row.speedup_vs_disabled = row.ops_per_second / base_ops_per_second;
      table.Row(row.workload, row.staging_entries, row.drain_batch,
                row.wall_seconds, row.ops_per_second * 1e-3,
                row.speedup_vs_disabled, row.io.page_writes, row.io.seeks,
                row.staging.drain_steps, row.bound_max_accesses,
                row.bound_budget);
      rows.push_back(std::move(row));
    }
  }
  table.Print();

  bench::Section("E18b: sharded staging via parallel replay (" +
                 std::to_string(num_threads) + " threads x " +
                 std::to_string(num_threads) + " shards)");
  bench::Table shard_table({"staging B", "wall s", "Kops/s", "speedup",
                            "phys W", "seeks", "puts", "drains"});
  std::vector<ShardRow> shard_rows;
  const int64_t shard_staging_bytes =
      static_cast<int64_t>(num_threads) * 256 *
      static_cast<int64_t>(sizeof(StagedEntry));
  double shard_base = 0;
  for (const int64_t staging_bytes : {int64_t{0}, shard_staging_bytes}) {
    // Every thread replays the full-length burst into its own shard:
    // per-shard work matches E18's ascending_burst exactly (burst cost is
    // superlinear in burst length, so splitting one burst S ways would
    // compare against a much cheaper workload).
    ShardRow row =
        RunShardedConfig(num_threads, total_ops, num_pages, staging_bytes,
                         disk);
    if (staging_bytes == 0) shard_base = row.ops_per_second;
    row.speedup_vs_disabled = row.ops_per_second / shard_base;
    shard_table.Row(row.staging_bytes, row.wall_seconds,
                    row.ops_per_second * 1e-3, row.speedup_vs_disabled,
                    row.physical_writes, row.seeks, row.staging_puts,
                    row.staging_drain_steps);
    shard_rows.push_back(row);
  }
  shard_table.Print();

  if (out == "-") {
    WriteJson(std::cout, rows, shard_rows, num_pages, total_ops, disk,
              num_threads);
  } else {
    std::ofstream f(out);
    DSF_CHECK(f.good()) << "cannot open " << out;
    WriteJson(f, rows, shard_rows, num_pages, total_ops, disk,
              num_threads);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
