// Shard/thread scaling sweep for ShardedDenseFile + ParallelReplayer.
//
// Runs a fixed mixed workload (insert/delete/get/scan) through every
// (threads x shards) configuration in the sweep, holding the total page
// budget, (d, D) and the total op count constant, and reports aggregate
// throughput per configuration as JSON — the perf trajectory artifact
// tracked in BENCH_shard.json.
//
// The file is measured as a *device-resident* structure: every accounted
// page access sleeps for --page_latency_us (default 100us, SATA-SSD
// class; the paper's cost metric is page accesses, and on real hardware
// they dominate command time). Each shard models its own device, so two
// effects compose:
//   * algorithmic: a shard serves M/S pages, so its per-command bound
//     O(log^2 (M/S) / (D-d)) and its recommended J shrink with S;
//   * parallel I/O: clients working different shards overlap their
//     device waits (and, on multi-core hardware, their compute). The
//     workload is the partitioned-client shape of sharded-system
//     benchmarks: thread t draws a mixed op stream over its own
//     contiguous slice of the key space.
// Pass --page_latency_us=0 for the pure in-memory variant; only the
// first effect remains, and extra threads only add contention.
//
// Usage: shard_scaling [--ops=N] [--total_pages=M] [--fill_percent=F]
//                      [--page_latency_us=U] [--staging_bytes=B]
//                      [--out=PATH]
//
// --staging_bytes > 0 mounts write-burst staging (docs/INGEST.md): the
// budget splits near-evenly into per-shard memtables (remainder to the
// first shards) and the replayer flushes staging inside the measured
// wall time, so throughput stays honest. Per-shard staging hit/drain
// counters land in the JSON rows.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "shard/sharded_dense_file.h"
#include "util/check.h"
#include "util/math.h"
#include "workload/parallel_replayer.h"
#include "workload/workload.h"

namespace dsf {
namespace {

struct Config {
  int threads;
  int shards;
};

struct Row {
  Config config;
  double wall_seconds = 0;
  double ops_per_second = 0;
  double insert_delete_ops_per_second = 0;
  double mean_op_ns = 0;
  int64_t max_op_ns = 0;
  int64_t rejected = 0;
  IoStats io;
  // Each side of the logical/physical split reported on its own —
  // logical accesses are the paper's cost metric, physical page traffic
  // is what the device model charges for; never divide one by the other.
  double logical_accesses_per_op = 0;
  double physical_accesses_per_op = 0;
  StagingStats staging;
  std::vector<StagingStats> per_shard_staging;
};

Row RunConfig(const Config& config, int64_t total_pages, int64_t total_ops,
              Key key_space, int64_t fill_percent, int64_t page_latency_us,
              int64_t staging_bytes) {
  ShardedDenseFile::Options options;
  options.num_shards = config.shards;
  options.key_space = key_space;
  options.staging_bytes = staging_bytes;
  // Same page geometry everywhere: d = 8, D = 36, so D - d = 28. The
  // unsharded 4096-page file misses Theorem 5.7's gap condition
  // (28 <= 3*ceil(log 4096) = 36) and runs on auto-selected K = 2
  // macro-blocks; a 512-page shard satisfies it (28 > 27) and keeps
  // K = 1 — the gap condition *easing* as M shrinks is one of the
  // structural wins sharding buys (here it costs the big file little,
  // since partially filled blocks pack into their prefix pages).
  options.shard.num_pages = total_pages / config.shards;
  options.shard.d = 8;
  options.shard.D = 36;
  StatusOr<std::unique_ptr<ShardedDenseFile>> file =
      ShardedDenseFile::Create(options);
  DSF_CHECK(file.ok()) << file.status();

  // Warm start at fill_percent of capacity: every (100/(100-f))-th key
  // left out, approximately evenly over the key space.
  std::vector<Record> initial;
  initial.reserve(static_cast<size_t>(key_space));
  const int64_t skip = std::max<int64_t>(2, 100 / (100 - fill_percent));
  for (Key k = 1; k <= key_space; ++k) {
    if (static_cast<int64_t>(k % skip) != 0) initial.push_back(Record{k, k});
  }
  DSF_CHECK((*file)->BulkLoad(initial).ok());
  (*file)->ResetStats();
  // The device model applies to the measured traffic only, not the load:
  // a flat per-access latency (no seek charge), paid as a real sleep.
  DiskModel flat;
  flat.seek_ms = 0;
  flat.transfer_ms = static_cast<double>(page_latency_us) * 1e-3;
  (*file)->SetDiskModel(flat, /*sleep=*/page_latency_us > 0);

  // Each client owns a shard-aligned slice of the key space.
  const std::vector<Trace> traces = ParallelReplayer::DisjointRangeMixes(
      config.threads, total_ops / config.threads,
      /*insert_fraction=*/0.40, /*delete_fraction=*/0.40,
      /*scan_fraction=*/0.05, key_space, /*scan_span=*/64, /*seed=*/99);

  ParallelReplayer replayer({config.threads});
  const ReplayResult result = replayer.Replay(**file, traces);
  DSF_CHECK(result.ok()) << result.first_unexpected_error.ToString();
  DSF_CHECK((*file)->ValidateInvariants().ok());

  const ReplayThreadStats agg = result.Aggregate();
  Row row;
  row.config = config;
  row.wall_seconds = result.wall_seconds;
  row.ops_per_second = result.OpsPerSecond();
  row.insert_delete_ops_per_second =
      static_cast<double>(agg.inserts + agg.deletes) / result.wall_seconds;
  row.mean_op_ns = agg.ops == 0
                       ? 0.0
                       : static_cast<double>(agg.total_ns) /
                             static_cast<double>(agg.ops);
  row.max_op_ns = agg.max_op_ns;
  row.rejected = agg.rejected;
  // The replay's own IoStats delta (not the file's lifetime totals), so
  // the logical and physical columns describe exactly the measured ops.
  row.io = result.io;
  row.logical_accesses_per_op = result.LogicalAccessesPerOp();
  row.physical_accesses_per_op = result.PhysicalAccessesPerOp();
  row.staging = (*file)->staging_stats();
  for (int s = 0; s < config.shards; ++s) {
    row.per_shard_staging.push_back((*file)->shard_staging_stats(s));
  }
  return row;
}

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               int64_t total_pages, int64_t total_ops, Key key_space,
               int64_t fill_percent, int64_t page_latency_us,
               int64_t staging_bytes) {
  const double base = rows.front().insert_delete_ops_per_second;
  os << "{\n";
  os << "  \"benchmark\": \"shard_scaling\",\n";
  os << "  \"total_pages\": " << total_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"key_space\": " << key_space << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"page_latency_us\": " << page_latency_us << ",\n";
  os << "  \"staging_bytes\": " << staging_bytes << ",\n";
  os << "  \"workload\": {\"insert\": 0.40, \"delete\": 0.40, "
        "\"get\": 0.15, \"scan\": 0.05},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"threads\": " << r.config.threads
       << ", \"shards\": " << r.config.shards
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"insert_delete_ops_per_second\": "
       << r.insert_delete_ops_per_second
       << ", \"speedup_vs_1x1\": " << r.insert_delete_ops_per_second / base
       << ", \"mean_op_ns\": " << r.mean_op_ns
       << ", \"max_op_ns\": " << r.max_op_ns
       << ", \"rejected\": " << r.rejected
       << ", \"page_reads\": " << r.io.page_reads
       << ", \"page_writes\": " << r.io.page_writes
       << ", \"logical_reads\": " << r.io.logical_reads
       << ", \"logical_writes\": " << r.io.logical_writes
       << ", \"logical_accesses_per_op\": " << r.logical_accesses_per_op
       << ", \"physical_accesses_per_op\": " << r.physical_accesses_per_op
       << ", \"staging_puts\": " << r.staging.puts
       << ", \"staging_hits\": " << r.staging.hits
       << ", \"staging_drain_steps\": " << r.staging.drain_steps
       << ", \"staging_drained_entries\": " << r.staging.drained_entries
       << ", \"per_shard_staging\": [";
    for (size_t s = 0; s < r.per_shard_staging.size(); ++s) {
      const StagingStats& ss = r.per_shard_staging[s];
      os << (s == 0 ? "" : ", ") << "{\"hits\": " << ss.hits
         << ", \"puts\": " << ss.puts
         << ", \"drain_steps\": " << ss.drain_steps
         << ", \"drained_entries\": " << ss.drained_entries << "}";
    }
    os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  int64_t total_ops = 24000;
  int64_t total_pages = 4096;
  int64_t fill_percent = 50;
  int64_t page_latency_us = 100;
  int64_t staging_bytes = 0;
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
      if (total_ops < 1) {
        std::cerr << "invalid flag: " << arg << " (need >= 1)\n";
        return 1;
      }
    } else if (arg.rfind("--total_pages=", 0) == 0) {
      total_pages = std::stoll(arg.substr(14));
    } else if (arg.rfind("--fill_percent=", 0) == 0) {
      fill_percent = std::stoll(arg.substr(15));
      DSF_CHECK(fill_percent >= 1 && fill_percent <= 99);
    } else if (arg.rfind("--page_latency_us=", 0) == 0) {
      page_latency_us = std::stoll(arg.substr(18));
      DSF_CHECK(page_latency_us >= 0);
    } else if (arg.rfind("--staging_bytes=", 0) == 0) {
      staging_bytes = std::stoll(arg.substr(16));
      DSF_CHECK(staging_bytes >= 0);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }
  const Key key_space = static_cast<Key>(total_pages) * 8;  // = capacity
  // Open the output before the sweep: an unwritable path fails now, not
  // after minutes of runs.
  std::ofstream out_file;
  if (out != "-") {
    out_file.open(out);
    if (!out_file.good()) {
      std::cerr << "cannot open --out: " << out << "\n";
      return 1;
    }
  }

  const std::vector<Config> sweep = {
      {1, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 4}, {2, 8}, {4, 8}, {8, 8},
  };

  bench::Section(
      "E14: shard x thread scaling, mixed workload (page latency " +
      std::to_string(page_latency_us) + "us, staging " +
      std::to_string(staging_bytes) + "B)");
  bench::Table table({"threads", "shards", "wall s", "Mops/s",
                      "ins+del Mops/s", "speedup", "mean ns", "max us"});
  std::vector<Row> rows;
  for (const Config& config : sweep) {
    DSF_CHECK(total_pages % config.shards == 0)
        << "total_pages must divide evenly into shards";
    DSF_CHECK(total_ops % config.threads == 0)
        << "total_ops must divide evenly into threads";
    rows.push_back(RunConfig(config, total_pages, total_ops, key_space,
                             fill_percent, page_latency_us, staging_bytes));
    const Row& r = rows.back();
    table.Row(r.config.threads, r.config.shards, r.wall_seconds,
              r.ops_per_second * 1e-6,
              r.insert_delete_ops_per_second * 1e-6,
              r.insert_delete_ops_per_second /
                  rows.front().insert_delete_ops_per_second,
              r.mean_op_ns, static_cast<double>(r.max_op_ns) * 1e-3);
  }
  table.Print();

  WriteJson(out == "-" ? std::cout : out_file, rows, total_pages, total_ops,
            key_space, fill_percent, page_latency_us, staging_bytes);
  if (out != "-") bench::Note("JSON written to " + out);
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
