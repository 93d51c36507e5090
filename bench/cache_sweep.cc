// Buffer-pool sweep: pool size x workload skew under device latency.
//
// Replays three single-client point-operation traces (Zipf-skewed,
// uniform, fully sequential) against a device-resident DenseFile at pool
// sizes 0 (direct to device), 1%, 5% and 20% of the file's pages, and
// reports replayed-trace throughput, hit rate and write amplification per
// configuration as JSON — the perf trajectory artifact tracked in
// BENCH_cache.json.
//
// The file is measured as a *device-resident* structure: every physical
// page access sleeps for --page_latency_us (default 25us, NVMe class).
// The pool converts the logical accesses the algorithms request into
// fewer physical transfers — read hits are served from frames, repeated
// writes combine at the tail of the dirty-order list — so throughput
// scales with the miss traffic, not the request traffic. Zipf ranks map
// to keys directly, making the hot set a contiguous low-key range whose
// pages fit in a small pool: the headline configuration (5% pool, Zipf
// reads/writes) targets >= 2x over the unpooled baseline. Uniform traffic
// shows the honest worst case (little locality to cache), sequential
// lookups the best (each page serves ~d consecutive gets).
//
// Usage: cache_sweep [--ops=N] [--num_pages=M] [--fill_percent=F]
//                    [--theta=T] [--page_latency_us=U] [--out=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dense_file.h"
#include "util/check.h"
#include "workload/workload.h"

namespace dsf {
namespace {

constexpr double kInsertFraction = 0.20;
constexpr double kDeleteFraction = 0.20;

struct Row {
  std::string workload;
  int64_t pool_frames = 0;
  double pool_percent = 0;
  double wall_seconds = 0;
  double ops_per_second = 0;
  double speedup_vs_nopool = 1.0;
  double hit_rate = 0;
  double write_amplification = 0;
  IoStats io;
  BufferPool::Stats cache;
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

Row RunConfig(const std::string& workload, const Trace& trace,
              int64_t num_pages, int64_t pool_frames, int64_t fill_percent,
              int64_t page_latency_us) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  options.D = 36;  // same geometry as the sharding sweep (E14)
  options.cache_frames = pool_frames;
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  DSF_CHECK(created.ok()) << created.status();
  DenseFile& file = **created;

  // Warm start at fill_percent of capacity, approximately even over the
  // key space (key space = capacity, so Zipf rank r maps to key r + 1).
  const Key key_space = static_cast<Key>(file.capacity());
  std::vector<Record> initial;
  const int64_t skip = std::max<int64_t>(2, 100 / (100 - fill_percent));
  for (Key k = 1; k <= key_space; ++k) {
    if (static_cast<int64_t>(k % skip) != 0) initial.push_back(Record{k, k});
  }
  DSF_CHECK(file.BulkLoad(initial).ok());
  file.ResetIoStats();
  file.ResetCacheStats();
  // The device model applies to the measured traffic only, not the load:
  // a flat per-access latency (no seek charge), paid as a real sleep.
  file.control().file().set_disk_model(
      DiskModel{/*seek_ms=*/0,
                /*transfer_ms=*/static_cast<double>(page_latency_us) * 1e-3},
      /*sleep=*/page_latency_us > 0);

  const auto start = std::chrono::steady_clock::now();
  for (const Op& op : trace) {
    const Status s = Apply(file, op);
    DSF_CHECK(s.ok() || s.IsAlreadyExists() || s.IsNotFound()) << s;
  }
  const auto end = std::chrono::steady_clock::now();

  file.control().file().set_disk_model(DiskModel{0, 0});
  DSF_CHECK(file.ValidateInvariants().ok());

  Row row;
  row.workload = workload;
  row.pool_frames = pool_frames;
  row.pool_percent = 100.0 * static_cast<double>(pool_frames) /
                     static_cast<double>(num_pages);
  row.wall_seconds = std::chrono::duration<double>(end - start).count();
  row.ops_per_second =
      static_cast<double>(trace.size()) / row.wall_seconds;
  row.io = file.io_stats();
  row.cache = file.cache_stats();
  row.hit_rate =
      row.io.logical_reads == 0
          ? 0.0
          : 1.0 - static_cast<double>(row.io.page_reads) /
                      static_cast<double>(row.io.logical_reads);
  row.write_amplification =
      row.io.logical_writes == 0
          ? 0.0
          : static_cast<double>(row.io.page_writes) /
                static_cast<double>(row.io.logical_writes);
  return row;
}

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               int64_t num_pages, int64_t total_ops, int64_t fill_percent,
               double theta, int64_t page_latency_us) {
  os << "{\n";
  os << "  \"benchmark\": \"cache_sweep\",\n";
  os << "  \"num_pages\": " << num_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"zipf_theta\": " << theta << ",\n";
  os << "  \"page_latency_us\": " << page_latency_us << ",\n";
  os << "  \"workload_mix\": {\"insert\": " << kInsertFraction
     << ", \"delete\": " << kDeleteFraction << ", \"get\": "
     << 1.0 - kInsertFraction - kDeleteFraction << "},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\""
       << ", \"pool_frames\": " << r.pool_frames
       << ", \"pool_percent\": " << r.pool_percent
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"ops_per_second\": " << r.ops_per_second
       << ", \"speedup_vs_nopool\": " << r.speedup_vs_nopool
       << ", \"hit_rate\": " << r.hit_rate
       << ", \"write_amplification\": " << r.write_amplification
       << ", \"logical_reads\": " << r.io.logical_reads
       << ", \"physical_reads\": " << r.io.page_reads
       << ", \"logical_writes\": " << r.io.logical_writes
       << ", \"physical_writes\": " << r.io.page_writes
       << ", \"seeks\": " << r.io.seeks
       << ", \"write_combines\": " << r.cache.write_combines
       << ", \"flush_runs\": " << r.cache.flush_runs
       << ", \"evictions\": " << r.cache.evictions << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  int64_t total_ops = 20000;
  int64_t num_pages = 4096;
  int64_t fill_percent = 80;
  double theta = 1.1;
  int64_t page_latency_us = 25;
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
    } else if (arg.rfind("--num_pages=", 0) == 0) {
      num_pages = std::stoll(arg.substr(12));
    } else if (arg.rfind("--fill_percent=", 0) == 0) {
      fill_percent = std::stoll(arg.substr(15));
      DSF_CHECK(fill_percent >= 1 && fill_percent <= 99);
    } else if (arg.rfind("--theta=", 0) == 0) {
      theta = std::stod(arg.substr(8));
    } else if (arg.rfind("--page_latency_us=", 0) == 0) {
      page_latency_us = std::stoll(arg.substr(18));
      DSF_CHECK(page_latency_us >= 0);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  const Key key_space = static_cast<Key>(num_pages) * 8;  // = capacity
  Rng zipf_rng(20260807);
  Rng uniform_rng(20260807);
  const std::vector<std::pair<std::string, Trace>> workloads = {
      {"zipf", ZipfMix(total_ops, kInsertFraction, kDeleteFraction,
                       key_space, theta, zipf_rng)},
      {"uniform", UniformMix(total_ops, kInsertFraction, kDeleteFraction,
                             key_space, uniform_rng)},
      {"sequential", SequentialGets(total_ops, key_space)},
  };
  // Pool sizes as a fraction of the file's pages.
  const std::vector<int64_t> pool_frames = {0, num_pages / 100,
                                            num_pages / 20, num_pages / 5};

  bench::Section("E16: buffer-pool size x workload skew (page latency " +
                 std::to_string(page_latency_us) + "us)");
  bench::Table table({"workload", "pool", "pool %", "wall s", "Kops/s",
                      "speedup", "hit rate", "write amp", "combines",
                      "flush runs"});
  std::vector<Row> rows;
  for (const auto& [name, trace] : workloads) {
    double base_ops_per_second = 0;
    for (const int64_t frames : pool_frames) {
      Row row = RunConfig(name, trace, num_pages, frames, fill_percent,
                          page_latency_us);
      if (frames == 0) base_ops_per_second = row.ops_per_second;
      row.speedup_vs_nopool = row.ops_per_second / base_ops_per_second;
      table.Row(row.workload, row.pool_frames, row.pool_percent,
                row.wall_seconds, row.ops_per_second * 1e-3,
                row.speedup_vs_nopool, row.hit_rate,
                row.write_amplification,
                row.cache.write_combines, row.cache.flush_runs);
      rows.push_back(std::move(row));
    }
  }
  table.Print();

  if (out == "-") {
    WriteJson(std::cout, rows, num_pages, total_ops, fill_percent, theta,
              page_latency_us);
  } else {
    std::ofstream f(out);
    DSF_CHECK(f.good()) << "cannot open " << out;
    WriteJson(f, rows, num_pages, total_ops, fill_percent, theta,
              page_latency_us);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
