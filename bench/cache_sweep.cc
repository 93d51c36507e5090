// Buffer-pool sweep: pool size x workload skew, in page accesses.
//
// Replays three single-client point-operation traces (Zipf-skewed,
// uniform, fully sequential) against a DenseFile at pool sizes 0 (direct
// to device), 1%, 5% and 20% of the file's pages, and reports hit rate,
// logical vs. physical traffic, write amplification, seeks and pool
// counters per configuration as JSON — the artifact tracked in
// BENCH_cache.json.
//
// The pool converts the logical accesses the algorithms request into
// fewer physical transfers: read hits are served from frames, repeated
// writes combine at the tail of the dirty-order list. Zipf ranks map to
// keys directly, making the hot set a contiguous low-key range whose
// pages fit in a small pool. Uniform traffic shows the honest worst case
// (little locality to cache), sequential lookups the best (each page
// serves ~d consecutive gets). The sweep counts accesses only; wall time
// on a real device is the ledger benchmark's job (bench/ledger).
//
// Usage: cache_sweep [--ops=N] [--num_pages=M] [--fill_percent=F]
//                    [--theta=T] [--out=PATH]

#include <algorithm>
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
              int64_t num_pages, int64_t pool_frames, int64_t fill_percent) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  options.D = 36;  // same geometry as the ingest sweep (E18)
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

  for (const Op& op : trace) {
    const Status s = Apply(file, op);
    DSF_CHECK(s.ok() || s.IsAlreadyExists() || s.IsNotFound()) << s;
  }
  DSF_CHECK(file.ValidateInvariants().ok());

  Row row;
  row.workload = workload;
  row.pool_frames = pool_frames;
  row.pool_percent = 100.0 * static_cast<double>(pool_frames) /
                     static_cast<double>(num_pages);
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
               double theta) {
  os << "{\n";
  os << "  \"benchmark\": \"cache_sweep\",\n";
  os << "  \"num_pages\": " << num_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"fill_percent\": " << fill_percent << ",\n";
  os << "  \"zipf_theta\": " << theta << ",\n";
  os << "  \"workload_mix\": {\"insert\": " << kInsertFraction
     << ", \"delete\": " << kDeleteFraction << ", \"get\": "
     << 1.0 - kInsertFraction - kDeleteFraction << "},\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\""
       << ", \"pool_frames\": " << r.pool_frames
       << ", \"pool_percent\": " << r.pool_percent
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
  std::string out = "-";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ops=", 0) == 0) {
      total_ops = std::stoll(arg.substr(6));
      if (total_ops < 1) {
        std::cerr << "invalid flag: " << arg << " (need >= 1)\n";
        return 1;
      }
    } else if (arg.rfind("--num_pages=", 0) == 0) {
      num_pages = std::stoll(arg.substr(12));
    } else if (arg.rfind("--fill_percent=", 0) == 0) {
      fill_percent = std::stoll(arg.substr(15));
      if (fill_percent < 1 || fill_percent > 99) {
        std::cerr << "invalid flag: " << arg << " (need 1..99)\n";
        return 1;
      }
    } else if (arg.rfind("--theta=", 0) == 0) {
      theta = std::stod(arg.substr(8));
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }
  // Open the output before the sweep: an unwritable path fails now, not
  // after the runs.
  std::ofstream out_file;
  if (out != "-") {
    out_file.open(out);
    if (!out_file.good()) {
      std::cerr << "cannot open --out: " << out << "\n";
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

  bench::Section("E16: buffer-pool size x workload skew");
  bench::Table table({"workload", "pool", "pool %", "hit rate", "phys R",
                      "phys W", "write amp", "seeks", "combines",
                      "flush runs"});
  std::vector<Row> rows;
  for (const auto& [name, trace] : workloads) {
    for (const int64_t frames : pool_frames) {
      Row row = RunConfig(name, trace, num_pages, frames, fill_percent);
      table.Row(row.workload, row.pool_frames, row.pool_percent,
                row.hit_rate, row.io.page_reads, row.io.page_writes,
                row.write_amplification, row.io.seeks,
                row.cache.write_combines, row.cache.flush_runs);
      rows.push_back(std::move(row));
    }
  }
  table.Print();

  if (out == "-") {
    WriteJson(std::cout, rows, num_pages, total_ops, fill_percent, theta);
  } else {
    WriteJson(out_file, rows, num_pages, total_ops, fill_percent, theta);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
