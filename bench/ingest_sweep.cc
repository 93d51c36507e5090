// Ingest staging sweep: memtable size x workload, in page accesses.
//
// Replays write-heavy traces against a DenseFile (fixed 256-frame pool)
// at staging buffer sizes 0 (staging disabled — the baseline), 64, 256
// and 1024 entries, and reports physical traffic, seeks and
// drain-scheduler counters per configuration as JSON — the artifact
// tracked in BENCH_ingest.json.
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
//                    per-op write and seek counts collapse.
//   uniform_mix      60% inserts / 20% deletes / 20% gets over the whole
//                    key space — exercises the merged read view and
//                    tombstone staging under no locality (honest case).
//
// Every configuration runs with certify_bound: each drained entry is an
// ordinary certified command, so the sweep doubles as evidence that the
// drain scheduler never breaches the K*(4J+2) per-command envelope —
// the run aborts on any bound violation, audit failure or invariant
// break. The counts include the final Flush() (staged drains + pool
// write-back), so staged configurations pay for durability in the
// figures. The sweep counts accesses only; wall time on a real device is
// the ledger benchmark's job (bench/ledger).
//
// Usage: ingest_sweep [--ops=N] [--num_pages=M] [--out=PATH]

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/auditor.h"
#include "bench_common.h"
#include "core/dense_file.h"
#include "util/check.h"
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
  double logical_per_op = 0;
  double physical_per_op = 0;
  IoStats io;
  BufferPool::Stats cache;
  StagingStats staging;
  int64_t bound_budget = 0;
  int64_t bound_max_accesses = 0;
  int64_t bound_violations = 0;
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
              int64_t load_records) {
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

  for (const Op& op : trace) {
    const Status s = Apply(file, op);
    DSF_CHECK(s.ok() || s.IsAlreadyExists() || s.IsNotFound()) << s;
  }
  // Durability point inside the counted traffic: staged configurations
  // pay for their deferred writes.
  DSF_CHECK(file.Flush().ok());
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

void WriteJson(std::ostream& os, const std::vector<Row>& rows,
               int64_t num_pages, int64_t total_ops) {
  os << "{\n";
  os << "  \"benchmark\": \"ingest_sweep\",\n";
  os << "  \"num_pages\": " << num_pages << ",\n";
  os << "  \"total_ops\": " << total_ops << ",\n";
  os << "  \"pool_frames\": " << kPoolFrames << ",\n";
  os << "  \"configs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"workload\": \"" << r.workload << "\""
       << ", \"staging_entries\": " << r.staging_entries
       << ", \"drain_batch\": " << r.drain_batch
       << ", \"drain_access_budget\": " << r.drain_access_budget
       << ", \"logical_per_op\": " << r.logical_per_op
       << ", \"physical_per_op\": " << r.physical_per_op
       << ", \"physical_writes\": " << r.io.page_writes
       << ", \"physical_reads\": " << r.io.page_reads
       << ", \"seeks\": " << r.io.seeks
       << ", \"write_combines\": " << r.cache.write_combines
       << ", \"additive_absorbs\": " << r.cache.additive_absorbs
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
  os << "  ]\n}\n";
}

int Main(int argc, char** argv) {
  int64_t total_ops = 5000;
  int64_t num_pages = 4096;
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
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  const int64_t capacity = num_pages * 8;  // d * M
  const int64_t load_records = capacity / 2;
  if (total_ops > capacity - load_records) {
    std::cerr << "invalid flag: --ops=" << total_ops
              << " (the burst must fit the file's free half, <= "
              << capacity - load_records << ")\n";
    return 1;
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
  const Key key_space = static_cast<Key>(capacity);

  Rng mix_rng(20260808);
  const std::vector<std::pair<std::string, Trace>> workloads = {
      {"ascending_burst",
       AscendingBurst(total_ops, static_cast<Key>(load_records) + 1)},
      {"uniform_mix",
       UniformMix(total_ops, kMixInsertFraction, kMixDeleteFraction,
                  key_space, mix_rng)},
  };
  const std::vector<int64_t> staging_sizes = {0, 64, 256, 1024};

  bench::Section("E18: ingest staging size x workload");
  bench::Table table({"workload", "staging", "batch", "logical/op",
                      "phys/op", "phys W", "seeks", "drains", "max acc",
                      "budget"});
  std::vector<Row> rows;
  for (const auto& [name, trace] : workloads) {
    for (const int64_t staging : staging_sizes) {
      Row row = RunConfig(name, trace, num_pages, staging, load_records);
      table.Row(row.workload, row.staging_entries, row.drain_batch,
                row.logical_per_op, row.physical_per_op, row.io.page_writes,
                row.io.seeks, row.staging.drain_steps,
                row.bound_max_accesses, row.bound_budget);
      rows.push_back(std::move(row));
    }
  }
  table.Print();

  if (out == "-") {
    WriteJson(std::cout, rows, num_pages, total_ops);
  } else {
    WriteJson(out_file, rows, num_pages, total_ops);
    bench::Note("JSON written to " + out);
  }
  return 0;
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) { return dsf::Main(argc, argv); }
