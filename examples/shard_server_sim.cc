// Shard server simulation: a key-range-sharded dense file serving
// concurrent clients.
//
// A storage node keeps one big ordered record file, split into S
// key-range shards (one DenseFile each). This example walks through the
// operational story end to end:
//
//   1. The incoming dataset is *skewed* — most keys crowd a low band —
//      so uniform splitters would overload the first shards. Splitters
//      are learned from a sample (equi-depth quantiles) instead, and the
//      example prints the per-shard record counts both ways.
//   2. Four clients then drive the learned-splitter file concurrently
//      with a mixed insert/delete/get/scan stream, each client serving
//      its own key partition (the usual sharded-system client shape).
//   3. The run ends with per-shard load and I/O counters and the exact
//      aggregate — per-shard trackers are single-writer under the shard
//      mutex, so the summation loses nothing — plus the invariant sweep
//      every shard must pass. The traffic is uniform while the data is
//      skewed, so the wide sparse shards absorb net insert growth until
//      they reach N = d*M and reject further inserts cleanly
//      (CapacityExceeded) — watch the final per-shard counts pin at
//      4096 while the hot shards stay in steady state.
//
//   ./build/examples/shard_server_sim

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "shard/sharded_dense_file.h"
#include "util/check.h"
#include "util/random.h"

namespace {

constexpr int kShards = 8;
constexpr int kClients = 4;
constexpr int kOpsPerClient = 6000;
constexpr dsf::Key kKeySpace = 1 << 20;

// Skewed dataset: ~70% of records in the lowest 1/16th of the key
// space, the rest spread over the remainder.
std::vector<dsf::Record> MakeSkewedRecords(int64_t n, dsf::Rng& rng) {
  std::vector<dsf::Record> records;
  records.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(records.size()) < n) {
    const bool hot = rng.NextDouble() < 0.7;
    const dsf::Key k = hot ? 1 + rng.Uniform(kKeySpace / 16)
                           : 1 + rng.Uniform(kKeySpace);
    records.push_back(dsf::Record{k, k});
  }
  std::sort(records.begin(), records.end(),
            [](const dsf::Record& a, const dsf::Record& b) {
              return a.key < b.key;
            });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const dsf::Record& a, const dsf::Record& b) {
                              return a.key == b.key;
                            }),
                records.end());
  return records;
}

std::unique_ptr<dsf::ShardedDenseFile> MakeServer(
    const std::vector<dsf::Key>& splitters) {
  dsf::ShardedDenseFile::Options options;
  options.num_shards = kShards;
  options.shard.num_pages = 512;
  options.shard.d = 8;
  options.shard.D = 36;  // gap 28 > 3*ceil(log 512) = 27: plain pages
  options.splitters = splitters;
  options.key_space = kKeySpace;
  return std::move(*dsf::ShardedDenseFile::Create(options));
}

// One client's tallies, written only by that client's thread.
struct ClientStats {
  int64_t updates = 0;
  int64_t gets = 0;
  int64_t scans = 0;
  int64_t scan_records = 0;
  int64_t rejected = 0;    // AlreadyExists / NotFound / CapacityExceeded
  int64_t unexpected = 0;  // any other failure
};

// Client c serves the keys (c*W, (c+1)*W], W = kKeySpace / kClients:
// 35% inserts, 30% deletes, 5% scans of 256 keys, the rest gets. It
// waits on `start` so that every client begins at once.
void RunClient(dsf::ShardedDenseFile& server, int client, std::latch& start,
               ClientStats* stats) {
  constexpr dsf::Key kWidth = kKeySpace / kClients;
  dsf::Rng rng(7 * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client) + 1);
  std::vector<dsf::Record> scan_out;
  start.arrive_and_wait();
  for (int i = 0; i < kOpsPerClient; ++i) {
    const dsf::Key k = client * kWidth + 1 + rng.Uniform(kWidth);
    const double roll = rng.NextDouble();
    dsf::Status status;
    if (roll < 0.35) {
      status = server.Insert(k, k);
      ++stats->updates;
    } else if (roll < 0.65) {
      status = server.Delete(k);
      ++stats->updates;
    } else if (roll < 0.70) {
      scan_out.clear();
      status = server.Scan(k, k + 256, &scan_out);
      ++stats->scans;
      stats->scan_records += static_cast<int64_t>(scan_out.size());
    } else {
      status = server.Get(k).status();
      ++stats->gets;
    }
    if (status.ok()) continue;
    if (status.IsAlreadyExists() || status.IsNotFound() ||
        status.IsCapacityExceeded()) {
      ++stats->rejected;
    } else {
      ++stats->unexpected;
    }
  }
}

void PrintShardSizes(const char* label, dsf::ShardedDenseFile& server) {
  std::printf("%-18s", label);
  for (int s = 0; s < server.num_shards(); ++s) {
    std::printf(" %6lld", static_cast<long long>(server.shard_size(s)));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  dsf::Rng rng(20260807);
  const std::vector<dsf::Record> dataset = MakeSkewedRecords(24000, rng);
  std::printf("dataset: %lld records, 70%% inside the lowest 1/16th of "
              "the key space\n\n",
              static_cast<long long>(dataset.size()));

  // --- 1. Uniform vs learned splitters on the skewed dataset ---------
  std::unique_ptr<dsf::ShardedDenseFile> uniform = MakeServer({});
  const dsf::Status uniform_load = uniform->BulkLoad(dataset);
  std::printf("uniform splitters:  BulkLoad %s\n",
              uniform_load.ok() ? "ok" : uniform_load.ToString().c_str());
  if (uniform_load.ok()) PrintShardSizes("  records/shard", *uniform);

  const std::vector<dsf::Key> learned =
      dsf::ShardedDenseFile::LearnSplitters(dataset, kShards);
  std::unique_ptr<dsf::ShardedDenseFile> server = MakeServer(learned);
  DSF_CHECK(server->BulkLoad(dataset).ok());
  std::printf("learned splitters:  BulkLoad ok (equi-depth quantiles)\n");
  PrintShardSizes("  records/shard", *server);

  // --- 2. Concurrent mixed traffic over the learned-splitter file ----
  server->ResetStats();
  const dsf::IoStats io_before = server->io_stats();
  std::vector<ClientStats> clients(kClients);
  std::latch start(kClients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, std::ref(*server), c, std::ref(start),
                         &clients[static_cast<size_t>(c)]);
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const dsf::IoStats io = server->io_stats() - io_before;
  ClientStats agg;
  for (const ClientStats& c : clients) {
    agg.updates += c.updates;
    agg.gets += c.gets;
    agg.scans += c.scans;
    agg.scan_records += c.scan_records;
    agg.rejected += c.rejected;
    agg.unexpected += c.unexpected;
  }
  const int64_t ops = int64_t{kClients} * kOpsPerClient;

  std::printf("\n%d clients x %d ops (35/30/30/5 ins/del/get/scan): "
              "%.2f s wall, %.0f ops/s\n",
              kClients, kOpsPerClient, wall_s,
              static_cast<double>(ops) / wall_s);
  std::printf("applied: %lld inserts+deletes, %lld gets, %lld scans "
              "(%lld records), %lld rejected, %lld unexpected errors\n",
              static_cast<long long>(agg.updates),
              static_cast<long long>(agg.gets),
              static_cast<long long>(agg.scans),
              static_cast<long long>(agg.scan_records),
              static_cast<long long>(agg.rejected),
              static_cast<long long>(agg.unexpected));

  // --- 3. Per-shard accounting and the invariant sweep ---------------
  PrintShardSizes("final records", *server);
  std::printf("%-18s", "page accesses");
  for (int s = 0; s < server->num_shards(); ++s) {
    const dsf::IoStats shard_io = server->shard_io_stats(s);
    std::printf(" %6lld", static_cast<long long>(shard_io.page_reads +
                                                 shard_io.page_writes));
  }
  // Keep the two sides of the I/O split on their own lines: logical
  // accesses are the algorithm's cost (the paper's metric), physical
  // counters are what reached the simulated devices — dividing logical
  // ops by physical seeks would mix incompatible units.
  std::printf("\nlogical:  %.2f accesses/op (%lld reads + %lld writes)\n",
              static_cast<double>(io.TotalLogical()) / ops,
              static_cast<long long>(io.logical_reads),
              static_cast<long long>(io.logical_writes));
  std::printf("physical: %.2f accesses/op (%lld reads + %lld writes, "
              "%lld seeks); worst command %lld accesses\n",
              static_cast<double>(io.TotalAccesses()) / ops,
              static_cast<long long>(io.page_reads),
              static_cast<long long>(io.page_writes),
              static_cast<long long>(io.seeks),
              static_cast<long long>(
                  server->command_stats().max_command_accesses));

  const dsf::Status invariants = server->ValidateInvariants();
  std::printf("ValidateInvariants: %s\n",
              invariants.ok() ? "ok on every shard" : "FAILED");
  return invariants.ok() && agg.unexpected == 0 ? 0 : 1;
}
