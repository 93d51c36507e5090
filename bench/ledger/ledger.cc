// ledger: the repository's end-to-end benchmark on the real FileBackend.
//
// Replays one seeded, closed-loop workload through the public DenseFile /
// ShardedDenseFile API with every page on a FileBackend file pair under
// --dir, checks every answer against ReferenceModel, and prints one JSON
// line with the end-to-end metrics, the per-layer metrics, diagnostics
// and a run stamp. bench/ledger/run.py builds this binary, runs it and
// turns the line into the benchmark's report; README.md explains the
// workloads and the metrics.
//
// A run sets up (Create + BulkLoad) --reps times and keeps the last file,
// replays batches of ops (a warm-up share of --seconds first, then
// measured batches until --seconds of replay), then flushes, closes and
// reopens the file with the full CheckAndRepair --reps times and checks
// the reopened file against the model. Each batch's ops and expected
// outcomes are generated before its clock starts, and each answer is
// checked after its op's clock stops.
//
// With --trace=1 every second measured batch is traced: spans around each
// call (tracing.h) and counter deltas over those batches give the layer
// split, and the untraced batches between them give the tracing overhead.
// End-to-end latencies and ops/s come from untraced batches only.
//
// Usage: ledger --workload=NAME --dir=DIR [--seed=N] [--seconds=S]
//               [--trace=0|1] [--reps=N] [--spans=PATH]

#include <malloc.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/control2.h"
#include "core/dense_file.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/sharded_dense_file.h"
#include "storage/file_backend.h"
#include "tracing.h"
#include "util/random.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf::ledger {
namespace {

// CONTROL 2 over M = 16384 pages of D = 240 records with d = 128: a
// 240-record page (16 + 16 * 241 bytes) fills one 4 KiB device slot, so
// the data file is 64 MiB.
constexpr int64_t kPages = 16384;
constexpr int64_t kMinD = 128;
constexpr int64_t kPageCap = 240;
constexpr int64_t kCapacity = kMinD * kPages;
constexpr int64_t kSlotBytes = 4096;
constexpr int kShards = 4;

constexpr int64_t kBatchOps = 2048;
constexpr double kWarmupShare = 0.1;
constexpr double kMaxWarmupNs = 1e9;
constexpr size_t kRecentKeys = 4096;
constexpr Key kScanSpan = 2000;
constexpr Key kHotStride = 65536;
constexpr Key kHotPageRecords = 64;  // records per page at 50% fill
constexpr size_t kRawSpansPerThread = 200000;
constexpr size_t kChunks = 8;

enum class Shape { kPointMix, kHotspot, kAppend, kZipf, kScan };

struct Workload {
  const char* name;
  Shape shape;
  double fill;  // initial records as a share of capacity d*M
  int clients;  // closed-loop client threads
  int64_t pool_frames;
  int64_t staging_entries;
  int64_t flush_every;  // an explicit Flush() every this many ops; 0: none
  // Per-client cap on measured ops; it sizes the latency buffers. The
  // insert-heavy workloads stop well short of capacity.
  int64_t max_ops;
};

// README.md gives the reason for each workload.
constexpr Workload kWorkloads[] = {
    {"point_mix_disk", Shape::kPointMix, 0.70, 1, 819, 0, 0, 2000000},
    {"hotspot_surge", Shape::kHotspot, 0.50, 1, 819, 0, 0,
     static_cast<int64_t>(0.4 * kCapacity / 0.8)},
    {"append_ingest", Shape::kAppend, 0.50, 1, 256, 1024, 1000,
     static_cast<int64_t>(0.4 * kCapacity / 0.9)},
    {"zipf_read_sharded", Shape::kZipf, 0.70, 2, 819, 0, 0, 3000000},
    {"scan_update", Shape::kScan, 0.70, 1, kPages, 0, 0, 2000000},
};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Every key has one legal value per seed, so a reader racing a writer
// can still check what it got.
Value ValueOf(Key key, uint64_t seed) { return Mix(key ^ Mix(seed)); }

Key InitialStride(Shape shape) {
  return shape == Shape::kHotspot ? kHotStride : 2;
}

// A bijection on [0, 2^22): odd multipliers and xor-shifts each permute
// the range, so hot-spot insert keys are distinct without a seen-set.
class Permutation22 {
 public:
  static constexpr uint64_t kSize = uint64_t{1} << 22;
  explicit Permutation22(Rng& rng)
      : a_(rng.Next() | 1), b_(rng.Next() | 1), c_(rng.Next()) {}
  uint64_t operator()(uint64_t x) const {
    x = (x * a_ + c_) & kMask;
    x ^= x >> 11;
    x = (x * b_) & kMask;
    x ^= x >> 9;
    return (x * a_) & kMask;
  }

 private:
  static constexpr uint64_t kMask = kSize - 1;
  uint64_t a_, b_, c_;
};

// What an op must return: a status code, plus the value of a Get or the
// count and end keys of a Scan.
struct Expect {
  StatusCode code = StatusCode::kOk;
  bool either = false;  // a Get of a key another client writes
  Value value = 0;
  int64_t count = 0;
  Key first = 0;
  Key last = 0;
};

// One closed-loop client: its op stream and the model of the keys it
// writes. Zipf clients write only keys of their own parity, so each
// model is exact for its own keys.
class Client {
 public:
  Client(const Workload& w, int id, uint64_t seed,
         const std::vector<Record>& initial, const ZipfGenerator* zipf)
      : w_(w),
        id_(id),
        seed_(seed),
        rng_(Mix(seed * 131 + static_cast<uint64_t>(id))),
        model_(w.shape == Shape::kZipf ? INT64_MAX : kCapacity),
        zipf_(zipf),
        perm_(rng_),
        key_space_(initial.back().key) {
    for (const Record& r : initial) {
      if (w.shape != Shape::kZipf || static_cast<int>(r.key % 2) == id) {
        DSF_CHECK(model_.Insert(r).ok());
      }
    }
    if (w.shape == Shape::kHotspot) {
      // The hot range: the keys of the page holding the middle record.
      hot_lo_ = initial[initial.size() / 2].key;
      for (Key i = 0; i < kHotPageRecords; ++i) Remember(hot_lo_ + i * kHotStride);
    }
    if (w.shape == Shape::kAppend) {
      next_append_ = key_space_ + 2;
      for (size_t i = initial.size() - kRecentKeys; i < initial.size(); ++i) {
        Remember(initial[i].key);
      }
    }
  }

  // Fills the next batch and the expected outcomes, applying each op to
  // the model before the next is drawn, and adds the time each half took.
  void NextBatch(std::vector<Op>* ops, std::vector<Expect>* expect,
                 int64_t* gen_ns, int64_t* oracle_ns) {
    ops->resize(kBatchOps);
    expect->resize(kBatchOps);
    int64_t t0 = NowNs();
    for (int64_t i = 0; i < kBatchOps; ++i) {
      (*ops)[i] = NextOp();
      const int64_t t1 = NowNs();
      (*expect)[i] = Predict((*ops)[i]);
      const int64_t t2 = NowNs();
      *gen_ns += t1 - t0;
      *oracle_ns += t2 - t1;
      t0 = t2;
    }
  }

  const ReferenceModel& model() const { return model_; }

 private:
  Op Insert(Key k) const {
    return Op{Op::Kind::kInsert, Record{k, ValueOf(k, seed_)}, 0};
  }
  static Op OfKind(Op::Kind kind, Key k) { return Op{kind, Record{k, 0}, 0}; }
  Key UniformKey() {
    return static_cast<Key>(
        rng_.UniformInRange(1, static_cast<int64_t>(key_space_)));
  }
  Key RecentKey() { return recent_[rng_.Uniform(recent_.size())]; }
  // An update that changes the file: an insert of a uniform absent key or
  // a delete of a uniform present one. With no-op updates the update
  // latency would be two modes of near-equal weight, no-op and fdatasync,
  // and its median would jump between them from seed to seed.
  Op ApplyingUpdate(bool insert) {
    Key k = UniformKey();
    while (model_.Contains(k) == insert) k = UniformKey();
    return insert ? Insert(k) : OfKind(Op::Kind::kDelete, k);
  }
  void Remember(Key k) {
    if (recent_.size() < kRecentKeys) {
      recent_.push_back(k);
    } else {
      recent_[recent_next_] = k;
      recent_next_ = (recent_next_ + 1) % kRecentKeys;
    }
  }

  Op NextOp() {
    const double roll = rng_.NextDouble();
    switch (w_.shape) {
      case Shape::kPointMix:
        if (roll < 0.5) return ApplyingUpdate(roll < 0.25);
        return OfKind(Op::Kind::kGet, UniformKey());
      case Shape::kHotspot: {
        if (roll >= 0.8) return OfKind(Op::Kind::kGet, RecentKey());
        // Distinct keys from the 65535-key gaps of the hot page's range.
        constexpr uint64_t kGap = kHotStride - 1;
        uint64_t x = perm_(hot_next_++);
        while (x >= kHotPageRecords * kGap) x = perm_(x);
        const Key k = hot_lo_ + (x / kGap) * kHotStride + x % kGap + 1;
        Remember(k);
        return Insert(k);
      }
      case Shape::kAppend: {
        if (roll >= 0.9) return OfKind(Op::Kind::kGet, RecentKey());
        const Key k = next_append_;
        next_append_ += 2;
        Remember(k);
        return Insert(k);
      }
      case Shape::kZipf: {
        const Key k = zipf_->Sample(rng_) + 1;
        if (roll < 0.9) return OfKind(Op::Kind::kGet, k);
        // Updates toggle this client's key next to the drawn rank, so
        // each one changes the file.
        Key own = (k & ~Key{1}) | static_cast<Key>(id_);
        if (own == 0) own = 2;
        return model_.Contains(own) ? OfKind(Op::Kind::kDelete, own)
                                    : Insert(own);
      }
      case Shape::kScan: {
        if (roll >= 0.1) return ApplyingUpdate(roll < 0.55);
        Op op = OfKind(Op::Kind::kScan, UniformKey());
        op.scan_hi = op.record.key + kScanSpan - 1;
        return op;
      }
    }
    return Op{};
  }

  Expect Predict(const Op& op) {
    Expect e;
    switch (op.kind) {
      case Op::Kind::kInsert:
        e.code = model_.Insert(op.record).code();
        break;
      case Op::Kind::kDelete:
        e.code = model_.Delete(op.record.key).code();
        break;
      case Op::Kind::kGet: {
        const Key k = op.record.key;
        if (w_.shape == Shape::kZipf && static_cast<int>(k % 2) != id_) {
          e.either = true;
          e.value = ValueOf(k, seed_);
          break;
        }
        const StatusOr<Record> r = model_.Get(k);
        e.code = r.status().code();
        if (r.ok()) e.value = r->value;
        break;
      }
      case Op::Kind::kScan: {
        const std::vector<Record> r = model_.Scan(op.record.key, op.scan_hi);
        e.count = static_cast<int64_t>(r.size());
        if (!r.empty()) {
          e.first = r.front().key;
          e.last = r.back().key;
        }
        break;
      }
    }
    return e;
  }

  const Workload& w_;
  const int id_;
  const uint64_t seed_;
  Rng rng_;
  ReferenceModel model_;
  const ZipfGenerator* zipf_;
  Permutation22 perm_;
  const Key key_space_;
  Key hot_lo_ = 0;
  uint64_t hot_next_ = 0;
  Key next_append_ = 0;
  std::vector<Key> recent_;
  size_t recent_next_ = 0;
};

SpanName SpanOf(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kInsert: return kOpInsert;
    case Op::Kind::kDelete: return kOpDelete;
    case Op::Kind::kGet: return kOpGet;
    case Op::Kind::kScan: return kOpScan;
  }
  return kOpInsert;
}

bool IsUpdate(Op::Kind kind) {
  return kind == Op::Kind::kInsert || kind == Op::Kind::kDelete;
}

bool Matches(const Op& op, const Expect& e, const Status& s, Value got,
             const std::vector<Record>& scan) {
  if (op.kind == Op::Kind::kScan) {
    const int64_t n = static_cast<int64_t>(scan.size());
    return s.ok() && n == e.count &&
           (n == 0 || (scan.front().key == e.first && scan.back().key == e.last));
  }
  if (e.either) return s.IsNotFound() || (s.ok() && got == e.value);
  if (s.code() != e.code) return false;
  return op.kind != Op::Kind::kGet || !s.ok() || got == e.value;
}

// The file under test: one DenseFile, or a ShardedDenseFile whose shards
// are reopened one by one as DenseFiles.
struct Files {
  std::unique_ptr<DenseFile> single;
  std::unique_ptr<ShardedDenseFile> sharded;
  std::vector<std::unique_ptr<DenseFile>> reopened;  // sharded, after close
  std::vector<TimedBackend*> devices;                // owned by the files

  void Close() {
    single.reset();
    sharded.reset();
    reopened.clear();
    devices.clear();
  }
  Status Apply(const Op& op, Value* got, std::vector<Record>* scan) {
    if (single != nullptr) return ApplyTo(*single, op, got, scan);
    return ApplyTo(*sharded, op, got, scan);
  }
  Status Flush() {
    if (single != nullptr) return single->Flush();
    if (sharded != nullptr) return sharded->Flush();
    for (auto& shard : reopened) DSF_RETURN_IF_ERROR(shard->Flush());
    return Status::OK();
  }

  template <typename File>
  static Status ApplyTo(File& f, const Op& op, Value* got,
                        std::vector<Record>* scan) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        return f.Insert(op.record);
      case Op::Kind::kDelete:
        return f.Delete(op.record.key);
      case Op::Kind::kGet: {
        StatusOr<Value> v = f.Get(op.record.key);
        if (v.ok()) *got = *v;
        return v.status();
      }
      case Op::Kind::kScan:
        return f.Scan(op.record.key, op.scan_hi, scan);
    }
    return Status::OK();
  }
};

// Counters read at batch-window boundaries; their deltas over measured
// and traced windows give pages_per_op and the per-layer counts.
enum Ctr {
  kLogicalReads, kLogicalWrites, kSeeks,
  kPoolHits, kPoolMisses, kPoolEvictions, kPoolWritebacks,
  kPoolWriteCombines, kPoolAdditiveAbsorbs, kPoolRelocations,
  kPoolOrderedFlushes, kPoolFlushRuns,
  kStagingPuts, kStagingHits, kStagingAnnihilations, kStagingDrainSteps,
  kStagingDrained,
  kShifts, kRecordsShifted, kActivations,
  kPreads, kPwrites, kSyncs,
  kReadShared, kReadEpochHits, kReadEpochFallbacks,
  kShardCommands,  // one slot per shard from here
  kNumCtrs = kShardCommands + kShards,
};
using Counters = std::array<int64_t, kNumCtrs>;

Counters operator-(const Counters& a, const Counters& b) {
  Counters d{};
  for (int i = 0; i < kNumCtrs; ++i) d[i] = a[i] - b[i];
  return d;
}
Counters& operator+=(Counters& a, const Counters& b) {
  for (int i = 0; i < kNumCtrs; ++i) a[i] += b[i];
  return a;
}

// Sum of every series of catalog counter `name`, all labels.
int64_t SumCounter(const MetricsSnapshot& snap, const std::string& name) {
  int64_t sum = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name || c.name.rfind(name + "{", 0) == 0) sum += c.value;
  }
  return sum;
}

Counters Snapshot(const Files& f, const MetricsRegistry* registry) {
  Counters c{};
  const bool one = f.single != nullptr;
  const IoStats io = one ? f.single->io_stats() : f.sharded->io_stats();
  c[kLogicalReads] = io.logical_reads;
  c[kLogicalWrites] = io.logical_writes;
  c[kSeeks] = io.seeks;
  const BufferPool::Stats pool =
      one ? f.single->cache_stats() : f.sharded->cache_stats();
  c[kPoolHits] = pool.hits;
  c[kPoolMisses] = pool.misses;
  c[kPoolEvictions] = pool.evictions;
  c[kPoolWritebacks] = pool.writebacks;
  c[kPoolWriteCombines] = pool.write_combines;
  c[kPoolAdditiveAbsorbs] = pool.additive_absorbs;
  c[kPoolRelocations] = pool.relocations;
  c[kPoolOrderedFlushes] = pool.ordered_flushes;
  c[kPoolFlushRuns] = pool.flush_runs;
  const StagingStats st =
      one ? f.single->staging_stats() : f.sharded->staging_stats();
  c[kStagingPuts] = st.puts;
  c[kStagingHits] = st.hits;
  c[kStagingAnnihilations] = st.annihilations;
  c[kStagingDrainSteps] = st.drain_steps;
  c[kStagingDrained] = st.drained_entries;
  if (one) {
    if (const auto* c2 = dynamic_cast<const Control2*>(&f.single->control())) {
      c[kShifts] = c2->stats().shifts;
      c[kRecordsShifted] = c2->stats().records_shifted;
      c[kActivations] = c2->stats().activations;
    }
    c[kShardCommands] = f.single->command_stats().commands;
  } else {
    for (int s = 0; s < kShards; ++s) {
      c[kShardCommands + s] = f.sharded->shard_command_stats(s).commands;
    }
  }
  for (const TimedBackend* d : f.devices) {
    const FileBackend::Stats fs = d->file_stats();
    c[kPreads] += fs.preads;
    c[kPwrites] += fs.pwrites;
    c[kSyncs] += fs.syncs;
  }
  if (registry != nullptr) {
    const MetricsSnapshot snap = registry->Snapshot();
    c[kReadShared] = SumCounter(snap, kMetricReadLockShared);
    c[kReadEpochHits] = SumCounter(snap, kMetricReadLockEpochHits);
    c[kReadEpochFallbacks] = SumCounter(snap, kMetricReadLockEpochFallbacks);
  }
  return c;
}

// One value per line of /proc/self/status, in KiB.
int64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stoll(line.substr(prefix.size()));
  }
  return 0;
}

std::string FsName(const std::string& dir) {
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%llx",
                static_cast<unsigned long long>(fs.f_type));
  return hex;
}

int64_t AllocatedBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const char* name : {"/dsf.idx", "/dsf.dat"}) {
    struct stat st {};
    if (::stat((dir + name).c_str(), &st) == 0) bytes += st.st_blocks * 512;
  }
  return bytes;
}

// Nearest-rank quantile of a sample, sorted in place.
double QuantileUs(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::max<double>(1, std::ceil(q * static_cast<double>(v->size()))));
  std::nth_element(v->begin(), v->begin() + (rank - 1), v->end());
  return (*v)[rank - 1] * 1e-3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A flat JSON object, numbers printed with every digit.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    if (!std::isfinite(v)) return Raw(key, "null");
    std::ostringstream s;
    s.precision(std::numeric_limits<double>::max_digits10);
    s << v;
    return Raw(key, s.str());
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    return Raw(key, q + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

struct Options {
  std::string workload;
  std::string dir;
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int reps = 5;
};

// Everything one client thread owns. Latency buffers are allocated and
// touched before the RSS baseline.
struct ClientState {
  std::unique_ptr<Client> gen;
  std::unique_ptr<SpanBuffer> spans;
  std::vector<uint32_t> latency_ns;
  std::vector<uint8_t> latency_is_update;
  size_t latencies = 0;
  std::vector<size_t> window_ends;  // `latencies` after each untraced window
  std::vector<uint32_t> flush_ns;
  int64_t since_flush = 0;
  int64_t gen_ns = 0;
  int64_t oracle_ns = 0;
  std::vector<std::string> errors;
  // Current window.
  int64_t ops = 0;
  int64_t flushes = 0;
  int64_t updates = 0;
  int64_t applied = 0;
  int64_t failed = 0;
  int64_t replay_ns = 0;
};

class Run;

struct Completion {
  Run* run;
  void (Run::*fn)();
  void operator()() noexcept { (run->*fn)(); }
};

class Run {
 public:
  Run(const Workload& w, const Options& o)
      : w_(w),
        o_(o),
        start_sync_(w.clients, Completion{this, &Run::OnWindowStart}),
        end_sync_(w.clients, Completion{this, &Run::OnWindowEnd}) {}

  int Main();

 private:
  enum class Phase { kWarmup, kMeasure, kStop };

  DenseFile::Options FileOptions(int64_t pages, int64_t frames) const {
    DenseFile::Options fo;
    fo.num_pages = pages;
    fo.d = kMinD;
    fo.D = kPageCap;
    fo.cache_frames = frames;
    fo.staging_entries = w_.staging_entries;
    fo.certify_bound = true;
    fo.metrics = registry_.get();
    return fo;
  }
  int64_t FramesPerShard() const { return w_.pool_frames / kShards; }
  std::string ShardDir(int s) const {
    return o_.dir + "/shard-" + std::to_string(s);
  }
  StorageBackendFactory Factory(const std::string& dir, bool create) {
    FileBackend::Options fb;
    fb.directory = dir;
    return TimedFactory(create ? FileBackend::CreateFactory(fb)
                               : FileBackend::OpenFactory(fb),
                        &files_.devices);
  }
  void Fail(const std::string& what) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  Status Setup(const std::vector<Record>& initial);
  Status CloseAndReopen();
  void ClientLoop(int id);
  void OnWindowStart();
  void OnWindowEnd();
  void DecideNextWindow();
  void CaptureBeforeClose();
  void Verify();
  std::string Report(double setup_s, double reopen_s, double rss_mb);

  const Workload& w_;
  const Options o_;
  std::unique_ptr<MetricsRegistry> registry_;  // sharded traced runs only
  std::unique_ptr<ZipfGenerator> zipf_;
  Files files_;
  std::vector<ClientState> clients_;
  std::unique_ptr<SpanBuffer> main_spans_;  // setup and open, traced runs
  std::barrier<Completion> start_sync_;
  std::barrier<Completion> end_sync_;

  // Written by the barrier completions while every client waits.
  Phase phase_ = Phase::kWarmup;
  bool traced_ = false;
  int64_t measured_windows_ = 0;
  int64_t window_start_ns_ = 0;
  Counters window_start_{};

  int64_t warmup_ns_ = 0;
  int64_t measured_ns_ = 0;
  int64_t measured_ops_ = 0;
  Counters measured_counters_{};
  int64_t traced_ns_ = 0;
  int64_t traced_ops_ = 0;
  int64_t traced_updates_ = 0;
  int64_t traced_applied_ = 0;
  int64_t traced_replay_ns_ = 0;  // summed over clients
  Counters traced_counters_{};
  int64_t untraced_ns_ = 0;
  int64_t untraced_ops_ = 0;
  // Untraced measured windows: ops and wall time of each.
  std::vector<int64_t> window_ops_;
  std::vector<int64_t> window_ns_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;

  // Read before the file is closed, or from the reopened file.
  int64_t max_cmd_pages_ = 0;
  int64_t bound_budget_ = 0;
  int64_t bound_violations_ = 0;
  int64_t live_records_ = 0;
  double space_amp_ = 0;
  std::string device_;
  bool direct_active_ = false;
  std::vector<double> setup_s_;
  std::vector<double> reopen_s_;
};

Status Run::Setup(const std::vector<Record>& initial) {
  files_.Close();
  if (w_.shape != Shape::kZipf) {
    DenseFile::Options fo = FileOptions(kPages, w_.pool_frames);
    fo.backend_factory = Factory(o_.dir, /*create=*/true);
    StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Create(fo);
    if (!f.ok()) return f.status();
    files_.single = std::move(f).value();
    return files_.single->BulkLoad(initial);
  }
  ShardedDenseFile::Options so;
  so.num_shards = kShards;
  so.shard = FileOptions(kPages / kShards, FramesPerShard());
  so.key_space = initial.back().key;
  so.shard_backend_factory = [this](int s, int64_t pages, int64_t cap) {
    return Factory(ShardDir(s), /*create=*/true)(pages, cap);
  };
  StatusOr<std::unique_ptr<ShardedDenseFile>> f = ShardedDenseFile::Create(so);
  if (!f.ok()) return f.status();
  files_.sharded = std::move(f).value();
  return files_.sharded->BulkLoad(initial);
}

// Flush, close, then DenseFile::Open with its full CheckAndRepair; the
// shards of a sharded file are opened one by one.
Status Run::CloseAndReopen() {
  DSF_RETURN_IF_ERROR(files_.Flush());
  const bool sharded = w_.shape == Shape::kZipf;
  files_.Close();
  if (!sharded) {
    DenseFile::Options fo = FileOptions(kPages, w_.pool_frames);
    fo.backend_factory = Factory(o_.dir, /*create=*/false);
    StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Open(fo);
    if (!f.ok()) return f.status();
    files_.single = std::move(f).value();
    return Status::OK();
  }
  for (int s = 0; s < kShards; ++s) {
    DenseFile::Options fo = FileOptions(kPages / kShards, FramesPerShard());
    fo.backend_factory = Factory(ShardDir(s), /*create=*/false);
    StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Open(fo);
    if (!f.ok()) return f.status();
    files_.reopened.push_back(std::move(f).value());
  }
  return Status::OK();
}

void Run::OnWindowStart() {
  window_start_ = Snapshot(files_, registry_.get());
  window_start_ns_ = NowNs();
}

// Decided before the clients generate the next batch, so every batch
// applied to a model is also replayed.
void Run::DecideNextWindow() {
  const double target_ns = o_.seconds * 1e9;
  if (phase_ == Phase::kWarmup &&
      warmup_ns_ >= std::min(kWarmupShare * target_ns, kMaxWarmupNs)) {
    phase_ = Phase::kMeasure;
  }
  if (phase_ == Phase::kMeasure) {
    // A traced run needs an untraced and a traced window at least.
    bool full = measured_ns_ >= target_ns && (!o_.trace || measured_windows_ >= 2);
    for (const ClientState& c : clients_) {
      full |= c.latencies + kBatchOps > c.latency_ns.size();
      if (w_.flush_every > 0) {
        full |= c.flush_ns.size() + kBatchOps / w_.flush_every + 1 >
                c.flush_ns.capacity();
      }
    }
    if (full) phase_ = Phase::kStop;
  }
  traced_ = o_.trace && phase_ == Phase::kMeasure && measured_windows_ % 2 == 1;
}

void Run::OnWindowEnd() {
  const int64_t wall = NowNs() - window_start_ns_;
  const Counters delta = Snapshot(files_, registry_.get()) - window_start_;
  int64_t ops = 0;
  for (ClientState& c : clients_) {
    ops += c.ops;
    attempted_ += c.ops + c.flushes;
    failed_ += c.failed;
    for (std::string& e : c.errors) {
      if (errors_.size() < 8) errors_.push_back(std::move(e));
    }
    c.errors.clear();
    if (traced_) {
      traced_updates_ += c.updates;
      traced_applied_ += c.applied;
      traced_replay_ns_ += c.replay_ns;
    }
    c.ops = c.flushes = c.updates = c.applied = c.failed = c.replay_ns = 0;
  }
  if (phase_ == Phase::kWarmup) {
    warmup_ns_ += wall;
    return DecideNextWindow();
  }
  ++measured_windows_;
  measured_ns_ += wall;
  measured_ops_ += ops;
  measured_counters_ += delta;
  if (traced_) {
    traced_ns_ += wall;
    traced_ops_ += ops;
    traced_counters_ += delta;
  } else {
    untraced_ns_ += wall;
    untraced_ops_ += ops;
    window_ops_.push_back(ops);
    window_ns_.push_back(wall);
    for (ClientState& c : clients_) c.window_ends.push_back(c.latencies);
  }
  DecideNextWindow();
}

void Run::ClientLoop(int id) {
  ClientState& c = clients_[static_cast<size_t>(id)];
  std::vector<Op> ops;
  std::vector<Expect> expect;
  std::vector<Record> scan;
  scan.reserve(4 * kScanSpan);
  while (phase_ != Phase::kStop) {
    c.gen->NextBatch(&ops, &expect, &c.gen_ns, &c.oracle_ns);
    start_sync_.arrive_and_wait();
    const bool record = phase_ == Phase::kMeasure && !traced_;
    SpanBuffer* spans = traced_ ? c.spans.get() : nullptr;
    t_spans = spans;
    const int64_t window_start = NowNs();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (w_.flush_every > 0 && ++c.since_flush == w_.flush_every) {
        // The durability point of the ingest workload.
        c.since_flush = 0;
        const auto [s, ns] =
            TimedCall(spans, kOpFlush, true, [&] { return files_.Flush(); });
        if (record) c.flush_ns.push_back(static_cast<uint32_t>(ns));
        ++c.flushes;
        if (!s.ok()) {
          ++c.failed;
          c.errors.push_back("Flush: " + s.ToString());
        }
      }
      scan.clear();
      Value got = 0;
      const auto [s, ns] = TimedCall(spans, SpanOf(op.kind), true,
                                     [&] { return files_.Apply(op, &got, &scan); });
      const bool update = IsUpdate(op.kind);
      if (record) {
        c.latency_ns[c.latencies] = static_cast<uint32_t>(
            std::min<int64_t>(ns, std::numeric_limits<uint32_t>::max()));
        c.latency_is_update[c.latencies] = update;
        ++c.latencies;
      }
      c.updates += update;
      c.applied += update && s.ok();
      if (!Matches(op, expect[i], s, got, scan)) {
        ++c.failed;
        if (c.errors.size() < 4) {
          c.errors.push_back(std::string(kSpanNames[SpanOf(op.kind)]) + " " +
                             std::to_string(op.record.key) + ": got " +
                             s.ToString() + ", expected " +
                             StatusCodeToString(expect[i].code));
        }
      }
    }
    c.replay_ns += NowNs() - window_start;
    c.ops += static_cast<int64_t>(ops.size());
    t_spans = nullptr;
    end_sync_.arrive_and_wait();
  }
}

void Run::CaptureBeforeClose() {
  if (files_.single != nullptr) {
    const BoundReport* report = files_.single->bound_report();
    max_cmd_pages_ = report->max_accesses;
    bound_budget_ = report->budget;
    bound_violations_ = static_cast<int64_t>(report->violations.size());
  } else {
    max_cmd_pages_ = files_.sharded->command_stats().max_command_accesses;
    if (registry_ != nullptr) {
      bound_violations_ =
          SumCounter(registry_->Snapshot(), kMetricBoundViolations);
    }
  }
}

void Run::Verify() {
  std::vector<Record> want;
  for (const ClientState& c : clients_) {
    const std::vector<Record> part = c.gen->model().ScanAll();
    want.insert(want.end(), part.begin(), part.end());
  }
  std::sort(want.begin(), want.end(), RecordKeyLess);
  std::vector<Record> got;
  std::vector<DenseFile*> parts;
  if (files_.single != nullptr) parts.push_back(files_.single.get());
  for (auto& shard : files_.reopened) parts.push_back(shard.get());
  for (DenseFile* f : parts) {
    StatusOr<std::vector<Record>> all = f->ScanAll();
    if (!all.ok()) return Fail("ScanAll after reopen: " + all.status().ToString());
    got.insert(got.end(), all->begin(), all->end());
    // Every Open rebuilds the calibrator, which the report counts as
    // calibrator_resyncs; damage shows in the other fields.
    RepairReport damage = f->open_repair_report();
    damage.calibrator_resyncs = 0;
    if (damage.AnythingRepaired() || !f->corrupt_pages_at_open().empty()) {
      Fail("reopen repaired: " + damage.ToString());
    }
    bound_budget_ = f->bound_budget();
  }
  if (got != want) {
    const auto [g, m] = std::mismatch(got.begin(), got.end(), want.begin(),
                                      want.end());
    Fail("reopened file holds " + std::to_string(got.size()) +
         " records, model " + std::to_string(want.size()) +
         "; first difference: file key " +
         (g == got.end() ? "none" : std::to_string(g->key)) + ", model key " +
         (m == want.end() ? "none" : std::to_string(m->key)));
  }
  if (registry_ == nullptr && w_.shape == Shape::kZipf) {
    bound_violations_ = max_cmd_pages_ > bound_budget_ ? 1 : 0;
  }
  if (bound_violations_ != 0) {
    Fail(std::to_string(bound_violations_) + " commands over the budget");
  }
  live_records_ = static_cast<int64_t>(want.size());
  int64_t bytes = 0;
  if (files_.single != nullptr) bytes = AllocatedBytes(o_.dir);
  for (int s = 0; s < kShards && !files_.reopened.empty(); ++s) {
    bytes += AllocatedBytes(ShardDir(s));
  }
  space_amp_ = static_cast<double>(bytes) /
               (static_cast<double>(live_records_) * sizeof(Record));
}

int Run::Main() {
  for (int s = 0; s < kShards && w_.shape == Shape::kZipf; ++s) {
    ::mkdir(ShardDir(s).c_str(), 0755);
  }
  const Key stride = InitialStride(w_.shape);
  const int64_t n = static_cast<int64_t>(w_.fill * kCapacity);
  std::vector<Record> initial;
  initial.reserve(static_cast<size_t>(n));
  for (int64_t i = 1; i <= n; ++i) {
    const Key k = static_cast<Key>(i) * stride;
    initial.push_back(Record{k, ValueOf(k, o_.seed)});
  }

  // Inputs, models and buffers first: they stay out of the RSS delta.
  const int64_t prep0 = NowNs();
  if (w_.shape == Shape::kZipf) {
    zipf_ = std::make_unique<ZipfGenerator>(initial.back().key, 0.99);
  }
  const int64_t zipf_ns = NowNs() - prep0;
  clients_.resize(static_cast<size_t>(w_.clients));
  std::vector<int64_t> model_size0;
  double model_heap_bytes = 0;
  for (int id = 0; id < w_.clients; ++id) {
    ClientState& c = clients_[static_cast<size_t>(id)];
    const int64_t t0 = NowNs();
    const size_t heap0 = ::mallinfo2().uordblks;
    c.gen = std::make_unique<Client>(w_, id, o_.seed, initial, zipf_.get());
    model_heap_bytes += static_cast<double>(::mallinfo2().uordblks - heap0);
    c.oracle_ns += NowNs() - t0;
    model_size0.push_back(c.gen->model().size());
    c.latency_ns.assign(static_cast<size_t>(w_.max_ops), 0);
    c.latency_is_update.assign(static_cast<size_t>(w_.max_ops), 0);
    if (w_.flush_every > 0) {
      c.flush_ns.assign(static_cast<size_t>(w_.max_ops / w_.flush_every + 2), 0);
      c.flush_ns.clear();
    }
    if (o_.trace) {
      c.spans = std::make_unique<SpanBuffer>(id, kRawSpansPerThread);
    }
  }
  clients_[0].gen_ns += zipf_ns;
  const double model_node_bytes =
      model_heap_bytes / static_cast<double>(initial.size());
  if (o_.trace) {
    main_spans_ = std::make_unique<SpanBuffer>(w_.clients, kRawSpansPerThread);
    if (w_.shape == Shape::kZipf) registry_ = std::make_unique<MetricsRegistry>();
  }
  const int64_t rss_base_kb = ProcStatusKb("VmRSS");

  t_spans = main_spans_.get();
  for (int rep = 0; rep < o_.reps; ++rep) {
    const auto [s, ns] =
        TimedCall(t_spans, kSetup, false, [&] { return Setup(initial); });
    if (!s.ok()) {
      std::cerr << "setup failed: " << s << "\n";
      return 1;
    }
    setup_s_.push_back(ns * 1e-9);
  }
  t_spans = nullptr;
  // One pass over the file fills the pool before the warm-up, so the
  // workload whose file fits the pool starts warm. It scans in chunks to
  // keep its buffer out of peak RSS.
  std::vector<Record> chunk;
  const Key span = 4096 * InitialStride(w_.shape);
  for (Key lo = 0; lo <= initial.back().key; lo += span) {
    chunk.clear();
    Value unused = 0;
    const Status s =
        files_.Apply(Op{Op::Kind::kScan, Record{lo, 0}, lo + span - 1}, &unused, &chunk);
    if (!s.ok()) {
      std::cerr << "pool fill failed: " << s << "\n";
      return 1;
    }
  }
  device_ = FsName(o_.dir);
  direct_active_ = files_.devices[0]->file_stats().direct_active;

  std::vector<std::thread> threads;
  for (int id = 1; id < w_.clients; ++id) {
    threads.emplace_back([this, id] { ClientLoop(id); });
  }
  ClientLoop(0);
  for (std::thread& t : threads) t.join();

  CaptureBeforeClose();
  t_spans = main_spans_.get();
  for (int rep = 0; rep < o_.reps; ++rep) {
    const auto [s, ns] =
        TimedCall(t_spans, kOpen, false, [&] { return CloseAndReopen(); });
    if (!s.ok()) {
      std::cerr << "reopen failed: " << s << "\n";
      return 1;
    }
    reopen_s_.push_back(ns * 1e-9);
  }
  t_spans = nullptr;
  ++attempted_;
  // The models grew with the net inserts; that memory is the oracle's.
  double model_growth_bytes = 0;
  for (size_t id = 0; id < clients_.size(); ++id) {
    model_growth_bytes +=
        std::max<int64_t>(0, clients_[id].gen->model().size() - model_size0[id]) *
        model_node_bytes;
  }
  const double rss_mb = (ProcStatusKb("VmHWM") - rss_base_kb) / 1024.0 -
                        model_growth_bytes / (1 << 20);
  Verify();
  std::cout << Report(Median(setup_s_), Median(reopen_s_), rss_mb) << "\n";
  if (!o_.spans_path.empty() && o_.trace) {
    std::ofstream out(o_.spans_path);
    int64_t dropped = 0;
    for (const ClientState& c : clients_) {
      c.spans->WriteJsonl(out);
      dropped += c.spans->dropped();
    }
    main_spans_->WriteJsonl(out);
    dropped += main_spans_->dropped();
    out << "{\"dropped\":" << dropped << "}\n";
  }
  return failed_ == 0 ? 0 : 2;
}

std::string Run::Report(double setup_s, double reopen_s, double rss_mb) {
  // The untraced measured windows split into kChunks stretches of
  // consecutive windows. Throughput and mean latencies are medians over
  // the stretches, so a burst of host noise, or one long fdatasync, moves
  // one value of the eight. Percentiles over all samples are diagnostics.
  const size_t windows = window_ops_.size();
  const size_t chunks = std::min(kChunks, windows);
  std::vector<double> rate, update_mean, read_mean;
  std::vector<uint32_t> update, read, flush;
  for (size_t j = 0; j < chunks; ++j) {
    const size_t w0 = windows * j / chunks;
    const size_t w1 = windows * (j + 1) / chunks;
    int64_t ops = 0, ns = 0;
    for (size_t w = w0; w < w1; ++w) {
      ops += window_ops_[w];
      ns += window_ns_[w];
    }
    rate.push_back(ops / (ns * 1e-9));
    double update_ns = 0, read_ns = 0;
    int64_t updates = 0, reads = 0;
    for (const ClientState& c : clients_) {
      for (size_t i = w0 == 0 ? 0 : c.window_ends[w0 - 1];
           i < c.window_ends[w1 - 1]; ++i) {
        const bool is_update = c.latency_is_update[i];
        (is_update ? update_ns : read_ns) += c.latency_ns[i];
        (is_update ? updates : reads) += 1;
        (is_update ? update : read).push_back(c.latency_ns[i]);
      }
    }
    update_mean.push_back(updates == 0 ? 0 : update_ns / updates * 1e-3);
    read_mean.push_back(reads == 0 ? 0 : read_ns / reads * 1e-3);
  }
  for (const ClientState& c : clients_) {
    flush.insert(flush.end(), c.flush_ns.begin(), c.flush_ns.end());
  }
  const double measured_logical =
      static_cast<double>(measured_counters_[kLogicalReads] +
                          measured_counters_[kLogicalWrites]);
  JsonObject e2e;
  e2e.Num("ops_per_s", Median(rate))
      .Num("update_mean_us", Median(update_mean))
      .Num("read_mean_us", Median(read_mean))
      .Num("setup_s", setup_s)
      .Num("reopen_s", reopen_s)
      .Num("rss_mb", rss_mb)
      .Num("space_amp", space_amp_)
      .Num("pages_per_op", measured_logical / measured_ops_)
      .Int("max_cmd_pages", max_cmd_pages_);

  JsonObject diag;
  diag.Int("update_samples", static_cast<int64_t>(update.size()))
      .Num("update_p50_us", QuantileUs(&update, 0.50))
      .Num("update_p99_us", QuantileUs(&update, 0.99))
      .Num("update_p999_us", QuantileUs(&update, 0.999))
      .Num("update_max_us", QuantileUs(&update, 1.0))
      .Int("read_samples", static_cast<int64_t>(read.size()))
      .Num("read_p50_us", QuantileUs(&read, 0.50))
      .Num("read_p99_us", QuantileUs(&read, 0.99))
      .Num("read_p999_us", QuantileUs(&read, 0.999))
      .Num("read_max_us", QuantileUs(&read, 1.0))
      .Int("flush_samples", static_cast<int64_t>(flush.size()))
      .Num("flush_p50_us", QuantileUs(&flush, 0.50))
      .Num("flush_p99_us", QuantileUs(&flush, 0.99))
      .Int("measured_ops", measured_ops_)
      .Num("measured_s", measured_ns_ * 1e-9)
      .Num("warmup_s", warmup_ns_ * 1e-9)
      .Int("live_records", live_records_);
  std::ostringstream setups, reopens;
  for (double s : setup_s_) setups << s << " ";
  for (double s : reopen_s_) reopens << s << " ";
  diag.Str("setup_reps_s", setups.str()).Str("reopen_reps_s", reopens.str());
  for (size_t i = 0; i < errors_.size(); ++i) {
    diag.Str("error" + std::to_string(i), errors_[i]);
  }

  JsonObject layers;
  if (o_.trace) {
    std::array<int64_t, kNumSpanNames> count{}, ns{};
    int64_t op_child_ns = 0;
    for (const ClientState& c : clients_) {
      for (int k = 0; k < kNumSpanNames; ++k) {
        count[k] += c.spans->count(static_cast<SpanName>(k));
        ns[k] += c.spans->total_ns(static_cast<SpanName>(k));
      }
      op_child_ns += c.spans->op_child_ns();
    }
    int64_t op_ns = 0;
    for (SpanName k : {kOpInsert, kOpDelete, kOpGet, kOpScan, kOpFlush}) op_ns += ns[k];
    const Counters& t = traced_counters_;
    const double write_bytes = static_cast<double>(t[kPwrites]) * kSlotBytes;
    const double self_ns = static_cast<double>(op_ns - op_child_ns);
    int64_t max_cmds = 0, sum_cmds = 0;
    const int shards = w_.shape == Shape::kZipf ? kShards : 1;
    for (int s = 0; s < shards; ++s) {
      max_cmds = std::max(max_cmds, t[kShardCommands + s]);
      sum_cmds += t[kShardCommands + s];
    }
    const double untraced_rate = untraced_ops_ / (untraced_ns_ * 1e-9);
    const double traced_rate = traced_ops_ / (traced_ns_ * 1e-9);
    int64_t gen_ns = 0, oracle_ns = 0;
    for (const ClientState& c : clients_) {
      gen_ns += c.gen_ns;
      oracle_ns += c.oracle_ns;
    }
    auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    layers.Int("backend.writes", t[kPwrites])
        .Int("backend.write_ns", ns[kBackendWrite])
        .Num("backend.write_bytes", write_bytes)
        .Int("backend.reads", t[kPreads])
        .Int("backend.read_ns", ns[kBackendRead])
        .Int("backend.syncs", t[kSyncs])
        .Int("backend.sync_ns", ns[kBackendSync])
        .Num("backend.syncs_per_update", ratio(t[kSyncs], traced_updates_))
        .Num("backend.write_amp",
             ratio(write_bytes, 16.0 * static_cast<double>(traced_applied_)))
        .Num("backend.share", ratio(op_child_ns, op_ns))
        .Num("pool.hit_ratio", ratio(t[kPoolHits], t[kPoolHits] + t[kPoolMisses]))
        .Int("pool.misses", t[kPoolMisses])
        .Int("pool.evictions", t[kPoolEvictions])
        .Int("pool.writebacks", t[kPoolWritebacks])
        .Int("pool.write_combines", t[kPoolWriteCombines])
        .Int("pool.additive_absorbs", t[kPoolAdditiveAbsorbs])
        .Int("pool.relocations", t[kPoolRelocations])
        .Int("pool.ordered_flushes", t[kPoolOrderedFlushes])
        .Int("pool.flush_runs", t[kPoolFlushRuns])
        .Num("core.self_ns", self_ns)
        .Num("core.self_ns_per_op", ratio(self_ns, traced_ops_))
        .Int("core.logical_reads", t[kLogicalReads])
        .Int("core.logical_writes", t[kLogicalWrites])
        .Int("core.seeks", t[kSeeks])
        .Int("core.shifts", t[kShifts])
        .Int("core.records_shifted", t[kRecordsShifted])
        .Int("core.activations", t[kActivations])
        .Int("core.bound_budget", bound_budget_)
        .Int("core.bound_violations", bound_violations_)
        .Int("ingest.puts", t[kStagingPuts])
        .Int("ingest.hits", t[kStagingHits])
        .Int("ingest.annihilations", t[kStagingAnnihilations])
        .Int("ingest.drain_steps", t[kStagingDrainSteps])
        .Int("ingest.drained", t[kStagingDrained])
        .Int("ingest.flush_calls", count[kOpFlush])
        .Int("ingest.flush_ns", ns[kOpFlush])
        .Num("shard.op_imbalance", ratio(max_cmds, ratio(sum_cmds, shards)))
        .Int("shard.read_shared", t[kReadShared])
        .Int("shard.read_epoch_hits", t[kReadEpochHits])
        .Int("shard.read_epoch_fallbacks", t[kReadEpochFallbacks])
        .Num("driver.trace_gen_s", gen_ns * 1e-9)
        .Num("driver.oracle_s", oracle_ns * 1e-9)
        .Num("driver.untimed_ns", static_cast<double>(traced_replay_ns_ - op_ns))
        .Num("driver.trace_overhead", 1.0 - ratio(traced_rate, untraced_rate));
    diag.Int("traced_ops", traced_ops_)
        .Num("traced_s", traced_ns_ * 1e-9)
        .Num("layer_coverage", ratio(op_ns, traced_replay_ns_));
  }

  struct utsname host {};
  ::uname(&host);
  JsonObject stamp;
  stamp.Str("build_type", LEDGER_BUILD_TYPE)
      .Str("compiler", LEDGER_COMPILER)
      .Str("host", host.nodename)
      .Int("nproc", ::sysconf(_SC_NPROCESSORS_ONLN))
      .Str("device", device_)
      .Bool("direct_active", direct_active_)
      .Int("clients", w_.clients)
      .Int("num_pages", kPages)
      .Int("d", kMinD)
      .Int("D", kPageCap);

  JsonObject out;
  out.Str("workload", w_.name)
      .Int("seed", static_cast<int64_t>(o_.seed))
      .Bool("trace", o_.trace)
      .Bool("correct", failed_ == 0)
      .Int("attempted", attempted_)
      .Int("failed", failed_)
      .Obj("metrics", e2e)
      .Obj("layers", layers)
      .Obj("diagnostics", diag)
      .Obj("stamp", stamp);
  return out.str();
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--dir") {
      o.dir = v;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--reps") {
      o.reps = std::max(1, std::stoi(v));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }
  struct stat st {};
  if (o.dir.empty() || ::stat(o.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::cerr << "--dir must name an existing directory\n";
    return 1;
  }
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) return Run(w, o).Main();
  }
  std::cerr << "unknown workload: " << o.workload << "\n";
  return 1;
}

}  // namespace
}  // namespace dsf::ledger

int main(int argc, char** argv) { return dsf::ledger::Main(argc, argv); }
