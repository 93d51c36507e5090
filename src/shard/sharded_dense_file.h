// ShardedDenseFile — key-range sharding over independent dense files.
//
// Partitions the key space into S contiguous ranges by a splitter vector
// chosen at create time and serves each range with its own DenseFile.
// Willard's worst-case bound is per file, so every shard keeps the full
// O(log^2 (M/S) / (D-d)) guarantee over its own M/S pages — partitioning
// strictly tightens the per-command bound while letting commands on
// different shards run genuinely in parallel: each shard is guarded by
// its own mutex and there is no global lock.
//
// Locking protocol (reader-writer; see docs/CONCURRENCY.md):
//  - Mutating point operations take the owning shard's lock exclusive.
//  - Point reads (Get/Contains) run a three-branch protocol: try the
//    shard lock shared (uncontended case, readers overlap freely); if a
//    writer holds it, attempt an epoch read straight from the
//    shard's BufferPool (DenseFile::TryEpochGet — positive hits only,
//    never blocks, never touches the device); if that misses, block on
//    the shared lock. dsf_read_lock_* counters expose the branch taken.
//  - Range reads (Scan/ScanAll) hold ALL affected shards' locks shared
//    for the whole operation; range writes (DeleteRange) hold them all
//    exclusive. Locks are always acquired in ascending shard order —
//    one global order, hence no deadlock — so a scan racing a range
//    delete sees all-or-nothing, never a half-deleted prefix.
//  - Whole-file maintenance (Flush, Compact, BulkLoad, ...) visits
//    shards in ascending order, one exclusive lock at a time; read-only
//    aggregates (stats, size) visit one shared lock at a time.
//
// Routing: splitter keys s_1 < ... < s_{S-1} assign key k to shard
// upper_bound(splitters, k), i.e. shard i serves [s_i, s_{i+1}) with
// s_0 = 0 and s_S = +inf. Splitters are fixed for the file's lifetime;
// choose them uniformly over an expected key space or learn them from a
// bulk-load sample with LearnSplitters (equi-depth quantiles).
//
// See docs/SHARDING.md for the full design discussion.

#ifndef DSF_SHARD_SHARDED_DENSE_FILE_H_
#define DSF_SHARD_SHARDED_DENSE_FILE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/control_base.h"
#include "core/dense_file.h"
#include "storage/io_stats.h"
#include "storage/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dsf {

struct AuditReport;
class Counter;

class ShardedDenseFile {
 public:
  struct Options {
    // Number of shards S >= 1.
    int num_shards = 1;
    // Per-shard geometry: every shard is an independent DenseFile with
    // shard.num_pages pages, so the sharded file stores up to
    // num_shards * d * shard.num_pages records in total.
    DenseFile::Options shard;
    // Explicit routing boundaries: exactly num_shards - 1 strictly
    // ascending keys (empty to derive uniform splitters from key_space).
    std::vector<Key> splitters;
    // When splitters is empty: boundaries at i * key_space / S for
    // i in [1, S). 0 means the full 64-bit key space.
    Key key_space = 0;
    // Per-shard durable backends: called once per shard with the shard
    // ordinal and the shard's physical geometry. Each shard is an
    // independent device and must get its own backend (e.g. its own
    // FileBackend directory) — which is why shard.backend_factory must
    // stay null here: copying one ordinal-blind factory into every
    // shard would hand all of them the same file pair, and Create
    // rejects that with kInvalidArgument. Null disables durable storage.
    std::function<StatusOr<std::unique_ptr<StorageBackend>>(
        int shard, int64_t num_pages, int64_t page_capacity)>
        shard_backend_factory;
  };

  // Validates options (splitter count/order, per-shard geometry) and
  // builds S empty shards.
  static StatusOr<std::unique_ptr<ShardedDenseFile>> Create(
      const Options& options);

  // Equi-depth splitters from a key-sorted sample: boundary i sits at the
  // key starting the i-th of num_shards equal-count slices. Quantiles
  // that would not strictly ascend (duplicate-heavy samples) or would sit
  // at key 0 are dropped rather than fabricated, so the result may hold
  // FEWER than num_shards - 1 splitters; pass result.size() + 1 as the
  // effective num_shards to Create. Feed the result into
  // Options::splitters before Create to balance shard load under the
  // sampled distribution.
  static std::vector<Key> LearnSplitters(const std::vector<Record>& sample,
                                         int num_shards);

  // --- Point operations (lock the owning shard only; writes exclusive,
  // reads via the shared-lock / epoch protocol in the header comment) ---
  Status Insert(Key key, Value value) { return Insert(Record{key, value}); }
  Status Insert(const Record& record);
  Status Delete(Key key);
  StatusOr<Value> Get(Key key) const;
  bool Contains(Key key) const;

  // --- Cross-shard range operations (all affected shards locked for the
  // whole call, ascending order: shared for reads, exclusive for
  // DeleteRange; per-shard results stitched in key order) ---
  Status Scan(Key lo, Key hi, std::vector<Record>* out) const;
  StatusOr<std::vector<Record>> ScanAll() const;
  StatusOr<int64_t> DeleteRange(Key lo, Key hi);
  // Loads strictly-ascending records; each shard receives its slice at
  // uniform density. Splitters are fixed — records route by them, so a
  // slice can exceed one shard's capacity if the splitters fit the data
  // poorly (CapacityExceeded; choose splitters with LearnSplitters).
  Status BulkLoad(const std::vector<Record>& records);
  Status Compact();
  // Per-shard invariant sweep plus the routing invariant: every record
  // lives in the shard its key routes to.
  Status ValidateInvariants() const;

  // Typed audit across all shards (ascending, one lock at a time): each
  // shard's full DenseFile::Audit() with violations stamped by shard
  // index, plus the boundary-disjointness check that every shard's key
  // range stays inside [ShardLowerBound, ShardUpperBound). See
  // analysis/auditor.h.
  AuditReport Audit() const;

  // --- Fault injection & recovery ---
  // Installs (or clears) a fault schedule on one shard's page store.
  // Shards model independent devices, so each carries its own policy.
  void SetFaultPolicy(int shard, std::shared_ptr<FaultPolicy> policy);
  // Runs DenseFile::CheckAndRepair on every shard (ascending, one lock at
  // a time) and aggregates the reports: counters summed, flags OR-ed.
  StatusOr<RepairReport> CheckAndRepair();
  // Flushes every shard's staging buffer and pool (ascending, one lock
  // at a time); first error wins, remaining shards still flush.
  Status Flush();
  // Drops every shard's cached frames without write-back — the RAM half
  // of a whole-machine crash. Follow with CheckAndRepair(). (Staged
  // entries are dropped separately by DiscardStaging — both halves are
  // RAM, but tests exercise them independently.)
  void DiscardCaches();

  // --- Ingest staging (per-shard memtables; see docs/INGEST.md) ---
  // Drains every shard's staging buffer to its file (ascending, one lock
  // at a time) — the staging durability point.
  Status FlushStaging();
  // Drops every shard's staged entries without draining — the volatile
  // half of a crash (pair with DiscardCaches()).
  void DiscardStaging();
  // Summed / per-shard staging counters (zeroes when staging is off).
  StagingStats staging_stats() const;
  StagingStats shard_staging_stats(int shard) const;

  // --- Introspection ---
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The shard index serving `key` (in [0, num_shards)).
  int ShardOf(Key key) const;
  const std::vector<Key>& splitters() const { return splitters_; }
  int64_t size() const;
  int64_t capacity() const;

  // Aggregates summed one shared shard lock at a time. Counters are
  // exact (AccessTracker fields are atomics); only the seek/sequential
  // split is approximate while concurrent epoch readers interleave
  // addresses (see storage/io_stats.h).
  IoStats io_stats() const;
  CommandStats command_stats() const;  // last_command_accesses is 0
  void ResetStats();

  // Summed pool counters across shards (zeroes when caching is off).
  BufferPool::Stats cache_stats() const;

  // Per-shard views for tests, benches and load diagnostics.
  IoStats shard_io_stats(int shard) const;
  CommandStats shard_command_stats(int shard) const;
  int64_t shard_size(int shard) const;

  // Publishes the current per-shard load distribution into the metrics
  // registry the shards were created with (Options::shard.metrics):
  // one kMetricShardRecords gauge per shard (label `shard="i"`) plus the
  // kMetricShardImbalance gauge, 1000 * (most loaded / mean) — 1000 is
  // perfectly balanced. Pull-based: call at snapshot points rather than
  // per command, so shard routing stays O(log S) with no gauge traffic.
  // No-op when no registry was installed. Locks one shard at a time.
  void PublishMetrics() const;

  const Options& options() const { return options_; }

 private:
  // One key range's independent DenseFile behind its own annotated
  // reader-writer mutex. `file` is GUARDED_BY(mu): Clang's
  // -Wthread-safety analysis (DSF_ANALYZE mode) rejects any access
  // without at least a shared hold, which makes the locking protocol in
  // the header comment machine-checked. `epoch` is a lock-free alias of
  // the same DenseFile reserved for the epoch read branch: TryEpochGet
  // is internally synchronized (buffer-pool mutex + staging gauge), so
  // that one entry point is sound to reach while a writer holds `mu`. Both pointers are set at
  // construction, before the shard is shared, and never reassigned.
  struct Shard {
    explicit Shard(std::unique_ptr<DenseFile> f)
        : file(std::move(f)), epoch(file.get()) {}
    mutable SharedMutex mu;
    std::unique_ptr<DenseFile> file DSF_GUARDED_BY(mu);
    const DenseFile* const epoch;

    // Analysis-exempt access for MultiShardLock regions: the lock IS
    // held (shared or exclusive), the static analysis just cannot model
    // a dynamic lock set. Never call without a MultiShardLock covering
    // this shard.
    DenseFile* held_file() const DSF_NO_THREAD_SAFETY_ANALYSIS {
      return file.get();
    }
  };

  // Holds shards [first, last] of `shards`, shared or exclusive,
  // acquired in ascending index order (the global lock order) and
  // released in descending order. The lock set is dynamic, so the
  // thread-safety analysis cannot model it; the bodies are exempt and
  // callers touch the guarded files through Shard::epoch (reads) or an
  // analysis-exempt helper (DeleteRange).
  class MultiShardLock {
   public:
    MultiShardLock(const std::vector<std::unique_ptr<Shard>>& shards,
                   int first, int last,
                   bool exclusive) DSF_NO_THREAD_SAFETY_ANALYSIS;
    ~MultiShardLock() DSF_NO_THREAD_SAFETY_ANALYSIS;
    MultiShardLock(const MultiShardLock&) = delete;
    MultiShardLock& operator=(const MultiShardLock&) = delete;

   private:
    const std::vector<std::unique_ptr<Shard>>& shards_;
    const int first_;
    const int last_;
    const bool exclusive_;
  };

  ShardedDenseFile(const Options& options, std::vector<Key> splitters,
                   std::vector<std::unique_ptr<Shard>> shards);

  // Smallest key routed to `shard` / to `shard + 1` (kMaxKey sentinel for
  // the last shard's open upper end).
  Key ShardLowerBound(int shard) const;
  Key ShardUpperBound(int shard) const;

  // Drain-on-rotate: after a point command on one shard releases its
  // lock, spend that command's piggyback budget on the *next* shard in
  // round-robin order instead, so a shard whose own write traffic dried
  // up still gets its staged entries drained. One lock at a time (the
  // owning shard's lock is already released), so no ordering cycles.
  void DrainRotate();

  Options options_;
  std::vector<Key> splitters_;  // strictly ascending, size num_shards - 1
  std::vector<std::unique_ptr<Shard>> shards_;
  bool staging_ = false;  // any shard built with a staging buffer
  // Round-robin cursor for DrainRotate; relaxed atomics suffice — the
  // rotation is a fairness heuristic, not a correctness invariant.
  std::atomic<int64_t> rotate_{0};
  // Read-path branch counters (null without a metrics registry; see
  // docs/OBSERVABILITY.md): shared lock taken / epoch pool hit
  // / epoch miss that fell back to blocking on the shared lock.
  Counter* m_read_shared_ = nullptr;
  Counter* m_read_epoch_hits_ = nullptr;
  Counter* m_read_epoch_fallbacks_ = nullptr;
};

}  // namespace dsf

#endif  // DSF_SHARD_SHARDED_DENSE_FILE_H_
