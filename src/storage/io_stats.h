// Page-access accounting.
//
// The paper's cost model counts auxiliary page accesses (the calibrator is
// assumed to live in main memory). IoStats tallies page reads and writes,
// and additionally classifies each access as *sequential* (same or adjacent
// address as the previous access) or a *seek*. The seek/sequential split
// feeds the disk-arm-movement comparison against B-trees (Section 4's
// remark that CONTROL 2 "accesses consecutive pages in one fell swoop").

#ifndef DSF_STORAGE_IO_STATS_H_
#define DSF_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dsf {

struct IoStats {
  // Physical device traffic: pages actually transferred to or from the
  // simulated device. Without a buffer pool these equal the logical
  // counters below.
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t seeks = 0;              // accesses that moved the arm
  int64_t sequential_accesses = 0;  // accesses adjacent to the previous one

  // Logical traffic: page accesses the algorithms *requested*. A buffer
  // pool absorbs some of these (cache hits, write combining), so
  // physical <= logical on reads and physical may exceed logical on
  // writes only via repair rewrites. hit rate = 1 - physical/logical
  // reads; write amplification = page_writes / logical_writes.
  int64_t logical_reads = 0;
  int64_t logical_writes = 0;

  int64_t TotalAccesses() const { return page_reads + page_writes; }
  int64_t TotalLogical() const { return logical_reads + logical_writes; }

  // Per-counter difference, clamped at zero. Snapshot deltas are taken as
  // `after - before`; if the tracker was Reset() between the snapshots the
  // naive subtraction would go negative, which no caller can interpret.
  IoStats operator-(const IoStats& other) const;
  IoStats& operator+=(const IoStats& other);

  void Reset();
  std::string ToString() const;
};

// Classifies a stream of addressed accesses into IoStats. Shared by the
// dense-file page store and the baseline structures so all experiments
// use one cost model:
//   - re-access of the same address, or of an adjacent address (previous
//     address +/- 1), counts as sequential;
//   - everything else, including the FIRST access after construction or
//     Reset(), counts as a seek (the arm position is unknown, so the
//     conservative charge is a full seek).
//
// Multi-shard guarantee: each shard owns its own PageFile, and each
// PageFile owns its own AccessTracker, so `last_address_` below is
// per-device state. Interleaved accesses to *other* shards never break a
// shard's sequential run: shard A reading 7, 8, 9 counts two sequential
// accesses even if shard B reads address 1000 between them, exactly as
// two physical disks each keep their own arm position. Only accesses to
// the same PageFile (and Reset()) affect run detection.
//
// Thread safety: the counters are relaxed atomics, so concurrent shared
// readers (docs/CONCURRENCY.md) can charge accesses without a data race
// and every individual count stays exact. The seek/sequential
// *classification* uses an atomic exchange on `last_address_`: under
// concurrent access each accessor classifies against whichever access
// globally preceded it, so the split is approximate when readers
// interleave (a reader injected between two writer accesses can turn a
// sequential pair into two seeks) but still exact for single-threaded
// runs, and seeks + sequential_accesses always equals TotalAccesses().
// Reset() is not concurrency-safe; callers quiesce first (tests do).
class AccessTracker {
 public:
  // Charges one *physical* access (device transfer + arm movement).
  void OnAccess(int64_t address, bool is_write);

  // Charges one *logical* access (the algorithm asked for the page; a
  // buffer pool may or may not turn it into physical traffic).
  void OnLogical(bool is_write);

  // Consistent-enough snapshot of the counters (each field individually
  // exact; the set may straddle a concurrent access). By value: the
  // internal counters are atomics, not an IoStats.
  IoStats stats() const;
  void Reset();

 private:
  std::atomic<int64_t> page_reads_{0};
  std::atomic<int64_t> page_writes_{0};
  std::atomic<int64_t> seeks_{0};
  std::atomic<int64_t> sequential_accesses_{0};
  std::atomic<int64_t> logical_reads_{0};
  std::atomic<int64_t> logical_writes_{0};
  std::atomic<int64_t> last_address_{-1};
};

}  // namespace dsf

#endif  // DSF_STORAGE_IO_STATS_H_
