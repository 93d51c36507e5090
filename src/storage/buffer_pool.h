// BufferPool: a fixed-frame page cache between the algorithms and the
// PageFile device.
//
// The paper's cost model counts page accesses; a pool splits that count
// into the *logical* accesses the algorithms request and the *physical*
// transfers the device actually serves (IoStats carries both). Frames
// hold private copies of pages; reads are served from a resident frame
// when possible (a hit costs no device traffic), writes dirty the frame
// and reach the device only at flush or eviction. With a StorageBackend
// attached the frames are the only pages in memory: a miss reads the
// device straight into the frame, and write-back hands the frame to the
// device (storage/page_file.h).
//
// Access. Every access is a copy under the pool's mutex: Read appends
// a page's records to the caller's vector, Find searches the frame in
// place and copies out the one record a point probe asked for, Write
// places a full page image. No caller holds a reference into a frame
// between calls, so every resident frame is evictable and a request
// always gets a frame.
//
// Crash-safe write-back order. The crash-recovery discipline (see
// docs/FAULTS.md) relies on write *order*: SHIFT duplicates a block at
// DEST before deleting it at SOURCE, so a crash anywhere in between
// leaves duplicates (repairable) rather than holes (lost records). A
// cache that reordered write-back — or silently combined an old dirty
// version with a newer one that no longer carries some record — would
// destroy that property. The pool therefore keeps dirty frames in a
// *dirty-order list* L and enforces:
//   1. flush walks L front-to-back: frames reach the device in
//      first-dirtied order, never reordered by address;
//   2. write combining (absorbing a second write to an already-dirty
//      frame) is allowed only while the frame is the *tail* of L —
//      nothing was dirtied after it, so collapsing the two versions
//      cannot commute a later write before an earlier one;
//   2'. additive absorption: a rewrite of a non-tail frame whose new
//      content is a SUPERSET of the frame's pending content (a block
//      page growing under an ascending drain, a SHIFT destination
//      accumulating records) is absorbed at the frame's *original*
//      position in L with no flush: a record can only be lost by a
//      write that REMOVES it, and this write removes nothing;
//   3. any other re-dirtying of a non-tail frame first flushes the
//      prefix of L up to and including that frame (preserving its old
//      version's position in the order), then re-enters it at the tail.
// Under the controls' access patterns rule 3 is rare (a SHIFT chain
// touches each block once), so almost all repeated writes combine; rule
// 2 is what makes the pool safe rather than merely fast.
//
// Write coalescing. Because SHIFT writes blocks of consecutive pages in
// a deliberate direction, entries of L are typically address-adjacent
// in the order they will be flushed; the flush loop detects maximal
// consecutive-address runs (stats().flush_runs) and the AccessTracker
// charges one seek at each run head plus sequential transfers for the
// rest — one arm movement per run instead of per page.
//
// Freed-page bookkeeping. When a macro-block shrinks, its freed tail
// pages must end up empty on the device. MarkFree() enqueues that clear
// through L like any write (so it cannot overtake the writes that moved
// the records out), but the device clear itself is an unaccounted
// RawWrite, matching the unpooled path.
//
// Thread safety. Frames, their contents and the pool's bookkeeping
// (resident map, dirty list, free list, stats) are guarded by one
// internal mutex, annotated for Clang's -Wthread-safety analysis (see
// util/thread_annotations.h). Content changes only under that mutex:
// Read and Write copy records in and out while holding it, so concurrent
// callers never see a page mid-change. The owner still serializes its
// writers to keep its own structure consistent (one pool per shard,
// writers exclusive, readers sharing the shard lock; see
// shard/sharded_dense_file.h and docs/CONCURRENCY.md). PeekFrame alone
// hands out a pointer into a frame, for validators serialized against
// writers.
//
// Epoch point reads (TryEpochGet) serve a point lookup from a resident
// frame entirely under the pool's own short mutex, never touching the
// owner's shard lock, so lookups proceed while a writer runs in the same
// shard. Because every content change happens under the mutex, the
// copy-out cannot see a page mid-change. Only POSITIVE hits are
// answered; absence is never inferred from the cache (a reorganization
// in another page may be moving the key), and callers fall back to the
// locked path (see docs/CONCURRENCY.md for the soundness argument).

#ifndef DSF_STORAGE_BUFFER_POOL_H_
#define DSF_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dsf {

// Metric handles (obs/metrics.h). Forward-declared so storage/ headers
// stay free of obs/ includes: the owner (core layer) resolves the
// handles from its registry and hands the pool raw pointers.
class Counter;
class Histogram;

class BufferPool {
 public:
  struct Options {
    int64_t num_frames = 0;
  };

  struct Stats {
    int64_t hits = 0;            // accesses served from a resident frame
    int64_t misses = 0;          // accesses that had to take a frame
    int64_t evictions = 0;       // frames reclaimed for another page
    int64_t writebacks = 0;      // dirty frames written to the device
    int64_t write_combines = 0;  // re-dirties absorbed at the tail of L
    int64_t ordered_flushes = 0;  // prefix flushes forced by rule 3
    int64_t additive_absorbs = 0;  // superset rewrites absorbed in place
                                   // at their original L position (rule 2')
    // Always 0: the pool no longer relocates a rewrite without a flush.
    // Kept because bench/ledger still exports it as pool.relocations.
    int64_t relocations = 0;
    int64_t flush_runs = 0;      // maximal consecutive-address runs flushed
    int64_t flushed_pages = 0;   // pages written by FlushAll (incl. frees)
    int64_t free_writes = 0;     // freed-page clears applied at flush

    double HitRate() const {
      const int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
    Stats& operator+=(const Stats& other);
    std::string ToString() const;
  };

  // A snapshot of one frame's metadata, for the invariant auditor and
  // tests (see analysis/auditor.h). Index in the AuditFrames() vector is
  // the frame id.
  struct FrameInfo {
    Address address = 0;  // 0 = empty frame
    bool dirty = false;
    bool free_write = false;
    int64_t dirty_seq = 0;  // when the frame last went clean -> dirty
  };

  // The pool caches pages of `file`; frames are sized to the file's page
  // capacity. `options.num_frames` must be >= 1.
  BufferPool(PageFile* file, const Options& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Appends the records of page `address` to *out, filling a frame from
  // the device on a miss. Errors: OutOfRange, kIoError (miss fill or
  // eviction write-back fault).
  Status Read(Address address, std::vector<Record>* out) DSF_EXCLUDES(mu_);

  // Point probe with Read's accounting and frame fill: searches page
  // `address` for `key` in its frame and, when present, copies the one
  // record into *out and returns true.
  StatusOr<bool> Find(Address address, Key key, Record* out)
      DSF_EXCLUDES(mu_);

  // Replaces page `address` with the sorted records [begin, end). The
  // frame is not filled from the device (the image is complete); the
  // pool places the rewrite in L by rules 2 / 2' / 3 (see the header
  // note) and copies it in. Errors as Read, plus a rule-3 flush fault.
  Status Write(Address address, const Record* begin, const Record* end)
      DSF_EXCLUDES(mu_);

  // Epoch point lookup (see the header note): if some resident frame's
  // page holds `key`, copies the record into *out and returns true, all
  // under the pool's own mutex and without the owner's external lock.
  // Returns false when the lookup cannot be answered positively from the
  // cache (absent or uncovered); the caller falls back to its locked
  // read path. Charges one logical read only on a hit (the fallback path
  // charges its own). Never touches the device.
  bool TryEpochGet(Key key, Record* out) DSF_EXCLUDES(mu_);

  // Enqueues "this page becomes empty" through the dirty order; the
  // eventual device clear is unaccounted bookkeeping (see header note).
  Status MarkFree(Address address) DSF_EXCLUDES(mu_);

  // Writes every dirty frame to the device in dirty-order. On a fault
  // the failed frame and everything after it stay dirty (and keep their
  // order); already-flushed frames are clean. Safe to retry.
  Status FlushAll() DSF_EXCLUDES(mu_);

  // Drops every frame without writing anything back — the cache-loss
  // half of a crash. Dirty data is lost by design; the caller re-syncs
  // from the device (CheckAndRepair).
  void DropAll() DSF_EXCLUDES(mu_);

  // Frame contents if `address` is resident, nullptr otherwise. For
  // validators and tests; unaccounted. The returned page is read outside
  // the pool mutex — callers must be externally serialized vs. writers.
  const Page* PeekFrame(Address address) const DSF_EXCLUDES(mu_);

  // Metadata snapshot of every frame (index = frame id). For the
  // invariant auditor and tests.
  std::vector<FrameInfo> AuditFrames() const DSF_EXCLUDES(mu_);

  // The dirty-order list L as frame ids, front (dirtied earliest) first.
  std::vector<int64_t> DirtyOrderForAudit() const DSF_EXCLUDES(mu_);

  // Corruption hook for auditor tests: swaps the first two entries of
  // the dirty-order list, simulating a write-back reordering bug.
  void ReorderDirtyListForTesting() DSF_EXCLUDES(mu_);

  int64_t resident_pages() const DSF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<int64_t>(resident_.size());
  }
  int64_t dirty_pages() const DSF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return static_cast<int64_t>(dirty_order_.size());
  }

  Stats stats() const DSF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() DSF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    stats_ = Stats();
  }

  // Attaches live metric handles (any may be null): hit/miss/write-back
  // counters and the flush-run-length histogram — the write-coalescing
  // distribution (1 = an isolated seek). Handles must outlive the pool
  // or be detached by a second call with nulls. Metric updates mirror
  // the internal Stats counters they duplicate.
  void SetMetrics(Counter* hits, Counter* misses, Counter* writebacks,
                  Histogram* flush_run_length) DSF_EXCLUDES(mu_);

 private:
  struct Frame {
    explicit Frame(int64_t page_capacity) : page(page_capacity) {}
    Address address = 0;  // 0 = empty frame
    Page page;
    bool dirty = false;
    bool free_write = false;  // dirty content is "page becomes empty"
    bool ref = false;         // CLOCK second-chance bit
    int64_t dirty_seq = 0;    // serial stamped when going clean -> dirty
    std::list<int64_t>::iterator dirty_it;  // valid iff dirty
  };

  // Returns a frame holding `address`, which the caller has range-checked;
  // fills from the device iff `load` and the page was not resident.
  StatusOr<int64_t> AcquireFrame(Address address, bool load)
      DSF_REQUIRES(mu_);
  // Picks and reclaims a victim frame, flushing the dirty prefix through
  // it first.
  StatusOr<int64_t> EvictFrame() DSF_REQUIRES(mu_);
  // Write and MarkFree: places page `address`'s replacement image
  // [begin, end) in L and copies it into the frame.
  Status Place(Address address, const Record* begin, const Record* end,
               bool free_write) DSF_REQUIRES(mu_);
  // Dirties `frame` ahead of a rewrite whose full replacement content is
  // [begin, end): applies rules 2 / 2' / 3 to place the frame in L.
  Status MarkDirty(int64_t frame, const Record* begin, const Record* end)
      DSF_REQUIRES(mu_);
  // Appends `frame` to the tail of L with a fresh dirty_seq.
  void EnterTail(int64_t frame) DSF_REQUIRES(mu_);
  // Writes one dirty frame to the device and removes it from L.
  Status FlushFrame(int64_t frame) DSF_REQUIRES(mu_);
  // Flushes L front-to-back up to and including `frame`.
  Status FlushPrefixThrough(int64_t frame) DSF_REQUIRES(mu_);
  void Touch(Frame& f) DSF_REQUIRES(mu_);

  PageFile* file_;
  Options options_;

  mutable Mutex mu_;
  // Sized once at construction; never relocates.
  std::vector<Frame> frames_ DSF_GUARDED_BY(mu_);
  std::vector<int64_t> free_frames_ DSF_GUARDED_BY(mu_);
  std::unordered_map<Address, int64_t> resident_ DSF_GUARDED_BY(mu_);
  // front = dirtied earliest
  std::list<int64_t> dirty_order_ DSF_GUARDED_BY(mu_);
  int64_t clock_hand_ DSF_GUARDED_BY(mu_) = 0;
  int64_t next_dirty_seq_ DSF_GUARDED_BY(mu_) = 0;
  Stats stats_ DSF_GUARDED_BY(mu_);
  Counter* m_hits_ DSF_GUARDED_BY(mu_) = nullptr;
  Counter* m_misses_ DSF_GUARDED_BY(mu_) = nullptr;
  Counter* m_writebacks_ DSF_GUARDED_BY(mu_) = nullptr;
  Histogram* m_flush_run_length_ DSF_GUARDED_BY(mu_) = nullptr;
};

}  // namespace dsf

#endif  // DSF_STORAGE_BUFFER_POOL_H_
