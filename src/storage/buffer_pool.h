// BufferPool: a fixed-frame page cache between the algorithms and the
// PageFile device.
//
// The paper's cost model counts page accesses; a pool splits that count
// into the *logical* accesses the algorithms request and the *physical*
// transfers the device actually serves (IoStats carries both). Frames
// hold private copies of pages; reads are served from a resident frame
// when possible (a hit costs no device traffic), writes dirty the frame
// and reach the device only at flush or eviction.
//
// Pinning. Every access hands out a PageGuard that pins the frame for
// its lifetime; pinned frames are never evicted or written back. When
// all frames are pinned and another page is requested the pool returns
// kResourceExhausted — it never aborts.
//
// Crash-safe write-back order. The crash-recovery discipline (see
// docs/FAULTS.md) relies on write *order*: SHIFT duplicates a block at
// DEST before deleting it at SOURCE, so a crash anywhere in between
// leaves duplicates (repairable) rather than holes (lost records). A
// cache that reordered write-back — or silently combined an old dirty
// version with a newer one that no longer carries some record — would
// destroy that property. The pool therefore keeps dirty frames in a
// *dirty-order list* L and enforces:
//   1. flush always walks L front-to-back; pages reach the device in
//      first-dirtied order, never reordered by address;
//   2. write combining (absorbing a second write to an already-dirty
//      frame) is allowed only while the frame is the *tail* of L —
//      nothing was dirtied after it, so collapsing the two versions
//      cannot commute a later write before an earlier one;
//   3. re-dirtying a dirty frame that is NOT the tail first flushes the
//      prefix of L up to and including that frame (preserving its old
//      version's position in the order), then re-enters it at the tail.
// Under the controls' access patterns rule 3 is rare (a SHIFT chain
// touches each block once), so almost all repeated writes combine; rule
// 2 is what makes the pool safe rather than merely fast.
//
// Content-aware write-back (rules 2' and 3†, PinForRewrite). Rule 3
// treats every out-of-order re-dirty as potentially unsafe because
// MarkDirty cannot see what the write changes. PinForRewrite receives
// the replacement content up front, so the pool can prove two cheaper
// escapes sound:
//   2'. Additive absorption — the new content is a SUPERSET of the
//       frame's pending content (a block page growing under an
//       ascending drain, a SHIFT destination accumulating records).
//       The rewrite is absorbed at the frame's *original* position in
//       L with no flush: a record can only be lost by a write that
//       REMOVES it, and this write removes nothing.
//   3†. Safe relocation — the rewrite removes records, but no
//       later-dirtied frame depends on this frame's pending image.
//       Each dirty frame tracks the keys its flush will remove from
//       the device (removed_keys, conservative removed_unknown when a
//       legacy write hid the content); the pending image that protects
//       such a removal — the duplicate written first — always sits at
//       an EARLIER position in L. If no frame after F lists a removed
//       key that F's pending image still holds, then nothing between
//       F's slot and the tail needs F flushed first, and F simply
//       moves to the tail with its new content — no device traffic.
//       (The classic unsafe chain — a record hopping P→Q→R, where
//       P's pending removal relies on Q's pending image — fails the
//       check: Q still holds the key P removed, so Q takes the rule-3
//       prefix flush instead.)
// Removal writes that fail both tests keep the full rule-3 prefix
// flush, so duplicate-before-delete holds at every crash point.
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
// the records out), but the device clear itself is unaccounted RawPage
// bookkeeping, matching the unpooled path.
//
// Thread safety. The pool's bookkeeping structures (resident map, dirty
// list, free list, stats) are guarded by an internal mutex, annotated
// for Clang's -Wthread-safety analysis (see util/thread_annotations.h).
// Frame *contents* are protected by pinning, not by the mutex: a
// PageGuard holder reads or writes its page without taking any lock, so
// concurrent guards to the SAME page still need external serialization
// (in practice: one pool per shard, writers serialized exclusively and
// readers sharing the shard lock; see shard/sharded_dense_file.h and
// docs/CONCURRENCY.md).
//
// Epoch point reads (TryEpochGet). Each frame carries a version counter
// (odd = a live write guard may be mutating the contents outside the
// pool mutex, even = stable), bumped under the mutex when a write guard
// is handed out and again when it releases. TryEpochGet serves a point
// lookup from a resident *stable* frame entirely under the pool's own
// short mutex — never touching the owner's shard lock and never pinning
// — so lookups proceed while a writer runs in the same shard. The
// version check under the mutex is what validates the copy-out: content
// mutations happen either under the mutex (loads, clears, eviction) or
// only while the version is odd (write guards), so an even version
// proves the bytes read cannot be mid-mutation. Only POSITIVE hits are
// answered; absence is never inferred from the cache (a reorganization
// in another page may be moving the key), and callers fall back to the
// locked path (see docs/CONCURRENCY.md for the soundness argument).

#ifndef DSF_STORAGE_BUFFER_POOL_H_
#define DSF_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dsf {

class BufferPool;
// Metric handles (obs/metrics.h). Forward-declared so storage/ headers
// stay free of obs/ includes: the owner (core layer) resolves the
// handles from its registry and hands the pool raw pointers.
class Counter;
class Histogram;

// RAII pin on a buffer-pool frame. While alive, the frame cannot be
// evicted or written back. Movable, not copyable; unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_), write_(other.write_) {
    other.pool_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      write_ = other.write_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  const Page& page() const;
  // Mutable access; valid only for guards obtained from PinWrite /
  // PinForOverwrite (the frame is already marked dirty).
  Page* mutable_page();
  Address address() const;
  bool valid() const { return pool_ != nullptr; }
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, int64_t frame, bool write)
      : pool_(pool), frame_(frame), write_(write) {}

  BufferPool* pool_ = nullptr;
  int64_t frame_ = -1;
  // Write guards re-stabilize the frame's version counter on release
  // (see the epoch-read note above).
  bool write_ = false;
};

class BufferPool {
 public:
  enum class Eviction {
    kClock,  // second-chance sweep (default)
    kLru,    // exact least-recently-used
  };

  struct Options {
    int64_t num_frames = 0;
    Eviction eviction = Eviction::kClock;
  };

  struct Stats {
    int64_t hits = 0;            // pins served from a resident frame
    int64_t misses = 0;          // pins that had to take a frame
    int64_t evictions = 0;       // frames reclaimed for another page
    int64_t writebacks = 0;      // dirty frames written to the device
    int64_t write_combines = 0;  // re-dirties absorbed at the tail of L
    int64_t ordered_flushes = 0;  // prefix flushes forced by rule 3
    int64_t additive_absorbs = 0;  // superset rewrites absorbed in place
                                   // at their original L position (rule 2')
    int64_t relocations = 0;  // removal rewrites safely moved to the
                              // tail of L without a flush (rule 3†)
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
  // the frame id; `owner` is the tag passed by the most recent pinner.
  struct FrameInfo {
    Address address = 0;  // 0 = empty frame
    int32_t pins = 0;
    bool dirty = false;
    bool free_write = false;
    int64_t dirty_seq = 0;  // when the frame last went clean -> dirty
    const char* owner = nullptr;
  };

  // The pool caches pages of `file`; frames are sized to the file's page
  // capacity. `options.num_frames` must be >= 1.
  BufferPool(PageFile* file, const Options& options);

  // In debug builds the destructor reports leaked pins (PageGuards that
  // outlive the pool) to the log, with their owner tags.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Pins `address` for reading; fills the frame from the device on a
  // miss. Errors: OutOfRange, kIoError (miss fill or eviction write-back
  // fault), kResourceExhausted (all frames pinned). `owner` is a static
  // string recorded on the frame for pin-leak diagnostics.
  StatusOr<PageGuard> PinRead(Address address, const char* owner = nullptr)
      DSF_EXCLUDES(mu_);

  // Pins `address` for in-place modification: loads on miss, marks the
  // frame dirty (enforcing the dirty-order rules above).
  StatusOr<PageGuard> PinWrite(Address address, const char* owner = nullptr)
      DSF_EXCLUDES(mu_);

  // Pins `address` for full overwrite: the frame is *not* filled from
  // the device (the caller replaces the whole page), arrives cleared,
  // and is marked dirty. Saves the miss read that PinWrite would pay.
  StatusOr<PageGuard> PinForOverwrite(Address address,
                                      const char* owner = nullptr)
      DSF_EXCLUDES(mu_);

  // Content-aware PinForOverwrite: [begin, end) is the exact sorted
  // record content the caller will place in the page. Knowing the
  // replacement up front lets the pool absorb additive rewrites in
  // place (rule 2') and relocate dependency-free removal rewrites to
  // the tail (rule 3†) instead of forcing the rule-3 prefix flush —
  // see the header note. The returned frame arrives cleared; the
  // caller must fill it with exactly the declared records before
  // releasing the guard.
  StatusOr<PageGuard> PinForRewrite(Address address, const Record* begin,
                                    const Record* end,
                                    const char* owner = nullptr)
      DSF_EXCLUDES(mu_);

  // Epoch point lookup (see the header note): if some resident, stable
  // (even-version, non-free) frame's key range covers `key` AND the page
  // holds it, copies the record into *out and returns true — all under
  // the pool's own mutex, without pinning and without the owner's
  // external lock. Returns false when the lookup cannot be answered
  // positively from the cache (absent, uncovered, or the covering frame
  // has a live write guard); the caller falls back to its locked read
  // path. Charges one logical read only on a hit (the fallback path
  // charges its own). Never touches the device.
  bool TryEpochGet(Key key, Record* out) DSF_EXCLUDES(mu_);

  // Enqueues "this page becomes empty" through the dirty order; the
  // eventual device clear is unaccounted bookkeeping (see header note).
  Status MarkFree(Address address) DSF_EXCLUDES(mu_);

  // Declares `key` never-yet-durable: it was created after the last
  // durability point (e.g. drained from a volatile memtable inside a
  // flush-deferral window), so losing it on a crash is within the
  // recovery contract. Removals of volatile keys impose no write-order
  // constraint — RelocationSafe and the safe-order flush scheduler
  // ignore them. The set clears itself once every dirty frame lands
  // (successful FlushAll = the durability point) or the cache drops.
  void NoteVolatile(Key key) DSF_EXCLUDES(mu_);

  // Writes every dirty frame to the device in dirty-order. On a fault
  // the failed frame and everything after it stay dirty (and keep their
  // order); already-flushed frames are clean. Safe to retry.
  Status FlushAll() DSF_EXCLUDES(mu_);

  // Drops every frame without writing anything back — the cache-loss
  // half of a crash. Dirty data is lost by design; the caller re-syncs
  // from the device (CheckAndRepair). Requires no outstanding pins.
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

  // Number of PageGuards currently alive. The auditor checks this equals
  // the sum of per-frame pin counts (they diverge only via memory
  // corruption, since both move together in Pin*/Unpin).
  int64_t live_guards() const DSF_EXCLUDES(mu_);

  // Human-readable list of frames still pinned, one line per frame with
  // the owner tag of the last pinner; empty string when nothing is
  // pinned. The destructor logs this in debug builds.
  std::string PinLeakReport() const DSF_EXCLUDES(mu_);

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
  friend class PageGuard;

  struct Frame {
    explicit Frame(int64_t page_capacity) : page(page_capacity) {}
    Address address = 0;  // 0 = empty frame
    Page page;
    int32_t pins = 0;
    bool dirty = false;
    bool free_write = false;  // dirty content is "page becomes empty"
    bool ref = false;         // CLOCK second-chance bit
    int64_t lru_tick = 0;
    int64_t dirty_seq = 0;    // serial stamped when going clean -> dirty
    const char* owner = nullptr;            // last pinner's tag
    // Epoch-read stability counter (see the header note): odd while a
    // write guard is outstanding, even otherwise. Mutated only under
    // mu_; content mutations outside mu_ happen only while odd.
    int64_t version = 0;
    std::list<int64_t>::iterator dirty_it;  // valid iff dirty
    // Keys this frame's flush will remove from (or change on) the
    // device, accumulated over the dirty lifetime — the dependency
    // record behind rule 3† (see header note). removed_unknown marks a
    // dirty lifetime that went through a content-blind write path
    // (PinWrite / PinForOverwrite), which conservatively blocks
    // relocations past this frame; content-aware paths (PinForRewrite,
    // MarkFree) keep the ledger exact instead. Both reset when the
    // frame goes clean.
    std::vector<Key> removed_keys;
    bool removed_unknown = false;
  };

  // Returns a pinned frame holding `address`; fills from the device iff
  // `load` and the page was not resident.
  StatusOr<int64_t> AcquireFrame(Address address, bool load)
      DSF_REQUIRES(mu_);
  // Picks and reclaims a victim frame (flushing the dirty prefix through
  // it first); kResourceExhausted if every resident frame is pinned.
  StatusOr<int64_t> EvictFrame() DSF_REQUIRES(mu_);
  // Applies the dirty-order rules (combine at tail / prefix-flush).
  Status MarkDirty(int64_t frame) DSF_REQUIRES(mu_);
  // True when no dirty frame ordered after `f` in L lists a removed key
  // that f's pending image still holds — the rule-3† safety condition.
  // Volatile keys are exempt.
  bool RelocationSafe(const Frame& f) const DSF_REQUIRES(mu_);
  // True when flushing `f` at any position loses nothing durable: its
  // ledger is exact and every removed key is volatile.
  bool OrderFree(const Frame& f) const DSF_REQUIRES(mu_);
  // Dirties `frame` ahead of a rewrite whose full replacement content is
  // [begin, end): applies rules 2 / 2' / 3† / 3 to place the frame in L
  // and keeps the removal ledger exact. `was_resident` tells whether the
  // frame held the device image before AcquireFrame.
  Status MarkDirtyWithContent(int64_t frame, bool was_resident,
                              const Record* begin, const Record* end)
      DSF_REQUIRES(mu_);
  // Appends to f.removed_keys every key of f's pending page that the
  // replacement [begin, end) drops or rebinds to a new value. No-op
  // when the frame is already conservatively removed_unknown.
  static void AccumulateRemoved(Frame* f, const Record* begin,
                                const Record* end);
  // Writes one dirty frame to the device and removes it from L.
  Status FlushFrame(int64_t frame) DSF_REQUIRES(mu_);
  // Flushes L front-to-back up to and including `frame`.
  Status FlushPrefixThrough(int64_t frame) DSF_REQUIRES(mu_);
  // Flushes the given frames with pure additions first in address order,
  // then removal frames in L order — crash-safe (see the .cc comment).
  Status FlushFramesInSafeOrder(std::vector<int64_t> to_flush)
      DSF_REQUIRES(mu_);
  void Unpin(int64_t frame, bool write) DSF_EXCLUDES(mu_);
  void Touch(Frame& f) DSF_REQUIRES(mu_);
  // Records a pin; a `write` pin additionally destabilizes the frame's
  // epoch version (odd) until its guard releases.
  void RecordPin(int64_t frame, const char* owner, bool write)
      DSF_REQUIRES(mu_);

  PageFile* file_;
  Options options_;
  // Frame *contents* are protected by pinning, not mu_ (a PageGuard
  // holder reads its page without any lock, so frames_ cannot carry a
  // GUARDED_BY annotation). Frame *metadata* is mutated only under mu_;
  // the vector itself is sized once at construction and never relocates.
  std::vector<Frame> frames_;

  mutable Mutex mu_;
  std::vector<int64_t> free_frames_ DSF_GUARDED_BY(mu_);
  std::unordered_map<Address, int64_t> resident_ DSF_GUARDED_BY(mu_);
  // front = dirtied earliest
  std::list<int64_t> dirty_order_ DSF_GUARDED_BY(mu_);
  int64_t clock_hand_ DSF_GUARDED_BY(mu_) = 0;
  int64_t tick_ DSF_GUARDED_BY(mu_) = 0;
  int64_t next_dirty_seq_ DSF_GUARDED_BY(mu_) = 0;
  int64_t live_guards_ DSF_GUARDED_BY(mu_) = 0;
  // Keys created after the last durability point (see NoteVolatile).
  std::unordered_set<Key> volatile_keys_ DSF_GUARDED_BY(mu_);
  Stats stats_ DSF_GUARDED_BY(mu_);
  Counter* m_hits_ DSF_GUARDED_BY(mu_) = nullptr;
  Counter* m_misses_ DSF_GUARDED_BY(mu_) = nullptr;
  Counter* m_writebacks_ DSF_GUARDED_BY(mu_) = nullptr;
  Histogram* m_flush_run_length_ DSF_GUARDED_BY(mu_) = nullptr;
};

}  // namespace dsf

#endif  // DSF_STORAGE_BUFFER_POOL_H_
