#include "storage/buffer_pool.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace dsf {

const Page& PageGuard::page() const {
  DSF_CHECK(pool_ != nullptr) << "page() on released PageGuard";
  return pool_->frames_[static_cast<size_t>(frame_)].page;
}

Page* PageGuard::mutable_page() {
  DSF_CHECK(pool_ != nullptr) << "mutable_page() on released PageGuard";
  return &pool_->frames_[static_cast<size_t>(frame_)].page;
}

Address PageGuard::address() const {
  DSF_CHECK(pool_ != nullptr) << "address() on released PageGuard";
  return pool_->frames_[static_cast<size_t>(frame_)].address;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, write_);
    pool_ = nullptr;
  }
}

BufferPool::Stats& BufferPool::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  writebacks += other.writebacks;
  write_combines += other.write_combines;
  ordered_flushes += other.ordered_flushes;
  additive_absorbs += other.additive_absorbs;
  relocations += other.relocations;
  flush_runs += other.flush_runs;
  flushed_pages += other.flushed_pages;
  free_writes += other.free_writes;
  return *this;
}

std::string BufferPool::Stats::ToString() const {
  std::ostringstream os;
  os << "hits=" << hits << " misses=" << misses << " evictions=" << evictions
     << " writebacks=" << writebacks << " combines=" << write_combines
     << " ordered_flushes=" << ordered_flushes
     << " additive_absorbs=" << additive_absorbs
     << " relocations=" << relocations
     << " flush_runs=" << flush_runs << " flushed_pages=" << flushed_pages;
  return os.str();
}

BufferPool::BufferPool(PageFile* file, const Options& options)
    : file_(file), options_(options) {
  DSF_CHECK(file_ != nullptr) << "BufferPool needs a PageFile";
  DSF_CHECK(options_.num_frames >= 1) << "BufferPool needs >= 1 frame";
  MutexLock lock(mu_);
  frames_.reserve(static_cast<size_t>(options_.num_frames));
  free_frames_.reserve(static_cast<size_t>(options_.num_frames));
  for (int64_t i = 0; i < options_.num_frames; ++i) {
    frames_.emplace_back(file_->page_capacity());
  }
  // Hand out low indices first (purely cosmetic for tests/debugging).
  for (int64_t i = options_.num_frames - 1; i >= 0; --i) {
    free_frames_.push_back(i);
  }
}

BufferPool::~BufferPool() {
#ifndef NDEBUG
  const std::string leaks = PinLeakReport();
  if (!leaks.empty()) {
    DSF_LOG(kError) << "BufferPool destroyed with pinned frames (PageGuards "
                       "outliving the pool):\n"
                    << leaks;
  }
#endif
}

void BufferPool::Touch(Frame& f) { f.ref = true; }

StatusOr<int64_t> BufferPool::AcquireFrame(Address address, bool load) {
  if (address < 1 || address > file_->num_pages()) {
    return Status::OutOfRange("pool address " + std::to_string(address) +
                              " outside [1," +
                              std::to_string(file_->num_pages()) + "]");
  }
  auto it = resident_.find(address);
  if (it != resident_.end()) {
    ++stats_.hits;
    if (m_hits_ != nullptr) m_hits_->Increment();
    Touch(frames_[static_cast<size_t>(it->second)]);
    return it->second;
  }
  ++stats_.misses;
  int64_t index;
  if (!free_frames_.empty()) {
    index = free_frames_.back();
    free_frames_.pop_back();
  } else {
    StatusOr<int64_t> victim = EvictFrame();
    if (!victim.ok()) {
      // Undo the miss charge: the request did not take a frame after all,
      // so a retry (after guards are released) counts afresh.
      --stats_.misses;
      return victim.status();
    }
    index = *victim;
  }
  // The metric is bumped only once the miss actually took a frame (the
  // registry counter is monotonic and cannot be undone like stats_).
  if (m_misses_ != nullptr) m_misses_->Increment();
  Frame& f = frames_[static_cast<size_t>(index)];
  DSF_DCHECK(f.address == 0 && !f.dirty && f.pins == 0);
  if (load) {
    // With a backend the device read lands in the frame itself; the
    // simulated device hands back its own page, which is copied in.
    StatusOr<const Page*> device = file_->TryDeviceRead(address, &f.page);
    if (!device.ok()) {
      free_frames_.push_back(index);
      return device.status();
    }
    if (*device != &f.page) f.page = **device;
  } else {
    f.page.Clear();
  }
  f.address = address;
  f.free_write = false;
  f.removed_keys.clear();
  f.removed_unknown = false;
  Touch(f);
  resident_.emplace(address, index);
  return index;
}

StatusOr<int64_t> BufferPool::EvictFrame() {
  const int64_t n = static_cast<int64_t>(frames_.size());
  int64_t victim = -1;
  // CLOCK (second chance): up to two sweeps — the first clears ref bits,
  // the second must find an unpinned frame unless all are pinned.
  for (int64_t step = 0; step < 2 * n && victim < 0; ++step) {
    Frame& f = frames_[static_cast<size_t>(clock_hand_)];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.address == 0 || f.pins > 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    victim = (&f - frames_.data());
  }
  if (victim < 0) {
    return Status::ResourceExhausted(
        "all " + std::to_string(n) + " buffer-pool frames are pinned");
  }
  if (frames_[static_cast<size_t>(victim)].dirty) {
    // Evicting a dirty frame must not reorder writes: flush the dirty
    // prefix through the victim so its content lands in order. Frames in
    // that prefix may be read-pinned by concurrent shared readers (legal
    // under docs/CONCURRENCY.md: a drain window keeps frames dirty across
    // commands); FlushFrame writes those back in place.
    DSF_RETURN_IF_ERROR(FlushPrefixThrough(victim));
  }
  Frame& f = frames_[static_cast<size_t>(victim)];
  resident_.erase(f.address);
  f.address = 0;
  f.ref = false;
  f.free_write = false;
  ++stats_.evictions;
  return victim;
}

Status BufferPool::MarkDirty(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  // This path never sees the replacement content, so the dirty lifetime
  // must conservatively block rule-3† relocations past this frame.
  f.removed_unknown = true;
  if (f.dirty) {
    if (f.dirty_it == std::prev(dirty_order_.end())) {
      // Tail of L: the newer version simply replaces the older one.
      ++stats_.write_combines;
      return Status::OK();
    }
    // Re-dirtying out of order: flush the old version (and everything
    // dirtied before it) first, then re-enter at the tail.
    ++stats_.ordered_flushes;
    DSF_RETURN_IF_ERROR(FlushPrefixThrough(frame));
    f.removed_unknown = true;  // FlushFrame reset it; this write hides content
  }
  f.dirty = true;
  f.dirty_seq = ++next_dirty_seq_;
  dirty_order_.push_back(frame);
  f.dirty_it = std::prev(dirty_order_.end());
  return Status::OK();
}

void BufferPool::RecordPin(int64_t frame, const char* owner, bool write) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  ++f.pins;
  f.owner = owner != nullptr ? owner : "untagged";
  ++live_guards_;
  // Destabilize the epoch version: the guard holder may now mutate the
  // page contents outside mu_, so epoch readers must skip this frame
  // until the guard releases (see the header note).
  if (write) ++f.version;
}

Status BufferPool::FlushFrame(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  DSF_DCHECK(f.dirty) << "FlushFrame on clean frame";
  if ((f.version & 1) != 0) {
    // Never write back a frame under a write guard (the holder may be
    // mid-mutation). Reached only on API misuse (two overlapping write
    // guards forcing a prefix flush through each other); fail soft
    // rather than abort. Read guards do not block write-back: a shared
    // reader copies the page out and never changes it.
    return Status::FailedPrecondition("flush of write-pinned frame " +
                                      std::to_string(f.address));
  }
  if (f.free_write) {
    // Unaccounted layout bookkeeping, matching the unpooled path where
    // freed tail pages are cleared via RawWrite.
    DSF_RETURN_IF_ERROR(file_->RawWrite(f.address, nullptr, nullptr));
    ++stats_.free_writes;
  } else {
    const std::vector<Record>& records = f.page.records();
    DSF_RETURN_IF_ERROR(file_->TryDeviceWrite(
        f.address, records.data(), records.data() + records.size()));
    ++stats_.writebacks;
    if (m_writebacks_ != nullptr) m_writebacks_->Increment();
  }
  f.dirty = false;
  f.removed_keys.clear();
  f.removed_unknown = false;
  dirty_order_.erase(f.dirty_it);
  return Status::OK();
}

Status BufferPool::FlushFramesInSafeOrder(std::vector<int64_t> to_flush) {
  // Partition into pure-addition frames (empty removal ledger: their
  // pending image is a superset of every image the device may hold for
  // that page, so landing them at ANY point loses nothing) and removal
  // frames. Additions flush first in address order — one sequential
  // sweep instead of an L-order scatter — then removals in L order, by
  // which point every frame that duplicated their removed records has
  // already landed. Every intermediate crash point keeps the no-lost-
  // record guarantee that plain L-order flushing provides.
  std::vector<int64_t> adds;
  std::vector<int64_t> removals;
  for (const int64_t frame : to_flush) {
    const Frame& f = frames_[static_cast<size_t>(frame)];
    if (OrderFree(f)) {
      adds.push_back(frame);
    } else {
      removals.push_back(frame);
    }
  }
  std::sort(adds.begin(), adds.end(), [this](int64_t a, int64_t b) {
    return frames_[static_cast<size_t>(a)].address <
           frames_[static_cast<size_t>(b)].address;
  });
  for (const int64_t frame : adds) DSF_RETURN_IF_ERROR(FlushFrame(frame));
  for (const int64_t frame : removals) DSF_RETURN_IF_ERROR(FlushFrame(frame));
  return Status::OK();
}

Status BufferPool::FlushPrefixThrough(int64_t frame) {
  std::vector<int64_t> prefix;
  for (const int64_t dirty : dirty_order_) {
    prefix.push_back(dirty);
    if (dirty == frame) break;
  }
  return FlushFramesInSafeOrder(std::move(prefix));
}

bool BufferPool::TryEpochGet(Key key, Record* out) {
  MutexLock lock(mu_);
  for (const Frame& f : frames_) {
    if (f.address == 0 || f.free_write) continue;
    // Odd version: a write guard may be mutating the bytes outside mu_.
    if ((f.version & 1) != 0) continue;
    const std::vector<Record>& records = f.page.records();
    if (records.empty() || key < records.front().key ||
        records.back().key < key) {
      continue;
    }
    const auto it =
        std::lower_bound(records.begin(), records.end(), key,
                         [](const Record& r, Key k) { return r.key < k; });
    if (it == records.end() || it->key != key) continue;
    // Positive hit from a stable resident frame — the current logical
    // image of its page. Negative answers are never derived here: a
    // frame covering `key` without holding it may be a stale snapshot
    // of a reorganization in flight (see docs/CONCURRENCY.md).
    *out = *it;
    file_->CountLogical(/*is_write=*/false);
    return true;
  }
  return false;
}

StatusOr<PageGuard> BufferPool::PinRead(Address address, const char* owner) {
  file_->CountLogical(/*is_write=*/false);
  MutexLock lock(mu_);
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/true);
  if (!frame.ok()) return frame.status();
  RecordPin(*frame, owner, /*write=*/false);
  return PageGuard(this, *frame, /*write=*/false);
}

StatusOr<PageGuard> BufferPool::PinWrite(Address address, const char* owner) {
  file_->CountLogical(/*is_write=*/true);
  MutexLock lock(mu_);
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/true);
  if (!frame.ok()) return frame.status();
  DSF_RETURN_IF_ERROR(MarkDirty(*frame));
  RecordPin(*frame, owner, /*write=*/true);
  return PageGuard(this, *frame, /*write=*/true);
}

StatusOr<PageGuard> BufferPool::PinForOverwrite(Address address,
                                                const char* owner) {
  file_->CountLogical(/*is_write=*/true);
  MutexLock lock(mu_);
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/false);
  if (!frame.ok()) return frame.status();
  Frame& f = frames_[static_cast<size_t>(*frame)];
  // Order matters: MarkDirty may flush the frame's *old* version (rule
  // 3) — only then may the content be discarded for the overwrite.
  DSF_RETURN_IF_ERROR(MarkDirty(*frame));
  f.page.Clear();
  f.free_write = false;
  RecordPin(*frame, owner, /*write=*/true);
  return PageGuard(this, *frame, /*write=*/true);
}

namespace {

// True when every record of `page` (key AND value) appears in the sorted
// range [begin, end) — the rewrite only adds records. A value change
// counts as a removal of the old record.
bool IsSortedSuperset(const Page& page, const Record* begin,
                      const Record* end) {
  const Record* it = begin;
  for (const Record& old : page.records()) {
    while (it != end && it->key < old.key) ++it;
    if (it == end || !(*it == old)) return false;
    ++it;
  }
  return true;
}

}  // namespace

void BufferPool::AccumulateRemoved(Frame* f, const Record* begin,
                                   const Record* end) {
  if (f->removed_unknown) return;  // already maximally conservative
  const Record* it = begin;
  for (const Record& old : f->page.records()) {
    while (it != end && it->key < old.key) ++it;
    if (it == end || !(*it == old)) f->removed_keys.push_back(old.key);
  }
  // Appended batches are each ascending but may interleave with earlier
  // ones; RelocationSafe binary-searches the pending page instead, so
  // only dedup growth matters — keep the vector sorted and unique.
  std::sort(f->removed_keys.begin(), f->removed_keys.end());
  f->removed_keys.erase(
      std::unique(f->removed_keys.begin(), f->removed_keys.end()),
      f->removed_keys.end());
}

bool BufferPool::RelocationSafe(const Frame& f) const {
  // Frames dirtied after f, in L order. Any of them whose flush removes
  // a key that f's pending image still carries is (or may be, for the
  // content-blind removed_unknown case) relying on f flushing first —
  // f must then take the rule-3 prefix flush instead of relocating.
  const std::vector<Record>& pending = f.page.records();
  for (auto it = std::next(f.dirty_it); it != dirty_order_.end(); ++it) {
    const Frame& g = frames_[static_cast<size_t>(*it)];
    if (g.removed_unknown) return false;
    for (const Key key : g.removed_keys) {
      // A volatile key was never durability-promised; losing it on a
      // crash is within the recovery contract, so its removal does not
      // pin f's flush position.
      if (volatile_keys_.count(key) != 0) continue;
      const auto pos =
          std::lower_bound(pending.begin(), pending.end(), key,
                           [](const Record& r, Key k) { return r.key < k; });
      if (pos != pending.end() && pos->key == key) return false;
    }
  }
  return true;
}

bool BufferPool::OrderFree(const Frame& f) const {
  if (f.removed_unknown) return false;
  for (const Key key : f.removed_keys) {
    if (volatile_keys_.count(key) == 0) return false;
  }
  return true;
}

void BufferPool::NoteVolatile(Key key) {
  MutexLock lock(mu_);
  volatile_keys_.insert(key);
}

Status BufferPool::MarkDirtyWithContent(int64_t frame, bool was_resident,
                                        const Record* begin,
                                        const Record* end) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  if (!f.dirty) {
    DSF_RETURN_IF_ERROR(MarkDirty(frame));
    if (was_resident) {
      // Clean resident frame: pending == device, so this rewrite's
      // removals are exactly old content minus new — record them
      // instead of MarkDirty's content-blind removed_unknown.
      f.removed_unknown = false;
      AccumulateRemoved(&f, begin, end);
    }
  } else if (f.dirty_it == std::prev(dirty_order_.end())) {
    // Rule 2: tail combine, with the removal ledger kept accurate.
    ++stats_.write_combines;
    AccumulateRemoved(&f, begin, end);
  } else if (IsSortedSuperset(f.page, begin, end)) {
    // Rule 2': pure addition absorbs at the frame's original slot.
    ++stats_.additive_absorbs;
  } else if (RelocationSafe(f)) {
    // Rule 3†: nothing after f depends on its pending image, so the
    // merged rewrite moves to the tail without touching the device.
    AccumulateRemoved(&f, begin, end);
    dirty_order_.erase(f.dirty_it);
    f.dirty_seq = ++next_dirty_seq_;
    dirty_order_.push_back(frame);
    f.dirty_it = std::prev(dirty_order_.end());
    ++stats_.relocations;
  } else if (OrderFree(f)) {
    // Rule 3 (minimal form): the old image adds or only removes
    // volatile keys versus the device, so it may land alone and out of
    // order — nothing durable can be lost at any crash point. No
    // prefix flush.
    ++stats_.ordered_flushes;
    DSF_RETURN_IF_ERROR(FlushFrame(frame));
    DSF_RETURN_IF_ERROR(MarkDirty(frame));
    f.removed_unknown = false;
    AccumulateRemoved(&f, begin, end);
  } else {
    // Rule 3: flush the old image (and everything before it) in order,
    // then re-enter at the tail. The device now holds the old pending
    // image, so the fresh lifetime's removals are old minus new.
    ++stats_.ordered_flushes;
    DSF_RETURN_IF_ERROR(FlushPrefixThrough(frame));
    DSF_RETURN_IF_ERROR(MarkDirty(frame));
    f.removed_unknown = false;
    AccumulateRemoved(&f, begin, end);
  }
  return Status::OK();
}

StatusOr<PageGuard> BufferPool::PinForRewrite(Address address,
                                              const Record* begin,
                                              const Record* end,
                                              const char* owner) {
  file_->CountLogical(/*is_write=*/true);
  MutexLock lock(mu_);
  const bool was_resident = resident_.find(address) != resident_.end();
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/false);
  if (!frame.ok()) return frame.status();
  DSF_RETURN_IF_ERROR(MarkDirtyWithContent(*frame, was_resident, begin, end));
  Frame& f = frames_[static_cast<size_t>(*frame)];
  f.page.Clear();
  f.free_write = false;
  RecordPin(*frame, owner, /*write=*/true);
  return PageGuard(this, *frame, /*write=*/true);
}

Status BufferPool::MarkFree(Address address) {
  // Unaccounted (parity with the unpooled RawWrite clear), but ordered:
  // the clear rides L so it cannot overtake the in-cache writes that
  // moved this page's records elsewhere.
  MutexLock lock(mu_);
  const bool was_resident = resident_.find(address) != resident_.end();
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/false);
  if (!frame.ok()) return frame.status();
  // A clear is a rewrite with empty content: the same placement rules
  // apply, and the removal ledger stays exact (everything the pending
  // image held is removed) instead of poisoning later relocations with
  // removed_unknown.
  DSF_RETURN_IF_ERROR(
      MarkDirtyWithContent(*frame, was_resident, nullptr, nullptr));
  Frame& f = frames_[static_cast<size_t>(*frame)];
  f.page.Clear();
  f.free_write = true;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  // Safe-order schedule (see FlushFramesInSafeOrder): address-sorted
  // additions, then removals in L order.
  std::vector<int64_t> adds;
  std::vector<int64_t> removals;
  for (const int64_t frame : dirty_order_) {
    const Frame& f = frames_[static_cast<size_t>(frame)];
    if (OrderFree(f)) {
      adds.push_back(frame);
    } else {
      removals.push_back(frame);
    }
  }
  std::sort(adds.begin(), adds.end(), [this](int64_t a, int64_t b) {
    return frames_[static_cast<size_t>(a)].address <
           frames_[static_cast<size_t>(b)].address;
  });
  adds.insert(adds.end(), removals.begin(), removals.end());
  Address previous = -1;
  int64_t run_length = 0;
  for (const int64_t frame : adds) {
    const Address address = frames_[static_cast<size_t>(frame)].address;
    if (previous < 0 ||
        (address != previous && address != previous + 1 &&
         address != previous - 1)) {
      ++stats_.flush_runs;
      // A completed run's length goes to the coalescing histogram; a
      // faulted partial run is simply not observed (FlushAll retries).
      if (m_flush_run_length_ != nullptr && run_length > 0) {
        m_flush_run_length_->Observe(run_length);
      }
      run_length = 0;
    }
    DSF_RETURN_IF_ERROR(FlushFrame(frame));
    ++stats_.flushed_pages;
    ++run_length;
    previous = address;
  }
  if (m_flush_run_length_ != nullptr && run_length > 0) {
    m_flush_run_length_->Observe(run_length);
  }
  // Everything pending has landed: this is the durability point, so no
  // key is volatile any more.
  volatile_keys_.clear();
  return Status::OK();
}

void BufferPool::DropAll() {
  MutexLock lock(mu_);
  volatile_keys_.clear();
  dirty_order_.clear();
  resident_.clear();
  free_frames_.clear();
  for (int64_t i = static_cast<int64_t>(frames_.size()) - 1; i >= 0; --i) {
    Frame& f = frames_[static_cast<size_t>(i)];
    DSF_CHECK(f.pins == 0) << "DropAll with pinned frame " << f.address;
    f.address = 0;
    f.dirty = false;
    f.free_write = false;
    f.ref = false;
    f.removed_keys.clear();
    f.removed_unknown = false;
    f.page.Clear();
    free_frames_.push_back(i);
  }
}

const Page* BufferPool::PeekFrame(Address address) const {
  MutexLock lock(mu_);
  auto it = resident_.find(address);
  if (it == resident_.end()) return nullptr;
  return &frames_[static_cast<size_t>(it->second)].page;
}

std::vector<BufferPool::FrameInfo> BufferPool::AuditFrames() const {
  MutexLock lock(mu_);
  std::vector<FrameInfo> out;
  out.reserve(frames_.size());
  for (const Frame& f : frames_) {
    FrameInfo info;
    info.address = f.address;
    info.pins = f.pins;
    info.dirty = f.dirty;
    info.free_write = f.free_write;
    info.dirty_seq = f.dirty_seq;
    info.owner = f.owner;
    out.push_back(info);
  }
  return out;
}

std::vector<int64_t> BufferPool::DirtyOrderForAudit() const {
  MutexLock lock(mu_);
  return std::vector<int64_t>(dirty_order_.begin(), dirty_order_.end());
}

int64_t BufferPool::live_guards() const {
  MutexLock lock(mu_);
  return live_guards_;
}

std::string BufferPool::PinLeakReport() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.pins == 0) continue;
    os << "  frame " << i << " page " << f.address << " pins=" << f.pins
       << " owner=" << (f.owner != nullptr ? f.owner : "untagged") << "\n";
  }
  return os.str();
}

void BufferPool::ReorderDirtyListForTesting() {
  MutexLock lock(mu_);
  if (dirty_order_.size() < 2) return;
  auto first = dirty_order_.begin();
  auto second = std::next(first);
  std::swap(*first, *second);
  frames_[static_cast<size_t>(*first)].dirty_it = first;
  frames_[static_cast<size_t>(*second)].dirty_it = second;
}

void BufferPool::SetMetrics(Counter* hits, Counter* misses,
                            Counter* writebacks,
                            Histogram* flush_run_length) {
  MutexLock lock(mu_);
  m_hits_ = hits;
  m_misses_ = misses;
  m_writebacks_ = writebacks;
  m_flush_run_length_ = flush_run_length;
}

void BufferPool::Unpin(int64_t frame, bool write) {
  MutexLock lock(mu_);
  Frame& f = frames_[static_cast<size_t>(frame)];
  DSF_DCHECK(f.pins > 0) << "unbalanced Unpin";
  --f.pins;
  --live_guards_;
  // Write guard released: the contents are stable again (even version),
  // and the bump invalidates nothing retroactively — epoch readers never
  // copied from this frame while the version was odd.
  if (write) ++f.version;
}

}  // namespace dsf
