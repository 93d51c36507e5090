#include "storage/buffer_pool.h"

#include <cstddef>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace dsf {

BufferPool::Stats& BufferPool::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  writebacks += other.writebacks;
  write_combines += other.write_combines;
  ordered_flushes += other.ordered_flushes;
  additive_absorbs += other.additive_absorbs;
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

void BufferPool::Touch(Frame& f) { f.ref = true; }

StatusOr<int64_t> BufferPool::AcquireFrame(Address address, bool load) {
  auto it = resident_.find(address);
  if (it != resident_.end()) {
    ++stats_.hits;
    if (m_hits_ != nullptr) m_hits_->Increment();
    Touch(frames_[static_cast<size_t>(it->second)]);
    return it->second;
  }
  int64_t index;
  if (!free_frames_.empty()) {
    index = free_frames_.back();
    free_frames_.pop_back();
  } else {
    StatusOr<int64_t> victim = EvictFrame();
    if (!victim.ok()) return victim.status();
    index = *victim;
  }
  // A miss counts once it has taken a frame, so a retry after a failed
  // eviction counts afresh.
  ++stats_.misses;
  if (m_misses_ != nullptr) m_misses_->Increment();
  Frame& f = frames_[static_cast<size_t>(index)];
  DSF_DCHECK(f.address == 0 && !f.dirty);
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
  Touch(f);
  resident_.emplace(address, index);
  return index;
}

StatusOr<int64_t> BufferPool::EvictFrame() {
  const int64_t n = static_cast<int64_t>(frames_.size());
  int64_t victim = -1;
  // CLOCK (second chance): the first sweep clears ref bits, so the
  // second finds a victim (every frame is occupied when this runs).
  for (int64_t step = 0; step < 2 * n && victim < 0; ++step) {
    Frame& f = frames_[static_cast<size_t>(clock_hand_)];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.address == 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    victim = (&f - frames_.data());
  }
  DSF_CHECK(victim >= 0) << "eviction found no occupied frame";
  if (frames_[static_cast<size_t>(victim)].dirty) {
    // Evicting a dirty frame must not reorder writes: flush the dirty
    // prefix through the victim so its content lands in order.
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

void BufferPool::EnterTail(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  f.dirty = true;
  f.dirty_seq = ++next_dirty_seq_;
  dirty_order_.push_back(frame);
  f.dirty_it = std::prev(dirty_order_.end());
}

Status BufferPool::FlushFrame(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  DSF_DCHECK(f.dirty) << "FlushFrame on clean frame";
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
  dirty_order_.erase(f.dirty_it);
  return Status::OK();
}

Status BufferPool::FlushPrefixThrough(int64_t frame) {
  DSF_DCHECK(frames_[static_cast<size_t>(frame)].dirty)
      << "FlushPrefixThrough on a frame outside L";
  int64_t front;
  do {
    front = dirty_order_.front();
    DSF_RETURN_IF_ERROR(FlushFrame(front));
  } while (front != frame);
  return Status::OK();
}

bool BufferPool::TryEpochGet(Key key, Record* out) {
  MutexLock lock(mu_);
  for (const Frame& f : frames_) {
    if (f.address == 0) continue;
    const std::vector<Record>& records = f.page.records();
    if (records.empty() || key < records.front().key ||
        records.back().key < key) {
      continue;
    }
    StatusOr<Record> found = f.page.Find(key);
    if (!found.ok()) continue;
    // Positive hit from a resident frame — the current logical image of
    // its page. Negative answers are never derived here: a frame
    // covering `key` without holding it may be a stale snapshot of a
    // reorganization in flight (see docs/CONCURRENCY.md).
    *out = *found;
    file_->CountLogical(/*is_write=*/false);
    return true;
  }
  return false;
}

// Read, Find and Write refuse an out-of-range address before charging
// it: a refused request is no access. Everything after the check is
// charged, an injected device fault included.
Status BufferPool::Read(Address address, std::vector<Record>* out) {
  DSF_RETURN_IF_ERROR(file_->CheckAddress(address, "pool"));
  file_->CountLogical(/*is_write=*/false);
  MutexLock lock(mu_);
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/true);
  DSF_RETURN_IF_ERROR(frame.status());
  const std::vector<Record>& records =
      frames_[static_cast<size_t>(*frame)].page.records();
  out->insert(out->end(), records.begin(), records.end());
  return Status::OK();
}

StatusOr<bool> BufferPool::Find(Address address, Key key, Record* out) {
  DSF_RETURN_IF_ERROR(file_->CheckAddress(address, "pool"));
  file_->CountLogical(/*is_write=*/false);
  MutexLock lock(mu_);
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/true);
  DSF_RETURN_IF_ERROR(frame.status());
  StatusOr<Record> found = frames_[static_cast<size_t>(*frame)].page.Find(key);
  if (!found.ok()) return false;
  *out = *found;
  return true;
}

Status BufferPool::Write(Address address, const Record* begin,
                         const Record* end) {
  DSF_RETURN_IF_ERROR(file_->CheckAddress(address, "pool"));
  file_->CountLogical(/*is_write=*/true);
  MutexLock lock(mu_);
  return Place(address, begin, end, /*free_write=*/false);
}

Status BufferPool::MarkFree(Address address) {
  // Unaccounted (parity with the unpooled RawWrite clear), but ordered:
  // a clear is a rewrite with empty content, so it rides L under the
  // same rules and cannot overtake the in-cache writes that moved this
  // page's records elsewhere.
  DSF_RETURN_IF_ERROR(file_->CheckAddress(address, "pool"));
  MutexLock lock(mu_);
  return Place(address, nullptr, nullptr, /*free_write=*/true);
}

Status BufferPool::Place(Address address, const Record* begin,
                         const Record* end, bool free_write) {
  StatusOr<int64_t> frame = AcquireFrame(address, /*load=*/false);
  DSF_RETURN_IF_ERROR(frame.status());
  // Order matters: MarkDirty may flush the frame's *old* image (rule 3);
  // only then may the content be replaced.
  DSF_RETURN_IF_ERROR(MarkDirty(*frame, begin, end));
  Frame& f = frames_[static_cast<size_t>(*frame)];
  f.page.Clear();
  f.page.AppendHigh(begin, end);
  f.free_write = free_write;
  return Status::OK();
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

Status BufferPool::MarkDirty(int64_t frame, const Record* begin,
                             const Record* end) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  if (!f.dirty) {
    EnterTail(frame);
    return Status::OK();
  }
  if (f.dirty_it == std::prev(dirty_order_.end())) {
    // Rule 2: tail combine.
    ++stats_.write_combines;
    return Status::OK();
  }
  if (IsSortedSuperset(f.page, begin, end)) {
    // Rule 2': pure addition absorbs at the frame's original slot.
    ++stats_.additive_absorbs;
    return Status::OK();
  }
  // Rule 3: the old image lands after everything dirtied before it, then
  // the frame re-enters at the tail.
  ++stats_.ordered_flushes;
  DSF_RETURN_IF_ERROR(FlushPrefixThrough(frame));
  EnterTail(frame);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  Address previous = -1;
  int64_t run_length = 0;
  while (!dirty_order_.empty()) {
    const int64_t frame = dirty_order_.front();
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
  return Status::OK();
}

void BufferPool::DropAll() {
  MutexLock lock(mu_);
  dirty_order_.clear();
  resident_.clear();
  free_frames_.clear();
  for (int64_t i = static_cast<int64_t>(frames_.size()) - 1; i >= 0; --i) {
    Frame& f = frames_[static_cast<size_t>(i)];
    f.address = 0;
    f.dirty = false;
    f.free_write = false;
    f.ref = false;
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
    info.dirty = f.dirty;
    info.free_write = f.free_write;
    info.dirty_seq = f.dirty_seq;
    out.push_back(info);
  }
  return out;
}

std::vector<int64_t> BufferPool::DirtyOrderForAudit() const {
  MutexLock lock(mu_);
  return std::vector<int64_t>(dirty_order_.begin(), dirty_order_.end());
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

}  // namespace dsf
