#include "core/control_base.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/metric_names.h"
#include "util/check.h"
#include "util/math.h"

namespace dsf {

std::string RepairReport::ToString() const {
  std::ostringstream os;
  os << "scanned=" << blocks_scanned << " resyncs=" << calibrator_resyncs
     << " dup_dropped=" << duplicate_records_dropped
     << " misordered=" << misordered_blocks << " overfull=" << overfull_pages
     << " packing=" << packing_violations
     << " corrupt=" << corrupt_pages.size()
     << " rewrote=" << (rewrote_file ? "yes" : "no")
     << " flags_rebuilt=" << (warning_state_rebuilt ? "yes" : "no");
  return os.str();
}

namespace {

Calibrator::LeafUpdate MakeLeafUpdate(const Record* begin, const Record* end) {
  Calibrator::LeafUpdate u;
  if (begin != end) {
    u.count = end - begin;
    u.min_key = begin->key;
    u.max_key = (end - 1)->key;
  }
  return u;
}

}  // namespace

StatusOr<DensitySpec> ControlBase::MakeLogicalSpec(const Config& config) {
  if (config.num_pages < 1) {
    return Status::InvalidArgument("num_pages must be >= 1");
  }
  if (config.block_size < 1) {
    return Status::InvalidArgument("block_size must be >= 1");
  }
  if (config.num_pages % config.block_size != 0) {
    return Status::InvalidArgument(
        "num_pages must be a multiple of block_size");
  }
  if (config.d < 1 || config.D <= config.d) {
    return Status::InvalidArgument("need 1 <= d < D");
  }
  return DensitySpec::Create(config.num_pages / config.block_size,
                             config.block_size * config.d,
                             config.block_size * config.D);
}

ControlBase::ControlBase(const Config& config, DensitySpec logical_spec)
    : logical_spec_(logical_spec),
      smart_placement_(config.smart_placement),
      block_size_(config.block_size),
      num_blocks_(config.num_pages / config.block_size),
      page_d_(config.d),
      page_D_(config.D),
      // Physical capacity D+1: one record may transiently exceed D inside
      // a command before the maintenance steps drain it.
      file_(config.num_pages, config.D + 1),
      calibrator_(num_blocks_) {
  if (config.cache_frames > 0) {
    BufferPool::Options pool_options;
    pool_options.num_frames = config.cache_frames;
    pool_ = std::make_unique<BufferPool>(&file_, pool_options);
  }
}

StatusOr<const Page*> ControlBase::PeekLogical(Address page,
                                               Page* scratch) const {
  if (pool_ != nullptr) {
    const Page* frame = pool_->PeekFrame(page);
    if (frame != nullptr) return frame;
  }
  // lint:allow(raw-page-io): the unaccounted logical view serves
  // validators, the auditor and recovery, never online algorithm logic.
  return file_.RawRead(page, scratch);
}

Status ControlBase::Flush() {
  if (pool_ != nullptr) DSF_RETURN_IF_ERROR(pool_->FlushAll());
  return file_.SyncBarrier();
}

Status ControlBase::AttachStorageBackend(
    std::unique_ptr<StorageBackend> backend) {
  return file_.AttachBackend(std::move(backend));
}

void ControlBase::DiscardCache() {
  if (pool_ != nullptr) pool_->DropAll();
  // A dropped cache ends any open drain window: there is nothing left
  // to defer, and post-crash commands must flush per command again.
  defer_flush_ = false;
}

int64_t ControlBase::PagesUsed(int64_t count) const {
  if (count == 0) return 0;
  return std::min(block_size_, DivCeil(count, page_D_));
}

StatusOr<std::vector<Record>> ControlBase::ReadBlock(Address block) {
  std::vector<Record> out;
  out.reserve(
      static_cast<size_t>(calibrator_.Count(calibrator_.LeafOf(block))));
  DSF_RETURN_IF_ERROR(ReadBlockInto(block, &out));
  return out;
}

Status ControlBase::ReadBlockInto(Address block, std::vector<Record>* out) {
  const int64_t count = calibrator_.Count(calibrator_.LeafOf(block));
  const int64_t used = PagesUsed(count);
  const int64_t before = static_cast<int64_t>(out->size());
  const Address first = FirstPhysicalPage(block);
  // Unpooled reads from a backend land in this call's own scratch, so
  // shared-lock readers of one file never share a buffer.
  Page scratch;
  for (int64_t i = 0; i < used; ++i) {
    if (pool_ != nullptr) {
      DSF_RETURN_IF_ERROR(pool_->Read(first + i, out));
    } else {
      StatusOr<const Page*> p = file_.TryRead(first + i, &scratch);
      DSF_RETURN_IF_ERROR(p.status());
      out->insert(out->end(), (*p)->records().begin(), (*p)->records().end());
    }
  }
  (void)before;
  DSF_DCHECK(static_cast<int64_t>(out->size()) - before == count)
      << "block " << block << " layout out of sync";
  return Status::OK();
}

Status ControlBase::WriteBlock(Address block,
                               const std::vector<Record>& records,
                               BlockWriteOrder order) {
  return WriteBlock(block, records.data(), records.data() + records.size(),
                    order);
}

Status ControlBase::WriteBlock(Address block, const Record* begin,
                               const Record* end, BlockWriteOrder order) {
  const Status s = WriteBlockPages(block, begin, end, order);
  if (!s.ok()) {
    // The device holds a mix of old and new pages; make the calibrator
    // tell the truth about it before surfacing the error. The write
    // error wins: a resync that cannot read the device leaves a file
    // that needs CheckAndRepair anyway, and that rebuilds every leaf.
    IgnoreStatus(ResyncRangeFromRaw(block, block));
    return s;
  }
  const Calibrator::LeafUpdate u = MakeLeafUpdate(begin, end);
  calibrator_.SyncLeaf(block, u.count, u.min_key, u.max_key);
  return Status::OK();
}

Status ControlBase::WriteBlockPages(Address block, const Record* begin,
                                    const Record* end, BlockWriteOrder order) {
  const int64_t old_count = calibrator_.Count(calibrator_.LeafOf(block));
  const int64_t old_used = PagesUsed(old_count);
  const int64_t n = end - begin;
  const int64_t used = PagesUsed(n);
  DSF_CHECK(n <= block_size_ * page_D_ + 1)
      << "block overfull beyond the one-record transient";

  // Slice the buffer into pages first: pages before the last take exactly
  // D, the last takes the remainder (up to D+1 in the transient case).
  // Then write the slices in crash-safe order (see BlockWriteOrder): a
  // growing block's content shifts toward higher pages, so writing
  // right-to-left guarantees a record is duplicated into its new page
  // before the page holding its old copy is overwritten; shrinking is the
  // mirror image. The slices are independent, so order only matters for
  // what a crash between two page writes leaves behind.
  const Address first = FirstPhysicalPage(block);
  const bool backward = order == BlockWriteOrder::kBackward ||
                        (order == BlockWriteOrder::kAuto && n >= old_count);
  Status fault = Status::OK();
  for (int64_t step = 0; step < used; ++step) {
    const int64_t i = backward ? used - 1 - step : step;
    const int64_t offset = i * page_D_;
    const int64_t take = (i + 1 < used) ? page_D_ : n - offset;
    if (pool_ != nullptr) {
      if (defer_flush_) {
        // Inside a drain window, a byte-identical page rewrite is
        // skipped outright: the device (or the frame's pending flush at
        // an order-correct earlier slot) already holds these bytes, so
        // the write would only churn the pool's dirty-order list.
        const Page* cached = pool_->PeekFrame(first + i);
        if (cached != nullptr &&
            static_cast<int64_t>(cached->records().size()) == take &&
            std::equal(cached->records().begin(), cached->records().end(),
                       begin + offset)) {
          continue;
        }
      }
      // Full-page image: the pool skips the miss read, and its
      // dirty-order list preserves the crash-safe order chosen here —
      // frames reach the device in the order they were dirtied, not in
      // address order. Knowing the content lets the pool absorb additive
      // rewrites (buffer_pool.h rule 2') instead of flushing the prefix.
      fault = pool_->Write(first + i, begin + offset, begin + offset + take);
    } else {
      // Content-passing write: the page is final when handed over, so a
      // backend receives it before TryWrite returns.
      fault = file_.TryWrite(first + i, begin + offset, begin + offset + take);
    }
    if (!fault.ok()) break;
  }
  if (!fault.ok()) return fault;
  // Pages that fall out of the used prefix become free. A real system
  // records this in metadata; clearing them here is bookkeeping, not I/O.
  // Pooled, the clear must ride the dirty order (it may not overtake the
  // in-cache writes that moved these records into the used prefix).
  for (int64_t i = used; i < old_used; ++i) {
    if (pool_ != nullptr) {
      DSF_RETURN_IF_ERROR(pool_->MarkFree(first + i));
    } else {
      // lint:allow(raw-page-io): freed-tail clear is unaccounted device
      // maintenance per the accounting rule in storage/page_file.h.
      DSF_RETURN_IF_ERROR(file_.RawWrite(first + i, nullptr, nullptr));
    }
  }
  return Status::OK();
}

Status ControlBase::ResyncRangeFromRaw(Address lo, Address hi) {
  std::vector<Calibrator::LeafUpdate> leaves;
  leaves.reserve(static_cast<size_t>(hi - lo + 1));
  Page scratch;
  for (Address block = lo; block <= hi; ++block) {
    const Address first = FirstPhysicalPage(block);
    Calibrator::LeafUpdate u;
    for (int64_t i = 0; i < block_size_; ++i) {
      StatusOr<const Page*> page = PeekLogical(first + i, &scratch);
      DSF_RETURN_IF_ERROR(page.status());
      // A torn block may interleave old and new pages, so the true
      // extrema need a full scan of every record, not just the first
      // and last page.
      for (const Record& r : (*page)->records()) {
        if (u.count == 0 || r.key < u.min_key) u.min_key = r.key;
        if (u.count == 0 || r.key > u.max_key) u.max_key = r.key;
        ++u.count;
      }
    }
    leaves.push_back(u);
  }
  calibrator_.SyncLeaves(lo, leaves);
  return Status::OK();
}

Status ControlBase::LayOutBlock(Address block, const Record* begin,
                                const Record* end) {
  const Address first = FirstPhysicalPage(block);
  const int64_t n = end - begin;
  for (int64_t i = 0; i < block_size_; ++i) {
    const int64_t lo = std::min(n, i * page_D_);
    const int64_t hi = std::min(n, lo + page_D_);
    // lint:allow(raw-page-io): loading and recovery lay pages out
    // unaccounted, outside the per-command cost model.
    DSF_RETURN_IF_ERROR(file_.RawWrite(first + i, begin + lo, begin + hi));
  }
  return Status::OK();
}

void ControlBase::SyncBlock(Address block,
                            const std::vector<Record>& records) {
  if (records.empty()) {
    calibrator_.SyncLeaf(block, 0, 0, 0);
  } else {
    calibrator_.SyncLeaf(block, static_cast<int64_t>(records.size()),
                         records.front().key, records.back().key);
  }
}

Address ControlBase::BlockPossiblyContaining(Key key) const {
  return calibrator_.FirstNonEmptyPageWithMaxGE(key);
}

Address ControlBase::TargetBlockForInsert(Key key) const {
  const Address successor_block = calibrator_.FirstNonEmptyPageWithMaxGE(key);
  if (successor_block == 0) {
    // Larger than every stored key: extend the last non-empty block, or
    // start in the middle of an empty file.
    const Address last = calibrator_.LastNonEmptyPageIn(1, num_blocks_);
    if (last == 0) return (num_blocks_ + 1) / 2;
    return MaybeSpillAfter(last, num_blocks_);
  }
  const int leaf = calibrator_.LeafOf(successor_block);
  if (calibrator_.MinKeyOf(leaf) <= key) return successor_block;
  // The key precedes everything in successor_block: it belongs with its
  // predecessor record's block when one exists.
  const Address predecessor_block =
      calibrator_.LastNonEmptyPageIn(1, successor_block - 1);
  if (predecessor_block == 0) return successor_block;
  return MaybeSpillAfter(predecessor_block, successor_block - 1);
}

Address ControlBase::MaybeSpillAfter(Address block, Address limit) const {
  if (!smart_placement_) return block;
  // The new key follows every record in `block`; an empty block right
  // after it (but before `limit`) is an equally legal home. Taking it
  // whenever the insert would push `block` into the warning band g(v,2/3)
  // spares the maintenance machinery an activation.
  const int leaf = calibrator_.LeafOf(block);
  if (!logical_spec_.DensityAtLeast(calibrator_.Count(leaf) + 1,
                                    calibrator_.PagesIn(leaf),
                                    calibrator_.Depth(leaf), kThirds2Of3)) {
    return block;
  }
  if (block + 1 <= limit &&
      calibrator_.Count(calibrator_.LeafOf(block + 1)) == 0) {
    return block + 1;
  }
  return block;
}

StatusOr<Record> ControlBase::Get(Key key) {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return Status::NotFound("key absent");
  // The probe is charged as ReadBlock charges a block: every used page,
  // in order. Each page is searched where it lies — the pool frame or
  // the page TryRead returned — and only the hit is copied out.
  const int64_t used = PagesUsed(calibrator_.Count(calibrator_.LeafOf(block)));
  const Address first = FirstPhysicalPage(block);
  Page scratch;
  Record hit{0, 0};
  bool found = false;
  for (int64_t i = 0; i < used; ++i) {
    if (pool_ != nullptr) {
      StatusOr<bool> in_page = pool_->Find(first + i, key, &hit);
      DSF_RETURN_IF_ERROR(in_page.status());
      found = found || *in_page;
    } else {
      StatusOr<const Page*> p = file_.TryRead(first + i, &scratch);
      DSF_RETURN_IF_ERROR(p.status());
      StatusOr<Record> r = (*p)->Find(key);
      if (r.ok()) {
        hit = *r;
        found = true;
      }
    }
  }
  if (!found) return Status::NotFound("key absent");
  return hit;
}

bool ControlBase::Contains(Key key) { return Get(key).ok(); }

StatusOr<bool> ControlBase::PeekContains(Key key, Value* value) const {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return false;
  const int leaf = calibrator_.LeafOf(block);
  const int64_t used = PagesUsed(calibrator_.Count(leaf));
  const Address first = FirstPhysicalPage(block);
  Page scratch;
  for (int64_t i = 0; i < used; ++i) {
    StatusOr<const Page*> loaded = PeekLogical(first + i, &scratch);
    DSF_RETURN_IF_ERROR(loaded.status());
    const Page& page = **loaded;
    if (page.empty() || page.MaxKey() < key) continue;
    if (page.MinKey() > key) return false;
    StatusOr<Record> r = page.Find(key);
    if (!r.ok()) return false;
    if (value != nullptr) *value = r->value;
    return true;
  }
  return false;
}

Status ControlBase::Scan(Key lo, Key hi, std::vector<Record>* out) {
  DSF_CHECK(out != nullptr) << "Scan output vector is null";
  if (lo > hi) return Status::OK();
  Address block = calibrator_.FirstNonEmptyPageWithMaxGE(lo);
  if (block == 0) return Status::OK();
  // Reserve once from the calibrator's aggregates instead of growing the
  // vector by doubling while appending. The touched blocks are [block,
  // last]: `last` is the first block whose max key reaches hi (blocks
  // after it hold only keys > hi), or the end of the file when hi is
  // beyond every stored key. CountInRange over that span is an upper
  // bound on the result size — exact except for the boundary records
  // below lo / above hi in the two edge blocks.
  Address last = calibrator_.FirstNonEmptyPageWithMaxGE(hi);
  if (last == 0) last = num_blocks_;
  out->reserve(out->size() +
               static_cast<size_t>(calibrator_.CountInRange(block, last)));
  for (; block <= num_blocks_; ++block) {
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) == 0) continue;
    if (calibrator_.MinKeyOf(leaf) > hi) break;
    StatusOr<std::vector<Record>> records = ReadBlock(block);
    DSF_RETURN_IF_ERROR(records.status());
    for (const Record& r : *records) {
      if (r.key < lo) continue;
      if (r.key > hi) return Status::OK();
      out->push_back(r);
    }
  }
  return Status::OK();
}

StatusOr<std::vector<Record>> ControlBase::ScanAll() {
  std::vector<Record> out;
  DSF_RETURN_IF_ERROR(Scan(0, std::numeric_limits<Key>::max(), &out));
  return out;
}

Cursor ControlBase::NewCursor(Key start) { return Cursor(this, start); }

StatusOr<int64_t> ControlBase::DeleteRange(Key lo, Key hi) {
  if (lo > hi) return static_cast<int64_t>(0);
  BeginCommand(CommandKind::kRange);
  int64_t removed = 0;
  Address first_touched = 0;
  Address last_touched = 0;
  Address block = calibrator_.FirstNonEmptyPageWithMaxGE(lo);
  while (block != 0 && block <= num_blocks_) {
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) == 0 || calibrator_.MinKeyOf(leaf) > hi) {
      break;
    }
    StatusOr<std::vector<Record>> read = ReadBlock(block);
    if (!read.ok()) {
      if (removed > 0) AfterRangeDeletion(first_touched, last_touched);
      return EndCommand(read.status());
    }
    std::vector<Record>& records = *read;
    const auto begin = std::lower_bound(records.begin(), records.end(),
                                        Record{lo, 0}, RecordKeyLess);
    const auto end = std::upper_bound(records.begin(), records.end(),
                                      Record{hi, 0}, RecordKeyLess);
    if (begin != end) {
      removed += end - begin;
      records.erase(begin, end);
      const Status s = WriteBlock(block, records);
      if (first_touched == 0) first_touched = block;
      last_touched = block;
      if (!s.ok()) {
        AfterRangeDeletion(first_touched, last_touched);
        return EndCommand(s);
      }
    }
    block = calibrator_.FirstNonEmptyPageIn(block + 1, num_blocks_);
  }
  if (removed > 0) AfterRangeDeletion(first_touched, last_touched);
  DSF_RETURN_IF_ERROR(EndCommand());
  return removed;
}

Status ControlBase::RedistributeRangeCrashSafe(Address lo, Address hi) {
  DSF_DCHECK(lo >= 1 && hi <= num_blocks_ && lo <= hi)
      << "redistribution range [" << lo << "," << hi << "] invalid";
  const int64_t range_blocks = hi - lo + 1;
  if (m_redistributions_ != nullptr) m_redistributions_->Increment();
  if (m_redistribution_blocks_ != nullptr) {
    m_redistribution_blocks_->Observe(range_blocks);
  }
  const IoStats span_start = file_.stats();

  // One scratch buffer for the whole reorganization: the read pass
  // appends into it, both write passes hand page-sized slices straight
  // to the pages, and batched SyncLeaves refresh the calibrator.
  std::vector<Record> all;
  for (Address b = calibrator_.FirstNonEmptyPageIn(lo, hi); b != 0;
       b = calibrator_.FirstNonEmptyPageIn(b + 1, hi)) {
    const Status s = ReadBlockInto(b, &all);
    if (!s.ok()) {  // nothing written yet: clean abort
      RecordSpan(SpanKind::kRedistribution, lo, hi,
                 file_.stats() - span_start);
      return s;
    }
  }
  const int64_t n = static_cast<int64_t>(all.size());
  const int64_t capacity = block_size_ * page_D_;

  // Pass 1 — pack left. Block lo takes the first D# records, lo+1 the
  // next D#, and so on. For every block the packed layout ends at or
  // after the old layout's end (records only move left across blocks),
  // so writing blocks left-to-right — with pages inside each block
  // left-to-right, since intra-block content also moves left — never
  // overwrites a record whose new home has not been written yet.
  {
    std::vector<Calibrator::LeafUpdate> leaves;
    leaves.reserve(static_cast<size_t>(range_blocks));
    Status fault = Status::OK();
    int64_t offset = 0;
    for (Address block = lo; block <= hi; ++block) {
      const int64_t end = std::min(n, offset + capacity);
      const Record* b = all.data() + offset;
      const Record* e = all.data() + end;
      fault = WriteBlockPages(block, b, e, BlockWriteOrder::kForward);
      if (!fault.ok()) break;
      leaves.push_back(MakeLeafUpdate(b, e));
      offset = end;
    }
    if (!fault.ok()) {
      IgnoreStatus(ResyncRangeFromRaw(lo, hi));  // the fault wins
      RecordSpan(SpanKind::kRedistribution, lo, hi,
                 file_.stats() - span_start);
      return fault;
    }
    calibrator_.SyncLeaves(lo, leaves);
  }

  // Durability point between the passes, unpooled: every record's packed
  // copy is on the device before the spread starts destroying packed
  // positions. (A no-op without a storage backend.) Pooled, both passes
  // write frames that reach the device later in the pool's dirty order,
  // so a barrier here would order nothing and cost an fdatasync whenever
  // an eviction or a rule-3 flush wrote back mid-command.
  if (pool_ == nullptr) {
    const Status sync = file_.SyncBarrier();
    if (!sync.ok()) {
      RecordSpan(SpanKind::kRedistribution, lo, hi,
                 file_.stats() - span_start);
      return sync;
    }
  }

  // Pass 2 — spread right. The uniform layout never places a record to
  // the left of its packed position, so writing blocks right-to-left —
  // pages inside each block right-to-left, intra-block content moving
  // right as well — duplicates each record into its final home before
  // its packed copy is destroyed.
  {
    std::vector<Calibrator::LeafUpdate> leaves(
        static_cast<size_t>(range_blocks));
    Status fault = Status::OK();
    for (Address block = hi; block >= lo; --block) {
      const int64_t idx = block - lo;
      const Record* b = all.data() + idx * n / range_blocks;
      const Record* e = all.data() + (idx + 1) * n / range_blocks;
      fault = WriteBlockPages(block, b, e, BlockWriteOrder::kBackward);
      if (!fault.ok()) break;
      leaves[static_cast<size_t>(idx)] = MakeLeafUpdate(b, e);
    }
    if (!fault.ok()) {
      IgnoreStatus(ResyncRangeFromRaw(lo, hi));  // the fault wins
      RecordSpan(SpanKind::kRedistribution, lo, hi,
                 file_.stats() - span_start);
      return fault;
    }
    calibrator_.SyncLeaves(lo, leaves);
  }
  RecordSpan(SpanKind::kRedistribution, lo, hi, file_.stats() - span_start);
  return Status::OK();
}

Status ControlBase::Compact() {
  BeginCommand(CommandKind::kCompact);
  const Status s = RedistributeRangeCrashSafe(1, num_blocks_);
  if (!s.ok()) {
    return EndCommand(s);
  }
  AfterWholesaleReorganization();
  return EndCommand();
}

StatusOr<RepairReport> ControlBase::CheckAndRepair() {
  RepairReport report;

  // Recovery works from device truth. A live pooled file first tries to
  // land its dirty frames (best effort — with an active fault the writes
  // may be refused), then drops the cache entirely: whatever could not
  // be flushed is treated exactly like RAM lost in a crash. Post-crash
  // callers have already called DiscardCache(), making this a no-op.
  if (pool_ != nullptr) {
    (void)pool_->FlushAll();
    pool_->DropAll();
  }
  // Recovery re-establishes per-command durability; any drain window
  // that was open when the fault hit is over.
  defer_flush_ = false;

  // Phase 1 — CHECK. One unaccounted pass over the device (recovery is
  // an offline scan, outside the per-command cost model). Gather
  // per-block truth and look for crash damage: torn slots, overfull
  // pages, blocks not packed into a page prefix, broken global order or
  // torn-shift duplicates, stale calibrator leaves.
  std::vector<Calibrator::LeafUpdate> leaves(
      static_cast<size_t>(num_blocks_));
  bool content_clean = true;
  bool have_prev = false;
  Key prev_max = 0;
  Page scratch;
  for (Address block = 1; block <= num_blocks_; ++block) {
    ++report.blocks_scanned;
    Calibrator::LeafUpdate& u = leaves[static_cast<size_t>(block - 1)];
    const Address first = FirstPhysicalPage(block);
    bool saw_empty = false;
    bool block_ordered = true;
    for (int64_t i = 0; i < block_size_; ++i) {
      // lint:allow(raw-page-io): recovery reads the device unaccounted.
      StatusOr<const Page*> loaded = file_.RawRead(first + i, &scratch);
      if (!loaded.ok()) {
        if (!loaded.status().IsIoError()) return loaded.status();
        // A torn or corrupt slot: its records are lost. Quarantine it
        // durably — rewrite it empty — so the next open reads a valid
        // slot instead of tripping on the same checksum again; the
        // cheap path below never rewrites pages, so detection itself
        // must persist the verdict (the final barrier makes it durable).
        // lint:allow(raw-page-io): quarantine is recovery bookkeeping.
        DSF_RETURN_IF_ERROR(file_.RawWrite(first + i, nullptr, nullptr));
        report.corrupt_pages.push_back(first + i);
        saw_empty = true;
        continue;
      }
      const Page& page = **loaded;
      if (page.empty()) {
        saw_empty = true;
        continue;
      }
      if (saw_empty) {
        ++report.packing_violations;
        content_clean = false;
        saw_empty = false;
      }
      if (page.size() > page_D_) {
        ++report.overfull_pages;
        content_clean = false;
      }
      if (!page.WellFormed()) block_ordered = false;
      for (const Record& r : page.records()) {
        if (have_prev && r.key <= prev_max) block_ordered = false;
        prev_max = r.key;
        have_prev = true;
        if (u.count == 0 || r.key < u.min_key) u.min_key = r.key;
        if (u.count == 0 || r.key > u.max_key) u.max_key = r.key;
        ++u.count;
      }
    }
    if (!block_ordered) {
      ++report.misordered_blocks;
      content_clean = false;
    }
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) != u.count ||
        (u.count > 0 && (calibrator_.MinKeyOf(leaf) != u.min_key ||
                         calibrator_.MaxKeyOf(leaf) != u.max_key))) {
      ++report.calibrator_resyncs;
    }
  }

  if (content_clean) {
    // Cheap path: the records on the device are intact; only in-memory
    // state (rank counters, fence keys, warning flags) needs rebuilding.
    calibrator_.SyncLeaves(1, leaves);
    AfterWholesaleReorganization();
    report.warning_state_rebuilt = true;
    // Nothing was rewritten except quarantined slots, which the barrier
    // makes durable (a cheap no-op when there were none). The check pass
    // above already established I2, I3 and packing, and SyncLeaves made
    // the leaves mirror the blocks (I5), so only the in-memory checks
    // remain: re-walking the pages would read the device a second time.
    if (ValidateInMemory().ok()) {
      DSF_RETURN_IF_ERROR(file_.SyncBarrier());
      return report;
    }
    // Ordered and duplicate-free but structurally unacceptable (e.g. a
    // crash mid-redistribution left a packed prefix that breaches
    // BALANCE(d,D)): fall through to the wholesale rewrite.
  }

  // Phase 2 — wholesale REPAIR. Gather every surviving record in address
  // order, sort stably by key and drop adjacent duplicates, keeping the
  // first copy. The write-ordering invariants (dest-before-source shifts,
  // pack-then-spread redistribution; docs/FAULTS.md) guarantee duplicate
  // copies of a key carry identical payloads, so which copy survives is
  // immaterial. Then rewrite at uniform density — Theorem 5.5's initial
  // condition — unaccounted: recovery I/O is offline.
  std::vector<Record> all;
  for (Address p = 1; p <= file_.num_pages(); ++p) {
    // lint:allow(raw-page-io): recovery reads the device unaccounted.
    StatusOr<const Page*> loaded = file_.RawRead(p, &scratch);
    DSF_RETURN_IF_ERROR(loaded.status());
    all.insert(all.end(), (*loaded)->records().begin(),
               (*loaded)->records().end());
  }
  std::stable_sort(all.begin(), all.end(), RecordKeyLess);
  const auto unique_end =
      std::unique(all.begin(), all.end(), [](const Record& a, const Record& b) {
        return a.key == b.key;
      });
  report.duplicate_records_dropped = all.end() - unique_end;
  all.erase(unique_end, all.end());

  const int64_t n = static_cast<int64_t>(all.size());
  int64_t offset = 0;
  for (Address block = 1; block <= num_blocks_; ++block) {
    const int64_t end = block * n / num_blocks_;
    const Record* blo = all.data() + offset;
    const Record* bhi = all.data() + end;
    DSF_RETURN_IF_ERROR(LayOutBlock(block, blo, bhi));
    leaves[static_cast<size_t>(block - 1)] = MakeLeafUpdate(blo, bhi);
    offset = end;
  }
  calibrator_.SyncLeaves(1, leaves);
  AfterWholesaleReorganization();
  report.rewrote_file = true;
  report.warning_state_rebuilt = true;
  DSF_RETURN_IF_ERROR(ValidateInvariants());
  // The repaired image must be durable before the file serves commands
  // again — a second crash must reopen to the repaired state, not to
  // the damage this pass just fixed.
  DSF_RETURN_IF_ERROR(file_.SyncBarrier());
  return report;
}

double ControlBase::ScanEfficiency() const {
  int64_t pages_touched = 0;
  for (Address b = 1; b <= num_blocks_; ++b) {
    pages_touched += PagesUsed(calibrator_.Count(calibrator_.LeafOf(b)));
  }
  if (pages_touched == 0) return 0.0;
  return static_cast<double>(size()) / static_cast<double>(pages_touched);
}

void ControlBase::SetObservability(MetricsRegistry* metrics,
                                   CommandTracer* tracer,
                                   BoundCertifier* certifier,
                                   const std::string& label) {
  metrics_ = metrics;
  tracer_ = tracer;
  certifier_ = certifier;
  metrics_label_ = label;
  m_commands_ = nullptr;
  m_command_accesses_ = nullptr;
  m_redistributions_ = nullptr;
  m_redistribution_blocks_ = nullptr;
  if (metrics != nullptr) {
    m_commands_ = metrics->FindOrCreateCounter(kMetricCommands, label);
    m_command_accesses_ =
        metrics->FindOrCreateHistogram(kMetricCommandAccesses, label);
    m_redistributions_ =
        metrics->FindOrCreateCounter(kMetricRedistributions, label);
    m_redistribution_blocks_ =
        metrics->FindOrCreateHistogram(kMetricRedistributionBlocks, label);
  }
  if (certifier != nullptr) {
    certifier->set_violations_counter(
        metrics == nullptr
            ? nullptr
            : metrics->FindOrCreateCounter(kMetricBoundViolations, label));
  }
  if (pool_ != nullptr) {
    if (metrics == nullptr) {
      pool_->SetMetrics(nullptr, nullptr, nullptr, nullptr);
    } else {
      pool_->SetMetrics(
          metrics->FindOrCreateCounter(kMetricPoolHits, label),
          metrics->FindOrCreateCounter(kMetricPoolMisses, label),
          metrics->FindOrCreateCounter(kMetricPoolWritebacks, label),
          metrics->FindOrCreateHistogram(kMetricPoolFlushRunLength, label));
    }
  }
}

void ControlBase::RecordSpan(SpanKind kind, int64_t a, int64_t b,
                             const IoStats& io) {
  if (tracer_ == nullptr) return;
  SpanEvent event;
  event.kind = kind;
  event.seq = command_seq_;
  event.a = a;
  event.b = b;
  event.io = io;
  tracer_->Record(event);
}

void ControlBase::BeginCommand(CommandKind kind) {
  DSF_DCHECK(!in_command_) << "nested command";
  in_command_ = true;
  command_kind_ = kind;
  command_seq_ = command_stats_.commands;
  command_start_stats_ = file_.stats();
}

Status ControlBase::EndCommand() {
  DSF_DCHECK(in_command_) << "EndCommand without BeginCommand";
  in_command_ = false;
  // Flush before the cost snapshot so write-back I/O is charged to the
  // command that dirtied the frames. Command-granularity durability: on
  // return from a successful command, the device holds it in full, so a
  // crash leaves at most the in-flight command unflushed.
  Status flush = Status::OK();
  if (pool_ != nullptr && !defer_flush_) {
    const IoStats pre_flush = file_.stats();
    const BufferPool::Stats pre_pool = pool_->stats();
    flush = pool_->FlushAll();
    if (tracer_ != nullptr) {
      const BufferPool::Stats post_pool = pool_->stats();
      RecordSpan(SpanKind::kFlush,
                 post_pool.flushed_pages - pre_pool.flushed_pages,
                 post_pool.flush_runs - pre_pool.flush_runs,
                 file_.stats() - pre_flush);
    }
  }
  // Command-granularity durability extends to the storage backend: the
  // device write-back above (or the command's direct writes) must be
  // persistent before the command reports success. During a deferred
  // window the barrier moves to EndFlushDeferral with the flush.
  if (!defer_flush_) {
    const Status sync = file_.SyncBarrier();
    if (flush.ok()) flush = sync;
  }
  const IoStats delta = file_.stats() - command_start_stats_;
  const int64_t used = delta.TotalAccesses();
  ++command_stats_.commands;
  command_stats_.last_command_accesses = used;
  command_stats_.max_command_accesses =
      std::max(command_stats_.max_command_accesses, used);
  command_stats_.total_accesses += used;
  if (m_commands_ != nullptr) m_commands_->Increment();
  if (m_command_accesses_ != nullptr) m_command_accesses_->Observe(used);
  // The certifier watches *logical* accesses: what the algorithm asked
  // for, independent of cache absorption (see obs/bound_certifier.h).
  if (certifier_ != nullptr) {
    certifier_->Observe(command_kind_, delta.TotalLogical());
  }
  RecordSpan(SpanKind::kCommand, static_cast<int64_t>(command_kind_),
             flush.ok() ? 1 : 0, delta);
  return flush;
}

Status ControlBase::EndCommand(const Status& command_status) {
  const Status flush = EndCommand();
  if (!command_status.ok()) return command_status;
  return flush;
}

Status ControlBase::EndFlushDeferral() {
  defer_flush_ = false;
  if (pool_ == nullptr) return file_.SyncBarrier();
  // Same flush-and-trace shape as EndCommand's per-command flush, run
  // once for the whole deferred window.
  const IoStats pre_flush = file_.stats();
  const BufferPool::Stats pre_pool = pool_->stats();
  Status flush = pool_->FlushAll();
  if (tracer_ != nullptr) {
    const BufferPool::Stats post_pool = pool_->stats();
    RecordSpan(SpanKind::kFlush,
               post_pool.flushed_pages - pre_pool.flushed_pages,
               post_pool.flush_runs - pre_pool.flush_runs,
               file_.stats() - pre_flush);
  }
  const Status sync = file_.SyncBarrier();
  if (flush.ok()) flush = sync;
  return flush;
}

void ControlBase::ResetCommandStats() { command_stats_ = CommandStats(); }

Status ControlBase::ValidateBalance() const {
  for (int v = 0; v < calibrator_.node_count(); ++v) {
    if (!logical_spec_.DensityAtMost(calibrator_.Count(v),
                                     calibrator_.PagesIn(v),
                                     calibrator_.Depth(v), kThirds1)) {
      return Status::Corruption(
          "BALANCE(d,D) violated at node " + std::to_string(v) + ": N=" +
          std::to_string(calibrator_.Count(v)) + " over " +
          std::to_string(calibrator_.PagesIn(v)) + " blocks at depth " +
          std::to_string(calibrator_.Depth(v)));
    }
  }
  return Status::OK();
}

Status ControlBase::ValidateInvariants() const {
  DSF_RETURN_IF_ERROR(ValidatePages());
  return ValidateInMemory();
}

Status ControlBase::ValidateInMemory() const {
  // I1: cardinality bound.
  if (calibrator_.TotalRecords() > MaxRecords()) {
    return Status::Corruption("file exceeds N = d*M records");
  }
  return calibrator_.ValidateAggregates();
}

Status ControlBase::ValidatePages() const {
  // One walk over the logical view checks every page for I2 (no page
  // above D records outside a command) and I3 (global key order), and
  // every block for I5 (calibrator leaves mirror the true block
  // contents, and each block is packed into a prefix of its pages).
  // Pooled, the logical view (dirty frames over device pages) is what
  // must hold; the device may lag by the unflushed tail of the in-flight
  // command.
  Page scratch;
  bool have_previous = false;
  Key previous_max = 0;
  for (Address block = 1; block <= num_blocks_; ++block) {
    const Address first = FirstPhysicalPage(block);
    int64_t count = 0;
    Key min_key = 0;
    Key max_key = 0;
    bool saw_empty = false;
    for (int64_t i = 0; i < block_size_; ++i) {
      StatusOr<const Page*> loaded = PeekLogical(first + i, &scratch);
      DSF_RETURN_IF_ERROR(loaded.status());
      const Page& page = **loaded;
      if (page.size() > page_D_) {
        return Status::Corruption("page " + std::to_string(first + i) +
                                  " holds more than D records");
      }
      if (!page.WellFormed() ||
          (have_previous && !page.empty() && page.MinKey() <= previous_max)) {
        return Status::Corruption("records out of sequential order");
      }
      if (page.empty()) {
        saw_empty = true;
        continue;
      }
      if (saw_empty) {
        return Status::Corruption("block " + std::to_string(block) +
                                  " is not prefix-packed");
      }
      previous_max = page.MaxKey();
      have_previous = true;
      if (count == 0) min_key = page.MinKey();
      max_key = page.MaxKey();
      count += page.size();
    }
    const int leaf = calibrator_.LeafOf(block);
    if (calibrator_.Count(leaf) != count) {
      return Status::Corruption("rank counter stale for block " +
                                std::to_string(block));
    }
    if (count > 0 && (calibrator_.MinKeyOf(leaf) != min_key ||
                      calibrator_.MaxKeyOf(leaf) != max_key)) {
      return Status::Corruption("fence keys stale for block " +
                                std::to_string(block));
    }
  }
  return Status::OK();
}

Status ControlBase::BulkLoad(const std::vector<Record>& records) {
  const int64_t n = static_cast<int64_t>(records.size());
  if (n > MaxRecords()) {
    return Status::CapacityExceeded("bulk load exceeds N = d*M records");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "bulk load records must be strictly ascending by key");
    }
  }
  // The load writes the device directly; stale cached frames would
  // shadow it.
  DiscardCache();
  // Uniform-density spread (Theorem 5.5's initial condition): block j of
  // B gets floor((j+1)n/B) - floor(jn/B) records, so any aligned range is
  // within one record per block of the global average.
  std::vector<Calibrator::LeafUpdate> leaves;
  leaves.reserve(static_cast<size_t>(num_blocks_));
  int64_t offset = 0;
  for (Address block = 1; block <= num_blocks_; ++block) {
    const int64_t end = block * n / num_blocks_;
    const Record* lo = records.data() + offset;
    const Record* hi = records.data() + end;
    // Lay out unaccounted: loading is setup, not a measured command.
    DSF_RETURN_IF_ERROR(LayOutBlock(block, lo, hi));
    leaves.push_back(MakeLeafUpdate(lo, hi));
    offset = end;
  }
  calibrator_.SyncLeaves(1, leaves);
  // Make the load durable before handing the file to commands; the
  // stats reset below keeps setup I/O out of the measured counters.
  DSF_RETURN_IF_ERROR(file_.SyncBarrier());
  file_.ResetStats();
  ResetCommandStats();
  AfterBulkLoad();
  return Status::OK();
}

Status ControlBase::LoadLayout(const std::vector<std::vector<Record>>& per_block) {
  if (static_cast<int64_t>(per_block.size()) != num_blocks_) {
    return Status::InvalidArgument("LoadLayout needs one entry per block");
  }
  int64_t total = 0;
  bool have_prev = false;
  Key prev = 0;
  for (const auto& block : per_block) {
    if (static_cast<int64_t>(block.size()) > block_size_ * page_D_) {
      return Status::InvalidArgument("block exceeds D# records");
    }
    total += static_cast<int64_t>(block.size());
    for (const Record& r : block) {
      if (have_prev && r.key <= prev) {
        return Status::InvalidArgument("LoadLayout keys must ascend");
      }
      prev = r.key;
      have_prev = true;
    }
  }
  if (total > MaxRecords()) {
    return Status::CapacityExceeded("LoadLayout exceeds N = d*M records");
  }
  DiscardCache();
  std::vector<Calibrator::LeafUpdate> leaves;
  leaves.reserve(static_cast<size_t>(num_blocks_));
  for (Address block = 1; block <= num_blocks_; ++block) {
    const std::vector<Record>& slice =
        per_block[static_cast<size_t>(block - 1)];
    const Record* lo = slice.data();
    const Record* hi = slice.data() + slice.size();
    DSF_RETURN_IF_ERROR(LayOutBlock(block, lo, hi));
    leaves.push_back(MakeLeafUpdate(lo, hi));
  }
  calibrator_.SyncLeaves(1, leaves);
  // Make the load durable before handing the file to commands; the
  // stats reset below keeps setup I/O out of the measured counters.
  DSF_RETURN_IF_ERROR(file_.SyncBarrier());
  file_.ResetStats();
  ResetCommandStats();
  AfterBulkLoad();
  return Status::OK();
}

}  // namespace dsf
