#include "analysis/auditor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/calibrator.h"
#include "core/control2.h"
#include "core/control_base.h"
#include "core/density.h"
#include "ingest/memtable.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace dsf {

const char* AuditViolationKindToString(AuditViolationKind kind) {
  switch (kind) {
    case AuditViolationKind::kCapacityExceeded:
      return "CapacityExceeded";
    case AuditViolationKind::kPageOverflow:
      return "PageOverflow";
    case AuditViolationKind::kPageMalformed:
      return "PageMalformed";
    case AuditViolationKind::kPageUnreadable:
      return "PageUnreadable";
    case AuditViolationKind::kGlobalOrderViolation:
      return "GlobalOrderViolation";
    case AuditViolationKind::kBlockNotPrefixPacked:
      return "BlockNotPrefixPacked";
    case AuditViolationKind::kRankCounterStale:
      return "RankCounterStale";
    case AuditViolationKind::kFenceKeysStale:
      return "FenceKeysStale";
    case AuditViolationKind::kAggregateMismatch:
      return "AggregateMismatch";
    case AuditViolationKind::kBalanceViolation:
      return "BalanceViolation";
    case AuditViolationKind::kWarningStale:
      return "WarningStale";
    case AuditViolationKind::kWarningMissing:
      return "WarningMissing";
    case AuditViolationKind::kRootWarning:
      return "RootWarning";
    case AuditViolationKind::kDestOutOfRange:
      return "DestOutOfRange";
    case AuditViolationKind::kSelectAggregateStale:
      return "SelectAggregateStale";
    case AuditViolationKind::kDirtyOrderViolation:
      return "DirtyOrderViolation";
    case AuditViolationKind::kDirtyListCorrupt:
      return "DirtyListCorrupt";
    case AuditViolationKind::kFrameAliasing:
      return "FrameAliasing";
    case AuditViolationKind::kFrameDirectoryMismatch:
      return "FrameDirectoryMismatch";
    case AuditViolationKind::kShardBoundaryViolation:
      return "ShardBoundaryViolation";
    case AuditViolationKind::kStagingOrderViolation:
      return "StagingOrderViolation";
    case AuditViolationKind::kStagingOverCapacity:
      return "StagingOverCapacity";
    case AuditViolationKind::kStagingDuplicateOfFile:
      return "StagingDuplicateOfFile";
    case AuditViolationKind::kStagingTombstoneOrphan:
      return "StagingTombstoneOrphan";
  }
  return "Unknown";
}

std::string AuditViolation::ToString() const {
  std::ostringstream os;
  os << AuditViolationKindToString(kind);
  if (shard >= 0) os << " shard=" << shard;
  if (page != 0) os << " page=" << page;
  if (block != 0) os << " block=" << block;
  if (node >= 0) os << " node=" << node;
  if (expected != 0 || found != 0) {
    os << " expected=" << expected << " found=" << found;
  }
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

bool AuditReport::Has(AuditViolationKind kind) const {
  return Find(kind) != nullptr;
}

const AuditViolation* AuditReport::Find(AuditViolationKind kind) const {
  for (const AuditViolation& v : violations) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

Status AuditReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::Corruption(
      "audit found " + std::to_string(violations.size()) +
      " violation(s), first: " + violations.front().ToString());
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << "audit: " << checks_run << " checks over " << pages_walked
     << " pages, " << violations.size() << " violation(s)";
  for (const AuditViolation& v : violations) {
    os << "\n  " << v.ToString();
  }
  return os.str();
}

void AuditReport::Merge(AuditReport other, int shard) {
  for (AuditViolation& v : other.violations) {
    v.shard = shard;
    violations.push_back(std::move(v));
  }
  checks_run += other.checks_run;
  pages_walked += other.pages_walked;
}

namespace {

// Collects violations and counts predicate evaluations. Check() is the
// single funnel: one call = one checks_run tick, a failing call appends
// the (location-stamped) violation the caller prepared.
class Collector {
 public:
  explicit Collector(AuditReport* report) : report_(report) {}

  void Check(bool holds, AuditViolation violation) {
    ++report_->checks_run;
    if (!holds) report_->violations.push_back(std::move(violation));
  }

 private:
  AuditReport* report_;
};

AuditViolation Make(AuditViolationKind kind) {
  AuditViolation v;
  v.kind = kind;
  return v;
}

// Physical truth for one block, derived from the logical page view.
struct BlockFacts {
  int64_t count = 0;
  Key min_key = 0;
  Key max_key = 0;
};

void AuditPoolInternal(const BufferPool& pool, AuditReport* report) {
  Collector check(report);
  const std::vector<BufferPool::FrameInfo> frames = pool.AuditFrames();
  const std::vector<int64_t> dirty_order = pool.DirtyOrderForAudit();
  const int64_t n = static_cast<int64_t>(frames.size());

  // No two frames may cache the same page, and the resident directory
  // must mirror exactly the frames that hold a page.
  std::unordered_set<Address> seen;
  int64_t occupied = 0;
  for (int64_t i = 0; i < n; ++i) {
    const BufferPool::FrameInfo& f = frames[static_cast<size_t>(i)];
    if (f.address == 0) continue;
    ++occupied;
    {
      AuditViolation v = Make(AuditViolationKind::kFrameAliasing);
      v.page = f.address;
      v.detail = "frame " + std::to_string(i);
      check.Check(seen.insert(f.address).second, std::move(v));
    }
    {
      AuditViolation v = Make(AuditViolationKind::kFrameDirectoryMismatch);
      v.page = f.address;
      v.detail = "frame " + std::to_string(i) + " not in resident map";
      check.Check(pool.PeekFrame(f.address) != nullptr, std::move(v));
    }
  }
  {
    AuditViolation v = Make(AuditViolationKind::kFrameDirectoryMismatch);
    v.expected = occupied;
    v.found = pool.resident_pages();
    v.detail = "resident map size vs occupied frames";
    check.Check(pool.resident_pages() == occupied, std::move(v));
  }

  // The dirty-order list L: every entry a distinct, genuinely dirty
  // frame; every dirty frame present; entries in the order the frames
  // first became dirty (strictly increasing dirty_seq). This is the
  // ordering crash recovery leans on (buffer_pool.h rules 1-3).
  std::unordered_set<int64_t> listed;
  int64_t previous_seq = -1;
  Address previous_page = 0;
  for (const int64_t frame : dirty_order) {
    const bool in_range = frame >= 0 && frame < n;
    {
      AuditViolation v = Make(AuditViolationKind::kDirtyListCorrupt);
      v.found = frame;
      v.detail = "dirty list entry outside frame table";
      check.Check(in_range, std::move(v));
    }
    if (!in_range) continue;
    const BufferPool::FrameInfo& f = frames[static_cast<size_t>(frame)];
    {
      AuditViolation v = Make(AuditViolationKind::kDirtyListCorrupt);
      v.page = f.address;
      v.detail = "dirty list entry repeated: frame " + std::to_string(frame);
      check.Check(listed.insert(frame).second, std::move(v));
    }
    {
      AuditViolation v = Make(AuditViolationKind::kDirtyListCorrupt);
      v.page = f.address;
      v.detail = "listed frame " + std::to_string(frame) + " is not dirty";
      check.Check(f.dirty, std::move(v));
    }
    {
      AuditViolation v = Make(AuditViolationKind::kDirtyOrderViolation);
      v.page = f.address;
      v.expected = previous_seq;
      v.found = f.dirty_seq;
      v.detail = "dirtied before page " + std::to_string(previous_page) +
                 " but listed after it";
      check.Check(f.dirty_seq > previous_seq, std::move(v));
    }
    previous_seq = f.dirty_seq;
    previous_page = f.address;
  }
  for (int64_t i = 0; i < n; ++i) {
    const BufferPool::FrameInfo& f = frames[static_cast<size_t>(i)];
    AuditViolation v = Make(AuditViolationKind::kDirtyListCorrupt);
    v.page = f.address;
    v.detail = "dirty frame " + std::to_string(i) + " missing from list";
    check.Check(!f.dirty || listed.count(i) > 0, std::move(v));
  }
}

void AuditControl2State(const Control2& control,
                        const std::vector<int64_t>& true_count,
                        AuditReport* report) {
  Collector check(report);
  const Calibrator& calibrator = control.calibrator();
  const DensitySpec& spec = control.logical_spec();
  // The ablation knobs weaken Fact 5.1 by design; only the paper's
  // algorithm promises it (mirrors Control2::ValidateInMemory).
  const bool paper_faithful =
      !control.options().disable_rollback_for_testing &&
      control.options().lower_threshold_thirds == kThirds1Of3;

  for (int v = 0; v < calibrator.node_count(); ++v) {
    const int64_t count = true_count[static_cast<size_t>(v)];
    const int64_t pages = calibrator.PagesIn(v);
    const int64_t depth = calibrator.Depth(v);
    const bool warns = control.warning(v);
    if (paper_faithful) {
      {
        // Fact 5.1a: a warning sticks only while p(v) > g(v,1/3).
        AuditViolation viol = Make(AuditViolationKind::kWarningStale);
        viol.node = v;
        viol.detail = "flag up but p(v) <= g(v,1/3)";
        check.Check(!warns || !spec.DensityAtMost(count, pages, depth,
                                                  kThirds1Of3),
                    std::move(viol));
      }
      if (v != calibrator.root()) {
        // Fact 5.1b: density at g(v,2/3) forces the flag up.
        AuditViolation viol = Make(AuditViolationKind::kWarningMissing);
        viol.node = v;
        viol.detail = "flag down but p(v) >= g(v,2/3)";
        check.Check(warns || !spec.DensityAtLeast(count, pages, depth,
                                                  kThirds2Of3),
                    std::move(viol));
      }
    }
    if (v == calibrator.root()) {
      AuditViolation viol = Make(AuditViolationKind::kRootWarning);
      viol.node = v;
      check.Check(!warns, std::move(viol));
    } else if (warns) {
      // DEST(v) must stay inside RANGE(father(v)) — the region SHIFT(v)
      // is entitled to move records across (Section 4).
      const int father = calibrator.Parent(v);
      const Address dest = control.dest(v);
      AuditViolation viol = Make(AuditViolationKind::kDestOutOfRange);
      viol.node = v;
      viol.found = dest;
      viol.detail = "RANGE(father) = [" +
                    std::to_string(calibrator.RangeLo(father)) + "," +
                    std::to_string(calibrator.RangeHi(father)) + "]";
      check.Check(dest >= calibrator.RangeLo(father) &&
                      dest <= calibrator.RangeHi(father),
                  std::move(viol));
    }
  }

  // SELECT's O(log M) descent reads subtree aggregates; recompute them
  // from the flags bottom-up (children carry higher ids than parents).
  for (int v = calibrator.node_count() - 1; v >= 0; --v) {
    int64_t count = control.warning(v) ? 1 : 0;
    int64_t max_depth = control.warning(v) ? calibrator.Depth(v) : -1;
    if (!calibrator.IsLeaf(v)) {
      count += control.warn_count_subtree(calibrator.Left(v)) +
               control.warn_count_subtree(calibrator.Right(v));
      max_depth =
          std::max({max_depth,
                    control.warn_max_depth_subtree(calibrator.Left(v)),
                    control.warn_max_depth_subtree(calibrator.Right(v))});
    }
    AuditViolation viol = Make(AuditViolationKind::kSelectAggregateStale);
    viol.node = v;
    viol.expected = count;
    viol.found = control.warn_count_subtree(v);
    check.Check(control.warn_count_subtree(v) == count &&
                    control.warn_max_depth_subtree(v) == max_depth,
                std::move(viol));
  }
}

}  // namespace

AuditReport Auditor::AuditPool(const BufferPool& pool) {
  AuditReport report;
  AuditPoolInternal(pool, &report);
  return report;
}

AuditReport Auditor::AuditControl(const ControlBase& control) {
  AuditReport report;
  Collector check(&report);
  const Calibrator& calibrator = control.calibrator();
  const DensitySpec& spec = control.logical_spec();
  const int64_t block_size = control.block_size();
  const int64_t page_D = control.page_D();

  // --- Physical walk: every page once, in address order. Everything
  // downstream compares against the facts gathered here, never against
  // the counters under audit.
  std::vector<BlockFacts> facts(static_cast<size_t>(control.num_blocks()));
  Key previous_key = 0;
  bool any_record = false;
  Page scratch;
  const Page unreadable;  // stands in for a page that failed to read
  for (Address block = 1; block <= control.num_blocks(); ++block) {
    BlockFacts& fact = facts[static_cast<size_t>(block - 1)];
    bool saw_empty = false;
    bool packed = true;
    for (int64_t i = 0; i < block_size; ++i) {
      const Address address = (block - 1) * block_size + 1 + i;
      StatusOr<const Page*> loaded = control.PeekLogical(address, &scratch);
      ++report.pages_walked;
      {
        AuditViolation v = Make(AuditViolationKind::kPageUnreadable);
        v.page = address;
        v.block = block;
        if (!loaded.ok()) v.detail = loaded.status().ToString();
        check.Check(loaded.ok(), std::move(v));
      }
      // An unreadable page counts as empty below; its loss shows up as
      // stale counters against the calibrator.
      const Page& page = loaded.ok() ? **loaded : unreadable;
      {
        AuditViolation v = Make(AuditViolationKind::kPageMalformed);
        v.page = address;
        v.block = block;
        v.detail = "records not strictly ascending within the page";
        check.Check(page.WellFormed(), std::move(v));
      }
      {
        AuditViolation v = Make(AuditViolationKind::kPageOverflow);
        v.page = address;
        v.block = block;
        v.expected = page_D;
        v.found = page.size();
        check.Check(page.size() <= page_D, std::move(v));
      }
      if (page.empty()) {
        saw_empty = true;
        continue;
      }
      if (saw_empty) packed = false;
      {
        AuditViolation v = Make(AuditViolationKind::kGlobalOrderViolation);
        v.page = address;
        v.block = block;
        v.detail = "page min key " + std::to_string(page.MinKey()) +
                   " not above preceding max " + std::to_string(previous_key);
        check.Check(!any_record || page.MinKey() > previous_key,
                    std::move(v));
      }
      previous_key = page.MaxKey();
      any_record = true;
      if (fact.count == 0) fact.min_key = page.MinKey();
      fact.max_key = page.MaxKey();
      fact.count += page.size();
    }
    AuditViolation v = Make(AuditViolationKind::kBlockNotPrefixPacked);
    v.block = block;
    check.Check(packed, std::move(v));
  }

  // --- Calibrator vs. physical truth: leaves first, then the internal
  // aggregation, then the cardinality bound off the root.
  for (Address block = 1; block <= control.num_blocks(); ++block) {
    const BlockFacts& fact = facts[static_cast<size_t>(block - 1)];
    const int leaf = calibrator.LeafOf(block);
    {
      AuditViolation v = Make(AuditViolationKind::kRankCounterStale);
      v.block = block;
      v.node = leaf;
      v.expected = fact.count;
      v.found = calibrator.Count(leaf);
      check.Check(calibrator.Count(leaf) == fact.count, std::move(v));
    }
    if (fact.count > 0) {
      AuditViolation v = Make(AuditViolationKind::kFenceKeysStale);
      v.block = block;
      v.node = leaf;
      v.detail = "physical [" + std::to_string(fact.min_key) + "," +
                 std::to_string(fact.max_key) + "] vs calibrator [" +
                 std::to_string(calibrator.MinKeyOf(leaf)) + "," +
                 std::to_string(calibrator.MaxKeyOf(leaf)) + "]";
      check.Check(calibrator.MinKeyOf(leaf) == fact.min_key &&
                      calibrator.MaxKeyOf(leaf) == fact.max_key,
                  std::move(v));
    }
  }
  for (int v = 0; v < calibrator.node_count(); ++v) {
    if (calibrator.IsLeaf(v)) continue;
    const int64_t children = calibrator.Count(calibrator.Left(v)) +
                             calibrator.Count(calibrator.Right(v));
    AuditViolation viol = Make(AuditViolationKind::kAggregateMismatch);
    viol.node = v;
    viol.expected = children;
    viol.found = calibrator.Count(v);
    check.Check(calibrator.Count(v) == children, std::move(viol));
  }
  int64_t total = 0;
  for (const BlockFacts& fact : facts) total += fact.count;
  {
    AuditViolation v = Make(AuditViolationKind::kCapacityExceeded);
    v.expected = control.MaxRecords();
    v.found = total;
    check.Check(total <= control.MaxRecords(), std::move(v));
  }

  // --- BALANCE(d,D) from physical counts: aggregate the walk's block
  // counts up the tree (children ids exceed the parent's, so one
  // descending pass suffices) and test p(v) <= g(v,1) at every node.
  std::vector<int64_t> true_count(
      static_cast<size_t>(calibrator.node_count()), 0);
  for (int v = calibrator.node_count() - 1; v >= 0; --v) {
    if (calibrator.IsLeaf(v)) {
      true_count[static_cast<size_t>(v)] =
          facts[static_cast<size_t>(calibrator.RangeLo(v) - 1)].count;
    } else {
      true_count[static_cast<size_t>(v)] =
          true_count[static_cast<size_t>(calibrator.Left(v))] +
          true_count[static_cast<size_t>(calibrator.Right(v))];
    }
  }
  for (int v = 0; v < calibrator.node_count(); ++v) {
    const int64_t count = true_count[static_cast<size_t>(v)];
    AuditViolation viol = Make(AuditViolationKind::kBalanceViolation);
    viol.node = v;
    viol.found = count;
    viol.detail = std::to_string(count) + " records over " +
                  std::to_string(calibrator.PagesIn(v)) +
                  " blocks at depth " +
                  std::to_string(calibrator.Depth(v)) + " exceed g(v,1)";
    check.Check(spec.DensityAtMost(count, calibrator.PagesIn(v),
                                   calibrator.Depth(v), kThirds1),
                std::move(viol));
  }

  // --- Algorithm-specific state.
  if (const auto* control2 = dynamic_cast<const Control2*>(&control)) {
    AuditControl2State(*control2, true_count, &report);
  }

  // --- The attached buffer pool, when any.
  if (control.pool() != nullptr) {
    AuditPoolInternal(*control.pool(), &report);
  }
  return report;
}

AuditReport Auditor::AuditStaging(const Memtable& staging,
                                  const ControlBase& control) {
  AuditReport report;
  Collector check(&report);

  // Capacity and order/count sanity re-derived from the entries, not
  // the memtable's own bookkeeping (ValidateOrder trusts nothing
  // either, so reuse it for the count cross-check).
  {
    AuditViolation v = Make(AuditViolationKind::kStagingOverCapacity);
    v.expected = staging.capacity();
    v.found = staging.size();
    v.detail = "staged entries exceed the configured budget";
    check.Check(staging.size() <= staging.capacity(), std::move(v));
  }
  const std::vector<StagedEntry>& entries = staging.entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    AuditViolation v = Make(AuditViolationKind::kStagingOrderViolation);
    v.expected = static_cast<int64_t>(entries[i - 1].record.key);
    v.found = static_cast<int64_t>(entries[i].record.key);
    v.detail = "memtable keys not strictly ascending at index " +
               std::to_string(i);
    check.Check(entries[i - 1].record.key < entries[i].record.key,
                std::move(v));
  }
  {
    AuditViolation v = Make(AuditViolationKind::kStagingOrderViolation);
    v.detail = "memtable per-kind counts out of sync";
    check.Check(staging.ValidateOrder().ok(), std::move(v));
  }

  // The kind invariants against the durable file: kInsert ⇔ the key is
  // absent (staged-vs-file disjointness — a drained entry leaves the
  // buffer), kUpdate/kTombstone ⇔ the key is present.
  for (const StagedEntry& entry : entries) {
    const StatusOr<bool> contains = control.PeekContains(entry.record.key);
    {
      AuditViolation v = Make(AuditViolationKind::kPageUnreadable);
      v.found = static_cast<int64_t>(entry.record.key);
      if (!contains.ok()) v.detail = contains.status().ToString();
      check.Check(contains.ok(), std::move(v));
    }
    if (!contains.ok()) continue;
    const bool durable = *contains;
    if (entry.kind == StagedEntry::Kind::kInsert) {
      AuditViolation v = Make(AuditViolationKind::kStagingDuplicateOfFile);
      v.found = static_cast<int64_t>(entry.record.key);
      v.detail = "staged insert key " + std::to_string(entry.record.key) +
                 " already durable";
      check.Check(!durable, std::move(v));
    } else {
      AuditViolation v = Make(AuditViolationKind::kStagingTombstoneOrphan);
      v.found = static_cast<int64_t>(entry.record.key);
      v.detail = std::string("staged ") +
                 StagedEntryKindToString(entry.kind) + " key " +
                 std::to_string(entry.record.key) + " missing from file";
      check.Check(durable, std::move(v));
    }
  }
  return report;
}

}  // namespace dsf
