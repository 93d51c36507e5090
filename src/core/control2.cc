#include "core/control2.h"

#include <algorithm>
#include <limits>

#include "obs/metric_names.h"
#include "util/check.h"

namespace dsf {

StatusOr<std::unique_ptr<Control2>> Control2::Create(const Options& options) {
  StatusOr<DensitySpec> spec = MakeLogicalSpec(options.config);
  if (!spec.ok()) return spec.status();
  if (!spec->SatisfiesGapCondition() &&
      !options.allow_gap_violation_for_testing) {
    return Status::InvalidArgument(
        "CONTROL 2 requires D - d > 3*ceil(log M); raise block_size "
        "(Theorem 5.7) to lift a small gap above the threshold");
  }
  if (options.J < 0) {
    return Status::InvalidArgument("J must be non-negative");
  }
  if (options.lower_threshold_thirds != kThirds1Of3 &&
      options.lower_threshold_thirds != kThirds2Of3) {
    return Status::InvalidArgument(
        "lower_threshold_thirds must be 1/3 or 2/3");
  }
  const int64_t j =
      options.J > 0 ? options.J : spec->RecommendedJ(kDefaultJSafety);
  return std::unique_ptr<Control2>(new Control2(options, *spec, j));
}

Control2::Control2(const Options& options, DensitySpec logical_spec,
                   int64_t j)
    : ControlBase(options.config, logical_spec), options_(options), j_(j) {
  const size_t n = static_cast<size_t>(calibrator_.node_count());
  warning_.assign(n, 0);
  dest_.assign(n, 0);
  warn_count_subtree_.assign(n, 0);
  warn_max_depth_subtree_.assign(n, -1);
  if (options_.track_episodes) {
    open_by_node_.assign(n, WarningEpisode{});
    open_flag_.assign(n, 0);
  }
}

void Control2::SetObservability(MetricsRegistry* metrics,
                                CommandTracer* tracer,
                                BoundCertifier* certifier,
                                const std::string& label) {
  ControlBase::SetObservability(metrics, tracer, certifier, label);
  m_shifts_ = nullptr;
  m_shift_records_ = nullptr;
  m_activations_ = nullptr;
  m_warnings_lowered_ = nullptr;
  if (metrics != nullptr) {
    m_shifts_ = metrics->FindOrCreateCounter(kMetricShifts, label);
    m_shift_records_ =
        metrics->FindOrCreateCounter(kMetricShiftRecords, label);
    m_activations_ = metrics->FindOrCreateCounter(kMetricActivations, label);
    m_warnings_lowered_ =
        metrics->FindOrCreateCounter(kMetricWarningsLowered, label);
  }
}

int64_t Control2::ViolationBudget(int64_t pages) const {
  return j_ * (pages * (logical_spec_.D() - logical_spec_.d()) /
               (3 * logical_spec_.L()));
}

void Control2::NotifyStable(StablePoint point, int64_t cycle) {
  if (step_callback_) step_callback_(point, cycle);
}

void Control2::SetWarning(int v, bool on) {
  if ((warning_[v] != 0) == on) return;
  warning_[v] = on ? 1 : 0;
  if (options_.track_episodes) {
    if (on) {
      WarningEpisode episode;
      episode.node = v;
      episode.depth = calibrator_.Depth(v);
      episode.pages = calibrator_.PagesIn(v);
      open_by_node_[static_cast<size_t>(v)] = episode;
      open_flag_[static_cast<size_t>(v)] = 1;
    } else if (open_flag_[static_cast<size_t>(v)] != 0) {
      episodes_.push_back(open_by_node_[static_cast<size_t>(v)]);
      open_flag_[static_cast<size_t>(v)] = 0;
    }
  }
  // Re-aggregate v and its ancestors.
  for (int a = v; a != Calibrator::kNoNode; a = calibrator_.Parent(a)) {
    int64_t count = warning_[a] ? 1 : 0;
    int64_t max_depth = warning_[a] ? calibrator_.Depth(a) : -1;
    if (!calibrator_.IsLeaf(a)) {
      const int l = calibrator_.Left(a);
      const int r = calibrator_.Right(a);
      count += warn_count_subtree_[l] + warn_count_subtree_[r];
      max_depth = std::max({max_depth, warn_max_depth_subtree_[l],
                            warn_max_depth_subtree_[r]});
    }
    warn_count_subtree_[a] = count;
    warn_max_depth_subtree_[a] = max_depth;
  }
}

void Control2::LowerIfCalm(int v) {
  if (warning_[v] == 0) return;
  if (logical_spec_.DensityAtMost(calibrator_.Count(v),
                                  calibrator_.PagesIn(v),
                                  calibrator_.Depth(v),
                                  options_.lower_threshold_thirds)) {
    SetWarning(v, false);
    ++stats_.warnings_lowered;
    if (m_warnings_lowered_ != nullptr) m_warnings_lowered_->Increment();
  }
}

void Control2::CheckLowerOnPath(Address block) {
  for (const int v : calibrator_.PathToLeaf(block)) LowerIfCalm(v);
}

void Control2::CheckRaiseOnPath(Address block) {
  for (const int v : calibrator_.PathToLeaf(block)) {
    if (v == calibrator_.root()) continue;  // the root never warns
    if (warning_[v] == 0 &&
        logical_spec_.DensityAtLeast(calibrator_.Count(v),
                                     calibrator_.PagesIn(v),
                                     calibrator_.Depth(v), kThirds2Of3)) {
      Activate(v);
    }
  }
}

void Control2::Activate(int w) {
  DSF_DCHECK(w != calibrator_.root()) << "root must not be activated";
  ++stats_.activations;
  if (m_activations_ != nullptr) m_activations_->Increment();
  // Step 1: raise w.
  SetWarning(w, true);
  const int fw = calibrator_.Parent(w);
  const Address fw_lo = calibrator_.RangeLo(fw);
  const Address fw_hi = calibrator_.RangeHi(fw);
  // Step 2: DEST(w) starts at the far end of the father's range, so the
  // whole sibling region can absorb (or yield) records.
  dest_[w] = calibrator_.IsRightChild(w) ? fw_lo : fw_hi;
  // ACTIVATE is pure calibrator bookkeeping: no page accesses to report.
  RecordSpan(SpanKind::kActivate, w, dest_[w], IoStats());

  if (options_.disable_rollback_for_testing) return;

  // Step 3: roll-back. Any warning node y whose father's range strictly
  // contains RANGE(f_w) and whose DEST sits inside RANGE(f_w) may have its
  // past work undone by future SHIFT(w) calls; rewind DEST(y) to the
  // furthest position the conflict can reach.
  for (int fy = calibrator_.Parent(fw); fy != Calibrator::kNoNode;
       fy = calibrator_.Parent(fy)) {
    const int children[2] = {calibrator_.Left(fy), calibrator_.Right(fy)};
    for (const int y : children) {
      if (y == Calibrator::kNoNode || warning_[y] == 0) continue;
      if (calibrator_.IsRightChild(y)) {
        // Roll-back rule 1: DIR(y)=1, DEST(y) in [lo+1, hi] -> lo.
        if (dest_[y] >= fw_lo + 1 && dest_[y] <= fw_hi) {
          dest_[y] = fw_lo;
          ++stats_.rollbacks;
        }
      } else {
        // Roll-back rule 0: DIR(y)=0, DEST(y) in [lo, hi-1] -> hi.
        if (dest_[y] >= fw_lo && dest_[y] <= fw_hi - 1) {
          dest_[y] = fw_hi;
          ++stats_.rollbacks;
        }
      }
    }
  }
}

int Control2::SelectNode(Address leaf_block) const {
  // Step 1 of SELECT: lowest ancestor alpha of the leaf with a warning
  // *proper* descendant.
  const int leaf = calibrator_.LeafOf(leaf_block);
  int alpha = Calibrator::kNoNode;
  for (int a = calibrator_.Parent(leaf); a != Calibrator::kNoNode;
       a = calibrator_.Parent(a)) {
    const int64_t proper = warn_count_subtree_[a] - (warning_[a] ? 1 : 0);
    if (proper > 0) {
      alpha = a;
      break;
    }
  }
  if (alpha == Calibrator::kNoNode) return Calibrator::kNoNode;

  // Step 2: a deepest warning descendant of alpha.
  const int64_t target_depth = warn_max_depth_subtree_[alpha];
  DSF_DCHECK(target_depth > calibrator_.Depth(alpha))
      << "alpha's deepest warning must be a proper descendant";
  int v = alpha;
  while (!(warning_[v] != 0 && calibrator_.Depth(v) == target_depth)) {
    const int l = calibrator_.Left(v);
    const int r = calibrator_.Right(v);
    DSF_DCHECK(l != Calibrator::kNoNode) << "descent fell off the tree";
    if (warn_max_depth_subtree_[l] == target_depth) {
      v = l;
    } else {
      DSF_DCHECK(warn_max_depth_subtree_[r] == target_depth)
          << "neither child reaches the target depth";
      v = r;
    }
  }
  return v;
}

Status Control2::Shift(int v) {
  ++stats_.shifts;
  if (m_shifts_ != nullptr) m_shifts_->Increment();
  const int f = calibrator_.Parent(v);
  DSF_DCHECK(f != Calibrator::kNoNode) << "SHIFT on the root";
  const bool moves_left = calibrator_.IsRightChild(v);  // DIR(v) == 1
  const Address dest = dest_[v];

  // Step 1: SOURCE is the nearest populated page beyond DEST, within the
  // father's range.
  Address source;
  if (moves_left) {
    source =
        calibrator_.FirstNonEmptyPageIn(dest + 1, calibrator_.RangeHi(f));
  } else {
    source =
        calibrator_.LastNonEmptyPageIn(calibrator_.RangeLo(f), dest - 1);
  }
  if (source == 0) {
    // No populated page beyond DEST. The paper's analysis shows this state
    // is unreachable while v genuinely needs shifting; tolerate it as a
    // no-op so a mis-parameterized run degrades instead of crashing.
    ++stats_.shift_noops;
    return Status::OK();
  }

  // UP(v): nodes containing DEST but not SOURCE — the path below the
  // DEST/SOURCE LCA on DEST's side. Their densities rise as records land.
  std::vector<int> up;
  for (const int x : calibrator_.PathToLeaf(dest)) {
    if (source < calibrator_.RangeLo(x) || source > calibrator_.RangeHi(x)) {
      up.push_back(x);  // path order => ascending depth
    }
  }
  DSF_DCHECK(!up.empty()) << "DEST and SOURCE in the same leaf";

  // Step 2: move until SOURCE empties or some x in UP(v) saturates at
  // g(x,0). The stopping count is computable upfront because each moved
  // record raises every x in UP(v) by exactly one.
  int64_t budget = std::numeric_limits<int64_t>::max();
  for (const int x : up) {
    budget = std::min(
        budget, logical_spec_.MovesUntilAtLeast(
                    calibrator_.Count(x), calibrator_.PagesIn(x),
                    calibrator_.Depth(x), kThirds0));
  }
  const int64_t source_count =
      calibrator_.Count(calibrator_.LeafOf(source));
  const int64_t moves = std::min(budget, source_count);

  if (moves > 0) {
    StatusOr<std::vector<Record>> src_read = ReadBlock(source);
    DSF_RETURN_IF_ERROR(src_read.status());
    StatusOr<std::vector<Record>> dest_read = ReadBlock(dest);
    DSF_RETURN_IF_ERROR(dest_read.status());
    std::vector<Record>& src_records = *src_read;
    std::vector<Record>& dest_records = *dest_read;
    if (moves_left) {
      // DEST < SOURCE: the lowest keys of SOURCE extend DEST from above.
      dest_records.insert(dest_records.end(), src_records.begin(),
                          src_records.begin() + moves);
      src_records.erase(src_records.begin(), src_records.begin() + moves);
    } else {
      // DEST > SOURCE: the highest keys of SOURCE slide under DEST.
      dest_records.insert(dest_records.begin(), src_records.end() - moves,
                          src_records.end());
      src_records.erase(src_records.end() - moves, src_records.end());
    }
    // DEST before SOURCE: until the source write lands, the moved records
    // exist in both blocks, so a crash between the writes duplicates them
    // (CheckAndRepair dedupes) rather than losing them. The sync barrier
    // extends the guarantee to durable storage: the duplicate copy is on
    // the device before the delete can be — power loss cannot persist the
    // delete alone. (No-op without a backend; under a pool the dirty-order
    // flush at EndCommand enforces the same ordering.)
    DSF_RETURN_IF_ERROR(WriteBlock(dest, dest_records));
    DSF_RETURN_IF_ERROR(file_.SyncBarrier());
    DSF_RETURN_IF_ERROR(WriteBlock(source, src_records));
    stats_.records_shifted += moves;
    if (m_shift_records_ != nullptr) m_shift_records_->Increment(moves);
  }

  // Step 3: hop DEST past the shallowest saturated UP node.
  for (const int x : up) {
    if (logical_spec_.DensityAtLeast(calibrator_.Count(x),
                                     calibrator_.PagesIn(x),
                                     calibrator_.Depth(x), kThirds0)) {
      dest_[v] = moves_left ? calibrator_.RangeHi(x) + 1
                            : calibrator_.RangeLo(x) - 1;
      ++stats_.dest_advances;
      break;
    }
  }

  // Mainline step 4c: densities fell along the path to SOURCE; lower any
  // warning that has calmed down.
  if (moves > 0) CheckLowerOnPath(source);
  return Status::OK();
}

Status Control2::RunMaintenance(Address leaf_block) {
  for (int64_t cycle = 0; cycle < j_; ++cycle) {
    const int v = SelectNode(leaf_block);  // step 4a
    if (tracing()) {
      // SELECT is an in-memory tree walk: no page accesses to report.
      RecordSpan(SpanKind::kSelect, v == Calibrator::kNoNode ? -1 : v,
                 cycle, IoStats());
    }
    if (v == Calibrator::kNoNode) {
      stats_.idle_cycles += j_ - cycle;
      break;  // nothing warns; the remaining cycles would be no-ops
    }
    if (options_.track_episodes && command_inserted_block_ != 0) {
      // Corollary 5.4: this SHIFT is *related* to every node that is in a
      // warning state while step 1 inserted into its range — exactly the
      // warning ancestors of the inserted block.
      for (const int x : calibrator_.PathToLeaf(command_inserted_block_)) {
        if (open_flag_[static_cast<size_t>(x)] != 0) {
          ++open_by_node_[static_cast<size_t>(x)].related_shifts;
        }
      }
      if (open_flag_[static_cast<size_t>(v)] != 0) {
        ++open_by_node_[static_cast<size_t>(v)].own_shifts;
      }
    }
    const int64_t moved_before = stats_.records_shifted;
    const IoStats shift_start = file_.stats();
    const Status s = Shift(v);  // step 4b (4c runs inside)
    RecordSpan(SpanKind::kShift, v, stats_.records_shifted - moved_before,
               file_.stats() - shift_start);
    if (options_.track_episodes &&
        open_flag_[static_cast<size_t>(v)] != 0) {
      open_by_node_[static_cast<size_t>(v)].records_moved +=
          stats_.records_shifted - moved_before;
    }
    DSF_RETURN_IF_ERROR(s);
    NotifyStable(StablePoint::kAfterCycle, cycle);
  }
  if (options_.track_episodes) {
    for (size_t v = 0; v < open_flag_.size(); ++v) {
      if (open_flag_[v] != 0) ++open_by_node_[v].commands;
    }
  }
  return Status::OK();
}

Status Control2::Insert(const Record& record) {
  if (size() >= MaxRecords()) {
    return Status::CapacityExceeded("file already holds N = d*M records");
  }
  BeginCommand(CommandKind::kInsert);
  // Step 1: place the record. A duplicate would live in the target block.
  const Address target = TargetBlockForInsert(record.key);
  StatusOr<std::vector<Record>> read = ReadBlock(target);
  if (!read.ok()) {
    // Clean abort: no write happened, flags and file are untouched, so
    // the command leaves the file (d,D)-dense with consistent warnings.
    return EndCommand(read.status());
  }
  std::vector<Record>& records = *read;
  const auto pos = std::lower_bound(records.begin(), records.end(), record,
                                    RecordKeyLess);
  if (pos != records.end() && pos->key == record.key) {
    return EndCommand(Status::AlreadyExists("key already present"));
  }
  records.insert(pos, record);
  const Status write = WriteBlock(target, records);
  if (!write.ok()) {
    return EndCommand(write);
  }
  command_inserted_block_ = target;

  CheckLowerOnPath(target);  // step 2 (vacuous after an insert)
  CheckRaiseOnPath(target);  // step 3
  NotifyStable(StablePoint::kAfterStep3, -1);
  // Step 4. A fault here errors the command with the record already
  // durably placed — the caller runs CheckAndRepair, which rebuilds the
  // warning state the aborted maintenance left behind.
  const Status maintenance = RunMaintenance(target);
  return EndCommand(maintenance);
}

Status Control2::Delete(Key key) {
  const Address block = BlockPossiblyContaining(key);
  if (block == 0) return Status::NotFound("key absent");
  BeginCommand(CommandKind::kDelete);
  StatusOr<std::vector<Record>> read = ReadBlock(block);
  if (!read.ok()) {
    return EndCommand(read.status());
  }
  std::vector<Record>& records = *read;
  const auto it = std::lower_bound(records.begin(), records.end(),
                                   Record{key, 0}, RecordKeyLess);
  if (it == records.end() || it->key != key) {
    return EndCommand(Status::NotFound("key absent"));
  }
  records.erase(it);
  const Status write = WriteBlock(block, records);
  if (!write.ok()) {
    return EndCommand(write);
  }
  command_inserted_block_ = 0;  // deletions relate no SHIFTs

  CheckLowerOnPath(block);  // step 2
  // Step 3 is vacuous: a deletion raises no density.
  NotifyStable(StablePoint::kAfterStep3, -1);
  const Status maintenance = RunMaintenance(block);  // step 4
  return EndCommand(maintenance);
}

Status Control2::ValidateInvariants() const {
  DSF_RETURN_IF_ERROR(ControlBase::ValidateInvariants());
  // I4: BALANCE(d,D) at command end (Theorem 5.5).
  DSF_RETURN_IF_ERROR(ValidateBalance());

  const bool paper_faithful = !options_.disable_rollback_for_testing &&
                              options_.lower_threshold_thirds == kThirds1Of3;
  for (int v = 0; v < calibrator_.node_count(); ++v) {
    const int64_t count = calibrator_.Count(v);
    const int64_t pages = calibrator_.PagesIn(v);
    const int64_t depth = calibrator_.Depth(v);
    if (paper_faithful) {
      // Fact 5.1 at a flag-stable moment.
      if (warning_[v] != 0 &&
          logical_spec_.DensityAtMost(count, pages, depth, kThirds1Of3)) {
        return Status::Corruption("Fact 5.1a violated: calm node " +
                                  std::to_string(v) + " still warns");
      }
      if (v != calibrator_.root() && warning_[v] == 0 &&
          logical_spec_.DensityAtLeast(count, pages, depth, kThirds2Of3)) {
        return Status::Corruption("Fact 5.1b violated: dense node " +
                                  std::to_string(v) + " not warning");
      }
    }
    if (warning_[v] != 0) {
      const int f = calibrator_.Parent(v);
      if (f == Calibrator::kNoNode) {
        return Status::Corruption("root is in a warning state");
      }
      if (dest_[v] < calibrator_.RangeLo(f) ||
          dest_[v] > calibrator_.RangeHi(f)) {
        return Status::Corruption("DEST outside RANGE(father) at node " +
                                  std::to_string(v));
      }
    }
  }

  // SELECT's aggregates must mirror the flags.
  for (int v = calibrator_.node_count() - 1; v >= 0; --v) {
    int64_t count = warning_[v] ? 1 : 0;
    int64_t max_depth = warning_[v] ? calibrator_.Depth(v) : -1;
    if (!calibrator_.IsLeaf(v)) {
      count += warn_count_subtree_[calibrator_.Left(v)] +
               warn_count_subtree_[calibrator_.Right(v)];
      max_depth = std::max({max_depth,
                            warn_max_depth_subtree_[calibrator_.Left(v)],
                            warn_max_depth_subtree_[calibrator_.Right(v)]});
    }
    if (warn_count_subtree_[v] != count ||
        warn_max_depth_subtree_[v] != max_depth) {
      return Status::Corruption("stale SELECT aggregates at node " +
                                std::to_string(v));
    }
  }
  return Status::OK();
}

void Control2::RebuildWarningState() {
  std::fill(warning_.begin(), warning_.end(), 0);
  std::fill(dest_.begin(), dest_.end(), 0);
  std::fill(open_flag_.begin(), open_flag_.end(), 0);
  std::fill(warn_count_subtree_.begin(), warn_count_subtree_.end(), 0);
  std::fill(warn_max_depth_subtree_.begin(), warn_max_depth_subtree_.end(),
            -1);
  // A uniform layout keeps every node below g(v,2/3), but LoadLayout may
  // not; activate whatever the fresh contents demand, parents before
  // children (node ids are preorder).
  for (int v = 1; v < calibrator_.node_count(); ++v) {
    if (logical_spec_.DensityAtLeast(calibrator_.Count(v),
                                     calibrator_.PagesIn(v),
                                     calibrator_.Depth(v), kThirds2Of3)) {
      Activate(v);
    }
  }
}

void Control2::AfterBulkLoad() {
  RebuildWarningState();
  stats_ = Stats();  // loading is setup, not measured work
}

void Control2::AfterWholesaleReorganization() { RebuildWarningState(); }

void Control2::AfterRangeDeletion(Address lo_block, Address hi_block) {
  for (Address b = lo_block; b <= hi_block; ++b) CheckLowerOnPath(b);
}

}  // namespace dsf
