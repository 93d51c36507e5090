// CONTROL 2 — Section 4's worst-case maintenance algorithm, the paper's
// primary contribution.
//
// Instead of CONTROL 1's occasional full redistribution, CONTROL 2 runs an
// evolutionary record-shifting process: every insertion/deletion command
// executes exactly J small SHIFT steps, each moving at most a handful of
// records between two nearby pages. Per-node state:
//
//   WARNING(v)  raised (with hysteresis) when p(v) >= g(v,2/3), lowered
//               when p(v) <= g(v,1/3); signals v is close to violating
//               BALANCE(d,D).
//   DIR(v)      1 if v is its father's right son (records flow left),
//               0 if left son (records flow right). Immutable.
//   DEST(v), SOURCE(v)   the pages between which SHIFT(v) moves records;
//               both lie in RANGE(father(v)); defined only while v warns.
//
// Subroutines (Section 4, implemented verbatim):
//   SHIFT(v)    pick SOURCE as the nearest populated page beyond DEST,
//               move records SOURCE -> DEST until SOURCE empties or some
//               node x with DEST in range but SOURCE not (the set UP(v))
//               reaches p(x) >= g(x,0); then advance DEST past the
//               shallowest saturated x*.
//   SELECT(L)   from the command's leaf L, find the lowest ancestor with a
//               warning proper descendant and return its deepest warning
//               descendant — the next SHIFT target.
//   ACTIVATE(w) raise w, point DEST(w) at the far end of RANGE(father(w)),
//               and roll back the DEST of any enclosing warning node whose
//               pointer sits inside RANGE(father(w)) (the anti-thrashing
//               roll-back rules 0 and 1).
//
// Theorem 5.5: with D - d > 3*ceil(log M) and J = Omega(log^2 M/(D-d)),
// BALANCE(d,D) — hence (d,D)-density — holds at the end of every command,
// at a worst-case cost of O(J) = O(log^2 M/(D-d)) page accesses each.
// Theorem 5.7: block_size K > 3*ceil(log M)/(D-d) lifts the gap condition
// for small D-d (macro-blocks); supported here via Config::block_size.

#ifndef DSF_CORE_CONTROL2_H_
#define DSF_CORE_CONTROL2_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/control_base.h"

namespace dsf {

class Control2 : public ControlBase {
 public:
  struct Options {
    Config config;

    // SHIFT cycles per command. 0 selects RecommendedJ(kDefaultJSafety).
    // The paper proves 90*ceil(log M)^2/(D-d) adequate and observes ~18
    // typically suffices; bench E5 maps the real threshold.
    int64_t J = 0;

    // Accept D - d == or below 3*ceil(log M) without a macro-block size.
    // The paper's own Example 5.2 sits exactly on the boundary (D-d = 9 =
    // 3*ceil(log 8)); the replay needs this. Theorem 5.5 is not guaranteed
    // in this regime.
    bool allow_gap_violation_for_testing = false;

    // --- Ablation knobs (E9). Defaults are the paper's algorithm. ---
    // Skip ACTIVATE's roll-back rules (the anti-thrashing correction).
    bool disable_rollback_for_testing = false;
    // Threshold below which a warning is lowered, in thirds of (D-d)/L.
    // kThirds1Of3 is the paper's hysteresis; kThirds2Of3 collapses the
    // hysteresis band to a single threshold.
    int lower_threshold_thirds = kThirds1Of3;

    // Record per-node warning episodes (activation -> lowering) with the
    // bookkeeping of Corollary 5.4: how many *related* SHIFT calls — SHIFT
    // invocations in commands that inserted into RANGE(v) while v warned —
    // each episode consumed, against the corollary's violation budget
    // J*floor(M_v(D-d)/(3 ceil(log M))). Off by default (bench E11 only).
    bool track_episodes = false;
  };

  struct Stats {
    int64_t activations = 0;       // ACTIVATE calls
    int64_t rollbacks = 0;         // DEST roll-backs applied
    int64_t warnings_lowered = 0;
    int64_t shifts = 0;            // SHIFT calls
    int64_t shift_noops = 0;       // SHIFT found no populated source
    int64_t records_shifted = 0;   // records moved by SHIFT
    int64_t dest_advances = 0;     // SHIFT step 3 pointer moves
    int64_t idle_cycles = 0;       // step-4 cycles with nothing warning
  };

  // One completed warning episode of a node (track_episodes only): from
  // ACTIVATE to the flag lowering.
  struct WarningEpisode {
    int node = 0;
    int64_t depth = 0;
    int64_t pages = 0;           // M_v
    int64_t commands = 0;        // commands while the warning was up
    int64_t related_shifts = 0;  // Corollary 5.4's counted SHIFTs
    int64_t own_shifts = 0;      // SHIFT(v) invocations
    int64_t records_moved = 0;   // records SHIFT(v) moved
  };

  // Observation points for replaying Example 5.2: the flag-stable moments.
  enum class StablePoint {
    kAfterStep3,  // user op applied, flags settled (t1, t5 in the paper)
    kAfterCycle,  // one SELECT/SHIFT/lower cycle finished (t2..t4, t6..t8)
  };
  using StepCallback = std::function<void(StablePoint, int64_t cycle)>;

  static constexpr double kDefaultJSafety = 8.0;

  static StatusOr<std::unique_ptr<Control2>> Create(const Options& options);

  Status Insert(const Record& record) override;
  Status Delete(Key key) override;
  std::string Name() const override { return "CONTROL2"; }

  // Base checks plus Fact 5.1 flag consistency and DEST pointer sanity.
  Status ValidateInvariants() const override;

  int64_t J() const { return j_; }
  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  // Per-node introspection for tests and the Example 5.2 replay.
  bool warning(int node) const { return warning_[node] != 0; }
  Address dest(int node) const { return dest_[node]; }

  // SELECT's subtree aggregates, exposed read-only for the invariant
  // auditor (analysis/auditor.cc) which recomputes them from the flags.
  int64_t warn_count_subtree(int node) const {
    return warn_count_subtree_[static_cast<size_t>(node)];
  }
  int64_t warn_max_depth_subtree(int node) const {
    return warn_max_depth_subtree_[static_cast<size_t>(node)];
  }

  // Corruption hooks for auditor tests: flip a flag through the real
  // SetWarning path (keeping SELECT aggregates consistent, so only the
  // Fact 5.1 checks fire) or dangle a DEST pointer outside its father's
  // range. Never used outside tests/auditor_test.cc.
  void CorruptWarningForTesting(int node, bool on) { SetWarning(node, on); }
  void CorruptDestForTesting(int node, Address dest) {
    dest_[static_cast<size_t>(node)] = dest;
  }

  // Completed episodes (empty unless Options::track_episodes).
  const std::vector<WarningEpisode>& episodes() const { return episodes_; }
  // Corollary 5.4's budget for a node with M_v = pages: the related-SHIFT
  // count a BALANCE violation would require.
  int64_t ViolationBudget(int64_t pages) const;

  // Invoked at every flag-stable moment inside a command (see StablePoint).
  void SetStepCallback(StepCallback callback) {
    step_callback_ = std::move(callback);
  }

  // Extends the base hook with CONTROL 2's maintenance metrics (SHIFT
  // counts, records moved, activations, warnings lowered) and per-phase
  // span recording.
  void SetObservability(MetricsRegistry* metrics, CommandTracer* tracer,
                        BoundCertifier* certifier,
                        const std::string& label = "") override;

 protected:
  void AfterBulkLoad() override;
  void AfterWholesaleReorganization() override;
  void AfterRangeDeletion(Address lo_block, Address hi_block) override;

 private:
  Control2(const Options& options, DensitySpec logical_spec, int64_t j);

  // Step 4 of the mainline: J cycles of SELECT/SHIFT/lower. Stops at the
  // first faulted SHIFT; the command's record is already durably placed,
  // so an error here means "committed but maintenance incomplete".
  Status RunMaintenance(Address leaf_block);
  // SELECT(L); kNoNode when nothing warns.
  int SelectNode(Address leaf_block) const;
  // One SHIFT(v) cycle. Writes DEST before SOURCE, so a crash between
  // the two duplicates the moved records instead of losing them.
  Status Shift(int v);
  void Activate(int w);
  void SetWarning(int v, bool on);

  // Lower v's warning if p(v) has fallen to the lower threshold.
  void LowerIfCalm(int v);
  // Clears all flags/pointers and re-activates what the current contents
  // demand (parents before children).
  void RebuildWarningState();
  // Steps 2 and 3 of the mainline along the path to `block`.
  void CheckLowerOnPath(Address block);
  void CheckRaiseOnPath(Address block);

  void NotifyStable(StablePoint point, int64_t cycle);

  Options options_;
  int64_t j_;
  Stats stats_;

  // Indexed by calibrator node id.
  std::vector<char> warning_;
  std::vector<Address> dest_;
  // Subtree aggregates driving SELECT in O(log M).
  std::vector<int64_t> warn_count_subtree_;
  std::vector<int64_t> warn_max_depth_subtree_;  // -1 when none

  // Episode tracking (track_episodes only).
  std::vector<WarningEpisode> episodes_;  // completed
  std::vector<WarningEpisode> open_by_node_;
  std::vector<char> open_flag_;
  Address command_inserted_block_ = 0;  // 0 if no insert this command

  // Cached metric handles (null without a registry; see obs/metrics.h).
  Counter* m_shifts_ = nullptr;
  Counter* m_shift_records_ = nullptr;
  Counter* m_activations_ = nullptr;
  Counter* m_warnings_lowered_ = nullptr;

  StepCallback step_callback_;
};

}  // namespace dsf

#endif  // DSF_CORE_CONTROL2_H_
