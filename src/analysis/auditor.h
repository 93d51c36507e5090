// Structural invariant auditor — the runtime half of the analysis
// pipeline (docs/ANALYSIS.md).
//
// The correctness argument of Willard's CONTROL 2 rests on invariants the
// type system never sees: BALANCE(d,D) (Theorem 5.5), the calibrator's
// N_v rank counters agreeing with physical page occupancy (Section 3),
// Fact 5.1's WARNING-flag consistency, DEST pointers confined to
// RANGE(father), and — below the algorithms — the buffer pool's
// first-dirtied write-back order that crash recovery depends on
// (docs/FAULTS.md, docs/CACHING.md). The auditor re-derives every one of
// them from ground truth: a physical walk over the logical page view,
// never trusting a counter it can recompute. ValidateInvariants() answers
// "is the file sane?" with the first failure; Audit() answers "what
// exactly is broken, where?" with a typed report of every violation —
// the contract the negative tests in tests/auditor_test.cc pin down.
//
// Entry points: DenseFile::Audit() / ShardedDenseFile::Audit() (which add
// shard stamping and boundary checks), or the static Auditor functions
// below for direct use against a ControlBase or BufferPool. Audits are
// unaccounted (zero page-access charges) and read-only. O(M + log-tree)
// time; meant for tests, post-repair certification and the
// Options::audit_every_command hook, not steady-state production calls.

#ifndef DSF_ANALYSIS_AUDITOR_H_
#define DSF_ANALYSIS_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace dsf {

class BufferPool;
class ControlBase;
class Memtable;

// Every distinct way the audited structures can be wrong. One enumerator
// per check so a test seeding a specific corruption can assert the exact
// diagnosis (see docs/ANALYSIS.md for the catalog with paper refs).
enum class AuditViolationKind {
  // --- file structure (paper Section 2: (d,D)-density) ---
  kCapacityExceeded,      // N > d*M records in total
  kPageOverflow,          // a page holds more than D records
  kPageMalformed,         // records within a page not strictly ascending
  kPageUnreadable,        // the page's device slot failed to read
  kGlobalOrderViolation,  // key order broken across page addresses
  kBlockNotPrefixPacked,  // macro-block content not in a page prefix
  // --- calibrator (Section 3) ---
  kRankCounterStale,   // leaf N_v != records physically in the block
  kFenceKeysStale,     // leaf min/max fences != physical min/max
  kAggregateMismatch,  // internal node != aggregate of its children
  // --- BALANCE(d,D) (Theorem 5.5), from physical counts ---
  kBalanceViolation,  // p(v) > g(v,1) for some calibrator node
  // --- CONTROL 2 flag/pointer state (Section 4, Fact 5.1) ---
  kWarningStale,          // flag up but p(v) <= g(v,1/3)  (Fact 5.1a)
  kWarningMissing,        // flag down but p(v) >= g(v,2/3) (Fact 5.1b)
  kRootWarning,           // the root never warns
  kDestOutOfRange,        // DEST(v) outside RANGE(father(v))
  kSelectAggregateStale,  // SELECT's subtree aggregates != flags
  // --- buffer pool (PR 3's write-back discipline) ---
  kDirtyOrderViolation,       // list L not in first-dirtied order
  kDirtyListCorrupt,          // L and per-frame dirty bits disagree
  kFrameAliasing,             // two frames cache the same page
  kFrameDirectoryMismatch,    // resident map != frame contents
  // --- sharding ---
  kShardBoundaryViolation,  // a shard holds keys outside its range
  // --- ingest staging (src/ingest/memtable.h kind invariants) ---
  kStagingOrderViolation,   // memtable keys not strictly ascending, or
                            // per-kind counts out of sync
  kStagingOverCapacity,     // staged entries exceed the configured budget
  kStagingDuplicateOfFile,  // a staged kInsert key is already durable
  kStagingTombstoneOrphan,  // a kUpdate/kTombstone key missing from file
};

const char* AuditViolationKindToString(AuditViolationKind kind);

// One pinpointed defect. Location fields default to "not applicable";
// `expected` / `found` carry the two sides of the failed comparison when
// the check is numeric, `detail` the human-readable specifics.
struct AuditViolation {
  AuditViolationKind kind;
  int shard = -1;     // shard index (sharded audits only)
  Address page = 0;   // physical page address, 0 = n/a
  Address block = 0;  // logical block (macro-page) address, 0 = n/a
  int node = -1;      // calibrator node id, -1 = n/a
  int64_t expected = 0;
  int64_t found = 0;
  std::string detail;

  std::string ToString() const;
};

// The audit outcome: every violation found (not just the first), plus
// coverage counters so a "clean" run can prove it actually looked.
struct AuditReport {
  std::vector<AuditViolation> violations;
  int64_t checks_run = 0;    // individual predicate evaluations
  int64_t pages_walked = 0;  // physical pages read during the walk

  bool ok() const { return violations.empty(); }
  bool Has(AuditViolationKind kind) const;
  // First violation of `kind`, or nullptr.
  const AuditViolation* Find(AuditViolationKind kind) const;

  // OK when clean; otherwise Corruption carrying the first violation and
  // the total count. This is what Options::audit_every_command surfaces.
  Status ToStatus() const;
  std::string ToString() const;

  // Folds `other` into this report, stamping its violations (and
  // checks/pages counters) with `shard`.
  void Merge(AuditReport other, int shard);
};

class Auditor {
 public:
  // Audits file structure, calibrator, BALANCE, CONTROL 2 state (when
  // `control` is a Control2) and the attached buffer pool (when any).
  static AuditReport AuditControl(const ControlBase& control);

  // Pool-only audit: dirty-order list and frame directory.
  static AuditReport AuditPool(const BufferPool& pool);

  // Staging audit (docs/INGEST.md): memtable order/capacity/count sanity
  // plus the entry-kind claims against the durable file — kInsert keys
  // must be absent (disjointness: a drained entry leaves the buffer, so
  // a key may never be staged-as-new *and* durable), kUpdate/kTombstone
  // keys must be present. Membership uses unaccounted PeekContains over
  // the logical view; O(staged entries * block pages).
  static AuditReport AuditStaging(const Memtable& staging,
                                  const ControlBase& control);
};

}  // namespace dsf

#endif  // DSF_ANALYSIS_AUDITOR_H_
