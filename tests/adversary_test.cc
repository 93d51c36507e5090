// Tests for the adversarial workload generators (src/workload/adversary.*):
// determinism under a fixed seed and the structural properties each
// generator promises.

#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"
#include "workload/adversary.h"
#include "workload/workload.h"

namespace dsf {
namespace {

bool SameTrace(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].record.key != b[i].record.key ||
        a[i].record.value != b[i].record.value ||
        a[i].scan_hi != b[i].scan_hi) {
      return false;
    }
  }
  return true;
}

TEST(AdversaryTest, DeterministicUnderFixedSeed) {
  Rng a(42), b(42), c(43);
  const Trace bucket_a = BucketAdversary(300, 1000, 2000, 3, a);
  const Trace bucket_b = BucketAdversary(300, 1000, 2000, 3, b);
  const Trace bucket_c = BucketAdversary(300, 1000, 2000, 3, c);
  EXPECT_TRUE(SameTrace(bucket_a, bucket_b));
  EXPECT_FALSE(SameTrace(bucket_a, bucket_c));

  Rng d(42), e(42), f(43);
  const Trace drift_d = DriftRamp(400, 4000, 200, 0.3, 4, d);
  const Trace drift_e = DriftRamp(400, 4000, 200, 0.3, 4, e);
  const Trace drift_f = DriftRamp(400, 4000, 200, 0.3, 4, f);
  EXPECT_TRUE(SameTrace(drift_d, drift_e));
  EXPECT_FALSE(SameTrace(drift_d, drift_f));

  Rng g(42), h(42), i(43);
  const Trace mig_g = HotspotMigration(400, 4000, 4, 0.3, 4, g);
  const Trace mig_h = HotspotMigration(400, 4000, 4, 0.3, 4, h);
  const Trace mig_i = HotspotMigration(400, 4000, 4, 0.3, 4, i);
  EXPECT_TRUE(SameTrace(mig_g, mig_h));
  EXPECT_FALSE(SameTrace(mig_g, mig_i));
}

// The BKS-style adversary keeps every key strictly inside (lo, hi),
// never re-inserts a live key, and only deletes keys it inserted that
// are still live — so any replay driver sees a legal trace.
TEST(AdversaryTest, BucketAdversaryStructure) {
  Rng rng(7);
  const Key lo = 1000, hi = 2000;
  const Trace trace = BucketAdversary(600, lo, hi, 3, rng);
  ASSERT_FALSE(trace.empty());

  std::set<Key> live;
  int64_t inserts = 0, deletes = 0;
  for (const Op& op : trace) {
    ASSERT_TRUE(op.kind == Op::Kind::kInsert || op.kind == Op::Kind::kDelete);
    EXPECT_GT(op.record.key, lo);
    EXPECT_LT(op.record.key, hi);
    if (op.kind == Op::Kind::kInsert) {
      ++inserts;
      EXPECT_EQ(live.count(op.record.key), 0u) << "re-inserted live key";
      live.insert(op.record.key);
    } else {
      ++deletes;
      EXPECT_EQ(live.count(op.record.key), 1u) << "deleted a dead key";
      live.erase(op.record.key);
    }
  }
  EXPECT_GT(inserts, 0);
  EXPECT_GT(deletes, 0);
  // delete_every = 3: roughly a third of ops are deletes.
  EXPECT_NEAR(static_cast<double>(deletes) / trace.size(), 1.0 / 3.0, 0.1);
}

// The adversary splits the current minimum gap, so inserted keys pack
// ever more tightly: the smallest adjacent live-key gap shrinks to the
// floor the range permits.
TEST(AdversaryTest, BucketAdversaryTightensGaps) {
  Rng rng(11);
  const Trace trace = BucketAdversary(400, 0, 1 << 14, /*delete_every=*/0, rng);
  std::set<Key> live;
  for (const Op& op : trace) {
    if (op.kind == Op::Kind::kInsert) live.insert(op.record.key);
  }
  ASSERT_GE(live.size(), 100u);
  Key min_gap = 1 << 14;
  Key prev = *live.begin();
  for (auto it = std::next(live.begin()); it != live.end(); ++it) {
    min_gap = std::min(min_gap, *it - prev);
    prev = *it;
  }
  // 400 splits into a 2^14 range force adjacent keys within a few units.
  EXPECT_LE(min_gap, 4);
}

TEST(AdversaryTest, DriftRampCoversTheKeySpace) {
  Rng rng(5);
  const Key key_space = 4000, window = 300;
  const Trace trace = DriftRamp(2000, key_space, window, 0.3, 3, rng);
  Key first_insert = 0, last_insert = 0;
  for (const Op& op : trace) {
    if (op.kind != Op::Kind::kInsert) continue;
    EXPECT_GE(op.record.key, 1);
    EXPECT_LE(op.record.key, key_space);
    if (first_insert == 0) first_insert = op.record.key;
    last_insert = op.record.key;
  }
  // The window slid: late inserts land far from early ones.
  EXPECT_LT(first_insert, window + 1);
  EXPECT_GT(last_insert, key_space - window - 1);
}

TEST(AdversaryTest, HotspotMigrationVisitsEveryPhaseSlice) {
  Rng rng(5);
  const Key key_space = 4000;
  const int phases = 4;
  const Trace trace = HotspotMigration(2000, key_space, phases, 0.3, 3, rng);
  // Count inserts per phase-sized slice of the key space; the 90%
  // in-phase mass puts substantial weight in each slice.
  std::vector<int64_t> per_slice(phases, 0);
  int64_t inserts = 0;
  for (const Op& op : trace) {
    if (op.kind != Op::Kind::kInsert) continue;
    ++inserts;
    const int slice = static_cast<int>(
        std::min<Key>(phases - 1, (op.record.key - 1) * phases / key_space));
    ++per_slice[static_cast<size_t>(slice)];
  }
  ASSERT_GT(inserts, 0);
  for (int s = 0; s < phases; ++s) {
    EXPECT_GT(per_slice[static_cast<size_t>(s)], inserts / (4 * phases))
        << "slice " << s << " starved";
  }
}

}  // namespace
}  // namespace dsf
