// Tests for the Cursor streaming API, DeleteRange, and
// Compact/ScanEfficiency — across maintenance policies.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dense_file.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

std::unique_ptr<DenseFile> Make(
    DenseFile::Policy policy = DenseFile::Policy::kControl2,
    int64_t num_pages = 64) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 4;
  options.D = 44;
  options.policy = policy;
  StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Create(options);
  EXPECT_TRUE(f.ok()) << f.status();
  return std::move(*f);
}

TEST(Cursor, WalksEntireFileInOrder) {
  std::unique_ptr<DenseFile> f = Make();
  const std::vector<Record> records = MakeAscendingRecords(200, 3, 3);
  ASSERT_TRUE(f->BulkLoad(records).ok());
  std::vector<Record> seen;
  for (Cursor cur = f->NewCursor(); cur.Valid(); cur.Next()) {
    seen.push_back(cur.record());
  }
  EXPECT_EQ(seen, records);
}

TEST(Cursor, StartsAtFirstKeyAtOrAfterStart) {
  std::unique_ptr<DenseFile> f = Make();
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(100, 10, 10)).ok());
  Cursor cur = f->NewCursor(95);
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.record().key, 100u);  // 95 itself absent
  Cursor exact = f->NewCursor(100);
  ASSERT_TRUE(exact.Valid());
  EXPECT_EQ(exact.record().key, 100u);
}

TEST(Cursor, EmptyFileAndPastEndAreInvalid) {
  std::unique_ptr<DenseFile> f = Make();
  EXPECT_FALSE(f->NewCursor().Valid());
  ASSERT_TRUE(f->Insert(5, 5).ok());
  EXPECT_FALSE(f->NewCursor(6).Valid());
  EXPECT_TRUE(f->NewCursor(5).Valid());
}

TEST(Cursor, CrossesEmptyBlocks) {
  std::unique_ptr<DenseFile> f = Make();
  // Two clusters far apart in key space leave empty pages between them.
  ASSERT_TRUE(f->Insert(1, 1).ok());
  ASSERT_TRUE(f->Insert(1u << 30, 2).ok());
  std::vector<Key> keys;
  for (Cursor cur = f->NewCursor(); cur.Valid(); cur.Next()) {
    keys.push_back(cur.record().key);
  }
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 1u);
  EXPECT_EQ(keys[1], 1u << 30);
}

TEST(Cursor, LiveCursorSuspendsPiggybackDrains) {
  // Regression: a piggybacked MaybeDrain between Next() calls used to
  // move staged entries into the file mid-iteration; the drain's SHIFTs
  // can push records across the cursor's block frontier, so a record
  // could be visited twice or skipped. Drains now park while any cursor
  // is live and resume once it is destroyed. (Explicit DrainStep /
  // FlushStaging and the full-buffer force drain are intentionally NOT
  // suspended — see DenseFile::NewCursor.)
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 4;
  options.D = 44;
  options.staging_entries = 16;
  options.drain_batch = 2;  // drain trigger = max(2, 16 / 2) = 8
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<DenseFile> f = std::move(*created);
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(40, 10, 10)).ok());

  // Stage up to just below the drain trigger: no drain has run yet.
  for (Key k = 11; k <= 23; k += 2) ASSERT_TRUE(f->Insert(k, k).ok());
  ASSERT_EQ(f->staging_stats().drain_steps, 0);
  ASSERT_EQ(f->staging_stats().entries, 7);

  std::vector<Record> seen;
  {
    Cursor cur = f->NewCursor();
    // Push the buffer past its trigger while the cursor lives: before
    // the fix every one of these inserts piggybacked a drain step.
    for (Key k = 31; k <= 37; k += 2) ASSERT_TRUE(f->Insert(k, k).ok());
    EXPECT_EQ(f->staging_stats().drain_steps, 0);
    EXPECT_EQ(f->staging_stats().entries, 11);
    for (; cur.Valid(); cur.Next()) seen.push_back(cur.record());
    EXPECT_TRUE(cur.status().ok());
  }
  // With drains parked the walk is exactly the durable records merged
  // with the overlay snapshot taken at open — each key once, in strict
  // ascending order (the mid-iteration inserts stayed staged and are
  // invisible to the snapshot).
  std::vector<Record> expected = MakeAscendingRecords(40, 10, 10);
  for (Key k = 11; k <= 23; k += 2) expected.push_back(Record{k, k});
  std::sort(expected.begin(), expected.end(), RecordKeyLess);
  EXPECT_EQ(seen, expected);

  // Cursor destroyed: the very next command's piggyback drain fires.
  ASSERT_TRUE(f->Insert(41, 41).ok());
  EXPECT_GT(f->staging_stats().drain_steps, 0);
}

TEST(Cursor, MatchesScanOnChurnedFile) {
  std::unique_ptr<DenseFile> f = Make();
  Rng rng(17);
  const Trace trace = UniformMix(1000, 0.6, 0.2, 400, rng);
  for (const Op& op : trace) {
    if (op.kind == Op::Kind::kInsert) {
      (void)f->Insert(op.record);
    } else if (op.kind == Op::Kind::kDelete) {
      (void)f->Delete(op.record.key);
    }
  }
  std::vector<Record> via_cursor;
  for (Cursor cur = f->NewCursor(); cur.Valid(); cur.Next()) {
    via_cursor.push_back(cur.record());
  }
  EXPECT_EQ(via_cursor, *f->ScanAll());
}

class RangeOpsTest : public ::testing::TestWithParam<DenseFile::Policy> {};

TEST_P(RangeOpsTest, DeleteRangeRemovesExactlyTheSlice) {
  std::unique_ptr<DenseFile> f = Make(GetParam());
  ReferenceModel model(f->capacity());
  const std::vector<Record> records = MakeAscendingRecords(200, 5, 5);
  ASSERT_TRUE(f->BulkLoad(records).ok());
  ASSERT_TRUE(model.Load(records).ok());

  StatusOr<int64_t> removed = f->DeleteRange(100, 500);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 81);  // 100,105,...,500
  for (const Record& r : model.Scan(100, 500)) {
    ASSERT_TRUE(model.Delete(r.key).ok());
  }
  EXPECT_EQ(*f->ScanAll(), model.ScanAll());
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

TEST_P(RangeOpsTest, DeleteRangeEdgeCases) {
  std::unique_ptr<DenseFile> f = Make(GetParam());
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(50, 10, 10)).ok());
  // Empty slice, inverted range, whole file.
  StatusOr<int64_t> none = f->DeleteRange(501, 502);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0);
  StatusOr<int64_t> inverted = f->DeleteRange(400, 100);
  ASSERT_TRUE(inverted.ok());
  EXPECT_EQ(*inverted, 0);
  StatusOr<int64_t> all = f->DeleteRange(0, 1u << 30);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 50);
  EXPECT_EQ(f->size(), 0);
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

TEST_P(RangeOpsTest, DeleteRangeThenKeepOperating) {
  std::unique_ptr<DenseFile> f = Make(GetParam());
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(200, 2, 2)).ok());
  ASSERT_TRUE(f->DeleteRange(100, 300).ok());
  // The maintenance machinery must be consistent afterwards.
  for (Key k = 101; k <= 299; k += 2) {
    ASSERT_TRUE(f->Insert(k, k).ok());
    ASSERT_TRUE(f->ValidateInvariants().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RangeOpsTest,
    ::testing::Values(DenseFile::Policy::kControl2,
                      DenseFile::Policy::kControl1,
                      DenseFile::Policy::kLocalShift),
    [](const ::testing::TestParamInfo<DenseFile::Policy>& param_info) {
      switch (param_info.param) {
        case DenseFile::Policy::kControl2: return std::string("Control2");
        case DenseFile::Policy::kControl1: return std::string("Control1");
        case DenseFile::Policy::kLocalShift: return std::string("LocalShift");
      }
      return std::string("Unknown");
    });

TEST(Compact, RestoresUniformDensityAfterSkewedDeletes) {
  std::unique_ptr<DenseFile> f = Make(DenseFile::Policy::kControl2, 64);
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(f->capacity())).ok());
  // Delete everything except one dense clump at the high end.
  const int64_t cap = f->capacity();
  ASSERT_TRUE(f->DeleteRange(1, static_cast<Key>(cap - 60)).ok());
  const std::vector<Record> before = *f->ScanAll();
  ASSERT_TRUE(f->Compact().ok());
  // Contents unchanged; occupancy now even across the whole file: no
  // block more than one record above the global average.
  EXPECT_EQ(*f->ScanAll(), before);
  const Calibrator& cal = f->control().calibrator();
  const int64_t blocks = f->control().num_blocks();
  const int64_t average = f->size() / blocks;
  for (Address b = 1; b <= blocks; ++b) {
    EXPECT_LE(cal.Count(cal.LeafOf(b)), average + 1) << "block " << b;
  }
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

TEST(Compact, FileKeepsWorkingAfterCompaction) {
  std::unique_ptr<DenseFile> f = Make();
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(100, 4, 4)).ok());
  const std::vector<Record> before = *f->ScanAll();
  ASSERT_TRUE(f->Compact().ok());
  EXPECT_EQ(*f->ScanAll(), before);
  for (Key k = 2; k <= 100; k += 4) {
    ASSERT_TRUE(f->Insert(k, k).ok());
  }
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

TEST(Compact, EmptyFileIsANoop) {
  std::unique_ptr<DenseFile> f = Make();
  ASSERT_TRUE(f->Compact().ok());
  EXPECT_EQ(f->size(), 0);
  EXPECT_TRUE(f->ValidateInvariants().ok());
}

}  // namespace
}  // namespace dsf
