// FaultPolicy schedules, the fallible PageFile accessors, the accounting
// fixes that rode along (AccessTracker first-access, IoStats clamp), and
// the LearnSplitters boundary regressions.

#include "storage/fault_injection.h"

#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "page_helpers.h"
#include "shard/sharded_dense_file.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/record.h"
#include "util/status.h"
#include "workload/workload.h"

namespace dsf {
namespace {

TEST(FaultPolicy, FailNthAccessFailsExactlyOnce) {
  FaultPolicy policy;
  policy.FailNthAccess(3);
  EXPECT_TRUE(policy.OnAccess(1, false).ok());
  EXPECT_TRUE(policy.OnAccess(2, false).ok());
  EXPECT_TRUE(policy.OnAccess(3, false).IsIoError());
  EXPECT_TRUE(policy.OnAccess(3, false).ok());  // one-shot: retry succeeds
  EXPECT_EQ(policy.accesses_seen(), 4);
  EXPECT_EQ(policy.faults_injected(), 1);
}

TEST(FaultPolicy, FailNthAccessIsRelativeToInstallPoint) {
  FaultPolicy policy;
  EXPECT_TRUE(policy.OnAccess(1, false).ok());
  EXPECT_TRUE(policy.OnAccess(2, false).ok());
  policy.FailNthAccess(1);  // the very next access
  EXPECT_TRUE(policy.OnAccess(3, false).IsIoError());
  EXPECT_TRUE(policy.OnAccess(4, false).ok());
}

TEST(FaultPolicy, FailAddressRangePersistsAcrossHits) {
  FaultPolicy policy;
  policy.FailAddressRange(5, 7);
  EXPECT_TRUE(policy.OnAccess(4, false).ok());
  EXPECT_TRUE(policy.OnAccess(5, false).IsIoError());
  EXPECT_TRUE(policy.OnAccess(6, true).IsIoError());
  EXPECT_TRUE(policy.OnAccess(7, false).IsIoError());  // not transient
  EXPECT_TRUE(policy.OnAccess(8, false).ok());
  EXPECT_EQ(policy.faults_injected(), 3);
}

TEST(FaultPolicy, WritesOnlyRangeLetsReadsThrough) {
  FaultPolicy policy;
  policy.FailAddressRange(2, 2, /*writes_only=*/true);
  EXPECT_TRUE(policy.OnAccess(2, false).ok());
  EXPECT_TRUE(policy.OnAccess(2, true).IsIoError());
}

TEST(FaultPolicy, TransientRangeDisarmsAfterFirstHit) {
  FaultPolicy policy;
  policy.FailAddressRange(3, 3, /*writes_only=*/false, /*transient=*/true);
  EXPECT_TRUE(policy.OnAccess(3, false).IsIoError());
  EXPECT_TRUE(policy.OnAccess(3, false).ok());
  EXPECT_EQ(policy.faults_injected(), 1);
}

TEST(FaultPolicy, CrashAfterAccessesFailsEverythingUntilCleared) {
  FaultPolicy policy;
  policy.CrashAfterAccesses(2);
  EXPECT_FALSE(policy.crashed());
  EXPECT_TRUE(policy.OnAccess(1, false).ok());
  EXPECT_TRUE(policy.OnAccess(2, true).ok());
  EXPECT_TRUE(policy.OnAccess(3, false).IsIoError());
  EXPECT_TRUE(policy.OnAccess(9, true).IsIoError());
  EXPECT_TRUE(policy.crashed());
  policy.ClearCrash();  // simulated restart
  EXPECT_FALSE(policy.crashed());
  EXPECT_TRUE(policy.OnAccess(9, true).ok());
}

TEST(FaultPolicy, CrashAfterZeroFailsImmediately) {
  FaultPolicy policy;
  policy.CrashAfterAccesses(0);
  EXPECT_TRUE(policy.OnAccess(1, false).IsIoError());
  EXPECT_TRUE(policy.crashed());
}

TEST(FaultPolicy, ResetForgetsEverything) {
  FaultPolicy policy;
  policy.FailNthAccess(1);
  policy.FailAddressRange(1, 100);
  policy.CrashAfterAccesses(0);
  policy.Reset();
  EXPECT_TRUE(policy.OnAccess(1, true).ok());
  EXPECT_EQ(policy.accesses_seen(), 1);
  EXPECT_EQ(policy.faults_injected(), 0);
}

TEST(PageFileFaults, TryReadSurfacesInjectedFault) {
  PageFile file(4, 4);
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailNthAccess(1);
  file.set_fault_policy(policy);
  Page scratch;
  StatusOr<const Page*> page = file.TryRead(2, &scratch);
  EXPECT_TRUE(page.status().IsIoError());
  // The faulted access was still charged — attempted work is real work.
  EXPECT_EQ(file.stats().TotalAccesses(), 1);
  // The schedule is exhausted; the retry succeeds.
  EXPECT_TRUE(file.TryRead(2, &scratch).ok());
  EXPECT_EQ(file.stats().TotalAccesses(), 2);
}

TEST(PageFileFaults, TryWriteLeavesPageUntouchedOnFault) {
  PageFile file(4, 4);
  const Record old_record{10, 10};
  ASSERT_TRUE(file.RawWrite(1, &old_record, &old_record + 1).ok());
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailAddressRange(1, 1, /*writes_only=*/true);
  file.set_fault_policy(policy);
  const Record new_record{20, 20};
  EXPECT_TRUE(file.TryWrite(1, &new_record, &new_record + 1).IsIoError());
  EXPECT_EQ(PeekPage(file, 1).size(), 1u);
  EXPECT_EQ(PeekPage(file, 1).MinKey(), 10u);
}

TEST(PageFileFaults, BadAddressIsOutOfRangeNotAbort) {
  PageFile file(4, 4);
  Page scratch;
  EXPECT_EQ(file.TryRead(0, &scratch).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.TryRead(5, &scratch).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.TryWrite(0, nullptr, nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.RawRead(5, &scratch).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.RawWrite(0, nullptr, nullptr).code(),
            StatusCode::kOutOfRange);
  // A refused address is no access: neither counter moves.
  EXPECT_EQ(file.stats().logical_reads, 0);
  EXPECT_EQ(file.stats().logical_writes, 0);
  EXPECT_EQ(file.stats().page_reads, 0);
  EXPECT_EQ(file.stats().page_writes, 0);
}

TEST(PageFileFaults, RawReadAndRawWriteAreFaultImmune) {
  PageFile file(4, 4);
  auto policy = std::make_shared<FaultPolicy>();
  policy->CrashAfterAccesses(0);
  file.set_fault_policy(policy);
  // Unaccounted accessors bypass both accounting and the fault schedule:
  // they model offline recovery inspecting the device.
  const Record record{7, 7};
  ASSERT_TRUE(file.RawWrite(3, &record, &record + 1).ok());
  EXPECT_EQ(PeekPage(file, 3).size(), 1u);
  EXPECT_EQ(policy->accesses_seen(), 0);
}

TEST(AccessTracker, FirstAccessAfterResetIsASeek) {
  AccessTracker tracker;
  tracker.OnAccess(10, false);
  EXPECT_EQ(tracker.stats().seeks, 1);
  EXPECT_EQ(tracker.stats().sequential_accesses, 0);
  // Same and adjacent addresses are sequential.
  tracker.OnAccess(10, true);
  tracker.OnAccess(11, false);
  tracker.OnAccess(10, false);
  EXPECT_EQ(tracker.stats().sequential_accesses, 3);
  // A jump seeks again, and Reset forgets the arm position.
  tracker.OnAccess(50, false);
  EXPECT_EQ(tracker.stats().seeks, 2);
  tracker.Reset();
  tracker.OnAccess(51, false);
  EXPECT_EQ(tracker.stats().seeks, 1);
}

TEST(IoStats, SubtractionClampsAtZero) {
  IoStats before;
  before.page_reads = 10;
  before.page_writes = 4;
  before.seeks = 3;
  before.sequential_accesses = 11;
  IoStats after;  // as if Reset() happened between the snapshots
  after.page_reads = 2;
  const IoStats delta = after - before;
  EXPECT_EQ(delta.page_reads, 0);
  EXPECT_EQ(delta.page_writes, 0);
  EXPECT_EQ(delta.seeks, 0);
  EXPECT_EQ(delta.sequential_accesses, 0);
  const IoStats forward = before - after;
  EXPECT_EQ(forward.page_reads, 8);
  EXPECT_EQ(forward.page_writes, 4);
}

TEST(LearnSplitters, DuplicateHeavySampleCollapsesInsteadOfFabricating) {
  // All sample keys identical: only the first quantile strictly ascends,
  // so the learner collapses to a single boundary at the duplicated key
  // (two effective shards) instead of manufacturing back+1 boundaries.
  std::vector<Record> sample(100, Record{42, 0});
  const std::vector<Key> splitters =
      ShardedDenseFile::LearnSplitters(sample, 8);
  ASSERT_EQ(splitters.size(), 1u);
  EXPECT_EQ(splitters[0], 42u);
}

TEST(LearnSplitters, MaxKeySampleDoesNotOverflow) {
  // Quantiles pinned at kMaxKey used to trigger back+1 wraparound to 0,
  // producing a non-ascending splitter vector that Create() rejects.
  constexpr Key kMax = std::numeric_limits<Key>::max();
  std::vector<Record> sample;
  sample.push_back(Record{1, 0});
  for (int i = 0; i < 99; ++i) sample.push_back(Record{kMax, 0});
  const std::vector<Key> splitters =
      ShardedDenseFile::LearnSplitters(sample, 8);
  for (size_t i = 1; i < splitters.size(); ++i) {
    EXPECT_LT(splitters[i - 1], splitters[i]);
  }
  for (const Key s : splitters) EXPECT_NE(s, 0u);
}

TEST(LearnSplitters, SkewedSampleKeepsStrictAscent) {
  // A usable result must always satisfy Create()'s splitter contract.
  std::vector<Record> sample;
  for (int i = 0; i < 50; ++i) sample.push_back(Record{5, 0});
  for (int i = 0; i < 50; ++i) {
    sample.push_back(Record{static_cast<Key>(1000 + i), 0});
  }
  const std::vector<Key> splitters =
      ShardedDenseFile::LearnSplitters(sample, 4);
  ASSERT_FALSE(splitters.empty());
  for (size_t i = 1; i < splitters.size(); ++i) {
    EXPECT_LT(splitters[i - 1], splitters[i]);
  }
  ShardedDenseFile::Options options;
  options.num_shards = static_cast<int>(splitters.size()) + 1;
  options.splitters = splitters;
  options.shard.num_pages = 16;
  options.shard.d = 2;
  options.shard.D = 8;
  EXPECT_TRUE(ShardedDenseFile::Create(options).ok());
}

}  // namespace
}  // namespace dsf
