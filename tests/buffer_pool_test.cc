// Buffer-pool unit and integration tests.
//
// Pool level: hit/miss accounting against the logical/physical IoStats
// split, dirty-order write-back rules (tail combining, additive
// absorption, rule-3 prefix flushes), in-order eviction, L-order FlushAll,
// flush-run coalescing, fault-injected write-back, RAM-loss DropAll and
// a concurrent Read / Write / TryEpochGet storm.
//
// File level: pooled-vs-unpooled differential replay, command-granularity
// durability (EndCommand flush), crash-at-flush recovery back to the
// reference model, and crash recovery across per-shard pools.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "page_helpers.h"
#include "shard/sharded_dense_file.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "util/random.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

// ---------------------------------------------------------------------------
// Pool-level tests against a raw PageFile.

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(/*num_pages=*/64, /*page_capacity=*/8) {}

  std::unique_ptr<BufferPool> MakePool(int64_t frames) {
    BufferPool::Options options;
    options.num_frames = frames;
    return std::make_unique<BufferPool>(&file_, options);
  }

  // Seeds a device page directly (unaccounted), one record key=value=k.
  void SeedPage(Address address, Key k) {
    const Record record{k, k};
    ASSERT_TRUE(file_.RawWrite(address, &record, &record + 1).ok());
  }

  PageFile file_;
};

// Places the full page image `records` through the pool.
Status Write(BufferPool& pool, Address address,
             const std::vector<Record>& records) {
  return pool.Write(address, records.data(), records.data() + records.size());
}

TEST_F(BufferPoolTest, HitsServeFromResidentFrames) {
  SeedPage(1, 10);
  SeedPage(2, 20);
  auto pool = MakePool(4);

  for (int round = 0; round < 3; ++round) {
    std::vector<Record> out;
    ASSERT_TRUE(pool->Read(1, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].key, 10u);
  }
  // Read appends: the caller's vector keeps what it held.
  std::vector<Record> out = {Record{1, 1}};
  ASSERT_TRUE(pool->Read(2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].key, 20u);

  // 4 logical reads, but only 2 reached the device (one fill per page).
  EXPECT_EQ(pool->stats().hits, 2);
  EXPECT_EQ(pool->stats().misses, 2);
  EXPECT_DOUBLE_EQ(pool->stats().HitRate(), 0.5);
  EXPECT_EQ(file_.stats().logical_reads, 4);
  EXPECT_EQ(file_.stats().page_reads, 2);
  EXPECT_EQ(file_.stats().page_writes, 0);
}

// Find is Read's point probe: the same frame fill and accounting, with
// one record copied out instead of the page.
TEST_F(BufferPoolTest, FindChargesLikeReadAndCopiesOneRecord) {
  SeedPage(1, 10);
  auto pool = MakePool(4);
  Record r{0, 0};
  StatusOr<bool> found = pool->Find(1, 10, &r);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(r.key, 10u);
  EXPECT_EQ(r.value, 10u);
  // An absent key is a hit on the frame that finds no record; *out is
  // left alone.
  found = pool->Find(1, 11, &r);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  EXPECT_EQ(r.key, 10u);
  // A refused address is no access: it charges nothing.
  EXPECT_EQ(pool->Find(65, 10, &r).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->stats().misses, 1);
  EXPECT_EQ(pool->stats().hits, 1);
  EXPECT_EQ(file_.stats().logical_reads, 2);
  EXPECT_EQ(file_.stats().page_reads, 1);
}

TEST_F(BufferPoolTest, WriteBackIsDeferredUntilFlush) {
  auto pool = MakePool(4);
  ASSERT_TRUE(Write(*pool, 1, {{7, 70}}).ok());
  // The write lives only in the frame so far.
  EXPECT_TRUE(PeekPage(file_, 1).empty());
  EXPECT_EQ(pool->dirty_pages(), 1);
  EXPECT_EQ(file_.stats().logical_writes, 1);
  EXPECT_EQ(file_.stats().page_writes, 0);

  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_EQ(pool->stats().writebacks, 1);
  EXPECT_EQ(file_.stats().page_writes, 1);
  EXPECT_EQ(PeekPage(file_, 1).MinKey(), 7);
}

TEST_F(BufferPoolTest, TailWriteCombiningAbsorbsRepeatedWrites) {
  auto pool = MakePool(4);
  std::vector<Record> image;
  for (Key k = 1; k <= 5; ++k) {
    image.push_back(Record{k, k});
    ASSERT_TRUE(Write(*pool, 3, image).ok());
  }
  // Five logical writes collapsed into one dirty frame at the tail of L.
  EXPECT_EQ(pool->stats().write_combines, 4);
  EXPECT_EQ(pool->dirty_pages(), 1);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(file_.stats().logical_writes, 5);
  EXPECT_EQ(file_.stats().page_writes, 1);
  EXPECT_EQ(PeekPage(file_, 3).size(), 5);
}

TEST_F(BufferPoolTest, NonTailRedirtyFlushesPrefixInOrder) {
  auto pool = MakePool(4);
  ASSERT_TRUE(Write(*pool, 1, {{1, 1}}).ok());
  ASSERT_TRUE(Write(*pool, 2, {{2, 2}}).ok());
  // Re-dirtying page 1 (now the FRONT of L, not the tail) with an image
  // that rebinds key 1 removes the old record, so rule 2' does not
  // apply: rule 3 flushes the old version of page 1 to the device before
  // the new one may commute past the write of page 2.
  ASSERT_TRUE(Write(*pool, 1, {{1, 10}, {3, 3}}).ok());
  EXPECT_EQ(pool->stats().ordered_flushes, 1);
  ASSERT_EQ(PeekPage(file_, 1).size(), 1);  // old version already on device
  EXPECT_EQ(PeekPage(file_, 1).records()[0].value, 1u);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(PeekPage(file_, 1).size(), 2);
  EXPECT_EQ(PeekPage(file_, 2).size(), 1);
  EXPECT_EQ(pool->stats().writebacks, 3);
}

// Evicting a dirty frame flushes the dirty-order prefix through it, in
// order: page 1 was dirtied before the victim, page 2, so it lands
// first — and a fault on page 1 keeps page 2 off the device.
TEST_F(BufferPoolTest, EvictionFlushesDirtyPrefixInOrder) {
  for (const bool fault : {false, true}) {
    SCOPED_TRACE(fault ? "page 1 write faults" : "no fault");
    PageFile file(/*num_pages=*/64, /*page_capacity=*/8);
    BufferPool pool(&file, {.num_frames = 3});
    std::vector<Record> out;
    ASSERT_TRUE(pool.Read(3, &out).ok());  // clean: the first victim
    ASSERT_TRUE(Write(pool, 1, {{1, 1}}).ok());
    ASSERT_TRUE(Write(pool, 2, {{2, 2}}).ok());
    // Loading page 4 clears every reference bit and evicts page 3;
    // page 1 is then referenced again, so the next miss passes over it
    // and evicts page 2, the tail of L = [1, 2].
    ASSERT_TRUE(pool.Read(4, &out).ok());
    ASSERT_TRUE(pool.Read(1, &out).ok());
    if (fault) {
      auto policy = std::make_shared<FaultPolicy>();
      policy->FailAddressRange(1, 1, /*writes_only=*/true);
      file.set_fault_policy(policy);
      EXPECT_TRUE(pool.Read(5, &out).IsIoError());
      EXPECT_TRUE(PeekPage(file, 1).empty());
      EXPECT_TRUE(PeekPage(file, 2).empty());  // never ahead of page 1
      EXPECT_EQ(pool.dirty_pages(), 2);
      continue;
    }
    ASSERT_TRUE(pool.Read(5, &out).ok());
    EXPECT_EQ(pool.PeekFrame(2), nullptr);  // the victim
    EXPECT_NE(pool.PeekFrame(1), nullptr);
    EXPECT_EQ(PeekPage(file, 1).size(), 1);
    EXPECT_EQ(PeekPage(file, 2).size(), 1);
    EXPECT_EQ(pool.dirty_pages(), 0);
    EXPECT_EQ(pool.stats().writebacks, 2);
  }
}

// Eviction must preserve every written record: the logical view (frame
// if resident, else device) never loses data.
TEST_F(BufferPoolTest, EvictionWritesBackDirtyVictims) {
  auto pool = MakePool(2);
  for (Address a = 1; a <= 8; ++a) {
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(Write(*pool, a, {{k, k * 10}}).ok());
  }
  EXPECT_EQ(pool->stats().evictions, 6);
  EXPECT_EQ(pool->resident_pages(), 2);

  ASSERT_TRUE(pool->FlushAll().ok());
  for (Address a = 1; a <= 8; ++a) {
    ASSERT_EQ(PeekPage(file_, a).size(), 1) << "page " << a;
    EXPECT_EQ(PeekPage(file_, a).MinKey(), static_cast<Key>(a));
  }
}

// CLOCK's second chance: a page referenced again after the hand cleared
// its bit is passed over by the next eviction, which takes the first
// unreferenced page after it instead.
TEST_F(BufferPoolTest, ClockSparesAPageReferencedAfterTheHandPassed) {
  for (const bool rereference : {false, true}) {
    SCOPED_TRACE(rereference ? "page 2 referenced again" : "no reference");
    auto pool = MakePool(3);
    std::vector<Record> out;
    for (Address a = 1; a <= 4; ++a) ASSERT_TRUE(pool->Read(a, &out).ok());
    // Loading page 4 took the hand once around the three frames: it
    // cleared every bit, evicted page 1 and now rests on page 2's frame,
    // whose bit is clear.
    ASSERT_EQ(pool->PeekFrame(1), nullptr);
    if (rereference) {
      ASSERT_TRUE(pool->Read(2, &out).ok());
    }
    ASSERT_TRUE(pool->Read(5, &out).ok());

    EXPECT_EQ(pool->PeekFrame(2) != nullptr, rereference);
    EXPECT_EQ(pool->PeekFrame(3) != nullptr, !rereference);
    EXPECT_NE(pool->PeekFrame(4), nullptr);
    EXPECT_NE(pool->PeekFrame(5), nullptr);
    EXPECT_EQ(pool->stats().evictions, 2);
  }
}

TEST_F(BufferPoolTest, WriteBackFaultLeavesFrameDirtyAndPoolConsistent) {
  auto pool = MakePool(4);
  ASSERT_TRUE(Write(*pool, 5, {{50, 500}}).ok());
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailAddressRange(5, 5, /*writes_only=*/true);
  file_.set_fault_policy(policy);

  const Status flush = pool->FlushAll();
  ASSERT_FALSE(flush.ok());
  EXPECT_TRUE(flush.IsIoError()) << flush.ToString();
  // The frame keeps its dirty content and its place in L; the device page
  // is untouched (a failed write never tears a page).
  EXPECT_EQ(pool->dirty_pages(), 1);
  ASSERT_NE(pool->PeekFrame(5), nullptr);
  EXPECT_EQ(pool->PeekFrame(5)->MinKey(), 50);
  EXPECT_TRUE(PeekPage(file_, 5).empty());
  EXPECT_EQ(pool->stats().writebacks, 0);

  // Clearing the fault makes the same FlushAll retry succeed.
  file_.set_fault_policy(nullptr);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_EQ(pool->stats().writebacks, 1);
  EXPECT_EQ(PeekPage(file_, 5).MinKey(), 50);
}

TEST_F(BufferPoolTest, FlushStopsAtFaultPreservingOrder) {
  auto pool = MakePool(4);
  for (Address a = 1; a <= 3; ++a) {
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(Write(*pool, a, {{k, k}}).ok());
  }
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailNthAccess(2);  // the flush's second device write
  file_.set_fault_policy(policy);

  ASSERT_FALSE(pool->FlushAll().ok());
  // Page 1 landed, pages 2 and 3 stay dirty in their original order.
  EXPECT_EQ(PeekPage(file_, 1).size(), 1);
  EXPECT_TRUE(PeekPage(file_, 2).empty());
  EXPECT_TRUE(PeekPage(file_, 3).empty());
  EXPECT_EQ(pool->dirty_pages(), 2);

  ASSERT_TRUE(pool->FlushAll().ok());  // retry completes the suffix
  EXPECT_EQ(PeekPage(file_, 2).size(), 1);
  EXPECT_EQ(PeekPage(file_, 3).size(), 1);
}

TEST_F(BufferPoolTest, SequentialFlushCoalescesIntoRuns) {
  auto pool = MakePool(8);
  // Two address runs dirtied in flush order: {3,4,5,6} and {10}.
  for (Address a : {3, 4, 5, 6, 10}) {
    const Key k = static_cast<Key>(a);
    ASSERT_TRUE(Write(*pool, a, {{k, k}}).ok());
  }
  const IoStats before = file_.stats();
  ASSERT_TRUE(pool->FlushAll().ok());
  const IoStats delta = file_.stats() - before;

  EXPECT_EQ(pool->stats().flush_runs, 2);
  EXPECT_EQ(pool->stats().flushed_pages, 5);
  // One arm movement per run; everything else streams sequentially.
  EXPECT_EQ(delta.seeks, 2);
  EXPECT_EQ(delta.sequential_accesses, 3);
  EXPECT_EQ(delta.page_writes, 5);
}

TEST_F(BufferPoolTest, MarkFreeRidesDirtyOrderUnaccounted) {
  auto pool = MakePool(4);
  ASSERT_TRUE(Write(*pool, 2, {{9, 9}}).ok());
  ASSERT_TRUE(pool->FlushAll().ok());
  ASSERT_EQ(PeekPage(file_, 2).size(), 1);

  // "Move" the record to page 3 and free page 2, as a shrinking
  // macro-block would.
  ASSERT_TRUE(Write(*pool, 3, {{9, 9}}).ok());
  ASSERT_TRUE(pool->MarkFree(2).ok());

  const IoStats before = file_.stats();
  ASSERT_TRUE(pool->FlushAll().ok());
  const IoStats delta = file_.stats() - before;

  EXPECT_TRUE(PeekPage(file_, 2).empty());
  EXPECT_EQ(PeekPage(file_, 3).size(), 1);
  EXPECT_EQ(pool->stats().free_writes, 1);
  // The freed-page clear is layout bookkeeping, not an accounted write.
  EXPECT_EQ(delta.page_writes, 1);
}

// --- Non-tail rewrites: rules 2' and 3 ---

TEST_F(BufferPoolTest, RewriteSupersetAbsorbsWithoutFlush) {
  SeedPage(3, 30);
  auto pool = MakePool(4);
  std::vector<Record> out;
  ASSERT_TRUE(pool->Read(3, &out).ok());
  ASSERT_TRUE(Write(*pool, 3, {{30, 30}, {40, 40}}).ok());
  // A second dirty frame makes page 3 non-tail.
  ASSERT_TRUE(Write(*pool, 5, {{50, 50}}).ok());
  // Rule 2': the rewrite only adds a record, so it absorbs at page 3's
  // original position in L — no flush, no device traffic.
  const IoStats before = file_.stats();
  ASSERT_TRUE(Write(*pool, 3, {{30, 30}, {35, 35}, {40, 40}}).ok());
  EXPECT_EQ(pool->stats().additive_absorbs, 1);
  EXPECT_EQ(pool->stats().ordered_flushes, 0);
  EXPECT_EQ((file_.stats() - before).page_writes, 0);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(PeekPage(file_, 3).size(), 3);
}

TEST_F(BufferPoolTest, RecordHopChainKeepsADurableCopyAtEveryStep) {
  // The record-hop chain P -> Q -> R: key 10 lives on page 2 (P) on the
  // device, is duplicated to page 3 (Q), P's removal enters L, the key is
  // duplicated again to page 4 (R), and then Q drops it. Q is not the
  // tail and its rewrite removes a record, so rule 3 lands Q's old image
  // (still holding 10) before Q re-enters L behind R.
  SeedPage(2, 10);
  SeedPage(3, 30);
  auto pool = MakePool(4);
  std::vector<Record> out;
  ASSERT_TRUE(pool->Read(2, &out).ok());
  ASSERT_TRUE(pool->Read(3, &out).ok());
  ASSERT_TRUE(Write(*pool, 3, {{10, 10}, {30, 30}}).ok());
  ASSERT_TRUE(Write(*pool, 2, {}).ok());
  ASSERT_TRUE(Write(*pool, 4, {{10, 10}}).ok());
  const IoStats before = file_.stats();
  ASSERT_TRUE(Write(*pool, 3, {{30, 30}}).ok());
  EXPECT_EQ(pool->stats().ordered_flushes, 1);
  EXPECT_EQ((file_.stats() - before).page_writes, 1);
  EXPECT_EQ(PeekPage(file_, 3).size(), 2);  // Q's old image landed
  EXPECT_EQ(PeekPage(file_, 2).size(), 1);  // P's removal still pending
  EXPECT_EQ(pool->dirty_pages(), 3);

  // L is now [P, R, Q]. A crash after P's removal lands but before R's
  // duplicate does still finds key 10 on Q, whose drop is behind R.
  auto policy = std::make_shared<FaultPolicy>();
  policy->FailAddressRange(4, 4, /*writes_only=*/true);
  file_.set_fault_policy(policy);
  EXPECT_TRUE(pool->FlushAll().IsIoError());
  EXPECT_TRUE(PeekPage(file_, 2).empty());
  EXPECT_EQ(PeekPage(file_, 3).MinKey(), 10);
  EXPECT_TRUE(PeekPage(file_, 4).empty());

  file_.set_fault_policy(nullptr);
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(PeekPage(file_, 3).size(), 1);
  EXPECT_EQ(PeekPage(file_, 3).MinKey(), 30);
  EXPECT_EQ(PeekPage(file_, 4).MinKey(), 10);
}

// One record key=value=k per key.
std::vector<Record> Image(const std::vector<Key>& keys) {
  std::vector<Record> records;
  for (const Key k : keys) records.push_back(Record{k, k});
  return records;
}

// Rule 3 does not look at what later frames remove: any rewrite of a
// non-tail frame that drops a record flushes the prefix through it.
// Each case builds the same L: page 3 (f) goes resident empty and is
// written `f_pending`; then page 2 (g), seeded with `g_keys`, goes
// resident and is written empty, so g sits after f. Rewriting f to
// `f_final` lands f's old image, and only it, whether or not g's removal
// touches a record of f's page.
TEST_F(BufferPoolTest, NonTailRemovalRewriteFlushesThePrefixThroughIt) {
  struct Case {
    const char* name;
    std::vector<Key> f_pending;
    std::vector<Key> g_keys;
    std::vector<Key> f_final;
  };
  for (const Case& c :
       {Case{"g removes nothing", {10, 20, 30}, {}, {10, 30}},
        Case{"g removes a key in the middle of f", {10, 20, 30}, {15, 20, 25},
             {10, 30}},
        Case{"g removes f's first key", {10, 20, 30}, {5, 10}, {20, 30}},
        Case{"g removes f's last key", {10, 20, 30}, {30, 35}, {10, 20}},
        Case{"g removes keys off f's page", {10, 30, 50}, {20, 40},
             {10, 30}}}) {
    SCOPED_TRACE(c.name);
    PageFile file(/*num_pages=*/64, /*page_capacity=*/8);
    BufferPool pool(&file, {.num_frames = 4});
    const std::vector<Record> g = Image(c.g_keys);
    ASSERT_TRUE(file.RawWrite(2, g.data(), g.data() + g.size()).ok());
    std::vector<Record> out;
    ASSERT_TRUE(pool.Read(3, &out).ok());
    ASSERT_TRUE(pool.Read(2, &out).ok());
    ASSERT_TRUE(Write(pool, 3, Image(c.f_pending)).ok());
    ASSERT_TRUE(Write(pool, 2, {}).ok());
    const IoStats before = file.stats();
    ASSERT_TRUE(Write(pool, 3, Image(c.f_final)).ok());
    EXPECT_EQ((file.stats() - before).page_writes, 1);
    EXPECT_EQ(pool.stats().ordered_flushes, 1);
    EXPECT_EQ(PeekPage(file, 3).size(), c.f_pending.size());
    EXPECT_EQ(PeekPage(file, 2).size(), c.g_keys.size());
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(PeekPage(file, 3).size(), c.f_final.size());
    EXPECT_TRUE(PeekPage(file, 2).empty());
  }
}

// FlushAll walks L front to back, never sorting by address, even when
// every frame only adds records: pages dirtied 7, 5, 6 land in that
// order, as two address runs, and a fault on page 5 keeps page 6 off the
// device.
TEST_F(BufferPoolTest, FlushAllWritesInDirtyOrder) {
  for (const bool fault : {false, true}) {
    SCOPED_TRACE(fault ? "page 5 write faults" : "no fault");
    PageFile file(/*num_pages=*/64, /*page_capacity=*/8);
    BufferPool pool(&file, {.num_frames = 4});
    for (const Address a : {Address{7}, Address{5}, Address{6}}) {
      const Key k = static_cast<Key>(10 * a);
      const Record seeded{k, k};
      ASSERT_TRUE(file.RawWrite(a, &seeded, &seeded + 1).ok());
      std::vector<Record> out;
      ASSERT_TRUE(pool.Read(a, &out).ok());
      ASSERT_TRUE(Write(pool, a, {{k, k}, {k + 1, k + 1}}).ok());
    }
    if (fault) {
      auto policy = std::make_shared<FaultPolicy>();
      policy->FailAddressRange(5, 5, /*writes_only=*/true);
      file.set_fault_policy(policy);
      EXPECT_TRUE(pool.FlushAll().IsIoError());
      EXPECT_EQ(PeekPage(file, 7).size(), 2);
      EXPECT_EQ(PeekPage(file, 6).size(), 1);
      EXPECT_EQ(pool.dirty_pages(), 2);
      continue;
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(pool.stats().flush_runs, 2);
    EXPECT_EQ(pool.stats().flushed_pages, 3);
  }
}

TEST_F(BufferPoolTest, DropAllLosesDirtyDataByDesign) {
  SeedPage(1, 1);
  auto pool = MakePool(4);
  ASSERT_TRUE(Write(*pool, 2, {{2, 2}}).ok());
  pool->DropAll();
  EXPECT_EQ(pool->resident_pages(), 0);
  EXPECT_EQ(pool->dirty_pages(), 0);
  EXPECT_TRUE(PeekPage(file_, 2).empty());  // the dirty write is gone (RAM loss)
  EXPECT_EQ(PeekPage(file_, 1).MinKey(), 1);  // device state untouched

  // The pool is fully reusable afterwards.
  std::vector<Record> out;
  ASSERT_TRUE(pool->Read(1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 1u);
}

TEST_F(BufferPoolTest, OutOfRangeAddressRejected) {
  auto pool = MakePool(2);
  std::vector<Record> out;
  EXPECT_EQ(pool->Read(0, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->Read(65, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Write(*pool, 65, {{1, 1}}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->MarkFree(0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool->resident_pages(), 0);
  // The address is checked before the access is counted.
  EXPECT_EQ(file_.stats().logical_reads, 0);
  EXPECT_EQ(file_.stats().logical_writes, 0);
}

TEST_F(BufferPoolTest, TryEpochGetServesResidentFrames) {
  SeedPage(1, 10);
  SeedPage(2, 20);
  auto pool = MakePool(4);
  Record r{0, 0};
  // Nothing resident yet: the epoch read answers nothing and never
  // touches the device.
  EXPECT_FALSE(pool->TryEpochGet(10, &r));
  EXPECT_EQ(file_.stats().page_reads, 0);

  std::vector<Record> out;
  ASSERT_TRUE(pool->Read(1, &out).ok());
  const int64_t device_reads = file_.stats().page_reads;
  EXPECT_TRUE(pool->TryEpochGet(10, &r));
  EXPECT_EQ(r.key, 10u);
  EXPECT_EQ(r.value, 10u);
  EXPECT_EQ(file_.stats().page_reads, device_reads);  // RAM only
  // Positive hits only: an absent key — or a key on a non-resident page
  // — is "don't know", never "not found".
  EXPECT_FALSE(pool->TryEpochGet(11, &r));
  EXPECT_FALSE(pool->TryEpochGet(20, &r));
}

TEST_F(BufferPoolTest, ConcurrentReadersAndWriterSeeWholePages) {
  // Readers hammer overlapping pages through Read and TryEpochGet while
  // a writer rewrites the same images through Write, forcing misses,
  // evictions and dirty write-back under the readers. Every copy must
  // show its page's seeded contents. Run under TSan this is the race
  // check for "content changes only under the pool mutex".
  for (Address a = 1; a <= 8; ++a) {
    SeedPage(a, static_cast<Key>(10 * static_cast<Key>(a)));
  }
  auto pool = MakePool(4);
  std::atomic<bool> wrong_contents{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        const Address a = static_cast<Address>(rng.Uniform(8) + 1);
        const Key k = static_cast<Key>(10 * static_cast<Key>(a));
        if (t == 0) {
          if (!Write(*pool, a, {{k, k}}).ok()) wrong_contents.store(true);
          continue;
        }
        std::vector<Record> out;
        if (!pool->Read(a, &out).ok() || out.size() != 1 || out[0].key != k) {
          wrong_contents.store(true);
        }
        Record r{0, 0};
        if (pool->TryEpochGet(k, &r) && r.value != k) {
          wrong_contents.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(wrong_contents.load());
  ASSERT_TRUE(pool->FlushAll().ok());
  for (Address a = 1; a <= 8; ++a) {
    EXPECT_EQ(PeekPage(file_, a).MinKey(), static_cast<Key>(10 * a));
  }
}

// ---------------------------------------------------------------------------
// DenseFile-level integration.

DenseFile::Options SmallFileOptions(int64_t cache_frames,
                                    DenseFile::Policy policy =
                                        DenseFile::Policy::kControl2) {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 8;
  options.D = 8 + 4 * 6 + 1;  // gap condition holds at M = 64
  options.policy = policy;
  options.cache_frames = cache_frames;
  return options;
}

Status Apply(DenseFile& file, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return file.Insert(op.record);
    case Op::Kind::kDelete:
      return file.Delete(op.record.key);
    case Op::Kind::kGet:
      return file.Get(op.record.key).status();
    case Op::Kind::kScan: {
      std::vector<Record> out;
      return file.Scan(op.record.key, op.scan_hi, &out);
    }
  }
  return Status::OK();
}

TEST(BufferPoolDenseFileTest, PooledReplayMatchesUnpooled) {
  auto pooled = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  auto unpooled = DenseFile::Create(SmallFileOptions(/*cache_frames=*/0));
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(unpooled.ok());
  EXPECT_TRUE((*pooled)->cache_enabled());
  EXPECT_FALSE((*unpooled)->cache_enabled());

  Rng rng(20260807);
  const Trace trace = UniformMix(/*num_ops=*/3000, /*insert_fraction=*/0.4,
                                 /*delete_fraction=*/0.3, /*key_space=*/300,
                                 rng);
  for (const Op& op : trace) {
    const Status sp = Apply(**pooled, op);
    const Status su = Apply(**unpooled, op);
    ASSERT_EQ(sp.code(), su.code()) << sp.ToString() << " vs " << su.ToString();
  }

  ASSERT_TRUE((*pooled)->ValidateInvariants().ok());
  ASSERT_TRUE((*unpooled)->ValidateInvariants().ok());
  EXPECT_EQ(*(*pooled)->ScanAll(), *(*unpooled)->ScanAll());

  // Both sides requested the same logical traffic; the pool served part
  // of it from frames, so physical <= logical on reads.
  const IoStats p = (*pooled)->io_stats();
  const IoStats u = (*unpooled)->io_stats();
  EXPECT_EQ(p.logical_reads, u.logical_reads);
  EXPECT_EQ(p.logical_writes, u.logical_writes);
  EXPECT_LE(p.page_reads, p.logical_reads);
  EXPECT_GT((*pooled)->cache_stats().hits, 0);
}

TEST(BufferPoolDenseFileTest, CompletedCommandsSurviveCacheLoss) {
  auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  ASSERT_TRUE(created.ok());
  DenseFile& file = **created;

  std::vector<Record> initial;
  for (Key k = 10; k <= 200; k += 10) initial.push_back(Record{k, k});
  ASSERT_TRUE(file.BulkLoad(initial).ok());
  for (Key k = 1; k <= 9; ++k) ASSERT_TRUE(file.Insert(k, k * 100).ok());
  ASSERT_TRUE(file.Delete(100).ok());

  // Every command flushed at EndCommand, so losing the cache (RAM half of
  // a crash) and repairing loses nothing.
  file.DiscardCache();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  ASSERT_TRUE(file.ValidateInvariants().ok());
  for (Key k = 1; k <= 9; ++k) {
    ASSERT_TRUE(file.Contains(k)) << "lost committed insert " << k;
  }
  EXPECT_FALSE(file.Contains(100));
  EXPECT_EQ(file.size(), static_cast<int64_t>(initial.size()) + 9 - 1);
}

TEST(BufferPoolDenseFileTest, CrashAtFlushBoundaryRepairsToModel) {
  // Deterministic crash sweep: arm CrashAfterAccesses(k) for a spread of
  // k, replay until the crash fires mid-command (possibly mid-flush),
  // then recover exactly as a restarted process would: drop the cache,
  // clear the crash, CheckAndRepair. The file must match the committed
  // reference model, modulo the single ambiguous in-flight command.
  for (int64_t crash_at : {20, 35, 50, 75, 110, 160}) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/6));
    ASSERT_TRUE(created.ok());
    DenseFile& file = **created;

    std::vector<Record> initial;
    for (Key k = 2; k <= 300; k += 2) initial.push_back(Record{k, k});
    ASSERT_TRUE(file.BulkLoad(initial).ok());

    ReferenceModel model;
    ASSERT_TRUE(model.Load(initial).ok());

    auto policy = std::make_shared<FaultPolicy>();
    policy->CrashAfterAccesses(crash_at);
    file.set_fault_policy(policy);

    Rng rng(99 + crash_at);
    const Trace trace =
        UniformMix(/*num_ops=*/400, /*insert_fraction=*/0.5,
                   /*delete_fraction=*/0.35, /*key_space=*/300, rng);
    bool crashed = false;
    Op in_flight;
    for (const Op& op : trace) {
      const Status s = Apply(file, op);
      if (s.IsIoError()) {
        crashed = true;
        in_flight = op;
        break;
      }
      // Committed: mirror into the model (same no-op semantics).
      if (op.kind == Op::Kind::kInsert) (void)model.Insert(op.record);
      if (op.kind == Op::Kind::kDelete) (void)model.Delete(op.record.key);
    }
    ASSERT_TRUE(crashed) << "trace finished before the crash point";

    file.DiscardCache();  // RAM half of the crash
    policy->ClearCrash();  // restart
    ASSERT_TRUE(file.CheckAndRepair().ok());
    ASSERT_TRUE(file.ValidateInvariants().ok());

    // The in-flight command either fully applied or fully rolled away.
    ReferenceModel applied;
    ASSERT_TRUE(applied.Load(model.ScanAll()).ok());
    if (in_flight.kind == Op::Kind::kInsert) (void)applied.Insert(in_flight.record);
    if (in_flight.kind == Op::Kind::kDelete) (void)applied.Delete(in_flight.record.key);

    const std::vector<Record> got = *file.ScanAll();
    EXPECT_TRUE(got == model.ScanAll() || got == applied.ScanAll())
        << "recovered state matches neither the pre- nor post-command model";
  }
}

TEST(BufferPoolDenseFileTest, ExplicitFlushIsDurabilityPoint) {
  auto created = DenseFile::Create(SmallFileOptions(/*cache_frames=*/8));
  ASSERT_TRUE(created.ok());
  DenseFile& file = **created;
  ASSERT_TRUE(file.Insert(42, 420).ok());
  ASSERT_TRUE(file.Flush().ok());  // idempotent: EndCommand already flushed
  file.DiscardCache();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  EXPECT_EQ(*file.Get(42), 420u);
}

TEST(BufferPoolDenseFileTest, CreateRejectsNegativeCacheFrames) {
  DenseFile::Options options = SmallFileOptions(/*cache_frames=*/-1);
  EXPECT_TRUE(DenseFile::Create(options).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Sharded integration: crash recovery across per-shard pools.

TEST(BufferPoolShardedTest, PerShardPoolsRecoverFromWholeMachineCrash) {
  ShardedDenseFile::Options options;
  options.num_shards = 4;
  options.key_space = 4000;
  options.shard.num_pages = 64;
  options.shard.d = 8;
  options.shard.D = 8 + 4 * 6 + 1;
  options.shard.cache_frames = 16;

  auto created = ShardedDenseFile::Create(options);
  ASSERT_TRUE(created.ok());
  ShardedDenseFile& file = **created;

  Rng rng(7);
  const Trace trace = UniformMix(/*num_ops=*/4000, /*insert_fraction=*/0.45,
                                 /*delete_fraction=*/0.25,
                                 /*key_space=*/options.key_space, rng);
  ReferenceModel model;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        ASSERT_EQ(file.Insert(op.record).code(), model.Insert(op.record).code());
        break;
      case Op::Kind::kDelete:
        ASSERT_EQ(file.Delete(op.record.key).code(),
                  model.Delete(op.record.key).code());
        break;
      default:
        (void)file.Contains(op.record.key);
        break;
    }
  }

  const BufferPool::Stats cache = file.cache_stats();
  EXPECT_GT(cache.hits, 0);
  EXPECT_GT(cache.misses, 0);

  // Whole-machine crash across all shards: drop every pool, repair every
  // shard, and the committed state survives intact.
  ASSERT_TRUE(file.Flush().ok());
  file.DiscardCaches();
  ASSERT_TRUE(file.CheckAndRepair().ok());
  ASSERT_TRUE(file.ValidateInvariants().ok());
  EXPECT_EQ(*file.ScanAll(), model.ScanAll());
}

}  // namespace
}  // namespace dsf
