// Ingest staging tests: the memtable itself, the merged read view a
// staged DenseFile must present (shadowing, tombstone hiding, cursor and
// DeleteRange across the staging/file boundary), the bounded drain
// scheduler (forced drains, tombstone credit at capacity, certified
// steps), the dsf_staging_* metric flow, staging volatility across a
// simulated crash, and the per-shard staging split in ShardedDenseFile.
//
// The differential test replays a UniformMix against the ReferenceModel
// with audit_every_command + certify_bound on and periodic FlushStaging
// durability points — the strictest harness the repo has: every command
// is certified against the Theorem-5.7 budget and every mutation is
// followed by a full invariant audit of file + staging.

#include "ingest/memtable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/auditor.h"
#include "core/dense_file.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/sharded_dense_file.h"
#include "util/random.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

DenseFile::Options StagedOptions(int64_t staging_entries = 16,
                                 int64_t cache_frames = 0) {
  DenseFile::Options options;
  options.num_pages = 64;
  options.d = 4;
  options.D = 44;
  options.staging_entries = staging_entries;
  options.cache_frames = cache_frames;
  return options;
}

std::unique_ptr<DenseFile> Make(const DenseFile::Options& options) {
  StatusOr<std::unique_ptr<DenseFile>> f = DenseFile::Create(options);
  EXPECT_TRUE(f.ok()) << f.status();
  return std::move(*f);
}

// ---------------------------------------------------------------------------
// Memtable unit tests.

TEST(Memtable, KeepsStrictKeyOrderAndCounts) {
  Memtable table({/*max_entries=*/8});
  EXPECT_EQ(table.capacity(), 8);
  ASSERT_TRUE(table.Add(Record{5, 50}, StagedEntry::Kind::kInsert).ok());
  ASSERT_TRUE(table.Add(Record{1, 10}, StagedEntry::Kind::kTombstone).ok());
  ASSERT_TRUE(table.Add(Record{3, 30}, StagedEntry::Kind::kUpdate).ok());
  ASSERT_TRUE(table.ValidateOrder().ok());
  EXPECT_EQ(table.size(), 3);
  EXPECT_EQ(table.insert_count(), 1);
  EXPECT_EQ(table.update_count(), 1);
  EXPECT_EQ(table.tombstone_count(), 1);
  EXPECT_EQ(table.net_size(), 0);  // one insert, one tombstone
  EXPECT_EQ(table.entries()[0].record.key, 1);
  EXPECT_EQ(table.entries()[1].record.key, 3);
  EXPECT_EQ(table.entries()[2].record.key, 5);
  ASSERT_NE(table.Find(3), nullptr);
  EXPECT_EQ(table.Find(3)->record.value, 30);
  EXPECT_EQ(table.Find(4), nullptr);

  // Filling the entry budget makes the table full; one more is refused.
  for (Key k = 6; k <= 10; ++k) {
    ASSERT_TRUE(table.Add(Record{k, k}, StagedEntry::Kind::kInsert).ok());
  }
  EXPECT_TRUE(table.full());
  EXPECT_TRUE(table.Add(Record{11, 11}, StagedEntry::Kind::kInsert)
                  .IsCapacityExceeded());
}

TEST(Memtable, ReassignAndEraseKeepCountsHonest) {
  Memtable table({/*max_entries=*/8});
  ASSERT_TRUE(table.Add(Record{2, 20}, StagedEntry::Kind::kInsert).ok());
  EXPECT_TRUE(table.Reassign(2, Record{2, 21}, StagedEntry::Kind::kUpdate));
  EXPECT_EQ(table.insert_count(), 0);
  EXPECT_EQ(table.update_count(), 1);
  EXPECT_EQ(table.Find(2)->record.value, 21);
  EXPECT_FALSE(table.Reassign(9, Record{9, 90}, StagedEntry::Kind::kInsert));
  EXPECT_TRUE(table.Erase(2));
  EXPECT_FALSE(table.Erase(2));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.update_count(), 0);
}

// ---------------------------------------------------------------------------
// Merged read view.

TEST(IngestStaging, StagedInsertShadowsDurableFile) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions());
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(20, 2, 2)).ok());  // evens
  const int64_t durable = f->control().size();
  ASSERT_TRUE(f->Insert(5, 55).ok());
  EXPECT_EQ(f->staging_size(), 1);
  EXPECT_EQ(f->control().size(), durable);  // not in the file yet
  EXPECT_EQ(f->size(), durable + 1);        // but in the merged view
  StatusOr<Value> got = f->Get(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 55);
  EXPECT_TRUE(f->Contains(5));
  // Duplicate insert must fail against the merged view, staged or not.
  EXPECT_TRUE(f->Insert(5, 56).IsAlreadyExists());
  EXPECT_TRUE(f->Insert(4, 44).IsAlreadyExists());
}

TEST(IngestStaging, StagedTombstoneHidesDurableRecord) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions());
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(20, 2, 2)).ok());
  ASSERT_TRUE(f->Delete(8).ok());
  EXPECT_TRUE(f->control().Contains(8));  // still durable
  EXPECT_FALSE(f->Contains(8));           // hidden in the merged view
  EXPECT_TRUE(f->Get(8).status().IsNotFound());
  EXPECT_TRUE(f->Delete(8).IsNotFound());  // double delete
  std::vector<Record> out;
  ASSERT_TRUE(f->Scan(2, 12, &out).ok());
  for (const Record& r : out) EXPECT_NE(r.key, 8u);
  // Draining applies the tombstone for real.
  ASSERT_TRUE(f->FlushStaging().ok());
  EXPECT_FALSE(f->control().Contains(8));
}

TEST(IngestStaging, StagedDeleteOfStagedInsertAnnihilates) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions());
  ASSERT_TRUE(f->Insert(7, 70).ok());
  ASSERT_EQ(f->staging_size(), 1);
  ASSERT_TRUE(f->Delete(7).ok());
  EXPECT_EQ(f->staging_size(), 0);  // insert and delete cancelled in RAM
  EXPECT_GE(f->staging_stats().annihilations, 1);
  EXPECT_FALSE(f->Contains(7));
  EXPECT_EQ(f->size(), 0);
}

TEST(IngestStaging, CursorMergesAcrossStagingBoundary) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions(32));
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(20, 2, 2)).ok());  // 2..40
  // Stage odd keys interleaving the durable evens, plus a tombstone and
  // an update, without tripping the drain trigger.
  ASSERT_TRUE(f->Insert(5, 55).ok());
  ASSERT_TRUE(f->Insert(11, 111).ok());
  ASSERT_TRUE(f->Insert(41, 411).ok());  // beyond the durable tail
  ASSERT_TRUE(f->Delete(6).ok());
  ASSERT_TRUE(f->Delete(10).ok());
  ASSERT_TRUE(f->Insert(10, 100).ok());  // re-insert: staged update
  ASSERT_GT(f->staging_size(), 0);

  ReferenceModel model;
  ASSERT_TRUE(model.Load(MakeAscendingRecords(20, 2, 2)).ok());
  ASSERT_TRUE(model.Insert(Record{5, 55}).ok());
  ASSERT_TRUE(model.Insert(Record{11, 111}).ok());
  ASSERT_TRUE(model.Insert(Record{41, 411}).ok());
  ASSERT_TRUE(model.Delete(6).ok());
  ASSERT_TRUE(model.Delete(10).ok());
  ASSERT_TRUE(model.Insert(Record{10, 100}).ok());

  std::vector<Record> walked;
  for (Cursor cur = f->NewCursor(); cur.Valid(); cur.Next()) {
    walked.push_back(cur.record());
  }
  EXPECT_EQ(walked, model.ScanAll());
  // A cursor starting inside the staged overlay.
  Cursor mid = f->NewCursor(11);
  ASSERT_TRUE(mid.Valid());
  EXPECT_EQ(mid.record().key, 11u);
  EXPECT_EQ(mid.record().value, 111u);
}

TEST(IngestStaging, DeleteRangeSpansStagedAndDurable) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions(32));
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(20, 2, 2)).ok());  // 2..40
  ASSERT_TRUE(f->Insert(7, 70).ok());
  ASSERT_TRUE(f->Insert(13, 130).ok());
  ASSERT_TRUE(f->Delete(12).ok());  // staged tombstone inside the range
  // Range [6, 14] holds durable 6, 8, 10, 14 (12 tombstoned) and staged
  // 7, 13: six merged-visible records.
  StatusOr<int64_t> removed = f->DeleteRange(6, 14);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 6);
  std::vector<Record> out;
  ASSERT_TRUE(f->Scan(6, 14, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(f->Contains(4));
  EXPECT_TRUE(f->Contains(16));
  ASSERT_TRUE(f->ValidateInvariants().ok());
}

// ---------------------------------------------------------------------------
// Drain scheduler.

TEST(IngestStaging, TinyCapacityForcesDrainsAndLosesNothing) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions(/*staging_entries=*/4));
  for (Key k = 1; k <= 200; ++k) {
    ASSERT_TRUE(f->Insert(k, k * 10).ok()) << "key " << k;
  }
  EXPECT_GT(f->staging_stats().drain_steps, 0);
  ASSERT_TRUE(f->FlushStaging().ok());
  EXPECT_EQ(f->staging_size(), 0);
  EXPECT_EQ(f->control().size(), 200);
  ASSERT_TRUE(f->ValidateInvariants().ok());
  for (Key k = 1; k <= 200; ++k) {
    StatusOr<Value> got = f->Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, k * 10);
  }
}

TEST(IngestStaging, DrainBatchDerivedOnceAtCreate) {
  // Auto: the budget K*(4J+2) divided by 4K, at least 4 entries. The
  // trigger fill is max(batch, capacity / 2).
  std::unique_ptr<DenseFile> automatic = Make(StagedOptions(16));
  const int64_t auto_batch = automatic->drain_batch();
  EXPECT_EQ(auto_batch,
            std::max<int64_t>(4, automatic->drain_access_budget() /
                                     (4 * automatic->block_size())));
  EXPECT_EQ(automatic->drain_trigger(), std::max<int64_t>(auto_batch, 8));

  // An explicit Options::drain_batch wins, and the trigger follows it.
  DenseFile::Options options = StagedOptions(16);
  options.drain_batch = 2 * auto_batch;
  std::unique_ptr<DenseFile> fixed = Make(options);
  EXPECT_EQ(fixed->drain_batch(), 2 * auto_batch);
  EXPECT_EQ(fixed->drain_trigger(), std::max<int64_t>(2 * auto_batch, 8));
}

TEST(IngestStaging, DrainedStepsStayInsideCertifiedBudget) {
  DenseFile::Options options = StagedOptions(/*staging_entries=*/32,
                                             /*cache_frames=*/16);
  options.certify_bound = true;
  std::unique_ptr<DenseFile> f = Make(options);
  for (Key k = 1; k <= 150; ++k) {
    ASSERT_TRUE(f->Insert(k, k).ok());
  }
  ASSERT_TRUE(f->FlushStaging().ok());
  ASSERT_NE(f->bound_report(), nullptr);
  EXPECT_TRUE(f->bound_report()->ok()) << "bound violations recorded";
  EXPECT_GT(f->bound_budget(), 0);
  EXPECT_LE(f->command_stats().max_command_accesses, f->bound_budget());
}

TEST(IngestStaging, TombstoneCreditAdmitsInsertAtCapacity) {
  std::unique_ptr<DenseFile> f = Make(StagedOptions(/*staging_entries=*/8));
  const int64_t capacity = f->capacity();
  std::vector<Record> full;
  for (Key k = 1; k <= static_cast<Key>(capacity); ++k) {
    full.push_back(Record{2 * k, k});
  }
  ASSERT_TRUE(f->BulkLoad(full).ok());
  // Merged-capacity accounting: a staged tombstone frees the slot the
  // staged insert needs, even though the durable file is still full when
  // the insert drains.
  ASSERT_TRUE(f->Delete(2).ok());       // staged tombstone
  ASSERT_TRUE(f->Insert(3, 33).ok());   // staged insert into the credit
  EXPECT_TRUE(f->Insert(5, 55).IsCapacityExceeded());
  ASSERT_TRUE(f->FlushStaging().ok());
  EXPECT_EQ(f->control().size(), capacity);
  EXPECT_FALSE(f->Contains(2));
  EXPECT_TRUE(f->Contains(3));
  ASSERT_TRUE(f->ValidateInvariants().ok());
}

// ---------------------------------------------------------------------------
// Differential storm under the strictest harness.

TEST(IngestStaging, DifferentialMixWithAuditAndCertification) {
  DenseFile::Options options = StagedOptions(/*staging_entries=*/32,
                                             /*cache_frames=*/32);
  options.audit_every_command = true;
  options.certify_bound = true;
  std::unique_ptr<DenseFile> f = Make(options);
  ReferenceModel model(f->capacity());
  Rng rng(271828);
  const Key key_space = f->capacity();
  const Trace trace = UniformMix(/*num_ops=*/1200, /*insert_fraction=*/0.45,
                                 /*delete_fraction=*/0.35, key_space, rng);
  int64_t step = 0;
  for (const Op& op : trace) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        ASSERT_EQ(f->Insert(op.record).code(), model.Insert(op.record).code())
            << "insert key " << op.record.key << " at step " << step;
        break;
      case Op::Kind::kDelete:
        ASSERT_EQ(f->Delete(op.record.key).code(),
                  model.Delete(op.record.key).code())
            << "delete key " << op.record.key << " at step " << step;
        break;
      case Op::Kind::kGet:
        ASSERT_EQ(f->Contains(op.record.key), model.Contains(op.record.key))
            << "get key " << op.record.key << " at step " << step;
        break;
      case Op::Kind::kScan: {
        std::vector<Record> out;
        ASSERT_TRUE(f->Scan(op.record.key, op.scan_hi, &out).ok());
        ASSERT_EQ(out, model.Scan(op.record.key, op.scan_hi))
            << "scan at step " << step;
        break;
      }
    }
    if (step % 150 == 149) {
      // Periodic durability point: drain everything, then the merged
      // view and the durable view must agree with the model.
      ASSERT_TRUE(f->FlushStaging().ok()) << "at step " << step;
      ASSERT_EQ(f->staging_size(), 0);
      ASSERT_EQ(*f->ScanAll(), model.ScanAll()) << "at step " << step;
    }
    ++step;
  }
  ASSERT_TRUE(f->Flush().ok());
  EXPECT_EQ(*f->ScanAll(), model.ScanAll());
  EXPECT_EQ(f->size(), model.size());
  ASSERT_NE(f->bound_report(), nullptr);
  EXPECT_TRUE(f->bound_report()->ok());
  EXPECT_TRUE(f->Audit().ok()) << "final audit";
}

// ---------------------------------------------------------------------------
// Metrics, volatility, sharding.

TEST(IngestStaging, StagingMetricsFlow) {
  MetricsRegistry registry;
  DenseFile::Options options = StagedOptions(/*staging_entries=*/8);
  options.metrics = &registry;
  std::unique_ptr<DenseFile> f = Make(options);
  ASSERT_TRUE(f->Insert(1, 1).ok());
  ASSERT_TRUE(f->Insert(2, 2).ok());
  ASSERT_TRUE(f->Get(1).ok());  // staged hit
  ASSERT_TRUE(f->Delete(2).ok());  // annihilation
  ASSERT_TRUE(f->FlushStaging().ok());
  EXPECT_EQ(registry.FindOrCreateCounter(kMetricStagingPuts)->Value(),
            f->staging_stats().puts);
  EXPECT_GE(registry.FindOrCreateCounter(kMetricStagingHits)->Value(), 1);
  EXPECT_GE(
      registry.FindOrCreateCounter(kMetricStagingAnnihilations)->Value(), 1);
  EXPECT_GE(
      registry.FindOrCreateCounter(kMetricStagingDrainSteps)->Value(), 1);
  EXPECT_EQ(registry.FindOrCreateCounter(kMetricStagingDrainedEntries)->Value(),
            f->staging_stats().drained_entries);
  EXPECT_EQ(registry.FindOrCreateGauge(kMetricStagingEntries)->Value(), 0);
}

TEST(IngestStaging, CrashLosesStagedEntriesOnly) {
  DenseFile::Options options = StagedOptions(/*staging_entries=*/16,
                                             /*cache_frames=*/16);
  std::unique_ptr<DenseFile> f = Make(options);
  ASSERT_TRUE(f->BulkLoad(MakeAscendingRecords(20, 2, 2)).ok());
  ASSERT_TRUE(f->Flush().ok());  // durability point: evens are promised
  ASSERT_TRUE(f->Insert(5, 55).ok());  // staged, volatile
  ASSERT_TRUE(f->Delete(4).ok());      // staged tombstone, volatile
  // The crash: RAM contents vanish — memtable and cache together.
  f->DiscardStaging();
  f->DiscardCache();
  ASSERT_TRUE(f->CheckAndRepair().ok());
  EXPECT_FALSE(f->Contains(5));  // staged insert lost with the RAM
  EXPECT_TRUE(f->Contains(4));   // staged tombstone lost too
  for (Key k = 2; k <= 40; k += 2) {
    EXPECT_TRUE(f->Contains(k)) << "durable key " << k;
  }
  ASSERT_TRUE(f->ValidateInvariants().ok());
}

TEST(IngestStaging, ShardedStagingAggregatesStats) {
  ShardedDenseFile::Options options;
  options.num_shards = 4;
  options.key_space = 4 * 64 * 4;
  options.shard.num_pages = 64;
  options.shard.d = 4;
  options.shard.D = 44;
  options.shard.staging_entries = 8;
  StatusOr<std::unique_ptr<ShardedDenseFile>> made =
      ShardedDenseFile::Create(options);
  ASSERT_TRUE(made.ok()) << made.status();
  ShardedDenseFile& f = **made;
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_TRUE(f.Insert(k, k).ok()) << "key " << k;
  }
  ASSERT_TRUE(f.FlushStaging().ok());
  ASSERT_TRUE(f.ValidateInvariants().ok());
  StagingStats summed;
  for (int s = 0; s < f.num_shards(); ++s) {
    summed += f.shard_staging_stats(s);
  }
  const StagingStats total = f.staging_stats();
  EXPECT_EQ(total.puts, summed.puts);
  EXPECT_EQ(total.drained_entries, summed.drained_entries);
  EXPECT_EQ(total.puts, 400);
  EXPECT_EQ(total.drained_entries, 400);
  EXPECT_EQ(total.entries, 0);
  EXPECT_EQ(total.capacity, 4 * 8);
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_TRUE(f.Get(k).ok()) << "key " << k;
  }
}

}  // namespace
}  // namespace dsf
