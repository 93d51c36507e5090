// Deterministic crash-after-k sweep.
//
// For every accounted access index k in a mixed insert/delete trace, crash
// the device at k (all later accesses fail), then restart (ClearCrash),
// run CheckAndRepair, and require: repair succeeds, the full invariant
// sweep passes, and the contents equal the reference model — where the
// single in-flight command is allowed to have either committed or cleanly
// aborted (the model is aligned by asking the recovered file). The rest of
// the trace then replays fault-free and must stay in lockstep.
//
// The ambiguity protocol mirrors real recovery: after a crash the caller
// cannot know whether the interrupted command took effect, but the file
// must be SOME consistent state that reflects either outcome — never a
// torn half-state, never a lost unrelated record.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/control_base.h"
#include "core/dense_file.h"
#include "gtest/gtest.h"
#include "shard/sharded_dense_file.h"
#include "storage/fault_injection.h"
#include "storage/record.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/reference_model.h"
#include "workload/workload.h"

namespace dsf {
namespace {

DenseFile::Options FileOptions(DenseFile::Policy policy,
                               int64_t cache_frames = 0) {
  DenseFile::Options options;
  options.num_pages = 32;
  options.d = 4;
  options.D = 20;
  options.policy = policy;
  options.cache_frames = cache_frames;
  // Every command in the sweep runs under the structural auditor: any
  // state the repair (or a fault-free replay step) leaves behind must be
  // auditor-certified, not merely ValidateInvariants-clean. Commands
  // that die on the injected fault are exempt (see DenseFile::Audit).
  options.audit_every_command = true;
  return options;
}

Status ApplyToFile(DenseFile& file, const Op& op) {
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

Status ApplyToModel(ReferenceModel& model, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return model.Insert(op.record);
    case Op::Kind::kDelete:
      return model.Delete(op.record.key);
    case Op::Kind::kGet:
      return model.Get(op.record.key).status();
    case Op::Kind::kScan:
      return Status::OK();
  }
  return Status::OK();
}

// The crashed command may or may not have committed; both outcomes are
// valid recoveries. Resolve the ambiguity by asking the repaired file.
template <typename File>
void AlignModelAfterCrash(const Op& op, File& file, ReferenceModel& model) {
  if (op.kind == Op::Kind::kInsert) {
    if (file.Contains(op.record.key) && !model.Contains(op.record.key)) {
      ASSERT_TRUE(model.Insert(op.record).ok());
    }
  } else if (op.kind == Op::Kind::kDelete) {
    if (!file.Contains(op.record.key) && model.Contains(op.record.key)) {
      ASSERT_TRUE(model.Delete(op.record.key).ok());
    }
  }
}

// Accounted *physical* accesses of a fault-free replay: the sweep's
// upper bound. With a buffer pool this is the device traffic (hits are
// absorbed), so the sweep still visits every flush boundary.
int64_t CleanRunAccesses(DenseFile::Policy policy, int64_t cache_frames,
                         const std::vector<Record>& initial,
                         const Trace& trace) {
  std::unique_ptr<DenseFile> file =
      *DenseFile::Create(FileOptions(policy, cache_frames));
  EXPECT_TRUE(file->BulkLoad(initial).ok());
  for (const Op& op : trace) IgnoreStatus(ApplyToFile(*file, op));
  return file->io_stats().TotalAccesses();
}

void RunCrashPoint(DenseFile::Policy policy_kind, int64_t cache_frames,
                   const std::vector<Record>& initial, const Trace& trace,
                   int64_t k, bool* fault_fired) {
  StatusOr<std::unique_ptr<DenseFile>> created =
      DenseFile::Create(FileOptions(policy_kind, cache_frames));
  ASSERT_TRUE(created.ok()) << created.status();
  DenseFile& file = **created;
  ASSERT_TRUE(file.BulkLoad(initial).ok());
  ReferenceModel model(file.capacity());
  ASSERT_TRUE(model.Load(initial).ok());

  auto policy = std::make_shared<FaultPolicy>();
  policy->CrashAfterAccesses(k);
  file.set_fault_policy(policy);

  bool crashed = false;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Op& op = trace[i];
    const Status file_status = ApplyToFile(file, op);
    if (!crashed && file_status.IsIoError()) {
      crashed = true;
      *fault_fired = true;
      // Full restart: the cache (including any dirty frames the failed
      // EndCommand flush left behind) is RAM and dies with the process.
      file.DiscardCache();
      policy->ClearCrash();  // restart
      StatusOr<RepairReport> report = file.CheckAndRepair();
      ASSERT_TRUE(report.ok())
          << "k=" << k << " op=" << i << ": " << report.status();
      ASSERT_TRUE(file.ValidateInvariants().ok())
          << "k=" << k << " op=" << i;
      AlignModelAfterCrash(op, file, model);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(*file.ScanAll(), model.ScanAll())
          << "k=" << k << " diverged at op " << i << " after repair";
      continue;
    }
    // At most one command may observe the crash: everything after
    // ClearCrash runs clean.
    ASSERT_FALSE(file_status.IsIoError()) << "k=" << k << " op=" << i;
    const Status model_status = ApplyToModel(model, op);
    ASSERT_EQ(file_status.code(), model_status.code())
        << "k=" << k << " op=" << i << " file=" << file_status
        << " model=" << model_status;
  }
  // The trace may have finished inside the access budget with the crash
  // still armed; lift it so the verification scans run clean.
  policy->ClearCrash();
  ASSERT_TRUE(file.ValidateInvariants().ok()) << "k=" << k;
  ASSERT_EQ(*file.ScanAll(), model.ScanAll()) << "k=" << k;
}

// Sweep parameter: (maintenance policy, buffer-pool frames). frames = 0
// is the direct-to-device seed configuration; frames > 0 runs the same
// sweep through the pool, where the interesting crash points fall inside
// EndCommand's ordered FlushAll (the flush boundaries) instead of inside
// the command body.
class CrashRecoverySweep
    : public ::testing::TestWithParam<std::tuple<DenseFile::Policy, int64_t>> {
};

TEST_P(CrashRecoverySweep, EveryCrashPointRecovers) {
  const DenseFile::Policy policy = std::get<0>(GetParam());
  const int64_t cache_frames = std::get<1>(GetParam());
  // Wide key stride (30) leaves each block's fence span wider than D
  // consecutive integer keys, so the ascending burst below piles into a
  // single block until it overflows past D and forces real maintenance
  // (SHIFT cycles / redistribution / chain shifts) — the sweep then
  // crashes through those multi-page rewrites, not just 2-access updates.
  Rng rng(20260807);
  const std::vector<Record> initial = MakeAscendingRecords(80, 30, 30);
  Trace trace = AscendingInserts(24, 601, 1);
  const Trace tail = UniformMix(60, 0.35, 0.55, 2700, rng);
  trace.insert(trace.end(), tail.begin(), tail.end());
  const int64_t total =
      CleanRunAccesses(policy, cache_frames, initial, trace);
  ASSERT_GT(total, 0);

  bool fault_fired = false;
  for (int64_t k = 0; k <= total; ++k) {
    RunCrashPoint(policy, cache_frames, initial, trace, k, &fault_fired);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(fault_fired);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CrashRecoverySweep,
    ::testing::Combine(::testing::Values(DenseFile::Policy::kControl2,
                                         DenseFile::Policy::kControl1,
                                         DenseFile::Policy::kLocalShift),
                       ::testing::Values(int64_t{0}, int64_t{4})),
    [](const auto& param_info) {
      std::string name;
      switch (std::get<0>(param_info.param)) {
        case DenseFile::Policy::kControl2: name = "Control2"; break;
        case DenseFile::Policy::kControl1: name = "Control1"; break;
        case DenseFile::Policy::kLocalShift: name = "LocalShift"; break;
      }
      const int64_t frames = std::get<1>(param_info.param);
      return name + (frames == 0 ? "Direct"
                                 : "Pool" + std::to_string(frames));
    });

// ---------------------------------------------------------------------
// Staged-ingest crash sweep.
//
// With a memtable in front of the file, per-command durability is gone by
// design: staged entries are RAM, and drained-but-unflushed entries sit in
// a deferred buffer pool that writes them back, in dirty order, whenever
// it evicts or re-dirties an earlier page. A crash therefore loses an
// arbitrary *suffix of effects* since the last durability point, not just
// the in-flight command. The single-op AlignModelAfterCrash is unsound here.
//
// The widened ambiguity protocol: track every key mutated since the last
// durability point together with every state (absent / present-with-value)
// it legitimately passed through in that window. After crash + repair,
// each tracked key must be in SOME state from its own history — anything
// else is a torn write — and the model adopts the file's verdict. Keys
// outside the window must be byte-identical, which the final ScanAll
// equality enforces. Periodic Flush() calls create durability points
// mid-trace (and are themselves crash targets), so the window stays small
// and the sweep exercises the flush path too.

// One key's permitted post-crash states: absent is modeled as nullopt.
using KeyStates = std::set<std::optional<Value>>;

std::optional<Value> ModelState(const ReferenceModel& model, Key key) {
  if (!model.Contains(key)) return std::nullopt;
  return model.Get(key)->value;
}

// Seeds the key's window entry with its pre-op state (first touch in this
// window only), to be followed by RecordState after the op lands.
void TouchKey(std::map<Key, KeyStates>& window, const ReferenceModel& model,
              Key key) {
  auto [it, inserted] = window.try_emplace(key);
  if (inserted) it->second.insert(ModelState(model, key));
}

void RunStagedCrashPoint(DenseFile::Policy policy_kind, int64_t cache_frames,
                         int64_t staging_entries, int64_t flush_every,
                         const std::vector<Record>& initial,
                         const Trace& trace, int64_t k, bool* fault_fired) {
  DenseFile::Options options = FileOptions(policy_kind, cache_frames);
  options.staging_entries = staging_entries;
  StatusOr<std::unique_ptr<DenseFile>> created = DenseFile::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  DenseFile& file = **created;
  ASSERT_TRUE(file.BulkLoad(initial).ok());
  ReferenceModel model(file.capacity());
  ASSERT_TRUE(model.Load(initial).ok());

  auto policy = std::make_shared<FaultPolicy>();
  policy->CrashAfterAccesses(k);
  file.set_fault_policy(policy);

  std::map<Key, KeyStates> window;

  // Crash landed (inside op i, or inside a periodic Flush when i names the
  // op just before it): discard all volatile state, repair, then resolve
  // the whole window against the repaired file.
  const auto recover = [&](size_t i) {
    *fault_fired = true;
    file.DiscardStaging();  // the memtable is RAM and dies first
    file.DiscardCache();
    policy->ClearCrash();  // restart
    StatusOr<RepairReport> report = file.CheckAndRepair();
    ASSERT_TRUE(report.ok())
        << "k=" << k << " op=" << i << ": " << report.status();
    ASSERT_TRUE(file.ValidateInvariants().ok()) << "k=" << k << " op=" << i;
    for (const auto& [key, states] : window) {
      std::optional<Value> got;
      if (file.Contains(key)) got = *file.Get(key);
      ASSERT_TRUE(states.count(got) > 0)
          << "k=" << k << " op=" << i << " key=" << key
          << ": recovered state is outside the key's mutation history "
          << "(torn write)";
      // Adopt the file's verdict.
      if (model.Contains(key)) {
        ASSERT_TRUE(model.Delete(key).ok());
      }
      if (got.has_value()) {
        ASSERT_TRUE(model.Insert(Record{key, *got}).ok());
      }
    }
    ASSERT_EQ(*file.ScanAll(), model.ScanAll())
        << "k=" << k << " diverged at op " << i << " after repair";
    // Post-repair the device alone holds the state: a durability point.
    window.clear();
  };

  bool crashed = false;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Op& op = trace[i];
    // Seed the pre-op state and the op's intended outcome BEFORE touching
    // the file: if the command crashes mid-drain, its effect (and any
    // older staged effect) may or may not have reached the device. An op
    // the model would reject (duplicate insert, missing delete) changes
    // nothing and must not widen the permitted set — file and model are
    // in lockstep up to here, so the model predicts the rejection.
    if (op.kind == Op::Kind::kInsert) {
      TouchKey(window, model, op.record.key);
      if (!model.Contains(op.record.key)) {
        window[op.record.key].insert(op.record.value);
      }
    } else if (op.kind == Op::Kind::kDelete) {
      TouchKey(window, model, op.record.key);
      if (model.Contains(op.record.key)) {
        window[op.record.key].insert(std::nullopt);
      }
    }
    const Status file_status = ApplyToFile(file, op);
    if (!crashed && file_status.IsIoError()) {
      crashed = true;
      recover(i);
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }
    ASSERT_FALSE(file_status.IsIoError()) << "k=" << k << " op=" << i;
    const Status model_status = ApplyToModel(model, op);
    ASSERT_EQ(file_status.code(), model_status.code())
        << "k=" << k << " op=" << i << " file=" << file_status
        << " model=" << model_status;
    if ((i + 1) % static_cast<size_t>(flush_every) == 0) {
      const Status flushed = file.Flush();
      if (!crashed && flushed.IsIoError()) {
        crashed = true;
        recover(i);
        if (::testing::Test::HasFatalFailure()) return;
        continue;
      }
      ASSERT_TRUE(flushed.ok()) << "k=" << k << " flush after op " << i;
      window.clear();  // durability point
    }
  }
  policy->ClearCrash();
  // The merged view (device + whatever is still staged) must match the
  // model exactly — the sweep's clean-completion check.
  ASSERT_TRUE(file.ValidateInvariants().ok()) << "k=" << k;
  ASSERT_EQ(*file.ScanAll(), model.ScanAll()) << "k=" << k;
}

// Clean-run access budget for the staged sweep (same trace, same periodic
// flush schedule, no faults).
int64_t StagedCleanRunAccesses(DenseFile::Policy policy, int64_t cache_frames,
                               int64_t staging_entries, int64_t flush_every,
                               const std::vector<Record>& initial,
                               const Trace& trace) {
  DenseFile::Options options = FileOptions(policy, cache_frames);
  options.staging_entries = staging_entries;
  std::unique_ptr<DenseFile> file = *DenseFile::Create(options);
  EXPECT_TRUE(file->BulkLoad(initial).ok());
  for (size_t i = 0; i < trace.size(); ++i) {
    IgnoreStatus(ApplyToFile(*file, trace[i]));
    if ((i + 1) % static_cast<size_t>(flush_every) == 0) {
      EXPECT_TRUE(file->Flush().ok());
    }
  }
  EXPECT_TRUE(file->Flush().ok());
  return file->io_stats().TotalAccesses();
}

// Sweep parameter: (policy, pool frames, staging entries). The staged
// configurations crash through drain steps, deferred flush windows, and
// the write-back those windows defer — every place the ingest layer bends
// the seed's per-command durability.
class StagedCrashRecoverySweep
    : public ::testing::TestWithParam<
          std::tuple<DenseFile::Policy, int64_t, int64_t>> {};

TEST_P(StagedCrashRecoverySweep, EveryCrashPointRecovers) {
  const DenseFile::Policy policy = std::get<0>(GetParam());
  const int64_t cache_frames = std::get<1>(GetParam());
  const int64_t staging_entries = std::get<2>(GetParam());
  const int64_t flush_every = 25;
  // Same shape as the unstaged sweep: an ascending burst that piles into
  // one block (the staging layer's best case — and its riskiest drain,
  // since every drained insert lands in the same rewrite neighborhood),
  // then a uniform mix with deletes.
  Rng rng(20260807);
  const std::vector<Record> initial = MakeAscendingRecords(80, 30, 30);
  Trace trace = AscendingInserts(24, 601, 1);
  const Trace tail = UniformMix(60, 0.35, 0.55, 2700, rng);
  trace.insert(trace.end(), tail.begin(), tail.end());
  const int64_t total = StagedCleanRunAccesses(
      policy, cache_frames, staging_entries, flush_every, initial, trace);
  ASSERT_GT(total, 0);

  bool fault_fired = false;
  for (int64_t k = 0; k <= total; ++k) {
    RunStagedCrashPoint(policy, cache_frames, staging_entries, flush_every,
                        initial, trace, k, &fault_fired);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(fault_fired);
}

INSTANTIATE_TEST_SUITE_P(
    Staging, StagedCrashRecoverySweep,
    ::testing::Values(
        // Staging without a pool: drains write straight to the device.
        std::make_tuple(DenseFile::Policy::kControl2, int64_t{0}, int64_t{6}),
        // Staging + pool: the full deferral and deferred write-back path.
        std::make_tuple(DenseFile::Policy::kControl2, int64_t{4}, int64_t{6}),
        std::make_tuple(DenseFile::Policy::kLocalShift, int64_t{4},
                        int64_t{6})),
    [](const auto& param_info) {
      std::string name;
      switch (std::get<0>(param_info.param)) {
        case DenseFile::Policy::kControl2: name = "Control2"; break;
        case DenseFile::Policy::kControl1: name = "Control1"; break;
        case DenseFile::Policy::kLocalShift: name = "LocalShift"; break;
      }
      name += std::get<1>(param_info.param) == 0
                  ? "Direct"
                  : "Pool" + std::to_string(std::get<1>(param_info.param));
      return name + "Staged" + std::to_string(std::get<2>(param_info.param));
    });

// A transient read fault (not a crash) must abort the command cleanly:
// invariants intact, contents untouched, nothing for repair to fix, and
// the retried command succeeds.
TEST(TransientFault, ReadFaultAbortsCommandCleanly) {
  for (const DenseFile::Policy policy_kind :
       {DenseFile::Policy::kControl2, DenseFile::Policy::kControl1,
        DenseFile::Policy::kLocalShift}) {
    std::unique_ptr<DenseFile> file =
        *DenseFile::Create(FileOptions(policy_kind));
    Rng rng(7);
    const std::vector<Record> initial = MakeUniformRecords(48, 400, rng);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    ReferenceModel model;
    ASSERT_TRUE(model.Load(initial).ok());

    auto policy = std::make_shared<FaultPolicy>();
    policy->FailNthAccess(1);  // the command's first read
    file->set_fault_policy(policy);

    EXPECT_TRUE(file->Insert(Record{401, 1}).IsIoError());
    EXPECT_TRUE(file->ValidateInvariants().ok());
    EXPECT_EQ(*file->ScanAll(), model.ScanAll());

    StatusOr<RepairReport> report = file->CheckAndRepair();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->AnythingRepaired()) << report->ToString();

    // The schedule is spent; the retry goes through.
    EXPECT_TRUE(file->Insert(Record{401, 1}).ok());
    EXPECT_TRUE(model.Insert(Record{401, 1}).ok());
    EXPECT_EQ(*file->ScanAll(), model.ScanAll());
  }
}

// Compaction is the heaviest rewrite; sweep a crash through every access
// of the pack-then-spread and require zero record loss.
TEST(CrashRecoveryCompact, CompactionCrashNeverLosesARecord) {
  const std::vector<Record> load = MakeAscendingRecords(120, 1, 3);
  std::vector<Record> expected;
  int64_t total = 0;
  {
    std::unique_ptr<DenseFile> file =
        *DenseFile::Create(FileOptions(DenseFile::Policy::kControl2));
    ASSERT_TRUE(file->BulkLoad(load).ok());
    ASSERT_TRUE(file->DeleteRange(1, 200).ok());
    expected = *file->ScanAll();
    file->ResetIoStats();
    ASSERT_TRUE(file->Compact().ok());
    total = file->io_stats().TotalAccesses();
  }
  ASSERT_GT(total, 0);

  for (int64_t k = 0; k <= total; ++k) {
    std::unique_ptr<DenseFile> file =
        *DenseFile::Create(FileOptions(DenseFile::Policy::kControl2));
    ASSERT_TRUE(file->BulkLoad(load).ok());
    ASSERT_TRUE(file->DeleteRange(1, 200).ok());
    auto policy = std::make_shared<FaultPolicy>();
    policy->CrashAfterAccesses(k);
    file->set_fault_policy(policy);

    const Status s = file->Compact();
    policy->ClearCrash();
    if (s.IsIoError()) {
      StatusOr<RepairReport> report = file->CheckAndRepair();
      ASSERT_TRUE(report.ok()) << "k=" << k << ": " << report.status();
    } else {
      ASSERT_TRUE(s.ok()) << "k=" << k << ": " << s;
    }
    ASSERT_TRUE(file->ValidateInvariants().ok()) << "k=" << k;
    ASSERT_EQ(*file->ScanAll(), expected) << "k=" << k;
  }
}

// Sharded: crash one shard's device mid-trace; the whole-file repair must
// bring the file back while the other shard rides through untouched.
// Runs once direct-to-device and once with a per-shard buffer pool (the
// crash then also lands inside pooled flush boundaries, and recovery must
// drop every shard's cache first).
class CrashRecoverySharded : public ::testing::TestWithParam<int64_t> {};

TEST_P(CrashRecoverySharded, EveryCrashPointOnShardZeroRecovers) {
  ShardedDenseFile::Options options;
  options.num_shards = 2;
  options.key_space = 2700;
  options.shard.num_pages = 24;
  options.shard.d = 4;
  options.shard.D = 20;
  options.shard.cache_frames = GetParam();

  // Same wide-stride + ascending-burst shape as the single-file sweep;
  // the burst keys (601..624) sit below the midpoint splitter, so the
  // maintenance they force lands on the faulted shard 0.
  Rng rng(20260808);
  const std::vector<Record> initial = MakeAscendingRecords(80, 30, 30);
  Trace trace = AscendingInserts(24, 601, 1);
  const Trace tail = UniformMix(60, 0.35, 0.55, 2700, rng);
  trace.insert(trace.end(), tail.begin(), tail.end());

  const auto apply_to_file = [](ShardedDenseFile& file,
                                const Op& op) -> Status {
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
  };

  // Access budget of shard 0 on a clean replay.
  int64_t total = 0;
  {
    std::unique_ptr<ShardedDenseFile> file =
        *ShardedDenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    for (const Op& op : trace) IgnoreStatus(apply_to_file(*file, op));
    total = file->shard_io_stats(0).TotalAccesses();
  }
  ASSERT_GT(total, 0);

  bool fault_fired = false;
  for (int64_t k = 0; k <= total; ++k) {
    std::unique_ptr<ShardedDenseFile> file =
        *ShardedDenseFile::Create(options);
    ASSERT_TRUE(file->BulkLoad(initial).ok());
    ReferenceModel model;
    ASSERT_TRUE(model.Load(initial).ok());

    auto policy = std::make_shared<FaultPolicy>();
    policy->CrashAfterAccesses(k);
    file->SetFaultPolicy(0, policy);

    bool crashed = false;
    for (size_t i = 0; i < trace.size(); ++i) {
      const Op& op = trace[i];
      const Status file_status = apply_to_file(*file, op);
      if (!crashed && file_status.IsIoError()) {
        crashed = true;
        fault_fired = true;
        file->DiscardCaches();  // RAM loss spans every shard's pool
        policy->ClearCrash();
        StatusOr<RepairReport> report = file->CheckAndRepair();
        ASSERT_TRUE(report.ok())
            << "k=" << k << " op=" << i << ": " << report.status();
        ASSERT_TRUE(file->ValidateInvariants().ok())
            << "k=" << k << " op=" << i;
        AlignModelAfterCrash(op, *file, model);
        if (HasFatalFailure()) return;
        ASSERT_EQ(*file->ScanAll(), model.ScanAll())
            << "k=" << k << " diverged at op " << i << " after repair";
        continue;
      }
      ASSERT_FALSE(file_status.IsIoError()) << "k=" << k << " op=" << i;
      const Status model_status = ApplyToModel(model, op);
      ASSERT_EQ(file_status.code(), model_status.code())
          << "k=" << k << " op=" << i;
    }
    policy->ClearCrash();
    ASSERT_TRUE(file->ValidateInvariants().ok()) << "k=" << k;
    ASSERT_EQ(*file->ScanAll(), model.ScanAll()) << "k=" << k;
  }
  EXPECT_TRUE(fault_fired);
}

INSTANTIATE_TEST_SUITE_P(Caches, CrashRecoverySharded,
                         ::testing::Values(int64_t{0}, int64_t{4}),
                         [](const ::testing::TestParamInfo<int64_t>& param) {
                           return param.param == 0
                                      ? "Direct"
                                      : "Pool" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace dsf
