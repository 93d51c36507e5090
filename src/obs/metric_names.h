// The metric catalog — every metric name the library registers.
//
// Instrumented code outside src/obs/ must name metrics through these
// constants, never through inline string literals: the static-analysis
// linter's `unregistered-metric-name` rule (scripts/run_static_analysis.sh)
// flags any FindOrCreate* call that passes a raw literal. One catalog
// keeps the namespace collision-free, makes exporters and dashboards
// greppable, and ties each name to its documentation entry in
// docs/OBSERVABILITY.md.
//
// Naming convention (Prometheus style): `dsf_` prefix, `_total` suffix
// for monotonic counters, no suffix for gauges and histograms. Per-shard
// and per-thread instances reuse one name and differ by label
// (`dsf_shard_records{shard="3"}`), so the catalog stays closed under
// scaling.

#ifndef DSF_OBS_METRIC_NAMES_H_
#define DSF_OBS_METRIC_NAMES_H_

namespace dsf {

// --- Command layer (ControlBase) ---
// Mutating commands completed (Insert/Delete/DeleteRange/Compact).
inline constexpr char kMetricCommands[] = "dsf_commands_total";
// Histogram: logical page accesses per command — the paper's cost metric.
inline constexpr char kMetricCommandAccesses[] = "dsf_command_accesses";
// Histogram: simulated device time per command, in nanoseconds, from the
// unified DiskModel charge (storage/io_stats.h sim_elapsed_ns).
inline constexpr char kMetricCommandSimNs[] = "dsf_command_sim_ns";

// --- CONTROL 2 maintenance (core/control2.cc) ---
inline constexpr char kMetricShifts[] = "dsf_shifts_total";
inline constexpr char kMetricShiftRecords[] = "dsf_shift_records_total";
inline constexpr char kMetricActivations[] = "dsf_activations_total";
inline constexpr char kMetricWarningsLowered[] =
    "dsf_warnings_lowered_total";

// --- Redistribution (CONTROL 1 step B, Compact) ---
inline constexpr char kMetricRedistributions[] = "dsf_redistributions_total";
// Histogram: blocks covered by each redistribution.
inline constexpr char kMetricRedistributionBlocks[] =
    "dsf_redistribution_blocks";

// --- Bound certifier (obs/bound_certifier.h) ---
inline constexpr char kMetricBoundViolations[] =
    "dsf_bound_violations_total";

// --- Buffer pool (storage/buffer_pool.cc) ---
inline constexpr char kMetricPoolHits[] = "dsf_pool_hits_total";
inline constexpr char kMetricPoolMisses[] = "dsf_pool_misses_total";
inline constexpr char kMetricPoolWritebacks[] = "dsf_pool_writebacks_total";
// Histogram: pages per maximal consecutive-address flush run (the write
// coalescing docs/CACHING.md measures; 1 = an isolated seek).
inline constexpr char kMetricPoolFlushRunLength[] =
    "dsf_pool_flush_run_length";

// --- Sharding (shard/sharded_dense_file.cc) ---
// Read-path branch counters (docs/CONCURRENCY.md): point reads that
// took the shard lock shared without waiting ...
inline constexpr char kMetricReadLockShared[] = "dsf_read_lock_shared_total";
// ... that were answered by an epoch-validated buffer-pool read while a
// writer held the shard ...
inline constexpr char kMetricReadLockEpochHits[] =
    "dsf_read_lock_epoch_hits_total";
// ... and that missed the epoch read and blocked on the shared lock.
inline constexpr char kMetricReadLockEpochFallbacks[] =
    "dsf_read_lock_epoch_fallbacks_total";
// Gauge, per-shard label: records currently held by the shard.
inline constexpr char kMetricShardRecords[] = "dsf_shard_records";
// Gauge: 1000 * (most loaded shard / mean shard load); 1000 = balanced.
inline constexpr char kMetricShardImbalance[] = "dsf_shard_imbalance_x1000";

// --- Workload replay (workload/parallel_replayer.cc) ---
// Histogram, per-thread label: wall-clock latency per operation, ns.
inline constexpr char kMetricReplayOpNs[] = "dsf_replay_op_ns";

// --- Ingest staging (core/dense_file.cc; see docs/INGEST.md) ---
// Mutations absorbed into the staging memtable (inserts, updates,
// tombstones) instead of going straight to the file.
inline constexpr char kMetricStagingPuts[] = "dsf_staging_puts_total";
// Point reads (Get/Contains) answered by a staged entry.
inline constexpr char kMetricStagingHits[] = "dsf_staging_hits_total";
// Staged inserts cancelled in place by a later delete — mutations that
// never cost a single page access.
inline constexpr char kMetricStagingAnnihilations[] =
    "dsf_staging_annihilations_total";
// Bounded drain steps executed (each one kDrain tracer span).
inline constexpr char kMetricStagingDrainSteps[] =
    "dsf_staging_drain_steps_total";
// Entries moved from staging into the file by drain steps.
inline constexpr char kMetricStagingDrainedEntries[] =
    "dsf_staging_drained_entries_total";
// Gauge, per-file label: entries currently staged (volatile until
// drained).
inline constexpr char kMetricStagingEntries[] = "dsf_staging_entries";

}  // namespace dsf

#endif  // DSF_OBS_METRIC_NAMES_H_
