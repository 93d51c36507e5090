#!/usr/bin/env bash
# Builds the project and regenerates every experiment E1..E16 plus the
# microbenchmarks, collecting output under results/.
#
# With --bench, instead builds Release and refreshes the tracked
# perf-trajectory artifacts at the repository root:
#   BENCH_core.json   gbench_core (google-benchmark JSON: calibrator
#                     sync, Compact, insert/delete/get, page search and
#                     raw page-access microbenchmarks)
#   BENCH_shard.json  shard_scaling (threads x shards throughput sweep)
#   BENCH_cache.json  cache_sweep (buffer-pool size x workload skew:
#                     throughput, hit rate, write amplification)
#   BENCH_obs.json    obs_certify (live BoundCertifier replay: CONTROL 2
#                     vs CONTROL 1 max-per-command access series and
#                     violation counts against the Theorem-5.7 budget)
#   BENCH_ingest.json ingest_sweep (E18: staged vs unstaged write bursts,
#                     physical writes / seeks / drain-step certification,
#                     single-file and sharded replay)
#   BENCH_durable.json durable_sweep (E21: simulated vs MemoryBackend vs
#                     FileBackend buffered/noverify/O_DIRECT — wall
#                     time, preads/pwrites/fdatasyncs, identical
#                     accounted IoStats in every row)
#
# With --sanitize, instead runs the sanitizer matrix: an
# address,undefined build driving the fault-injection / crash-recovery /
# corruption / buffer-pool tests (the error paths ordinary runs rarely
# execute), then a thread build driving the concurrency tests: the
# sharded storms (exclusive and read-mostly shared-lock variants, with
# the pooled storm running one buffer pool per shard mutex), the
# concurrent shared-reader pin test in buffer_pool_test, and the obs
# registry tests.
#
# With --analyze, instead runs the static-analysis gate: the project-rule
# linter, the Clang -Wthread-safety -Werror build, and clang-tidy (layers
# needing clang are skipped with a notice when it is not installed). See
# scripts/run_static_analysis.sh and docs/ANALYSIS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--analyze" ]]; then
  exec ./scripts/run_static_analysis.sh
fi

if [[ "${1:-}" == "--sanitize" ]]; then
  cmake -B build-asan -G Ninja -DDSF_SANITIZE=address,undefined
  cmake --build build-asan
  ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure \
      -R 'fault_injection_test|crash_recovery_fuzz_test|corruption_test|sharded_file_test|fuzz_all_test|buffer_pool_test|ingest_test'
  cmake -B build-tsan -G Ninja -DDSF_SANITIZE=thread
  cmake --build build-tsan
  ctest --test-dir build-tsan --output-on-failure \
    -R 'sharded_file_test|obs_test|buffer_pool_test'
  echo "Sanitizer matrix clean"
  exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
  cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench --target gbench_core shard_scaling cache_sweep \
    obs_certify ingest_sweep durable_sweep
  ./build-bench/bench/gbench_core \
    --benchmark_format=json \
    --benchmark_min_time=0.2 > BENCH_core.json
  ./build-bench/bench/shard_scaling --out=BENCH_shard.json
  ./build-bench/bench/cache_sweep --out=BENCH_cache.json
  ./build-bench/bench/obs_certify --out=BENCH_obs.json
  ./build-bench/bench/ingest_sweep --out=BENCH_ingest.json
  ./build-bench/bench/durable_sweep --out=BENCH_durable.json
  echo "Wrote BENCH_core.json, BENCH_shard.json, BENCH_cache.json," \
    "BENCH_obs.json, BENCH_ingest.json and BENCH_durable.json"
  exit 0
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

mkdir -p results
for bench in build/bench/*; do
  name="$(basename "$bench")"
  [ -x "$bench" ] && [ -f "$bench" ] || continue
  echo "== $name =="
  "$bench" | tee "results/$name.txt"
done
echo "Outputs in results/"
