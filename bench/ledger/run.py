#!/usr/bin/env python3
"""Builds and runs the ledger benchmark (see README.md in this directory).

One workload, as BENCHMARK.json's command runs it:

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end_to_end
metrics of BENCHMARK.json with --trace 0, the per_layer ones with --trace 1.

Every workload, one process each:

    python3 bench/ledger/run.py [--seed N] [--trace] [--smoke] [--out PATH]

prints the same per workload and writes a ledger file with a run stamp
(default .bench_build/ledger/ledger-seed<N>.json). --trace adds the traced
run of each workload; --smoke runs 1% of the measured time with every
check on.

Everything the benchmark builds and writes stays under .bench_build/ at the
root of the checkout. The exit code is 0 only when every answer checked out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "ledger"
DATA = ROOT / ".bench_build" / "ledger-data"
WORKLOADS = [
    "point_mix_disk",
    "hotspot_surge",
    "append_ingest",
    "zipf_read_sharded",
    "scan_update",
]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds libdsf and the ledger binary in Release; raises on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"libdsf sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ledger"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def run_workload(name, seed, seconds, trace, reps):
    """Runs the ledger binary on one workload; returns its parsed result line."""
    data = DATA / name
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    cmd = [
        str(BINARY),
        f"--workload={name}",
        f"--dir={data}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={int(trace)}",
        f"--reps={reps}",
    ]
    if trace:
        cmd.append(f"--spans={DATA / f'{name}-seed{seed}.spans.jsonl'}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(proc.stderr[-4000:])
        raise RuntimeError(f"{name}: ledger exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"{name}: ledger exited {proc.returncode}")
    return result


def metric_specs(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def select_metrics(result, specs, trace):
    """The metrics BENCHMARK.json names, with their units; raises if one is missing."""
    source = result["layers" if trace else "metrics"]
    out = {}
    for spec in specs:
        value = source.get(spec["name"])
        if value is None:
            raise RuntimeError(f"{result['workload']}: no value for {spec['name']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_metrics(workload, trace, metrics, result):
    diag = result["diagnostics"]
    stamp = result["stamp"]
    print(f"== {workload} ({'traced' if trace else 'untraced'}, seed {result['seed']}, "
          f"device {stamp['device']}, {diag['measured_ops']} measured ops, "
          f"{result['failed']}/{result['attempted']} failed)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        # Percentiles swing too much between runs on a shared host to
        # carry a bound; they are printed, and kept in the ledger.
        for cls in ("update", "read", "flush"):
            if diag[f"{cls}_samples"] == 0:
                continue
            qs = ("p50", "p99", "p999", "max") if cls != "flush" else ("p50", "p99")
            print(f"  {cls} latency: " + ", ".join(
                f"{q} {diag[f'{cls}_{q}_us']:.4g} us" for q in qs)
                + f" ({diag[f'{cls}_samples']} samples)")
    for key, value in diag.items():
        if key.startswith("error"):
            print(f"  {key}: {value}")


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def one_workload(args):
    build()
    trace = args.trace == 1
    result = run_workload(args.workload, args.seed, args.seconds, trace, reps=5)
    metrics = select_metrics(result, metric_specs(trace), trace)
    print_metrics(args.workload, trace, metrics, result)
    correct = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def ledger_mode(args):
    build()
    seconds = args.seconds * (0.01 if args.smoke else 1)
    reps = 1 if args.smoke else 5
    traces = [False, True] if args.trace else [False]
    ledger = {"stamp": {}, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        entry = {}
        for trace in traces:
            result = run_workload(name, args.seed, seconds, trace, reps)
            metrics = select_metrics(result, metric_specs(trace), trace)
            print_metrics(name, trace, metrics, result)
            all_correct &= bool(result["correct"])
            stamp = result["stamp"]
            ledger["stamp"] = {
                "build_type": stamp["build_type"],
                "compiler": stamp["compiler"],
                "git_sha": git_sha(),
                "host": stamp["host"],
                "nproc": stamp["nproc"],
                "seed": args.seed,
                "seconds": seconds,
                "smoke": args.smoke,
            }
            entry.update({
                "device": stamp["device"],
                "direct_active": stamp["direct_active"],
                "clients": stamp["clients"],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "error_ratio": result["failed"] / result["attempted"],
            })
            key = "layers" if trace else "metrics"
            entry[key] = {n: m["value"] for n, m in metrics.items()}
            entry["ops" if not trace else "traced_ops"] = result["diagnostics"]["measured_ops"]
            entry["diagnostics" if not trace else "traced_diagnostics"] = result["diagnostics"]
        ledger["workloads"][name] = entry
    out = Path(args.out) if args.out else BUILD / f"ledger-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"ledger written to {out}")
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return one_workload(args) if args.workload else ledger_mode(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
