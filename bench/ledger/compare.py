#!/usr/bin/env python3
"""Compares two sets of ledger runs against the bounds in BENCHMARK.json.

    python3 bench/ledger/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a ledger that run.py writes when it runs every workload. For each
end-to-end metric and workload the report gives each side's median and
quartiles, the change of the medians, and a verdict:

  better      every new run reads better than every base run
  unresolved  a side's run-to-run spread, the distance between its quartiles
              as a share of its median, is wider than the bound
  WORSE       the new median is worse than the base median by more than the bound
  ok          none of the above

The exit code is 1 when some pairing is WORSE.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    if min(sign * v for v in new) > max(sign * v for v in base):
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    worsening = sign * (b - n) / abs(b) if b else 0.0
    return "WORSE" if worsening > bound else "ok"


def collect(paths):
    """{workload: {metric: [values, one per run]}} from the ledgers at `paths`."""
    out = {}
    for path in paths:
        ledger = json.loads(Path(path).read_text())
        for workload, entry in ledger["workloads"].items():
            for metric, value in entry["metrics"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(value)
    return out


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="ledgers of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="ledgers of the change")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    base, new = collect(args.base), collect(args.new)
    worse = 0
    print(f"base: {len(args.base)} runs, new: {len(args.new)} runs; "
          "median [first quartile, third quartile]")
    for workload in sorted(base.keys() & new.keys()):
        print(f"== {workload}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            v = verdict(b, n, spec["better"], spec["bound"])
            worse += v == "WORSE"
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            print(f"  {name:16s} {spec['unit']:6s} base {fmt(b)}  new {fmt(n)}  "
                  f"{change:+7.1%}  spread {spread(b):.1%}/{spread(n):.1%} "
                  f"bound {spec['bound']:.0%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
