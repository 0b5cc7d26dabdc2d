#!/usr/bin/env python3
"""Steadiness report: runs the benchmark N times per workload, one seed each,
and prints every metric's median and spread (IQR / median).

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads a,b]
        [--trace 0] [--seconds S]

The spread is the distance between the first and third quartile of the runs'
values, from statistics.quantiles(values, n=4), as a share of their median.
For end-to-end metrics the report marks each spread against a third of the
metric's bound in BENCHMARK.json ("ok" below it). With --sets 2 it runs the
whole suite twice, with fresh seeds, and also marks how much worse the
second set's median is than the first's, against the bound itself. It exits
3 when any mark fails. Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else 0.0)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(workloads, runs, seed0, args):
    """{workload: [result, ...]} for one set of runs; None on a failed run."""
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(runs):
            seed = seed0 + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                      out.returncode, out.stderr[-2000:]), file=sys.stderr)
                return None
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: NOT correct (%d failed)"
                      % (workload, seed, result["failed"]), file=sys.stderr)
            results[workload].append(result)
    return results


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")

    sets = []
    for s in range(args.sets):
        results = run_set(workloads, args.runs, SEED_BASE + s * args.runs, args)
        if results is None:
            return 1
        sets.append(results)

    all_ok = all(r["correct"] for results in sets
                 for runs in results.values() for r in runs)
    for workload in workloads:
        print("\n== %s: %d set(s) of %d runs, --seconds %d, --trace %d ==" % (
            workload, len(sets), args.runs, args.seconds, args.trace))
        for name in sets[0][workload][0]["metrics"]:
            medians = []
            line = "%-36s" % name
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results[workload]]
                med, iqr = spread(values) if len(values) >= 2 else (values[0], 0.0)
                medians.append(med)
                line += "  median %12.6g iqr/median %7.4f" % (med, iqr)
                m = metrics.get(name) if not args.trace else None
                if m is not None:
                    ok = iqr < m["bound"] / 3
                    all_ok = all_ok and ok
                    line += " %-4s" % ("ok" if ok else "HIGH")
            m = metrics.get(name) if not args.trace else None
            if m is not None and len(medians) == 2:
                worse = worse_by(medians[0], medians[1], m["better"])
                ok = worse <= m["bound"]
                all_ok = all_ok and ok
                line += "  2nd worse by %+.4f %s" % (
                    worse, "ok" if ok else "OVER bound %.2f" % m["bound"])
            print(line)
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
