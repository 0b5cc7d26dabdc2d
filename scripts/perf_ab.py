#!/usr/bin/env python3
"""Paired A/B perf gate for the simulator core.

Runs two builds of bench_sim_core -- a base (e.g. the merge-base) and a
candidate (HEAD) -- interleaved on one host, alternating which one runs
first in each pair, and compares the `points_per_sec` each reports per
preset. A committed points/sec baseline cannot be gated: on shared hosts the
same binary swings by well over 10% between back-to-back runs. The ratio of
two runs taken a fraction of a second apart divides most of that drift out.
Many short invocations beat a few long best-of-N ones: the host's speed
drifts on a time scale of about a second, so a short pair usually sits
inside one phase, and the median over many pairs shrugs off the rest.

For every preset the gate reports the median of the per-pair ratios
(candidate / base) with a seeded bootstrap 95% CI of that median, and fails
when the whole CI lies below BOUND. It reads only `preset` and
`points_per_sec` from each JSON, so it can compare a build from before or
after any change to the bench's other output fields.

Usage:
  scripts/perf_ab.py BASE_BENCH_SIM_CORE CANDIDATE_BENCH_SIM_CORE

Exit codes: 0 pass, 1 regression, 2 bad usage, or a run failed or emitted
bad JSON.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

PAIRS = 240            # interleaved (base, candidate) pairs
BENCH_ARGS = ["--reps", "1", "--scale", "1"]  # one invocation, ~0.1 s
BOUND = 0.95           # fail when the CI of the median ratio is wholly below
BOOTSTRAP = 2000       # bootstrap resamples
SEED = 20190807        # bootstrap RNG seed (fixed: same runs, same verdict)


def run_bench(binary, json_path):
    """Runs one bench invocation; returns {preset: points_per_sec}."""
    try:
        subprocess.run([binary, *BENCH_ARGS, "--json-out", json_path],
                       check=True, stdout=subprocess.DEVNULL)
        with open(json_path) as f:
            doc = json.load(f)
        return {p["preset"]: float(p["points_per_sec"])
                for p in doc["presets"]}
    except (OSError, subprocess.CalledProcessError, ValueError,
            KeyError, TypeError) as e:
        print(f"error: {binary}: {e}", file=sys.stderr)
        sys.exit(2)


def bootstrap_ci(values, rng):
    """95% percentile-bootstrap CI of the median of @p values."""
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def main():
    if len(sys.argv) != 3:
        print("usage: perf_ab.py BASE_BENCH_SIM_CORE CANDIDATE_BENCH_SIM_CORE",
              file=sys.stderr)
        return 2
    base_bin, cand_bin = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.json")
        # One unrecorded run each: page in both binaries before timing.
        run_bench(base_bin, out)
        run_bench(cand_bin, out)
        ratios = {}
        for i in range(PAIRS):
            if i % 2 == 0:
                base = run_bench(base_bin, out)
                cand = run_bench(cand_bin, out)
            else:
                cand = run_bench(cand_bin, out)
                base = run_bench(base_bin, out)
            for preset, pps in base.items():
                if preset not in cand:
                    print(f"error: candidate did not report {preset}",
                          file=sys.stderr)
                    sys.exit(2)
                ratios.setdefault(preset, []).append(cand[preset] / pps)

    rng = random.Random(SEED)
    failed = []
    print(f"paired A/B: {PAIRS} pairs of bench_sim_core "
          f"{' '.join(BENCH_ARGS)}, bound {BOUND}")
    for preset, rs in sorted(ratios.items()):
        lo, hi = bootstrap_ci(rs, rng)
        verdict = "FAIL" if hi < BOUND else "ok"
        print(f"{preset:6s} median ratio {statistics.median(rs):.3f}  "
              f"95% CI [{lo:.3f}, {hi:.3f}]  "
              f"pairs {' '.join(f'{r:.3f}' for r in rs)}  {verdict}")
        if verdict == "FAIL":
            failed.append(preset)
    if failed:
        print(f"simulator-core perf regression on {', '.join(failed)}: the "
              f"candidate is slower than the base beyond {1 - BOUND:.0%} "
              f"with 95% confidence", file=sys.stderr)
        return 1
    print("simulator-core perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
