"""The benchmark's own tests. Run from the checkout root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark through run.py first, and take a few minutes: the
count tests run every workload twice with short runs.
"""

import json
import os
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run as bench  # noqa: E402

# Metrics that count work; a run's seed fixes them exactly.
COUNT_METRICS = (
    "cache.hit_ratio", "cache.evictions",
    "sim.transfers_total", "sim.ops_total", "sim.cycles_total",
    "guest.instructions_total", "guest.atomics_total",
    "router.forwarded", "router.failovers", "router.shed",
    "router.stale_serves",
    "requests.predict", "requests.advise", "requests.calibrate",
    "requests.simulate", "requests.run_guest",
)


def setUpModule():
    bench.build()


def run_bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


class CountMetricsRepeat(unittest.TestCase):
    def test_same_seed_same_counts_and_named_layer_traffic(self):
        for workload in bench.WORKLOADS:
            first, r1 = run_bench(workload, 7, 2, 1)
            second, r2 = run_bench(workload, 7, 2, 1)
            self.assertTrue(r1["correct"] and r2["correct"], workload)
            for name in COUNT_METRICS:
                self.assertEqual(first[name], second[name], (workload, name))
            if workload == "serve_cold":
                self.assertEqual(first["cache.hit_ratio"], 0.0)
                self.assertGreater(first["cache.evictions"], 0)
            if workload == "serve_warm_fleet":
                self.assertEqual(first["cache.hit_ratio"], 1.0)
                for name in ("router.failovers", "router.shed",
                             "router.stale_serves"):
                    self.assertEqual(first[name], 0, name)
            if workload == "batch_sim":
                self.assertGreater(first["sim.transfers_total"], 0)
                self.assertGreater(first["guest.instructions_total"], 0)


class GeneratedInputs(unittest.TestCase):
    def inputs(self, workload, seed):
        return subprocess.run(
            [bench.BINARY, "inputs", "--workload", workload, "--seed",
             str(seed), "--seconds", "20"],
            capture_output=True, text=True, check=True).stdout.strip()

    def test_seed_fixes_inputs_and_another_seed_changes_them(self):
        for workload in bench.WORKLOADS:
            self.assertEqual(self.inputs(workload, 7), self.inputs(workload, 7))
            self.assertNotEqual(self.inputs(workload, 7),
                                self.inputs(workload, 8), workload)


class ModelError(unittest.TestCase):
    def test_mape_is_validate_mape_in_percent_on_t3_grid(self):
        out = subprocess.run([bench.BINARY, "mape-selftest"],
                             capture_output=True, text=True, check=True)
        lines = out.stdout.split("\n")
        checked = 0
        for line in lines:
            if not line.strip():
                continue
            machine, ours, reference = line.split()
            self.assertEqual(float(ours), float(reference), machine)
            self.assertGreater(float(ours), 0.5, machine)  # percent, not fraction
            checked += 1
        self.assertEqual(checked, 2)


if __name__ == "__main__":
    unittest.main()
