#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the program from source
(the repository's own CMake build, then the measuring binary in
perfbench/CMakeLists.txt) under .bench_build/, runs one workload, checks its
outputs against the goldens in perfbench/golden/, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. A per_layer metric whose layer does no work
on the workload reads 0; one whose layer does work must be measured.
--seconds defaults to BENCHMARK.json's run_seconds.

    python3 perfbench/run.py --bless     rewrite perfbench/golden/*.txt

See perfbench/README.md for the workloads, the metrics and the design rules.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
AM_BUILD = os.path.join(BUILD, "am")
BENCH_BUILD = os.path.join(BUILD, "bench")
BINARY = os.path.join(BENCH_BUILD, "perfbench")
WORKER = os.path.join(AM_BUILD, "tools", "am_serve")
WORKLOADS = ("serve_cold", "serve_warm_fleet", "batch_sim")
# Repository targets the benchmark links or spawns; their dependencies
# build with them.
AM_TARGETS = ("am_serve", "am_fleet", "am_service", "am_guest", "am_model")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Per-layer metrics each workload must measure, by name prefix: the layers
# that do work on it. A missing one is a failed operation; any other
# per-layer metric reads 0 there.
LAYERS = {
    "serve_cold": ("server.", "protocol.", "cache.", "handler.miss_",
                   "model.", "sweep.", "sim.", "guest.", "trace.",
                   "requests."),
    "serve_warm_fleet": ("server.", "protocol.", "cache.hit_ratio",
                         "cache.get_", "handler.hit_", "router.", "trace.",
                         "requests."),
    "batch_sim": ("model.", "sweep.", "sim.", "guest."),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile, timeout):
    with open(logfile, "ab") as out:
        out.write(("$ " + " ".join(cmd) + "\n").encode())
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build():
    """Builds the program and the measuring binary; exits 1 on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no program sources next to perfbench/ "
            "(expected CMakeLists.txt and src/ in %s)" % ROOT)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(AM_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", AM_BUILD,
                      "-DAM_BUILD_TESTS=OFF", "-DAM_BUILD_BENCH=OFF",
                      "-DAM_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", AM_BUILD, "-j", jobs, "--target"]
                 + list(AM_TARGETS))
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                      "-DAM_SOURCE_DIR=" + ROOT, "-DAM_BUILD_DIR=" + AM_BUILD])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = run_logged(cmd, logfile, max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = "timeout"
        if rc != 0:
            log("perfbench: build step failed (%s): %s; see %s"
                % (rc, " ".join(cmd), logfile))
            sys.exit(1)


def build_type():
    try:
        with open(os.path.join(AM_BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    value = line.split("=", 1)[1].strip()
                    # Empty means the repository's CMakeLists.txt default.
                    return value or "default (RelWithDebInfo)"
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_golden(name):
    golden = {}
    path = os.path.join(HERE, "golden", name + ".txt")
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                golden[parts[0]] = parts[1]
    return golden


def run_binary(args, out_path, spans_path):
    runtime_dir = os.path.relpath(os.path.join(BUILD, "rt-%d" % os.getpid()),
                                  ROOT)
    os.makedirs(os.path.join(ROOT, runtime_dir), exist_ok=True)
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--worker-binary", WORKER,
           "--runtime-dir", runtime_dir, "--out", out_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    # Its own process group, so fleet workers die with it on a timeout.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = "timeout"
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    # Stray workers, if any: kill the group and wait until it is empty.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    try:
        os.rmdir(os.path.join(ROOT, runtime_dir))
    except OSError:
        pass
    return rc


def bless():
    build()
    for name in ("serve", "batch"):
        out = subprocess.run([BINARY, "bless", name], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout
        with open(os.path.join(HERE, "golden", name + ".txt"), "w") as f:
            f.write(out)
        log("perfbench: wrote golden/%s.txt (%d variants)"
            % (name, len(out.splitlines())))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="recompute perfbench/golden/*.txt and exit")
    args = parser.parse_args()
    if args.bless:
        bless()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    build()

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out_path = os.path.join(results, tag + ".raw.json")
    spans_path = os.path.join(results, tag + ".spans") if args.trace else ""
    if os.path.exists(out_path):
        os.remove(out_path)

    load_before = os.getloadavg()
    started = time.monotonic()
    rc = run_binary(args, out_path, spans_path)
    elapsed = time.monotonic() - started
    load_after = os.getloadavg()
    if rc != 0 or not os.path.isfile(out_path):
        log("perfbench: measuring binary failed (%s)" % rc)
        return 1
    with open(out_path) as f:
        raw = json.load(f)

    failed = raw["failed"]
    errors = list(raw["errors"])
    golden = load_golden(raw["golden"])
    for variant, got in sorted(raw["digests"].items(), key=lambda kv: int(kv[0])):
        want = golden.get(variant)
        if got != want:
            failed += 1
            errors.append("golden mismatch: %s variant %s: %s != %s"
                          % (raw["golden"], variant, got, want))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not args.trace or m["name"].startswith(LAYERS[args.workload]):
                failed += 1
                errors.append("metric %s not measured" % m["name"])
                continue
            value = 0.0  # the layer does no work on this workload
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": build_type(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "elapsed_s": round(elapsed, 3),
    }
    result = {"correct": failed == 0, "attempted": raw["attempted"],
              "failed": failed, "metrics": metrics}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"host": host, "result": result, "errors": errors,
                   "raw": raw}, f, indent=2)

    for e in errors:
        log("perfbench: " + e)
    print("host: " + json.dumps(host))
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
