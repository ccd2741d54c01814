#!/usr/bin/env python3
"""End-to-end benchmark: edge list on disk -> converged partition -> serving.

Run from the repository root:

    python3 shpbench/run.py --workload shp2-social-text --seed 1 \
        --seconds 30 --trace 0
    python3 shpbench/run.py --workload all --seconds 30

One run builds the benchmark program (shpbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's input from --seed several times
in separate processes (the median is `setup_s`), then repeats the timed
operation in fresh processes until --seconds have passed and reports
medians, wall times scaled to a reference clock. With --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones plus the tracing overhead.
Every operation's output checks are counted; the last stdout line is one
JSON object {correct, attempted, failed, metrics}. Metric names and units
come from BENCHMARK.json. See shpbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["shp2-social-text", "shpk-bsp-spill", "serving-diurnal"]
SETUP_REPEATS = 5
# Pool size for the timed operations. With one thread the library's
# ParallelFor runs inline on the caller, so a run measures the program
# rather than the scheduler of a shared host. Trajectories are deterministic
# per thread count.
THREADS = 1
# Every wall time is reported at a reference clock: an operation's times are
# multiplied by REFERENCE_CALIBRATION_MS over the time the benchmark's own
# fixed integer loop took in that process, and its rates divided by it. The
# shared host's CPU clock drifted by a third within minutes, and that moved
# every wall time with it (README.md, "Clock calibration").
REFERENCE_CALIBRATION_MS = 100.0
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("MB/s", "kq/s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and (re)builds the benchmark program; returns its
    path."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(max(1, min(4, os.cpu_count() or 1)))],
                   check=True, stdout=sys.stderr, timeout=800)
    return os.path.join(build_dir, "shpbench")


def child_env():
    env = dict(os.environ)
    env["SHP_BENCH_THREADS"] = str(THREADS)
    # A fixed mmap threshold turns off glibc's dynamic one, so every large
    # block is mapped and unmapped on its own. Otherwise whether a freed
    # block is reused depends on the heap layout, which shifts with the
    # environment and the paths, and VmHWM of the same input moved by 15%.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def generate(binary, workload, seed, work_dir):
    """Writes the workload input SETUP_REPEATS times; returns the wall times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: subprocess polls a timed wait in 50 ms steps, which
        # would quantize the measured set-up time.
        subprocess.run([binary, "gen", "--workload=" + workload,
                        "--seed=%d" % seed, "--dir=" + work_dir],
                       check=True, env=child_env())
        times.append(time.perf_counter() - start)
    return times


def run_once(binary, workload, work_dir, trace):
    """One timed operation in a fresh process. Returns its RESULT dict, or
    None when the process died without one (counted as a failed operation
    by the caller, never dropped)."""
    proc = subprocess.run([binary, "run", "--workload=" + workload,
                           "--dir=" + work_dir, "--trace=%d" % trace],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), timeout=170, text=True)
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        log("FAILED OPERATION: %s run exited %d without a result"
            % (workload, proc.returncode))
        return None
    return json.loads(lines[-1][len("RESULT "):])


def clock_factor(result):
    """Scales one operation's wall times to the reference clock."""
    return REFERENCE_CALIBRATION_MS / result["calibration_ms"]


def median_of(results, key, unit):
    """Median over operations, wall times and rates at the reference clock
    and every other unit as measured."""
    def value(r):
        if unit in TIME_UNITS:
            return r[key] * clock_factor(r)
        if unit in RATE_UNITS:
            return r[key] / clock_factor(r)
        return r[key]
    return statistics.median(value(r) for r in results)


def measure(binary, workload, seed, seconds, trace, manifest):
    work_dir = os.path.join(ROOT, ".bench_work", workload)
    os.makedirs(work_dir, exist_ok=True)
    setup = generate(binary, workload, seed, work_dir)

    # Each operation is one attempt, plus the output checks it ran; an
    # operation that died without a result is one failure.
    plain, traced = [], []
    runs = {0: 0, 1: 0}
    attempted = failed = crashed = 0
    start = time.perf_counter()
    while True:
        complete = plain and (traced or not trace)
        if complete and time.perf_counter() - start >= seconds:
            break
        if not complete and crashed >= 3:
            raise RuntimeError("%s: no operation completed" % workload)
        mode = 1 if trace and runs[1] < runs[0] else 0
        runs[mode] += 1
        result = run_once(binary, workload, work_dir, mode)
        attempted += 1
        if result is None:
            failed += 1
            crashed += 1
            continue
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        (traced if mode else plain).append(result)

    thread_counts = {int(r["threads"]) for r in plain + traced}
    calibration_ms = statistics.median(
        r["calibration_ms"] for r in plain + traced)

    # Set-up runs just before the operations, so it is scaled by their
    # median calibration.
    values = {"setup_s": statistics.median(setup)
              * REFERENCE_CALIBRATION_MS / calibration_ms}
    if trace:
        specs = manifest["per_layer"]
        for spec in specs:
            name = spec["name"]
            if name == "trace.overhead_pct":
                base = median_of(plain, "op_s", "s")
                values[name] = 100.0 * (
                    median_of(traced, "op_s", "s") - base) / base
            elif name == "run.threads":
                values[name] = float(max(thread_counts))
            elif name == "host.calibration_ms":
                values[name] = calibration_ms
            else:
                values[name] = median_of(traced, name, spec["unit"])
    else:
        specs = manifest["end_to_end"]
        for spec in specs:
            if spec["name"] != "setup_s":
                values[spec["name"]] = median_of(plain, spec["name"],
                                                 spec["unit"])

    print("workload %s seed %d: %d untraced + %d traced operations "
          "completed, %d failed, %d threads"
          % (workload, seed, len(plain), len(traced), crashed,
             max(thread_counts)))
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print("  %-36s %16.6f %s" % (spec["name"], value, spec["unit"]))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    binary = build()

    if args.workload != "all":
        result = measure(binary, args.workload, args.seed, args.seconds,
                         args.trace, manifest)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload, untraced and traced, one summary line at the end.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(binary, workload, args.seed, args.seconds,
                             trace, manifest)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
