#!/usr/bin/env python3
"""Round benchmark of fedsc: one federated round per timed sample.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload local_admm --seed 1 --seconds 20 \
        --trace 0

Builds perfbench/ (the fedsc libraries from src/ plus the benchmark program)
as a Release build under .bench_build/perfbench, runs the workload, and
prints the host context on one line and the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see perfbench/README.md). Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fedsc_perfbench")
WORKLOADS = ("local_admm", "many_devices", "tall_defended")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    with open(log_path, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def cached_build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures once and (re)builds; a no-op when nothing changed."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cached_build_type() != "Release":
            rc = run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"], log_path)
            if rc != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log_path)
    if rc != 0 or cached_build_type() != "Release":
        return False
    return os.path.exists(BINARY)


def build_failed():
    log_path = os.path.join(BUILD_DIR, "build.log")
    try:
        with open(log_path, errors="replace") as f:
            tail = f.readlines()[-20:]
    except OSError:
        tail = []
    log("build failed; last lines of " + log_path + ":")
    sys.stderr.write("".join(tail))
    return 1


def cpu_ticks():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0, sum(fields[:8]))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_average():
    try:
        return [float(v) for v in open("/proc/loadavg").read().split()[:3]]
    except (OSError, ValueError):
        return []


def host_context(before, after, load_before, report):
    affinity = sorted(os.sched_getaffinity(0))
    context = {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_average(),
    }
    if before and after:
        steal = after[0] - before[0]
        total = after[1] - before[1]
        context["steal_jiffies"] = steal
        context["steal_frac"] = steal / total if total > 0 else 0.0
    context.update(report.get("context", {}))
    return context


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="millisecond shapes (smoke tests only)")
    args = parser.parse_args()

    if not build():
        return build_failed()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    load_before = load_average()
    before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    after = cpu_ticks()
    if proc.returncode != 0:
        log(f"fedsc_perfbench exited with {proc.returncode}")
        sys.stderr.write(proc.stderr[-4000:])
        return 1
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("fedsc_perfbench printed no result")
        return 1

    correct = bool(report["correct"])
    metrics = report["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None:
        if set(metrics) != set(expected) or any(
                metrics[name]["unit"] != unit
                for name, unit in expected.items()):
            correct = False
            report.setdefault("failures", []).append(
                "reported metrics differ from BENCHMARK.json")
    context = host_context(before, after, load_before, report)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "context": context,
                      "failures": report.get("failures", [])}))
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
