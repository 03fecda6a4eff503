#!/usr/bin/env python3
"""Smoke tests of the round benchmark itself.

Usage (from the root of a checkout):

    python3 perfbench/smoke_test.py

Checks, in about a minute after the build:
  * a tiny shape of every workload, untraced and traced, is correct and
    reports exactly the metrics of BENCHMARK.json, each with its unit;
  * the output check rejects corrupted label vectors
    (fedsc_perfbench --check-selftest);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def main():
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "0", "--trace",
                 str(trace), "--tiny"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            name = f"{workload} --trace {trace} (tiny)"
            if proc.returncode != 0:
                check(False, f"{name}: exit {proc.returncode}", failures)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  f"{name}: result line has exactly the four keys", failures)
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: correct ({json.loads(lines[-2])['failures']})",
                  failures)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected,
                  f"{name}: every {key} metric with its unit", failures)

    selftest = subprocess.run([run.BINARY, "--check-selftest"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
    print(selftest.stdout.strip())
    check(selftest.returncode == 0,
          "the output check rejects corrupted label vectors", failures)

    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local_admm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=bare, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources run.py fails and prints no result", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
