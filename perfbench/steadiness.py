#!/usr/bin/env python3
"""Steadiness check of the round benchmark against its own bounds.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py [--same-seeds]

Runs two interleaved sets of ten perfbench/run.py runs per workload, each
run_seconds long (set A on seeds 1..10, set B on seeds 1001..1010, or on A's
seeds with --same-seeds), and prints, for every end-to-end metric of
BENCHMARK.json, each set's median and quartiles, its spread (interquartile
range over median), and the drift of B's median from A's in the metric's
worse direction. A metric passes when both spreads stay within its bound and
the drift does too; "steady" marks spreads below a third of the bound.
Exits non-zero when any metric fails or any run is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set, as many as the benchmark's acceptance takes


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), context


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(metric, a, b):
    qa = quartiles(a)
    qb = quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else float("inf")
    worse = qb[1] - qa[1] if metric["better"] == "lower" else qa[1] - qb[1]
    drift = worse / qa[1] if qa[1] else float("inf")
    bound = metric["bound"]
    return {
        "bound": bound, "a_q1": qa[0], "a_median": qa[1], "a_q3": qa[2],
        "b_median": qb[1], "spread_a": spread_a, "spread_b": spread_b, "drift": drift,
        "steady": max(spread_a, spread_b) < bound / 3,
        "pass": max(spread_a, spread_b) <= bound and drift <= bound,
    }


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--same-seeds", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: {"A": [], "B": []} for w in workloads}
    incorrect = []
    for i in range(RUNS):
        for w in workloads:
            for label in ("A", "B"):
                seed = 1 + i
                if label == "B" and not args.same_seeds:
                    seed += 1000
                result, context = run_once(w, seed, seconds)
                if not result["correct"]:
                    incorrect.append(f"{w} seed {seed}: "
                                     f"{context.get('failures')}")
                values = {k: v["value"] for k, v in result["metrics"].items()}
                steal = context.get("context", {}).get("steal_frac", 0.0)
                results[w][label].append(values)
                print(f"# {w} set {label} seed {seed}: round_wall_ms "
                      f"{values['round_wall_ms']:.1f} setup_s "
                      f"{values['setup_s']:.3f} steal {steal:.3f}",
                      flush=True)

    ok = not incorrect
    for w in workloads:
        print(f"\n{w}  ({RUNS} runs per set, {seconds} s each)")
        print(f"{'metric':<15}{'A median':>12}{'A q1..q3':>24}{'B median':>12}"
              f"{'spreadA':>9}{'spreadB':>9}{'drift':>8}{'bound':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in results[w]["A"]]
            b = [r[name] for r in results[w]["B"]]
            row = summarize(metric, a, b)
            ok = ok and row["pass"]
            verdict = ("pass" if row["pass"] else "FAIL") + (
                ", steady" if row["steady"] else "")
            print(f"{name:<15}{row['a_median']:>12.4g}"
                  f"{row['a_q1']:>12.4g}{row['a_q3']:>12.4g}"
                  f"{row['b_median']:>12.4g}{row['spread_a']:>9.4f}"
                  f"{row['spread_b']:>9.4f}{row['drift']:>8.4f}"
                  f"{row['bound']:>7.3g}  {verdict}")
    for line in incorrect:
        print("incorrect run: " + line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
