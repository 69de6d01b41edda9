#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, beside its bound.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--traced]

Runs each workload --runs times through perfbench/run.py for
BENCHMARK.json's run_seconds, with seeds 1..runs, and prints for every
end-to-end metric the median, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, and the
bound from BENCHMARK.json. A spread below a third of its bound is marked
"steady", one above its bound "TOO NOISY". It also prints the failed
share of every run, which must be identical across runs.
With --traced, one traced run per workload follows, and the gap between
its timed-phase throughput and the untraced median is reported as the
tracing overhead. Raw results go to .bench_build/perfbench/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    raw = {}
    for workload in args.workloads.split(","):
        if workload not in names:
            sys.exit(f"unknown workload {workload}; known: {', '.join(names)}")
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(1, args.runs + 1)]
        raw[workload] = {"untraced": runs}
        print(f"\n{workload}: {args.runs} runs of {seconds} s, seeds 1..{args.runs}")
        print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>7}  verdict")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < metric["bound"] / 3:
                verdict = "steady"
            elif spread <= metric["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            print(f"  {metric['name']:<18} {med:>14.6g} {spread:>8.2%} "
                  f"{metric['bound']:>7.0%}  {verdict}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"  failed share per run: {', '.join(f'{s:.6f}' for s in shares)}"
              f"{'' if len(shares) == 1 else '  NOT IDENTICAL'}")
        if args.traced:
            traced = run_once(workload, 1, seconds, 1)
            raw[workload]["traced"] = traced
            untraced = statistics.median(
                r["metrics"]["throughput_per_s"]["value"] for r in runs)
            phase = traced["metrics"]["trace.phase_throughput_per_s"]["value"]
            print(f"  tracing overhead: traced phase {phase:.6g}/s vs untraced "
                  f"median {untraced:.6g}/s ({(untraced - phase) / untraced:+.2%})")

    out = os.path.join(ROOT, ".bench_build", "perfbench", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"\nraw results: {os.path.relpath(out, ROOT)}")


if __name__ == "__main__":
    main()
