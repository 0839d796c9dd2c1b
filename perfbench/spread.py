#!/usr/bin/env python3
"""Repeats benchmark runs and prints the spread of every metric.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N] [--trace 0|1] [--json out.json]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
workload and metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the quartile distance as a share of the
median, and that share next to the metric's bound from BENCHMARK.json. It
also prints each run's failed/attempted share. Defaults come from
BENCHMARK.json: every workload, its run_seconds, untraced runs.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    everything = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed/attempted={result['failed']}/{result['attempted']}"
                  f" {result['notes'][0] if result['notes'] else ''}",
                  flush=True)
        everything[workload] = results
        print(f"\n{workload}: {args.runs} runs, {args.seconds} s each")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/median':>12}{'bound':>8}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                print(f"  {name:<26} missing")
                continue
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            share = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            print(f"  {name:<26}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>12.4f}{'' if bound is None else bound:>8}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"  failed share per run: {shares}\n", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
