#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

    python3 pipebench/steady.py [--runs N] [--seed-base B]
                                [--save FILE] [--compare FILE]

Run from the repository root. Runs every workload of BENCHMARK.json N times
through pipebench/run.py for its run_seconds, seeds B, B+1, ..., B+N-1, one
run at a time. For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound; a spread over a third of
the bound is marked. --save writes the raw values; --compare reads such a
file and checks that no median got worse than the saved one by more than
the bound. Exits 1 if a spread exceeds its bound, a median comparison
fails, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    ok = True
    values = {}
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, seconds)
            if result is None:
                print(f"{workload} seed {seed}: run failed", flush=True)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                if name in values[workload]:
                    values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: done", flush=True)

        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, {seconds} s each")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            series = values[workload][name]
            if len(series) < 2:
                print(f"  {name:28} missing")
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            mark = ""
            if spread > metric["bound"] / 3:
                mark = "  over a third of the bound"
            if spread > metric["bound"]:
                mark = "  OVER BOUND"
                ok = False
            line = (f"  {name:28} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                    f"{spread:8.3f} {metric['bound']:6.2f}{mark}")
            old = previous.get(workload, {}).get(name)
            if old:
                change = worse_by(metric, statistics.median(old), median)
                line += f"  vs saved: {change:+.3f}"
                if change > metric["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
