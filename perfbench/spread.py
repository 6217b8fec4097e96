#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each metric's
median and run-to-run spread (inter-quartile distance over the median), next
to the bound `BENCHMARK.json` fixes for it.

Run from the repository root:

    python3 perfbench/spread.py                       # 10 seeds, every workload
    python3 perfbench/spread.py --runs 5 --workloads serve_churn
    python3 perfbench/spread.py --trace 1 --runs 2    # per-layer metrics
    python3 perfbench/spread.py --save a.json         # keep this set's medians
    python3 perfbench/spread.py --first-seed 101 --against a.json

Each run gets its own seed (`--first-seed`, +1, ...). Every run must print a
correct result; a metric whose spread exceeds a third of its bound is flagged,
`setup_s` included. With `--against`, each median is also compared with the
same metric's median in an earlier set, and one worse by more than the bound
is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save", help="write this set's medians to a JSON file")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    better = {m["name"]: m["better"] for m in declared}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        workloads = args.workloads.split(",")

    worst = 0.0
    worst_shift = 0.0
    medians = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(spec["command"], workload, args.first_seed + i,
                                    seconds, args.trace)
            walls.append(wall)
            if set(result["metrics"]) != set(bounds):
                sys.exit(f"{workload}: metrics {sorted(result['metrics'])} != declared")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {args.runs} runs, {max(walls):.1f} s slowest")
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median if median else float("inf")
            else:
                spread = 0.0
            medians.setdefault(workload, {})[name] = median
            bound = bounds[name]
            line = f"  {name:<36} median {median:<14.6g} spread {spread:6.1%}"
            if bound is not None:
                worst = max(worst, spread / bound)
                line += f"  bound {bound:.0%}"
                if spread > bound / 3:
                    line += "  <-- spread above bound/3"
            before = earlier.get(workload, {}).get(name)
            if before:
                # How much worse this median is than the earlier one.
                shift = (median - before) / before
                if better[name] == "higher":
                    shift = -shift
                line += f"  vs earlier {shift:+6.1%}"
                if bound is not None:
                    worst_shift = max(worst_shift, shift / bound)
                    if shift > bound:
                        line += "  <-- worse than earlier by more than bound"
            print(line)
    if args.trace == 0:
        print(f"worst spread/bound: {worst:.2f}")
        if earlier:
            print(f"worst shift/bound vs earlier: {worst_shift:.2f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
