#!/usr/bin/env python3
"""Compares the benchmark of a parent revision with the working tree in
alternating pairs of runs, the way a perf claim is judged.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --parent HEAD --runs 10
    python3 scripts/bench_pairs.py --parent main~1 --runs 10 --workloads serve_churn
    python3 scripts/bench_pairs.py --parent HEAD --runs 3 --seconds 6 --trace 1

The parent is checked out as a detached `git worktree` under
`target/pairs/`, and perfbench is built for it and for the working tree,
each into its own target directory there. For every `BENCHMARK.json`
workload the script then runs N pairs with seeds `--first-seed`, +1, ...;
within a pair both builds get the same seed, and the order alternates
(parent first in even pairs, change first in odd ones) so that slow drift of
the machine cancels out. Each build runs in its own directory, so its
`.bench_out/` fingerprints stay apart.

Every run must print a correct result (`correct`, `failed == 0`), or the
script stops. For each metric it prints both medians and quartiles, the
median change (positive = better), how many pairs the change won, and
whether the gap between the medians exceeds the parent's quartile distance.
A metric whose median got worse by more than its `BENCHMARK.json` bound is
flagged, and the script then exits 1.

Only `perfbench/` is built and only `BENCHMARK.json` is read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_parent(root, rev):
    """A detached worktree of `rev` under target/pairs/, reused when present."""
    sha = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = root / "target" / "pairs" / f"parent-{sha[:12]}"
    if not tree.exists():
        tree.parent.mkdir(parents=True, exist_ok=True)
        git(root, "worktree", "add", "--detach", str(tree), sha)
    return tree, sha


def build(tree, target_dir):
    """Builds perfbench of `tree` into `target_dir`; returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(tree / "perfbench" / "Cargo.toml")],
                   check=True, env=env)
    return target_dir / "release" / "perfbench"


def run_once(binary, cwd, workload, seed, seconds, trace):
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    cwd.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result["correct"] or result["failed"]:
        sys.exit(f"{binary} {workload} seed {seed}: exit {done.returncode}, incorrect run\n"
                 f"{lines[-1] if lines else ''}\n{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(workload, declared, parent, change):
    """Prints one workload's table; returns the names of flagged metrics."""
    flagged = []
    print(f"{workload}: {len(parent)} pairs")
    print(f"  {'metric':<34} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
          f" {'change':>8} {'wins':>6}  gap>IQR")
    for metric in declared:
        name = metric["name"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if p.get(name) is not None and c.get(name) is not None]
        if not pairs:
            continue
        before = [p for p, _ in pairs]
        after = [c for _, c in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        p_med, c_med = statistics.median(before), statistics.median(after)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(before), quartiles(after)
        gain = sign * (c_med - p_med) / p_med if p_med else 0.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        clears = abs(c_med - p_med) > (p_q3 - p_q1)
        line = (f"  {name:<34} " + f"{p_med:.6g} [{p_q1:.4g}, {p_q3:.4g}]".ljust(34)
                + f" {c_med:.6g} [{c_q1:.4g}, {c_q3:.4g}]".ljust(35)
                + f" {gain:>+8.1%} {wins:>3}/{len(pairs):<2}  {'yes' if clears else 'no'}")
        bound = metric.get("bound")
        if bound is not None and -gain > bound:
            line += f"  <-- worse by more than the {bound:.0%} bound"
            flagged.append(f"{workload}.{name}")
        print(line)
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--runs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="all", help="comma-separated, or all")
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 compares the per-layer metrics instead")
    args = parser.parse_args()

    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    with open(root / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        workloads = args.workloads.split(",")

    pairs_dir = root / "target" / "pairs"
    parent_tree, sha = checkout_parent(root, args.parent)
    print(f"parent {sha[:12]} at {parent_tree}")
    builds = {
        "parent": (build(parent_tree, pairs_dir / "target-parent"), pairs_dir / "run-parent"),
        "change": (build(root, pairs_dir / "target-change"), pairs_dir / "run-change"),
    }

    flagged = []
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.runs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary, cwd = builds[side]
                results[side].append(run_once(binary, cwd, workload, seed, seconds, args.trace))
        flagged += report(workload, declared, results["parent"], results["change"])
    if flagged:
        sys.exit(f"worse than parent by more than the bound: {', '.join(flagged)}")


if __name__ == "__main__":
    main()
