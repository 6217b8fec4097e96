#!/usr/bin/env python3
"""Compares the benchmark of a parent revision with the working tree in
alternating pairs of runs, the way a perf claim is judged.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --parent HEAD --runs 10
    python3 scripts/bench_pairs.py --parent main~1 --runs 10 --workloads serve_churn
    python3 scripts/bench_pairs.py --parent HEAD --runs 3 --seconds 6 --trace 1

Both sides are built from copies of equal path length under
`target/pairs/`: the parent is unpacked with `git archive` into
`parent-<first 12 hex of its commit>/`, and the working tree (tracked and
untracked files, minus ignored ones) into `change-<first 12 hex of its tree
object>/`. A copy that already exists is reused. The equal lengths matter:
a binary embeds its source paths, and a longer path shifts the code layout,
which alone has moved `serve_churn` by 8-12 %. Perfbench is built for each
copy into its own target directory there. For every `BENCHMARK.json`
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

When the working tree is the parent's tree (same git tree object, e.g.
`--parent HEAD` on a clean checkout), both builds run the same code and the
run is an A/A check of the measurement itself. Each metric then also gets a
verdict: UNRESOLVED when the parent's quartile distance is wider than the
metric's `BENCHMARK.json` bound (the runs cannot tell a gap of that size from
noise), else PASS when the gap between the medians is within the parent's
quartile distance and FAIL when it exceeds it. Both sides run the same code,
so a FAIL is never a regression: it says the measurement reads a difference
that is not there, at a resolution finer than the bound. Any FAIL makes the
script exit 1; UNRESOLVED does not.

Next to `peak_rss_mb` it prints how much of the median change the call log
can explain. perfbench keeps one 8-byte `f64` per timed op in a growing
`Vec`. The log first fills heap that setup freed, which raises no peak, and
then raises the peak by about 15 B per op (`serve_steady` at 195k / 415k /
644k timed ops peaked at 9.95 / 13.19 / 14.83 MB). So a side that times more
ops (parsed from the `# <workload> timed N ops` line) peaks up to
15 B x (difference in median ops) higher without any other memory growth;
less while its log still fits in freed heap.

Within each pair it also compares the `# <workload> fingerprint ...` lines
(exact counts and answer digest, printed at every `--trace`) and prints, per
workload, whether every pair matched or the first line that differs. A
mismatch is reported only; it does not change the exit status.

Only `perfbench/` is built and only `BENCHMARK.json` is read.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(root, treeish, name):
    """`git archive` of `treeish` unpacked at target/pairs/<name>/, reused when present."""
    tree = root / "target" / "pairs" / name
    if not tree.exists():
        partial = tree.with_name(name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(root), "archive", treeish],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive, check=True)
        partial.rename(tree)
    return tree


def checkout_parent(root, rev):
    """The commit `rev` unpacked at target/pairs/parent-<sha12>/."""
    sha = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    return unpack(root, sha, f"parent-{sha[:12]}"), sha


def copy_change(root):
    """The working tree unpacked at target/pairs/change-<sha12>/: its files
    are written to a tree object through a throwaway index, so the real
    index is untouched."""
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(scratch) / "index"))
        subprocess.run(["git", "-C", str(root), "add", "-A"], check=True, env=env)
        sha = subprocess.run(["git", "-C", str(root), "write-tree"], check=True, env=env,
                             capture_output=True, text=True).stdout.strip()
    return unpack(root, sha, f"change-{sha[:12]}"), sha


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
    fingerprint = [line for line in lines if line.startswith(f"# {workload} fingerprint ")]
    timed = [line for line in lines if line.startswith(f"# {workload} timed ")]
    ops = int(timed[0].split()[3]) if timed else None
    return {name: m["value"] for name, m in result["metrics"].items()}, fingerprint, ops


def report_fingerprints(workload, seeds, parent, change):
    """Prints whether every pair's fingerprint lines matched, else the first difference."""
    for seed, before, after in zip(seeds, parent, change):
        if before != after:
            first = next((b, a) for b, a in zip_longest(before, after) if b != a)
            print(f"{workload}: fingerprints differ at seed {seed}:\n"
                  f"  parent: {first[0]}\n  change: {first[1]}")
            return
    print(f"{workload}: fingerprints match in all {len(seeds)} pairs")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# Peak growth per timed op once the call log has outgrown freed heap.
CALL_LOG_BYTES_PER_OP = 15


def call_log_note(parent_ops, change_ops, rss_change_mb):
    """The part of a peak_rss_mb change that the per-op call log can explain."""
    parent_med, change_med = statistics.median(parent_ops), statistics.median(change_ops)
    log_mb = CALL_LOG_BYTES_PER_OP * (change_med - parent_med) / 2**20
    return (f"  {'':<34} call log: up to {CALL_LOG_BYTES_PER_OP} B x ({change_med:.0f} -"
            f" {parent_med:.0f}) median timed ops = {log_mb:+.3f} MB of the"
            f" {rss_change_mb:+.3f} MB median change (less while the log fits in freed heap)")


def report(workload, declared, parent, change, ops, same_tree):
    """Prints one workload's table; returns the names of the metrics flagged
    against their bound and, for an A/A run, of those whose median gap
    exceeds the parent's quartile distance while that distance is within the
    bound."""
    flagged, aa_failed = [], []
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
        if same_tree:
            if bound is not None and p_med and (p_q3 - p_q1) / p_med > bound:
                line += "  A/A UNRESOLVED (parent spread wider than the bound)"
            elif clears:
                line += "  A/A FAIL (same code, gap beyond the parent's spread)"
                aa_failed.append(f"{workload}.{name}")
            else:
                line += "  A/A PASS"
        if bound is not None and -gain > bound:
            line += f"  <-- worse by more than the {bound:.0%} bound"
            flagged.append(f"{workload}.{name}")
        print(line)
        if name == "peak_rss_mb" and None not in ops["parent"] + ops["change"]:
            print(call_log_note(ops["parent"], ops["change"], c_med - p_med))
    return flagged, aa_failed


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
    change_tree, change_tree_sha = copy_change(root)
    print(f"parent {sha[:12]} at {parent_tree}\nchange at {change_tree}")
    same_tree = change_tree_sha == git(root, "rev-parse", f"{sha}^{{tree}}")
    if same_tree:
        print("A/A run: the working tree is the parent's tree. A metric is unresolved when"
              " the parent's quartile distance is wider than its bound, and fails when its"
              " median gap exceeds that distance; a failure is measurement noise, not a"
              " regression, since both sides run the same code")
    builds = {
        "parent": (build(parent_tree, pairs_dir / "target-parent"), pairs_dir / "run-parent"),
        "change": (build(change_tree, pairs_dir / "target-change"), pairs_dir / "run-change"),
    }

    flagged, aa_failed = [], []
    for workload in workloads:
        results = {"parent": [], "change": []}
        fingerprints = {"parent": [], "change": []}
        ops = {"parent": [], "change": []}
        seeds = [args.first_seed + i for i in range(args.runs)]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                binary, cwd = builds[side]
                metrics, fingerprint, timed = run_once(binary, cwd, workload, seed, seconds,
                                                       args.trace)
                results[side].append(metrics)
                fingerprints[side].append(fingerprint)
                ops[side].append(timed)
        bound_flags, aa_flags = report(workload, declared, results["parent"], results["change"],
                                       ops, same_tree)
        flagged += bound_flags
        aa_failed += aa_flags
        report_fingerprints(workload, seeds, fingerprints["parent"], fingerprints["change"])
    failures = []
    if flagged:
        failures.append(f"worse than parent by more than the bound: {', '.join(flagged)}")
    if aa_failed:
        failures.append("A/A (same code) gap exceeds the parent's quartile distance, so the"
                        f" measurement does not resolve: {', '.join(aa_failed)}")
    elif same_tree:
        print("A/A verdict: PASS")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
