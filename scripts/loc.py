#!/usr/bin/env python3
"""Prints the workspace's code-size counts and gates its public surface.

Run from anywhere inside the repository (no flags):

    python3 scripts/loc.py

Both line counts cover every `crates/**/*.rs` file. The total counts every
line. The non-test count skips files under a `tests/` or `benches/` directory,
and in the remaining files it skips each top-level `#[cfg(test)]` +
`mod tests` block, from the attribute line through the closing `}` in
column 0.

The third line counts the *test-only* `pub fn`s: functions declared `pub fn`
in `crates/*/src` whose name appears nowhere in the non-test corpus except on
its own definition. The corpus is `crates/*/src` without the test blocks,
plus `examples/`, `perfbench/src` and `src/lib.rs`; tests and benches do not
count as callers. The scan matches names (a mention in a comment or any
same-named item counts as a use), so the count is a lower bound. Every
test-only name must be listed in `KEEP` with a one-line reason, and every
`KEEP` entry must still be test-only: the script exits 1 otherwise, which is
how `scripts/smoke.sh` holds the surface to what the system calls.
"""

import re
import sys
from pathlib import Path

# Test-only `pub fn`s that stay public, each with the reason it stays.
KEEP = {
    "is_complete": "verdict of the symbolic collective simulators, which "
    "collective_bench and the integration tests run against the closed-form "
    "costs; a #[cfg(test)] item cannot reach them",
    "utilization_histogram": "per-link peak-utilisation distribution of a "
    "multi-job replay, the DCN congestion view the interference experiments "
    "summarise as hot_links",
    "reconfigurations_per_node": "Appendix G.3's per-node fast-switch count "
    "(log2 EP - 1) on the Binary-Hop wiring",
    "mean_repair_time": "mean time to repair of a fault trace, the statistic "
    "GeneratorConfig::mean_time_to_repair calibrates",
    "from_node_rank": "inverse of GpuId::node in the GPU-id arithmetic that "
    "hbd-types' public-API contract test pins; returns UnknownEntity for a "
    "rank outside the node",
}

ROOT = Path(__file__).resolve().parent.parent
PUB_FN = re.compile(r"^\s*pub fn (\w+)")
WORD = re.compile(r"\w+")


def strip_test_blocks(lines):
    """Returns `lines` without the top-level `#[cfg(test)] mod tests` blocks."""
    kept = []
    i = 0
    while i < len(lines):
        if (lines[i].strip() == "#[cfg(test)]" and i + 1 < len(lines)
                and lines[i + 1].startswith("mod tests")):
            i += 1
            while lines[i] != "}":
                i += 1
        else:
            kept.append(lines[i])
        i += 1
    return kept


def test_only_pub_fns():
    """Maps each test-only `pub fn` name to the files that define it."""
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs"))
    corpus = {path: strip_test_blocks(path.read_text().splitlines())
              for path in sources}
    for path in [*sorted(ROOT.glob("examples/*.rs")),
                 *sorted(ROOT.glob("perfbench/src/*.rs")), ROOT / "src/lib.rs"]:
        corpus[path] = path.read_text().splitlines()
    defined = {}
    for path in sources:
        lines = corpus[path]
        for i, line in enumerate(lines):
            match = PUB_FN.match(line)
            if match and not (i > 0 and lines[i - 1].strip() == "#[cfg(test)]"):
                defined.setdefault(match.group(1), set()).add(path)
    used = set()
    for lines in corpus.values():
        for line in lines:
            match = PUB_FN.match(line)
            for word in WORD.finditer(line):
                if match and word.start() == match.start(1):
                    continue
                used.add(word.group())
    return {name: paths for name, paths in defined.items() if name not in used}


def non_test_lines(lines):
    return len(strip_test_blocks(lines))


def main():
    crates = ROOT / "crates"
    total = non_test = 0
    for path in sorted(crates.rglob("*.rs")):
        lines = path.read_text().splitlines()
        total += len(lines)
        if not {"tests", "benches"} & set(path.relative_to(crates).parts):
            non_test += non_test_lines(lines)
    test_only = test_only_pub_fns()
    print(f"non-test lines: {non_test:,}")
    print(f"total lines:    {total:,}")
    print(f"test-only pub fns: {len(test_only)}")
    unlisted = sorted(set(test_only) - set(KEEP))
    stale = sorted(set(KEEP) - set(test_only))
    for name in unlisted:
        files = ", ".join(str(p.relative_to(ROOT)) for p in sorted(test_only[name]))
        print(f"error: test-only `pub fn {name}` ({files}): delete it, make it "
              f"private or #[cfg(test)], or list it in KEEP with a reason",
              file=sys.stderr)
    for name in stale:
        print(f"error: KEEP lists `{name}`, which is no longer a test-only "
              f"pub fn: drop the entry", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
