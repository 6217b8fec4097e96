#!/usr/bin/env python3
"""Prints the non-test and total line counts of the workspace's Rust sources.

Run from anywhere inside the repository (no flags):

    python3 scripts/loc.py

Both counts cover every `crates/**/*.rs` file. The total counts every line.
The non-test count skips files under a `tests/` or `benches/` directory, and
in the remaining files it skips each top-level `#[cfg(test)]` + `mod tests`
block, from the attribute line through the closing `}` in column 0.
"""

from pathlib import Path


def non_test_lines(lines):
    count = 0
    i = 0
    while i < len(lines):
        if (lines[i].strip() == "#[cfg(test)]" and i + 1 < len(lines)
                and lines[i + 1].startswith("mod tests")):
            i += 1
            while lines[i] != "}":
                i += 1
        else:
            count += 1
        i += 1
    return count


def main():
    crates = Path(__file__).resolve().parent.parent / "crates"
    total = non_test = 0
    for path in sorted(crates.rglob("*.rs")):
        lines = path.read_text().splitlines()
        total += len(lines)
        if not {"tests", "benches"} & set(path.relative_to(crates).parts):
            non_test += non_test_lines(lines)
    print(f"non-test lines: {non_test:,}")
    print(f"total lines:    {total:,}")


if __name__ == "__main__":
    main()
