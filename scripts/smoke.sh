#!/usr/bin/env bash
# Local mirror of the CI gate: tier-1 verify plus lints (clippy also checks
# the examples and benches). Run from the repo root before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench build + correctness runs (separate workspace)"
# perfbench/ is its own Cargo workspace, so nothing above compiles it. Every
# run first checks a reference prefix of answers against the orchestrator's
# oracles and exits non-zero on a wrong one, so one short run per
# BENCHMARK.json workload gates the serving path's correctness. Runs happen
# under target/smoke/ so their .bench_out/ lands there.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
perfbench="$PWD/target/perfbench/release/perfbench"
mkdir -p target/smoke/perfbench
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  (cd target/smoke/perfbench && "$perfbench" --workload "$workload" --seed 7 --seconds 1 --trace 0 > /dev/null)
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc gate, -D warnings)"
# Doc rot fails the build: broken intra-doc links or missing docs on public
# items (every crate opts into #![warn(missing_docs)]) become hard errors.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> criterion micro-benches (JSON baselines)"
# The criterion shim appends one JSON record per benchmark to CRITERION_JSON;
# CRITERION_SAMPLES keeps the pass cheap. The experiments driver below folds
# the records into bench_results.json under the "microbenches" key.
mkdir -p target/smoke
rm -f target/smoke/criterion.jsonl
CRITERION_JSON="$PWD/target/smoke/criterion.jsonl" CRITERION_SAMPLES=3 cargo bench -q

echo "==> experiments driver (smoke scale)"
# Run the full registry at a small scale factor and leave the collated outputs
# under target/smoke/ (CI uploads them as workflow artifacts).
cargo run --release --bin experiments -- \
  --scale 0.05 --threads 2 \
  --md target/smoke/EXPERIMENTS.md --out target/smoke/bench_results.json \
  --bench-json target/smoke/criterion.jsonl

echo "==> EXPERIMENTS.md freshness + wall-clock deltas"
# The committed EXPERIMENTS.md must match a full-scale regeneration at the
# default seed — otherwise an experiment changed without refreshing the
# tracked artifact (refresh: cargo run --release --bin experiments).
# --compare prints per-experiment wall-clock deltas against the repo-root
# bench_results.json — informational only (wall-clock is machine-dependent),
# so the log surfaces perf regressions without gating on them. The baseline
# must be a FULL-SCALE run to be like-for-like with this compare site:
# locally it exists after any full regeneration (gitignored); on a fresh CI
# checkout it is absent and the report degrades to a one-line skip. A CI job
# can opt in by restoring the previous push's bench_results.full.json
# artifact to ./bench_results.json before running this script (the
# smoke-scale target/smoke/bench_results.json is NOT comparable here).
# --warn-over prints a visible (still non-fatal) summary of experiments whose
# wall-clock grew to 2x or more of the baseline, so CI logs surface real
# regressions without failing on machine jitter. The driver now refuses
# --warn-over when the baseline is missing or unusable (the gating flag must
# not silently no-op), so the compare pair is only passed when the baseline
# file actually exists.
if [ -f bench_results.json ]; then
  cargo run --release --bin experiments -- \
    --md target/smoke/EXPERIMENTS.full.md --out target/smoke/bench_results.full.json \
    --compare bench_results.json --warn-over 2.0
else
  echo "    (no ./bench_results.json baseline — full regeneration without compare)"
  cargo run --release --bin experiments -- \
    --md target/smoke/EXPERIMENTS.full.md --out target/smoke/bench_results.full.json
fi
diff -u EXPERIMENTS.md target/smoke/EXPERIMENTS.full.md

echo "==> control-plane sim seed replay gate"
# Replays the two regression seeds pinned in crates/control/src/sim.rs
# through the public CLI: the driver exits non-zero if the run misses
# convergence or records any invariant violation. The full-registry
# regeneration above already re-sweeps all 1200 seeded orderings — its
# violations column gates through the EXPERIMENTS.md diff.
cargo run --release --bin experiments -- \
  --sim-seed 260778234563238397 --sim-profile clean > /dev/null
cargo run --release --bin experiments -- \
  --sim-seed 1495124568307875091 --sim-profile reorder > /dev/null

echo "All smoke checks passed."
