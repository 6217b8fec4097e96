//! The experiment harness.
//!
//! Every table and figure of the paper's evaluation is one **registered
//! experiment** ([`registry`]): a named function from a [`registry::RunCtx`]
//! (seed, thread count, scale factor) to a list of [`Table`]s. The
//! `experiments` binary runs the whole registry in-process,
//! regenerating `EXPERIMENTS.md` and a machine-readable `bench_results.json`;
//! `experiments --only <name> [--json] [--seed <u64>]` runs one experiment
//! and prints its tables to stdout.
//!
//! Every experiment is deterministic in `(seed, scale)` and **invariant in the
//! thread count**: stochastic sweeps draw from per-shard RNG streams derived
//! from the master seed (see [`par`]), so `--threads 1` and `--threads N`
//! produce byte-identical JSON — the property the workspace-level
//! `integration_determinism` suite asserts for all 37 registered experiments.

pub mod experiments;
pub mod registry;
pub mod table;

/// The scoped fan-out pool used by the parallel sweeps, re-exported from
/// `hbd_types::par` so harness code can say `bench::par::par_map`.
pub mod par {
    pub use infinitehbd::hbd_types::par::{par_map, par_map_range, par_map_seeded, stream_seed};
}

/// The placement-query service layer, re-exported from
/// `orchestrator::service` so harness code and benches can say
/// `bench::service::PlacementService`.
pub mod service {
    pub use infinitehbd::orchestrator::service::{
        BatchReport, BatchStats, ClusterSnapshot, PatchTally, PlacementAnswer, PlacementQuery,
        PlacementService, QueryCost, QueryKind, SnapshotDelta, SnapshotStore,
    };
}

pub use table::Table;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parses the common CLI flags of the `experiments` binary: `--seed <u64>`,
/// `--threads <n>`, `--scale <f64>` and `--json`.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// RNG master seed used by every stochastic experiment.
    pub seed: u64,
    /// Emit machine-readable JSON instead of the plain-text table.
    pub json: bool,
    /// Worker threads for the parallel sweeps (results are identical for any
    /// value; this only changes wall-clock time).
    pub threads: usize,
    /// Scale factor applied to sample counts / trial counts / trace lengths;
    /// `1.0` reproduces the paper-sized experiments, smaller values give a
    /// proportionally cheaper smoke run.
    pub scale: f64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            seed: 42,
            json: false,
            threads: 1,
            scale: 1.0,
        }
    }
}

/// One-line usage string of the common flags.
pub const USAGE: &str = "usage: <binary> [--seed <u64>] [--threads <n>] [--scale <f64>] [--json]";

impl HarnessArgs {
    /// Parses the common flags out of `argv`, returning the parsed arguments
    /// and any unrecognised arguments (in order) for the caller to interpret
    /// or reject. Malformed values for recognised flags are hard errors.
    pub fn try_parse(argv: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut args = HarnessArgs::default();
        let mut leftover = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--seed" => {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| "--seed requires a value".to_string())?;
                    args.seed = value.parse().map_err(|_| {
                        format!("malformed --seed value '{value}' (expected a u64)")
                    })?;
                    i += 1;
                }
                "--threads" => {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| "--threads requires a value".to_string())?;
                    args.threads = value.parse().map_err(|_| {
                        format!("malformed --threads value '{value}' (expected a positive integer)")
                    })?;
                    if args.threads == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    i += 1;
                }
                "--scale" => {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| "--scale requires a value".to_string())?;
                    args.scale = value.parse().map_err(|_| {
                        format!("malformed --scale value '{value}' (expected a float)")
                    })?;
                    if !(args.scale > 0.0 && args.scale.is_finite()) {
                        return Err(format!(
                            "--scale must be a positive finite number, got {value}"
                        ));
                    }
                    i += 1;
                }
                "--json" => args.json = true,
                other => leftover.push(other.to_string()),
            }
            i += 1;
        }
        Ok((args, leftover))
    }

    /// A seeded RNG for the experiment.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// Prints a named series as aligned columns (legacy helper, kept as the
/// text-rendering primitive behind [`Table::print_text`]).
pub fn print_series(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    println!(
        "{}",
        header
            .iter()
            .map(|h| format!("{h:>16}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for row in rows {
        println!(
            "{}",
            row.iter()
                .map(|c| format!("{c:>16}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!();
}

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fmt_rounds_to_requested_precision() {
        assert_eq!(fmt(2.4652, 2), "2.47");
        assert_eq!(fmt(0.4821, 4), "0.4821");
    }

    #[test]
    fn try_parse_reads_every_flag() {
        let (args, leftover) = HarnessArgs::try_parse(&argv(&[
            "--seed",
            "7",
            "--threads",
            "4",
            "--scale",
            "0.5",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            args,
            HarnessArgs {
                seed: 7,
                json: true,
                threads: 4,
                scale: 0.5
            }
        );
        assert!(leftover.is_empty());
        let _ = args.rng();
    }

    #[test]
    fn malformed_seed_is_an_error_not_a_silent_default() {
        let err = HarnessArgs::try_parse(&argv(&["--seed", "not-a-number"])).unwrap_err();
        assert!(err.contains("malformed --seed"), "{err}");
        // A missing value is an error too.
        let err = HarnessArgs::try_parse(&argv(&["--seed"])).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
    }

    #[test]
    fn malformed_threads_and_scale_are_errors() {
        assert!(HarnessArgs::try_parse(&argv(&["--threads", "zero"])).is_err());
        assert!(HarnessArgs::try_parse(&argv(&["--threads", "0"])).is_err());
        assert!(HarnessArgs::try_parse(&argv(&["--scale", "-1"])).is_err());
        assert!(HarnessArgs::try_parse(&argv(&["--scale", "nope"])).is_err());
    }

    #[test]
    fn unknown_arguments_are_returned_to_the_caller() {
        let (args, leftover) = HarnessArgs::try_parse(&argv(&["--only", "fig14"])).unwrap();
        assert_eq!(args.seed, 42);
        assert_eq!(leftover, argv(&["--only", "fig14"]));
    }
}
