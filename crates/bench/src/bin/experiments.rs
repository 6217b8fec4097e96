//! The evaluation driver: runs every registered experiment in-process,
//! regenerates `EXPERIMENTS.md` and writes a machine-readable
//! `bench_results.json` (per-experiment wall-clock included) for trend
//! tracking.
//!
//! ```text
//! cargo run --release --bin experiments -- --threads 4
//! cargo run --release --bin experiments -- --scale 0.05 --md EXPERIMENTS.smoke.md --out smoke.json
//! cargo run --release --bin experiments -- --only fig17 --json
//! cargo run --release --bin experiments -- --only fig14_waste_vs_fault --seed 7
//! cargo run --release --bin experiments -- --list
//! ```
//!
//! With `--only <substring>` the run is a partial preview: results go to
//! stdout only and no files are written (a partial `EXPERIMENTS.md` would
//! masquerade as the full evaluation). An exact experiment name runs that
//! experiment alone; any other value runs every experiment whose name
//! contains it.
//!
//! With `--sim-seed <N> --sim-profile <name>` the driver instead replays
//! exactly one ordering of the control-plane fault-injection simulator (the
//! `sim_seeds` experiment's configuration under the named message-fault
//! profile), prints the full report and exits non-zero if the convergence
//! invariant was violated — the one-command reproduction path for any failing
//! seed the sweep reports. The two flags are only meaningful together, so
//! giving exactly one of them is a usage error (a lone `--sim-profile` used
//! to be silently ignored; a lone `--sim-seed` silently picked a profile).

use bench::registry::{self, RunCtx};
use bench::{HarnessArgs, Table, USAGE};
use std::time::Instant;

const DRIVER_USAGE: &str = "usage: experiments [--seed <u64>] [--threads <n>] [--scale <f64>] \
     [--json] [--only <substring>] [--md <path>] [--out <path>] [--bench-json <path>] \
     [--compare <old bench_results.json>] [--warn-over <factor>] [--list] \
     [--sim-seed <u64> --sim-profile <name>]";

struct DriverArgs {
    common: HarnessArgs,
    only: Option<String>,
    md_path: String,
    out_path: String,
    bench_json: Option<String>,
    compare: Option<String>,
    warn_over: Option<f64>,
    list: bool,
    sim_seed: Option<u64>,
    sim_profile: Option<String>,
}

fn parse_driver_args() -> DriverArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (common, leftover) = match HarnessArgs::try_parse(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}\n{DRIVER_USAGE}");
            std::process::exit(2);
        }
    };
    let mut driver = DriverArgs {
        common,
        only: None,
        md_path: "EXPERIMENTS.md".to_string(),
        out_path: "bench_results.json".to_string(),
        bench_json: None,
        compare: None,
        warn_over: None,
        list: false,
        sim_seed: None,
        sim_profile: None,
    };
    let mut i = 0;
    while i < leftover.len() {
        match leftover[i].as_str() {
            "--only" => {
                driver.only = Some(require_value(&leftover, &mut i, "--only"));
            }
            "--md" => {
                driver.md_path = require_value(&leftover, &mut i, "--md");
            }
            "--out" => {
                driver.out_path = require_value(&leftover, &mut i, "--out");
            }
            "--bench-json" => {
                driver.bench_json = Some(require_value(&leftover, &mut i, "--bench-json"));
            }
            "--compare" => {
                driver.compare = Some(require_value(&leftover, &mut i, "--compare"));
            }
            "--warn-over" => {
                let value = require_value(&leftover, &mut i, "--warn-over");
                match value.parse::<f64>() {
                    Ok(factor) if factor >= 1.0 => driver.warn_over = Some(factor),
                    _ => {
                        eprintln!(
                            "error: --warn-over needs a factor >= 1.0, got '{value}'\n{DRIVER_USAGE}"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--sim-seed" => {
                let value = require_value(&leftover, &mut i, "--sim-seed");
                match value.parse::<u64>() {
                    Ok(seed) => driver.sim_seed = Some(seed),
                    Err(_) => {
                        eprintln!("error: --sim-seed needs a u64, got '{value}'\n{DRIVER_USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--sim-profile" => {
                driver.sim_profile = Some(require_value(&leftover, &mut i, "--sim-profile"));
            }
            "--list" => driver.list = true,
            other => {
                eprintln!("error: unknown argument '{other}'\n{DRIVER_USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // Cross-flag validation: reject combinations that used to be silently
    // ignored (or silently defaulted) before any experiment runs.
    match (&driver.sim_seed, &driver.sim_profile) {
        (Some(_), None) => {
            eprintln!(
                "error: --sim-seed requires --sim-profile <name> (run the sim_seeds experiment \
                 or see its module docs for the profile names)\n{DRIVER_USAGE}"
            );
            std::process::exit(2);
        }
        (None, Some(_)) => {
            eprintln!(
                "error: --sim-profile is only meaningful together with --sim-seed <u64>\
                 \n{DRIVER_USAGE}"
            );
            std::process::exit(2);
        }
        _ => {}
    }
    if driver.warn_over.is_some() && driver.compare.is_none() {
        eprintln!(
            "error: --warn-over needs a --compare <old bench_results.json> baseline to check \
             against\n{DRIVER_USAGE}"
        );
        std::process::exit(2);
    }
    driver
}

/// Eagerly validates a `--compare` baseline that `--warn-over` will gate on:
/// it must be readable, parse as JSON and carry at least one experiment
/// wall-clock. Without `--warn-over` a broken baseline still degrades to a
/// skipped (informational) comparison, but a gating flag pointing at nothing
/// is a usage error — and it fails *before* the experiments run, not after.
fn validate_compare_baseline(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("error: --warn-over baseline {path} is unreadable: {error}\n{DRIVER_USAGE}");
        std::process::exit(2);
    });
    let old: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|error| {
        eprintln!("error: --warn-over baseline {path} is malformed JSON: {error}\n{DRIVER_USAGE}");
        std::process::exit(2);
    });
    let has_wall_clocks = old
        .get("experiments")
        .and_then(|e| e.as_array())
        .is_some_and(|records| {
            records
                .iter()
                .any(|r| r.get("name").is_some() && r.get("wall_ms").is_some())
        });
    if !has_wall_clocks {
        eprintln!(
            "error: --warn-over baseline {path} has no experiment wall-clocks to compare \
             against\n{DRIVER_USAGE}"
        );
        std::process::exit(2);
    }
}

fn require_value(argv: &[String], i: &mut usize, flag: &str) -> String {
    match argv.get(*i + 1) {
        Some(value) => {
            *i += 1;
            value.clone()
        }
        None => {
            eprintln!("error: {flag} requires a value\n{DRIVER_USAGE}");
            std::process::exit(2);
        }
    }
}

struct ExperimentRun {
    name: &'static str,
    group: &'static str,
    summary: &'static str,
    wall_ms: f64,
    tables: Vec<Table>,
}

/// Replays one seeded ordering of the control-plane simulator with the
/// `sim_seeds` experiment's exact configuration, printing the full report.
/// Exit status 0 = converged with zero invariant violations, 1 = violated —
/// so a failing seed from the sweep reproduces with a single command.
fn replay_sim_seed(seed: u64, profile_name: &str) -> ! {
    use bench::experiments::sim_seeds;
    use infinitehbd::control::sim;

    let Some(message_faults) = sim_seeds::profile(profile_name) else {
        let known: Vec<&str> = sim_seeds::profiles().iter().map(|(n, _)| *n).collect();
        eprintln!(
            "error: unknown --sim-profile '{profile_name}' (known: {})",
            known.join(", ")
        );
        std::process::exit(2);
    };
    let mut config = sim_seeds::base_config();
    config.message_faults = message_faults;
    let report = match sim::run(&config, seed) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: simulation failed to run: {error}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialisable report")
    );
    let ok = report.final_converged && report.invariant_violations == 0;
    eprintln!(
        "sim-seed {seed} profile '{profile_name}': {} ({} arrivals, {} commands, {} sends, \
         {} invariant violation(s), end time {:.3} s)",
        if ok {
            "CONVERGED"
        } else {
            "INVARIANT VIOLATED"
        },
        report.arrivals,
        report.commands_issued,
        report.sends,
        report.invariant_violations,
        report.end_time.value()
    );
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args = parse_driver_args();
    if let Some(seed) = args.sim_seed {
        let profile = args.sim_profile.as_deref().expect("validated at parse");
        replay_sim_seed(seed, profile);
    }
    if args.warn_over.is_some() {
        let path = args.compare.as_deref().expect("validated at parse");
        validate_compare_baseline(path);
    }
    if args.list {
        for experiment in registry::all() {
            println!(
                "{:28} {:22} {}",
                experiment.name, experiment.group, experiment.summary
            );
        }
        return;
    }

    let ctx = RunCtx::from_args(&args.common);
    let selected: Vec<_> = match args.only.as_deref() {
        None => registry::all().iter().collect(),
        // An exact name selects that experiment alone, even where it is a
        // substring of another name (`appg_alltoall`).
        Some(needle) => match registry::find(needle) {
            Some(experiment) => vec![experiment],
            None => registry::all()
                .iter()
                .filter(|e| e.name.contains(needle))
                .collect(),
        },
    };
    if selected.is_empty() {
        eprintln!(
            "error: --only '{}' matches no experiment (try --list)",
            args.only.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }

    let total_start = Instant::now();
    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(selected.len());
    for experiment in &selected {
        let start = Instant::now();
        let tables = (experiment.run)(&ctx);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "ran {:28} {:>9.1} ms  ({} table{})",
            experiment.name,
            wall_ms,
            tables.len(),
            if tables.len() == 1 { "" } else { "s" }
        );
        runs.push(ExperimentRun {
            name: experiment.name,
            group: experiment.group,
            summary: experiment.summary,
            wall_ms,
            tables,
        });
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;

    let microbenches = load_microbenches(args.bench_json.as_deref());

    if let Some(path) = args.compare.as_deref() {
        print_wall_clock_deltas(path, &runs, args.warn_over);
    }

    if args.common.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&collate_json(&ctx, &runs, &microbenches))
                .expect("serialisable")
        );
    }

    if args.only.is_some() {
        if !args.common.json {
            for run in &runs {
                for table in &run.tables {
                    table.print_text();
                }
            }
        }
        eprintln!("partial run (--only): EXPERIMENTS.md / bench_results.json not written");
        return;
    }

    std::fs::write(&args.md_path, render_markdown(&ctx, &runs))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.md_path));
    std::fs::write(
        &args.out_path,
        format!(
            "{}\n",
            serde_json::to_string_pretty(&collate_json(&ctx, &runs, &microbenches))
                .expect("serialisable")
        ),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out_path));
    eprintln!(
        "wrote {} and {} ({} experiments, {:.1} s total)",
        args.md_path,
        args.out_path,
        runs.len(),
        total_ms / 1e3
    );
}

/// Reads the JSON-lines file the criterion shim appends to (one record per
/// micro-benchmark, see `CRITERION_JSON` in `shims/criterion`). A missing or
/// malformed file is a hard error: the flag promises baselines.
fn load_microbenches(path: Option<&str>) -> Vec<serde_json::Value> {
    let Some(path) = path else {
        return Vec::new();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read --bench-json {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            serde_json::from_str(line).unwrap_or_else(|e| {
                eprintln!("error: malformed record in --bench-json {path}: {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Prints per-experiment wall-clock deltas against an older
/// `bench_results.json` to stderr. Strictly informational and non-fatal —
/// wall-clock is machine-dependent, so the report surfaces regressions for a
/// human (or CI log reader) without gating anything: unreadable or malformed
/// baselines degrade to a warning. (With `--warn-over` the baseline has
/// already been validated up front, so the degrade paths are plain-`--compare`
/// only.)
///
/// With `warn_over = Some(factor)` the report additionally ends with a
/// visible summary of every experiment whose wall-clock grew to at least
/// `factor ×` its baseline (still non-fatal; sub-millisecond regressions are
/// ignored as timer noise).
fn print_wall_clock_deltas(path: &str, runs: &[ExperimentRun], warn_over: Option<f64>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("compare: cannot read {path}: {error} (skipping)");
            return;
        }
    };
    let old: serde_json::Value = match serde_json::from_str(&text) {
        Ok(value) => value,
        Err(error) => {
            eprintln!("compare: malformed JSON in {path}: {error} (skipping)");
            return;
        }
    };
    let old_runs: Vec<(&str, f64)> = old
        .get("experiments")
        .and_then(|e| e.as_array())
        .map(|records| {
            records
                .iter()
                .filter_map(|record| {
                    Some((
                        record.get("name")?.as_str()?,
                        record.get("wall_ms")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    if old_runs.is_empty() {
        eprintln!("compare: {path} has no experiment wall-clocks (skipping)");
        return;
    }
    eprintln!("compare: wall-clock vs {path} (informational, machine-dependent)");
    let mut old_total = 0.0;
    let mut new_total = 0.0;
    let mut regressions: Vec<(&str, f64, f64)> = Vec::new();
    for run in runs {
        match old_runs.iter().find(|(name, _)| *name == run.name) {
            Some(&(_, old_ms)) => {
                let delta = if old_ms > 0.0 {
                    (run.wall_ms - old_ms) / old_ms * 100.0
                } else {
                    0.0
                };
                old_total += old_ms;
                new_total += run.wall_ms;
                eprintln!(
                    "  {:28} {:>9.1} -> {:>9.1} ms  {:>+7.1}%",
                    run.name, old_ms, run.wall_ms, delta
                );
                if let Some(factor) = warn_over {
                    // Sub-millisecond experiments regress by whole factors on
                    // timer noise alone; only flag measurable growth.
                    if old_ms > 0.0 && run.wall_ms >= old_ms * factor && run.wall_ms - old_ms >= 1.0
                    {
                        regressions.push((run.name, old_ms, run.wall_ms));
                    }
                }
            }
            None => eprintln!("  {:28}       new -> {:>9.1} ms", run.name, run.wall_ms),
        }
    }
    if old_total > 0.0 {
        eprintln!(
            "  {:28} {:>9.1} -> {:>9.1} ms  {:>+7.1}%  (experiments present in both)",
            "total",
            old_total,
            new_total,
            (new_total - old_total) / old_total * 100.0
        );
    }
    if let Some(factor) = warn_over {
        if regressions.is_empty() {
            eprintln!("warn-over: no experiment regressed by {factor}x or more");
        } else {
            eprintln!(
                "warn-over: {} experiment(s) at or over the {factor}x wall-clock threshold \
                 (non-fatal):",
                regressions.len()
            );
            for (name, old_ms, new_ms) in &regressions {
                eprintln!(
                    "  {:28} {:>9.1} -> {:>9.1} ms  ({:.1}x)",
                    name,
                    old_ms,
                    new_ms,
                    new_ms / old_ms
                );
            }
        }
    }
}

/// The machine-readable collation (`bench_results.json`): run parameters,
/// per-experiment wall-clock, every table, and (with `--bench-json`) the
/// criterion micro-bench baselines.
fn collate_json(
    ctx: &RunCtx,
    runs: &[ExperimentRun],
    microbenches: &[serde_json::Value],
) -> serde_json::Value {
    let experiments: Vec<serde_json::Value> = runs
        .iter()
        .map(|run| {
            let tables: Vec<serde_json::Value> = run.tables.iter().map(Table::to_json).collect();
            serde_json::json!({
                "name": run.name,
                "group": run.group,
                "summary": run.summary,
                "wall_ms": run.wall_ms,
                "tables": tables,
            })
        })
        .collect();
    serde_json::json!({
        "seed": ctx.seed,
        "scale": ctx.scale,
        "threads": ctx.threads,
        "experiments": experiments,
        "microbenches": microbenches,
    })
}

/// The regenerated `EXPERIMENTS.md`. Deliberately free of wall-clock numbers
/// so that re-running with the same seed/scale reproduces the file
/// byte-for-byte.
fn render_markdown(ctx: &RunCtx, runs: &[ExperimentRun]) -> String {
    let mut out = String::new();
    out.push_str("# EXPERIMENTS\n\n");
    out.push_str(
        "Every table and figure of the paper's evaluation, regenerated mechanically by the\n\
         experiment registry (`crates/bench/src/registry.rs`). Do not edit by hand — refresh with:\n\n\
         ```bash\ncargo run --release --bin experiments -- --threads <N>\n```\n\n",
    );
    out.push_str(&format!(
        "Parameters of this run: seed `{}`, scale `{}`, {} experiments. Per-experiment\n\
         wall-clock times and the same tables in machine-readable form are written to\n\
         `bench_results.json` alongside this file.\n\n",
        ctx.seed,
        ctx.scale,
        runs.len()
    ));
    out.push_str(
        "`bench_results.json` schema: a top-level object with `seed`, `scale` and `threads`\n\
         (the run parameters), `experiments` — one record per registered experiment with\n\
         `name`, `group`, `summary`, `wall_ms` (wall-clock of the run, machine-dependent)\n\
         and `tables` (the same tables as below, each `{experiment, rows}` with one\n\
         column-name → cell object per row) —\n\
         and `microbenches`: the criterion micro-bench baselines collected by\n\
         `cargo bench` with `CRITERION_JSON` set and folded in via `--bench-json`, one\n\
         record per benchmark with `bench` (label), `mean_ns`, `min_ns`, `p50_ns`,\n\
         `p99_ns`, `samples` and —\n\
         for groups that declare a throughput — `throughput_per_sec` / `throughput_unit`\n\
         (empty when the driver runs without `--bench-json`). `--compare <old json>`\n\
         additionally prints per-experiment wall-clock deltas against an older\n\
         `bench_results.json` to stderr (informational only); `--warn-over <factor>`\n\
         appends a visible — still non-fatal — summary of the experiments whose\n\
         wall-clock reached `factor`x their baseline.\n\n",
    );

    out.push_str("## Index\n\n| experiment | group | summary |\n| --- | --- | --- |\n");
    for run in runs {
        out.push_str(&format!(
            "| [`{name}`](#{name}) | {} | {} |\n",
            run.group,
            run.summary,
            name = run.name
        ));
    }
    out.push('\n');

    let mut current_group = "";
    for run in runs {
        if run.group != current_group {
            current_group = run.group;
            out.push_str(&format!("## {current_group}\n\n"));
        }
        out.push_str(&format!("### {}\n\n{}\n\n", run.name, run.summary));
        for table in &run.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
    }
    out
}
