//! The repository benchmark: four closed-loop workloads over the placement
//! serving path and the lifecycle / control-plane simulators.
//!
//! ```text
//! perfbench --workload <serve_churn|serve_steady|lifecycle|control_sim>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, runs a fixed reference prefix
//! of ops whose outputs are checked against offline oracles and digested into
//! an exact-count fingerprint, and then measures. `--trace 0` times the
//! closed loop for `--seconds` and reports the end-to-end metrics; `--trace 1`
//! records spans around every library call and reports the per-layer
//! metrics. The last line of standard output is one JSON object; the process
//! exits 1 when any check fails and 2 on a usage error. See `README.md`.

mod control;
mod lifecycle;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{quantile, Digest, Tracer};

/// One client session of a workload: pre-generated inputs plus the library
/// objects a scheduler (or a researcher's script) would hold.
pub trait Session {
    /// Units of work one op answers: queries per batch on `serve_*`, one
    /// simulator run otherwise.
    fn units_per_op(&self) -> usize;
    /// Whether the pre-generated inputs cover one more op.
    fn has_next(&self) -> bool;
    /// Runs the next op (a `client.op` span around the library calls) and
    /// returns the host time of its measured call in seconds.
    fn step(&mut self, tracer: &mut Tracer) -> f64;
    /// Checks the outputs of the op just run against the oracles, folds them
    /// into `digest` and returns how many failed. Never timed.
    fn check(&mut self, tracer: &mut Tracer, digest: &mut Digest) -> usize;
    /// Exact counts over every op run so far.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// Timings of the layers this workload crosses, from `tracer`'s spans.
    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric>;
}

pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Self {
        Metric { name, unit, value }
    }
}

struct Workload {
    name: &'static str,
    /// Ops of the checked, fingerprinted reference prefix.
    prefix_ops: usize,
    /// Ops per block of the traced run's untraced/traced alternation.
    block_ops: usize,
    /// The workloads sharing one set of per-layer metrics have one family;
    /// the first workload of a family owns them for the others' traced runs.
    family: &'static str,
    setup: fn(u64, &mut Tracer) -> Box<dyn Session>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_churn",
        family: "serve",
        prefix_ops: 16,
        block_ops: serve::CHURN.publish_every,
        setup: |seed, tracer| Box::new(serve::setup(&serve::CHURN, seed, tracer)),
    },
    Workload {
        name: "serve_steady",
        family: "serve",
        prefix_ops: 1000,
        block_ops: serve::STEADY.publish_every,
        setup: |seed, tracer| Box::new(serve::setup(&serve::STEADY, seed, tracer)),
    },
    Workload {
        name: "lifecycle",
        family: "lifecycle",
        prefix_ops: 2,
        block_ops: 1,
        setup: |seed, tracer| Box::new(lifecycle::setup(seed, tracer)),
    },
    Workload {
        name: "control_sim",
        family: "control",
        prefix_ops: 60,
        block_ops: 30,
        setup: |seed, tracer| Box::new(control::setup(seed, tracer)),
    },
];

/// Fresh set-ups per untraced run: at least `SETUP_REPEATS`, and more until
/// they span `SETUP_SPAN_S`, so a set-up of a few milliseconds is sampled
/// across more than one moment of machine load. `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
const SETUP_SPAN_S: f64 = 1.0;

/// Shortest throughput window of the timed loop, in seconds.
const WINDOW_S: f64 = 1.0;

/// The end-to-end metrics of `--trace 0`, as declared in `BENCHMARK.json`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "call_p50_ms",
    "call_p90_ms",
];

/// The per-layer metrics of `--trace 1`, as declared in `BENCHMARK.json`.
const PER_LAYER: [&str; 43] = [
    "service.publish_delta_us",
    "service.first_batch_ms",
    "service.warm_batch_ms",
    "service.publish_to_answer_ms",
    "fat_tree.cold_place_ms",
    "fat_tree.max_job_ms",
    "service.queries",
    "service.shared_scratch_builds",
    "service.shared_scratch_reuses",
    "service.private_scratch_builds",
    "service.probes",
    "service.rejected",
    "service.patched_builds",
    "service.cold_builds",
    "service.probes_per_query",
    "fat_tree.segments_reorchestrated",
    "fat_tree.segments_reused",
    "fat_tree.domains_patched",
    "fat_tree.segment_reuse_ratio",
    "lifecycle.simulate_ms",
    "lifecycle.host_us_per_transition",
    "lifecycle.arrivals",
    "lifecycle.admitted",
    "lifecycle.completed",
    "lifecycle.migrations",
    "lifecycle.fault_waits",
    "lifecycle.defrag_moves",
    "jobmix.epochs_published",
    "jobmix.republish_skips",
    "jobmix.skip_ratio",
    "sim_events.generate_ms",
    "control_sim.run_with_events_ms",
    "control_sim.host_us_per_send",
    "control_sim.plans_computed",
    "control_sim.commands_issued",
    "control_sim.sends",
    "control_sim.retries",
    "control_sim.delivered_stale",
    "control_sim.dead_letters",
    "control_sim.convergence_checks",
    "control_sim.fresh_delivery_ratio",
    "client.self_ms_per_op",
    "trace_overhead_pct",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_churn|serve_steady|lifecycle|control_sim> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What a run produced: its metrics plus the attempted/failed tallies.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => {
                self.metrics.entry(name).or_insert((v, unit));
            }
            _ => self.notes.push(format!("metric {name} has no value")),
        }
    }
}

/// Digest of the running executable. Fingerprints are kept per build, so a
/// run is only ever compared with runs of the same code: a correct change
/// that moves a count writes a fingerprint of its own.
fn build_id() -> std::io::Result<u64> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let mut digest = Digest::default();
    digest.bytes(&bytes);
    Ok(digest.0)
}

/// Runs the reference prefix: `prefix_ops` ops, each checked and digested,
/// then reports its exact counts and compares the fingerprint (counts +
/// digest) with any earlier run of the same build, workload and seed in this
/// checkout.
fn reference_prefix(
    workload: &Workload,
    seed: u64,
    session: &mut dyn Session,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut digest = Digest::default();
    for op in 0..workload.prefix_ops {
        tracer.set_op(op as u64);
        session.step(tracer);
        report.failed += session.check(tracer, &mut digest);
    }
    report.attempted += workload.prefix_ops * session.units_per_op();
    let mut fingerprint = String::new();
    for (name, value) in session.counts() {
        let _ = writeln!(fingerprint, "{name} {value}");
        let unit = if name.ends_with("_ratio") {
            "ratio"
        } else if name.ends_with("_per_query") {
            "probes/query"
        } else {
            "count"
        };
        report.put(name, unit, Some(value));
    }
    let _ = writeln!(fingerprint, "digest {:016x}", digest.0);
    for line in fingerprint.lines() {
        println!("# {} fingerprint {line}", workload.name);
    }
    let build = match build_id() {
        Ok(build) => build,
        Err(e) => {
            report
                .notes
                .push(format!("cannot digest the executable: {e}"));
            report.failed += 1;
            return;
        }
    };
    let dir = std::path::Path::new(".bench_out/fingerprints");
    let path = dir.join(format!("{}-{seed}-{build:016x}.txt", workload.name));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != fingerprint => {
            report.failed += 1;
            report
                .notes
                .push(format!("fingerprint differs from {}", path.display()));
        }
        Ok(_) => {}
        Err(_) => {
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &fingerprint))
            {
                report
                    .notes
                    .push(format!("cannot write {}: {e}", path.display()));
                report.failed += 1;
            }
        }
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `--trace 0`: set-up (median of repeats, see [`SETUP_REPEATS`]), the
/// reference prefix, then the closed loop for `seconds`.
fn untraced(args: &Args, report: &mut Report) {
    let workload = args.workload;
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut session = None;
    let first = Instant::now();
    while setups.len() < SETUP_REPEATS || first.elapsed().as_secs_f64() < SETUP_SPAN_S {
        drop(session.take());
        let start = Instant::now();
        session = Some((workload.setup)(args.seed, &mut tracer));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    reference_prefix(workload, args.seed, session.as_mut(), &mut tracer, report);

    // Throughput is taken per window of whole ops lasting at least
    // `WINDOW_S`, and reported as the median window, so a burst of load from
    // outside the process moves one window, not the whole figure.
    let budget = Duration::from_secs(args.seconds);
    let mut calls = Vec::new();
    let mut windows = Vec::new();
    let mut window = (Instant::now(), 0usize);
    let start = Instant::now();
    while start.elapsed() < budget && session.has_next() {
        calls.push(session.step(&mut tracer));
        window.1 += session.units_per_op();
        let elapsed = window.0.elapsed().as_secs_f64();
        if elapsed >= WINDOW_S {
            windows.push(window.1 as f64 / elapsed);
            window = (Instant::now(), 0);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let units = calls.len() * session.units_per_op();
    report.attempted += units;
    println!(
        "# {} timed {} ops ({units} units) in {wall:.3} s, {} windows",
        workload.name,
        calls.len(),
        windows.len()
    );

    report.put("setup_s", "s", quantile(&setups, 0.5));
    report.put("peak_rss_mb", "MB", peak_rss_mb());
    report.put("ops_per_s", "1/s", quantile(&windows, 0.5));
    report.put("call_p50_ms", "ms", quantile(&calls, 0.5).map(|v| v * 1e3));
    report.put("call_p90_ms", "ms", quantile(&calls, 0.9).map(|v| v * 1e3));
}

/// `--trace 1`: the reference prefix traced, then `seconds` of alternating
/// untraced and traced blocks (the tracing overhead is their difference),
/// then the reference prefix of every workload owning per-layer metrics this
/// one does not cross, so every run reports every per-layer metric.
fn traced(args: &Args, report: &mut Report) -> Vec<(&'static str, Tracer)> {
    let workload = args.workload;
    let mut tracer = Tracer::new(true);
    let mut session = (workload.setup)(args.seed, &mut tracer);
    reference_prefix(workload, args.seed, session.as_mut(), &mut tracer, report);

    let budget = Duration::from_secs(args.seconds);
    let mut wall = [0.0f64; 2];
    let mut ops = [0usize; 2];
    let mut op = workload.prefix_ops as u64;
    let start = Instant::now();
    let mut block = 0;
    while session.has_next() && (start.elapsed() < budget || ops.contains(&0)) {
        let traced = block % 2;
        block += 1;
        tracer.set_enabled(traced == 1);
        let block_start = Instant::now();
        for _ in 0..workload.block_ops {
            if !session.has_next() {
                break;
            }
            tracer.set_op(op);
            op += 1;
            session.step(&mut tracer);
            ops[traced] += 1;
        }
        wall[traced] += block_start.elapsed().as_secs_f64();
    }
    tracer.set_enabled(true);
    report.attempted += (ops[0] + ops[1]) * session.units_per_op();
    let per_op = |i: usize| wall[i] / ops[i] as f64;
    report.put(
        "trace_overhead_pct",
        "%",
        (!ops.contains(&0)).then(|| (per_op(1) / per_op(0) - 1.0) * 100.0),
    );

    // Self time per layer over the op spans: the client's own share is the
    // op span minus the library calls under it.
    let (by_layer, op_wall, op_count) = tracer.op_self_time_by_layer();
    for (layer, secs) in &by_layer {
        println!(
            "# {} self time {layer:<12} {:>12.3} ms {:>7.2} %",
            workload.name,
            secs * 1e3,
            secs / op_wall * 100.0
        );
    }
    let client = by_layer.get("client").copied();
    report.put(
        "client.self_ms_per_op",
        "ms",
        client.map(|s| s * 1e3 / op_count as f64),
    );

    put_layer_metrics(report, session.as_ref(), &tracer);
    let mut tracers = vec![(workload.name, tracer)];
    for owner in ["serve", "lifecycle", "control"] {
        if owner == workload.family {
            continue;
        }
        let owner = WORKLOADS
            .iter()
            .find(|w| w.family == owner)
            .expect("family owner");
        let mut tracer = Tracer::new(true);
        let mut session = (owner.setup)(args.seed, &mut tracer);
        reference_prefix(owner, args.seed, session.as_mut(), &mut tracer, report);
        put_layer_metrics(report, session.as_ref(), &tracer);
        tracers.push((owner.name, tracer));
    }
    tracers
}

fn put_layer_metrics(report: &mut Report, session: &dyn Session, tracer: &Tracer) {
    for metric in session.layer_metrics(tracer) {
        report.put(metric.name, metric.unit, metric.value);
    }
}

fn write_traces(
    workload: &str,
    seed: u64,
    tracers: &[(&'static str, Tracer)],
) -> std::io::Result<()> {
    let mut out = String::new();
    for (name, tracer) in tracers {
        tracer.write_jsonl(name, &mut out);
    }
    std::fs::create_dir_all(".bench_out/traces")?;
    std::fs::write(format!(".bench_out/traces/{workload}-{seed}.jsonl"), out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let declared: &[&str] = if args.trace {
        let tracers = traced(&args, &mut report);
        if let Err(e) = write_traces(args.workload.name, args.seed, &tracers) {
            report.notes.push(format!("cannot write the trace: {e}"));
            report.failed += 1;
        }
        &PER_LAYER
    } else {
        untraced(&args, &mut report);
        &END_TO_END
    };
    let mut metrics = String::new();
    for name in declared {
        match report.metrics.get(name) {
            Some((value, unit)) => {
                let sep = if metrics.is_empty() { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
            None => {
                report
                    .notes
                    .push(format!("declared metric {name} was not measured"));
                report.failed += 1;
            }
        }
    }
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
