//! `lifecycle`: one op is one seeded `cluster::lifecycle::simulate` run —
//! Poisson job arrivals, departures, node faults, backfill and defrag on the
//! real placement stack (ledger → delta publish → patched scratch → place).

use crate::trace::{quantile, Digest, Tracer};
use crate::{Metric, Session};
use bench::experiments::ext_lifecycle_slo::templates;
use bench::par::stream_seed;
use infinitehbd::cluster::lifecycle::{
    simulate, LifecycleConfig, LifecycleOutcome, PlacementLatencyModel,
};
use infinitehbd::cluster::Workload;
use infinitehbd::fault::sim_events::{generate_events, NodeEvent};
use infinitehbd::fault::GeneratorConfig;
use infinitehbd::hbd_types::Seconds;
use infinitehbd::orchestrator::FatTreeOrchestrator;
use infinitehbd::topology::FatTree;

const NODES: usize = 4096;
/// The `ext_lifecycle_slo` templates are sized for 256 nodes.
const JOB_SCALE: usize = NODES / 256;
/// Half the `ext_lifecycle_slo` horizon at the same arrival rate (~50 jobs
/// per hour): ~1 s per run, so a run of the benchmark times enough of them
/// for a steady median.
const ARRIVALS: f64 = 200.0;
const HORIZON_HOURS: f64 = 4.0;
/// Distinct (arrivals, faults) inputs per run; the client cycles through them.
const INPUTS: usize = 16;

pub struct LifecycleSession {
    orchestrator: FatTreeOrchestrator,
    config: LifecycleConfig,
    inputs: Vec<(Workload, Vec<NodeEvent>)>,
    run: usize,
    last: Option<LifecycleOutcome>,
    totals: Totals,
    /// Host microseconds per transition (published plus skipped epochs) of
    /// every run.
    us_per_transition: Vec<f64>,
}

#[derive(Default)]
struct Totals {
    arrivals: usize,
    admitted: usize,
    completed: usize,
    migrations: usize,
    fault_waits: usize,
    defrag_moves: usize,
    epochs_published: usize,
    republish_skips: usize,
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> LifecycleSession {
    tracer
        .time("client.setup", "", |tracer| {
            let (orchestrator, _) = tracer.time("fat_tree.new", "", |_| {
                FatTreeOrchestrator::new(FatTree::new(NODES, 16, 4).expect("valid fat-tree"))
                    .expect("orchestrator")
            });
            let horizon = Seconds::from_hours(HORIZON_HOURS);
            let templates: Vec<_> = templates()
                .into_iter()
                .map(|mut t| {
                    t.request.job_nodes *= JOB_SCALE;
                    t
                })
                .collect();
            let inputs = (0..INPUTS as u64)
                .map(|i| {
                    let workload = Workload::poisson(
                        &templates,
                        Seconds(horizon.value() / ARRIVALS),
                        horizon,
                        stream_seed(seed, 2 * i),
                    )
                    .expect("workload");
                    let (faults, _) = tracer.time("sim_events.generate_events", "", |_| {
                        generate_events(
                            &GeneratorConfig {
                                nodes: NODES,
                                duration: horizon,
                                steady_state_fault_ratio: 0.05,
                                mean_time_to_repair: Seconds::from_hours(1.0),
                            },
                            stream_seed(seed, 2 * i + 1),
                        )
                        .expect("fault schedule")
                    });
                    (workload, faults)
                })
                .collect();
            LifecycleSession {
                orchestrator,
                config: LifecycleConfig {
                    nodes: NODES,
                    gpus_per_node: 8,
                    backfill: true,
                    defrag_on_exit: true,
                    latency: PlacementLatencyModel::default(),
                    horizon,
                    threads: 1,
                    frag_probe_group: 8,
                    frag_probe_k: 2,
                    retry_backoff: None,
                },
                inputs,
                run: 0,
                last: None,
                totals: Totals::default(),
                us_per_transition: Vec::new(),
            }
        })
        .0
}

impl Session for LifecycleSession {
    fn units_per_op(&self) -> usize {
        1
    }

    fn has_next(&self) -> bool {
        true
    }

    fn step(&mut self, tracer: &mut Tracer) -> f64 {
        let (workload, faults) = &self.inputs[self.run % INPUTS];
        self.run += 1;
        let (orchestrator, config) = (&self.orchestrator, &self.config);
        let (outcome, call_s) = tracer
            .time("client.op", "", |tracer| {
                tracer.time("lifecycle.simulate", "", |_| {
                    simulate(orchestrator, workload, faults, config).expect("valid lifecycle run")
                })
            })
            .0;
        let t = &mut self.totals;
        t.arrivals += outcome.arrivals;
        t.admitted += outcome.admitted;
        t.completed += outcome.completed;
        t.migrations += outcome.migrations;
        t.fault_waits += outcome.fault_waits;
        t.defrag_moves += outcome.defrag_moves;
        t.epochs_published += outcome.epochs_published;
        t.republish_skips += outcome.republish_skips;
        let transitions = outcome.epochs_published + outcome.republish_skips;
        self.us_per_transition
            .push(call_s * 1e6 / transitions.max(1) as f64);
        self.last = Some(outcome);
        call_s
    }

    fn check(&mut self, _tracer: &mut Tracer, digest: &mut Digest) -> usize {
        let Some(outcome) = self.last.take() else {
            return 0;
        };
        digest.text(&format!("{outcome:?}"));
        let accounted = outcome.completed + outcome.left_running + outcome.left_queued;
        usize::from(outcome.clock_rewinds != 0 || accounted != outcome.arrivals)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let t = &self.totals;
        let transitions = t.epochs_published + t.republish_skips;
        vec![
            ("lifecycle.arrivals", t.arrivals as f64),
            ("lifecycle.admitted", t.admitted as f64),
            ("lifecycle.completed", t.completed as f64),
            ("lifecycle.migrations", t.migrations as f64),
            ("lifecycle.fault_waits", t.fault_waits as f64),
            ("lifecycle.defrag_moves", t.defrag_moves as f64),
            ("jobmix.epochs_published", t.epochs_published as f64),
            ("jobmix.republish_skips", t.republish_skips as f64),
            (
                "jobmix.skip_ratio",
                t.republish_skips as f64 / transitions.max(1) as f64,
            ),
        ]
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let simulate = tracer.durations("lifecycle.simulate", "");
        vec![
            Metric::new(
                "lifecycle.simulate_ms",
                "ms",
                quantile(&simulate, 0.5).map(|v| v * 1e3),
            ),
            Metric::new(
                "lifecycle.host_us_per_transition",
                "us",
                quantile(&self.us_per_transition, 0.5),
            ),
            Metric::new(
                "sim_events.generate_ms",
                "ms",
                quantile(&tracer.durations("sim_events.generate_events", ""), 0.5).map(|v| v * 1e3),
            ),
        ]
    }
}
