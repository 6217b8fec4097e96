//! `control_sim`: one op is `generate_events` plus `control::sim::
//! run_with_events` on the `sim_seeds` 48-node K=3 ring, cycling the six
//! message-fault profiles. No orchestrator code runs here.

use crate::trace::{quantile, Digest, Tracer};
use crate::{Metric, Session};
use bench::experiments::sim_seeds::{base_config, profiles};
use bench::par::stream_seed;
use infinitehbd::control::sim::{run_with_events, SimReport};
use infinitehbd::control::{MessageFaults, SimConfig};
use infinitehbd::fault::sim_events::generate_events;

pub struct ControlSession {
    seed: u64,
    configs: Vec<SimConfig>,
    run: u64,
    last: Option<SimReport>,
    totals: Totals,
    us_per_send: Vec<f64>,
}

#[derive(Default)]
struct Totals {
    plans_computed: usize,
    commands_issued: usize,
    sends: usize,
    retries: usize,
    delivered_fresh: usize,
    delivered_stale: usize,
    dead_letters: usize,
    convergence_checks: usize,
}

pub fn setup(seed: u64, tracer: &mut Tracer) -> ControlSession {
    tracer
        .time("client.setup", "", |tracer| {
            let configs = profiles()
                .into_iter()
                .map(|(_, message_faults): (_, MessageFaults)| SimConfig {
                    message_faults,
                    ..base_config()
                })
                .collect();
            let session = ControlSession {
                seed,
                configs,
                run: 0,
                last: None,
                totals: Totals::default(),
                us_per_send: Vec::new(),
            };
            // Warm-up, outside the op sequence: one run per profile.
            for config in &session.configs {
                let events = generate_events(&config.generator(), stream_seed(seed, u64::MAX))
                    .expect("events");
                tracer.time("control_sim.run_with_events", "warmup", |_| {
                    run_with_events(config, seed, &events).expect("valid sim config")
                });
            }
            session
        })
        .0
}

impl Session for ControlSession {
    fn units_per_op(&self) -> usize {
        1
    }

    fn has_next(&self) -> bool {
        true
    }

    fn step(&mut self, tracer: &mut Tracer) -> f64 {
        let config = &self.configs[self.run as usize % self.configs.len()];
        let master = stream_seed(self.seed, self.run);
        self.run += 1;
        let ((report, sim_s), call_s) = tracer.time("client.op", "", |tracer| {
            let (events, _) = tracer.time("sim_events.generate_events", "", |_| {
                generate_events(&config.generator(), stream_seed(master, 0)).expect("events")
            });
            tracer.time("control_sim.run_with_events", "", |_| {
                run_with_events(config, master, &events).expect("valid sim config")
            })
        });
        let t = &mut self.totals;
        t.plans_computed += report.plans_computed;
        t.commands_issued += report.commands_issued;
        t.sends += report.sends;
        t.retries += report.retries;
        t.delivered_fresh += report.delivered_fresh;
        t.delivered_stale += report.delivered_stale;
        t.dead_letters += report.dead_letters;
        t.convergence_checks += report.convergence_checks;
        self.us_per_send
            .push(sim_s * 1e6 / report.sends.max(1) as f64);
        self.last = Some(report);
        call_s
    }

    fn check(&mut self, _tracer: &mut Tracer, digest: &mut Digest) -> usize {
        let Some(report) = self.last.take() else {
            return 0;
        };
        digest.text(&format!("{report:?}"));
        usize::from(
            report.invariant_violations != 0
                || !report.final_converged
                || report.clock_rewinds != 0,
        )
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let t = &self.totals;
        vec![
            ("control_sim.plans_computed", t.plans_computed as f64),
            ("control_sim.commands_issued", t.commands_issued as f64),
            ("control_sim.sends", t.sends as f64),
            ("control_sim.retries", t.retries as f64),
            ("control_sim.delivered_stale", t.delivered_stale as f64),
            ("control_sim.dead_letters", t.dead_letters as f64),
            (
                "control_sim.convergence_checks",
                t.convergence_checks as f64,
            ),
            (
                "control_sim.fresh_delivery_ratio",
                t.delivered_fresh as f64 / t.sends.max(1) as f64,
            ),
        ]
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let ms = |name: &str| quantile(&tracer.durations(name, ""), 0.5).map(|v| v * 1e3);
        vec![
            Metric::new(
                "control_sim.run_with_events_ms",
                "ms",
                ms("control_sim.run_with_events"),
            ),
            Metric::new(
                "control_sim.host_us_per_send",
                "us",
                quantile(&self.us_per_send, 0.5),
            ),
            Metric::new(
                "sim_events.generate_ms",
                "ms",
                ms("sim_events.generate_events"),
            ),
        ]
    }
}
