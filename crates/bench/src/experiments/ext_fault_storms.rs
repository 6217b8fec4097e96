//! Extension experiment: correlated fault-storm survival of the retrying,
//! breaker-guarded placement client (`orchestrator::client` +
//! `fault::storm`).
//!
//! A steady query stream runs against a 256-node snapshot while seeded
//! **correlated fault storms** ([`generate_storms`]) tear through it: each
//! burst blasts a contiguous run of ToRs inside one aggregation domain, and
//! every availability edge lands on the snapshot store as an
//! [`ExclusionLedger`] delta at its modeled instant. Every node a burst
//! knocks out also fires a **re-placement query** a few modeled µs later —
//! the displaced job asking for a new home — so a wider blast radius means
//! a taller correlated load spike landing exactly while the snapshot is
//! churning. The storm-size sweep widens the blast radius from one ToR to
//! a whole aggregation domain and reports how the client rides the spike
//! out: answered / degraded / exhausted outcome fractions, retries,
//! circuit-breaker transitions, and the modeled recovery time from each
//! burst (burst instant until the breaker is closed again with an empty,
//! idle admission queue).
//!
//! Degraded answers — `MaxJob` / `WhatIf` served client-side from the last
//! healthy epoch while the breaker is open — carry an explicit staleness
//! label; the sweep reports the worst staleness seen so the cost of
//! degraded mode is visible next to its benefit.
//!
//! Deterministic in the seed, invariant in `--threads`: storms, arrivals,
//! backoff jitter and breaker transitions all live in modeled time.

use crate::experiments::ext_service_throughput::{build_stream, mean_interarrival};
use crate::par::stream_seed;
use crate::registry::RunCtx;
use crate::{fmt, Table};
use infinitehbd::dcn::jobmix::ExclusionLedger;
use infinitehbd::fault::storm::{generate_storms, StormConfig};
use infinitehbd::fault::NodeEventKind;
use infinitehbd::hbd_types::{BackoffSchedule, BreakerConfig, Microseconds, Seconds};
use infinitehbd::orchestrator::admission::{AdmissionConfig, ShedPolicy};
use infinitehbd::orchestrator::client::{
    ClientConfig, ClientOutcome, ClientQuery, RetryPolicy, RetryingClient, StorePublish,
};
use infinitehbd::orchestrator::service::{
    ModeledLatency, PlacementQuery, PlacementService, SnapshotStore,
};
use infinitehbd::orchestrator::{FatTreeOrchestrator, OrchestrationRequest};
use infinitehbd::topology::{FatTree, FaultSet};
use std::sync::Arc;

/// Cluster size of the sweep (16 nodes per ToR, 8 ToRs per aggregation
/// domain — two domains).
pub const NODES: usize = 256;

/// Blast radii of the storm-size sweep, in ToRs per burst; the last value is
/// a whole aggregation domain.
pub const BLAST_TORS: [usize; 4] = [1, 2, 4, 8];

/// Queue capacity of the client's admission controller.
const CAPACITY: usize = 16;

/// Batch cap of the client's admission controller.
const BATCH_CAP: usize = 8;

/// Per-attempt deadline budget.
const DEADLINE: Microseconds = Microseconds(2_000.0);

/// The client configuration of the sweep: a tight queue and deadline so
/// storm-induced slowdowns surface as sheds, a breaker that opens after
/// three consecutive sheds and re-probes after 5 modeled ms, and a capped
/// exponential backoff starting at 1 modeled ms.
fn client_config() -> ClientConfig {
    ClientConfig {
        admission: AdmissionConfig {
            capacity: CAPACITY,
            batch_cap: BATCH_CAP,
            policy: ShedPolicy::DeadlineAware,
        },
        retry: RetryPolicy {
            backoff: BackoffSchedule {
                base: Seconds(0.001),
                factor: 2.0,
                cap: Seconds(0.016),
                jitter: 0.25,
                seed: 0xb0ff,
            },
            max_attempts: 4,
        },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Seconds(0.005),
        },
        deadline: DEADLINE,
    }
}

/// The storm schedule of one sweep row: bursts arriving over the query
/// window, blast radius `blast_tors`, 75 % of each blasted ToR's nodes down
/// for ~a quarter of the window each.
fn storm_config(blast_tors: usize, window: Microseconds) -> StormConfig {
    let window = window.to_seconds();
    StormConfig {
        nodes: NODES,
        nodes_per_tor: 16,
        tors_per_domain: 8,
        duration: window,
        mean_interarrival: Seconds(window.value() / 3.0),
        blast_tors,
        hit_fraction: 0.75,
        mean_outage: Seconds(window.value() / 4.0),
        stagger: Seconds(window.value() / 500.0),
    }
}

pub fn run(ctx: &RunCtx) -> Vec<Table> {
    let orchestrator = Arc::new(
        FatTreeOrchestrator::new(FatTree::new(NODES, 16, 8).expect("valid fat-tree"))
            .expect("orchestrator"),
    );
    let queries_per_stream = ctx.count(224);
    let radii = ctx.select(&BLAST_TORS);

    let mut rows = Vec::new();
    for (idx, &blast) in radii.iter().enumerate() {
        // A fresh service per row: storms mutate the store.
        let service = PlacementService::new(Arc::new(SnapshotStore::new(
            Arc::clone(&orchestrator),
            FaultSet::new(),
        )));
        let (stream, arrivals) = build_stream(
            NODES,
            queries_per_stream,
            stream_seed(ctx.seed, idx as u64),
            // Slightly inside saturation so storms, not base load, cause
            // the sheds.
            mean_interarrival(NODES) * 1.25,
        );
        let last_arrival = arrivals.last().copied().unwrap_or_default();
        let schedule = generate_storms(
            &storm_config(blast, last_arrival.max(Microseconds(1.0))),
            stream_seed(ctx.seed, 100 + idx as u64),
        )
        .expect("storm schedule");

        // Every availability edge lands as one ledger delta publish at its
        // modeled instant; the recovery marks sit at the burst instants.
        let mut ledger = ExclusionLedger::new();
        let mut publishes = Vec::with_capacity(schedule.events.len());
        for event in &schedule.events {
            let down = event.kind == NodeEventKind::Fault;
            ledger.apply_availability_burst([(event.node, down)]);
            let delta = ledger.take_pending_delta();
            if !delta.is_empty() {
                publishes.push(StorePublish {
                    at: event.at.to_micros(),
                    delta,
                });
            }
        }
        // Recovery stopwatches start once each burst's re-placement wave has
        // fully landed (the wave spans `2 * nodes` µs from the burst
        // instant) — measuring from the burst instant itself would observe a
        // still-healthy queue and read zero.
        let marks: Vec<Microseconds> = schedule
            .bursts
            .iter()
            .map(|b| b.at.to_micros() + Microseconds(2.0 * b.nodes.len() as f64))
            .collect();

        let mut queries: Vec<ClientQuery> = stream
            .iter()
            .enumerate()
            .map(|(i, query)| ClientQuery {
                id: i as u64,
                query: query.clone(),
                arrival: arrivals[i],
                class: (i % 4) as u8,
            })
            .collect();
        // The recovery wave: every node a burst knocks out re-submits its
        // displaced job as a fresh `Place` query a few modeled µs after the
        // burst instant. The wave is what makes wide storms dangerous — a
        // correlated arrival spike against a churning snapshot.
        for burst in &schedule.bursts {
            let burst_at = burst.at.to_micros();
            for (i, _) in burst.nodes.iter().enumerate() {
                queries.push(ClientQuery {
                    id: queries.len() as u64,
                    query: PlacementQuery::Place(OrchestrationRequest {
                        job_nodes: 16,
                        nodes_per_group: 16,
                        k: 2,
                    }),
                    arrival: burst_at + Microseconds(1.0) + Microseconds(i as f64 * 2.0),
                    class: (i % 4) as u8,
                });
            }
        }
        let offered = queries.len();

        let client = RetryingClient::new(client_config());
        let report = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(NODES),
                &queries,
                &publishes,
                &marks,
                ctx.threads,
            )
            .expect("query ids are unique");

        let (answered, degraded, exhausted) = report.outcome_counts();
        let max_staleness = report
            .outcomes
            .values()
            .filter_map(|o| match o {
                ClientOutcome::Degraded {
                    staleness_epochs, ..
                } => Some(*staleness_epochs),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let opens = report
            .breaker_transitions
            .iter()
            .filter(|(_, s)| *s == infinitehbd::hbd_types::BreakerState::Open)
            .count();
        let recovered: Vec<f64> = report
            .recovery
            .iter()
            .flatten()
            .map(|r| r.value())
            .collect();
        let mean_recovery_ms = if recovered.is_empty() {
            0.0
        } else {
            recovered.iter().sum::<f64>() / recovered.len() as f64 / 1_000.0
        };
        let unrecovered = report.recovery.iter().filter(|r| r.is_none()).count();

        rows.push(vec![
            blast.to_string(),
            schedule.bursts.len().to_string(),
            schedule.distinct_nodes_hit().to_string(),
            offered.to_string(),
            answered.to_string(),
            degraded.to_string(),
            fmt(100.0 * degraded as f64 / offered.max(1) as f64, 1),
            exhausted.to_string(),
            report.retries.to_string(),
            opens.to_string(),
            max_staleness.to_string(),
            fmt(mean_recovery_ms, 3),
            unrecovered.to_string(),
        ]);
    }

    vec![Table::new(
        format!(
            "Correlated fault-storm sweep on the {NODES}-node snapshot \
             (blast radius in ToRs, 8 ToRs per aggregation domain, modeled time)"
        ),
        &[
            "blast ToRs",
            "bursts",
            "nodes hit",
            "offered",
            "answered",
            "degraded",
            "degraded %",
            "exhausted",
            "retries",
            "breaker opens",
            "max staleness",
            "mean recovery (ms)",
            "unrecovered marks",
        ],
        rows,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A storm that faults an entire aggregation domain must degrade the
    /// service (smaller answers, possibly degraded/exhausted outcomes) —
    /// never panic, and every query must still reach a terminal outcome.
    #[test]
    fn a_whole_domain_storm_degrades_but_terminates_every_query() {
        let ctx = RunCtx {
            seed: 7,
            threads: 1,
            scale: 1.0,
        };
        let tables = run(&ctx);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), BLAST_TORS.len());
        let mut storms_bit = false;
        for row in &tables[0].rows {
            let offered: usize = row[3].parse().unwrap();
            let answered: usize = row[4].parse().unwrap();
            let degraded: usize = row[5].parse().unwrap();
            let exhausted: usize = row[7].parse().unwrap();
            assert!(offered >= ctx.count(224), "base stream plus the wave");
            assert_eq!(
                answered + degraded + exhausted,
                offered,
                "every query reaches exactly one terminal outcome"
            );
            let retries: u64 = row[8].parse().unwrap();
            let opens: usize = row[9].parse().unwrap();
            storms_bit |= retries > 0 || opens > 0 || degraded > 0;
        }
        // The whole-domain row (at least) must actually stress the client:
        // retries, breaker opens or degraded answers somewhere in the sweep.
        assert!(storms_bit, "the storm sweep never stressed the client");
    }
}
