//! Oracle proptests of the admission controller (the issue's invariant
//! pins), each checked against a policy-free reference rather than against
//! the controller's own bookkeeping:
//!
//! - **Conservation** — every offered ticket reaches exactly one
//!   disposition: `answered + shed == offered`, no id answered twice, no id
//!   lost, under every shedding policy and queue capacity (zero included).
//! - **No late answers** — an `Answered` disposition never completes past
//!   its ticket's absolute deadline; deadline misses must surface as typed
//!   `Shed(DeadlineExpired)` outcomes instead.
//! - **Policy-free oracle** — with an unbounded queue and no deadlines the
//!   controller degenerates to a plain FIFO in front of the service: every
//!   ticket is answered, completions are monotone in offer order, and every
//!   answer is bit-identical to the unqueued single-query service call.
//! - **Thread invariance** — dispositions (ids, answers, modeled instants)
//!   are byte-identical for 1 vs 4 worker threads.
//! - **Breaker monotonicity** — the circuit breaker's transition log is
//!   monotone in time and only ever walks legal edges
//!   (`Closed→Open→HalfOpen→{Closed,Open}`), for arbitrary
//!   success/failure/probe interleavings.

use hbd_types::robust::{BreakerConfig, BreakerState, CircuitBreaker};
use hbd_types::{Microseconds, Seconds};
use orchestrator::admission::{
    AdmissionConfig, AdmissionController, Disposition, ShedPolicy, Ticket,
};
use orchestrator::service::{ModeledLatency, PlacementQuery, PlacementService, SnapshotStore};
use orchestrator::{FatTreeOrchestrator, OrchestrationRequest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use topology::{FatTree, FaultSet};

const NODES: usize = 128;

fn service() -> PlacementService {
    let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(NODES, 8, 4).unwrap()).unwrap());
    PlacementService::new(Arc::new(SnapshotStore::new(orch, FaultSet::new())))
}

/// A random query mix (placements, probes, what-ifs, occasional invalid
/// requests — the controller must shed or answer them, never panic).
fn random_query(rng: &mut StdRng) -> PlacementQuery {
    let nodes_per_group = [4usize, 8][rng.gen_range(0..2usize)];
    let request = OrchestrationRequest {
        job_nodes: rng.gen_range(0..=NODES / 2),
        nodes_per_group,
        k: 2,
    };
    match rng.gen_range(0..5) {
        0 => PlacementQuery::MaxJob {
            nodes_per_group,
            k: 2,
        },
        1 => PlacementQuery::WhatIf {
            request,
            extra_faults: FaultSet::from_nodes(
                (0..rng.gen_range(0..8)).map(|_| hbd_types::NodeId(rng.gen_range(0..NODES))),
            ),
        },
        _ => PlacementQuery::Place(request),
    }
}

/// A seeded open-loop ticket stream: time-ordered arrivals, a mix of
/// generous, tight and already-expired deadlines, four priority classes.
fn random_tickets(seed: u64, count: usize, deadlines: bool) -> Vec<Ticket> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0.0f64;
    (0..count)
        .map(|i| {
            now += rng.gen_range(0.0..60.0);
            let deadline_us = if !deadlines {
                f64::INFINITY
            } else {
                match rng.gen_range(0..6) {
                    0 => now,                            // not strictly after arrival: shed on arrival
                    1 => now + rng.gen_range(1.0..50.0), // likely too tight
                    _ => now + rng.gen_range(200.0..4_000.0),
                }
            };
            Ticket {
                id: i as u64,
                query: random_query(&mut rng),
                arrival: Microseconds(now),
                deadline: Microseconds(deadline_us),
                class: rng.gen_range(0..4),
            }
        })
        .collect()
}

/// Offers every ticket at its arrival instant, then drains the queue.
fn drive(
    service: &PlacementService,
    tickets: &[Ticket],
    config: AdmissionConfig,
    threads: usize,
) -> Vec<Disposition> {
    let mut controller = AdmissionController::new(config, ModeledLatency::for_cluster(NODES))
        .expect("the cluster model is valid");
    let mut out = Vec::new();
    for ticket in tickets {
        controller.run_until(service, ticket.arrival, threads, &mut out);
        controller.offer(ticket.clone(), &mut out);
    }
    controller.drain(service, threads, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation and no-late-answer, against every policy and tight
    /// random capacities (zero included: everything shed, nothing lost).
    #[test]
    fn every_ticket_gets_exactly_one_disposition_and_none_past_deadline(
        seed in 0u64..10_000,
        count in 1usize..40,
        capacity in 0usize..10,
        batch_cap in 1usize..5,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            ShedPolicy::RejectNewest,
            ShedPolicy::DeadlineAware,
            ShedPolicy::PriorityClass,
        ][policy_idx];
        let tickets = random_tickets(seed, count, true);
        let first = service();
        let out = drive(
            &first,
            &tickets,
            AdmissionConfig { capacity, batch_cap, policy },
            1,
        );

        // Exactly one disposition per offered id.
        prop_assert_eq!(out.len(), tickets.len());
        let mut ids: Vec<u64> = out.iter().map(Disposition::id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), tickets.len());

        // The controller's own counters agree with the dispositions. The
        // replay gets a fresh service: the modeled batch cost reads the
        // service's cost counters, and a warmed scratch cache would change
        // the timing (and hence the deadline sheds) of a second run.
        let answered = out.iter().filter(|d| matches!(d, Disposition::Answered(_))).count();
        let shed = out.len() - answered;
        let fresh = service();
        let mut controller =
            AdmissionController::new(AdmissionConfig { capacity, batch_cap, policy },
                                     ModeledLatency::for_cluster(NODES))
                .expect("the cluster model is valid");
        let mut replay = Vec::new();
        for ticket in &tickets {
            controller.run_until(&fresh, ticket.arrival, 1, &mut replay);
            controller.offer(ticket.clone(), &mut replay);
        }
        controller.drain(&fresh, 1, &mut replay);
        let stats = controller.stats();
        prop_assert_eq!(stats.offered, tickets.len() as u64);
        prop_assert_eq!(stats.answered, answered as u64);
        prop_assert_eq!(stats.shed(), shed as u64);

        // No answer past its deadline; shed instants and retry hints sane.
        let deadline_of: BTreeMap<u64, Microseconds> =
            tickets.iter().map(|t| (t.id, t.deadline)).collect();
        for disposition in &out {
            match disposition {
                Disposition::Answered(a) => {
                    prop_assert!(a.completed <= deadline_of[&a.id]);
                    prop_assert!(a.sojourn >= Microseconds::ZERO);
                }
                Disposition::Shed(s) => {
                    prop_assert!(s.retry_after >= Microseconds::ZERO);
                    prop_assert!(s.at.is_finite());
                }
            }
        }
    }

    /// With an unbounded queue and no deadlines the controller is a plain
    /// FIFO: everything answered, completions monotone in offer order, and
    /// every answer bit-identical to the unqueued single-query oracle.
    #[test]
    fn unbounded_controller_matches_the_policy_free_fifo_oracle(
        seed in 0u64..10_000,
        count in 1usize..24,
        batch_cap in 1usize..5,
    ) {
        let tickets = random_tickets(seed, count, false);
        let service = service();
        let out = drive(
            &service,
            &tickets,
            AdmissionConfig {
                capacity: usize::MAX,
                batch_cap,
                policy: ShedPolicy::RejectNewest,
            },
            1,
        );

        prop_assert_eq!(out.len(), tickets.len());
        let mut last_completed = Microseconds::ZERO;
        let mut by_id: BTreeMap<u64, &Disposition> = BTreeMap::new();
        for disposition in &out {
            by_id.insert(disposition.id(), disposition);
        }
        for ticket in &tickets {
            match by_id[&ticket.id] {
                Disposition::Answered(a) => {
                    // FIFO: completion order follows offer order.
                    prop_assert!(a.completed >= last_completed);
                    last_completed = a.completed;
                    // Bit-identical to the unqueued oracle answer.
                    let oracle = service.answer_batch(
                        std::slice::from_ref(&ticket.query), 1);
                    prop_assert_eq!(&a.answer, &oracle.answers[0]);
                }
                Disposition::Shed(s) => {
                    prop_assert!(false, "unbounded patient queue shed id {}", s.id);
                }
            }
        }
    }

    /// Dispositions are byte-identical across worker thread counts.
    #[test]
    fn dispositions_are_invariant_in_the_thread_count(
        seed in 0u64..10_000,
        count in 1usize..32,
        capacity in 0usize..8,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            ShedPolicy::RejectNewest,
            ShedPolicy::DeadlineAware,
            ShedPolicy::PriorityClass,
        ][policy_idx];
        let config = AdmissionConfig { capacity, batch_cap: 4, policy };
        let tickets = random_tickets(seed, count, true);
        // One fresh service per drive: a shared, cache-warmed service would
        // answer the second run faster in modeled time.
        let one = drive(&service(), &tickets, config, 1);
        let four = drive(&service(), &tickets, config, 4);
        prop_assert_eq!(format!("{one:?}"), format!("{four:?}"));
    }

    /// The breaker's transition log is monotone in time and only ever walks
    /// legal edges, whatever the success/failure/probe interleaving.
    #[test]
    fn breaker_transitions_are_monotone_and_legal(
        seed in 0u64..10_000,
        steps in 1usize..120,
        threshold in 1u32..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Seconds(0.002),
        });
        let mut now = 0.0f64;
        for _ in 0..steps {
            now += rng.gen_range(0.0..0.003);
            match rng.gen_range(0..3) {
                0 => breaker.on_failure(Seconds(now)),
                1 => breaker.on_success(Seconds(now)),
                _ => {
                    let _ = breaker.allow(Seconds(now));
                }
            }
        }

        let transitions = breaker.transitions();
        let mut previous_state = BreakerState::Closed;
        let mut previous_at = Seconds(0.0);
        for &(at, state) in transitions {
            prop_assert!(at.value() >= previous_at.value(), "transition log must be monotone");
            let legal = matches!(
                (previous_state, state),
                (BreakerState::Closed, BreakerState::Open)
                    | (BreakerState::Open, BreakerState::HalfOpen)
                    | (BreakerState::HalfOpen, BreakerState::Closed)
                    | (BreakerState::HalfOpen, BreakerState::Open)
            );
            prop_assert!(legal, "illegal edge {previous_state:?} -> {state:?}");
            previous_at = at;
            previous_state = state;
        }
        prop_assert_eq!(breaker.state(), previous_state);
        prop_assert_eq!(
            breaker.opens(),
            transitions.iter().filter(|(_, s)| *s == BreakerState::Open).count()
        );
    }
}
