//! The retrying client in front of the admission-controlled service: seeded
//! exponential backoff, a bounded retry budget, a circuit breaker around the
//! snapshot store, and a degraded mode that answers read-only queries from
//! the last healthy epoch while the breaker is open.
//!
//! [`RetryingClient::run_session`] is a deterministic discrete-event driver:
//! query arrivals, store publishes (fault storms enter here as
//! [`SnapshotDelta`]s at modeled instants) and retry wake-ups all live on one
//! modeled-time event queue. A shed query is retried no earlier than the
//! service's `retry_after` hint *and* no earlier than the
//! [`BackoffSchedule`]'s capped exponential delay — whose jitter is a pure
//! hash of `(seed, query id, attempt)`, so retry timelines are bit-stable in
//! the seed and invariant in the thread count (the modeled-time backoff
//! determinism argument of ARCHITECTURE.md).
//!
//! Consecutive sheds trip the [`CircuitBreaker`]; while it is open the client
//! stops offering work and instead answers `MaxJob` / `WhatIf` queries from
//! the snapshot it pinned at the last successful answer, labelling each such
//! [`ClientOutcome::Degraded`] with how many epochs stale that snapshot is.
//! `Place` queries cannot be served stale (they would hand out occupied
//! nodes), so they wait for the breaker's re-probe instant and spend a retry
//! attempt. The half-open re-probe protocol is machine-checked via the
//! breaker's monotone transition log, which the session report carries.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, Disposition, Ticket};
use crate::search::max_orchestratable_job;
use crate::service::{
    ClusterSnapshot, ModeledLatency, PlacementAnswer, PlacementQuery, PlacementService,
    SnapshotDelta,
};
use hbd_types::epoch::Versioned;
use hbd_types::robust::{BackoffSchedule, BreakerConfig, BreakerState, CircuitBreaker};
use hbd_types::{EventQueue, HbdError, Microseconds, Result, Seconds};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a client retries shed queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// The deterministic backoff schedule (delays keyed by query id).
    pub backoff: BackoffSchedule,
    /// Total attempts per query, initial submit included (>= 1; 0 is
    /// treated as 1).
    pub max_attempts: u32,
}

/// Full configuration of a [`RetryingClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The admission queue the client submits into.
    pub admission: AdmissionConfig,
    /// Retry budget and backoff.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds around the service.
    pub breaker: BreakerConfig,
    /// Per-attempt deadline budget, relative to the attempt's submit
    /// instant; `Microseconds(f64::INFINITY)` for none.
    pub deadline: Microseconds,
}

/// One query of a client session.
#[derive(Debug, Clone)]
pub struct ClientQuery {
    /// Session-unique id (also the backoff jitter key).
    pub id: u64,
    /// The query.
    pub query: PlacementQuery,
    /// First-submit instant.
    pub arrival: Microseconds,
    /// Priority class (0 = most important).
    pub class: u8,
}

/// A store publish scheduled at a modeled instant — how background churn and
/// fault storms enter a session.
#[derive(Debug, Clone)]
pub struct StorePublish {
    /// When to publish.
    pub at: Microseconds,
    /// The delta to publish.
    pub delta: SnapshotDelta,
}

/// The terminal outcome of one client query.
#[derive(Debug, Clone)]
pub enum ClientOutcome {
    /// Answered by the service within deadline.
    Answered {
        /// Attempts spent (>= 1).
        attempts: u32,
        /// Modeled completion instant.
        completed: Microseconds,
        /// Completion minus the query's *original* arrival — retries
        /// included, so this is the end-to-end latency a caller saw.
        sojourn: Microseconds,
        /// The service's answer.
        answer: PlacementAnswer,
    },
    /// Answered client-side from the last healthy epoch while the breaker
    /// was open. Only `MaxJob` / `WhatIf` queries degrade.
    Degraded {
        /// Attempts spent when the degraded answer was produced.
        attempts: u32,
        /// When it was produced.
        at: Microseconds,
        /// How many epochs behind the store the answering snapshot was.
        staleness_epochs: u64,
        /// The (possibly stale) answer.
        answer: PlacementAnswer,
    },
    /// The retry budget ran out before any answer.
    Exhausted {
        /// Attempts spent (== the budget).
        attempts: u32,
        /// When the last attempt failed.
        at: Microseconds,
    },
}

/// Everything a [`RetryingClient::run_session`] run observed.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Terminal outcome per query id (every submitted query has exactly
    /// one).
    pub outcomes: BTreeMap<u64, ClientOutcome>,
    /// Re-submits scheduled (service sheds and breaker refusals alike).
    pub retries: u64,
    /// The breaker's full transition log (times in modeled seconds,
    /// monotone).
    pub breaker_transitions: Vec<(Seconds, BreakerState)>,
    /// The admission controller's final counters.
    pub admission: AdmissionStats,
    /// Per recovery mark: modeled time from the mark until the system was
    /// healthy again (breaker closed, queue empty, server idle), or `None`
    /// if it never recovered within the session.
    pub recovery: Vec<Option<Microseconds>>,
}

impl ClientReport {
    /// Counts of `(answered, degraded, exhausted)` outcomes.
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for outcome in self.outcomes.values() {
            match outcome {
                ClientOutcome::Answered { .. } => counts.0 += 1,
                ClientOutcome::Degraded { .. } => counts.1 += 1,
                ClientOutcome::Exhausted { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

/// One event of the session's modeled-time loop. The event carries no
/// instant: the session queue is keyed in [`Microseconds`], and its pop
/// returns the instant the event runs at.
#[derive(Debug, Clone)]
enum SessionEvent {
    /// (Re-)submit query `idx`, spending attempt number `attempt` (0-based).
    Submit { idx: usize, attempt: u32 },
    /// Apply publish `idx` to the store.
    Publish { idx: usize },
    /// Start watching for recovery on mark `idx`.
    Mark { idx: usize },
}

/// The retrying, breaker-guarded client wrapper. Construction is
/// config-only; all state lives inside one [`run_session`](Self::run_session)
/// call, which makes sessions trivially repeatable.
#[derive(Debug, Clone)]
pub struct RetryingClient {
    config: ClientConfig,
}

/// Per-query session state.
struct QueryState {
    attempts: u32,
    outcome: Option<ClientOutcome>,
}

/// The mutable state of one running session, shared between the event
/// handlers.
struct Session<'a> {
    service: &'a PlacementService,
    config: &'a ClientConfig,
    controller: AdmissionController,
    breaker: CircuitBreaker,
    healthy: Arc<Versioned<ClusterSnapshot>>,
    events: EventQueue<SessionEvent, Microseconds>,
    states: Vec<QueryState>,
    /// Query id → index into `states` / the query slice.
    index_of: BTreeMap<u64, usize>,
    retries: u64,
    /// `(mark index, mark instant)` still waiting for recovery.
    awaiting_recovery: Vec<(usize, Microseconds)>,
    recovery: Vec<Option<Microseconds>>,
}

impl RetryingClient {
    /// A client with the given configuration.
    pub fn new(config: ClientConfig) -> Self {
        RetryingClient { config }
    }

    /// Runs one deterministic session: `queries` arrive at their instants,
    /// `publishes` mutate the store at theirs, and each `marks` instant
    /// starts a recovery stopwatch (used by the fault-storm experiment to
    /// measure time-to-healthy per storm). Deterministic in the inputs;
    /// invariant in `threads`.
    ///
    /// Returns [`HbdError::InvalidConfig`] if two queries share an id, if a
    /// modeled cost fails [`ModeledLatency::validate`], if a query arrival,
    /// publish instant or mark is not finite and non-negative, or if the
    /// deadline budget is NaN; the checks run before any event is
    /// scheduled. An infinite cost would otherwise park the modeled server
    /// at +∞ with tickets queued, and the session would never return.
    pub fn run_session(
        &self,
        service: &PlacementService,
        model: ModeledLatency,
        queries: &[ClientQuery],
        publishes: &[StorePublish],
        marks: &[Microseconds],
        threads: usize,
    ) -> Result<ClientReport> {
        let controller = AdmissionController::new(self.config.admission, model)?;
        let mut instants = queries
            .iter()
            .map(|q| q.arrival)
            .chain(publishes.iter().map(|p| p.at))
            .chain(marks.iter().copied());
        if let Some(bad) = instants.find(|at| !at.is_finite_non_negative()) {
            return Err(HbdError::invalid_config(format!(
                "session instant {bad} is not finite and >= 0"
            )));
        }
        if self.config.deadline.value().is_nan() {
            return Err(HbdError::invalid_config("the deadline budget is NaN"));
        }
        let mut index_of = BTreeMap::new();
        for (idx, query) in queries.iter().enumerate() {
            if index_of.insert(query.id, idx).is_some() {
                return Err(HbdError::invalid_config(format!(
                    "query id {} appears more than once in the session",
                    query.id
                )));
            }
        }
        let mut session = Session {
            service,
            config: &self.config,
            controller,
            breaker: CircuitBreaker::new(self.config.breaker),
            healthy: service.store().load(),
            events: EventQueue::new(),
            states: queries
                .iter()
                .map(|_| QueryState {
                    attempts: 0,
                    outcome: None,
                })
                .collect(),
            index_of,
            retries: 0,
            awaiting_recovery: Vec::new(),
            recovery: vec![None; marks.len()],
        };
        let events = &mut session.events;
        for (idx, query) in queries.iter().enumerate() {
            events.push(query.arrival, SessionEvent::Submit { idx, attempt: 0 });
        }
        for (idx, publish) in publishes.iter().enumerate() {
            events.push(publish.at, SessionEvent::Publish { idx });
        }
        for (idx, &at) in marks.iter().enumerate() {
            events.push(at, SessionEvent::Mark { idx });
        }

        // The main loop: pop events in modeled-time order; when the event
        // queue drains but tickets are still queued, flush the admission
        // queue (whose sheds may schedule further retries, re-filling the
        // event queue).
        let mut dispositions: Vec<Disposition> = Vec::new();
        loop {
            if let Some((now, event)) = session.events.pop() {
                session
                    .controller
                    .run_until(service, now, threads, &mut dispositions);
                session.resolve(queries, &mut dispositions, now);
                session.handle(queries, publishes, now, event);
                session.check_recovery(now);
            } else if session.controller.backlog() > 0 {
                session
                    .controller
                    .drain(service, threads, &mut dispositions);
                let now = session.controller.free_at();
                session.resolve(queries, &mut dispositions, now);
                session.check_recovery(now);
            } else {
                break;
            }
        }

        Ok(ClientReport {
            outcomes: queries
                .iter()
                .zip(&mut session.states)
                .map(|(q, s)| {
                    let outcome = s.outcome.take().expect("every query reached an outcome");
                    (q.id, outcome)
                })
                .collect(),
            retries: session.retries,
            breaker_transitions: session.breaker.transitions().to_vec(),
            admission: session.controller.stats(),
            recovery: session.recovery,
        })
    }
}

impl Session<'_> {
    fn handle(
        &mut self,
        queries: &[ClientQuery],
        publishes: &[StorePublish],
        now: Microseconds,
        event: SessionEvent,
    ) {
        match event {
            SessionEvent::Publish { idx } => {
                self.service.store().publish_delta(&publishes[idx].delta);
            }
            SessionEvent::Mark { idx } => self.awaiting_recovery.push((idx, now)),
            SessionEvent::Submit { idx, attempt } => self.submit(queries, idx, attempt, now),
        }
    }

    fn submit(&mut self, queries: &[ClientQuery], idx: usize, attempt: u32, now: Microseconds) {
        let query = &queries[idx];
        self.states[idx].attempts = attempt + 1;
        if self.breaker.allow(now.to_seconds()) {
            let mut out = Vec::new();
            self.controller.offer(
                Ticket {
                    id: query.id,
                    query: query.query.clone(),
                    arrival: now,
                    deadline: now + self.config.deadline,
                    class: query.class,
                },
                &mut out,
            );
            self.resolve(queries, &mut out, now);
            return;
        }
        // Breaker open (or half-open with the probe already in flight):
        // degrade read-only queries from the last healthy epoch, spend an
        // attempt waiting for the re-probe otherwise.
        if let Some(answer) = degraded_answer(&self.healthy, &query.query) {
            let staleness_epochs = self.service.store().epoch() - self.healthy.epoch;
            self.states[idx].outcome = Some(ClientOutcome::Degraded {
                attempts: attempt + 1,
                at: now,
                staleness_epochs,
                answer,
            });
            return;
        }
        let reopen = self.breaker.retry_at(now.to_seconds()).to_micros();
        self.retry_or_exhaust(queries, idx, now, reopen - now, now);
    }

    /// Spends the failed attempt `states[idx].attempts` of query `idx`,
    /// which failed at `at`: within the retry budget, schedules the next
    /// attempt after the larger of `hint` (the shed's `retry_after`, or the
    /// wait until the breaker re-probes) and the seeded backoff, but never
    /// before `not_before`; past the budget, records the query as exhausted
    /// at `at`.
    fn retry_or_exhaust(
        &mut self,
        queries: &[ClientQuery],
        idx: usize,
        at: Microseconds,
        hint: Microseconds,
        not_before: Microseconds,
    ) {
        let attempts = self.states[idx].attempts;
        if attempts < self.config.retry.max_attempts.max(1) {
            let backoff = self
                .config
                .retry
                .backoff
                .delay(attempts - 1, queries[idx].id)
                .to_micros();
            // A strictly positive floor keeps the loop live even with a
            // degenerate zero-delay schedule.
            let wake = (at + hint.max(backoff).max(Microseconds(1.0))).max(not_before);
            self.retries += 1;
            let retry = SessionEvent::Submit {
                idx,
                attempt: attempts,
            };
            self.events.push(wake, retry);
        } else {
            self.states[idx].outcome = Some(ClientOutcome::Exhausted { attempts, at });
        }
    }

    /// Applies a batch of admission dispositions: successes feed the breaker
    /// and refresh the healthy snapshot, sheds feed the breaker and schedule
    /// backoff retries (or exhaust the budget). `learned` is the modeled
    /// instant the client processes the batch; a retry can never be
    /// scheduled before it.
    fn resolve(
        &mut self,
        queries: &[ClientQuery],
        dispositions: &mut Vec<Disposition>,
        learned: Microseconds,
    ) {
        for disposition in dispositions.drain(..) {
            let idx = self.index_of[&disposition.id()];
            match disposition {
                Disposition::Answered(answered) => {
                    self.breaker.on_success(answered.completed.to_seconds());
                    // The store answered: whatever it holds now is the new
                    // healthy reference for degraded mode.
                    self.healthy = self.service.store().load();
                    self.states[idx].outcome = Some(ClientOutcome::Answered {
                        attempts: self.states[idx].attempts,
                        completed: answered.completed,
                        sojourn: answered.completed - queries[idx].arrival,
                        answer: answered.answer,
                    });
                }
                Disposition::Shed(shed) => {
                    self.breaker.on_failure(shed.at.to_seconds());
                    self.retry_or_exhaust(queries, idx, shed.at, shed.retry_after, learned);
                }
            }
        }
    }

    /// Resolves pending recovery marks: the system is "recovered" when the
    /// breaker is closed, the admission queue is empty and the modeled
    /// server is idle.
    fn check_recovery(&mut self, now: Microseconds) {
        if self.awaiting_recovery.is_empty() {
            return;
        }
        let healthy = self.breaker.state() == BreakerState::Closed
            && self.controller.backlog() == 0
            && self.controller.free_at() <= now;
        if healthy {
            for (idx, marked) in self.awaiting_recovery.drain(..) {
                self.recovery[idx] = Some(now - marked);
            }
        }
    }
}

/// The degraded-mode answer for a query against the pinned healthy snapshot:
/// `MaxJob` and `WhatIf` are pure reads and answer (staleness-labelled);
/// `Place` must not hand out nodes based on stale occupancy and returns
/// `None`.
fn degraded_answer(
    snapshot: &Versioned<ClusterSnapshot>,
    query: &PlacementQuery,
) -> Option<PlacementAnswer> {
    let orchestrator = snapshot.value.orchestrator();
    let faults = snapshot.value.faults();
    match query {
        PlacementQuery::MaxJob { nodes_per_group, k } => Some(PlacementAnswer::MaxJob {
            job_nodes: max_orchestratable_job(orchestrator, *nodes_per_group, *k, faults, 1)
                .job_nodes,
        }),
        PlacementQuery::WhatIf {
            request,
            extra_faults,
        } => Some(PlacementAnswer::Placement(orchestrator.orchestrate_par(
            request,
            &faults.union(extra_faults),
            1,
        ))),
        PlacementQuery::Place(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ShedPolicy;
    use crate::fat_tree::{FatTreeOrchestrator, OrchestrationRequest};
    use crate::service::SnapshotStore;
    use hbd_types::NodeId;
    use topology::{FatTree, FaultSet};

    fn service() -> PlacementService {
        let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(128, 16, 8).unwrap()).unwrap());
        PlacementService::new(Arc::new(SnapshotStore::new(orch, FaultSet::new())))
    }

    fn place_query(id: u64, arrival_us: f64) -> ClientQuery {
        ClientQuery {
            id,
            query: PlacementQuery::Place(OrchestrationRequest {
                job_nodes: 32,
                nodes_per_group: 8,
                k: 2,
            }),
            arrival: Microseconds(arrival_us),
            class: 0,
        }
    }

    fn max_job_query(id: u64, arrival_us: f64) -> ClientQuery {
        ClientQuery {
            id,
            query: PlacementQuery::MaxJob {
                nodes_per_group: 8,
                k: 2,
            },
            arrival: Microseconds(arrival_us),
            class: 0,
        }
    }

    fn config(
        capacity: usize,
        max_attempts: u32,
        threshold: u32,
        cooldown: Seconds,
    ) -> ClientConfig {
        ClientConfig {
            admission: AdmissionConfig {
                capacity,
                batch_cap: 1,
                policy: ShedPolicy::RejectNewest,
            },
            retry: RetryPolicy {
                backoff: BackoffSchedule {
                    base: Seconds(0.0005),
                    factor: 2.0,
                    cap: Seconds(0.01),
                    jitter: 0.0,
                    seed: 1,
                },
                max_attempts,
            },
            breaker: BreakerConfig {
                failure_threshold: threshold,
                cooldown,
            },
            deadline: Microseconds(f64::INFINITY),
        }
    }

    #[test]
    fn healthy_session_answers_everything_first_try() {
        let service = service();
        let client = RetryingClient::new(config(64, 3, 3, Seconds(0.001)));
        let queries: Vec<ClientQuery> =
            (0..4).map(|i| place_query(i, i as f64 * 1_000.0)).collect();
        let report = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(128),
                &queries,
                &[],
                &[],
                1,
            )
            .unwrap();
        assert_eq!(report.outcome_counts(), (4, 0, 0));
        assert_eq!(report.retries, 0);
        assert!(report.breaker_transitions.is_empty());
        for outcome in report.outcomes.values() {
            let ClientOutcome::Answered {
                attempts, sojourn, ..
            } = outcome
            else {
                panic!("expected an answer");
            };
            assert_eq!(*attempts, 1);
            assert!(*sojourn > Microseconds::ZERO);
        }
    }

    #[test]
    fn zero_capacity_service_exhausts_the_retry_budget() {
        let service = service();
        let client = RetryingClient::new(config(0, 2, 100, Seconds(1.0)));
        let queries = vec![place_query(0, 0.0), place_query(1, 10.0)];
        let report = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(128),
                &queries,
                &[],
                &[],
                1,
            )
            .unwrap();
        assert_eq!(report.outcome_counts(), (0, 0, 2));
        for outcome in report.outcomes.values() {
            let ClientOutcome::Exhausted { attempts, .. } = outcome else {
                panic!("expected exhaustion");
            };
            assert_eq!(*attempts, 2, "the whole budget was spent");
        }
        // One retry per query beyond the initial attempt.
        assert_eq!(report.retries, 2);
        assert_eq!(report.admission.offered, 4);
        assert_eq!(report.admission.shed_queue_full, 4);
    }

    #[test]
    fn open_breaker_degrades_reads_from_the_last_healthy_epoch() {
        let service = service();
        // Threshold 1: the very first shed trips the breaker; the long
        // cooldown keeps it open for the rest of the session.
        let client = RetryingClient::new(config(0, 1, 1, Seconds(10.0)));
        let queries = vec![place_query(0, 0.0), max_job_query(1, 10.0)];
        // A fault published between the two arrivals makes the store's
        // current epoch newer than the client's pinned healthy snapshot.
        let mut delta = SnapshotDelta::new();
        delta.faulted.add(NodeId(3));
        let publishes = vec![StorePublish {
            at: Microseconds(5.0),
            delta,
        }];
        let report = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(128),
                &queries,
                &publishes,
                &[],
                1,
            )
            .unwrap();
        assert_eq!(report.outcome_counts(), (0, 1, 1));
        let ClientOutcome::Degraded {
            staleness_epochs,
            answer,
            ..
        } = &report.outcomes[&1]
        else {
            panic!("the read query must degrade while the breaker is open");
        };
        assert_eq!(*staleness_epochs, 1, "one epoch behind the store");
        // The degraded answer reflects the *healthy* (fault-free) epoch: the
        // full cluster is still placeable there.
        assert_eq!(*answer, PlacementAnswer::MaxJob { job_nodes: 128 });
        // The Place query cannot degrade and exhausted its 1-attempt budget.
        assert!(matches!(
            report.outcomes[&0],
            ClientOutcome::Exhausted { attempts: 1, .. }
        ));
    }

    #[test]
    fn breaker_reprobes_after_cooldown_and_recovers() {
        let service = service();
        // Capacity 1 with four near-simultaneous arrivals: two sheds trip
        // the breaker, the cooldown passes while the server drains, the
        // half-open probe succeeds and the session ends healthy.
        let client = RetryingClient::new(config(1, 6, 2, Seconds(0.001)));
        let queries: Vec<ClientQuery> = (0..4).map(|i| place_query(i, i as f64)).collect();
        let marks = vec![Microseconds(3.0)];
        let report = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(128),
                &queries,
                &[],
                &marks,
                1,
            )
            .unwrap();
        // Everything eventually answers within the generous budget.
        assert_eq!(report.outcome_counts(), (4, 0, 0));
        assert!(report.retries > 0);
        // The transition log machine-checks the re-probe protocol: it opens,
        // half-opens at (or after) the cooldown, closes on the probe answer,
        // in monotone time.
        let states: Vec<BreakerState> =
            report.breaker_transitions.iter().map(|(_, s)| *s).collect();
        assert!(states.contains(&BreakerState::Open));
        assert!(states.contains(&BreakerState::HalfOpen));
        assert_eq!(states.last(), Some(&BreakerState::Closed));
        let times: Vec<f64> = report
            .breaker_transitions
            .iter()
            .map(|(t, _)| t.value())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // The storm mark recovered once the breaker closed and the queue
        // drained.
        assert!(report.recovery[0].is_some());
        // Conservation at the admission queue: offers resolve exactly once.
        let stats = report.admission;
        assert_eq!(stats.offered, stats.answered + stats.shed());
    }

    #[test]
    fn infinite_or_nan_costs_and_bad_instants_are_rejected_before_anything_runs() {
        let service = service();
        let client = RetryingClient::new(config(64, 3, 3, Seconds(0.001)));
        let queries = vec![place_query(0, 0.0), place_query(1, 10.0)];
        let run = |client: &RetryingClient,
                   model: ModeledLatency,
                   queries: &[ClientQuery],
                   publishes: &[StorePublish],
                   marks: &[Microseconds]| {
            client
                .run_session(&service, model, queries, publishes, marks, 1)
                .unwrap_err()
        };
        let base = ModeledLatency::for_cluster(128);
        // An infinite cost parks the modeled server at +∞ with a ticket
        // still queued: without the check this session never returns.
        let infinite = ModeledLatency {
            query_overhead: Microseconds(f64::INFINITY),
            ..base
        };
        let nan = ModeledLatency {
            probe: Microseconds(f64::NAN),
            ..base
        };
        let negative = ModeledLatency {
            build: Microseconds(-1.0),
            ..base
        };
        let mut errors = vec![
            run(&client, infinite, &queries, &[], &[]),
            run(&client, nan, &queries, &[], &[]),
            run(&client, negative, &queries, &[], &[]),
            run(&client, base, &[place_query(0, -5.0)], &[], &[]),
            run(&client, base, &[place_query(0, f64::NAN)], &[], &[]),
            run(&client, base, &queries, &[], &[Microseconds(f64::INFINITY)]),
        ];
        let publish = StorePublish {
            at: Microseconds(f64::NAN),
            delta: SnapshotDelta::new(),
        };
        errors.push(run(&client, base, &queries, &[publish], &[]));
        let mut nan_deadline = config(64, 3, 3, Seconds(0.001));
        nan_deadline.deadline = Microseconds(f64::NAN);
        let nan_client = RetryingClient::new(nan_deadline);
        errors.push(run(&nan_client, base, &queries, &[], &[]));
        for err in errors {
            assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
        }
        // The store saw no publish: every check ran before scheduling.
        assert_eq!(service.store().epoch(), 0);
    }

    #[test]
    fn duplicate_query_ids_are_rejected_before_anything_runs() {
        let service = service();
        let client = RetryingClient::new(config(64, 3, 3, Seconds(0.001)));
        let queries = vec![place_query(7, 0.0), max_job_query(7, 10.0)];
        let err = client
            .run_session(
                &service,
                ModeledLatency::for_cluster(128),
                &queries,
                &[],
                &[],
                1,
            )
            .unwrap_err();
        assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("query id 7"), "{err}");
    }
}
