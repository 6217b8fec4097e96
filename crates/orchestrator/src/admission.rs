//! Admission control in front of [`PlacementService::answer_batch`]: a
//! bounded modeled-time queue with per-query deadlines and load-shedding
//! policies.
//!
//! The throughput experiment's open-loop queue is infinitely patient: past
//! saturation its backlog — and therefore its p99 sojourn — grows without
//! bound. [`AdmissionController`] replaces that queue with an operational
//! one. Every query arrives as a [`Ticket`] carrying an absolute modeled
//! deadline and a priority class; the controller keeps at most
//! `capacity` tickets queued, forms batches exactly like the open-loop
//! model (whatever has arrived by the time the server frees up, capped at
//! `batch_cap`), prices them with the shared [`ModeledLatency`] lane model,
//! and **sheds** instead of queueing unboundedly. Shed queries get a typed
//! [`ShedQuery`] outcome whose `retry_after` is a deterministic
//! saturation signal derived from the modeled backlog — the contract the
//! retrying client (`crate::client`) honours with seeded backoff.
//!
//! Two guarantees hold by construction and are pinned by the
//! `admission_oracle` property suite:
//!
//! * **No answer is ever returned past its deadline.** Tickets already
//!   expired when their batch would start are shed at the queue; a ticket
//!   whose *modeled completion* overruns its deadline is shed at completion
//!   (the work was spent — deterministically — but the stale answer is
//!   withheld).
//! * **Conservation:** every offered ticket is eventually answered or shed,
//!   exactly once — `offered == answered + shed + backlog` at all times.
//!
//! Every instant and duration is modeled time, typed [`Microseconds`];
//! determinism and thread-count invariance follow from the service's own
//! guarantees (answers and cost counters are byte-identical for any
//! `threads`) plus the fact that no wall-clock ever enters the model.

use crate::service::{ModeledLatency, PlacementAnswer, PlacementQuery, PlacementService};
use hbd_types::{Microseconds, Result};
use std::collections::VecDeque;

/// What to do with an arriving ticket when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the arriving ticket (classic bounded FIFO).
    RejectNewest,
    /// Shed the ticket with the **earliest deadline** among queued ∪
    /// {arriving} — the one least likely to be answered in time anyway
    /// (ties broken toward the newer ticket).
    DeadlineAware,
    /// Shed the ticket with the **lowest priority** (numerically largest
    /// class) among queued ∪ {arriving}, ties broken toward the newer
    /// ticket.
    PriorityClass,
}

/// Configuration of an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued tickets; an arrival beyond it triggers the policy.
    /// `usize::MAX` reproduces the unbounded open-loop queue.
    pub capacity: usize,
    /// Maximum tickets answered as one service batch.
    pub batch_cap: usize,
    /// The shedding policy.
    pub policy: ShedPolicy,
}

/// One admitted-or-shed unit of work: a query plus its arrival instant,
/// absolute deadline and priority class, all in modeled time.
#[derive(Debug, Clone)]
pub struct Ticket {
    /// Caller-chosen identifier, echoed in the disposition.
    pub id: u64,
    /// The query itself.
    pub query: PlacementQuery,
    /// Arrival instant. Offers must be time-ordered.
    pub arrival: Microseconds,
    /// Absolute deadline; `Microseconds(f64::INFINITY)` for none. A ticket
    /// whose deadline is not strictly after its arrival is shed on arrival.
    pub deadline: Microseconds,
    /// Priority class, 0 = most important (only [`ShedPolicy::PriorityClass`]
    /// reads it).
    pub class: u8,
}

/// Why a ticket was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was full and the policy rejected the arriving ticket.
    QueueFull,
    /// The queue was full and the policy evicted this queued ticket in
    /// favour of a newer arrival.
    Displaced,
    /// The ticket's deadline passed before (or during) service.
    DeadlineExpired,
}

/// A query that was answered within its deadline.
#[derive(Debug, Clone)]
pub struct AnsweredQuery {
    /// The ticket id.
    pub id: u64,
    /// The answer, bit-identical to what an unqueued
    /// [`PlacementService::answer_batch`] call would have produced against
    /// the same epoch.
    pub answer: PlacementAnswer,
    /// When the ticket's batch started service.
    pub started: Microseconds,
    /// When the ticket's batch completed; `<= deadline`.
    pub completed: Microseconds,
    /// `completed - arrival`.
    pub sojourn: Microseconds,
    /// The snapshot epoch the answer was computed against.
    pub epoch: u64,
}

/// A query that was shed. `Rejected { retry_after }` in the issue's terms:
/// the caller should not come back before `retry_after` has elapsed.
#[derive(Debug, Clone, Copy)]
pub struct ShedQuery {
    /// The ticket id.
    pub id: u64,
    /// When the shed happened: arrival for queue-full and displacement
    /// sheds, batch start or completion for deadline sheds.
    pub at: Microseconds,
    /// Why.
    pub reason: ShedReason,
    /// Deterministic saturation signal: the modeled backlog-drain horizon at
    /// the shed instant. Retrying earlier than `at + retry_after` is likely
    /// to be shed again.
    pub retry_after: Microseconds,
}

/// The final outcome of one offered ticket.
#[derive(Debug, Clone)]
pub enum Disposition {
    /// Answered within deadline.
    Answered(AnsweredQuery),
    /// Shed (never answered).
    Shed(ShedQuery),
}

impl Disposition {
    /// The ticket id this disposition resolves.
    pub fn id(&self) -> u64 {
        match self {
            Disposition::Answered(a) => a.id,
            Disposition::Shed(s) => s.id,
        }
    }
}

/// Running counters of one [`AdmissionController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Tickets offered.
    pub offered: u64,
    /// Tickets answered within deadline.
    pub answered: u64,
    /// Arriving tickets shed because the queue was full.
    pub shed_queue_full: u64,
    /// Queued tickets displaced by the policy.
    pub shed_displaced: u64,
    /// Tickets shed because their deadline passed.
    pub shed_deadline: u64,
    /// Service batches formed.
    pub batches: u64,
    /// Largest queue depth observed right after an admission.
    pub max_backlog: usize,
}

impl AdmissionStats {
    /// Total sheds across all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_displaced + self.shed_deadline
    }
}

/// The bounded modeled-time admission queue in front of a
/// [`PlacementService`]. See the module docs for the protocol; drive it with
/// time-ordered [`offer`](Self::offer) calls interleaved with
/// [`run_until`](Self::run_until), then [`drain`](Self::drain).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    model: ModeledLatency,
    pending: VecDeque<Ticket>,
    free_at: Microseconds,
    /// EWMA of the modeled per-query service time, seeded with a one-search
    /// prior so `retry_after` is meaningful before the first batch.
    ewma_query: Microseconds,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller with an empty queue and an idle modeled server.
    ///
    /// Fails with
    /// [`HbdError::InvalidConfig`](hbd_types::HbdError::InvalidConfig) when
    /// a modeled cost fails [`ModeledLatency::validate`]: an infinite cost
    /// would park the modeled server at +∞, and [`drain`](Self::drain)
    /// would return with tickets still queued. With finite costs the
    /// server's free instant stays finite as long as every offered arrival
    /// is finite (as [`crate::client::RetryingClient::run_session`] checks
    /// up front). Every batch start is then finite, hence before `drain`'s
    /// infinite horizon, and every batch pops at least the front ticket —
    /// served or shed — since its start is `≥ front.arrival`, so `drain`
    /// answers or sheds every queued ticket.
    pub fn new(config: AdmissionConfig, model: ModeledLatency) -> Result<Self> {
        model.validate()?;
        let prior = model.query_overhead + model.search;
        Ok(AdmissionController {
            config,
            model,
            pending: VecDeque::new(),
            free_at: Microseconds::ZERO,
            ewma_query: prior,
            stats: AdmissionStats::default(),
        })
    }

    /// Running counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Tickets currently queued (offered, not yet answered or shed).
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// When the modeled server frees up.
    pub fn free_at(&self) -> Microseconds {
        self.free_at
    }

    /// The cost model this controller prices batches with.
    pub fn model(&self) -> &ModeledLatency {
        &self.model
    }

    /// The saturation signal at modeled time `now`: how long the modeled
    /// backlog (the busy server plus every queued ticket at the EWMA
    /// per-query service time, divided over the modeled lanes) needs to
    /// drain. Deterministic in the controller state.
    pub fn retry_after(&self, now: Microseconds) -> Microseconds {
        let busy = (self.free_at - now).max(Microseconds::ZERO);
        let queued =
            (self.pending.len() as f64 + 1.0) * self.ewma_query / self.model.lanes.max(1) as f64;
        busy + queued
    }

    /// Offers one ticket at its arrival instant. Appends any resulting shed
    /// dispositions (the arriving ticket, or a displaced queued one) to
    /// `out`; an admitted ticket produces its disposition later, from
    /// [`run_until`](Self::run_until) / [`drain`](Self::drain). Offers must
    /// be nondecreasing in `arrival`; callers interleave
    /// `run_until(ticket.arrival)` before the offer so the queue state is
    /// current.
    pub fn offer(&mut self, ticket: Ticket, out: &mut Vec<Disposition>) {
        self.stats.offered += 1;
        let now = ticket.arrival;
        // A deadline at (or before) arrival can never be met: the modeled
        // service time is strictly positive. Shed immediately.
        if ticket.deadline <= now {
            self.shed(ticket.id, now, ShedReason::DeadlineExpired, now, out);
            return;
        }
        if self.pending.len() < self.config.capacity {
            self.admit(ticket);
            return;
        }
        // Queue full: the policy picks one victim among queued ∪ {arriving}.
        // `None` means the arriving ticket itself loses.
        let victim = match self.config.policy {
            ShedPolicy::RejectNewest => None,
            ShedPolicy::DeadlineAware => {
                // Earliest deadline loses; on a tie the newer (larger-id)
                // ticket loses. The arriving ticket participates with its
                // own key, so a queued ticket is only displaced when it is
                // strictly a worse bet than the arrival.
                let mut victim: Option<usize> = None;
                let mut key = (ticket.deadline, std::cmp::Reverse(ticket.id));
                for (idx, t) in self.pending.iter().enumerate() {
                    let candidate = (t.deadline, std::cmp::Reverse(t.id));
                    if candidate < key {
                        key = candidate;
                        victim = Some(idx);
                    }
                }
                victim
            }
            ShedPolicy::PriorityClass => {
                // Largest class (lowest priority) loses; on a tie the newer
                // ticket loses.
                let mut victim: Option<usize> = None;
                let mut key = (ticket.class, ticket.id);
                for (idx, t) in self.pending.iter().enumerate() {
                    let candidate = (t.class, t.id);
                    if candidate > key {
                        key = candidate;
                        victim = Some(idx);
                    }
                }
                victim
            }
        };
        match victim {
            Some(idx) => {
                let evicted = self.pending.remove(idx).expect("victim index in range");
                self.shed(evicted.id, now, ShedReason::Displaced, now, out);
                self.admit(ticket);
            }
            None => {
                self.shed(ticket.id, now, ShedReason::QueueFull, now, out);
            }
        }
    }

    fn admit(&mut self, ticket: Ticket) {
        self.pending.push_back(ticket);
        self.stats.max_backlog = self.stats.max_backlog.max(self.pending.len());
    }

    fn shed(
        &mut self,
        id: u64,
        at: Microseconds,
        reason: ShedReason,
        signal_at: Microseconds,
        out: &mut Vec<Disposition>,
    ) {
        match reason {
            ShedReason::QueueFull => self.stats.shed_queue_full += 1,
            ShedReason::Displaced => self.stats.shed_displaced += 1,
            ShedReason::DeadlineExpired => self.stats.shed_deadline += 1,
        }
        out.push(Disposition::Shed(ShedQuery {
            id,
            at,
            reason,
            retry_after: self.retry_after(signal_at),
        }));
    }

    /// Serves every batch whose modeled start instant is **before**
    /// `now`, appending the resulting dispositions to `out`. Batches form
    /// exactly like the open-loop model: the server takes whatever is queued
    /// when it frees up (tickets whose deadline already passed are shed at
    /// the queue), up to `batch_cap`, answers it as one
    /// [`PlacementService::answer_batch`] call and charges the modeled batch
    /// service time.
    pub fn run_until(
        &mut self,
        service: &PlacementService,
        now: Microseconds,
        threads: usize,
        out: &mut Vec<Disposition>,
    ) {
        while let Some(front) = self.pending.front() {
            let start = self.free_at.max(front.arrival);
            if start >= now {
                break;
            }
            self.serve_one_batch(service, start, threads, out);
        }
    }

    /// Serves every remaining queued ticket (the end-of-stream flush),
    /// appending the dispositions to `out`: `run_until` with no horizon.
    /// It leaves no ticket queued when every offered arrival is finite (see
    /// [`new`](Self::new)).
    pub fn drain(
        &mut self,
        service: &PlacementService,
        threads: usize,
        out: &mut Vec<Disposition>,
    ) {
        self.run_until(service, Microseconds(f64::INFINITY), threads, out);
    }

    fn serve_one_batch(
        &mut self,
        service: &PlacementService,
        start: Microseconds,
        threads: usize,
        out: &mut Vec<Disposition>,
    ) {
        // Pop the batch: everything already arrived by `start`, up to the
        // cap; tickets expired at the start instant are shed, not served.
        let mut batch: Vec<Ticket> = Vec::new();
        while batch.len() < self.config.batch_cap {
            let Some(front) = self.pending.front() else {
                break;
            };
            if front.arrival > start {
                break;
            }
            let ticket = self.pending.pop_front().expect("front exists");
            if ticket.deadline <= start {
                self.shed(ticket.id, start, ShedReason::DeadlineExpired, start, out);
            } else {
                batch.push(ticket);
            }
        }
        if batch.is_empty() {
            // Every candidate was expired; the loop in the caller recomputes
            // the next start from the (shrunk) queue.
            return;
        }
        let queries: Vec<PlacementQuery> = batch.iter().map(|t| t.query.clone()).collect();
        let report = service.answer_batch(&queries, threads);
        let service_time = self.model.batch_service(&report);
        let done = start + service_time;
        self.stats.batches += 1;
        // EWMA of per-query modeled service, the retry_after signal.
        let mean = service_time / batch.len() as f64;
        self.ewma_query = if self.stats.batches == 1 {
            mean
        } else {
            0.8 * self.ewma_query + 0.2 * mean
        };
        for (ticket, answer) in batch.into_iter().zip(report.answers) {
            if done > ticket.deadline {
                // The work was spent, but the answer would be late: withhold
                // it. This is what makes "no answer past its deadline" an
                // invariant rather than a tendency.
                self.shed(ticket.id, done, ShedReason::DeadlineExpired, done, out);
            } else {
                self.stats.answered += 1;
                out.push(Disposition::Answered(AnsweredQuery {
                    id: ticket.id,
                    answer,
                    started: start,
                    completed: done,
                    sojourn: done - ticket.arrival,
                    epoch: report.epoch,
                }));
            }
        }
        self.free_at = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fat_tree::{FatTreeOrchestrator, OrchestrationRequest};
    use crate::service::SnapshotStore;
    use std::sync::Arc;
    use topology::{FatTree, FaultSet};

    fn service() -> PlacementService {
        let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(128, 16, 8).unwrap()).unwrap());
        PlacementService::new(Arc::new(SnapshotStore::new(orch, FaultSet::new())))
    }

    fn place(job_nodes: usize) -> PlacementQuery {
        PlacementQuery::Place(OrchestrationRequest {
            job_nodes,
            nodes_per_group: 8,
            k: 2,
        })
    }

    fn ticket(id: u64, arrival_us: f64, deadline_us: f64) -> Ticket {
        Ticket {
            id,
            query: place(32),
            arrival: Microseconds(arrival_us),
            deadline: Microseconds(deadline_us),
            class: 0,
        }
    }

    fn controller(capacity: usize, policy: ShedPolicy) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig {
                capacity,
                batch_cap: 4,
                policy,
            },
            ModeledLatency::for_cluster(128),
        )
        .expect("the cluster model is valid")
    }

    fn sheds(out: &[Disposition]) -> Vec<(u64, ShedReason)> {
        out.iter()
            .filter_map(|d| match d {
                Disposition::Shed(s) => Some((s.id, s.reason)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn unbounded_controller_answers_everything_within_infinite_deadlines() {
        let service = service();
        let mut ctl = controller(usize::MAX, ShedPolicy::RejectNewest);
        let mut out = Vec::new();
        for id in 0..6u64 {
            ctl.offer(ticket(id, id as f64 * 10.0, f64::INFINITY), &mut out);
        }
        assert!(out.is_empty(), "nothing sheds below capacity");
        ctl.drain(&service, 1, &mut out);
        let stats = ctl.stats();
        assert_eq!((stats.offered, stats.answered, stats.shed()), (6, 6, 0));
        // Conservation and ordering: every ticket resolves exactly once, and
        // the modeled completion is past its batch start.
        assert_eq!(out.len(), 6);
        for d in &out {
            let Disposition::Answered(a) = d else {
                panic!("expected an answer");
            };
            assert!(a.completed > a.started);
            assert!(a.sojourn >= Microseconds::ZERO);
        }
    }

    #[test]
    fn zero_capacity_queue_sheds_every_arrival_with_a_retry_hint() {
        let mut ctl = controller(0, ShedPolicy::RejectNewest);
        let mut out = Vec::new();
        for id in 0..3u64 {
            ctl.offer(ticket(id, id as f64, f64::INFINITY), &mut out);
        }
        assert_eq!(
            sheds(&out),
            vec![
                (0, ShedReason::QueueFull),
                (1, ShedReason::QueueFull),
                (2, ShedReason::QueueFull)
            ]
        );
        for d in &out {
            let Disposition::Shed(s) = d else {
                panic!("expected a shed");
            };
            assert!(
                s.retry_after > Microseconds::ZERO,
                "saturation signal must be positive"
            );
        }
        assert_eq!(ctl.stats().shed_queue_full, 3);
        // A zero-capacity deadline-aware queue has no queued victim either.
        let mut ctl = controller(0, ShedPolicy::DeadlineAware);
        let mut out = Vec::new();
        ctl.offer(ticket(9, 0.0, f64::INFINITY), &mut out);
        assert_eq!(sheds(&out), vec![(9, ShedReason::QueueFull)]);
    }

    #[test]
    fn deadline_at_or_before_arrival_is_shed_immediately() {
        let mut ctl = controller(usize::MAX, ShedPolicy::RejectNewest);
        let mut out = Vec::new();
        ctl.offer(ticket(0, 100.0, 100.0), &mut out); // deadline == now
        ctl.offer(ticket(1, 100.0, 50.0), &mut out); // already past
        assert_eq!(
            sheds(&out),
            vec![
                (0, ShedReason::DeadlineExpired),
                (1, ShedReason::DeadlineExpired)
            ]
        );
        assert_eq!(ctl.backlog(), 0);
        assert_eq!(ctl.stats().shed_deadline, 2);
    }

    #[test]
    fn deadline_aware_policy_displaces_the_earliest_deadline() {
        let mut ctl = controller(1, ShedPolicy::DeadlineAware);
        let mut out = Vec::new();
        ctl.offer(ticket(0, 0.0, 500.0), &mut out);
        // Queue full; the queued ticket's deadline (500) is earlier than the
        // arrival's (900): the queued one is displaced.
        ctl.offer(ticket(1, 1.0, 900.0), &mut out);
        assert_eq!(sheds(&out), vec![(0, ShedReason::Displaced)]);
        // Queue full again; now the arrival (deadline 300) is the worst bet
        // and is rejected instead.
        ctl.offer(ticket(2, 2.0, 300.0), &mut out);
        assert_eq!(
            sheds(&out),
            vec![(0, ShedReason::Displaced), (2, ShedReason::QueueFull)]
        );
        assert_eq!(ctl.backlog(), 1);
    }

    #[test]
    fn priority_policy_sheds_the_lowest_priority_ticket() {
        let mut ctl = controller(1, ShedPolicy::PriorityClass);
        let mut out = Vec::new();
        ctl.offer(
            Ticket {
                class: 2,
                ..ticket(0, 0.0, f64::INFINITY)
            },
            &mut out,
        );
        // A more important arrival displaces the queued class-2 ticket.
        ctl.offer(
            Ticket {
                class: 0,
                ..ticket(1, 1.0, f64::INFINITY)
            },
            &mut out,
        );
        assert_eq!(sheds(&out), vec![(0, ShedReason::Displaced)]);
        // A less important arrival is rejected outright.
        ctl.offer(
            Ticket {
                class: 3,
                ..ticket(2, 2.0, f64::INFINITY)
            },
            &mut out,
        );
        assert_eq!(
            sheds(&out),
            vec![(0, ShedReason::Displaced), (2, ShedReason::QueueFull)]
        );
        // An equal-priority arrival loses the tie (newest sheds).
        ctl.offer(
            Ticket {
                class: 0,
                ..ticket(3, 3.0, f64::INFINITY)
            },
            &mut out,
        );
        assert_eq!(ctl.stats().shed_queue_full, 2);
    }

    #[test]
    fn no_answer_is_ever_returned_past_its_deadline() {
        let service = service();
        // One modeled batch of this single query takes overhead + probes *
        // probe > 5 µs; a 1 µs deadline cannot be met even though the
        // ticket is admitted (its deadline is after its arrival).
        let mut ctl = controller(usize::MAX, ShedPolicy::RejectNewest);
        let mut out = Vec::new();
        ctl.offer(ticket(0, 0.0, 1.0), &mut out);
        assert!(out.is_empty(), "admitted: the deadline is still ahead");
        ctl.drain(&service, 1, &mut out);
        assert_eq!(sheds(&out), vec![(0, ShedReason::DeadlineExpired)]);
        let stats = ctl.stats();
        assert_eq!((stats.answered, stats.shed_deadline), (0, 1));
        // A ticket whose deadline passes while it queues behind a long batch
        // is shed at its batch start, without spending service on it.
        let mut ctl = AdmissionController::new(
            AdmissionConfig {
                capacity: usize::MAX,
                batch_cap: 1,
                policy: ShedPolicy::RejectNewest,
            },
            ModeledLatency::for_cluster(128),
        )
        .expect("the cluster model is valid");
        let mut out = Vec::new();
        ctl.offer(ticket(0, 0.0, f64::INFINITY), &mut out);
        ctl.offer(ticket(1, 1.0, 2.0), &mut out);
        ctl.offer(ticket(2, 1.5, f64::INFINITY), &mut out);
        ctl.drain(&service, 1, &mut out);
        assert_eq!(sheds(&out), vec![(1, ShedReason::DeadlineExpired)]);
        assert_eq!(ctl.stats().answered, 2);
    }

    #[test]
    fn batches_form_like_the_open_loop_model() {
        let service = service();
        let mut ctl = controller(usize::MAX, ShedPolicy::RejectNewest);
        let mut out = Vec::new();
        // Five tickets arrive while the server would still be busy with the
        // first: the second batch takes up to batch_cap (4) of them.
        for id in 0..5u64 {
            ctl.offer(ticket(id, id as f64 * 0.1, f64::INFINITY), &mut out);
        }
        ctl.drain(&service, 1, &mut out);
        let stats = ctl.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.answered, 5);
        assert_eq!(stats.max_backlog, 5);
    }

    #[test]
    fn non_finite_or_negative_costs_are_rejected_at_construction() {
        // With an infinite per-query overhead the first batch would complete
        // at +∞, and `drain` would stop with the next ticket still queued.
        let config = AdmissionConfig {
            capacity: usize::MAX,
            batch_cap: 1,
            policy: ShedPolicy::RejectNewest,
        };
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let model = ModeledLatency {
                query_overhead: Microseconds(bad),
                ..ModeledLatency::for_cluster(128)
            };
            assert!(
                matches!(
                    AdmissionController::new(config, model),
                    Err(hbd_types::HbdError::InvalidConfig { .. })
                ),
                "query_overhead {bad}"
            );
        }
    }
}
