//! Online cluster lifecycle simulator: jobs that arrive, fail, and leave.
//!
//! The paper evaluates InfiniteHBD on static, gang-scheduled job mixes; this
//! module layers *job dynamics* on the same deterministic substrate. A
//! discrete-event loop over [`hbd_types::sim`]'s event queue drives four
//! event kinds — job arrivals, job departures, node faults, node repairs —
//! through one shared piece of cluster state:
//!
//! * an admission queue (strict FIFO, or FIFO-with-backfill),
//! * the incremental exclusion ledger ([`dcn::jobmix::ExclusionLedger`]):
//!   faulty nodes ∪ nodes owned by running jobs, maintained across
//!   place/release/fault/repair transitions,
//! * the placement service ([`orchestrator::service::PlacementService`]):
//!   every ledger transition republishes the exclusion union as a snapshot
//!   epoch, and every admission, migration and defragmentation move queries
//!   the service — which answers bit-identically to calling
//!   [`FatTreeOrchestrator::orchestrate_par`] against the ledger directly
//!   (the pre-service path), while consecutive probes against an unchanged
//!   epoch reuse one memoized search scratch per request shape,
//! * `control`'s failover planner, which prices fault-triggered migrations in
//!   port directives on the job's own K-Hop ring.
//!
//! The simulator reports production SLOs: the queueing-delay distribution,
//! placement-latency percentiles, fragmentation over time and goodput.
//! Placement latency is *modeled* (a deterministic function of groups placed,
//! retries and failover commands), never wall-clock, so every derived table
//! is bit-stable in the seed. Each placement is one lazily evaluated query
//! against the placement service, so no thread count enters the run.

use control::{FailoverPlanner, RingPlan};
use dcn::jobmix::ExclusionLedger;
use fault::sim_events::{validate_edges, NodeEvent, NodeEventKind};
use hbd_types::{EventQueue, HbdError, NodeId, Result, Seconds};
use orchestrator::service::{PlacementService, SnapshotStore};
use orchestrator::{FatTreeOrchestrator, OrchestrationRequest, PlacementScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use topology::KHopRing;

/// One job of the workload: what it asks the orchestrator for and how long it
/// runs once placed (isolated service time, excluding queueing and placement
/// latency).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (carried into the per-job record).
    pub name: String,
    /// Placement request (scale, TP group size, K-hop reach).
    pub request: OrchestrationRequest,
    /// Service time: how long the job occupies its nodes.
    pub service: Seconds,
}

/// A job plus its arrival instant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// When the job enters the admission queue.
    pub at: Seconds,
    /// The job itself.
    pub spec: JobSpec,
}

/// A job archetype for the seeded Poisson workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// Template name; arrivals are named `<template>-<index>`.
    pub name: String,
    /// Placement request drawn for every job of this template.
    pub request: OrchestrationRequest,
    /// Mean of the exponential service-time draw.
    pub mean_service: Seconds,
    /// Relative arrival weight (need not be normalised).
    pub weight: f64,
}

/// A time-ordered arrival schedule, either trace-driven or generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    arrivals: Vec<JobArrival>,
}

impl Workload {
    /// A trace-driven workload: sorts the arrivals by time (stable, so
    /// same-instant arrivals keep their input order).
    #[cfg(test)]
    pub(crate) fn from_arrivals(mut arrivals: Vec<JobArrival>) -> Self {
        arrivals.sort_by(|a, b| a.at.value().total_cmp(&b.at.value()));
        Workload { arrivals }
    }

    /// A seeded Poisson workload: exponential interarrivals with the given
    /// mean until `horizon`, each arrival drawing a template by weight and an
    /// exponential service time from the template's mean (clamped to at least
    /// one second). Deterministic in `(templates, mean_interarrival, horizon,
    /// seed)`.
    pub fn poisson(
        templates: &[JobTemplate],
        mean_interarrival: Seconds,
        horizon: Seconds,
        seed: u64,
    ) -> Result<Self> {
        if templates.is_empty() {
            return Err(HbdError::invalid_config(
                "workload needs at least one job template",
            ));
        }
        if not_positive(mean_interarrival.value()) || not_positive(horizon.value()) {
            return Err(HbdError::invalid_config(
                "mean interarrival and horizon must be positive",
            ));
        }
        let total_weight: f64 = templates.iter().map(|t| t.weight).sum();
        if not_positive(total_weight) {
            return Err(HbdError::invalid_config(
                "template weights must sum to a positive value",
            ));
        }
        for template in templates {
            template.request.validate()?;
            if not_positive(template.mean_service.value()) {
                return Err(HbdError::invalid_config(
                    "mean service time must be positive",
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            t += exponential(&mut rng, mean_interarrival.value());
            if t >= horizon.value() {
                break;
            }
            let mut pick = rng.gen::<f64>() * total_weight;
            let template = templates
                .iter()
                .find(|tpl| {
                    pick -= tpl.weight;
                    pick < 0.0
                })
                .unwrap_or(templates.last().expect("templates are non-empty"));
            let service = exponential(&mut rng, template.mean_service.value()).max(1.0);
            arrivals.push(JobArrival {
                at: Seconds(t),
                spec: JobSpec {
                    name: format!("{}-{}", template.name, arrivals.len()),
                    request: template.request,
                    service: Seconds(service),
                },
            });
        }
        Ok(Workload { arrivals })
    }

    /// The arrivals, in time order.
    pub fn arrivals(&self) -> &[JobArrival] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Rejects non-finite, zero and negative parameter values in one predicate
/// (NaN must fail validation, so a plain `<= 0.0` is not enough).
fn not_positive(value: f64) -> bool {
    !value.is_finite() || value <= 0.0
}

/// Inverse-CDF exponential draw with the given mean (`1 - u` keeps the
/// argument of `ln` strictly positive for `u ∈ [0, 1)`).
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() * mean
}

/// Deterministic placement-latency model: how long a placement decision takes
/// to reach the fabric, as a function of what the control plane has to do —
/// never wall-clock, so simulated latencies are reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementLatencyModel {
    /// Fixed scheduler overhead per successful placement.
    pub base: Seconds,
    /// OCS reconfiguration cost per TP group placed.
    pub per_group: Seconds,
    /// Backoff cost per failed admission attempt the job accumulated while
    /// queued.
    pub per_retry: Seconds,
    /// Cost per port directive the failover planner changes during a
    /// fault-triggered migration.
    pub per_command: Seconds,
}

impl PlacementLatencyModel {
    /// The modeled latency of one placement that places `groups` TP groups
    /// after `retries` failed admission attempts and changes `commands`
    /// failover port directives. A site with nothing of a kind passes 0,
    /// which adds exactly zero: [`simulate`] rejects any term that is not
    /// finite and non-negative.
    fn price(&self, groups: usize, retries: usize, commands: usize) -> Seconds {
        self.base
            + self.per_group * groups as f64
            + self.per_retry * retries as f64
            + self.per_command * commands as f64
    }

    /// Rejects any term that is not finite and non-negative: a negative
    /// term runs the clock backwards, and a NaN or infinite one makes the
    /// zero-count terms of [`PlacementLatencyModel::price`] NaN.
    fn validate(&self) -> Result<()> {
        let terms = [self.base, self.per_group, self.per_retry, self.per_command];
        if terms.iter().all(|t| t.is_finite_non_negative()) {
            Ok(())
        } else {
            Err(HbdError::invalid_config(format!(
                "placement latency terms must be finite and >= 0: {self:?}"
            )))
        }
    }
}

impl Default for PlacementLatencyModel {
    fn default() -> Self {
        PlacementLatencyModel {
            base: Seconds(2.0),
            per_group: Seconds(0.5),
            per_retry: Seconds(0.5),
            per_command: Seconds(0.05),
        }
    }
}

/// Configuration of one lifecycle run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    /// Cluster size; must match the orchestrator's Fat-Tree.
    pub nodes: usize,
    /// GPUs per node (sizes the per-job failover rings).
    pub gpus_per_node: usize,
    /// `false` = strict FIFO: the head of the queue blocks everyone behind
    /// it. `true` = backfill: jobs behind a blocked head may be admitted if
    /// they fit right now.
    pub backfill: bool,
    /// Re-pack every running job when a departure leaves the queue head
    /// blocked despite enough free healthy nodes (defragmentation).
    pub defrag_on_exit: bool,
    /// The modeled placement-latency parameters.
    pub latency: PlacementLatencyModel,
    /// Simulation horizon; events after it are not processed.
    pub horizon: Seconds,
    /// Ignored: each placement is one lazily evaluated service query, which
    /// takes no thread count. Kept for source compatibility with existing
    /// configurations.
    pub threads: usize,
    /// TP group size of the fragmentation probe (the "reference job" whose
    /// placeability defines usable capacity).
    pub frag_probe_group: usize,
    /// K-hop reach of the fragmentation probe.
    pub frag_probe_k: usize,
    /// Deterministic backoff applied to fault-triggered re-queues: after its
    /// `n`-th fault-wait a job only becomes eligible for re-admission
    /// `backoff.delay(n-1, job_index)` after the fault (a seeded, capped
    /// exponential), instead of storming the scheduler on the very next
    /// event. `None` keeps the legacy immediate-requeue behaviour
    /// bit-for-bit. Initial admissions are never delayed, and an ineligible
    /// job is invisible to the FIFO scan (it does not block jobs behind it)
    /// until its retry instant.
    pub retry_backoff: Option<hbd_types::BackoffSchedule>,
}

/// What happened to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Still waiting in the admission queue at the horizon.
    Queued,
    /// Running at the horizon.
    Running,
    /// Completed its full service.
    Completed,
}

/// Per-job accounting of one lifecycle run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job name.
    pub name: String,
    /// Arrival instant.
    pub arrived: Seconds,
    /// Instant of the first successful placement, if any.
    pub first_placed: Option<Seconds>,
    /// Completion instant, if the job finished before the horizon.
    pub completed: Option<Seconds>,
    /// Total time spent in the admission queue (initial wait plus every
    /// post-fault re-queue, up to the horizon).
    pub queue_wait: Seconds,
    /// Fault-triggered migrations that found a new placement immediately.
    pub migrations: usize,
    /// Faults that sent the job back to the queue (no capacity to migrate).
    pub fault_waits: usize,
    /// Times the defragmentation pass moved this job to new nodes.
    pub defrag_moves: usize,
    /// Final status at the horizon.
    pub status: JobStatus,
}

/// The SLO report of one lifecycle run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleOutcome {
    /// Per-job records, in arrival order.
    pub jobs: Vec<JobRecord>,
    /// Initial queueing delay (arrival → first placement) per admitted job,
    /// in admission order, seconds.
    pub queue_delays: Vec<f64>,
    /// Modeled latency of every successful placement operation (admissions,
    /// migrations, defrag moves), in operation order, seconds.
    pub placement_latencies: Vec<f64>,
    /// Time-weighted mean fragmentation over the run (see
    /// [`LifecycleOutcome::frag_final`] for the definition).
    pub frag_mean: f64,
    /// Peak fragmentation observed at any event instant.
    pub frag_max: f64,
    /// Fragmentation at the horizon: `1 - usable / free` where `usable` is
    /// what a fully relaxed placement probe can still organise into TP groups
    /// of the configured reference size and `free` counts non-excluded nodes
    /// (0.0 when the cluster is fully occupied).
    pub frag_final: f64,
    /// Productive node-seconds (service progress × job nodes) over
    /// `nodes × horizon`.
    pub goodput: f64,
    /// Placed node-seconds over `nodes × horizon` (includes placement-latency
    /// windows; `utilization - goodput` is capacity lost to churn).
    pub utilization: f64,
    /// Jobs that arrived.
    pub arrivals: usize,
    /// Jobs placed at least once.
    pub admitted: usize,
    /// Jobs that completed their full service.
    pub completed: usize,
    /// Jobs still queued at the horizon.
    pub left_queued: usize,
    /// Jobs still running at the horizon.
    pub left_running: usize,
    /// Total fault-triggered migrations.
    pub migrations: usize,
    /// Total fault-triggered re-queues.
    pub fault_waits: usize,
    /// Total defragmentation moves.
    pub defrag_moves: usize,
    /// Defragmentation passes triggered.
    pub defrag_passes: usize,
    /// Snapshot epochs actually published over the run: delta publishes that
    /// carried at least one net node flip of the exclusion set.
    pub epochs_published: usize,
    /// Republishes skipped because the transition left the exclusion set
    /// unchanged — e.g. a fault on an already-placed node, a repair of a node
    /// still owned by a job, or flips that cancelled before the publish.
    pub republish_skips: usize,
    /// Clock rewind attempts (0 for a well-ordered event stream; exposed so a
    /// mis-ordered schedule is detectable).
    pub clock_rewinds: u64,
}

impl LifecycleOutcome {
    /// Percentile of the initial queueing delays (0.0 when no job was
    /// admitted).
    pub fn queue_delay_percentile(&self, q: f64) -> f64 {
        fault::stats::percentile_unsorted(&self.queue_delays, q)
    }

    /// Percentile of the modeled placement latencies (0.0 when no placement
    /// succeeded).
    pub fn placement_latency_percentile(&self, q: f64) -> f64 {
        fault::stats::percentile_unsorted(&self.placement_latencies, q)
    }
}

/// The discrete events of the lifecycle loop.
enum Event {
    Arrival(usize),
    Departure {
        job: usize,
        generation: u64,
    },
    NodeDown(NodeId),
    NodeUp(NodeId),
    /// A backoff wake-up: the named job's re-admission hold has expired. The
    /// event itself carries no state change — the admission scan at the loop
    /// bottom picks the job up now that it is eligible again.
    Retry(usize),
}

/// Per-job mutable state.
struct JobState {
    spec: JobSpec,
    record: JobRecord,
    /// Remaining service time.
    remaining: Seconds,
    /// When the current service segment starts (placement instant + modeled
    /// placement latency); meaningful only while running.
    service_start: Seconds,
    /// Bumped on every placement change; a departure event whose generation
    /// does not match is stale and ignored.
    generation: u64,
    /// Current placement while running.
    placement: Option<PlacementScheme>,
    /// When the job last entered the queue; meaningful only while queued.
    queued_since: Seconds,
    /// Failed admission attempts accumulated while queued.
    attempts: usize,
    /// Earliest instant the admission scan may consider this job again
    /// (backoff hold after a fault-triggered re-queue); zero = no hold.
    eligible_at: Seconds,
}

/// Per-ring-shape failover planner cache: the migration price of a fault on a
/// job's K-Hop ring depends only on (ring length, K), both bounded by the
/// template set, so each planner and its healthy-ring plan are built once.
struct PlannerCache {
    gpus_per_node: usize,
    planners: BTreeMap<(usize, usize), Option<(FailoverPlanner, RingPlan)>>,
}

impl PlannerCache {
    fn new(gpus_per_node: usize) -> Self {
        PlannerCache {
            gpus_per_node,
            planners: BTreeMap::new(),
        }
    }

    /// Port directives that must change to route around the faulty positions
    /// of a job-local line ring. Falls back to one directive per ring node if
    /// the ring cannot be built or planned (e.g. K exceeding the GPU count).
    fn migration_commands(
        &mut self,
        ring_nodes: usize,
        k: usize,
        faulty_positions: &[usize],
    ) -> usize {
        let gpus = self.gpus_per_node;
        let entry = self.planners.entry((ring_nodes, k)).or_insert_with(|| {
            let ring = KHopRing::line(ring_nodes, gpus, k).ok()?;
            let planner = FailoverPlanner::new(ring).ok()?;
            let healthy = planner.plan(&topology::FaultSet::new()).ok()?;
            Some((planner, healthy))
        });
        let Some((planner, healthy)) = entry else {
            return ring_nodes;
        };
        let faults = topology::FaultSet::from_nodes(faulty_positions.iter().map(|&p| NodeId(p)));
        match planner.plan(&faults) {
            Ok(plan) => healthy.diff(&plan).len(),
            Err(_) => ring_nodes,
        }
    }
}

/// Everything the event handlers share.
struct SimState<'a> {
    orchestrator: &'a FatTreeOrchestrator,
    config: &'a LifecycleConfig,
    ledger: ExclusionLedger,
    /// The snapshot-backed placement path: the ledger's exclusion union is
    /// republished as a new epoch after every transition, and all placement
    /// probes go through the service (answers are pinned bit-for-bit to
    /// `orchestrate_par` against the ledger, so this is a pure plumbing
    /// change — plus scratch reuse across probes of one epoch).
    service: PlacementService,
    /// Which running job owns each node.
    owner: Vec<Option<usize>>,
    /// Queued job indices; ascending order is arrival (FIFO) order because
    /// arrivals are scheduled in time order.
    pending: BTreeSet<usize>,
    jobs: Vec<JobState>,
    queue: EventQueue<Event>,
    planners: PlannerCache,
    // SLO collectors.
    queue_delays: Vec<f64>,
    placement_latencies: Vec<f64>,
    productive_node_seconds: f64,
    defrag_passes: usize,
    // Publish accounting (see the fields of the same name on the outcome).
    epochs_published: usize,
    republish_skips: usize,
    // Fragmentation / utilisation time integrals.
    last_t: Seconds,
    frag_current: f64,
    frag_integral: f64,
    frag_max: f64,
    placed_integral: f64,
}

impl SimState<'_> {
    /// Publishes the ledger's *pending delta* as the next snapshot epoch.
    /// Called after every ledger transition so the service always answers
    /// against exactly the live exclusion state; transitions whose flips
    /// cancelled out (or never touched the exclusion union) skip the publish
    /// entirely, so queue-only churn costs no epoch.
    fn sync_snapshot(&mut self) {
        match self.ledger.publish_delta(self.service.store()) {
            Some(_) => self.epochs_published += 1,
            None => self.republish_skips += 1,
        }
    }

    /// One placement probe against the live snapshot, via the service.
    fn probe_placement(&self, request: &OrchestrationRequest) -> Result<PlacementScheme> {
        debug_assert_eq!(
            self.service.store().load().value.faults(),
            self.ledger.excluded(),
            "snapshot fell behind the ledger: a transition skipped sync_snapshot"
        );
        self.service.place(request)
    }

    /// Closes the time integral segment `[last_t, t)`.
    fn advance_integrals(&mut self, t: Seconds) {
        let dt = (t - self.last_t).value();
        if dt > 0.0 {
            self.frag_integral += self.frag_current * dt;
            self.placed_integral += self.ledger.placed_nodes() as f64 * dt;
            self.last_t = t;
        }
    }

    /// Fragmentation right now: `1 - usable / free`, where `usable` is the
    /// capacity a fully relaxed placement probe (0 constraints, reference
    /// group size) can still organise and `free` counts non-excluded nodes.
    /// 0.0 when the cluster has no free node at all.
    fn fragmentation(&self) -> f64 {
        let free = self.config.nodes - self.ledger.excluded().len();
        if free == 0 {
            return 0.0;
        }
        let probe = OrchestrationRequest {
            job_nodes: self.config.frag_probe_group,
            nodes_per_group: self.config.frag_probe_group,
            k: self.config.frag_probe_k,
        };
        let usable = self
            .orchestrator
            .placement_with_constraints(&probe, self.ledger.excluded(), 0)
            .expect("the probe is validated when the simulation starts")
            .nodes_placed();
        (1.0 - usable as f64 / free as f64).max(0.0)
    }

    fn refresh_fragmentation(&mut self) {
        self.frag_current = self.fragmentation();
        self.frag_max = self.frag_max.max(self.frag_current);
    }

    /// Accrues the running job's service progress up to `now` and returns the
    /// nodes it occupies (progress is zero while still inside the placement
    /// latency window).
    fn accrue_progress(&mut self, job: usize, now: Seconds) {
        let nodes = self.jobs[job]
            .placement
            .as_ref()
            .map(|p| p.nodes_placed())
            .unwrap_or(0);
        let state = &mut self.jobs[job];
        let elapsed = now - state.service_start;
        let progress = elapsed.max(Seconds::ZERO).min(state.remaining);
        state.remaining -= progress;
        self.productive_node_seconds += progress.value() * nodes as f64;
    }

    /// Installs `scheme` as `job`'s placement: ledger, ownership map, service
    /// segment and departure event.
    fn start_service(
        &mut self,
        job: usize,
        scheme: PlacementScheme,
        now: Seconds,
        latency: Seconds,
    ) {
        for group in &scheme.groups {
            for &node in &group.nodes {
                self.owner[node.index()] = Some(job);
            }
        }
        self.ledger.place(&scheme);
        self.sync_snapshot();
        self.placement_latencies.push(latency.value());
        let state = &mut self.jobs[job];
        state.generation += 1;
        state.service_start = now + latency;
        state.placement = Some(scheme);
        if state.record.first_placed.is_none() {
            state.record.first_placed = Some(now);
        }
        self.queue.push(
            state.service_start + state.remaining,
            Event::Departure {
                job,
                generation: state.generation,
            },
        );
    }

    /// Removes `job`'s placement from the ledger and ownership map.
    fn release_placement(&mut self, job: usize) -> Option<PlacementScheme> {
        let scheme = self.jobs[job].placement.take()?;
        for group in &scheme.groups {
            for &node in &group.nodes {
                self.owner[node.index()] = None;
            }
        }
        self.ledger.release(&scheme);
        self.sync_snapshot();
        Some(scheme)
    }

    /// Scans the admission queue in FIFO order. Strict FIFO stops at the
    /// first job that does not fit; backfill keeps scanning.
    fn try_admit(&mut self, now: Seconds) {
        let model = self.config.latency;
        let candidates: Vec<usize> = self.pending.iter().copied().collect();
        for job in candidates {
            if self.jobs[job].eligible_at > now {
                // Still inside its backoff hold: invisible to the scan (it
                // neither probes nor blocks FIFO), woken by its Retry event.
                continue;
            }
            let request = self.jobs[job].spec.request;
            match self.probe_placement(&request) {
                Ok(scheme) => {
                    self.pending.remove(&job);
                    let state = &mut self.jobs[job];
                    state.record.queue_wait += now - state.queued_since;
                    if state.record.first_placed.is_none() {
                        self.queue_delays.push((now - state.record.arrived).value());
                    }
                    state.record.status = JobStatus::Running;
                    let latency = model.price(scheme.groups.len(), state.attempts, 0);
                    self.start_service(job, scheme, now, latency);
                }
                Err(_) => {
                    self.jobs[job].attempts += 1;
                    if !self.config.backfill {
                        break;
                    }
                }
            }
        }
    }

    /// A fault hit a running job: price the failover plan, release the
    /// placement and either migrate immediately or send the job back to the
    /// queue (keeping its arrival priority).
    fn handle_fault_on_job(&mut self, job: usize, now: Seconds) {
        self.accrue_progress(job, now);
        let scheme = self.release_placement(job).expect("running job is placed");
        // Faulty positions on the job-local ring: the flattened placement
        // (group order, node order) is the ring's deployment order.
        let flat: Vec<NodeId> = scheme
            .groups
            .iter()
            .flat_map(|g| g.nodes.iter().copied())
            .collect();
        let faulty_positions: Vec<usize> = flat
            .iter()
            .enumerate()
            .filter(|(_, n)| self.ledger.faulty().is_faulty(**n))
            .map(|(p, _)| p)
            .collect();
        let k = self.jobs[job].spec.request.k;
        let commands = self
            .planners
            .migration_commands(flat.len(), k, &faulty_positions);
        self.jobs[job].generation += 1; // invalidate the scheduled departure
        let request = self.jobs[job].spec.request;
        match self.probe_placement(&request) {
            Ok(new_scheme) => {
                self.jobs[job].record.migrations += 1;
                let model = self.config.latency;
                let latency = model.price(new_scheme.groups.len(), 0, commands);
                self.start_service(job, new_scheme, now, latency);
            }
            Err(_) => {
                let state = &mut self.jobs[job];
                state.record.fault_waits += 1;
                state.record.status = JobStatus::Queued;
                state.queued_since = now;
                if let Some(backoff) = &self.config.retry_backoff {
                    // The n-th fault-wait backs off with attempt index n-1,
                    // keyed by the job index — deterministic and per-job
                    // de-synchronised, so a storm's victims do not re-storm
                    // the scheduler in lockstep.
                    let hold = backoff.delay(state.record.fault_waits as u32 - 1, job as u64);
                    state.eligible_at = now + hold;
                    self.queue.push(state.eligible_at, Event::Retry(job));
                }
                self.pending.insert(job);
            }
        }
    }

    /// Defragmentation: when the queue head is blocked despite enough free
    /// healthy nodes, re-pack every running job through the orchestrator (in
    /// arrival order). Each job's own nodes are free during its re-placement,
    /// so the move can only tighten the packing; jobs that actually move pay
    /// a placement latency, jobs re-placed onto the same nodes pay nothing.
    fn defragment(&mut self, now: Seconds) {
        self.defrag_passes += 1;
        let running: Vec<usize> = (0..self.jobs.len())
            .filter(|&j| self.jobs[j].record.status == JobStatus::Running)
            .collect();
        for job in running {
            self.accrue_progress(job, now);
            let old = self.release_placement(job).expect("running job is placed");
            self.jobs[job].generation += 1;
            let request = self.jobs[job].spec.request;
            match self.probe_placement(&request) {
                Ok(new_scheme) => {
                    let moved = node_set(&new_scheme) != node_set(&old);
                    let latency = if moved {
                        self.jobs[job].record.defrag_moves += 1;
                        self.config.latency.price(new_scheme.groups.len(), 0, 0)
                    } else {
                        Seconds::ZERO
                    };
                    self.start_service(job, new_scheme, now, latency);
                }
                Err(_) => {
                    // Cannot happen (the job's old nodes are free again), but
                    // degrade gracefully: put the old placement back.
                    self.start_service(job, old, now, Seconds::ZERO);
                }
            }
        }
    }
}

fn node_set(scheme: &PlacementScheme) -> BTreeSet<NodeId> {
    scheme
        .groups
        .iter()
        .flat_map(|g| g.nodes.iter().copied())
        .collect()
}

/// Runs the lifecycle simulation: `workload` arrivals and `fault_events`
/// (from [`fault::sim_events`]) against one shared Fat-Tree cluster.
///
/// Deterministic in `(orchestrator, workload, fault_events, config)`;
/// `config.threads` is ignored. An edge stream that names a node outside the
/// cluster or does not alternate fault/repair per node in time order is
/// rejected with the typed error of [`validate_edges`], and a latency term or
/// arrival instant that is not finite and non-negative with
/// [`HbdError::InvalidConfig`]; every check runs before the first event is
/// processed.
pub fn simulate(
    orchestrator: &FatTreeOrchestrator,
    workload: &Workload,
    fault_events: &[NodeEvent],
    config: &LifecycleConfig,
) -> Result<LifecycleOutcome> {
    if config.nodes != orchestrator.fat_tree().nodes() {
        return Err(HbdError::invalid_config(format!(
            "config.nodes = {} but the orchestrator's Fat-Tree has {} nodes",
            config.nodes,
            orchestrator.fat_tree().nodes()
        )));
    }
    if not_positive(config.horizon.value()) {
        return Err(HbdError::invalid_config("horizon must be positive"));
    }
    if config.frag_probe_group == 0 || config.frag_probe_k == 0 {
        return Err(HbdError::invalid_config(
            "frag_probe_group and frag_probe_k must be positive",
        ));
    }
    validate_edges(fault_events, config.nodes)?;
    config.latency.validate()?;
    let horizon = config.horizon;

    // The snapshot store shares the orchestrator by `Arc` across all epochs
    // of the run; epoch 0 is the empty exclusion state of the fresh ledger.
    let store = Arc::new(SnapshotStore::new(
        Arc::new(orchestrator.clone()),
        topology::FaultSet::new(),
    ));
    let mut state = SimState {
        orchestrator,
        config,
        ledger: ExclusionLedger::new(),
        service: PlacementService::new(store),
        owner: vec![None; config.nodes],
        pending: BTreeSet::new(),
        jobs: Vec::with_capacity(workload.len()),
        queue: EventQueue::new(),
        planners: PlannerCache::new(config.gpus_per_node),
        queue_delays: Vec::new(),
        placement_latencies: Vec::new(),
        productive_node_seconds: 0.0,
        defrag_passes: 0,
        epochs_published: 0,
        republish_skips: 0,
        last_t: Seconds::ZERO,
        frag_current: 0.0,
        frag_integral: 0.0,
        frag_max: 0.0,
        placed_integral: 0.0,
    };

    // Availability edges are scheduled before arrivals so that a fault and an
    // arrival at the same instant resolve as "node state first, admission
    // second" (the queue breaks timestamp ties by insertion order).
    for edge in fault_events {
        if edge.at <= horizon {
            let event = match edge.kind {
                NodeEventKind::Fault => Event::NodeDown(edge.node),
                NodeEventKind::Repair => Event::NodeUp(edge.node),
            };
            state.queue.push(edge.at, event);
        }
    }
    for (index, arrival) in workload.arrivals().iter().enumerate() {
        arrival.spec.request.validate()?;
        if !arrival.at.is_finite_non_negative() {
            return Err(HbdError::invalid_config(format!(
                "job '{}' arrives at {}, which is not finite and >= 0",
                arrival.spec.name, arrival.at
            )));
        }
        if not_positive(arrival.spec.service.value()) {
            return Err(HbdError::invalid_config(format!(
                "job '{}' has a non-positive service time",
                arrival.spec.name
            )));
        }
        state.jobs.push(JobState {
            record: JobRecord {
                name: arrival.spec.name.clone(),
                arrived: arrival.at,
                first_placed: None,
                completed: None,
                queue_wait: Seconds::ZERO,
                migrations: 0,
                fault_waits: 0,
                defrag_moves: 0,
                status: JobStatus::Queued,
            },
            spec: arrival.spec.clone(),
            remaining: arrival.spec.service,
            service_start: Seconds::ZERO,
            generation: 0,
            placement: None,
            queued_since: arrival.at,
            attempts: 0,
            eligible_at: Seconds::ZERO,
        });
        if arrival.at <= horizon {
            state.queue.push(arrival.at, Event::Arrival(index));
        }
    }

    state.refresh_fragmentation();
    state.frag_integral = 0.0;

    while let Some((now, event)) = state.queue.pop() {
        if now > horizon {
            break; // pops are time-ordered: everything left is beyond the horizon
        }
        state.advance_integrals(now);
        match event {
            Event::Arrival(job) => {
                state.jobs[job].queued_since = now;
                state.pending.insert(job);
            }
            Event::Departure { job, generation } => {
                if state.jobs[job].generation != generation
                    || state.jobs[job].record.status != JobStatus::Running
                {
                    continue; // stale: the job migrated or re-queued since
                }
                state.accrue_progress(job, now);
                state.release_placement(job);
                let record = &mut state.jobs[job].record;
                record.status = JobStatus::Completed;
                record.completed = Some(now);
                if state.config.defrag_on_exit {
                    if let Some(&head) = state.pending.iter().next() {
                        let request = state.jobs[head].spec.request;
                        let free = state.config.nodes - state.ledger.excluded().len();
                        let blocked = state.probe_placement(&request).is_err();
                        if blocked && free >= request.job_nodes {
                            state.defragment(now);
                        }
                    }
                }
            }
            Event::NodeDown(node) => {
                state.ledger.fault(node);
                state.sync_snapshot();
                if let Some(job) = state.owner[node.index()] {
                    state.handle_fault_on_job(job, now);
                }
            }
            Event::NodeUp(node) => {
                state.ledger.repair(node);
                state.sync_snapshot();
            }
            // A pure wake-up: the job's backoff hold has expired, and the
            // admission scan below will now consider it again.
            Event::Retry(job) => {
                debug_assert!(
                    state.jobs[job].eligible_at <= now,
                    "a Retry event fired before its job's hold expired"
                );
            }
        }
        state.try_admit(now);
        state.refresh_fragmentation();
    }

    // Close the run at the horizon: integrate the final segment and accrue
    // the still-running jobs' progress (without completing them).
    state.advance_integrals(horizon);
    for job in 0..state.jobs.len() {
        match state.jobs[job].record.status {
            JobStatus::Running => state.accrue_progress(job, horizon),
            JobStatus::Queued => {
                let state_job = &mut state.jobs[job];
                state_job.record.queue_wait +=
                    (horizon - state_job.queued_since).max(Seconds::ZERO);
            }
            JobStatus::Completed => {}
        }
    }

    let jobs: Vec<JobRecord> = state.jobs.iter().map(|j| j.record.clone()).collect();
    let denominator = config.nodes as f64 * horizon.value();
    Ok(LifecycleOutcome {
        arrivals: jobs.len(),
        admitted: jobs.iter().filter(|j| j.first_placed.is_some()).count(),
        completed: jobs
            .iter()
            .filter(|j| j.status == JobStatus::Completed)
            .count(),
        left_queued: jobs
            .iter()
            .filter(|j| j.status == JobStatus::Queued)
            .count(),
        left_running: jobs
            .iter()
            .filter(|j| j.status == JobStatus::Running)
            .count(),
        migrations: jobs.iter().map(|j| j.migrations).sum(),
        fault_waits: jobs.iter().map(|j| j.fault_waits).sum(),
        defrag_moves: jobs.iter().map(|j| j.defrag_moves).sum(),
        defrag_passes: state.defrag_passes,
        epochs_published: state.epochs_published,
        republish_skips: state.republish_skips,
        frag_mean: state.frag_integral / horizon.value(),
        frag_max: state.frag_max,
        frag_final: state.frag_current,
        goodput: state.productive_node_seconds / denominator,
        utilization: state.placed_integral / denominator,
        queue_delays: state.queue_delays,
        placement_latencies: state.placement_latencies,
        clock_rewinds: state.queue.rewinds(),
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::sim_events::generate_events;
    use fault::GeneratorConfig;
    use topology::FatTree;

    fn orchestrator(nodes: usize) -> FatTreeOrchestrator {
        FatTreeOrchestrator::new(FatTree::new(nodes, 4, 4).unwrap()).unwrap()
    }

    fn config(nodes: usize) -> LifecycleConfig {
        LifecycleConfig {
            nodes,
            gpus_per_node: 8,
            backfill: false,
            defrag_on_exit: false,
            latency: PlacementLatencyModel::default(),
            horizon: Seconds(10_000.0),
            threads: 1,
            frag_probe_group: 4,
            frag_probe_k: 2,
            retry_backoff: None,
        }
    }

    fn request(job_nodes: usize) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes,
            nodes_per_group: 4,
            k: 2,
        }
    }

    fn arrival(name: &str, at: f64, job_nodes: usize, service: f64) -> JobArrival {
        JobArrival {
            at: Seconds(at),
            spec: JobSpec {
                name: name.to_string(),
                request: request(job_nodes),
                service: Seconds(service),
            },
        }
    }

    #[test]
    fn a_single_job_completes_on_schedule() {
        let orch = orchestrator(32);
        let workload = Workload::from_arrivals(vec![arrival("solo", 10.0, 8, 500.0)]);
        let outcome = simulate(&orch, &workload, &[], &config(32)).unwrap();
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.clock_rewinds, 0);
        let job = &outcome.jobs[0];
        // Admitted instantly: placement latency = base + per_group × 2 groups.
        let latency = 2.0 + 0.5 * 2.0;
        assert_eq!(job.first_placed, Some(Seconds(10.0)));
        assert_eq!(job.completed, Some(Seconds(10.0 + latency + 500.0)));
        assert_eq!(job.queue_wait, Seconds::ZERO);
        assert_eq!(outcome.queue_delays, vec![0.0]);
        assert_eq!(outcome.placement_latencies, vec![latency]);
        // Goodput counts only the service segment.
        let expected_goodput = 500.0 * 8.0 / (32.0 * 10_000.0);
        assert!((outcome.goodput - expected_goodput).abs() < 1e-12);
        assert!(outcome.utilization > outcome.goodput);
    }

    #[test]
    fn fifo_blocks_behind_an_oversized_head_but_backfill_does_not() {
        let orch = orchestrator(32);
        // Head job fills the cluster; a small job arrives behind it, then a
        // job that can never fit arrives and blocks FIFO admission.
        let workload = Workload::from_arrivals(vec![
            arrival("big", 0.0, 32, 1000.0),
            arrival("never", 1.0, 64, 100.0),
            arrival("small", 2.0, 8, 100.0),
        ]);
        let fifo = simulate(&orch, &workload, &[], &config(32)).unwrap();
        // FIFO: "never" blocks "small" for the whole run.
        assert_eq!(fifo.jobs[2].status, JobStatus::Queued);
        assert_eq!(fifo.left_queued, 2);

        let mut backfill_config = config(32);
        backfill_config.backfill = true;
        let backfill = simulate(&orch, &workload, &[], &backfill_config).unwrap();
        // Backfill: "small" is admitted once "big" departs.
        assert_eq!(backfill.jobs[2].status, JobStatus::Completed);
        assert_eq!(backfill.left_queued, 1);
        let small = &backfill.jobs[2];
        let big_done = backfill.jobs[0].completed.unwrap().value();
        assert_eq!(small.first_placed, Some(Seconds(big_done)));
        assert!((small.queue_wait.value() - (big_done - 2.0)).abs() < 1e-9);
    }

    #[test]
    fn a_fault_on_a_running_job_migrates_it_when_capacity_allows() {
        let orch = orchestrator(32);
        let workload = Workload::from_arrivals(vec![arrival("victim", 0.0, 8, 1000.0)]);
        // One fault at t=100 on a node the job owns (it is admitted at t=0,
        // so it holds nodes from the deployment order's head). Find an owned
        // node by running once without faults.
        let dry = simulate(&orch, &workload, &[], &config(32)).unwrap();
        assert_eq!(dry.migrations, 0);
        let placed_node = {
            let outcome = simulate(&orch, &workload, &[], &config(32)).unwrap();
            assert_eq!(outcome.completed, 1);
            // Re-derive the placement: admit the same request on an empty
            // cluster — deterministic, so the first node matches the sim's.
            let scheme = orch
                .orchestrate_par(&request(8), &topology::FaultSet::new(), 1)
                .unwrap();
            scheme.groups[0].nodes[0]
        };
        let events = vec![
            NodeEvent {
                at: Seconds(100.0),
                node: placed_node,
                kind: NodeEventKind::Fault,
            },
            NodeEvent {
                at: Seconds(200.0),
                node: placed_node,
                kind: NodeEventKind::Repair,
            },
        ];
        let outcome = simulate(&orch, &workload, &events, &config(32)).unwrap();
        assert_eq!(outcome.migrations, 1);
        assert_eq!(outcome.fault_waits, 0);
        assert_eq!(outcome.completed, 1);
        // The migration pauses service, so completion slips past the
        // fault-free completion instant.
        assert!(outcome.jobs[0].completed.unwrap() > dry.jobs[0].completed.unwrap());
        // Two successful placements: the admission and the migration.
        assert_eq!(outcome.placement_latencies.len(), 2);
    }

    #[test]
    fn a_fault_with_no_spare_capacity_requeues_the_job_until_repair() {
        let orch = orchestrator(32);
        // The job owns the whole cluster: a fault leaves nowhere to migrate.
        let workload = Workload::from_arrivals(vec![arrival("full", 0.0, 32, 1000.0)]);
        let victim = {
            let scheme = orch
                .orchestrate_par(&request(32), &topology::FaultSet::new(), 1)
                .unwrap();
            scheme.groups[0].nodes[0]
        };
        let events = vec![
            NodeEvent {
                at: Seconds(100.0),
                node: victim,
                kind: NodeEventKind::Fault,
            },
            NodeEvent {
                at: Seconds(400.0),
                node: victim,
                kind: NodeEventKind::Repair,
            },
        ];
        let outcome = simulate(&orch, &workload, &events, &config(32)).unwrap();
        assert_eq!(outcome.fault_waits, 1);
        assert_eq!(outcome.migrations, 0);
        assert_eq!(outcome.completed, 1);
        let job = &outcome.jobs[0];
        // Re-queued at t=100, re-admitted at the repair instant t=400.
        assert!((job.queue_wait.value() - 300.0).abs() < 1e-9);
        assert_eq!(job.fault_waits, 1);
    }

    #[test]
    fn requeue_backoff_follows_the_exact_deterministic_timeline() {
        let orch = orchestrator(32);
        // The job owns the whole cluster, so each fault forces a re-queue
        // (nowhere to migrate). Two fault/repair rounds on a node it owns.
        let workload = Workload::from_arrivals(vec![arrival("full", 0.0, 32, 1000.0)]);
        let victim = {
            let scheme = orch
                .orchestrate_par(&request(32), &topology::FaultSet::new(), 1)
                .unwrap();
            scheme.groups[0].nodes[0]
        };
        let round = |fault_at: f64, repair_at: f64| {
            vec![
                NodeEvent {
                    at: Seconds(fault_at),
                    node: victim,
                    kind: NodeEventKind::Fault,
                },
                NodeEvent {
                    at: Seconds(repair_at),
                    node: victim,
                    kind: NodeEventKind::Repair,
                },
            ]
        };
        let events: Vec<NodeEvent> = [round(100.0, 110.0), round(300.0, 310.0)].concat();

        // Legacy behaviour: re-admitted at the repair instants.
        let legacy = simulate(&orch, &workload, &events, &config(32)).unwrap();
        assert!((legacy.jobs[0].queue_wait.value() - 20.0).abs() < 1e-9);

        // Jitter 0 makes the capped exponential exact: holds of 64 s then
        // 128 s. The repair (110 / 310) arrives *inside* each hold, so the
        // re-admission waits for the Retry wake-up, not the repair.
        let mut cfg = config(32);
        cfg.retry_backoff = Some(hbd_types::BackoffSchedule {
            base: Seconds(64.0),
            factor: 2.0,
            cap: Seconds(1000.0),
            jitter: 0.0,
            seed: 9,
        });
        let outcome = simulate(&orch, &workload, &events, &cfg).unwrap();
        let job = &outcome.jobs[0];
        assert_eq!(job.fault_waits, 2);
        assert_eq!(outcome.migrations, 0);
        // Exact timeline: placed at 0, service starts at 6 (base 2 +
        // 8 groups x 0.5); fault 1 at 100 (94 s of progress) holds until
        // 164; service resumes at 170; fault 2 at 300 (130 s more) holds
        // 128 s until 428; service resumes at 434 and the remaining
        // 1000 - 94 - 130 = 776 s complete at 1210.
        assert_eq!(job.first_placed, Some(Seconds(0.0)));
        assert!((job.queue_wait.value() - (64.0 + 128.0)).abs() < 1e-9);
        assert_eq!(job.completed, Some(Seconds(1210.0)));
        assert_eq!(outcome.placement_latencies, vec![6.0, 6.0, 6.0]);
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.clock_rewinds, 0);

        // Same inputs, same schedule: the backoff path is deterministic too.
        let again = simulate(&orch, &workload, &events, &cfg).unwrap();
        assert_eq!(outcome, again);
    }

    #[test]
    fn defragmentation_unblocks_a_job_the_fragmented_cluster_rejects() {
        let orch = orchestrator(16);
        // Four subline-sized jobs (npg = 4) tile the four sublines of the
        // 16-node deployment order. The short jobs on sublines 0 and 2
        // depart, leaving the long ones on sublines 1 and 3 — the two free
        // sublines are not adjacent in the deployment order, so "wide"
        // (one aligned group of 8 = two adjacent sublines) stays blocked
        // even though 8 healthy nodes are free. The defrag pass slides the
        // two long jobs down to sublines 0 and 1, freeing the adjacent pair
        // (2, 3) and unblocking "wide".
        let subline = |name: &str, at: f64, service: f64| JobArrival {
            at: Seconds(at),
            spec: JobSpec {
                name: name.to_string(),
                request: OrchestrationRequest {
                    job_nodes: 4,
                    nodes_per_group: 4,
                    k: 2,
                },
                service: Seconds(service),
            },
        };
        let wide = JobArrival {
            at: Seconds(10.0),
            spec: JobSpec {
                name: "wide".to_string(),
                request: OrchestrationRequest {
                    job_nodes: 8,
                    nodes_per_group: 8,
                    k: 2,
                },
                service: Seconds(100.0),
            },
        };
        let workload = Workload::from_arrivals(vec![
            subline("short-0", 0.0, 500.0),
            subline("long-1", 1.0, 5000.0),
            subline("short-2", 2.0, 600.0),
            subline("long-3", 3.0, 5000.0),
            wide,
        ]);
        // Horizon shorter than the long jobs' services: without
        // defragmentation the cluster never reaches a layout that admits
        // "wide" before the run ends.
        let mut plain = config(16);
        plain.frag_probe_group = 8;
        plain.horizon = Seconds(2000.0);
        let without = simulate(&orch, &workload, &[], &plain).unwrap();
        assert_eq!(
            without.jobs[4].status,
            JobStatus::Queued,
            "the fragmented layout must block the wide job: {without:?}"
        );
        assert_eq!(without.defrag_passes, 0);
        assert_eq!(without.defrag_moves, 0);

        let mut defrag = plain.clone();
        defrag.defrag_on_exit = true;
        let with = simulate(&orch, &workload, &[], &defrag).unwrap();
        // The pass fires at "short-2"'s exit (the first instant with enough
        // free nodes), moves both long jobs and admits "wide" immediately.
        assert_eq!(with.jobs[4].status, JobStatus::Completed, "{with:?}");
        assert_eq!(with.defrag_passes, 1);
        assert_eq!(with.defrag_moves, 2);
        let placed = with.jobs[4].first_placed.expect("wide was admitted");
        let unblocked_at = with.jobs[2].completed.expect("short-2 completed");
        assert_eq!(placed, unblocked_at, "admitted at the defrag instant");
        // The moved jobs keep running: no extra completions, no requeues.
        assert_eq!(with.jobs[1].status, JobStatus::Running);
        assert_eq!(with.jobs[3].status, JobStatus::Running);
        assert_eq!(with.fault_waits, 0);
    }

    #[test]
    fn an_edge_naming_a_node_outside_the_cluster_is_rejected() {
        let orch = orchestrator(32);
        let workload = Workload::from_arrivals(vec![arrival("solo", 0.0, 8, 500.0)]);
        let events = vec![NodeEvent {
            at: Seconds(100.0),
            node: NodeId(32),
            kind: NodeEventKind::Fault,
        }];
        let err = simulate(&orch, &workload, &events, &config(32)).unwrap_err();
        assert!(matches!(err, HbdError::UnknownEntity { .. }), "{err}");
    }

    #[test]
    fn a_doubled_fault_edge_is_rejected_before_anything_is_scheduled() {
        let orch = orchestrator(32);
        let workload = Workload::from_arrivals(vec![arrival("solo", 0.0, 8, 500.0)]);
        let fault = |at| NodeEvent {
            at: Seconds(at),
            node: NodeId(30),
            kind: NodeEventKind::Fault,
        };
        let err =
            simulate(&orch, &workload, &[fault(100.0), fault(200.0)], &config(32)).unwrap_err();
        assert!(matches!(err, HbdError::InvalidOperation { .. }), "{err}");
    }

    #[test]
    fn latency_terms_and_arrivals_that_run_the_clock_backwards_are_rejected() {
        let orch = orchestrator(32);
        let jobs = |first_at| {
            Workload::from_arrivals(vec![
                arrival("a", first_at, 8, 500.0),
                arrival("b", 10.0, 8, 500.0),
                arrival("c", 20.0, 8, 500.0),
            ])
        };
        let valid = simulate(&orch, &jobs(0.0), &[], &config(32)).unwrap();
        assert_eq!((valid.completed, valid.clock_rewinds), (3, 0));
        let bad_terms: [fn(&mut PlacementLatencyModel); 4] = [
            |m| m.base = Seconds(-1000.0),
            |m| m.base = Seconds(f64::NAN),
            |m| m.per_group = Seconds(f64::INFINITY),
            |m| m.per_command = Seconds(-0.05),
        ];
        for bad in bad_terms {
            let mut cfg = config(32);
            bad(&mut cfg.latency);
            let err = simulate(&orch, &jobs(0.0), &[], &cfg).unwrap_err();
            assert!(matches!(err, HbdError::InvalidConfig { .. }), "{err}");
        }
        for at in [-5.0, f64::NAN, f64::NEG_INFINITY] {
            let err = simulate(&orch, &jobs(at), &[], &config(32)).unwrap_err();
            assert!(matches!(err, HbdError::InvalidConfig { .. }), "{at}: {err}");
        }
    }

    #[test]
    fn the_latency_rule_adds_exactly_zero_for_a_zero_count() {
        let model = PlacementLatencyModel {
            base: Seconds(2.1),
            per_group: Seconds(0.3),
            per_retry: Seconds(0.7),
            per_command: Seconds(0.05),
        };
        let admit = model.base.value() + model.per_group.value() * 5.0;
        assert_eq!(model.price(5, 0, 0).value(), admit);
        assert_eq!(
            model.price(5, 3, 0).value(),
            admit + model.per_retry.value() * 3.0
        );
        assert_eq!(
            model.price(5, 0, 11).value(),
            admit + model.per_command.value() * 11.0
        );
    }

    #[test]
    fn transitions_that_do_not_change_the_exclusion_set_skip_the_republish() {
        let orch = orchestrator(32);
        let workload = Workload::from_arrivals(vec![arrival("solo", 0.0, 8, 9000.0)]);
        // The running job owns this node, so it is already excluded: its
        // fault changes no exclusion, and that transition skips the
        // republish. (A repeated fault edge or a repair of a healthy node
        // would be no-ops too, but the edge validator rejects such streams.)
        let occupied = orch
            .orchestrate_par(&request(8), &topology::FaultSet::new(), 1)
            .unwrap()
            .groups[0]
            .nodes[0];
        let edge = |at, kind| NodeEvent {
            at: Seconds(at),
            node: occupied,
            kind,
        };
        let events = vec![
            edge(100.0, NodeEventKind::Fault),
            edge(200.0, NodeEventKind::Repair),
        ];
        let outcome = simulate(&orch, &workload, &events, &config(32)).unwrap();
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.migrations, 1);
        // Five real exclusion changes publish (admission, the migration's
        // release and re-placement, the repair, the departure's release);
        // the fault on the occupied node skips.
        assert_eq!(outcome.epochs_published, 5);
        assert_eq!(outcome.republish_skips, 1);
    }

    #[test]
    fn simulation_is_deterministic_and_thread_count_invariant() {
        let orch = orchestrator(64);
        let templates = vec![
            JobTemplate {
                name: "large".to_string(),
                request: request(16),
                mean_service: Seconds(800.0),
                weight: 1.0,
            },
            JobTemplate {
                name: "small".to_string(),
                request: request(8),
                mean_service: Seconds(300.0),
                weight: 3.0,
            },
        ];
        let workload = Workload::poisson(&templates, Seconds(150.0), Seconds(8000.0), 7).unwrap();
        assert!(!workload.is_empty());
        let events = generate_events(
            &GeneratorConfig {
                nodes: 64,
                duration: Seconds(10_000.0),
                steady_state_fault_ratio: 0.08,
                mean_time_to_repair: Seconds(900.0),
            },
            11,
        )
        .unwrap();
        let mut cfg = config(64);
        cfg.backfill = true;
        cfg.defrag_on_exit = true;
        let one = simulate(&orch, &workload, &events, &cfg).unwrap();
        let again = simulate(&orch, &workload, &events, &cfg).unwrap();
        let mut cfg4 = cfg.clone();
        cfg4.threads = 4;
        let four = simulate(&orch, &workload, &events, &cfg4).unwrap();
        assert_eq!(one, again, "same inputs must reproduce bit-for-bit");
        assert_eq!(
            format!("{one:?}"),
            format!("{four:?}"),
            "thread count must not change the outcome"
        );
        assert_eq!(outcome_invariants(&one), Ok(()));
        assert_eq!(one.clock_rewinds, 0);
    }

    #[test]
    fn poisson_workloads_are_seeded_and_validated() {
        let template = JobTemplate {
            name: "t".to_string(),
            request: request(8),
            mean_service: Seconds(100.0),
            weight: 1.0,
        };
        let a = Workload::poisson(
            std::slice::from_ref(&template),
            Seconds(50.0),
            Seconds(5000.0),
            3,
        )
        .unwrap();
        let b = Workload::poisson(
            std::slice::from_ref(&template),
            Seconds(50.0),
            Seconds(5000.0),
            3,
        )
        .unwrap();
        let c = Workload::poisson(
            std::slice::from_ref(&template),
            Seconds(50.0),
            Seconds(5000.0),
            4,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(Workload::poisson(&[], Seconds(50.0), Seconds(100.0), 0).is_err());
        assert!(Workload::poisson(&[template], Seconds(0.0), Seconds(100.0), 0).is_err());
    }

    /// Structural invariants every outcome must satisfy.
    fn outcome_invariants(outcome: &LifecycleOutcome) -> std::result::Result<(), String> {
        let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        check(
            outcome.arrivals == outcome.completed + outcome.left_running + outcome.left_queued,
            "status partition",
        )?;
        check(
            outcome.admitted >= outcome.completed,
            "admitted >= completed",
        )?;
        check(
            outcome.queue_delays.len() == outcome.admitted,
            "one delay per admitted job",
        )?;
        check(
            (0.0..=1.0).contains(&outcome.goodput) && (0.0..=1.0).contains(&outcome.utilization),
            "goodput/utilization in [0,1]",
        )?;
        check(
            outcome.goodput <= outcome.utilization + 1e-12,
            "goodput <= utilization",
        )?;
        check(
            (0.0..=1.0).contains(&outcome.frag_mean)
                && (0.0..=1.0).contains(&outcome.frag_max)
                && outcome.frag_mean <= outcome.frag_max + 1e-12,
            "fragmentation in range",
        )?;
        check(
            outcome
                .placement_latencies
                .iter()
                .all(|l| l.is_finite() && *l >= 0.0),
            "placement latencies finite",
        )?;
        check(
            outcome
                .queue_delays
                .iter()
                .all(|d| d.is_finite() && *d >= 0.0),
            "queue delays finite",
        )
    }
}
