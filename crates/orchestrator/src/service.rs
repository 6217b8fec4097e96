//! The placement-query service layer: epoch-swapped cluster snapshots and
//! batched placement / max-job / what-if queries against them.
//!
//! The orchestration algorithms of this crate answer *one* question against
//! *one* fault set. Operationally (ROADMAP north star, and the serving-layer
//! lesson of Mission Apollo) the workload is different: many concurrent
//! queries against one slowly-mutating cluster state. This module provides
//! that layer:
//!
//! * [`ClusterSnapshot`] — an immutable pairing of the (shared, `Arc`'d)
//!   orchestrator topology with one fault/exclusion state;
//! * [`SnapshotStore`] — an [`EpochCell`] of snapshots: writers publish a new
//!   fault state as a new epoch, readers pin whatever epoch is current and
//!   never block each other (see `hbd_types::epoch` for the protocol);
//! * [`PlacementService`] — answers batches of [`PlacementQuery`]s against
//!   the current snapshot, amortising one memoized `SearchScratch` per
//!   distinct `(k, nodes_per_group)` key over the whole batch and fanning the
//!   per-query searches out with [`hbd_types::par`].
//!
//! # Determinism
//!
//! Every query is routed once, from its contents alone: rejected, a shared
//! work item, a degenerate max-job, or a what-if. Every answer is produced by
//! the same code path as the single-query oracle —
//! [`FatTreeOrchestrator::orchestrate_par`] for placements,
//! [`max_orchestratable_job`] for max-job queries — evaluated sequentially
//! per query (inner threading 1) against a scratch that is bit-identical to
//! the one the oracle would build (pinned by the `service_oracle` property
//! suite). The per-epoch memo replays an item's `(answer, probes)` pair,
//! which is a deterministic function of the item and the epoch's state.
//! [`PlacementService::place`] is a one-query batch, so it shares all of
//! this. The thread count only decides how queries are *fanned out*, never
//! how any one query is *answered*, and the scratch keys built for a batch
//! are derived from its routes alone; so answers **and** cost counters are
//! byte-identical for any thread count.

use crate::fat_tree::{
    FatTreeOrchestrator, OrchestrationRequest, ScratchPatchStats, SearchScratch,
};
use crate::scheme::PlacementScheme;
use crate::search::{max_job_with_scratch, max_orchestratable_job};
use hbd_types::epoch::{EpochCell, Versioned};
use hbd_types::par::par_map;
use hbd_types::{HbdError, Microseconds, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use topology::FaultSet;

/// A scratch key: the pair a `SearchScratch` depends on besides the fault
/// set. One scratch per key serves every job size.
type ScratchKey = (usize, usize); // (k, nodes_per_group)

/// A work item's searched `(answer, probes)` pair, shared between the
/// per-epoch memo and a batch's resolved map, so a replay deep-clones the
/// answer once, into the returned report.
type Resolved = Arc<(PlacementAnswer, usize)>;

/// One distinct shared-state question of a batch — the unit of the per-epoch
/// answer memo. Invalid/degenerate shapes never become work items; they are
/// answered per query without touching shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WorkItem {
    /// `(k, nodes_per_group, job_nodes)` of a valid `Place` request.
    Place(usize, usize, usize),
    /// `(k, nodes_per_group)` of a non-degenerate `MaxJob` query.
    MaxJob(usize, usize),
}

impl WorkItem {
    /// The shared scratch this item is searched against.
    fn key(&self) -> ScratchKey {
        match *self {
            WorkItem::Place(k, nodes_per_group, _) | WorkItem::MaxJob(k, nodes_per_group) => {
                (k, nodes_per_group)
            }
        }
    }

    /// Searches the item against its shared scratch, returning the answer
    /// and the probes spent (inner search threading of 1, so the count is
    /// exact and canonical for every caller).
    fn search(
        &self,
        orchestrator: &FatTreeOrchestrator,
        scratch: &SearchScratch,
    ) -> (PlacementAnswer, usize) {
        match *self {
            WorkItem::Place(k, nodes_per_group, job_nodes) => {
                let request = OrchestrationRequest {
                    job_nodes,
                    nodes_per_group,
                    k,
                };
                let (outcome, probes) = orchestrator.orchestrate_with_scratch(&request, scratch, 1);
                (PlacementAnswer::Placement(outcome), probes)
            }
            WorkItem::MaxJob(k, nodes_per_group) => {
                let (job_nodes, probes) =
                    max_job_with_scratch(orchestrator, nodes_per_group, k, scratch);
                (PlacementAnswer::MaxJob { job_nodes }, probes)
            }
        }
    }
}

/// How one query of a batch is answered. [`Route::of`] is the one place the
/// service decides a query's validity and path; everything else — the
/// scratch keys, the work items, the answer and its cost, the batch counters
/// — is read off the route.
#[derive(Debug)]
enum Route<'q> {
    /// Invalid parameters: answered with the validation error, no work.
    Rejected(QueryKind, HbdError),
    /// A shared-state question, answered from the epoch's memo or searched
    /// once against the epoch's shared scratch of its key.
    Shared(WorkItem),
    /// A `MaxJob` with a zero size: the oracle path answers it (rejecting
    /// every probe itself), without a shared scratch.
    Degenerate { nodes_per_group: usize, k: usize },
    /// A what-if overlay: a private scratch against `faults ∪ extra_faults`.
    WhatIf(&'q OrchestrationRequest, &'q FaultSet),
}

impl<'q> Route<'q> {
    fn of(query: &'q PlacementQuery) -> Self {
        match query {
            PlacementQuery::Place(request) => match request.validate() {
                Ok(()) => Route::Shared(WorkItem::Place(
                    request.k,
                    request.nodes_per_group,
                    request.job_nodes,
                )),
                Err(error) => Route::Rejected(QueryKind::Place, error),
            },
            &PlacementQuery::MaxJob { nodes_per_group, k } => {
                if nodes_per_group > 0 && k > 0 {
                    Route::Shared(WorkItem::MaxJob(k, nodes_per_group))
                } else {
                    Route::Degenerate { nodes_per_group, k }
                }
            }
            PlacementQuery::WhatIf {
                request,
                extra_faults,
            } => match request.validate() {
                Ok(()) => Route::WhatIf(request, extra_faults),
                Err(error) => Route::Rejected(QueryKind::WhatIf, error),
            },
        }
    }

    fn kind(&self) -> QueryKind {
        match self {
            Route::Rejected(kind, _) => *kind,
            Route::Shared(WorkItem::Place(..)) => QueryKind::Place,
            Route::Shared(WorkItem::MaxJob(..)) | Route::Degenerate { .. } => QueryKind::MaxJob,
            Route::WhatIf(..) => QueryKind::WhatIf,
        }
    }

    /// Answers the routed query. Shared items replay the batch's `resolved`
    /// map (each distinct item was answered exactly once); what-if overlays
    /// search privately, patching their scratch from the batch's shared
    /// scratch of the same key when one exists (bit-exact per the
    /// patch-vs-rebuild property suite, so the cheaper materialization never
    /// changes an answer or a probe count).
    fn answer(
        &self,
        snapshot: &ClusterSnapshot,
        scratches: &BTreeMap<ScratchKey, Arc<SearchScratch>>,
        resolved: &BTreeMap<WorkItem, Resolved>,
    ) -> (PlacementAnswer, QueryCost) {
        let orchestrator = snapshot.orchestrator();
        let faults = snapshot.faults();
        let (answer, probes) = match self {
            Route::Rejected(_, error) => (PlacementAnswer::Placement(Err(error.clone())), 0),
            Route::Shared(item) => resolved[item].as_ref().clone(),
            &Route::Degenerate { nodes_per_group, k } => {
                let report = max_orchestratable_job(orchestrator, nodes_per_group, k, faults, 1);
                let job_nodes = report.job_nodes;
                (PlacementAnswer::MaxJob { job_nodes }, report.probes)
            }
            Route::WhatIf(request, extra_faults) => {
                let merged = faults.union(extra_faults);
                let scratch = match scratches.get(&(request.k, request.nodes_per_group)) {
                    Some(base) => orchestrator.patch_scratch(request, base, &merged).0,
                    None => orchestrator.search_scratch(request, &merged),
                };
                let (outcome, probes) = orchestrator.orchestrate_with_scratch(request, &scratch, 1);
                (PlacementAnswer::Placement(outcome), probes)
            }
        };
        let cost = QueryCost {
            kind: self.kind(),
            probes,
            private_scratch: matches!(self, Route::WhatIf(..)),
        };
        (answer, cost)
    }
}

/// One immutable view of the cluster: the orchestrator (topology + wiring,
/// shared by every snapshot of a store) plus the fault/exclusion state the
/// snapshot was published with.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    orchestrator: Arc<FatTreeOrchestrator>,
    faults: FaultSet,
}

impl ClusterSnapshot {
    /// Creates a snapshot of `orchestrator` under `faults`.
    pub fn new(orchestrator: Arc<FatTreeOrchestrator>, faults: FaultSet) -> Self {
        ClusterSnapshot {
            orchestrator,
            faults,
        }
    }

    /// The orchestrator this snapshot places against.
    pub fn orchestrator(&self) -> &FatTreeOrchestrator {
        &self.orchestrator
    }

    /// The fault/exclusion state of this snapshot (faulty nodes plus whatever
    /// the publisher excluded, e.g. nodes occupied by running jobs).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }
}

/// The epoch-swapped store of [`ClusterSnapshot`]s. Readers
/// ([`PlacementService`], or anyone calling [`load`](Self::load)) pin the
/// current snapshot with one `Arc` clone; writers replace the fault state
/// wholesale with [`publish`](Self::publish). The orchestrator itself is
/// immutable for the lifetime of the store and shared across epochs.
#[derive(Debug)]
pub struct SnapshotStore {
    cell: EpochCell<ClusterSnapshot>,
}

impl SnapshotStore {
    /// Creates the store with `faults` as the epoch-0 state.
    pub fn new(orchestrator: Arc<FatTreeOrchestrator>, faults: FaultSet) -> Self {
        SnapshotStore {
            cell: EpochCell::new(ClusterSnapshot::new(orchestrator, faults)),
        }
    }

    /// Pins and returns the current snapshot.
    pub fn load(&self) -> Arc<Versioned<ClusterSnapshot>> {
        self.cell.load()
    }

    /// The current epoch — a lock-free staleness probe.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Publishes `faults` as the next epoch's state (the orchestrator is
    /// carried over) and returns that epoch.
    pub fn publish(&self, faults: FaultSet) -> u64 {
        let orchestrator = Arc::clone(&self.cell.load().value.orchestrator);
        self.cell
            .publish(ClusterSnapshot::new(orchestrator, faults))
    }

    /// Publishes the next epoch by applying `delta` to the **current**
    /// snapshot's fault state — add every occupied and faulted node, remove
    /// every released one. The edit runs under the store's write lock
    /// ([`EpochCell::publish_with`]), so concurrent delta publishers compose
    /// instead of racing, and its cost is proportional to the delta (one
    /// word-wise clone plus per-released-node flips), never to a state
    /// rebuilt outside the store. An empty delta publishes nothing and
    /// returns the current epoch unchanged.
    pub fn publish_delta(&self, delta: &SnapshotDelta) -> u64 {
        if delta.is_empty() {
            return self.cell.epoch();
        }
        self.cell.publish_with(|current| {
            let mut faults = current.value.faults.clone();
            faults.union_with(&delta.occupied);
            faults.union_with(&delta.faulted);
            for node in delta.released.iter() {
                faults.remove(node);
            }
            ClusterSnapshot::new(Arc::clone(&current.value.orchestrator), faults)
        })
    }
}

/// A publish-sized edit to the snapshot fault/exclusion state: which nodes
/// left service (occupied by a new placement, or faulted) and which returned.
/// [`SnapshotStore::publish_delta`] applies it on top of the current
/// snapshot. Exclusion ledgers (`dcn::jobmix::ExclusionLedger`) emit these
/// natively by recording net flips between publishes, so a publish never has
/// to clone or rebuild the full exclusion union outside the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    /// Nodes newly excluded because a placement occupies them.
    pub occupied: FaultSet,
    /// Nodes newly excluded because they faulted.
    pub faulted: FaultSet,
    /// Nodes returned to service (released by a departure, or repaired).
    pub released: FaultSet,
}

impl SnapshotDelta {
    /// An all-empty delta; publishing it is a no-op.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node flips the delta carries.
    pub fn len(&self) -> usize {
        self.occupied.len() + self.faulted.len() + self.released.len()
    }

    /// Whether the delta excludes and releases nothing.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty() && self.faulted.is_empty() && self.released.is_empty()
    }
}

/// One question to the placement service.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementQuery {
    /// "Place this job on the current snapshot" — answered exactly like
    /// [`FatTreeOrchestrator::orchestrate_par`].
    Place(OrchestrationRequest),
    /// "How large a job could the current snapshot still place?" — answered
    /// exactly like [`max_orchestratable_job`].
    MaxJob {
        /// Nodes per TP group of the hypothetical job.
        nodes_per_group: usize,
        /// OCSTrx bundle count of the K-Hop topology.
        k: usize,
    },
    /// "Could this job still be placed if these *additional* nodes failed?" —
    /// a placement against `snapshot faults ∪ extra_faults`. The overlay is
    /// query-local: it never touches the shared snapshot or the shared
    /// scratch cache.
    WhatIf {
        /// The job to place.
        request: OrchestrationRequest,
        /// Hypothetical extra faults overlaid on the snapshot's state.
        extra_faults: FaultSet,
    },
}

/// The answer to one [`PlacementQuery`], in batch order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementAnswer {
    /// Outcome of a `Place` or `WhatIf` query — bit-identical to what
    /// [`FatTreeOrchestrator::orchestrate_par`] returns for the same request
    /// and (effective) fault set, including the error for invalid or
    /// unsatisfiable requests.
    Placement(Result<PlacementScheme>),
    /// Outcome of a `MaxJob` query.
    MaxJob {
        /// The largest feasible job size in nodes (zero if nothing fits).
        job_nodes: usize,
    },
}

/// Which kind of query a [`QueryCost`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A `Place` query.
    Place,
    /// A `MaxJob` query.
    MaxJob,
    /// A `WhatIf` query.
    WhatIf,
}

/// Deterministic cost counters for one answered query — the input of the
/// modeled-latency accounting in the throughput experiment (never
/// wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// The query kind.
    pub kind: QueryKind,
    /// Search probes spent: constraint counts evaluated for `Place` /
    /// `WhatIf` (each probe counts the nodes a constraint count places, in
    /// O(nodes per ToR) from the scratch's prefix sums and run summaries; the
    /// answer's placement is built once, after the search), job sizes probed
    /// for `MaxJob`.
    pub probes: usize,
    /// Whether the query built its own private scratch (what-if overlays
    /// always do; shared-state queries never do — theirs is accounted at the
    /// batch level).
    pub private_scratch: bool,
}

/// Batch-level counters of one [`PlacementService::answer_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Queries answered (== batch length).
    pub queries: usize,
    /// Shared scratches built for this batch (one per `(k, nodes_per_group)`
    /// key not already cached for the snapshot's epoch).
    pub shared_scratch_builds: usize,
    /// Shared-scratch queries answered without building (cache or intra-batch
    /// amortisation).
    pub shared_scratch_reuses: usize,
    /// Private scratches built by what-if overlays.
    pub private_scratch_builds: usize,
    /// Total search probes across the batch (see [`QueryCost::probes`]).
    pub probes: usize,
    /// Queries rejected for invalid parameters.
    pub rejected: usize,
}

/// The outcome of one batch: every answer, its cost, and the epoch the whole
/// batch was answered against. The batch pins exactly one snapshot up front,
/// so every answer is consistent with that single epoch even while newer
/// epochs are being published concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The epoch every answer of this batch was computed against.
    pub epoch: u64,
    /// Answers, in query order.
    pub answers: Vec<PlacementAnswer>,
    /// Per-query cost counters, in query order.
    pub costs: Vec<QueryCost>,
    /// Batch-level counters.
    pub stats: BatchStats,
}

/// The deterministic modeled-latency pricing of a [`BatchReport`] — fixed
/// per-probe / per-search / per-build terms dealt onto a fixed-width modeled
/// lane pool, **never wall-clock**. This is the cost model the throughput
/// and overload experiments (and the admission controller's saturation
/// signal) share: shared scratch builds are serial (they gate the fan-out),
/// then each query's cost lands round-robin on one of `lanes` modeled lanes
/// and the batch completes when the longest lane does.
///
/// The lane width is part of the *model*, not of the execution: `--threads`
/// changes how the real computation fans out, while the modeled numbers
/// depend only on the (thread-invariant) cost counters, so every priced
/// latency is bit-stable in the seed and invariant in the thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledLatency {
    /// Flat modeled dispatch overhead per query.
    pub query_overhead: Microseconds,
    /// Modeled cost of one constraint-count probe (`Place` / `WhatIf`).
    pub probe: Microseconds,
    /// Modeled cost of one max-job job-size probe, priced as a full
    /// constraint search (the real probe is one comparison against a
    /// capacity counted once per search).
    pub search: Microseconds,
    /// Modeled cost of one scratch build (shared or private).
    pub build: Microseconds,
    /// Width of the modeled worker pool a batch fans out over.
    pub lanes: usize,
}

impl ModeledLatency {
    /// The workspace-standard pricing for an `nodes`-node snapshot: 5 µs
    /// per-query overhead, probe/search/build terms linear in cluster size,
    /// eight modeled lanes — exactly the constants the
    /// `ext_service_throughput` experiment has always used.
    pub fn for_cluster(nodes: usize) -> Self {
        ModeledLatency {
            query_overhead: Microseconds(5.0),
            probe: Microseconds(0.02 * nodes as f64),
            search: Microseconds(0.10 * nodes as f64),
            build: Microseconds(0.08 * nodes as f64),
            lanes: 8,
        }
    }

    /// Rejects any cost that is not finite and non-negative
    /// ([`HbdError::InvalidConfig`]): an infinite cost parks the modeled
    /// server at +∞, so a queue behind it never drains, and a NaN cost makes
    /// every modeled instant after it meaningless.
    pub fn validate(&self) -> Result<()> {
        let costs = [self.query_overhead, self.probe, self.search, self.build];
        if costs.iter().all(|c| c.is_finite_non_negative()) {
            Ok(())
        } else {
            Err(HbdError::invalid_config(format!(
                "modeled costs must be finite and >= 0: {self:?}"
            )))
        }
    }

    /// The modeled service time of one answered batch.
    pub fn batch_service(&self, report: &BatchReport) -> Microseconds {
        let mut lanes = vec![Microseconds::ZERO; self.lanes.max(1)];
        let width = lanes.len();
        for (i, cost) in report.costs.iter().enumerate() {
            let per_probe = match cost.kind {
                QueryKind::MaxJob => self.search,
                QueryKind::Place | QueryKind::WhatIf => self.probe,
            };
            let private = if cost.private_scratch {
                self.build
            } else {
                Microseconds::ZERO
            };
            lanes[i % width] += self.query_overhead + private + cost.probes as f64 * per_probe;
        }
        let slowest_lane = lanes.iter().fold(Microseconds::ZERO, |a, &l| a.max(l));
        report.stats.shared_scratch_builds as f64 * self.build + slowest_lane
    }
}

/// Cumulative incremental-publish accounting of one [`PlacementService`]:
/// how its shared scratches were materialized across epochs, and what the
/// patched ones re-summarized versus carried over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchTally {
    /// Shared-scratch materializations that patched the previous epoch's
    /// scratch of the same key (`FatTreeOrchestrator::patch_scratch`).
    pub patched_builds: usize,
    /// Shared-scratch materializations built cold — no surviving previous-
    /// epoch scratch for the key. (Private builds for stale-snapshot batches
    /// bypass the cache and are not tallied.)
    pub cold_builds: usize,
    /// Segment/domain counts summed over every patched build.
    pub stats: ScratchPatchStats,
}

/// The memoized per-epoch state of a service. When a newer epoch is
/// observed, the scratches are **not** discarded: they move to `stale` and
/// become the patch bases of the new epoch's scratches, so materializing a
/// key costs the fault-set *delta* between the epochs instead of a cluster-
/// sized rebuild. The answer memo (one entry per work item) is dropped on
/// every epoch advance — answers are deterministic functions of
/// `(item, epoch state)`, so within one epoch a repeated item replays its
/// `(answer, probes)` pair bit-for-bit instead of re-searching. An entry
/// exists only for the cache's epoch, and only after that epoch's scratch
/// of the item's key was materialized.
#[derive(Debug, Default)]
struct ScratchCache {
    epoch: u64,
    scratches: BTreeMap<ScratchKey, Arc<SearchScratch>>,
    /// Patch bases: the newest scratch of each key from earlier epochs.
    stale: BTreeMap<ScratchKey, Arc<SearchScratch>>,
    /// Work item → this epoch's `(answer, probes)`.
    memo: BTreeMap<WorkItem, Resolved>,
    tally: PatchTally,
}

/// Answers placement queries against the current [`SnapshotStore`] snapshot,
/// memoizing one `SearchScratch` per `(k, nodes_per_group)` key per epoch.
#[derive(Debug)]
pub struct PlacementService {
    store: Arc<SnapshotStore>,
    cache: Mutex<ScratchCache>,
}

impl PlacementService {
    /// Creates a service reading from `store`.
    pub fn new(store: Arc<SnapshotStore>) -> Self {
        PlacementService {
            store,
            cache: Mutex::new(ScratchCache::default()),
        }
    }

    /// The store this service reads from.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// The cumulative incremental-publish accounting: how this service's
    /// shared scratches were materialized (patched forward vs built cold)
    /// and what the patches re-summarized versus carried over.
    pub fn patch_tally(&self) -> PatchTally {
        self.cache
            .lock()
            .expect("no scratch builder panicked")
            .tally
    }

    /// Resolves (materializing where missing) the shared scratches for
    /// `keys` against `snapshot`, returning the key → scratch map and how
    /// many scratches were materialized. A missing key whose previous
    /// epoch's scratch survives in the cache is *patched* forward
    /// (delta-proportional); otherwise it is built cold. Both count as
    /// builds — the build counter means "materializations for this epoch",
    /// however cheap. Missing keys are resolved under the cache lock, fanned
    /// over `threads`; if the cache has already moved to a *newer* epoch (a
    /// concurrent batch on a fresher snapshot claimed it), the scratches are
    /// built privately instead so the newer epoch's cache is never poisoned
    /// with stale state.
    fn shared_scratches(
        &self,
        snapshot: &Versioned<ClusterSnapshot>,
        keys: &BTreeSet<ScratchKey>,
        threads: usize,
    ) -> (BTreeMap<ScratchKey, Arc<SearchScratch>>, usize) {
        if keys.is_empty() {
            return (BTreeMap::new(), 0);
        }
        let template = |(k, nodes_per_group): ScratchKey| OrchestrationRequest {
            job_nodes: nodes_per_group,
            nodes_per_group,
            k,
        };

        let mut cache = self.cache.lock().expect("no scratch builder panicked");
        if cache.epoch < snapshot.epoch {
            // Epoch advance: the outgoing scratches become patch bases, the
            // per-epoch answer memo dies with its epoch.
            let outgoing = std::mem::take(&mut cache.scratches);
            cache.stale.extend(outgoing);
            cache.memo.clear();
            cache.epoch = snapshot.epoch;
        }
        if cache.epoch > snapshot.epoch {
            // The cache belongs to a newer epoch: serve this (stale) batch
            // from private cold builds.
            drop(cache);
            let wanted: Vec<ScratchKey> = keys.iter().copied().collect();
            let built = par_map(threads, &wanted, |_, &key| {
                Arc::new(
                    snapshot
                        .value
                        .orchestrator()
                        .search_scratch(&template(key), snapshot.value.faults()),
                )
            });
            return (wanted.into_iter().zip(built).collect(), keys.len());
        }
        let missing: Vec<(ScratchKey, Option<Arc<SearchScratch>>)> = keys
            .iter()
            .copied()
            .filter(|key| !cache.scratches.contains_key(key))
            .map(|key| (key, cache.stale.get(&key).cloned()))
            .collect();
        let built = par_map(threads, &missing, |_, (key, base)| {
            let request = template(*key);
            let orchestrator = snapshot.value.orchestrator();
            match base {
                Some(old) => {
                    let (scratch, stats) =
                        orchestrator.patch_scratch(&request, old, snapshot.value.faults());
                    (Arc::new(scratch), Some(stats))
                }
                None => (
                    Arc::new(orchestrator.search_scratch(&request, snapshot.value.faults())),
                    None,
                ),
            }
        });
        for ((key, _), (scratch, patch)) in missing.iter().zip(built) {
            match patch {
                Some(stats) => {
                    cache.tally.patched_builds += 1;
                    cache.tally.stats.absorb(&stats);
                }
                None => cache.tally.cold_builds += 1,
            }
            cache.scratches.insert(*key, scratch);
        }
        let map = keys
            .iter()
            .map(|key| (*key, Arc::clone(&cache.scratches[key])))
            .collect();
        (map, missing.len())
    }

    /// Answers one placement request against the current snapshot —
    /// bit-identical to [`FatTreeOrchestrator::orchestrate_par`] with the
    /// snapshot's fault set. It is exactly a one-query
    /// [`answer_batch`](Self::answer_batch) with threading 1, so it shares
    /// the batch path's per-epoch scratch cache and answer memo: a request
    /// shape already answered this epoch replays its answer without
    /// searching, and an invalid request is rejected without touching the
    /// cache.
    pub fn place(&self, request: &OrchestrationRequest) -> Result<PlacementScheme> {
        let mut report = self.answer_batch(&[PlacementQuery::Place(*request)], 1);
        let Some(PlacementAnswer::Placement(outcome)) = report.answers.pop() else {
            unreachable!("a Place query answers with a placement");
        };
        outcome
    }

    /// Answers a batch of queries against **one** pinned snapshot, fanning
    /// the per-query work over up to `threads` scoped threads. Each query is
    /// routed once (`Route::of`): invalid requests are rejected, valid
    /// `Place` and non-degenerate `MaxJob` queries become shared work items,
    /// degenerate `MaxJob`s take the oracle path, and what-ifs search
    /// privately. The batch materializes one memoized scratch per distinct
    /// `(k, nodes_per_group)` key of its work items, and each distinct item
    /// is searched at most once per epoch: repeats — within the batch or
    /// across batches of one epoch — replay the memoized `(answer, probes)`
    /// pair, which is exact because both are deterministic functions of the
    /// item and the epoch's scratch. What-if overlays build a private
    /// scratch against their merged fault set (patched from the batch's
    /// shared scratch of the same key when present). Answers, order and
    /// cost counters are byte-identical for any thread count.
    pub fn answer_batch(&self, queries: &[PlacementQuery], threads: usize) -> BatchReport {
        let snapshot = self.store.load();
        let routes: Vec<Route> = queries.iter().map(Route::of).collect();

        // The distinct shared-state items of this batch and the scratch keys
        // they need, derived from the batch alone.
        let items: BTreeSet<WorkItem> = routes
            .iter()
            .filter_map(|route| match route {
                Route::Shared(item) => Some(*item),
                _ => None,
            })
            .collect();
        let keys: BTreeSet<ScratchKey> = items.iter().map(WorkItem::key).collect();
        let (scratches, shared_scratch_builds) = self.shared_scratches(&snapshot, &keys, threads);

        // Resolve each item once: from the epoch's memo where already
        // answered, searched (and memoized) otherwise.
        let mut resolved: BTreeMap<WorkItem, Resolved> = BTreeMap::new();
        let mut misses: Vec<WorkItem> = Vec::new();
        {
            let cache = self.cache.lock().expect("no scratch builder panicked");
            // A batch on a stale snapshot must not read the (newer) memo.
            let live = cache.epoch == snapshot.epoch;
            for &item in &items {
                match cache.memo.get(&item).filter(|_| live) {
                    Some(hit) => {
                        resolved.insert(item, Arc::clone(hit));
                    }
                    None => misses.push(item),
                }
            }
        }
        let computed = par_map(threads, &misses, |_, item| {
            Arc::new(item.search(snapshot.value.orchestrator(), &scratches[&item.key()]))
        });
        if !misses.is_empty() {
            let mut cache = self.cache.lock().expect("no scratch builder panicked");
            if cache.epoch == snapshot.epoch {
                cache
                    .memo
                    .extend(misses.iter().copied().zip(computed.iter().cloned()));
            }
        }
        resolved.extend(misses.into_iter().zip(computed));

        let (answers, costs): (Vec<PlacementAnswer>, Vec<QueryCost>) =
            par_map(threads, &routes, |_, route| {
                route.answer(&snapshot.value, &scratches, &resolved)
            })
            .into_iter()
            .unzip();

        let mut stats = BatchStats {
            queries: queries.len(),
            shared_scratch_builds,
            ..BatchStats::default()
        };
        for (route, cost) in routes.iter().zip(&costs) {
            stats.probes += cost.probes;
            stats.private_scratch_builds += usize::from(cost.private_scratch);
            // Degenerate `MaxJob`s are neither reuses nor rejections.
            match route {
                Route::Rejected(..) => stats.rejected += 1,
                Route::Shared(_) => stats.shared_scratch_reuses += 1,
                Route::Degenerate { .. } | Route::WhatIf(..) => {}
            }
        }
        // Of the shared-scratch queries, the ones whose key had to be built
        // this batch are builds, the rest amortised an existing scratch.
        stats.shared_scratch_reuses = stats
            .shared_scratch_reuses
            .saturating_sub(stats.shared_scratch_builds);

        BatchReport {
            epoch: snapshot.epoch,
            answers,
            costs,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topology::FatTree;

    fn store_with(faults: FaultSet) -> Arc<SnapshotStore> {
        let orch = Arc::new(FatTreeOrchestrator::new(FatTree::new(512, 16, 8).unwrap()).unwrap());
        Arc::new(SnapshotStore::new(orch, faults))
    }

    fn request(job_nodes: usize) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes,
            nodes_per_group: 8,
            k: 2,
        }
    }

    #[test]
    fn store_publish_swaps_faults_and_keeps_the_orchestrator() {
        let store = store_with(FaultSet::new());
        assert_eq!(store.epoch(), 0);
        let faults = FaultSet::from_nodes([NodeId(3)]);
        assert_eq!(store.publish(faults.clone()), 1);
        let snapshot = store.load();
        assert_eq!(snapshot.epoch, 1);
        assert_eq!(snapshot.value.faults(), &faults);
        assert_eq!(snapshot.value.orchestrator().fat_tree().nodes(), 512);
    }

    #[test]
    fn place_matches_the_oracle_and_reuses_the_epoch_scratch() {
        let faults = FaultSet::from_nodes((0..12).map(|i| NodeId(i * 31)));
        let store = store_with(faults.clone());
        let service = PlacementService::new(Arc::clone(&store));
        let orch = store.load().value.orchestrator().clone();
        for job_nodes in [64usize, 256, 480, 1000] {
            let req = request(job_nodes);
            assert_eq!(
                service.place(&req),
                orch.orchestrate_par(&req, &faults, 1),
                "job_nodes {job_nodes}"
            );
        }
        // Consecutive places against one epoch share the cached scratch: a
        // follow-up batch reports zero builds for the same key.
        let report = service.answer_batch(&[PlacementQuery::Place(request(64))], 1);
        assert_eq!(report.stats.shared_scratch_builds, 0);
        assert_eq!(report.stats.shared_scratch_reuses, 1);
    }

    #[test]
    fn batch_answers_every_query_kind_against_one_epoch() {
        let faults = FaultSet::from_nodes((0..20).map(|i| NodeId(i * 17)));
        let store = store_with(faults.clone());
        let service = PlacementService::new(Arc::clone(&store));
        let orch = store.load().value.orchestrator().clone();
        let extra = FaultSet::from_nodes((0..64).map(NodeId));
        let queries = vec![
            PlacementQuery::Place(request(256)),
            PlacementQuery::MaxJob {
                nodes_per_group: 8,
                k: 2,
            },
            PlacementQuery::WhatIf {
                request: request(256),
                extra_faults: extra.clone(),
            },
            PlacementQuery::Place(OrchestrationRequest {
                job_nodes: 0,
                nodes_per_group: 8,
                k: 2,
            }),
        ];
        let report = service.answer_batch(&queries, 2);
        assert_eq!(report.epoch, 0);
        assert_eq!(report.answers.len(), 4);
        assert_eq!(
            report.answers[0],
            PlacementAnswer::Placement(orch.orchestrate_par(&request(256), &faults, 1))
        );
        assert_eq!(
            report.answers[1],
            PlacementAnswer::MaxJob {
                job_nodes: max_orchestratable_job(&orch, 8, 2, &faults, 1).job_nodes
            }
        );
        assert_eq!(
            report.answers[2],
            PlacementAnswer::Placement(orchestrate_whatif(&orch, &request(256), &faults, &extra))
        );
        assert!(matches!(
            &report.answers[3],
            PlacementAnswer::Placement(Err(_))
        ));
        assert_eq!(report.stats.queries, 4);
        assert_eq!(report.stats.rejected, 1);
        // Place + MaxJob share one (k=2, m=8) scratch; the what-if builds its
        // own.
        assert_eq!(report.stats.shared_scratch_builds, 1);
        assert_eq!(report.stats.shared_scratch_reuses, 1);
        assert_eq!(report.stats.private_scratch_builds, 1);
        assert!(report.stats.probes > 0);
    }

    fn orchestrate_whatif(
        orch: &FatTreeOrchestrator,
        request: &OrchestrationRequest,
        faults: &FaultSet,
        extra: &FaultSet,
    ) -> Result<PlacementScheme> {
        orch.orchestrate_par(request, &faults.union(extra), 1)
    }

    #[test]
    fn batch_reports_are_thread_count_invariant() {
        let faults = FaultSet::from_nodes((0..30).map(|i| NodeId(i * 13)));
        let store = store_with(faults);
        let queries: Vec<PlacementQuery> = (1..=12)
            .map(|i| PlacementQuery::Place(request(i * 40)))
            .chain([PlacementQuery::MaxJob {
                nodes_per_group: 16,
                k: 2,
            }])
            .collect();
        // Fresh service per thread count so the scratch cache starts cold in
        // both runs and the build counters are comparable.
        let seq = PlacementService::new(Arc::clone(&store)).answer_batch(&queries, 1);
        let par = PlacementService::new(Arc::clone(&store)).answer_batch(&queries, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn publishing_a_new_epoch_invalidates_the_scratch_cache() {
        let store = store_with(FaultSet::new());
        let service = PlacementService::new(Arc::clone(&store));
        let queries = vec![PlacementQuery::Place(request(64))];
        let first = service.answer_batch(&queries, 1);
        assert_eq!((first.epoch, first.stats.shared_scratch_builds), (0, 1));
        let warm = service.answer_batch(&queries, 1);
        assert_eq!((warm.epoch, warm.stats.shared_scratch_builds), (0, 0));
        store.publish(FaultSet::from_nodes([NodeId(9)]));
        let cold = service.answer_batch(&queries, 1);
        assert_eq!((cold.epoch, cold.stats.shared_scratch_builds), (1, 1));
        // The new answer reflects the new fault state: node 9 is out.
        let PlacementAnswer::Placement(Ok(scheme)) = &cold.answers[0] else {
            panic!("one faulty node cannot make a 64-node job infeasible");
        };
        assert!(scheme.groups.iter().all(|g| !g.nodes.contains(&NodeId(9))));
    }

    #[test]
    fn what_if_overlays_do_not_leak_into_the_snapshot() {
        let store = store_with(FaultSet::new());
        let service = PlacementService::new(Arc::clone(&store));
        let extra = FaultSet::from_nodes((0..128).map(NodeId));
        let whatif = service.answer_batch(
            &[PlacementQuery::WhatIf {
                request: request(64),
                extra_faults: extra,
            }],
            1,
        );
        let after = service.answer_batch(&[PlacementQuery::Place(request(64))], 1);
        // The snapshot is still fault-free: the plain place may use the nodes
        // the what-if pretended to fail.
        let PlacementAnswer::Placement(Ok(scheme)) = &after.answers[0] else {
            panic!("healthy cluster must place");
        };
        assert!(scheme.groups.iter().any(|g| g.nodes[0].index() < 128));
        assert_eq!(whatif.stats.private_scratch_builds, 1);
        assert_eq!(store.epoch(), 0);
    }

    /// A request drawn from a small pool, so batches repeat shapes; zero
    /// sizes make it invalid (or, as a `MaxJob`, degenerate).
    fn random_request(rng: &mut StdRng) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes: [0usize, 64, 200, 600][rng.gen_range(0..4usize)],
            nodes_per_group: [0usize, 8, 8, 16][rng.gen_range(0..4usize)],
            k: [0usize, 2, 2, 3][rng.gen_range(0..4usize)],
        }
    }

    fn random_faults(rng: &mut StdRng, count: usize) -> FaultSet {
        FaultSet::from_nodes((0..count).map(|_| NodeId(rng.gen_range(0..512usize))))
    }

    fn random_query(rng: &mut StdRng) -> PlacementQuery {
        let request = random_request(rng);
        match rng.gen_range(0..3) {
            0 => PlacementQuery::Place(request),
            1 => PlacementQuery::MaxJob {
                nodes_per_group: request.nodes_per_group,
                k: request.k,
            },
            _ => PlacementQuery::WhatIf {
                request,
                extra_faults: random_faults(rng, 24),
            },
        }
    }

    /// The probes of a cold constraint search of `request` against `faults`.
    fn cold_search_probes(
        orch: &FatTreeOrchestrator,
        request: &OrchestrationRequest,
        faults: &FaultSet,
    ) -> usize {
        orch.orchestrate_with_scratch(request, &orch.search_scratch(request, faults), 1)
            .1
    }

    /// Recounts one batch's costs and counters cold — every query searched
    /// alone against a freshly built scratch — and checks the report
    /// against it. `built` holds the scratch keys already materialized this
    /// epoch; the batch's keys are added to it.
    fn check_counters(
        orch: &FatTreeOrchestrator,
        faults: &FaultSet,
        queries: &[PlacementQuery],
        report: &BatchReport,
        built: &mut BTreeSet<ScratchKey>,
    ) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(report.costs.len(), queries.len());
        let (mut rejected, mut private, mut shared, mut probes) = (0, 0, 0, 0);
        let mut keys = BTreeSet::new();
        for (query, cost) in queries.iter().zip(&report.costs) {
            let expected = match query {
                PlacementQuery::Place(r) if r.validate().is_err() => {
                    rejected += 1;
                    (QueryKind::Place, 0, false)
                }
                PlacementQuery::Place(r) => {
                    shared += 1;
                    keys.insert((r.k, r.nodes_per_group));
                    (QueryKind::Place, cold_search_probes(orch, r, faults), false)
                }
                &PlacementQuery::MaxJob { nodes_per_group, k } => {
                    if nodes_per_group > 0 && k > 0 {
                        shared += 1;
                        keys.insert((k, nodes_per_group));
                    }
                    let report = max_orchestratable_job(orch, nodes_per_group, k, faults, 1);
                    (QueryKind::MaxJob, report.probes, false)
                }
                PlacementQuery::WhatIf { request: r, .. } if r.validate().is_err() => {
                    rejected += 1;
                    (QueryKind::WhatIf, 0, false)
                }
                PlacementQuery::WhatIf {
                    request: r,
                    extra_faults,
                } => {
                    private += 1;
                    let merged = faults.union(extra_faults);
                    (
                        QueryKind::WhatIf,
                        cold_search_probes(orch, r, &merged),
                        true,
                    )
                }
            };
            probes += expected.1;
            prop_assert_eq!(
                (cost.kind, cost.probes, cost.private_scratch),
                expected,
                "{:?}",
                query
            );
        }
        let stats = report.stats;
        let builds = keys.difference(built).count();
        built.extend(keys);
        prop_assert_eq!(stats.queries, queries.len());
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert_eq!(stats.private_scratch_builds, private);
        prop_assert_eq!(stats.probes, probes);
        prop_assert_eq!(stats.shared_scratch_builds, builds);
        prop_assert!(builds <= shared);
        prop_assert_eq!(
            stats.shared_scratch_builds + stats.shared_scratch_reuses,
            shared
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pins every `QueryCost` and `BatchStats` counter, not just the
        /// answers, to a cold per-query recount: two batches in one epoch
        /// (the second replays the memo) and one after a publish, with
        /// `place` calls interleaved on keys the epoch already built.
        #[test]
        fn batch_counters_match_a_cold_recount(seed in 0u64..10_000, threads in 1usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let store = store_with(random_faults(&mut rng, 40));
            let service = PlacementService::new(Arc::clone(&store));
            let orch = store.load().value.orchestrator().clone();
            let mut built = BTreeSet::new();
            for round in 0..3 {
                if round == 2 {
                    store.publish(random_faults(&mut rng, 40));
                    built.clear();
                }
                let faults = store.load().value.faults().clone();
                let len = rng.gen_range(1..10usize);
                let queries: Vec<PlacementQuery> =
                    (0..len).map(|_| random_query(&mut rng)).collect();
                let report = service.answer_batch(&queries, threads);
                check_counters(&orch, &faults, &queries, &report, &mut built)?;

                // A `place` on a built key (or an invalid one) answers like
                // the oracle and materializes nothing.
                let mut request = random_request(&mut rng);
                match built.iter().next() {
                    Some(&(k, nodes_per_group)) => {
                        request.k = k;
                        request.nodes_per_group = nodes_per_group;
                    }
                    None => request.job_nodes = 0,
                }
                let tally = service.patch_tally();
                prop_assert_eq!(
                    service.place(&request),
                    orch.orchestrate_par(&request, &faults, 1)
                );
                prop_assert_eq!(service.patch_tally(), tally);
            }
        }
    }
}
