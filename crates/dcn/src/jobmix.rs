//! Placing several concurrent jobs on one shared Fat-Tree.
//!
//! The orchestrator (§4.3) places **one** job against a fault set. Real
//! clusters run a *mix*: every placed job's nodes are unavailable to the next
//! one, so later jobs see an increasingly fragmented cluster — exactly the
//! regime where placement quality decides how much DP/PP traffic spills
//! across ToRs and collides with the neighbours. This module runs the
//! orchestrator sequentially over a job list, folding each placement into the
//! next job's exclusion set, and hands the resulting schemes to the traffic
//! lowering ([`crate::traffic::TrafficMatrix`]) and the replay engine
//! ([`crate::engine`]).

use hbd_types::{NodeId, Result};
use orchestrator::{
    greedy_placement, FatTreeOrchestrator, OrchestrationRequest, PlacementScheme, SnapshotDelta,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use topology::FaultSet;

/// One job of the mix: a name plus its orchestration request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixJob {
    /// Job name (carried through lowering into the interference report).
    pub name: String,
    /// The job's placement request (scale, TP group size, K-hop reach).
    pub request: OrchestrationRequest,
}

impl MixJob {
    /// Creates a mix entry.
    pub fn new(name: impl Into<String>, request: OrchestrationRequest) -> Self {
        MixJob {
            name: name.into(),
            request,
        }
    }
}

/// A job successfully placed on the shared fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedJob {
    /// The job's name.
    pub name: String,
    /// Its TP groups, in DP-rank order.
    pub scheme: PlacementScheme,
}

/// Incrementally maintained exclusion state for an *online* job mix.
///
/// [`place_mix`] folds placements into an exclusion set once, in arrival
/// order, and throws the state away. A live cluster needs the same view
/// maintained incrementally — jobs depart, nodes fail and are repaired — so
/// the ledger tracks *why* each node is excluded (an active fault, an active
/// placement, or both) and mirrors the "any reason" union in a dense
/// [`FaultSet`] ready to hand to the orchestrator. All four transitions are
/// O(nodes touched); [`ExclusionLedger::excluded`] is O(1).
///
/// The invariant `excluded == faulty ∪ placed` is pinned bit-for-bit against
/// a rebuild-from-scratch oracle by the `jobmix_ledger_properties` proptest
/// suite.
///
/// The ledger also emits snapshot *deltas* natively: every transition that
/// flips a node in or out of the exclusion union records the net flip in a
/// pending [`SnapshotDelta`], and [`ExclusionLedger::publish_delta`] hands
/// exactly that delta to the store — so a publish costs the nodes that
/// changed since the last publish, never a clone of the whole union. Flips
/// that cancel (occupy then release between two publishes) leave no trace,
/// and an empty pending delta means the publish can be skipped outright.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExclusionLedger {
    faulty: FaultSet,
    placed: FaultSet,
    excluded: FaultSet,
    /// Net exclusion flips since the last publish. Invariant: a node is in
    /// at most one of the three sets, and `pending` applied to the last
    /// published state reproduces `excluded` exactly.
    pending: SnapshotDelta,
}

impl ExclusionLedger {
    /// An empty ledger: no faults, no placements.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ledger seeded with an initial fault set. The seed counts as already
    /// published state only if the paired store was created with the same
    /// faults; otherwise call [`publish`](Self::publish) once to align.
    pub fn with_faults(faults: &FaultSet) -> Self {
        ExclusionLedger {
            faulty: faults.clone(),
            placed: FaultSet::new(),
            excluded: faults.clone(),
            pending: SnapshotDelta::new(),
        }
    }

    /// Records that `node` flipped *into* the exclusion union. A flip that
    /// merely undoes a pending release cancels instead of accumulating.
    fn flip_on(&mut self, node: NodeId, faulted: bool) {
        if !self.pending.released.remove(node) {
            if faulted {
                self.pending.faulted.add(node);
            } else {
                self.pending.occupied.add(node);
            }
        }
    }

    /// Records that `node` flipped *out of* the exclusion union, cancelling
    /// a not-yet-published exclusion of the same node if there is one.
    fn flip_off(&mut self, node: NodeId) {
        if !(self.pending.occupied.remove(node) || self.pending.faulted.remove(node)) {
            self.pending.released.add(node);
        }
    }

    /// Marks `node` faulty. Returns `true` if the node was healthy before.
    /// A node can be faulty and placed at the same time (a fault striking a
    /// running job); it stays excluded until *both* reasons are gone.
    pub fn fault(&mut self, node: NodeId) -> bool {
        if self.excluded.add(node) {
            self.flip_on(node, true);
        }
        self.faulty.add(node)
    }

    /// Marks `node` repaired. Returns `true` if the node was faulty before.
    /// The node becomes available again only if no placement still owns it.
    pub fn repair(&mut self, node: NodeId) -> bool {
        let was_faulty = self.faulty.remove(node);
        if was_faulty && !self.placed.is_faulty(node) && self.excluded.remove(node) {
            self.flip_off(node);
        }
        was_faulty
    }

    /// Applies a burst of availability edges — `(node, down)` pairs, `down ==
    /// true` meaning a fault and `false` a repair — and returns how many of
    /// them actually changed node state (a double fault or a repair of a
    /// healthy node is counted as absorbed, not an error). This is how
    /// correlated fault storms (`fault::storm`) enter the ledger: a whole
    /// blast-radius burst lands as one call, accumulates into one pending
    /// [`SnapshotDelta`], and the caller decides when to publish.
    pub fn apply_availability_burst<I>(&mut self, edges: I) -> usize
    where
        I: IntoIterator<Item = (NodeId, bool)>,
    {
        let mut changed = 0usize;
        for (node, down) in edges {
            let flipped = if down {
                self.fault(node)
            } else {
                self.repair(node)
            };
            changed += usize::from(flipped);
        }
        changed
    }

    /// Folds a placement into the exclusion set (the job starts running).
    /// The scheme's nodes must not already be placed — placements are
    /// disjoint by construction.
    pub fn place(&mut self, scheme: &PlacementScheme) {
        for group in &scheme.groups {
            for &node in &group.nodes {
                let newly = self.placed.add(node);
                debug_assert!(newly, "node {node} placed twice");
                if self.excluded.add(node) {
                    self.flip_on(node, false);
                }
            }
        }
    }

    /// Removes a placement from the exclusion set (the job departs or is
    /// migrated away). Nodes that are still faulty stay excluded.
    pub fn release(&mut self, scheme: &PlacementScheme) {
        for group in &scheme.groups {
            for &node in &group.nodes {
                let was = self.placed.remove(node);
                debug_assert!(was, "node {node} released but not placed");
                if !self.faulty.is_faulty(node) && self.excluded.remove(node) {
                    self.flip_off(node);
                }
            }
        }
    }

    /// The union of faulty and placed nodes — what the next orchestration
    /// must avoid.
    pub fn excluded(&self) -> &FaultSet {
        &self.excluded
    }

    /// The currently faulty nodes.
    pub fn faulty(&self) -> &FaultSet {
        &self.faulty
    }

    /// Number of nodes currently owned by placements.
    pub fn placed_nodes(&self) -> usize {
        self.placed.len()
    }

    /// Whether `node` is currently owned by a placement.
    pub fn is_placed(&self, node: NodeId) -> bool {
        self.placed.is_faulty(node)
    }

    /// The net exclusion flips accumulated since the last publish. Empty
    /// exactly when a publish would be a no-op.
    pub fn pending_delta(&self) -> &SnapshotDelta {
        &self.pending
    }

    /// Takes the pending delta out of the ledger (leaving it empty), for
    /// callers that schedule publishes themselves — e.g. a storm replay that
    /// hands each delta to a modeled-time session instead of publishing to a
    /// live store. The caller assumes responsibility for delivering the
    /// delta; dropping it desynchronises ledger and store exactly as a lost
    /// publish would.
    pub fn take_pending_delta(&mut self) -> SnapshotDelta {
        std::mem::take(&mut self.pending)
    }

    /// Publishes the current exclusion union *wholesale* as the next epoch of
    /// `store` — the cluster-sized fallback bridge from the ledger to the
    /// snapshot path. Drains the pending delta (the new snapshot equals
    /// `excluded()` exactly, so nothing is outstanding afterwards). Prefer
    /// [`publish_delta`](Self::publish_delta) on hot paths.
    pub fn publish(&mut self, store: &orchestrator::service::SnapshotStore) -> u64 {
        self.pending = SnapshotDelta::new();
        store.publish(self.excluded.clone())
    }

    /// Publishes the pending delta as the next epoch of `store` and drains
    /// it, making the publish cost proportional to the nodes that actually
    /// flipped since the last publish. Returns `None` — skipping the publish
    /// entirely — when nothing flipped (e.g. a queue-only transition, or
    /// flips that cancelled out). Requires the store's current snapshot to
    /// match the ledger's last published state, which holds whenever every
    /// publish of the store goes through this ledger.
    pub fn publish_delta(&mut self, store: &orchestrator::service::SnapshotStore) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let delta = std::mem::take(&mut self.pending);
        let epoch = store.publish_delta(&delta);
        debug_assert_eq!(
            store.load().value.faults(),
            &self.excluded,
            "delta publish must reproduce the ledger's exclusion union"
        );
        Some(epoch)
    }
}

/// Places every job of the mix in order, excluding faulty nodes and the nodes
/// already taken by earlier jobs. Fails if any job cannot be satisfied — the
/// mix is all-or-nothing, matching a gang-scheduled cluster.
///
/// `threads` fans the orchestrator's constraint search out; the resulting
/// placements are identical for every thread count (see
/// [`FatTreeOrchestrator::orchestrate_par`]).
pub fn place_mix(
    orchestrator: &FatTreeOrchestrator,
    jobs: &[MixJob],
    faults: &FaultSet,
    threads: usize,
) -> Result<Vec<PlacedJob>> {
    let mut ledger = ExclusionLedger::with_faults(faults);
    let mut placed = Vec::with_capacity(jobs.len());
    for job in jobs {
        let scheme = orchestrator.orchestrate_par(&job.request, ledger.excluded(), threads)?;
        ledger.place(&scheme);
        placed.push(PlacedJob {
            name: job.name.clone(),
            scheme,
        });
    }
    Ok(placed)
}

/// Splits a (possibly partial) mix placement into the jobs whose request was
/// fully satisfied and the count of jobs that fell short — the accounting the
/// interference experiments apply to [`greedy_place_mix`] output before
/// lowering traffic (a short TP group would otherwise produce degenerate
/// flows downstream).
pub fn satisfied_jobs(placed: Vec<PlacedJob>, jobs: &[MixJob]) -> (Vec<PlacedJob>, usize) {
    debug_assert_eq!(placed.len(), jobs.len());
    let mut satisfied = Vec::with_capacity(placed.len());
    let mut dropped = 0;
    for (job, placement) in jobs.iter().zip(placed) {
        if placement.scheme.satisfies(job.request.job_nodes) {
            satisfied.push(placement);
        } else {
            dropped += 1;
        }
    }
    (satisfied, dropped)
}

/// The greedy counterpart of [`place_mix`]: every job picks random healthy
/// nodes (the §6.4 baseline), and — like the optimized path — each placement
/// is folded into the next job's exclusion set. Jobs the shuffle cannot
/// satisfy keep whatever partial placement the node pool allowed, matching
/// [`greedy_placement`]'s semantics. A job with a zero group size is an
/// [`HbdError::InvalidConfig`](hbd_types::HbdError::InvalidConfig).
pub fn greedy_place_mix<R: Rng + ?Sized>(
    total_nodes: usize,
    jobs: &[MixJob],
    faults: &FaultSet,
    rng: &mut R,
) -> Result<Vec<PlacedJob>> {
    let mut ledger = ExclusionLedger::with_faults(faults);
    let mut placed = Vec::with_capacity(jobs.len());
    for job in jobs {
        let scheme = greedy_placement(
            total_nodes,
            ledger.excluded(),
            job.request.nodes_per_group,
            job.request.job_nodes,
            rng,
        )?;
        ledger.place(&scheme);
        placed.push(PlacedJob {
            name: job.name.clone(),
            scheme,
        });
    }
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeId;
    use std::collections::BTreeSet;
    use topology::FatTree;

    fn orchestrator() -> FatTreeOrchestrator {
        FatTreeOrchestrator::new(FatTree::new(64, 4, 4).unwrap()).unwrap()
    }

    fn request(job_nodes: usize) -> OrchestrationRequest {
        OrchestrationRequest {
            job_nodes,
            nodes_per_group: 4,
            k: 2,
        }
    }

    #[test]
    fn jobs_get_disjoint_placements() {
        let orch = orchestrator();
        let jobs = vec![
            MixJob::new("a", request(16)),
            MixJob::new("b", request(16)),
            MixJob::new("c", request(8)),
        ];
        let placed = place_mix(&orch, &jobs, &FaultSet::new(), 1).unwrap();
        assert_eq!(placed.len(), 3);
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for job in &placed {
            for group in &job.scheme.groups {
                for &node in &group.nodes {
                    assert!(seen.insert(node), "node {node} placed twice across jobs");
                }
            }
        }
        assert_eq!(placed[0].scheme.nodes_placed(), 16);
        assert_eq!(placed[2].scheme.nodes_placed(), 8);
    }

    #[test]
    fn faulty_nodes_are_never_placed() {
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..8).map(NodeId));
        let placed = place_mix(&orch, &[MixJob::new("a", request(16))], &faults, 1).unwrap();
        for group in &placed[0].scheme.groups {
            for &node in &group.nodes {
                assert!(!faults.is_faulty(node));
            }
        }
    }

    #[test]
    fn an_oversized_mix_is_rejected() {
        let orch = orchestrator();
        let jobs = vec![MixJob::new("a", request(48)), MixJob::new("b", request(32))];
        assert!(place_mix(&orch, &jobs, &FaultSet::new(), 1).is_err());
    }

    #[test]
    fn greedy_mix_placements_are_disjoint_and_exclude_faults() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let faults = FaultSet::from_nodes((0..4).map(NodeId));
        let jobs = vec![MixJob::new("a", request(16)), MixJob::new("b", request(16))];
        let placed = greedy_place_mix(64, &jobs, &faults, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(placed.len(), 2);
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for job in &placed {
            assert_eq!(job.scheme.nodes_placed(), 16);
            for group in &job.scheme.groups {
                for &node in &group.nodes {
                    assert!(!faults.is_faulty(node));
                    assert!(seen.insert(node), "node {node} placed twice across jobs");
                }
            }
        }
    }

    #[test]
    fn ledger_tracks_faults_and_placements_independently() {
        use orchestrator::TpGroup;
        let mut ledger = ExclusionLedger::new();
        assert!(ledger.fault(NodeId(3)));
        assert!(!ledger.fault(NodeId(3)), "double fault is idempotent");
        let scheme =
            PlacementScheme::from_groups(vec![TpGroup::new(vec![NodeId(3), NodeId(4), NodeId(5)])]);
        // Node 3 is faulty AND placed: it must survive either reason ending.
        ledger.place(&scheme);
        assert_eq!(ledger.placed_nodes(), 3);
        assert!(ledger.excluded().is_faulty(NodeId(3)));
        assert!(ledger.repair(NodeId(3)));
        assert!(
            ledger.excluded().is_faulty(NodeId(3)),
            "still placed, stays excluded after repair"
        );
        ledger.release(&scheme);
        assert_eq!(ledger.placed_nodes(), 0);
        assert_eq!(ledger.excluded().len(), 0);

        // The other order: released while faulty keeps the node excluded.
        ledger.fault(NodeId(4));
        ledger.place(&scheme);
        ledger.release(&scheme);
        assert!(ledger.excluded().is_faulty(NodeId(4)));
        assert_eq!(ledger.excluded().len(), 1);
        ledger.repair(NodeId(4));
        assert_eq!(ledger.excluded().len(), 0);
    }

    #[test]
    fn availability_bursts_land_as_one_pending_delta() {
        let mut ledger = ExclusionLedger::new();
        // A storm burst downs three nodes; the repeated edge is absorbed.
        let changed = ledger.apply_availability_burst([
            (NodeId(1), true),
            (NodeId(2), true),
            (NodeId(2), true),
            (NodeId(9), true),
        ]);
        assert_eq!(changed, 3);
        assert_eq!(ledger.faulty().len(), 3);
        assert_eq!(ledger.pending_delta().faulted.len(), 3);
        // The repair wave cancels the not-yet-published faults, so the
        // pending delta collapses instead of growing.
        let changed = ledger.apply_availability_burst([
            (NodeId(1), false),
            (NodeId(2), false),
            (NodeId(7), false),
        ]);
        assert_eq!(changed, 2, "repairing a healthy node is absorbed");
        assert_eq!(ledger.faulty().len(), 1);
        assert_eq!(ledger.pending_delta().faulted.len(), 1);
        assert!(ledger.pending_delta().released.is_empty());
    }

    /// Double-occupying a node breaks the placements-are-disjoint contract:
    /// debug builds must refuse loudly instead of silently corrupting the
    /// placed multiset (a `FaultSet` cannot count a node twice, so a second
    /// `place` would make the first `release` free a node another job owns).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "placed twice")]
    fn double_occupy_panics_in_debug_builds() {
        use orchestrator::TpGroup;
        let mut ledger = ExclusionLedger::new();
        let scheme = PlacementScheme::from_groups(vec![TpGroup::new(vec![NodeId(7), NodeId(8)])]);
        ledger.place(&scheme);
        let overlapping = PlacementScheme::from_groups(vec![TpGroup::new(vec![NodeId(8)])]);
        ledger.place(&overlapping);
    }

    /// Releasing a job the ledger never saw placed is the matching bug on
    /// the departure path.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released but not placed")]
    fn release_of_unknown_job_panics_in_debug_builds() {
        use orchestrator::TpGroup;
        let mut ledger = ExclusionLedger::new();
        let unknown = PlacementScheme::from_groups(vec![TpGroup::new(vec![NodeId(2)])]);
        ledger.release(&unknown);
    }

    #[test]
    fn ledger_publishes_its_exclusion_union_to_a_snapshot_store() {
        use orchestrator::service::SnapshotStore;
        use orchestrator::TpGroup;
        use std::sync::Arc;
        let orch = orchestrator();
        let store = SnapshotStore::new(Arc::new(orch), FaultSet::new());
        let mut ledger = ExclusionLedger::new();
        ledger.fault(NodeId(1));
        assert_eq!(ledger.publish(&store), 1);
        let scheme = PlacementScheme::from_groups(vec![TpGroup::new(vec![NodeId(4), NodeId(5)])]);
        ledger.place(&scheme);
        assert_eq!(ledger.publish(&store), 2);
        let snapshot = store.load();
        assert_eq!(snapshot.epoch, 2);
        assert_eq!(snapshot.value.faults(), ledger.excluded());
        assert_eq!(
            snapshot.value.faults(),
            &FaultSet::from_nodes([NodeId(1), NodeId(4), NodeId(5)])
        );
    }

    #[test]
    fn place_mix_through_the_ledger_matches_the_folded_exclusion_semantics() {
        // The ledger rewiring must not change what place_mix excludes: after
        // placing, the ledger's union equals faults ∪ placed nodes.
        let orch = orchestrator();
        let faults = FaultSet::from_nodes((0..4).map(NodeId));
        let jobs = vec![MixJob::new("a", request(16)), MixJob::new("b", request(8))];
        let placed = place_mix(&orch, &jobs, &faults, 1).unwrap();
        let mut expected = faults.clone();
        for job in &placed {
            for group in &job.scheme.groups {
                for &node in &group.nodes {
                    expected.add(node);
                }
            }
        }
        let mut ledger = ExclusionLedger::with_faults(&faults);
        for job in &placed {
            ledger.place(&job.scheme);
        }
        assert_eq!(*ledger.excluded(), expected);
    }

    #[test]
    fn greedy_mix_rejects_a_zero_group_size() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let zero = OrchestrationRequest {
            nodes_per_group: 0,
            ..request(8)
        };
        let jobs = vec![MixJob::new("a", request(8)), MixJob::new("b", zero)];
        let err = greedy_place_mix(64, &jobs, &FaultSet::new(), &mut StdRng::seed_from_u64(5))
            .unwrap_err();
        assert!(
            matches!(err, hbd_types::HbdError::InvalidConfig { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn satisfied_jobs_drops_short_placements() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // 10 healthy nodes cannot satisfy a 16-node job after an 8-node job.
        let jobs = vec![MixJob::new("a", request(8)), MixJob::new("b", request(16))];
        let placed =
            greedy_place_mix(12, &jobs, &FaultSet::new(), &mut StdRng::seed_from_u64(5)).unwrap();
        let (kept, dropped) = satisfied_jobs(placed, &jobs);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "a");
        assert_eq!(dropped, 1);
    }

    #[test]
    fn thread_count_does_not_change_the_placements() {
        let orch = orchestrator();
        let jobs = vec![MixJob::new("a", request(24)), MixJob::new("b", request(16))];
        let one = place_mix(&orch, &jobs, &FaultSet::new(), 1).unwrap();
        let four = place_mix(&orch, &jobs, &FaultSet::new(), 4).unwrap();
        assert_eq!(one, four);
    }
}
