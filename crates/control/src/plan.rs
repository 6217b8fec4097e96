//! Ring plans — the desired per-node OCSTrx configuration for a given fault
//! pattern.
//!
//! A [`RingPlan`] assigns every fabric bundle of every healthy node one of four
//! actions (primary, backup, loopback, idle). The plan realises the healthy
//! segments reported by [`topology::KHopRing::healthy_segments`]: consecutive
//! healthy nodes of a segment are joined by activating the port pair that spans
//! the gap between them, the two segment ends close the GPU-level ring with a
//! cross-lane loopback, and everything else goes idle.

use crate::wiring::{FabricPort, Wiring};
use hbd_types::{HbdError, NodeId, Result};
use ocstrx::{BundleState, PathId};
use serde::Serialize;
use topology::RingSegment;

/// What a fabric bundle should be doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BundleAction {
    /// Carry ring traffic on the primary external path (distance `+d`).
    ActivatePrimary,
    /// Carry ring traffic on the backup external path (distance `−d`),
    /// typically to bypass a faulty neighbour.
    ActivateBackup,
    /// Close the intra-node cross-lane loopback (segment endpoint).
    Loopback,
    /// Carry no traffic.
    Idle,
}

impl BundleAction {
    /// Whether the action makes the bundle part of the active ring.
    fn is_active(self) -> bool {
        !matches!(self, BundleAction::Idle)
    }

    /// The bundle state the action realises.
    pub fn state(self) -> BundleState {
        match self {
            BundleAction::ActivatePrimary => BundleState::ActivePrimary,
            BundleAction::ActivateBackup => BundleState::ActiveBackup,
            BundleAction::Loopback => BundleState::Loopback,
            BundleAction::Idle => BundleState::Idle,
        }
    }
}

/// A single (node, bundle) directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortDirective {
    /// The node whose fabric manager must execute the directive.
    pub node: NodeId,
    /// The fabric bundle index on that node.
    pub bundle: usize,
    /// The action to apply.
    pub action: BundleAction,
}

/// All directives for one node, indexed by bundle: a view of the node's
/// slots in a [`RingPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeDirective<'a> {
    actions: &'a [Option<BundleAction>],
}

impl NodeDirective<'_> {
    /// The action assigned to `bundle` (idle if the plan never mentions it).
    pub fn action(&self, bundle: usize) -> BundleAction {
        self.actions
            .get(bundle)
            .copied()
            .flatten()
            .unwrap_or(BundleAction::Idle)
    }

    /// Iterates over (bundle, action) pairs in bundle order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, BundleAction)> + '_ {
        self.actions
            .iter()
            .enumerate()
            .filter_map(|(b, a)| a.map(|a| (b, a)))
    }
}

/// The desired configuration of the whole fabric.
///
/// The plan holds `k` bundle slots per node, node-major, for every node of
/// the wiring it was built on. A node the plan never mentions (a faulty one)
/// has no action in any slot; a mentioned node has one in every slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RingPlan {
    k: usize,
    slots: Vec<Option<BundleAction>>,
}

impl RingPlan {
    /// An empty plan (every bundle idle).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the plan that realises the given healthy segments on the given
    /// wiring. Faulty nodes receive no directives.
    ///
    /// Each segment becomes one GPU-level ring: its interior edges activate the
    /// matching external ports on both ends, and the two boundary nodes close
    /// the ring via loopback on their outward-facing bundle. A segment that
    /// covers the entire closed deployment is realised as a cycle (no loopback
    /// needed). Single-node segments simply loop back on bundle 0.
    pub fn for_segments(wiring: &Wiring, segments: &[RingSegment]) -> Result<Self> {
        let mut plan = RingPlan {
            k: wiring.k(),
            slots: vec![None; wiring.nodes() * wiring.k()],
        };
        for segment in segments {
            plan.add_segment(wiring, segment)?;
        }
        // Every fabric bundle not claimed by a segment goes idle explicitly, so
        // diffs against older plans release stale activations.
        for node in plan.slots.chunks_exact_mut(wiring.k()) {
            if node.iter().any(Option::is_some) {
                for slot in node.iter_mut().filter(|slot| slot.is_none()) {
                    *slot = Some(BundleAction::Idle);
                }
            }
        }
        Ok(plan)
    }

    fn add_segment(&mut self, wiring: &Wiring, segment: &RingSegment) -> Result<()> {
        let nodes = &segment.nodes;
        if nodes.is_empty() {
            return Ok(());
        }
        let full_cycle = wiring.is_closed() && nodes.len() == wiring.nodes();
        if full_cycle {
            // A fully-healthy closed deployment runs as one physical cycle: no
            // loopback endpoints are needed.
            for i in 0..nodes.len() {
                self.connect(wiring, nodes[i], nodes[(i + 1) % nodes.len()])?;
            }
            return Ok(());
        }
        // A chain node in the interior needs one backward and one forward link
        // active at the same time. For odd K the wiring shares one bundle
        // between the +K and −K fibers, so a node squeezed between K−1
        // consecutive faults on *both* sides cannot hold both links: the chain
        // is cut at that node (it becomes a ring endpoint instead), trading a
        // little capacity for a realisable plan. The cut reads only the
        // wiring, so each chain is realised as soon as it is cut.
        let mut start = 0usize;
        let mut i = 1usize;
        while i + 1 < nodes.len() {
            let back = wiring.port_towards(nodes[i], nodes[i - 1]);
            let forward = wiring.port_towards(nodes[i], nodes[i + 1]);
            match (back, forward) {
                (Some(b), Some(f)) if b.bundle == f.bundle && i > start => {
                    self.add_chain(wiring, &nodes[start..=i])?;
                    start = i + 1;
                    i = start + 1;
                }
                _ => i += 1,
            }
        }
        self.add_chain(wiring, &nodes[start..])
    }

    /// Realises one chain as a ring: its adjacent members are joined, and
    /// its two ends (or its single node) loop back.
    fn add_chain(&mut self, wiring: &Wiring, chain: &[NodeId]) -> Result<()> {
        let (head, tail) = (chain[0], chain[chain.len() - 1]);
        if chain.len() == 1 {
            let bundle = self.free_bundle(head);
            return self.set(head, bundle, BundleAction::Loopback);
        }
        for pair in chain.windows(2) {
            self.connect(wiring, pair[0], pair[1])?;
        }
        // The ring is closed inside the two boundary nodes: their bundle
        // facing *away* from the chain switches to loopback.
        let head_loop = self.free_bundle(head);
        self.set(head, head_loop, BundleAction::Loopback)?;
        let tail_loop = self.free_bundle(tail);
        self.set(tail, tail_loop, BundleAction::Loopback)
    }

    /// Activates the port pair joining two adjacent chain members.
    fn connect(&mut self, wiring: &Wiring, a: NodeId, b: NodeId) -> Result<()> {
        let port_a = wiring.port_towards(a, b).ok_or_else(|| {
            HbdError::infeasible(format!(
                "segment edge {a} -> {b} exceeds the {}-hop reach of the wiring",
                wiring.k()
            ))
        })?;
        let port_b = wiring
            .port_towards(b, a)
            .expect("reverse port exists whenever the forward port does");
        self.set(a, port_a.bundle, action_for(port_a))?;
        self.set(b, port_b.bundle, action_for(port_b))?;
        Ok(())
    }

    /// The lowest-indexed bundle of `node` not yet claimed by this plan.
    fn free_bundle(&self, node: NodeId) -> usize {
        self.node(node)
            .actions
            .iter()
            .position(Option::is_none)
            .unwrap_or(0)
    }

    fn set(&mut self, node: NodeId, bundle: usize, action: BundleAction) -> Result<()> {
        let slot = self
            .slots
            .get_mut(node.index() * self.k + bundle)
            .filter(|_| bundle < self.k)
            .ok_or_else(|| HbdError::unknown_entity(format!("bundle {bundle} of {node}")))?;
        if let Some(existing) = *slot {
            if existing != action && existing.is_active() && action.is_active() {
                return Err(HbdError::invalid_operation(format!(
                    "bundle {bundle} of {node} assigned two conflicting active roles"
                )));
            }
        }
        *slot = Some(action);
        Ok(())
    }

    /// Directive for one node (empty directive if the node is unused).
    pub fn node(&self, node: NodeId) -> NodeDirective<'_> {
        let start = node.index() * self.k;
        NodeDirective {
            actions: self.slots.get(start..start + self.k).unwrap_or_default(),
        }
    }

    /// Number of nodes mentioned by the plan.
    pub fn len(&self) -> usize {
        // A mentioned node has an action in every slot, bundle 0 included.
        self.iter().filter(|d| d.bundle == 0).count()
    }

    /// Whether the plan mentions no node at all.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The plan's directives in node order, then bundle order.
    pub fn iter(&self) -> impl Iterator<Item = PortDirective> + '_ {
        let k = self.k;
        self.slots.iter().enumerate().filter_map(move |(i, slot)| {
            slot.map(|action| PortDirective {
                node: NodeId(i / k),
                bundle: i % k,
                action,
            })
        })
    }

    /// Flattens the plan into individual directives (node order, bundle order).
    pub fn directives(&self) -> Vec<PortDirective> {
        self.iter().collect()
    }

    /// The directives of `new` that differ from `self` — the minimal command
    /// set the cluster manager must push to converge the fabric.
    ///
    /// Nodes dropped from the plan entirely (e.g. newly faulty) do not get
    /// commands: their hardware is unreachable anyway.
    pub fn diff(&self, new: &RingPlan) -> Vec<PortDirective> {
        new.iter()
            .filter(|d| self.node(d.node).action(d.bundle) != d.action)
            .collect()
    }
}

fn action_for(port: FabricPort) -> BundleAction {
    match port.path {
        PathId::External1 => BundleAction::ActivatePrimary,
        PathId::External2 => BundleAction::ActivateBackup,
        PathId::Loopback => BundleAction::Loopback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FabricManager, FailoverPlanner};
    use proptest::prelude::*;
    use topology::{FaultSet, KHopRing};

    fn plan_for(nodes: usize, k: usize, faults: &[usize]) -> (KHopRing, RingPlan) {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let wiring = Wiring::new(nodes, k, true).unwrap();
        let fault_set = FaultSet::from_nodes(faults.iter().map(|&n| NodeId(n)));
        let segments = ring.healthy_segments(&fault_set);
        let plan = RingPlan::for_segments(&wiring, &segments).unwrap();
        (ring, plan)
    }

    #[test]
    fn healthy_closed_ring_is_a_cycle_without_loopbacks() {
        let (_, plan) = plan_for(12, 2, &[]);
        assert_eq!(plan.len(), 12);
        for n in 0..12 {
            let d = plan.node(NodeId(n));
            // The forward distance-1 port (bundle 0, Path 1) and the backward
            // distance-1 port (bundle 1, Path 1) are both active: "only two
            // OCSTrx bundles per node are utilized" (§4.2).
            assert_eq!(d.action(0), BundleAction::ActivatePrimary);
            assert_eq!(d.action(1), BundleAction::ActivatePrimary);
            assert!(d.iter().all(|(_, a)| a != BundleAction::Loopback));
        }
    }

    #[test]
    fn single_fault_bypass_uses_backup_ports_on_the_neighbours() {
        let (_, plan) = plan_for(12, 2, &[5]);
        // Node 4 bypasses the fault by selecting the +2 backup path of its
        // forward bundle; node 6 selects the −2 backup path of its backward
        // bundle — exactly the Figure-2 failover.
        let d4 = plan.node(NodeId(4));
        assert_eq!(d4.action(0), BundleAction::ActivateBackup);
        assert_eq!(d4.action(1), BundleAction::ActivatePrimary);
        let d6 = plan.node(NodeId(6));
        assert_eq!(d6.action(1), BundleAction::ActivateBackup);
        assert_eq!(d6.action(0), BundleAction::ActivatePrimary);
        // The faulty node receives no directives.
        assert_eq!(plan.node(NodeId(5)).iter().count(), 0);
        // The surviving 11 nodes form one chain closed by loopback at its two
        // ends.
        let loopbacks: usize = (0..12)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 2);
    }

    #[test]
    fn two_spread_faults_make_two_segments_with_four_loopbacks() {
        let (ring, plan) = plan_for(20, 2, &[3, 4, 12, 13]);
        let segments = ring.healthy_segments(&FaultSet::from_nodes([
            NodeId(3),
            NodeId(4),
            NodeId(12),
            NodeId(13),
        ]));
        assert_eq!(segments.len(), 2);
        let loopbacks: usize = (0..20)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 4);
    }

    #[test]
    fn plan_diff_only_touches_changed_bundles() {
        let (_, before) = plan_for(16, 3, &[]);
        let (_, after) = plan_for(16, 3, &[7]);
        let commands = before.diff(&after);
        assert!(!commands.is_empty());
        // Only the fault's bypassing neighbours and the new segment endpoints
        // change — a handful of nodes, not the whole fabric.
        let touched: std::collections::BTreeSet<NodeId> = commands.iter().map(|c| c.node).collect();
        assert!(touched.len() <= 4, "touched {touched:?}");
        assert!(
            !touched.contains(&NodeId(7)),
            "faulty node must not be commanded"
        );
        // Every command matches the target plan.
        for cmd in &commands {
            assert_eq!(after.node(cmd.node).action(cmd.bundle), cmd.action);
        }
    }

    #[test]
    fn odd_k_cuts_the_chain_at_a_node_squeezed_between_fault_runs() {
        // K = 3 shares bundle 2 between the +3 and −3 fibers. Node 6 sits
        // between the fault runs {4, 5} and {7, 8}: it reaches node 3 and
        // node 9 only through bundle 2, so the one segment is cut into two
        // chains there.
        let faults = [4, 5, 7, 8];
        let (ring, plan) = plan_for(24, 3, &faults);
        let segments = ring.healthy_segments(&FaultSet::from_nodes(faults.map(NodeId)));
        assert_eq!(segments.len(), 1);
        let loopbacks: usize = (0..24)
            .map(|n| {
                plan.node(NodeId(n))
                    .iter()
                    .filter(|(_, a)| *a == BundleAction::Loopback)
                    .count()
            })
            .sum();
        assert_eq!(loopbacks, 4, "two chains, two loopback endpoints each");
        let node6: Vec<BundleAction> = plan.node(NodeId(6)).iter().map(|(_, a)| a).collect();
        assert_eq!(
            node6,
            [
                BundleAction::Loopback,
                BundleAction::Idle,
                BundleAction::ActivateBackup
            ]
        );
        assert_eq!(plan.node(NodeId(9)).action(1), BundleAction::Loopback);
    }

    #[test]
    fn singleton_segment_loops_back_on_bundle_zero() {
        let wiring = Wiring::new(9, 2, true).unwrap();
        let segment = RingSegment {
            nodes: vec![NodeId(4)],
            wraps: false,
        };
        let plan = RingPlan::for_segments(&wiring, &[segment]).unwrap();
        assert_eq!(plan.node(NodeId(4)).action(0), BundleAction::Loopback);
    }

    #[test]
    fn edge_beyond_reach_is_rejected() {
        let wiring = Wiring::new(12, 2, true).unwrap();
        let segment = RingSegment {
            nodes: vec![NodeId(0), NodeId(5)],
            wraps: false,
        };
        assert!(RingPlan::for_segments(&wiring, &[segment]).is_err());
    }

    #[test]
    fn directives_cover_every_fabric_bundle_of_every_healthy_node() {
        let (_, plan) = plan_for(16, 3, &[2, 9]);
        for n in 0..16usize {
            if n == 2 || n == 9 {
                continue;
            }
            let directive = plan.node(NodeId(n));
            assert_eq!(directive.iter().count(), 3, "node {n}");
        }
        assert_eq!(plan.directives().len(), 14 * 3);
    }

    /// A fault set over `nodes` nodes: every node when `whole` (a whole-ring
    /// outage), otherwise the drawn ids that fall inside the ring.
    fn fault_set(nodes: usize, ids: &std::collections::BTreeSet<usize>, whole: bool) -> FaultSet {
        if whole {
            FaultSet::from_nodes((0..nodes).map(NodeId))
        } else {
            FaultSet::from_nodes(ids.iter().filter(|&&n| n < nodes).map(|&n| NodeId(n)))
        }
    }

    proptest! {
        /// Between the plans of two random fault sets: the directives are
        /// ordered and complete, the diff is exactly the changed directives,
        /// and deploying the first plan then the diff realises the second.
        #[test]
        fn diff_converges_fabric_from_one_plan_to_the_next(
            nodes in 16usize..129,
            k in 2usize..5,
            closed in prop_oneof![Just(true), Just(false)],
            before_ids in proptest::collection::btree_set(0usize..128, 0..48),
            after_ids in proptest::collection::btree_set(0usize..128, 0..48),
            outage in 0usize..8,
        ) {
            let ring = if closed {
                KHopRing::new(nodes, 4, k).unwrap()
            } else {
                KHopRing::line(nodes, 4, k).unwrap()
            };
            let planner = FailoverPlanner::new(ring).unwrap();
            let before_faults = fault_set(nodes, &before_ids, outage == 1);
            let after_faults = fault_set(nodes, &after_ids, outage == 2);
            let before = planner.plan(&before_faults).unwrap();
            let after = planner.plan(&after_faults).unwrap();

            let directives = after.directives();
            for pair in directives.windows(2) {
                prop_assert!((pair[0].node, pair[0].bundle) < (pair[1].node, pair[1].bundle));
            }
            for n in (0..nodes).map(NodeId) {
                let expected = if after_faults.is_faulty(n) { 0 } else { k };
                let bundles: Vec<usize> = directives
                    .iter()
                    .filter(|d| d.node == n)
                    .map(|d| d.bundle)
                    .collect();
                prop_assert_eq!(bundles.len(), expected, "node {}", n);
                prop_assert!(bundles.iter().all(|&b| b < k));
            }

            let changed: Vec<PortDirective> = directives
                .iter()
                .copied()
                .filter(|d| before.node(d.node).action(d.bundle) != d.action)
                .collect();
            let diff = before.diff(&after);
            prop_assert_eq!(&diff, &changed);

            let mut fabric: Vec<FabricManager> = (0..nodes)
                .map(|n| FabricManager::new(NodeId(n), k).unwrap())
                .collect();
            for d in before.directives().iter().chain(&diff) {
                fabric[d.node.index()].apply(d.bundle, d.action).unwrap();
            }
            for d in &directives {
                prop_assert_eq!(
                    fabric[d.node.index()].bundle_state(d.bundle).unwrap(),
                    d.action.state(),
                    "node {} bundle {}",
                    d.node,
                    d.bundle
                );
            }
        }
    }
}
