//! The reconfigurable **K-Hop Ring** — InfiniteHBD's inter-node topology
//! (§4.2).
//!
//! Nodes are laid out on a line (or closed into a ring) following their
//! physical deployment order. Every node owns `K` OCSTrx bundles, giving it a
//! degree of `2K`: links to the nodes at distance ±1, ±2, ..., ±K. For a
//! Ring-AllReduce only two of those links are active; the others are *backup*
//! links. When a node fails, its neighbours reconfigure onto backup links that
//! skip over it, so up to `K − 1` *consecutive* faulty nodes can be bypassed
//! without losing connectivity — this is what confines the fault explosion
//! radius to the node level.
//!
//! Intra-node, the cross-lane loopback of the two boundary bundles closes a
//! GPU-level ring over any consecutive run of healthy nodes, so TP groups of
//! any size that fits in a healthy *segment* can be formed at any position —
//! which is why fragmentation is near zero.
//!
//! The segments are the runs of `runscan::position_runs`, which holds the
//! bypass rule: [`KHopRing::healthy_segments`] materialises their nodes and
//! [`KHopRing::usable_gpus`] only sums their healthy counts.

use crate::arch::{ArchitectureKind, FaultSet, HbdArchitecture, UtilizationReport};
use crate::graph::NodeGraph;
use crate::runscan::{self, PositionRun};
use hbd_types::{HbdError, NodeId, Result};
use serde::{Deserialize, Serialize};

/// A maximal run of healthy nodes that remains mutually connected after
/// bypassing faulty nodes with backup links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSegment {
    /// The healthy nodes of the segment, in deployment order.
    pub nodes: Vec<NodeId>,
    /// Whether the segment wraps around the end of the deployment order (only
    /// possible when the topology is closed into a ring).
    pub wraps: bool,
}

impl RingSegment {
    /// Number of healthy nodes in the segment.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of GPUs available in the segment.
    pub fn gpus(&self, gpus_per_node: usize) -> usize {
        self.len() * gpus_per_node
    }

    /// Number of complete TP groups of `tp_size` GPUs the segment can host.
    pub fn tp_groups(&self, gpus_per_node: usize, tp_size: usize) -> usize {
        assert!(tp_size > 0, "TP size must be positive");
        self.gpus(gpus_per_node) / tp_size
    }
}

/// The K-Hop Ring topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KHopRing {
    name: String,
    nodes: usize,
    gpus_per_node: usize,
    k: usize,
    /// `true` when the last node is wired back to the first (§4.3 deployment:
    /// "N1 may link to the last node, forming a ring"); `false` for the K-Hop
    /// line variant.
    closed: bool,
}

impl KHopRing {
    /// Creates a closed K-Hop Ring over `nodes` nodes of `gpus_per_node` GPUs.
    ///
    /// `k` is the OCSTrx bundle count per node (the paper evaluates `K = 2` and
    /// `K = 3`); it must be at least 1 and no larger than the GPU count per
    /// node (each bundle is driven by a GPU pair, and the node exposes at most
    /// `R` bundles).
    pub fn new(nodes: usize, gpus_per_node: usize, k: usize) -> Result<Self> {
        Self::with_closure(nodes, gpus_per_node, k, true)
    }

    /// Creates the K-Hop *line* variant (no wraparound), trading a little fault
    /// tolerance at the two ends for simpler deployment.
    pub fn line(nodes: usize, gpus_per_node: usize, k: usize) -> Result<Self> {
        Self::with_closure(nodes, gpus_per_node, k, false)
    }

    fn with_closure(nodes: usize, gpus_per_node: usize, k: usize, closed: bool) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config(
                "K-Hop Ring needs at least one node",
            ));
        }
        if gpus_per_node == 0 {
            return Err(HbdError::invalid_config("nodes need at least one GPU"));
        }
        if k == 0 {
            return Err(HbdError::invalid_config("K must be at least 1"));
        }
        if k > gpus_per_node {
            return Err(HbdError::invalid_config(format!(
                "K = {k} exceeds the {gpus_per_node} OCSTrx bundles a {gpus_per_node}-GPU node can host"
            )));
        }
        Ok(KHopRing {
            name: format!("InfiniteHBD(K={k})"),
            nodes,
            gpus_per_node,
            k,
            closed,
        })
    }

    /// The hop count `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the topology is closed into a ring.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Builds the connectivity graph: node `n` has edges to `n ± 1..=K`
    /// (modulo the node count when the ring is closed).
    pub fn graph(&self) -> NodeGraph {
        let mut graph = NodeGraph::new(self.nodes);
        for n in 0..self.nodes {
            for hop in 1..=self.k {
                if self.closed {
                    let other = (n + hop) % self.nodes;
                    graph.add_edge(NodeId(n), NodeId(other));
                } else if n + hop < self.nodes {
                    graph.add_edge(NodeId(n), NodeId(n + hop));
                }
            }
        }
        graph
    }

    /// The healthy *segments* of the topology under the given fault pattern.
    ///
    /// Two healthy nodes stay connected as long as fewer than `K` consecutive
    /// faulty nodes separate them (the backup link at distance `K` bypasses up
    /// to `K − 1` failures). Each returned segment is a maximal run of healthy
    /// nodes satisfying that property; when the ring is closed, a run may wrap
    /// around the deployment boundary, and that segment comes last. The runs
    /// are those of `runscan::position_runs`.
    pub fn healthy_segments(&self, faults: &FaultSet) -> Vec<RingSegment> {
        self.runs(faults)
            .into_iter()
            .map(|run| {
                let mut nodes = Vec::with_capacity(run.healthy);
                nodes.extend(
                    run.span(self.nodes)
                        .map(NodeId)
                        .filter(|&n| !faults.is_faulty(n)),
                );
                RingSegment {
                    nodes,
                    wraps: run.wraps,
                }
            })
            .collect()
    }

    /// Total number of usable GPUs under `faults` for TP groups of `tp_size`.
    ///
    /// Fast path of [`healthy_segments`](Self::healthy_segments): only the
    /// per-segment healthy-node counts matter for capacity, so it sums the
    /// counts of the same runs without materialising any segment.
    pub fn usable_gpus(&self, faults: &FaultSet, tp_size: usize) -> usize {
        assert!(tp_size > 0, "TP size must be positive");
        self.runs(faults)
            .iter()
            .map(|run| (run.healthy * self.gpus_per_node / tp_size) * tp_size)
            .sum()
    }

    /// The healthy runs of the deployment under `faults`.
    fn runs(&self, faults: &FaultSet) -> Vec<PositionRun> {
        runscan::position_runs(self.nodes, self.k, self.closed, |n| {
            faults.is_faulty(NodeId(n))
        })
    }
}

impl HbdArchitecture for KHopRing {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> ArchitectureKind {
        ArchitectureKind::TransceiverCentric
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    fn utilization(&self, faults: &FaultSet, tp_size: usize) -> UtilizationReport {
        let faulty_nodes = faults.count_in_range(0, self.nodes);
        let faulty_gpus = faulty_nodes * self.gpus_per_node;
        let usable = self.usable_gpus(faults, tp_size);
        UtilizationReport::new(self.total_gpus(), faulty_gpus, usable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(nodes: &[usize]) -> FaultSet {
        FaultSet::from_nodes(nodes.iter().map(|&n| NodeId(n)))
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(KHopRing::new(0, 4, 2).is_err());
        assert!(KHopRing::new(10, 0, 2).is_err());
        assert!(KHopRing::new(10, 4, 0).is_err());
        assert!(KHopRing::new(10, 4, 5).is_err());
        assert!(KHopRing::new(10, 4, 4).is_ok());
        assert_eq!(KHopRing::new(10, 4, 2).unwrap().name(), "InfiniteHBD(K=2)");
    }

    #[test]
    fn graph_degree_is_2k_for_closed_ring() {
        let ring = KHopRing::new(20, 4, 3).unwrap();
        let graph = ring.graph();
        for n in 0..20 {
            assert_eq!(graph.degree(NodeId(n)), 6, "node {n}");
        }
        let edges: usize = (0..20).map(|n| graph.degree(NodeId(n))).sum::<usize>() / 2;
        assert_eq!(edges, 20 * 3);
    }

    #[test]
    fn line_variant_has_lower_degree_at_the_ends() {
        let line = KHopRing::line(20, 4, 2).unwrap();
        let graph = line.graph();
        assert_eq!(graph.degree(NodeId(0)), 2);
        assert_eq!(graph.degree(NodeId(1)), 3);
        assert_eq!(graph.degree(NodeId(10)), 4);
        assert!(!line.is_closed());
    }

    #[test]
    fn healthy_cluster_is_one_segment() {
        let ring = KHopRing::new(16, 4, 2).unwrap();
        let segments = ring.healthy_segments(&FaultSet::new());
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].len(), 16);
        assert_eq!(segments[0].gpus(4), 64);
    }

    #[test]
    fn single_fault_is_bypassed_without_splitting() {
        let ring = KHopRing::new(16, 4, 2).unwrap();
        let segments = ring.healthy_segments(&faults(&[5]));
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].len(), 15);
    }

    #[test]
    fn k_consecutive_faults_split_a_k_hop_ring() {
        // K = 2: one or two... exactly K faulty nodes in a row cannot be
        // bypassed (the farthest backup link only reaches distance K, which
        // lands on the last faulty node... distance K reaches over K-1 faults).
        // Use the line variant so the break cannot be papered over by the
        // wraparound: the link from node 4 reaches node 6 at distance 2, but
        // both 5 and 6 are faulty, so node 4's farthest reach is faulty ->
        // split into two segments.
        let line = KHopRing::line(16, 4, 2).unwrap();
        let segments = line.healthy_segments(&faults(&[5, 6]));
        assert_eq!(segments.len(), 2);
        // With K = 3 the same two faults are bypassed.
        let line3 = KHopRing::line(16, 4, 3).unwrap();
        let segments3 = line3.healthy_segments(&faults(&[5, 6]));
        assert_eq!(segments3.len(), 1);
        // On the closed ring the two runs re-join across the deployment
        // boundary, so the healthy nodes form one long (wrapping) line.
        let ring = KHopRing::new(16, 4, 2).unwrap();
        let segments = ring.healthy_segments(&faults(&[5, 6]));
        assert_eq!(segments.len(), 1);
        assert!(segments[0].wraps);
        assert_eq!(segments[0].len(), 14);
    }

    #[test]
    fn wraparound_merges_boundary_segments() {
        let ring = KHopRing::new(16, 4, 2).unwrap();
        // Faults in the middle split the ring in two, but the two halves stay
        // connected across the deployment boundary because the ring is closed.
        let segments = ring.healthy_segments(&faults(&[7, 8]));
        assert_eq!(segments.len(), 2 - 1);
        assert_eq!(segments[0].len(), 14);
        assert!(segments[0].wraps);

        // The line variant cannot wrap.
        let line = KHopRing::line(16, 4, 2).unwrap();
        let segments = line.healthy_segments(&faults(&[7, 8]));
        assert_eq!(segments.len(), 2);
        assert!(segments.iter().all(|s| !s.wraps));
    }

    #[test]
    fn all_faulty_yields_no_segments() {
        let ring = KHopRing::new(4, 4, 2).unwrap();
        let all = faults(&[0, 1, 2, 3]);
        assert!(ring.healthy_segments(&all).is_empty());
        let report = ring.utilization(&all, 8);
        assert_eq!(report.usable_gpus, 0);
        assert_eq!(report.faulty_gpus, 16);
    }

    #[test]
    fn utilization_matches_paper_example_near_zero_waste() {
        // 720 nodes x 4 GPUs = 2,880 GPUs, TP-32, a 2.33% node fault ratio
        // spread out (not consecutive): waste should be (near) zero because
        // every fault is bypassed and the single big segment fragments by at
        // most one TP group.
        let ring = KHopRing::new(720, 4, 3).unwrap();
        let spread: FaultSet = (0..16).map(|i| NodeId(i * 45)).collect();
        let report = ring.utilization(&spread, 32);
        assert_eq!(report.faulty_gpus, 64);
        assert!(
            report.waste_ratio() < 0.02,
            "waste {}",
            report.waste_ratio()
        );
    }

    #[test]
    fn fragmentation_waste_is_bounded_by_one_group_per_segment() {
        // Use the line variant so the two segments cannot re-join over the
        // deployment boundary: segments of 5 and 3 healthy nodes (20 and 12
        // GPUs), each too small for a TP-32 group.
        let line = KHopRing::line(10, 4, 2).unwrap();
        let report = line.utilization(&faults(&[5, 6]), 32);
        assert_eq!(report.usable_gpus, 0);
        assert!(report.wasted_healthy_gpus < 2 * 32);

        // The closed ring merges the two runs across the boundary into one
        // 8-node segment, which hosts exactly one TP-32 group: zero waste.
        let ring = KHopRing::new(10, 4, 2).unwrap();
        let report = ring.utilization(&faults(&[5, 6]), 32);
        assert_eq!(report.usable_gpus, 32);
        assert_eq!(report.wasted_healthy_gpus, 0);
    }

    #[test]
    fn usable_gpus_scale_with_tp_size() {
        let ring = KHopRing::new(100, 4, 2).unwrap();
        let f = faults(&[10, 50]);
        for tp in [8, 16, 32, 64] {
            let usable = ring.usable_gpus(&f, tp);
            assert_eq!(usable % tp, 0);
            assert!(usable <= 100 * 4 - 8);
        }
    }

    #[test]
    fn fault_explosion_radius_is_node_level() {
        let ring = KHopRing::new(720, 4, 2).unwrap();
        // A single fault costs at most the faulty node's own GPUs plus at most
        // one fragmented TP group.
        assert!(ring.fault_explosion_radius(32) <= 32 + 4);
    }
}
