//! The **Binary-Hop Ring** — the Appendix-G.3 rewiring of InfiniteHBD for
//! AllToAll (Expert Parallelism) workloads.
//!
//! Instead of connecting node `n` to its neighbours at distance `±1 .. ±K`, the
//! AllToAll variant connects it to the nodes at distance `±1, ±2, ±4, ..,
//! ±2^(K−1)`, matching the partner pattern of the Binary Exchange AllToAll
//! algorithm (node `i` talks to `i ⊕ 2^j`). Each fabric bundle pair still
//! offers one forward and one backward fiber per power of two, and the OCSTrx
//! fast-switch mechanism re-targets the active path between rounds.
//!
//! Appendix G.3 also derives the coupling constraint between the TP and EP
//! dimensions: with `R`-GPU nodes the node exposes `R` bundles, so the product
//! of the intra-node TP size and the inter-node EP group size is bounded by
//! `TP × EP ≤ R · 2^(R−1)` (64 for 4-GPU nodes, 2048 for 8-GPU nodes).

use crate::arch::FaultSet;
use crate::graph::NodeGraph;
use hbd_types::{HbdError, NodeId, Result};

/// The ±2^i wiring used for Binary Exchange AllToAll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryHopRing {
    nodes: usize,
    gpus_per_node: usize,
    k: usize,
}

impl BinaryHopRing {
    /// Creates the wiring over `nodes` nodes with `k` bundles per node
    /// (`k ≤ gpus_per_node`), reaching distances `±2^0 .. ±2^(k−1)`.
    pub fn new(nodes: usize, gpus_per_node: usize, k: usize) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config(
                "Binary-Hop Ring needs at least one node",
            ));
        }
        if gpus_per_node == 0 {
            return Err(HbdError::invalid_config("nodes need at least one GPU"));
        }
        if k == 0 || k > gpus_per_node {
            return Err(HbdError::invalid_config(format!(
                "K = {k} must be between 1 and the {gpus_per_node} bundles a node can host"
            )));
        }
        if (1usize << (k - 1)) >= nodes {
            return Err(HbdError::invalid_config(format!(
                "the longest hop 2^{} does not fit a {nodes}-node ring",
                k - 1
            )));
        }
        Ok(BinaryHopRing {
            nodes,
            gpus_per_node,
            k,
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Bundles per node.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The hop distances available from every node (`1, 2, 4, ..., 2^(K−1)`).
    pub fn hop_distances(&self) -> Vec<usize> {
        (0..self.k).map(|j| 1usize << j).collect()
    }

    /// The connectivity graph: node `n` has edges to `n ± 2^j (mod N)`.
    pub fn graph(&self) -> NodeGraph {
        let mut graph = NodeGraph::new(self.nodes);
        for n in 0..self.nodes {
            for d in self.hop_distances() {
                graph.add_edge(NodeId(n), NodeId((n + d) % self.nodes));
            }
        }
        graph
    }

    /// The largest EP group (in nodes) that can run Binary Exchange entirely on
    /// direct links: every partner `i ⊕ 2^j` must be reachable in one hop, so
    /// the group size is capped at `2^K`.
    pub fn max_ep_group_nodes(&self) -> usize {
        1usize << self.k
    }

    /// The Appendix-G.3 coupling constraint: the product of the TP size (GPUs)
    /// and the EP group size (nodes) a single job can combine on this wiring.
    pub fn tp_ep_product_limit(&self) -> usize {
        self.gpus_per_node * self.max_ep_group_nodes()
    }

    /// Whether a `tp_size × ep_nodes` hybrid job satisfies the coupling
    /// constraint.
    pub fn supports_hybrid(&self, tp_size: usize, ep_nodes: usize) -> bool {
        tp_size > 0
            && ep_nodes > 0
            && ep_nodes.is_power_of_two()
            && ep_nodes <= self.max_ep_group_nodes()
            && tp_size * ep_nodes <= self.tp_ep_product_limit()
    }

    /// Checks that an EP group of `group` consecutive healthy nodes starting at
    /// `base` can run every Binary Exchange round on direct links: for every
    /// round `j`, node `base + i` must reach `base + (i ⊕ 2^j)`, i.e. the
    /// offset `2^j` must be one of the wiring's hop distances and neither
    /// endpoint may be faulty.
    pub fn can_run_binary_exchange(&self, base: NodeId, group: usize, faults: &FaultSet) -> bool {
        if group < 2 || !group.is_power_of_two() || group > self.max_ep_group_nodes() {
            return false;
        }
        if base.index() + group > self.nodes {
            return false;
        }
        let rounds = group.trailing_zeros() as usize;
        for i in 0..group {
            let node = NodeId(base.index() + i);
            if faults.is_faulty(node) {
                return false;
            }
            for j in 0..rounds {
                let partner = i ^ (1usize << j);
                let distance = partner.abs_diff(i);
                if !self.hop_distances().contains(&distance) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of OCSTrx fast switches one node performs during a Binary
    /// Exchange over a `group`-node EP group: the active path must re-target a
    /// different partner every round after the first.
    pub fn reconfigurations_per_node(&self, group: usize) -> usize {
        if group < 2 || !group.is_power_of_two() {
            return 0;
        }
        (group.trailing_zeros() as usize).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(BinaryHopRing::new(0, 4, 2).is_err());
        assert!(BinaryHopRing::new(16, 0, 2).is_err());
        assert!(BinaryHopRing::new(16, 4, 0).is_err());
        assert!(BinaryHopRing::new(16, 4, 5).is_err());
        // 2^(k-1) must fit in the ring.
        assert!(BinaryHopRing::new(8, 4, 4).is_err());
        assert!(BinaryHopRing::new(16, 4, 4).is_ok());
    }

    #[test]
    fn hop_distances_are_powers_of_two() {
        let ring = BinaryHopRing::new(64, 4, 4).unwrap();
        assert_eq!(ring.hop_distances(), vec![1, 2, 4, 8]);
        let graph = ring.graph();
        for n in 0..64 {
            assert_eq!(graph.degree(NodeId(n)), 8, "node {n}");
        }
    }

    #[test]
    fn ep_group_limits_follow_appendix_g3() {
        // 4-GPU node: TP x EP <= 64.
        let four = BinaryHopRing::new(256, 4, 4).unwrap();
        assert_eq!(four.max_ep_group_nodes(), 16);
        assert_eq!(four.tp_ep_product_limit(), 64);
        assert!(four.supports_hybrid(4, 4));
        assert!(four.supports_hybrid(4, 16));
        assert!(!four.supports_hybrid(8, 16));
        // 8-GPU node: TP x EP <= 2048.
        let eight = BinaryHopRing::new(1024, 8, 8).unwrap();
        assert_eq!(eight.tp_ep_product_limit(), 2048);
        assert!(eight.supports_hybrid(8, 256));
        assert!(!eight.supports_hybrid(16, 256));
        // Non-power-of-two EP groups are rejected.
        assert!(!four.supports_hybrid(4, 3));
    }

    #[test]
    fn binary_exchange_feasibility_depends_on_group_size_and_faults() {
        let ring = BinaryHopRing::new(64, 4, 3).unwrap();
        // 2^3 = 8-node groups are the maximum.
        assert!(ring.can_run_binary_exchange(NodeId(0), 8, &FaultSet::new()));
        assert!(ring.can_run_binary_exchange(NodeId(16), 4, &FaultSet::new()));
        assert!(!ring.can_run_binary_exchange(NodeId(0), 16, &FaultSet::new()));
        assert!(!ring.can_run_binary_exchange(NodeId(0), 3, &FaultSet::new()));
        // A fault inside the group blocks it.
        let faults = FaultSet::from_nodes([NodeId(2)]);
        assert!(!ring.can_run_binary_exchange(NodeId(0), 8, &faults));
        assert!(ring.can_run_binary_exchange(NodeId(8), 8, &faults));
        // Groups falling off the end of the node range are rejected.
        assert!(!ring.can_run_binary_exchange(NodeId(60), 8, &FaultSet::new()));
    }

    #[test]
    fn reconfiguration_count_is_rounds_minus_one() {
        let ring = BinaryHopRing::new(64, 4, 4).unwrap();
        assert_eq!(ring.reconfigurations_per_node(2), 0);
        assert_eq!(ring.reconfigurations_per_node(8), 2);
        assert_eq!(ring.reconfigurations_per_node(16), 3);
        assert_eq!(ring.reconfigurations_per_node(5), 0);
    }

    #[test]
    fn partner_offsets_inside_a_group_are_always_direct_hops() {
        // Structural property behind `can_run_binary_exchange`: within a group
        // of 2^r <= 2^K nodes, |i xor 2^j - i| = 2^j is a wiring hop.
        let ring = BinaryHopRing::new(128, 8, 5).unwrap();
        for r in 1..=5usize {
            let group = 1usize << r;
            assert!(
                ring.can_run_binary_exchange(NodeId(0), group, &FaultSet::new()),
                "group {group}"
            );
        }
    }
}
