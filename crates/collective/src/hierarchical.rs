//! Reduce-Scatter / All-Gather building blocks and the two-level
//! (intra-node + inter-node) hierarchical AllReduce.
//!
//! The flat Ring-AllReduce of [`crate::RingAllReduce`] treats every GPU as one
//! ring member. On InfiniteHBD the ring is *physically* hierarchical: the GPUs
//! inside a node talk over the UBB baseboard, while node-to-node traffic rides
//! the OCSTrx fabric. Decomposing the AllReduce into an intra-node
//! Reduce-Scatter, an inter-node Ring-AllReduce over node representatives and a
//! final intra-node All-Gather shortens the slow inter-node ring by a factor of
//! `R` (GPUs per node) at the price of two extra fast local phases — the
//! standard trick NCCL applies on multi-GPU nodes, included here so the §5.2
//! utilisation comparison can be reproduced for both organisations.

use crate::cost_model::{AlphaBeta, CollectiveCost};
use crate::ring_allreduce::RingAllReduce;
use hbd_types::{Bytes, Seconds};
use serde::{Deserialize, Serialize};

/// Ring Reduce-Scatter over `ranks` participants: `ranks − 1` steps, each
/// moving `1/ranks` of the buffer; every rank ends with one fully-reduced
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReduceScatter {
    ranks: usize,
}

impl ReduceScatter {
    /// Creates a Reduce-Scatter over `ranks` participants (at least 2).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 2, "Reduce-Scatter needs at least two ranks");
        ReduceScatter { ranks }
    }

    /// Number of ring steps.
    pub fn steps(&self) -> usize {
        self.ranks - 1
    }

    /// Bytes sent by each rank over the whole collective for a `message`-byte
    /// buffer.
    pub fn total_bytes_per_rank(&self, message: Bytes) -> Bytes {
        Bytes(message.value() * (self.ranks - 1) as f64 / self.ranks as f64)
    }

    /// α–β cost on a given link.
    pub fn cost(&self, message: Bytes, link: &AlphaBeta) -> CollectiveCost {
        let chunk = Bytes(message.value() / self.ranks as f64);
        CollectiveCost {
            steps: self.steps(),
            bytes_per_rank: self.total_bytes_per_rank(message),
            time: link.steps_time(self.steps(), chunk),
        }
    }
}

/// Ring All-Gather over `ranks` participants — the mirror image of
/// Reduce-Scatter (same step count and volume, no reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllGather {
    ranks: usize,
}

impl AllGather {
    /// Creates an All-Gather over `ranks` participants (at least 2).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 2, "All-Gather needs at least two ranks");
        AllGather { ranks }
    }

    /// Number of ring steps.
    pub fn steps(&self) -> usize {
        self.ranks - 1
    }

    /// Bytes sent by each rank for a `message`-byte *output* buffer.
    pub fn total_bytes_per_rank(&self, message: Bytes) -> Bytes {
        Bytes(message.value() * (self.ranks - 1) as f64 / self.ranks as f64)
    }

    /// α–β cost on a given link.
    pub fn cost(&self, message: Bytes, link: &AlphaBeta) -> CollectiveCost {
        let chunk = Bytes(message.value() / self.ranks as f64);
        CollectiveCost {
            steps: self.steps(),
            bytes_per_rank: self.total_bytes_per_rank(message),
            time: link.steps_time(self.steps(), chunk),
        }
    }
}

/// The two-level AllReduce: intra-node Reduce-Scatter, inter-node
/// Ring-AllReduce over one representative GPU per node, intra-node All-Gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchicalAllReduce {
    /// GPUs per node participating in the local phases.
    pub gpus_per_node: usize,
    /// Nodes participating in the inter-node ring.
    pub nodes: usize,
}

impl HierarchicalAllReduce {
    /// Creates the hierarchical schedule (`gpus_per_node ≥ 1`, `nodes ≥ 2`).
    pub fn new(gpus_per_node: usize, nodes: usize) -> Self {
        assert!(gpus_per_node >= 1, "need at least one GPU per node");
        assert!(nodes >= 2, "need at least two nodes");
        HierarchicalAllReduce {
            gpus_per_node,
            nodes,
        }
    }

    /// Total GPU ranks covered.
    pub fn ranks(&self) -> usize {
        self.gpus_per_node * self.nodes
    }

    /// End-to-end time for a `message`-byte buffer, with the intra-node phases
    /// on `intra` links and the inter-node ring on `inter` links.
    pub fn time(&self, message: Bytes, intra: &AlphaBeta, inter: &AlphaBeta) -> Seconds {
        let mut total = Seconds::ZERO;
        if self.gpus_per_node >= 2 {
            total += ReduceScatter::new(self.gpus_per_node)
                .cost(message, intra)
                .time;
        }
        // After the local Reduce-Scatter each GPU owns 1/R of the buffer; the
        // inter-node ring AllReduces that shard across nodes.
        let shard = Bytes(message.value() / self.gpus_per_node as f64);
        total += RingAllReduce::new(self.nodes).cost(shard, inter).time;
        if self.gpus_per_node >= 2 {
            total += AllGather::new(self.gpus_per_node).cost(message, intra).time;
        }
        total
    }

    /// Time for the *flat* alternative: one Ring-AllReduce over every GPU,
    /// paced by the slower inter-node link.
    fn flat_time(&self, message: Bytes, inter: &AlphaBeta) -> Seconds {
        RingAllReduce::new(self.ranks()).cost(message, inter).time
    }

    /// Speed-up of the hierarchical schedule over the flat ring (> 1 means the
    /// hierarchy wins).
    pub fn speedup(&self, message: Bytes, intra: &AlphaBeta, inter: &AlphaBeta) -> f64 {
        let hier = self.time(message, intra, inter);
        let flat = self.flat_time(message, inter);
        if hier.value() <= 0.0 {
            1.0
        } else {
            flat.value() / hier.value()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn intra() -> AlphaBeta {
        // Intra-node (HBD-class) link: the fast tier of the hierarchy.
        AlphaBeta::hbd_default()
    }

    fn inter() -> AlphaBeta {
        // Inter-node tier an order of magnitude slower (DCN-class), which is
        // when the hierarchical decomposition pays off.
        AlphaBeta::dcn_default()
    }

    #[test]
    fn reduce_scatter_and_all_gather_mirror_each_other() {
        let message = Bytes::from_gib(1.0);
        let rs = ReduceScatter::new(8).cost(message, &inter());
        let ag = AllGather::new(8).cost(message, &inter());
        assert_eq!(rs.steps, 7);
        assert_eq!(rs.steps, ag.steps);
        assert_eq!(rs.bytes_per_rank, ag.bytes_per_rank);
        assert_eq!(rs.time, ag.time);
        // Volume is (R-1)/R of the buffer.
        assert!((rs.bytes_per_rank.value() - message.value() * 7.0 / 8.0).abs() < 1.0);
    }

    #[test]
    fn ring_allreduce_volume_is_reduce_scatter_plus_all_gather() {
        let message = Bytes::from_gib(2.0);
        let ranks = 16;
        let rs = ReduceScatter::new(ranks).total_bytes_per_rank(message);
        let ag = AllGather::new(ranks).total_bytes_per_rank(message);
        let ar = RingAllReduce::new(ranks).total_bytes_per_rank(message);
        assert!((rs.value() + ag.value() - ar.value()).abs() < 1.0);
    }

    #[test]
    fn hierarchy_beats_flat_ring_for_large_messages() {
        // 8-GPU nodes, 32 nodes, 4 GiB gradient buffer.
        let sched = HierarchicalAllReduce::new(8, 32);
        assert_eq!(sched.ranks(), 256);
        let message = Bytes::from_gib(4.0);
        let speedup = sched.speedup(message, &intra(), &inter());
        assert!(speedup > 1.0, "speedup {speedup}");
        // The hierarchical time is dominated by the inter-node phase on a
        // buffer R times smaller, so the win is substantial.
        assert!(speedup > 2.0, "speedup {speedup}");
    }

    #[test]
    fn single_gpu_nodes_degenerate_to_the_flat_ring() {
        let sched = HierarchicalAllReduce::new(1, 16);
        let message = Bytes::from_gib(1.0);
        let hier = sched.time(message, &intra(), &inter());
        let flat = sched.flat_time(message, &inter());
        assert!((hier.value() - flat.value()).abs() < 1e-12);
    }

    #[test]
    fn latency_term_grows_with_step_count() {
        // Tiny message: the alpha term dominates, so more total steps
        // (hierarchical = (R-1) + (N-1) + (R-1)) can lose to the flat ring's
        // (RN - 1) only when RN-1 is larger. Check monotonicity of the cost
        // model rather than a specific winner.
        let tiny = Bytes(1024.0);
        let few_steps = ReduceScatter::new(2).cost(tiny, &inter()).time;
        let many_steps = ReduceScatter::new(64).cost(tiny, &inter()).time;
        assert!(many_steps > few_steps);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn reduce_scatter_rejects_single_rank() {
        let _ = ReduceScatter::new(1);
    }
}
