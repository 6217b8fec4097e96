//! Property-based invariant tests for the K-Hop Ring, complementing the
//! example-based integration tests: whatever the cluster size, K, fault
//! pattern and TP size, the structural invariants of §4.2 must hold.

use hbd_types::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use topology::{FaultSet, HbdArchitecture, KHopRing};

/// A random fault set over `nodes` nodes with roughly `ratio` density,
/// deterministic in `seed`.
fn random_faults(nodes: usize, ratio: f64, seed: u64) -> FaultSet {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    FaultSet::from_nodes((0..nodes).filter(|_| rng.gen::<f64>() < ratio).map(NodeId))
}

#[test]
fn rejects_invalid_k() {
    // K = 0 and K beyond the per-node bundle budget must be rejected, for the
    // ring and the line variant alike.
    assert!(KHopRing::new(64, 4, 0).is_err());
    assert!(KHopRing::new(64, 4, 5).is_err());
    assert!(KHopRing::line(64, 4, 0).is_err());
    assert!(KHopRing::line(64, 8, 9).is_err());
    // Degenerate clusters are rejected too.
    assert!(KHopRing::new(0, 4, 2).is_err());
    assert!(KHopRing::new(64, 0, 2).is_err());
    // The paper's configurations are valid.
    assert!(KHopRing::new(720, 4, 2).is_ok());
    assert!(KHopRing::new(720, 4, 3).is_ok());
}

proptest! {
    /// Node and GPU counts are consistent between the constructor arguments,
    /// the architecture trait and the utilization accounting identity
    /// `usable + faulty + wasted == total`.
    #[test]
    fn gpu_accounting_is_exact(
        nodes in 1usize..300,
        gpus_per_node in 1usize..9,
        k in 1usize..4,
        ratio in 0.0f64..0.5,
        tp_exp in 0u32..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!(k <= gpus_per_node);
        let ring = KHopRing::new(nodes, gpus_per_node, k).unwrap();
        prop_assert_eq!(ring.nodes(), nodes);
        prop_assert_eq!(ring.gpus_per_node(), gpus_per_node);
        prop_assert_eq!(ring.total_gpus(), nodes * gpus_per_node);

        let faults = random_faults(nodes, ratio, seed);
        let tp = gpus_per_node << tp_exp;
        let report = ring.utilization(&faults, tp);
        prop_assert_eq!(report.total_gpus, nodes * gpus_per_node);
        prop_assert_eq!(
            report.usable_gpus + report.faulty_gpus + report.wasted_healthy_gpus,
            report.total_gpus
        );
        prop_assert_eq!(report.usable_gpus % tp, 0);
        prop_assert!(report.waste_ratio() >= 0.0 && report.waste_ratio() <= 1.0);
    }

    /// The healthy segments partition the healthy nodes: every healthy node
    /// appears in exactly one segment, no faulty node appears anywhere, and
    /// consecutive nodes inside a segment are at most K apart (the backup-link
    /// bypass reach). That the segments are also maximal is the graph
    /// oracle's job (`segments_are_the_components_of_the_healthy_graph`).
    #[test]
    fn segments_partition_healthy_nodes(
        nodes in 2usize..300,
        k in 1usize..4,
        ratio in 0.0f64..0.6,
        seed in 0u64..10_000,
    ) {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let faults = random_faults(nodes, ratio, seed);
        let segments = ring.healthy_segments(&faults);

        let mut seen = std::collections::BTreeSet::new();
        for segment in &segments {
            prop_assert!(!segment.is_empty());
            for &node in &segment.nodes {
                prop_assert!(!faults.is_faulty(node), "faulty node {node} in segment");
                prop_assert!(seen.insert(node), "node {node} in two segments");
            }
            for pair in segment.nodes.windows(2) {
                let gap = (pair[1].index() + nodes - pair[0].index()) % nodes;
                prop_assert!(
                    gap >= 1 && gap <= k,
                    "segment jump {} -> {} exceeds K = {k}",
                    pair[0],
                    pair[1]
                );
            }
        }
        let healthy = nodes - faults.len();
        prop_assert_eq!(seen.len(), healthy, "segments must cover every healthy node");
    }

    /// Graph oracle: the healthy segments are exactly the connected
    /// components of the K-Hop graph induced on the healthy nodes (the DFS
    /// formulation of Algorithm 2), on closed rings and lines alike, with a
    /// wrapping segment only where the ring closes over a bypassable gap.
    #[test]
    fn segments_are_the_components_of_the_healthy_graph(
        nodes in 2usize..301,
        k in 1usize..5,
        ratio in 0.0f64..0.7,
        seed in 0u64..10_000,
    ) {
        let faults = random_faults(nodes, ratio, seed);
        for ring in [
            KHopRing::new(nodes, 4, k).unwrap(),
            KHopRing::line(nodes, 4, k).unwrap(),
        ] {
            let healthy: Vec<NodeId> = (0..nodes)
                .map(NodeId)
                .filter(|&n| !faults.is_faulty(n))
                .collect();
            let components: BTreeSet<Vec<NodeId>> = ring
                .graph()
                .induced_subgraph(|n| !faults.is_faulty(n))
                .connected_components(&healthy)
                .into_iter()
                .collect();
            let segments = ring.healthy_segments(&faults);
            let as_sets: BTreeSet<Vec<NodeId>> = segments
                .iter()
                .map(|segment| {
                    let mut nodes = segment.nodes.clone();
                    nodes.sort();
                    nodes
                })
                .collect();
            prop_assert_eq!(as_sets.len(), segments.len(), "duplicate segment");
            prop_assert_eq!(&as_sets, &components, "closed: {}", ring.is_closed());
            // Only the last segment may wrap, and only on a closed ring.
            for (i, segment) in segments.iter().enumerate() {
                prop_assert!(!segment.wraps || (ring.is_closed() && i + 1 == segments.len()));
            }
        }
    }

    /// Ring symmetry: rotating the fault pattern by any offset only rotates
    /// the segments, so the multiset of segment lengths (and hence the usable
    /// GPU count) is invariant under rotation.
    #[test]
    fn closed_ring_is_rotation_invariant(
        nodes in 2usize..200,
        k in 1usize..4,
        ratio in 0.0f64..0.5,
        seed in 0u64..10_000,
        rotation in 1usize..199,
    ) {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let faults = random_faults(nodes, ratio, seed);
        let rotated = FaultSet::from_nodes(
            faults.iter().map(|n| NodeId((n.index() + rotation) % nodes)),
        );

        let mut lens: Vec<usize> = ring.healthy_segments(&faults).iter().map(|s| s.len()).collect();
        let mut rotated_lens: Vec<usize> =
            ring.healthy_segments(&rotated).iter().map(|s| s.len()).collect();
        lens.sort_unstable();
        rotated_lens.sort_unstable();
        prop_assert_eq!(lens, rotated_lens);
        prop_assert_eq!(
            ring.usable_gpus(&faults, 8),
            ring.usable_gpus(&rotated, 8)
        );
    }

    /// The degree structure of the connectivity graph: in a closed ring with
    /// more than 2K nodes every node sees exactly 2K distinct neighbours, and
    /// the hop-H links exist in both directions (symmetry).
    #[test]
    fn closed_ring_degree_is_2k(
        nodes in 8usize..300,
        k in 1usize..4,
    ) {
        prop_assume!(nodes > 2 * k);
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let graph = ring.graph();
        for n in 0..nodes {
            prop_assert_eq!(graph.degree(NodeId(n)), 2 * k, "node {n}");
            for hop in 1..=k {
                let fwd = NodeId((n + hop) % nodes);
                prop_assert!(graph.neighbours(NodeId(n)).contains(&fwd));
                prop_assert!(graph.neighbours(fwd).contains(&NodeId(n)));
            }
        }
    }

    /// The line variant never wraps: no segment marks `wraps` and the end
    /// nodes have reduced degree.
    #[test]
    fn line_variant_never_wraps(
        nodes in 3usize..200,
        k in 1usize..4,
        ratio in 0.0f64..0.5,
        seed in 0u64..10_000,
    ) {
        prop_assume!(nodes > 2 * k);
        let line = KHopRing::line(nodes, 4, k).unwrap();
        prop_assert!(!line.is_closed());
        prop_assert_eq!(line.graph().degree(NodeId(0)), k);
        for segment in line.healthy_segments(&random_faults(nodes, ratio, seed)) {
            prop_assert!(!segment.wraps);
        }
    }

    /// The counting fast path of `usable_gpus` (the run scan that never
    /// materialises a segment) agrees exactly with the segment-materialising
    /// definition, on the closed ring and on the line variant alike.
    #[test]
    fn usable_gpus_fast_path_matches_segment_definition(
        nodes in 1usize..300,
        k in 1usize..4,
        ratio in 0.0f64..0.7,
        seed in 0u64..10_000,
        tp_exp in 0u32..6,
    ) {
        let faults = random_faults(nodes, ratio, seed);
        let tp = 4usize << tp_exp;
        for ring in [
            KHopRing::new(nodes, 4, k).unwrap(),
            KHopRing::line(nodes, 4, k).unwrap(),
        ] {
            let from_segments: usize = ring
                .healthy_segments(&faults)
                .iter()
                .map(|seg| seg.tp_groups(4, tp) * tp)
                .sum();
            prop_assert_eq!(ring.usable_gpus(&faults, tp), from_segments);
        }
    }

    /// Monotonicity: adding one more faulty node can never increase the
    /// number of usable GPUs.
    #[test]
    fn more_faults_never_increase_usable_gpus(
        nodes in 2usize..200,
        k in 1usize..4,
        ratio in 0.0f64..0.4,
        seed in 0u64..10_000,
        extra in 0usize..199,
    ) {
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let faults = random_faults(nodes, ratio, seed);
        let mut more = FaultSet::from_nodes(faults.iter());
        more.add(NodeId(extra % nodes));
        prop_assert!(ring.usable_gpus(&more, 8) <= ring.usable_gpus(&faults, 8));
    }
}
