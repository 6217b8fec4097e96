//! Property-based invariant tests for the ring-family baselines beyond the
//! K-Hop Ring: the static **SiP-Ring** and the ±2^i **Binary-Hop Ring**.
//! Whatever the cluster size, node size, deployment parameter and fault
//! pattern, the structural invariants (node degree, reachability, GPU
//! accounting) must hold.

use hbd_types::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topology::{BinaryHopRing, FaultSet, HbdArchitecture, SipRing};

/// A random fault set over `nodes` nodes with roughly `ratio` density,
/// deterministic in `seed`.
fn random_faults(nodes: usize, ratio: f64, seed: u64) -> FaultSet {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    FaultSet::from_nodes((0..nodes).filter(|_| rng.gen::<f64>() < ratio).map(NodeId))
}

proptest! {
    /// SiP-Ring GPU accounting: `usable + faulty + wasted == total` for any
    /// cluster size, ring size, TP size and fault pattern, usable capacity is
    /// a whole number of TP groups, and a TP larger than the deployed ring is
    /// never usable.
    #[test]
    fn sip_ring_accounting_is_exact(
        nodes in 1usize..300,
        gpus_per_node in 1usize..9,
        ring_nodes in 1usize..12,
        tp_exp in 0u32..6,
        ratio in 0.0f64..0.5,
        seed in 0u64..10_000,
    ) {
        let ring_gpus = ring_nodes * gpus_per_node;
        let hbd = SipRing::new(nodes, gpus_per_node, ring_gpus).unwrap();
        prop_assert_eq!(hbd.nodes(), nodes);
        prop_assert_eq!(hbd.gpus_per_node(), gpus_per_node);
        // Whole rings only: the ring partition never over-counts the cluster.
        prop_assert_eq!(hbd.rings(), nodes / ring_nodes);

        let faults = random_faults(nodes, ratio, seed);
        let tp = gpus_per_node << tp_exp;
        let report = hbd.utilization(&faults, tp);
        prop_assert_eq!(report.total_gpus, nodes * gpus_per_node);
        prop_assert_eq!(
            report.usable_gpus + report.faulty_gpus + report.wasted_healthy_gpus,
            report.total_gpus
        );
        prop_assert_eq!(report.usable_gpus % tp, 0);
        if tp > ring_gpus {
            prop_assert_eq!(report.usable_gpus, 0);
        }
    }

    /// SiP-Ring fault explosion: every faulty node takes its whole ring out of
    /// service — the usable capacity is exactly the intact-ring count times
    /// the per-ring TP capacity, and faults never increase capacity.
    #[test]
    fn sip_ring_loses_whole_rings(
        rings in 1usize..40,
        ring_nodes in 1usize..10,
        ratio in 0.0f64..0.4,
        seed in 0u64..10_000,
    ) {
        let gpus_per_node = 4usize;
        let nodes = rings * ring_nodes;
        let ring_gpus = ring_nodes * gpus_per_node;
        let hbd = SipRing::new(nodes, gpus_per_node, ring_gpus).unwrap();
        let faults = random_faults(nodes, ratio, seed);
        let intact = (0..hbd.rings())
            .filter(|&r| faults.count_in_range(r * ring_nodes, (r + 1) * ring_nodes) == 0)
            .count();
        let report = hbd.utilization(&faults, ring_gpus);
        prop_assert_eq!(report.usable_gpus, intact * ring_gpus);
        let healthy = hbd.utilization(&FaultSet::new(), ring_gpus);
        prop_assert!(report.usable_gpus <= healthy.usable_gpus);
    }

    /// Binary-Hop node degree: every node reaches `±2^j` for `j < K`, so its
    /// degree is `2K` minus the collisions that occur when a hop distance and
    /// its ring complement coincide (`2d ≡ 0 mod n`); degree is symmetric
    /// (regular graph) and never exceeds `2K`.
    #[test]
    fn binary_hop_degree_is_regular_and_bounded(
        nodes in 2usize..400,
        gpus_per_node in 1usize..9,
        k in 1usize..8,
    ) {
        prop_assume!(k <= gpus_per_node);
        prop_assume!((1usize << (k - 1)) < nodes);
        let ring = BinaryHopRing::new(nodes, gpus_per_node, k).unwrap();
        let graph = ring.graph();
        // The wiring is vertex-transitive: every node has the same degree,
        // namely the number of distinct non-zero residues among `±2^j mod n`
        // (hop distances can collide with each other's complements on small
        // rings, e.g. +4 ≡ -2 mod 6).
        let mut residues = std::collections::BTreeSet::new();
        for &d in &ring.hop_distances() {
            residues.insert(d % nodes);
            residues.insert((nodes - d % nodes) % nodes);
        }
        residues.remove(&0);
        let expected = residues.len();
        for n in 0..nodes {
            let degree = graph.degree(NodeId(n));
            prop_assert!(degree <= 2 * k, "node {n} degree {degree} > 2K");
            prop_assert_eq!(degree, expected, "node {} degree", n);
        }
    }

    /// Binary-Hop reachability: the ±1 hop alone makes the healthy ring
    /// connected, so with no faults every node reaches every other; and every
    /// Binary Exchange partner offset `2^j (j < K)` is a direct hop.
    #[test]
    fn binary_hop_is_connected_and_partners_are_direct(
        nodes in 2usize..300,
        k in 1usize..5,
    ) {
        prop_assume!((1usize << (k - 1)) < nodes);
        let ring = BinaryHopRing::new(nodes, 8, k).unwrap();
        let graph = ring.graph();
        // BFS from node 0 over the undirected hop graph.
        let mut seen = vec![false; nodes];
        let mut frontier = vec![NodeId(0)];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(node) = frontier.pop() {
            for peer in graph.neighbours(node) {
                if !seen[peer.index()] {
                    seen[peer.index()] = true;
                    reached += 1;
                    frontier.push(peer);
                }
            }
        }
        prop_assert_eq!(reached, nodes, "hop graph must be connected");

        // Every power-of-two offset below 2^K is a wiring hop distance.
        let distances = ring.hop_distances();
        for j in 0..k {
            prop_assert!(distances.contains(&(1usize << j)));
        }
        prop_assert_eq!(ring.max_ep_group_nodes(), 1usize << k);
        prop_assert_eq!(ring.tp_ep_product_limit(), 8 * (1usize << k));
    }

    /// Binary Exchange feasibility tracks group health: an aligned healthy
    /// power-of-two group of at most `2^K` nodes can always run, and any fault
    /// inside the group blocks it.
    #[test]
    fn binary_hop_binary_exchange_feasibility(
        k in 1usize..5,
        group_exp in 1usize..5,
        base_slot in 0usize..8,
        faulty_offset in 0usize..16,
    ) {
        let nodes = 256usize;
        let ring = BinaryHopRing::new(nodes, 8, k).unwrap();
        let group = 1usize << group_exp;
        prop_assume!(group <= ring.max_ep_group_nodes());
        let base = NodeId(base_slot * group);
        prop_assert!(ring.can_run_binary_exchange(base, group, &FaultSet::new()));
        // A fault inside the group blocks it; one outside does not.
        let inside = NodeId(base.index() + faulty_offset % group);
        let faults = FaultSet::from_nodes([inside]);
        prop_assert!(!ring.can_run_binary_exchange(base, group, &faults));
        let outside = NodeId((base.index() + group) % nodes);
        let faults = FaultSet::from_nodes([outside]);
        prop_assert!(ring.can_run_binary_exchange(base, group, &faults));
    }
}
