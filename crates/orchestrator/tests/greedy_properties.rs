//! Property tests for the greedy baseline's partial-placement accounting
//! (the §6.4 baseline under shrinking node pools).
//!
//! When the shuffle cannot satisfy a job, the partial placement must still be
//! *well-formed*: every group has exactly `nodes_per_group` healthy, distinct
//! nodes (never a short trailing group), a zero-node job places nothing, and
//! the downstream traffic accounting (`cross_tor_rate`) stays finite — no
//! NaN/Inf leaking out of empty or partial schemes.

use orchestrator::{cross_tor_rate, greedy_placement, TrafficModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use topology::{FatTree, FaultSet};

proptest! {
    /// Over pools shrinking all the way to zero healthy nodes: group shape,
    /// fault avoidance, disjointness and request clamping all hold, and the
    /// traffic model stays finite on whatever partial scheme results.
    #[test]
    fn shrinking_pools_keep_partial_placements_well_formed(
        total in 0usize..64,
        faulty_prefix in 0usize..64,
        nodes_per_group in 1usize..9,
        job_nodes in 0usize..96,
        seed in 0u64..32,
    ) {
        let faults = FaultSet::from_nodes((0..faulty_prefix.min(total)).map(hbd_types::NodeId));
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = greedy_placement(total, &faults, nodes_per_group, job_nodes, &mut rng).unwrap();

        // Every group is full-size; a zero-node job places zero groups.
        for group in &scheme.groups {
            prop_assert_eq!(group.len(), nodes_per_group);
        }
        if job_nodes == 0 {
            prop_assert!(scheme.is_empty(), "zero-node job must place nothing");
        }

        // No faulty nodes, no duplicates, nothing outside the pool.
        let mut seen = BTreeSet::new();
        for group in &scheme.groups {
            for &node in &group.nodes {
                prop_assert!(node.index() < total);
                prop_assert!(!faults.is_faulty(node));
                prop_assert!(seen.insert(node), "node {} placed twice", node);
            }
        }

        // Clamped to the request (rounded up to whole groups) and to the pool.
        let healthy = total - faulty_prefix.min(total);
        let requested_cap = job_nodes.div_ceil(nodes_per_group) * nodes_per_group;
        prop_assert!(scheme.nodes_placed() <= requested_cap);
        prop_assert!(scheme.nodes_placed() <= healthy);

        // Downstream accounting is finite for every partial/empty scheme.
        let fat_tree = FatTree::new(64, 4, 4).unwrap();
        let rate = cross_tor_rate(&scheme, &fat_tree, &TrafficModel::paper_tp32());
        prop_assert!(rate.is_finite());
        prop_assert!((0.0..=1.0).contains(&rate));
    }
}
