//! Integration: the control plane (cluster manager + fabric managers) must
//! stay consistent with the topology layer and with the fault-resilience
//! metrics built on top of it, while replaying a realistic fault workload.

use infinitehbd::control::{ClusterManager, ControlLatencies, FailoverPlanner};
use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replaying a generated fault trace through the cluster manager keeps the
/// control plane's view of usable capacity identical to the topology layer's
/// waste-ratio accounting used by the paper's Figure 13/20 experiments.
#[test]
fn trace_replay_matches_topology_utilization() {
    let nodes = 180;
    let ring = KHopRing::new(nodes, 4, 3).expect("valid ring");
    let mut manager =
        ClusterManager::new(ring.clone(), ControlLatencies::hardware_only()).expect("manager");

    // Generate a short synthetic trace and replay fault/repair edges in time
    // order at a handful of sample points.
    let config = GeneratorConfig::paper_8gpu_cluster();
    let generator = TraceGenerator::new(config).expect("generator");
    let mut rng = StdRng::seed_from_u64(11);
    let trace = generator.generate(&mut rng);

    let mut current: Vec<NodeId> = Vec::new();
    for (i, sample_day) in [20.0f64, 60.0, 120.0, 200.0, 320.0].iter().enumerate() {
        let at = Seconds::from_days(*sample_day);
        let target: Vec<NodeId> = trace
            .faulty_nodes_at(at)
            .into_iter()
            .filter(|n| n.index() < nodes)
            .collect();
        // Repair nodes that recovered since the previous sample, fail new ones.
        for node in current.clone() {
            if !target.contains(&node) {
                manager.repair_node(node, at).expect("repair");
            }
        }
        for node in &target {
            if !current.contains(node) {
                manager.inject_fault(*node, at).expect("fault");
            }
        }
        current = target;

        let faults = FaultSet::from_nodes(current.iter().copied());
        for tp in [16usize, 32] {
            assert_eq!(
                manager.usable_gpus(tp),
                ring.utilization(&faults, tp).usable_gpus,
                "sample {i}, TP-{tp}"
            );
        }
        // The hardware always matches a freshly computed plan.
        assert_fabric_matches_fresh_plan(&manager, nodes);
    }
}

/// Asserts that every directive of a freshly computed plan is reflected in
/// the bundle states reported by the per-node fabric managers.
fn assert_fabric_matches_fresh_plan(manager: &ClusterManager, nodes: usize) {
    let plan = manager.planner().plan(manager.faults()).expect("plan");
    for n in 0..nodes {
        let fabric = manager.fabric(NodeId(n)).expect("fabric manager");
        for (bundle, action) in plan.node(NodeId(n)).iter() {
            let state = fabric.bundle_state(bundle).expect("bundle");
            assert_eq!(
                state,
                action.state(),
                "node {n} bundle {bundle}: plan {action:?} vs hardware {state:?}"
            );
        }
    }
}

/// The number of bundles the control plane actually reconfigures after a
/// single fault is small and bounded — the node-level fault explosion radius
/// claimed in Table 1, now measured on the control path instead of the
/// capacity metric.
#[test]
fn single_fault_touches_a_bounded_neighbourhood_for_every_k() {
    for k in [2usize, 3, 4] {
        let ring = KHopRing::new(240, 4, k).expect("valid ring");
        let mut manager =
            ClusterManager::new(ring, ControlLatencies::hardware_only()).expect("manager");
        let report = manager
            .inject_fault(NodeId(120), Seconds(5.0))
            .expect("fault");
        assert!(
            report.nodes_reconfigured <= 2 * k,
            "K={k}: {} nodes reconfigured",
            report.nodes_reconfigured
        );
        assert!(report.hardware_latency.value() <= 80.0, "K={k}");
        assert_eq!(report.segments, 1, "K={k}: a single fault never partitions");
    }
}

/// The failover planner and the fabric managers agree on the final hardware
/// state: every directive of the plan for the current faults is reflected in
/// the bundle states reported by the per-node fabric managers.
#[test]
fn deployed_plan_matches_fabric_state() {
    let ring = KHopRing::new(96, 4, 2).expect("valid ring");
    let mut manager =
        ClusterManager::new(ring, ControlLatencies::production_defaults()).expect("manager");
    for (i, node) in [5usize, 6, 40, 77].iter().enumerate() {
        manager
            .inject_fault(NodeId(*node), Seconds(i as f64 * 100.0))
            .expect("fault");
    }
    assert_fabric_matches_fresh_plan(&manager, 96);
}

/// The planner works for the K-Hop *line* variant too, where the two ends of
/// the deployment have reduced fault tolerance (§4.2).
#[test]
fn line_deployment_partitions_where_the_ring_does_not() {
    let line = KHopRing::line(64, 4, 2).expect("valid line");
    let ring = KHopRing::new(64, 4, 2).expect("valid ring");
    let faults = FaultSet::from_nodes([NodeId(30), NodeId(31)]);
    let line_planner = FailoverPlanner::new(line).expect("planner");
    let ring_planner = FailoverPlanner::new(ring).expect("planner");
    assert_eq!(line_planner.segments(&faults).len(), 2);
    assert_eq!(ring_planner.segments(&faults).len(), 1);
    // Both plans still realise every healthy node.
    for planner in [&line_planner, &ring_planner] {
        let plan = planner.plan(&faults).expect("plan");
        assert_eq!(plan.len(), 62);
    }
}
