//! Cross-crate integration tests for the HBD-DCN orchestration pipeline
//! (the §6.4 experiments, end to end).

use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(nodes: usize) -> (FatTree, FatTreeOrchestrator) {
    let tree = FatTree::new(nodes, 16, 8).unwrap();
    let orch = FatTreeOrchestrator::new(tree.clone()).unwrap();
    (tree, orch)
}

#[test]
fn optimized_orchestration_beats_the_greedy_baseline() {
    let (tree, orch) = setup(1024);
    let mut rng = StdRng::seed_from_u64(21);
    let faults = FaultSet::from_nodes(IidFaultModel::new(1024, 0.05).sample_exact(&mut rng));
    let request = OrchestrationRequest {
        job_nodes: 870,
        nodes_per_group: 8,
        k: 2,
    };
    let optimized = orch.orchestrate_par(&request, &faults, 1).unwrap();
    let baseline = greedy_placement(1024, &faults, 8, 870, &mut rng);
    let model = TrafficModel::paper_tp32();
    let optimized_rate = cross_tor_rate(&optimized, &tree, &model);
    let baseline_rate = cross_tor_rate(&baseline, &tree, &model);
    assert!(
        baseline_rate > 0.07,
        "greedy baseline should sit near 10% cross-ToR traffic, got {baseline_rate}"
    );
    // The paper reports near-zero for its orchestrator; our DP-rank assignment
    // is a simpler heuristic (sort by rank-0 ToR), so we assert the shape: the
    // optimized placement cuts the baseline's cross-ToR traffic by at least 2x
    // and stays well below the ~10% ceiling.
    assert!(
        optimized_rate < 0.06,
        "optimized placement should stay low, got {optimized_rate}"
    );
    assert!(optimized_rate < baseline_rate / 2.0);
}

#[test]
fn orchestration_is_insensitive_to_cluster_size() {
    // Fig 17a: the cross-ToR rate of the optimized algorithm stays flat as the
    // cluster grows.
    let mut rates = Vec::new();
    for nodes in [512usize, 1024, 2048] {
        let (tree, orch) = setup(nodes);
        let mut rng = StdRng::seed_from_u64(5);
        let faults = FaultSet::from_nodes(IidFaultModel::new(nodes, 0.05).sample_exact(&mut rng));
        let request = OrchestrationRequest {
            job_nodes: nodes * 85 / 100,
            nodes_per_group: 8,
            k: 2,
        };
        let placement = orch.orchestrate_par(&request, &faults, 1).unwrap();
        rates.push(cross_tor_rate(
            &placement,
            &tree,
            &TrafficModel::paper_tp32(),
        ));
    }
    for rate in &rates {
        assert!(*rate < 0.06, "rates {rates:?}");
    }
    // Flat in cluster size: the spread stays within a couple of percentage points.
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    let min = rates.iter().cloned().fold(1.0f64, f64::min);
    assert!(max - min < 0.03, "rates {rates:?}");
}

#[test]
fn cross_tor_traffic_degrades_gracefully_with_fault_ratio() {
    // Fig 17c: optimized cross-ToR traffic stays near zero for small fault
    // ratios and only climbs as faults force constraint relaxation.
    let (tree, orch) = setup(1024);
    let request = OrchestrationRequest {
        job_nodes: 870,
        nodes_per_group: 8,
        k: 2,
    };
    let model = TrafficModel::paper_tp32();
    let mut prev: f64 = 0.0;
    for (i, ratio) in [0.01, 0.04, 0.08].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let faults = FaultSet::from_nodes(IidFaultModel::new(1024, ratio).sample_exact(&mut rng));
        match orch.orchestrate_par(&request, &faults, 1) {
            Ok(placement) => {
                let rate = cross_tor_rate(&placement, &tree, &model);
                assert!(rate <= 0.12, "rate {rate} at fault ratio {ratio}");
                if ratio <= 0.01 {
                    assert!(rate < 0.02, "rate {rate} should be near zero at {ratio}");
                }
                prev = prev.max(rate);
            }
            Err(_) => {
                // At high fault ratios the 85% job may simply not fit; that is
                // the fault-waiting regime, not an orchestration failure.
                assert!(ratio >= 0.08);
            }
        }
    }
}

#[test]
fn placements_always_respect_group_size_and_faults() {
    let (_, orch) = setup(512);
    let mut rng = StdRng::seed_from_u64(9);
    let faults = FaultSet::from_nodes(IidFaultModel::new(512, 0.03).sample_exact(&mut rng));
    let request = OrchestrationRequest {
        job_nodes: 400,
        nodes_per_group: 8,
        k: 3,
    };
    let placement = orch.orchestrate_par(&request, &faults, 1).unwrap();
    let faulty: std::collections::BTreeSet<NodeId> = faults.iter().collect();
    assert!(placement.validate(8, &faulty).is_ok());
    assert!(placement.nodes_placed() >= 400);
}
