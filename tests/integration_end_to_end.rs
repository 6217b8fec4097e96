//! Whole-system integration tests: device -> topology -> orchestration ->
//! cluster metrics, exercised together through the umbrella API.

use infinitehbd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cluster_study_reproduces_the_architecture_ranking() {
    let study = ClusterStudy::new(
        ClusterConfig::new(360, NodeSize::Four, 16, 4).unwrap(),
        32,
        Seconds::from_days(60.0),
        99,
    )
    .unwrap();
    let reports = study.run_par(60, 1);
    let waste = |name: &str| {
        reports
            .iter()
            .find(|r| r.architecture == name)
            .unwrap()
            .mean_waste_ratio
    };
    assert!(waste("InfiniteHBD(K=3)") <= waste("Big-Switch") + 1e-9);
    assert!(waste("InfiniteHBD(K=2)") < waste("NVL-72"));
    assert!(waste("InfiniteHBD(K=2)") < waste("TPUv4"));
    assert!(waste("InfiniteHBD(K=2)") < waste("SiP-Ring"));
}

#[test]
fn ocstrx_failover_keeps_a_ring_connected() {
    // Device-level fail-over (mark primary down, switch to backup) corresponds
    // to the topology-level bypass: a single faulty node does not break the
    // K-hop ring's healthy segment.
    let mut bundle = Bundle::for_6_4_tbps_gpu();
    bundle.mark_path_down(PathId::External1);
    assert!(bundle.activate_backup().is_ok());
    assert_eq!(bundle.delivered_bandwidth(), Gbps(6400.0));

    let ring = KHopRing::new(64, 4, 2).unwrap();
    let faults = FaultSet::from_nodes([NodeId(13)]);
    let segments = ring.healthy_segments(&faults);
    assert_eq!(segments.len(), 1);
    assert_eq!(segments[0].len(), 63);
}

#[test]
fn binary_exchange_is_the_alltoall_infinitehbd_would_run() {
    // Appendix G: Binary Exchange is both correct (data movement) and cheaper
    // than the naive ring AllToAll, even after paying the OCSTrx fast-switch
    // latency every round.
    let mut sim = infinitehbd::collective::BinaryExchangeSim::new(64);
    sim.run();
    assert!(sim.is_complete());
    let link = AlphaBeta::hbd_default();
    let reconfig = Seconds(80e-6);
    let be = AllToAllAlgorithm::BinaryExchange.cost(64, Bytes(4e6), &link, reconfig);
    let ring = AllToAllAlgorithm::RingShift.cost(64, Bytes(4e6), &link, Seconds::ZERO);
    assert!(be.cost.time.value() < ring.cost.time.value());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn waste_ratio_is_always_a_valid_fraction(
        nodes in 8usize..200,
        k in 1usize..4,
        fault_ratio in 0.0f64..0.4,
        tp_exp in 1u32..5,
        seed in 0u64..1000,
    ) {
        let tp = 4usize << tp_exp; // 8..64 GPUs
        let ring = KHopRing::new(nodes, 4, k).unwrap();
        let model = IidFaultModel::new(nodes, fault_ratio);
        let faults = FaultSet::from_nodes(model.sample_exact(&mut StdRng::seed_from_u64(seed)));
        let report = ring.utilization(&faults, tp);
        prop_assert!(report.usable_gpus + report.faulty_gpus + report.wasted_healthy_gpus == report.total_gpus);
        prop_assert!(report.waste_ratio() >= 0.0 && report.waste_ratio() <= 1.0);
        prop_assert!(report.usable_gpus.is_multiple_of(tp));
    }

    #[test]
    fn infinitehbd_never_wastes_more_than_the_ideal_plus_bound(
        nodes in 32usize..200,
        fault_ratio in 0.0f64..0.15,
        seed in 0u64..1000,
    ) {
        // InfiniteHBD(K=3) should track the Big-Switch ideal closely under
        // realistic fault ratios (the Appendix-C bound is conservative).
        let ring = KHopRing::new(nodes, 4, 3).unwrap();
        let ideal = BigSwitch::new(nodes, 4);
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(nodes, fault_ratio).sample_exact(&mut StdRng::seed_from_u64(seed)),
        );
        let ring_report = ring.utilization(&faults, 32);
        let ideal_report = ideal.utilization(&faults, 32);
        prop_assert!(ring_report.usable_gpus <= ideal_report.usable_gpus);
        // The gap is at most a handful of fragmented groups.
        prop_assert!(ideal_report.usable_gpus - ring_report.usable_gpus <= 32 * (faults.len() + 1));
    }

    #[test]
    fn greedy_and_optimized_placements_are_always_valid(
        fault_ratio in 0.0f64..0.08,
        seed in 0u64..500,
    ) {
        let nodes = 512;
        let tree = FatTree::new(nodes, 16, 8).unwrap();
        let orch = FatTreeOrchestrator::new(tree).unwrap();
        let faults = FaultSet::from_nodes(
            IidFaultModel::new(nodes, fault_ratio).sample_exact(&mut StdRng::seed_from_u64(seed)),
        );
        let request = OrchestrationRequest { job_nodes: 384, nodes_per_group: 8, k: 2 };
        let faulty: std::collections::BTreeSet<NodeId> = faults.iter().collect();
        if let Ok(placement) = orch.orchestrate_par(&request, &faults, 1) {
            prop_assert!(placement.validate(8, &faulty).is_ok());
            prop_assert!(placement.nodes_placed() >= 384);
        }
        let baseline = greedy_placement(nodes, &faults, 8, 384, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert!(baseline.validate(8, &faulty).is_ok());
    }
}
