//! Integration: the Appendix-G AllToAll pathway — Binary-Hop wiring,
//! feasibility constraints, symbolic correctness and fast-switch timing must
//! tell one consistent story.

use infinitehbd::collective::{
    AllToAllAlgorithm, AlphaBeta, BinaryExchangeSim, FastSwitchAllToAll,
};
use infinitehbd::prelude::*;

/// Every EP group size the Binary-Hop wiring declares feasible can actually be
/// executed: the symbolic Binary Exchange delivers every block to every rank
/// in exactly log2(p) rounds, and the wiring offers a direct hop for every
/// partner offset the algorithm uses.
#[test]
fn feasible_groups_complete_the_symbolic_binary_exchange() {
    let wiring = BinaryHopRing::new(128, 8, 6).expect("valid wiring");
    for group in [2usize, 4, 8, 16, 32, 64] {
        assert!(
            wiring.can_run_binary_exchange(NodeId(0), group, &FaultSet::new()),
            "group {group} should be feasible"
        );
        let mut sim = BinaryExchangeSim::new(group);
        sim.run();
        assert!(sim.is_complete(), "group {group} incomplete");
        assert_eq!(
            sim.rounds_executed(),
            AllToAllAlgorithm::BinaryExchange.rounds(group)
        );
    }
    // One size beyond the wiring's reach is rejected up front.
    assert!(!wiring.can_run_binary_exchange(NodeId(0), 128, &FaultSet::new()));
}

/// The fast-switch timing model agrees with the complexity claims of §7:
/// Binary Exchange scales as O(p log p) while the ring fallback scales as
/// O(p²), so the speedup grows roughly linearly in p for bandwidth-dominated
/// block sizes.
#[test]
fn speedup_grows_with_group_size_for_large_blocks() {
    let link = AlphaBeta::hbd_default();
    let block = Bytes::from_mb(32.0);
    let mut previous = 0.0f64;
    for p in [8usize, 16, 32, 64] {
        let schedule = FastSwitchAllToAll::new(p);
        let speedup = schedule.ring_fallback(block, &link).value()
            / schedule.cost(block, &link).total().value();
        assert!(
            speedup > previous,
            "speedup must grow with p: {speedup} at p={p}"
        );
        previous = speedup;
    }
    assert!(
        previous > 5.0,
        "at p=64 the win should be large, got {previous}"
    );
}

/// Reconfiguration overhead matters exactly where the paper says it does: for
/// small messages it erodes the Binary Exchange advantage unless it is
/// overlapped with computation, for large messages it is negligible.
#[test]
fn reconfiguration_overhead_only_matters_for_small_blocks() {
    let link = AlphaBeta::hbd_default();
    let schedule = FastSwitchAllToAll::new(32);

    let small = Bytes(64.0 * 1024.0);
    let exposed_small = schedule.cost(small, &link).total();
    let hidden_small = schedule.overlapped(Seconds(1.0)).cost(small, &link).total();
    assert!(
        exposed_small.value() > 2.0 * hidden_small.value(),
        "exposed reconfig should dominate tiny AllToAlls"
    );

    let large = Bytes::from_mb(64.0);
    let exposed_large = schedule.cost(large, &link).total();
    let hidden_large = schedule.overlapped(Seconds(1.0)).cost(large, &link).total();
    assert!(
        exposed_large.value() < 1.05 * hidden_large.value(),
        "reconfig must be negligible for large AllToAlls"
    );
}

/// The TP × EP coupling constraint of Appendix G.3 is enforced consistently
/// between node form factors.
#[test]
fn hybrid_parallelism_limits_match_the_paper() {
    let four = BinaryHopRing::new(512, 4, 4).expect("wiring");
    let eight = BinaryHopRing::new(2048, 8, 8).expect("wiring");
    // 4-GPU nodes: TP x EP <= 64.
    assert!(four.supports_hybrid(4, 16));
    assert!(!four.supports_hybrid(4, 32));
    // 8-GPU nodes: TP x EP <= 2048.
    assert!(eight.supports_hybrid(8, 256));
    assert!(!eight.supports_hybrid(8, 512));
    // The number of fast switches per node is log2(EP) - 1.
    assert_eq!(four.reconfigurations_per_node(16), 3);
    assert_eq!(eight.reconfigurations_per_node(256), 7);
}
