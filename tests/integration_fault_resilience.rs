//! Cross-crate integration tests: fault traces + topologies + cluster metrics
//! (the §6.2 pipeline, end to end).

use infinitehbd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trace(nodes: usize, days: f64, seed: u64) -> FaultTrace {
    TraceGenerator::new(GeneratorConfig {
        nodes,
        duration: Seconds::from_days(days),
        steady_state_fault_ratio: 0.0117,
        mean_time_to_repair: Seconds::from_hours(12.0),
    })
    .unwrap()
    .generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn infinitehbd_waste_is_an_order_of_magnitude_below_nvl_and_tpuv4() {
    // The paper's headline: 0.53% waste for TP-32 vs 10.04% (NVL-72) and 7.56%
    // (TPUv4) - a 10-20x gap. We assert the shape: near-zero for InfiniteHBD
    // and a large multiple for the baselines.
    let trace = trace(720, 90.0, 11);
    let ring = KHopRing::new(720, 4, 3).unwrap();
    let nvl = Nvl::new(720, 4, NvlVariant::Nvl72);
    let tpu = TpuV4::new(720, 4);
    let mean = |arch: &dyn HbdArchitecture| {
        let points = waste_over_trace_par(arch, &trace, 32, 90, 1);
        points.iter().map(|p| p.waste_ratio).sum::<f64>() / points.len() as f64
    };
    let ring_waste = mean(&ring);
    let nvl_waste = mean(&nvl);
    let tpu_waste = mean(&tpu);
    assert!(ring_waste < 0.01, "InfiniteHBD(K=3) waste {ring_waste}");
    assert!(
        nvl_waste > 10.0 * ring_waste.max(1e-4),
        "NVL-72 waste {nvl_waste}"
    );
    assert!(
        tpu_waste > 5.0 * ring_waste.max(1e-4),
        "TPUv4 waste {tpu_waste}"
    );
}

#[test]
fn k2_and_k3_are_nearly_identical_at_production_fault_rates() {
    // §6.2: "the waste ratio for InfiniteHBD (K=2) remains almost identical to
    // that of InfiniteHBD (K=3)".
    let trace = trace(720, 90.0, 13);
    let k2 = KHopRing::new(720, 4, 2).unwrap();
    let k3 = KHopRing::new(720, 4, 3).unwrap();
    let mean = |arch: &dyn HbdArchitecture| {
        let points = waste_over_trace_par(arch, &trace, 32, 90, 1);
        points.iter().map(|p| p.waste_ratio).sum::<f64>() / points.len() as f64
    };
    assert!((mean(&k2) - mean(&k3)).abs() < 0.01);
}

#[test]
fn eight_to_four_gpu_conversion_preserves_total_fault_mass() {
    let trace8 = TraceGenerator::new(GeneratorConfig::paper_8gpu_cluster())
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(5));
    let trace4 = convert_8gpu_to_4gpu(&trace8, 0.0233, &mut StdRng::seed_from_u64(6));
    assert_eq!(trace4.nodes(), trace8.nodes() * 2);
    let stats8 = TraceStats::compute(&trace8, 500);
    let stats4 = TraceStats::compute(&trace4, 500);
    // Appendix A: the 4-GPU node fault ratio is about half the 8-GPU one.
    let ratio = stats4.mean_ratio / stats8.mean_ratio;
    assert!(ratio > 0.35 && ratio < 0.65, "conversion ratio {ratio}");
}

#[test]
fn max_job_and_fault_waiting_are_consistent() {
    let trace = trace(360, 60.0, 17);
    let ring = KHopRing::new(360, 4, 2).unwrap();
    let worst_job = infinitehbd::cluster::max_job_over_trace_par(&ring, &trace, 32, 60, 1);
    // A job at the worst-case capacity never waits; a job above it sometimes does.
    assert_eq!(
        fault_waiting_rate_par(&ring, &trace, 32, worst_job, 60, 1),
        0.0
    );
    if worst_job + 32 <= 1440 {
        assert!(fault_waiting_rate_par(&ring, &trace, 32, worst_job + 32, 60, 1) > 0.0);
    }
}
