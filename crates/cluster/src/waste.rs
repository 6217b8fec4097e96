//! GPU waste-ratio computation: single fault sets, fault-ratio sweeps and
//! trace replay.

use fault::FaultTrace;
use hbd_types::par::par_map;
use hbd_types::{NodeId, Seconds};
use serde::{Deserialize, Serialize};
use topology::{FaultSet, HbdArchitecture};

/// One sampled point of a waste curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WastePoint {
    /// The x-coordinate: either a node-fault ratio (sweeps) or a time in
    /// seconds (trace replay).
    pub x: f64,
    /// The GPU waste ratio at that point.
    pub waste_ratio: f64,
}

/// Waste ratio of one architecture under one fault set and TP size.
pub fn waste_ratio(arch: &dyn HbdArchitecture, faults: &FaultSet, tp_size: usize) -> f64 {
    arch.utilization(faults, tp_size).waste_ratio()
}

/// Sweep of the waste ratio against the node-fault ratio (Figs 14 / 22): for
/// each requested ratio, `trials` random fault sets are drawn from the i.i.d.
/// model and the waste ratios averaged.
///
/// The `(ratio, trial)` Monte-Carlo grid fans out over up to `threads` scoped
/// threads, with one deterministic RNG stream per shard derived from
/// `master_seed`. The result depends only on `master_seed`, never on the
/// thread count, so `threads = 1` and `threads = N` produce byte-identical
/// curves.
pub fn waste_vs_fault_ratio_par(
    arch: &dyn HbdArchitecture,
    tp_size: usize,
    fault_ratios: &[f64],
    trials: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<WastePoint> {
    let means = fault::sweep_means(
        arch.nodes(),
        fault_ratios,
        trials,
        master_seed,
        threads,
        |faulty, _ratio| {
            let faults = FaultSet::from_nodes_clamped(arch.nodes(), faulty.iter().copied());
            waste_ratio(arch, &faults, tp_size)
        },
    );
    fault_ratios
        .iter()
        .zip(means)
        .map(|(&ratio, mean)| WastePoint {
            x: ratio,
            waste_ratio: mean,
        })
        .collect()
}

/// Replays a fault trace against an architecture, sampling the waste ratio at
/// `samples` evenly spaced instants (Figs 13 / 20 / 21). The trace must cover
/// at least as many nodes as the architecture; extra trace nodes are ignored.
///
/// The sampled instants are independent, so they fan out over up to `threads`
/// scoped threads. The trace query itself is deterministic (no RNG), so the
/// result is identical for any thread count.
pub fn waste_over_trace_par(
    arch: &dyn HbdArchitecture,
    trace: &FaultTrace,
    tp_size: usize,
    samples: usize,
    threads: usize,
) -> Vec<WastePoint> {
    assert!(
        trace.nodes() >= arch.nodes(),
        "trace covers {} nodes but the architecture has {}",
        trace.nodes(),
        arch.nodes()
    );
    let instants: Vec<(Seconds, Vec<NodeId>)> = trace.sample(samples);
    par_map(threads, &instants, |_, (t, faulty)| {
        let faults = FaultSet::from_nodes_clamped(arch.nodes(), faulty.iter().copied());
        WastePoint {
            x: t.value(),
            waste_ratio: waste_ratio(arch, &faults, tp_size),
        }
    })
}

/// Empirical CDF of a series of waste points, as `(waste ratio, cumulative
/// probability)` pairs (the Fig 13 / 21 presentation).
pub fn waste_cdf(points: &[WastePoint]) -> Vec<(f64, f64)> {
    let mut ratios: Vec<f64> = points.iter().map(|p| p.waste_ratio).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("waste ratios are finite"));
    let n = ratios.len() as f64;
    ratios
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::{GeneratorConfig, IidFaultModel, TraceGenerator};
    use hbd_types::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topology::{paper_architectures, KHopRing, Nvl, NvlVariant};

    #[test]
    fn waste_ratio_delegates_to_the_architecture() {
        let ring = KHopRing::new(720, 4, 3).unwrap();
        assert_eq!(waste_ratio(&ring, &FaultSet::new(), 32), 0.0);
        let nvl = Nvl::new(720, 4, NvlVariant::Nvl36);
        assert!(waste_ratio(&nvl, &FaultSet::new(), 16) > 0.11);
    }

    #[test]
    fn nvl_sweep_stays_near_its_fragmentation_floor() {
        // Fig 14b: NVL-36/72 waste hovers around the ~11% fragmentation floor
        // regardless of the fault ratio (faults mostly consume GPUs that were
        // already stranded by fragmentation).
        let nvl = Nvl::new(720, 4, NvlVariant::Nvl72);
        let points = waste_vs_fault_ratio_par(&nvl, 32, &[0.0, 0.05, 0.10], 5, 3, 1);
        assert_eq!(points.len(), 3);
        assert!((points[0].waste_ratio - 8.0 / 72.0).abs() < 1e-9);
        for point in &points {
            assert!(
                point.waste_ratio > 0.05 && point.waste_ratio < 0.16,
                "NVL-72 waste at fault ratio {}: {}",
                point.x,
                point.waste_ratio
            );
        }
    }

    #[test]
    fn infinitehbd_stays_near_zero_across_the_sweep() {
        let ring = KHopRing::new(720, 4, 3).unwrap();
        let points = waste_vs_fault_ratio_par(&ring, 32, &[0.02, 0.05, 0.07], 5, 4, 1);
        for point in points {
            assert!(
                point.waste_ratio < 0.02,
                "K=3 waste should be near zero at {}: {}",
                point.x,
                point.waste_ratio
            );
        }
    }

    #[test]
    fn paper_ranking_holds_on_the_fault_model() {
        // At a 5% node fault ratio with TP-32, the ordering of Fig 14b:
        // InfiniteHBD(K=3) < NVL-576 < NVL-72 < TPUv4 / SiP-Ring.
        let archs = paper_architectures(720, 4, 32).unwrap();
        let mut measured = std::collections::HashMap::new();
        for arch in &archs {
            let points = waste_vs_fault_ratio_par(arch.as_ref(), 32, &[0.05], 8, 5, 1);
            measured.insert(arch.name().to_string(), points[0].waste_ratio);
        }
        assert!(measured["InfiniteHBD(K=3)"] < measured["NVL-576"]);
        assert!(measured["NVL-576"] < measured["NVL-72"] + 1e-9);
        assert!(measured["InfiniteHBD(K=2)"] < measured["TPUv4"]);
        assert!(measured["NVL-72"] < measured["TPUv4"]);
        assert!(measured["InfiniteHBD(K=3)"] < 0.01);
        assert!(measured["SiP-Ring"] > 0.2);
    }

    #[test]
    fn trace_replay_produces_one_point_per_sample() {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 720,
            duration: Seconds::from_days(30.0),
            steady_state_fault_ratio: 0.0117,
            mean_time_to_repair: Seconds::from_hours(12.0),
        })
        .unwrap();
        let trace = generator.generate(&mut StdRng::seed_from_u64(6));
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let points = waste_over_trace_par(&ring, &trace, 32, 50, 1);
        assert_eq!(points.len(), 50);
        let mean: f64 = points.iter().map(|p| p.waste_ratio).sum::<f64>() / 50.0;
        assert!(mean < 0.02, "K=2 mean waste over the trace: {mean}");
        let cdf = waste_cdf(&points);
        assert_eq!(cdf.len(), 50);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_trace_replay_matches_sequential() {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 720,
            duration: Seconds::from_days(20.0),
            steady_state_fault_ratio: 0.0117,
            mean_time_to_repair: Seconds::from_hours(12.0),
        })
        .unwrap();
        let trace = generator.generate(&mut StdRng::seed_from_u64(8));
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let seq = waste_over_trace_par(&ring, &trace, 32, 40, 1);
        let par = waste_over_trace_par(&ring, &trace, 32, 40, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_sweep_is_thread_count_invariant() {
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let ratios = [0.0, 0.04, 0.08];
        let one = waste_vs_fault_ratio_par(&ring, 32, &ratios, 6, 42, 1);
        let four = waste_vs_fault_ratio_par(&ring, 32, &ratios, 6, 42, 4);
        assert_eq!(one, four);
    }

    #[test]
    #[should_panic(expected = "trace covers")]
    fn undersized_trace_is_rejected() {
        let trace = fault::FaultTrace::new(10, Seconds(100.0), vec![]).unwrap();
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let _ = waste_over_trace_par(&ring, &trace, 32, 5, 1);
    }

    #[test]
    fn exact_fault_sets_use_requested_node_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = IidFaultModel::new(100, 0.1);
        let nodes = model.sample_exact(&mut rng);
        assert!(nodes.iter().all(|n: &NodeId| n.index() < 100));
    }
}
