//! Job-level metrics: maximum supported job scale (Fig 15) and job
//! fault-waiting rate (Figs 16 / 23).

use fault::FaultTrace;
use hbd_types::par::par_map;
use hbd_types::{NodeId, Seconds};
use topology::{FaultSet, HbdArchitecture};

/// The largest job (in GPUs, a multiple of the TP size) that the architecture
/// can still run under the given fault set.
pub fn max_supported_job(arch: &dyn HbdArchitecture, faults: &FaultSet, tp_size: usize) -> usize {
    arch.utilization(faults, tp_size).tp_groups(tp_size) * tp_size
}

/// The worst-case (minimum) job scale supported at any sampled instant of a
/// fault trace — the quantity plotted in Fig 15 ("maximal job scale supported").
///
/// Sampled instants are independent, so they fan out over up to `threads`
/// scoped threads with a result identical for any thread count.
pub fn max_job_over_trace_par(
    arch: &dyn HbdArchitecture,
    trace: &FaultTrace,
    tp_size: usize,
    samples: usize,
    threads: usize,
) -> usize {
    let instants: Vec<(Seconds, Vec<NodeId>)> = trace.sample(samples);
    par_map(threads, &instants, |_, (_, faulty)| {
        let faults = FaultSet::from_nodes_clamped(arch.nodes(), faulty.iter().copied());
        max_supported_job(arch, &faults, tp_size)
    })
    .into_iter()
    .min()
    .unwrap_or(0)
}

/// Fraction of the trace during which a job of `job_gpus` GPUs cannot run
/// because the usable capacity has dropped below the job size — the
/// fault-waiting rate of Fig 16. The sampled instants fan out over up to
/// `threads` scoped threads.
pub fn fault_waiting_rate_par(
    arch: &dyn HbdArchitecture,
    trace: &FaultTrace,
    tp_size: usize,
    job_gpus: usize,
    samples: usize,
    threads: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let instants: Vec<(Seconds, Vec<NodeId>)> = trace.sample(samples);
    let waiting = par_map(threads, &instants, |_, (_, faulty)| {
        let faults = FaultSet::from_nodes_clamped(arch.nodes(), faulty.iter().copied());
        max_supported_job(arch, &faults, tp_size) < job_gpus
    })
    .into_iter()
    .filter(|&waits| waits)
    .count();
    waiting as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::{FaultEvent, GeneratorConfig, TraceGenerator};
    use hbd_types::{NodeId, Seconds};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topology::{KHopRing, Nvl, NvlVariant, SipRing};

    fn trace_720() -> FaultTrace {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 720,
            duration: Seconds::from_days(60.0),
            steady_state_fault_ratio: 0.0117,
            mean_time_to_repair: Seconds::from_hours(12.0),
        })
        .unwrap();
        generator.generate(&mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn healthy_cluster_supports_the_full_job() {
        let ring = KHopRing::new(720, 4, 3).unwrap();
        assert_eq!(max_supported_job(&ring, &FaultSet::new(), 32), 2880);
        let nvl36 = Nvl::new(720, 4, NvlVariant::Nvl36);
        // NVL-36 fragments at TP-32: 1 group of 32 per 36-GPU domain.
        assert_eq!(max_supported_job(&nvl36, &FaultSet::new(), 32), 80 * 32);
    }

    #[test]
    fn max_job_over_trace_reflects_the_worst_instant() {
        let trace = trace_720();
        let ring = KHopRing::new(720, 4, 3).unwrap();
        let worst = max_job_over_trace_par(&ring, &trace, 32, 100, 1);
        assert!(worst <= 2880);
        assert!(
            worst >= 2880 - 64 * 4,
            "InfiniteHBD should lose little capacity: {worst}"
        );
        let sip = SipRing::new(720, 4, 32).unwrap();
        let sip_worst = max_job_over_trace_par(&sip, &trace, 32, 100, 1);
        assert!(sip_worst < worst);
    }

    #[test]
    fn fault_waiting_rate_grows_with_job_size() {
        let trace = trace_720();
        let ring = KHopRing::new(720, 4, 2).unwrap();
        let small = fault_waiting_rate_par(&ring, &trace, 32, 2048, 200, 1);
        let large = fault_waiting_rate_par(&ring, &trace, 32, 2880, 200, 1);
        assert!(small <= large);
        assert!(
            small < 0.05,
            "a 2,048-GPU job should almost never wait: {small}"
        );
    }

    #[test]
    fn weaker_architectures_wait_longer() {
        let trace = trace_720();
        let job = 2688; // 84 groups of TP-32.
        let ring = KHopRing::new(720, 4, 3).unwrap();
        let sip = SipRing::new(720, 4, 32).unwrap();
        let ring_wait = fault_waiting_rate_par(&ring, &trace, 32, job, 150, 1);
        let sip_wait = fault_waiting_rate_par(&sip, &trace, 32, job, 150, 1);
        assert!(ring_wait <= sip_wait);
    }

    #[test]
    fn parallel_job_metrics_match_sequential() {
        let trace = trace_720();
        let ring = KHopRing::new(720, 4, 2).unwrap();
        assert_eq!(
            max_job_over_trace_par(&ring, &trace, 32, 80, 1),
            max_job_over_trace_par(&ring, &trace, 32, 80, 4)
        );
        assert_eq!(
            fault_waiting_rate_par(&ring, &trace, 32, 2688, 80, 1),
            fault_waiting_rate_par(&ring, &trace, 32, 2688, 80, 4)
        );
        assert_eq!(
            max_job_over_trace_par(&ring, &trace, 32, 80, 1),
            max_job_over_trace_par(&ring, &trace, 32, 80, 8)
        );
    }

    #[test]
    fn fully_faulty_interval_counts_as_waiting() {
        let trace = FaultTrace::new(
            4,
            Seconds(100.0),
            (0..4)
                .map(|n| FaultEvent::new(NodeId(n), Seconds(0.0), Seconds(100.0)))
                .collect(),
        )
        .unwrap();
        let ring = KHopRing::new(4, 4, 2).unwrap();
        assert_eq!(fault_waiting_rate_par(&ring, &trace, 8, 8, 10, 1), 1.0);
    }
}
