//! High-level experiment facade: one entry point that wires a cluster, a fault
//! source and the comparison architectures together, for users who want the
//! paper's headline numbers without assembling the crates by hand.

use cluster::{fault_waiting_rate_par, max_job_over_trace_par, waste_over_trace_par};
use fault::{FaultTrace, GeneratorConfig, TraceGenerator};
use hbd_types::par::par_map;
use hbd_types::{ClusterConfig, HbdError, Result, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use topology::{paper_architectures, HbdArchitecture};

/// A cluster-level fault-resilience study comparing every architecture the
/// paper evaluates on the same synthetic fault trace.
#[derive(Debug, Clone)]
pub struct ClusterStudy {
    config: ClusterConfig,
    tp_size: usize,
    trace: FaultTrace,
}

/// Per-architecture results of a [`ClusterStudy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyReport {
    /// Architecture name (figure legend string).
    pub architecture: String,
    /// Mean GPU waste ratio over the trace.
    pub mean_waste_ratio: f64,
    /// Maximum GPU waste ratio over the trace.
    pub max_waste_ratio: f64,
    /// Worst-case supported job scale (GPUs) over the trace.
    pub min_supported_job: usize,
    /// Fraction of the trace during which a 90%-of-cluster job must wait.
    pub fault_waiting_rate_90pct: f64,
}

impl ClusterStudy {
    /// Creates a study on the paper's 2,880-GPU cluster with a synthetic trace
    /// calibrated to the production statistics, for the given TP size.
    pub fn paper_cluster(tp_size: usize, seed: u64) -> Result<Self> {
        Self::new(
            ClusterConfig::paper_2880_gpu(),
            tp_size,
            Seconds::from_days(348.0),
            seed,
        )
    }

    /// Creates a study on an arbitrary cluster.
    pub fn new(
        config: ClusterConfig,
        tp_size: usize,
        duration: Seconds,
        seed: u64,
    ) -> Result<Self> {
        config.validate()?;
        if tp_size == 0 || !tp_size.is_multiple_of(config.node_size.gpus()) {
            return Err(HbdError::invalid_config(format!(
                "TP size {tp_size} must be a positive multiple of the node size {}",
                config.node_size.gpus()
            )));
        }
        // Generate a node-level trace calibrated to the production statistics,
        // converted to this cluster's node size via the Appendix-A derivation.
        let fault_ratio = match config.node_size.gpus() {
            8 => 0.0233,
            _ => 0.0117,
        };
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: config.nodes,
            duration,
            steady_state_fault_ratio: fault_ratio,
            mean_time_to_repair: Seconds::from_hours(12.0),
        })?;
        let trace = generator.generate(&mut StdRng::seed_from_u64(seed));
        Ok(ClusterStudy {
            config,
            tp_size,
            trace,
        })
    }

    /// The underlying fault trace.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the study over every architecture of the paper's comparison, using
    /// `samples` evenly spaced instants of the trace.
    ///
    /// The per-architecture trace replays fan out over up to `threads` scoped
    /// threads. The replay is deterministic (no RNG), so the reports are
    /// identical for every thread count. Zero `samples` is an invalid
    /// configuration.
    pub fn run_par(&self, samples: usize, threads: usize) -> Result<Vec<StudyReport>> {
        if samples == 0 {
            return Err(HbdError::invalid_config(
                "a study needs at least one trace sample",
            ));
        }
        let archs = paper_architectures(
            self.config.nodes,
            self.config.node_size.gpus(),
            self.tp_size,
        )?;
        Ok(par_map(threads, &archs, |_, arch| {
            self.run_one(arch.as_ref(), samples)
        }))
    }

    fn run_one(&self, arch: &dyn HbdArchitecture, samples: usize) -> StudyReport {
        let points = waste_over_trace_par(arch, &self.trace, self.tp_size, samples, 1);
        let mean = points.iter().map(|p| p.waste_ratio).sum::<f64>() / points.len() as f64;
        let max = points.iter().map(|p| p.waste_ratio).fold(0.0, f64::max);
        let min_job = max_job_over_trace_par(arch, &self.trace, self.tp_size, samples, 1);
        let job_90 = (self.config.total_gpus() * 9 / 10 / self.tp_size) * self.tp_size;
        StudyReport {
            architecture: arch.name().to_string(),
            mean_waste_ratio: mean,
            max_waste_ratio: max,
            min_supported_job: min_job,
            fault_waiting_rate_90pct: fault_waiting_rate_par(
                arch,
                &self.trace,
                self.tp_size,
                job_90,
                samples,
                1,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::NodeSize;

    #[test]
    fn study_rejects_mismatched_tp_sizes() {
        assert!(ClusterStudy::paper_cluster(0, 1).is_err());
        assert!(ClusterStudy::paper_cluster(30, 1).is_err());
        assert!(ClusterStudy::paper_cluster(32, 1).is_ok());
    }

    #[test]
    fn study_reports_every_architecture_once() {
        let study = ClusterStudy::new(
            ClusterConfig::new(180, NodeSize::Four, 16, 4).unwrap(),
            32,
            Seconds::from_days(20.0),
            7,
        )
        .unwrap();
        let reports = study.run_par(30, 1).unwrap();
        assert_eq!(reports.len(), 8);
        let infinite = reports
            .iter()
            .find(|r| r.architecture == "InfiniteHBD(K=3)")
            .unwrap();
        let sip = reports
            .iter()
            .find(|r| r.architecture == "SiP-Ring")
            .unwrap();
        assert!(infinite.mean_waste_ratio <= sip.mean_waste_ratio);
        assert!(infinite.min_supported_job >= sip.min_supported_job);
        for report in &reports {
            assert!(report.mean_waste_ratio >= 0.0 && report.mean_waste_ratio <= 1.0);
            assert!(
                report.fault_waiting_rate_90pct >= 0.0 && report.fault_waiting_rate_90pct <= 1.0
            );
        }
    }

    #[test]
    fn parallel_study_matches_sequential() {
        let study = ClusterStudy::new(
            ClusterConfig::new(90, NodeSize::Four, 16, 4).unwrap(),
            16,
            Seconds::from_days(10.0),
            3,
        )
        .unwrap();
        assert_eq!(study.run_par(10, 1).unwrap(), study.run_par(10, 4).unwrap());
    }

    #[test]
    fn study_is_deterministic_for_a_seed() {
        let a = ClusterStudy::new(
            ClusterConfig::new(90, NodeSize::Four, 16, 4).unwrap(),
            16,
            Seconds::from_days(10.0),
            3,
        )
        .unwrap()
        .run_par(10, 1)
        .unwrap();
        let b = ClusterStudy::new(
            ClusterConfig::new(90, NodeSize::Four, 16, 4).unwrap(),
            16,
            Seconds::from_days(10.0),
            3,
        )
        .unwrap()
        .run_par(10, 1)
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_samples_is_an_error_not_a_panic() {
        let study = ClusterStudy::new(
            ClusterConfig::new(90, NodeSize::Four, 16, 4).unwrap(),
            16,
            Seconds::from_days(10.0),
            3,
        )
        .unwrap();
        assert!(study.run_par(0, 1).is_err());
    }
}
