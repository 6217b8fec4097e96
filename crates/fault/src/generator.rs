//! Statistical fault-trace generator.
//!
//! The production trace the paper uses cannot be bundled with this repository,
//! so we generate traces from a per-node **renewal process**: each node
//! alternates between healthy periods (exponentially distributed with mean
//! `mttf`) and repair periods (exponentially distributed with mean `mttr`).
//! With independent nodes, the steady-state probability that a node is faulty
//! is `mttr / (mttf + mttr)`, which we calibrate to the published mean faulty
//! ratio of 2.33 % for 8-GPU nodes. The resulting instantaneous fault-ratio
//! distribution (binomial around the mean) reproduces the p50/p99 shape of
//! Fig 18 for a ~400-node cluster.

use crate::event::FaultEvent;
use crate::trace::FaultTrace;
use hbd_types::{HbdError, NodeId, Result, Seconds};
use rand::Rng;

/// Configuration of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of nodes in the generated trace.
    pub nodes: usize,
    /// Trace duration.
    pub duration: Seconds,
    /// Steady-state probability that a node is faulty (the paper's 8-GPU-node
    /// average is 2.33 %).
    pub steady_state_fault_ratio: f64,
    /// Mean time to repair a faulty node. The paper does not publish the exact
    /// value; 12 hours is representative of the repair turnaround of a
    /// production fleet and, combined with the steady-state ratio, fixes the
    /// failure rate.
    pub mean_time_to_repair: Seconds,
}

impl GeneratorConfig {
    /// The configuration matching the production trace's published statistics:
    /// ~400 8-GPU nodes (3K+ GPUs), 348 days, 2.33 % average faulty-node ratio.
    pub fn paper_8gpu_cluster() -> Self {
        GeneratorConfig {
            nodes: 400,
            duration: Seconds::from_days(348.0),
            steady_state_fault_ratio: 0.0233,
            mean_time_to_repair: Seconds::from_hours(12.0),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(HbdError::invalid_config(
                "generator needs at least one node",
            ));
        }
        // NaN fails both comparisons, so each check asks for what is valid.
        if !(self.duration.is_finite() && self.duration.value() > 0.0) {
            return Err(HbdError::invalid_config(format!(
                "duration must be finite and positive, got {}",
                self.duration
            )));
        }
        if !(0.0..1.0).contains(&self.steady_state_fault_ratio) {
            return Err(HbdError::invalid_config(
                "steady-state fault ratio must lie in [0, 1)",
            ));
        }
        if !(self.mean_time_to_repair.is_finite() && self.mean_time_to_repair.value() > 0.0) {
            return Err(HbdError::invalid_config(format!(
                "mean time to repair must be finite and positive, got {}",
                self.mean_time_to_repair
            )));
        }
        Ok(())
    }

    /// Mean time to failure implied by the steady-state ratio and the repair
    /// time: `ratio = mttr / (mttf + mttr)`.
    fn mean_time_to_failure(&self) -> Seconds {
        if self.steady_state_fault_ratio <= 0.0 {
            return Seconds(f64::INFINITY);
        }
        Seconds(
            self.mean_time_to_repair.value() * (1.0 - self.steady_state_fault_ratio)
                / self.steady_state_fault_ratio,
        )
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self::paper_8gpu_cluster()
    }
}

/// The trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: GeneratorConfig,
}

impl TraceGenerator {
    /// Creates a generator from a validated configuration.
    pub fn new(config: GeneratorConfig) -> Result<Self> {
        config.validate()?;
        Ok(TraceGenerator { config })
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates a fault trace using the supplied RNG. Deterministic for a
    /// given RNG seed.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultTrace {
        let mut events = Vec::new();
        self.renew(rng, |node, start, end| {
            events.push(FaultEvent::new(node, Seconds(start), Seconds(end)));
        });
        FaultTrace::new(self.config.nodes, self.config.duration, events)
            .expect("generated events are in range by construction")
    }

    /// Runs the per-node renewal process, the only code that draws from
    /// `rng`: calls `fault(node, start, end)` for every repair period, node by
    /// node in ascending order and, within a node, in time order (a period
    /// starts no earlier than the previous one ends). Every time lies in
    /// `[0, duration]`.
    pub(crate) fn renew<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mut fault: impl FnMut(NodeId, f64, f64),
    ) {
        let mttf = self.config.mean_time_to_failure().value();
        let mttr = self.config.mean_time_to_repair.value();
        let duration = self.config.duration.value();

        for node in (0..self.config.nodes).map(NodeId) {
            // Start each node in steady state: with probability `ratio` it is
            // already in a repair period at t = 0.
            let mut t = 0.0;
            if rng.gen::<f64>() < self.config.steady_state_fault_ratio {
                let remaining = exponential(rng, mttr);
                let end = (t + remaining).min(duration);
                fault(node, t, end);
                t = end;
            }
            loop {
                // Healthy period.
                t += exponential(rng, mttf);
                if t >= duration {
                    break;
                }
                // Repair period.
                let repair = exponential(rng, mttr);
                let end = (t + repair).min(duration);
                fault(node, t, end);
                t = end;
                if t >= duration {
                    break;
                }
            }
        }
    }
}

/// Draws from an exponential distribution with the given mean.
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_validation() {
        assert!(GeneratorConfig::paper_8gpu_cluster().validate().is_ok());
        let mut cfg = GeneratorConfig::paper_8gpu_cluster();
        cfg.nodes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = GeneratorConfig::paper_8gpu_cluster();
        cfg.steady_state_fault_ratio = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = GeneratorConfig::paper_8gpu_cluster();
        cfg.mean_time_to_repair = Seconds(0.0);
        assert!(cfg.validate().is_err());
        let mut cfg = GeneratorConfig::paper_8gpu_cluster();
        cfg.duration = Seconds(-1.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_finite_duration_or_repair_time_is_an_error_not_a_hang() {
        // A NaN or +inf duration never ends the renewal loop, and a NaN
        // repair time yields periods that `FaultTrace::new` rejects: both
        // must be caught before the first draw.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for config in [
                GeneratorConfig {
                    duration: Seconds(bad),
                    ..GeneratorConfig::paper_8gpu_cluster()
                },
                GeneratorConfig {
                    mean_time_to_repair: Seconds(bad),
                    ..GeneratorConfig::paper_8gpu_cluster()
                },
            ] {
                for err in [
                    config.validate().unwrap_err(),
                    TraceGenerator::new(config).unwrap_err(),
                    crate::generate_events(&config, 1).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, HbdError::InvalidConfig { .. }),
                        "{config:?}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn implied_mttf_matches_steady_state_ratio() {
        let cfg = GeneratorConfig::paper_8gpu_cluster();
        let mttf = cfg.mean_time_to_failure().value();
        let mttr = cfg.mean_time_to_repair.value();
        let ratio = mttr / (mttf + mttr);
        assert!((ratio - 0.0233).abs() < 1e-9);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 50,
            duration: Seconds::from_days(30.0),
            ..GeneratorConfig::paper_8gpu_cluster()
        })
        .unwrap();
        let a = generator.generate(&mut StdRng::seed_from_u64(1));
        let b = generator.generate(&mut StdRng::seed_from_u64(1));
        let c = generator.generate(&mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_trace_matches_target_mean_fault_ratio() {
        let generator = TraceGenerator::new(GeneratorConfig::paper_8gpu_cluster()).unwrap();
        let trace = generator.generate(&mut StdRng::seed_from_u64(7));
        let stats = TraceStats::compute(&trace, 2000);
        // The mean instantaneous fault ratio should land near 2.33%.
        assert!(
            (stats.mean_ratio - 0.0233).abs() < 0.006,
            "mean ratio {} too far from 2.33%",
            stats.mean_ratio
        );
        // And the p99 should be in the ballpark of the published 7.22%.
        assert!(
            stats.p99_ratio > 0.035 && stats.p99_ratio < 0.11,
            "p99 {}",
            stats.p99_ratio
        );
    }

    #[test]
    fn zero_fault_ratio_produces_an_empty_trace() {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 10,
            duration: Seconds::from_days(1.0),
            steady_state_fault_ratio: 0.0,
            mean_time_to_repair: Seconds::from_hours(1.0),
        })
        .unwrap();
        let trace = generator.generate(&mut StdRng::seed_from_u64(3));
        assert!(trace.is_empty());
    }
}
