//! Compute-time model: FLOPs accounting and GEMM-efficiency degradation.
//!
//! §6.3: "For TP, increasing parallelism splits GEMMs into smaller, less
//! efficient tasks, reducing hardware efficiency". We model the achievable
//! fraction of peak FLOPS as a base kernel efficiency multiplied by a penalty
//! that grows with the TP degree (each doubling of TP halves the GEMM `N`
//! dimension, pushing the kernels further from their roofline) and with very
//! small per-GPU workloads.

use hbd_types::GpuSpec;
use serde::{Deserialize, Serialize};

/// Compute-time model for one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Peak throughput actually reachable by dense transformer kernels on a
    /// healthy workload, as a fraction of the datasheet peak (flash-attention
    /// era kernels reach roughly 60 % end to end).
    pub base_efficiency: f64,
    /// Relative efficiency lost per doubling of the TP degree.
    pub tp_doubling_penalty: f64,
}

impl ComputeModel {
    /// Model calibrated so the Table-2 MFU values land in the published range
    /// (0.52 at 1k GPUs with TP-16 down to ~0.19 at 131k GPUs with TP-64).
    pub fn paper_calibrated() -> Self {
        ComputeModel {
            base_efficiency: 0.60,
            tp_doubling_penalty: 0.025,
        }
    }

    /// Fraction of peak FLOPS achieved by GEMMs sharded over a TP group of
    /// `tp` GPUs.
    fn gemm_efficiency(&self, tp: usize) -> f64 {
        assert!(tp >= 1, "TP degree must be at least 1");
        let doublings = (tp as f64).log2();
        (self.base_efficiency * (1.0 - self.tp_doubling_penalty * doublings)).max(0.05)
    }

    /// Time in seconds to execute `flops` floating-point operations on one GPU
    /// with the given TP degree.
    pub fn compute_time(&self, flops: f64, gpu: &GpuSpec, tp: usize) -> f64 {
        assert!(flops >= 0.0, "FLOPs cannot be negative");
        let effective = gpu.peak_tflops * 1e12 * self.gemm_efficiency(tp);
        flops / effective
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_decreases_with_tp() {
        let model = ComputeModel::paper_calibrated();
        let e1 = model.gemm_efficiency(1);
        let e8 = model.gemm_efficiency(8);
        let e64 = model.gemm_efficiency(64);
        assert!(e1 > e8 && e8 > e64);
        assert!((e1 - 0.60).abs() < 1e-9);
        assert!(e64 > 0.4, "TP-64 should still be usable: {e64}");
    }

    #[test]
    fn efficiency_never_collapses_to_zero() {
        let model = ComputeModel {
            base_efficiency: 0.6,
            tp_doubling_penalty: 0.2,
        };
        assert!(model.gemm_efficiency(1 << 20) >= 0.05);
    }

    #[test]
    fn compute_time_is_flops_over_effective_rate() {
        let model = ComputeModel::paper_calibrated();
        let gpu = GpuSpec::h100();
        let t = model.compute_time(989.0e12, &gpu, 1);
        // At 60% efficiency, 989 TFLOP of work takes 1/0.6 seconds.
        assert!((t - 1.0 / 0.6).abs() < 1e-9);
        // Larger TP -> slower per-FLOP execution.
        assert!(model.compute_time(1e15, &gpu, 64) > model.compute_time(1e15, &gpu, 8));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tp_is_rejected() {
        let _ = ComputeModel::paper_calibrated().gemm_efficiency(0);
    }
}
