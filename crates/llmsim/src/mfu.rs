//! End-to-end iteration-time and MFU estimation.
//!
//! The simulator combines the compute, communication, pipeline and
//! expert-imbalance models into a per-iteration time estimate:
//!
//! ```text
//! t_microbatch = compute + TP comm + EP comm + PP comm      (per stage)
//! iteration    = m · t_microbatch · (1 + bubble) + DP comm
//! MFU          = model FLOPs / (GPUs · peak · iteration)
//! ```
//!
//! which is the structure of every analytical LLM-training model in the
//! literature and reproduces the qualitative behaviour of the paper's in-house
//! simulator (Tables 2, 4 and 5).

use crate::comm::CommModel;
use crate::compute::ComputeModel;
use crate::memory::MemoryModel;
use crate::model::{ModelConfig, ModelKind};
use crate::moe::ExpertImbalance;
use crate::parallelism::ParallelismStrategy;
use crate::pipeline::PipelineModel;
use hbd_types::{GpuSpec, HbdError, Result, Seconds};
use serde::{Deserialize, Serialize};

/// The result of simulating one (model, strategy) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MfuEstimate {
    /// The strategy that was simulated.
    pub strategy: ParallelismStrategy,
    /// Estimated wall-clock time of one training iteration.
    pub iteration_time: Seconds,
    /// Model FLOPs Utilization.
    pub mfu: f64,
    /// Per-micro-batch, per-stage compute time.
    pub compute_time: Seconds,
    /// Per-micro-batch, per-stage non-overlapped TP communication time.
    pub tp_comm_time: Seconds,
    /// Per-micro-batch, per-stage non-overlapped EP communication time.
    pub ep_comm_time: Seconds,
    /// Per-iteration non-overlapped DP communication time.
    pub dp_comm_time: Seconds,
    /// Pipeline bubble ratio (bubble / useful time).
    pub bubble_ratio: f64,
}

/// The analytical training simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingSimulator {
    /// GPU specification.
    pub gpu: GpuSpec,
    /// Compute model.
    pub compute: ComputeModel,
    /// Communication model.
    pub comm: CommModel,
    /// Memory model (used to reject infeasible strategies).
    pub memory: MemoryModel,
    /// Expert-imbalance model (only affects MoE models run with EP > 1).
    pub imbalance: ExpertImbalance,
}

impl TrainingSimulator {
    /// Simulator with the paper's hardware and calibration.
    pub fn paper_defaults() -> Self {
        TrainingSimulator {
            gpu: GpuSpec::h100(),
            compute: ComputeModel::paper_calibrated(),
            comm: CommModel::paper_defaults(),
            memory: MemoryModel::megatron_defaults(),
            imbalance: ExpertImbalance::paper_production(),
        }
    }

    /// Simulates `model` trained with `strategy` on a cluster of exactly
    /// `strategy.gpus()` GPUs. Returns an error when the strategy is invalid or
    /// does not fit in GPU memory.
    pub fn estimate(
        &self,
        model: &ModelConfig,
        strategy: &ParallelismStrategy,
    ) -> Result<MfuEstimate> {
        strategy.validate(
            strategy.gpus(),
            model.layers,
            model.experts,
            model.global_batch,
        )?;
        if strategy.cp > 1 {
            // The compute/comm/memory models below do not split the sequence
            // dimension, so a cp > 1 estimate would be internally
            // inconsistent (halved FLOPs per GPU but full-sequence AllReduce
            // and activation-memory charges). CP plans are supported by the
            // DCN traffic lowering (`CommModel::dcn_pair_volumes`), not the
            // MFU estimator.
            return Err(HbdError::invalid_config(
                "the MFU estimator does not model CP/SP; use cp = 1 here",
            ));
        }
        if !self.memory.fits(model, strategy, &self.gpu) {
            return Err(HbdError::infeasible(format!(
                "{strategy} does not fit in {} of HBM",
                self.gpu.memory
            )));
        }

        let gpus = strategy.gpus() as f64;
        let microbatches = strategy.microbatches_per_replica(model.global_batch);
        let total_flops = model.flops_per_iteration();

        // --- Compute ------------------------------------------------------
        // FLOPs executed by one GPU for one micro-batch of one stage.
        let flops_per_mb_stage_gpu = total_flops / (microbatches as f64 * gpus);
        let mut compute_time =
            self.compute
                .compute_time(flops_per_mb_stage_gpu, &self.gpu, strategy.tp);
        // Expert imbalance stretches the MoE FFN share of the compute when the
        // experts are EP-parallelised.
        if model.kind == ModelKind::MoE && strategy.ep > 1 {
            let moe_ffn_share = (model.moe_layers() as f64
                * model.ffn_params_per_layer()
                * model.top_k.max(1) as f64)
                / model.activated_params();
            let stretch = self.imbalance.compute_stretch(strategy.ep);
            compute_time *= 1.0 + moe_ffn_share * (stretch - 1.0);
        }

        // --- Communication --------------------------------------------------
        let layers_per_stage = model.layers as f64 / strategy.pp as f64;
        let moe_layers_per_stage = model.moe_layers() as f64 / strategy.pp as f64;
        let tp_comm = self.comm.tp_time_per_layer(model, strategy) * layers_per_stage;
        let ep_comm = self.comm.ep_time_per_moe_layer(model, strategy) * moe_layers_per_stage;
        let pp_comm = self.comm.pp_time_per_microbatch(model, strategy);
        let dp_comm = self.comm.dp_time_per_iteration(model, strategy);

        // --- Assembly --------------------------------------------------------
        let t_microbatch = compute_time + tp_comm + ep_comm + pp_comm;
        let bubble_ratio = PipelineModel::bubble_ratio(strategy, microbatches);
        let iteration = microbatches as f64 * t_microbatch * (1.0 + bubble_ratio) + dp_comm;

        let mfu = total_flops / (gpus * self.gpu.peak_tflops * 1e12 * iteration);

        Ok(MfuEstimate {
            strategy: *strategy,
            iteration_time: Seconds(iteration),
            mfu,
            compute_time: Seconds(compute_time),
            tp_comm_time: Seconds(tp_comm),
            ep_comm_time: Seconds(ep_comm),
            dp_comm_time: Seconds(dp_comm),
            bubble_ratio,
        })
    }
}

impl Default for TrainingSimulator {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator() -> TrainingSimulator {
        TrainingSimulator::paper_defaults()
    }

    #[test]
    fn paper_1024_gpu_point_lands_near_published_mfu() {
        // Table 2, first row: 1,024 GPUs, TP16/PP4/DP16 -> MFU 0.5236.
        let estimate = simulator()
            .estimate(
                &ModelConfig::llama31_405b(),
                &ParallelismStrategy::new(16, 4, 16),
            )
            .unwrap();
        assert!(
            estimate.mfu > 0.40 && estimate.mfu < 0.62,
            "MFU {} should be near the published 0.52",
            estimate.mfu
        );
        assert!(estimate.iteration_time.value() > 0.0);
        assert!(estimate.bubble_ratio < 0.1);
    }

    #[test]
    fn mfu_is_bounded_by_one() {
        let estimate = simulator()
            .estimate(
                &ModelConfig::llama31_405b(),
                &ParallelismStrategy::new(16, 4, 16),
            )
            .unwrap();
        assert!(estimate.mfu > 0.0 && estimate.mfu < 1.0);
    }

    #[test]
    fn infeasible_memory_is_rejected() {
        let result = simulator().estimate(
            &ModelConfig::llama31_405b(),
            &ParallelismStrategy::new(1, 1, 1024),
        );
        assert!(matches!(result, Err(HbdError::Infeasible { .. })));
    }

    #[test]
    fn invalid_strategy_is_rejected() {
        // 126 layers cannot fill 16 x 16 = 256 pipeline chunks.
        let result = simulator().estimate(
            &ModelConfig::llama31_405b(),
            &ParallelismStrategy::new(4, 16, 16).with_vpp(16),
        );
        assert!(result.is_err());
    }

    #[test]
    fn cp_plans_are_rejected_until_the_models_split_the_sequence() {
        // The compute/comm/memory models do not thread CP through, so the
        // estimator refuses rather than returning inconsistent numbers.
        let result = simulator().estimate(
            &ModelConfig::llama31_405b(),
            &ParallelismStrategy::new(16, 4, 8).with_cp(2),
        );
        assert!(matches!(result, Err(HbdError::InvalidConfig { .. })));
    }

    #[test]
    fn small_tp_collapses_at_large_scale() {
        // 131,072 GPUs: the TP-8 strategy is crushed by the pipeline bubble
        // (only 2 micro-batches per replica), while TP-64 stays usable - the
        // core claim of Table 2 (3.37x).
        let sim = simulator();
        let model = ModelConfig::llama31_405b();
        let tp8 = sim
            .estimate(&model, &ParallelismStrategy::new(8, 16, 1024))
            .unwrap();
        let tp64 = sim
            .estimate(&model, &ParallelismStrategy::new(64, 16, 128))
            .unwrap();
        assert!(
            tp64.mfu > 2.0 * tp8.mfu,
            "TP-64 ({}) should be at least 2x TP-8 ({}) at 131k GPUs",
            tp64.mfu,
            tp8.mfu
        );
        assert!(tp8.bubble_ratio > 5.0);
    }

    #[test]
    fn moe_with_ep_suffers_from_imbalance() {
        let mut sim = simulator();
        let model = ModelConfig::gpt_moe_1t();
        let ep_strategy = ParallelismStrategy::new(8, 8, 16).with_ep(8);
        sim.imbalance = ExpertImbalance::default();
        let balanced = sim.estimate(&model, &ep_strategy).unwrap();
        sim.imbalance = ExpertImbalance::new(0.3);
        let skewed = sim.estimate(&model, &ep_strategy).unwrap();
        assert!(skewed.mfu < balanced.mfu);
        // TP sharding is immune to the imbalance.
        let tp_strategy = ParallelismStrategy::new(16, 8, 8);
        sim.imbalance = ExpertImbalance::default();
        let tp_balanced = sim.estimate(&model, &tp_strategy).unwrap();
        sim.imbalance = ExpertImbalance::new(0.3);
        let tp_skewed = sim.estimate(&model, &tp_strategy).unwrap();
        assert!((tp_balanced.mfu - tp_skewed.mfu).abs() < 1e-12);
    }

    #[test]
    fn estimate_breakdown_components_are_consistent() {
        let estimate = simulator()
            .estimate(
                &ModelConfig::llama31_405b(),
                &ParallelismStrategy::new(16, 4, 16),
            )
            .unwrap();
        assert!(estimate.compute_time.value() > 0.0);
        assert!(estimate.tp_comm_time.value() > 0.0);
        assert_eq!(estimate.ep_comm_time.value(), 0.0);
        assert!(estimate.dp_comm_time.value() >= 0.0);
    }
}
