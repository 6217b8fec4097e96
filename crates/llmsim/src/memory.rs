//! Per-GPU memory estimate used to reject infeasible parallelism strategies.
//!
//! The estimate follows the standard Megatron-style accounting with
//! distributed-optimizer (ZeRO-1) sharding of the optimizer states over the DP
//! dimension:
//!
//! * weights + gradients in BF16: `4 bytes / parameter` on the TP×PP shard,
//! * optimizer states (FP32 master weights + two Adam moments):
//!   `12 bytes / parameter` sharded over DP as well,
//! * activations per micro-batch per layer: `~34 · s · b · h` bytes with
//!   selective recomputation, of which `1/tp` lives on each TP rank.

use crate::model::ModelConfig;
use crate::parallelism::ParallelismStrategy;
use hbd_types::{Bytes, GpuSpec};

/// Memory model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Bytes per parameter held resident in BF16 (weights + gradients).
    pub bytes_per_param_resident: f64,
    /// Bytes per parameter of optimizer state, sharded over DP.
    pub bytes_per_param_optimizer: f64,
    /// Activation bytes per token per layer per hidden unit (the "34·s·b·h"
    /// coefficient with selective recomputation).
    pub activation_coefficient: f64,
    /// Fraction of HBM that must stay free for workspace / fragmentation.
    pub headroom: f64,
}

impl MemoryModel {
    /// Defaults matching Megatron-LM-style training with sequence parallelism,
    /// aggressive selective activation recomputation and a distributed
    /// optimizer. (The activation coefficient of 10 bytes per token per hidden
    /// unit sits between the selective-recompute value of ~34 and the
    /// full-recompute value of ~2 — the mix production 405B runs use.)
    pub fn megatron_defaults() -> Self {
        MemoryModel {
            bytes_per_param_resident: 4.0,
            bytes_per_param_optimizer: 12.0,
            activation_coefficient: 10.0,
            headroom: 0.10,
        }
    }

    /// Estimated per-GPU memory footprint of running `model` with `strategy`.
    ///
    /// MoE expert weights are additionally sharded over the EP dimension (each
    /// EP rank holds `experts / ep` experts).
    fn per_gpu_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        let shard = strategy.tp as f64 * strategy.pp as f64;
        let expert_params =
            model.moe_layers() as f64 * model.ffn_params_per_layer() * model.experts as f64;
        let non_expert_params = model.total_params() - expert_params;
        let params_per_gpu = (non_expert_params + expert_params / strategy.ep as f64) / shard;
        let resident = params_per_gpu * self.bytes_per_param_resident;
        let optimizer = params_per_gpu * self.bytes_per_param_optimizer / strategy.dp as f64;

        // Activations: each pipeline stage holds up to `pp` in-flight
        // micro-batches worth of activations for its layers (1F1B schedule).
        let layers_per_stage = model.layers as f64 / strategy.pp as f64;
        let tokens_per_microbatch = (strategy.micro_batch * model.seq_len) as f64;
        let activation_per_layer =
            self.activation_coefficient * tokens_per_microbatch * model.hidden as f64
                / strategy.tp as f64;
        let in_flight = strategy
            .pp
            .min(strategy.microbatches_per_replica(model.global_batch));
        let activations = activation_per_layer * layers_per_stage * in_flight as f64;

        Bytes(resident + optimizer + activations)
    }

    /// Whether the strategy fits in the GPU's HBM with the configured headroom.
    pub fn fits(&self, model: &ModelConfig, strategy: &ParallelismStrategy, gpu: &GpuSpec) -> bool {
        let budget = gpu.memory.value() * (1.0 - self.headroom);
        self.per_gpu_bytes(model, strategy).value() <= budget
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self::megatron_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_405b_does_not_fit_without_model_parallelism() {
        let memory = MemoryModel::megatron_defaults();
        let model = ModelConfig::llama31_405b();
        let gpu = GpuSpec::h100();
        // TP1 x PP1 would need >1.6 TB per GPU.
        let naive = ParallelismStrategy::new(1, 1, 1024);
        assert!(!memory.fits(&model, &naive, &gpu));
        // The paper's TP16 x PP8 point fits comfortably.
        let good = ParallelismStrategy::new(16, 8, 32);
        assert!(memory.fits(&model, &good, &gpu));
    }

    #[test]
    fn memory_decreases_with_model_parallelism() {
        let memory = MemoryModel::megatron_defaults();
        let model = ModelConfig::llama31_405b();
        let small = memory.per_gpu_bytes(&model, &ParallelismStrategy::new(8, 8, 16));
        let large = memory.per_gpu_bytes(&model, &ParallelismStrategy::new(32, 8, 4));
        assert!(large.value() < small.value());
    }

    #[test]
    fn optimizer_state_shrinks_with_dp() {
        let memory = MemoryModel::megatron_defaults();
        let model = ModelConfig::llama31_405b();
        let dp_small = memory.per_gpu_bytes(&model, &ParallelismStrategy::new(16, 8, 2));
        let dp_large = memory.per_gpu_bytes(&model, &ParallelismStrategy::new(16, 8, 64));
        assert!(dp_large.value() < dp_small.value());
    }

    #[test]
    fn moe_model_needs_more_model_parallelism_than_dense() {
        let memory = MemoryModel::megatron_defaults();
        let dense = ModelConfig::llama31_405b();
        let moe = ModelConfig::gpt_moe_1t();
        let strategy = ParallelismStrategy::new(16, 8, 8);
        assert!(
            memory.per_gpu_bytes(&moe, &strategy).value()
                > memory.per_gpu_bytes(&dense, &strategy).value()
        );
    }
}
