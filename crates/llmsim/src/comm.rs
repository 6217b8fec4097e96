//! Communication volumes and timing of the parallelism dimensions.
//!
//! Table 3 of the paper gives the per-MoE-layer volumes:
//!
//! | Parallelism | Operation | Traffic |
//! |---|---|---|
//! | TP | AllReduce | `2·b·s·h·(n−1)/n` |
//! | EP | AllToAll  | `2·b·s·h·(n−1)/n · k/n` |
//!
//! (in activations per direction; we convert to bytes with 2-byte elements).
//! On top of those, a transformer layer runs **two** TP AllReduces in the
//! forward pass and two in the backward pass (attention output and FFN output),
//! DP runs one gradient AllReduce per iteration, and PP exchanges boundary
//! activations per micro-batch.

use crate::model::ModelConfig;
use crate::parallelism::ParallelismStrategy;
use collective::{AlphaBeta, RingAllReduce};
use hbd_types::Bytes;

/// Bytes per activation / weight element (BF16).
pub const BYTES_PER_ELEMENT: f64 = 2.0;

/// Per-iteration, per-neighbour-pair DCN volumes of a parallelism plan — the
/// analytic quantities the `dcn` crate's traffic lowering turns into flows.
///
/// Every field is **bytes per direction between one adjacent rank pair per
/// iteration**; multiplying by the pair count and the two directions recovers
/// the total volume of the dimension (the invariant the lowering's property
/// tests assert).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcnPairVolumes {
    /// Gradient Ring-AllReduce volume between DP-adjacent ranks:
    /// `2·(dp−1)/dp` of the per-rank gradient shard.
    pub dp_pair_bytes: Bytes,
    /// Boundary activations (forward) / activation gradients (backward)
    /// between PP-adjacent stages, summed over the iteration's micro-batches.
    pub pp_pair_bytes: Bytes,
    /// Ring-Attention K/V exchange between CP-adjacent ranks (forward
    /// All-Gather plus backward Reduce-Scatter of the same volume), summed
    /// over the stage's layers and the iteration's micro-batches.
    pub cp_pair_bytes: Bytes,
    /// Gradient Ring-AllReduce volume between CP-adjacent ranks: CP ranks
    /// replicate the weights but compute partial gradients over different
    /// sequence slices, so the end-of-iteration sync also rings over CP
    /// (`2·(cp−1)/cp` of the per-rank gradient shard).
    pub cp_grad_pair_bytes: Bytes,
}

/// Communication-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// The HBD link serving TP (and EP) traffic.
    pub hbd: AlphaBeta,
    /// The DCN link serving DP / PP traffic.
    pub dcn: AlphaBeta,
    /// Fraction of the DP gradient AllReduce that overlaps with the backward
    /// pass (gradient bucketing overlaps most of it in practice).
    pub dp_overlap: f64,
    /// Fraction of TP collectives hidden behind compute (async TP / sequence
    /// parallel tricks hide little for large TP, so the default is small).
    pub tp_overlap: f64,
}

impl CommModel {
    /// Defaults matching the paper's hardware: 800 GBps HBD per GPU, 50 GBps
    /// DCN per GPU, 90 % DP overlap, 20 % TP overlap.
    pub fn paper_defaults() -> Self {
        CommModel {
            hbd: AlphaBeta::hbd_default(),
            dcn: AlphaBeta::dcn_default(),
            dp_overlap: 0.9,
            tp_overlap: 0.2,
        }
    }

    /// Table-3 TP AllReduce volume for one collective on a micro-batch:
    /// `2·b·s·h·(n−1)/n` elements, converted to bytes.
    pub fn tp_allreduce_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.tp <= 1 {
            return Bytes(0.0);
        }
        let b = strategy.micro_batch as f64;
        let s = model.seq_len as f64;
        let h = model.hidden as f64;
        let n = strategy.tp as f64;
        Bytes(2.0 * b * s * h * (n - 1.0) / n * BYTES_PER_ELEMENT)
    }

    /// Table-3 EP AllToAll volume for one MoE layer on a micro-batch.
    pub fn ep_alltoall_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.ep <= 1 {
            return Bytes(0.0);
        }
        let b = strategy.micro_batch as f64;
        let s = model.seq_len as f64;
        let h = model.hidden as f64;
        let n = strategy.ep as f64;
        let k = model.top_k as f64;
        Bytes(2.0 * b * s * h * (n - 1.0) / n * (k / n) * BYTES_PER_ELEMENT)
    }

    /// Non-overlapped TP communication time per layer per micro-batch
    /// (forward + backward: 4 AllReduces).
    pub fn tp_time_per_layer(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> f64 {
        if strategy.tp <= 1 {
            return 0.0;
        }
        let ring = RingAllReduce::new(strategy.tp);
        // The AllReduce input is the activation tensor b·s·h; the ring moves
        // 2·(n−1)/n of it, which is exactly the Table-3 volume.
        let input = Bytes(
            strategy.micro_batch as f64
                * model.seq_len as f64
                * model.hidden as f64
                * BYTES_PER_ELEMENT,
        );
        let per_allreduce = ring.cost(input, &self.hbd).time.value();
        4.0 * per_allreduce * (1.0 - self.tp_overlap)
    }

    /// Non-overlapped EP communication time per MoE layer per micro-batch
    /// (forward + backward: 2 AllToAll pairs = 4 AllToAlls), assuming the
    /// AllToAll runs at the HBD line rate.
    pub fn ep_time_per_moe_layer(
        &self,
        model: &ModelConfig,
        strategy: &ParallelismStrategy,
    ) -> f64 {
        if strategy.ep <= 1 {
            return 0.0;
        }
        let volume = self.ep_alltoall_bytes(model, strategy);
        let per_alltoall = self.hbd.message_time(volume).value();
        4.0 * per_alltoall
    }

    /// Pipeline boundary-activation transfer time per micro-batch (forward +
    /// backward), over the DCN.
    pub fn pp_time_per_microbatch(
        &self,
        model: &ModelConfig,
        strategy: &ParallelismStrategy,
    ) -> f64 {
        if strategy.pp <= 1 {
            return 0.0;
        }
        let activation = Bytes(
            strategy.micro_batch as f64
                * model.seq_len as f64
                * model.hidden as f64
                * BYTES_PER_ELEMENT,
        );
        2.0 * self.dcn.message_time(activation).value()
    }

    /// Non-overlapped DP gradient-AllReduce time per iteration.
    pub fn dp_time_per_iteration(
        &self,
        model: &ModelConfig,
        strategy: &ParallelismStrategy,
    ) -> f64 {
        if strategy.dp <= 1 {
            return 0.0;
        }
        let ring = RingAllReduce::new(strategy.dp);
        let grad_bytes = Bytes(
            model.total_params() / (strategy.tp as f64 * strategy.pp as f64) * BYTES_PER_ELEMENT,
        );
        ring.cost(grad_bytes, &self.dcn).time.value() * (1.0 - self.dp_overlap)
    }

    /// Per-direction bytes each DP-adjacent rank pair carries per iteration:
    /// the Ring-AllReduce link volume `2·(dp−1)/dp · shard` of the per-rank
    /// gradient shard.
    pub fn dp_pair_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.dp <= 1 {
            return Bytes(0.0);
        }
        let n = strategy.dp as f64;
        Bytes(2.0 * (n - 1.0) / n * self.gradient_shard_bytes(model, strategy))
    }

    /// Per-direction bytes each CP-adjacent rank pair carries for the
    /// gradient sync per iteration. CP replicates the weights, which is
    /// exactly why the partial gradients (each rank saw only its sequence
    /// slice) must be reduced across CP too — a second Ring-AllReduce of the
    /// same shard, `2·(cp−1)/cp · shard` per link.
    pub fn cp_grad_pair_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.cp <= 1 {
            return Bytes(0.0);
        }
        let n = strategy.cp as f64;
        Bytes(2.0 * (n - 1.0) / n * self.gradient_shard_bytes(model, strategy))
    }

    /// The gradient shard one rank holds after TP/PP sharding (BF16).
    fn gradient_shard_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> f64 {
        model.total_params() / (strategy.tp as f64 * strategy.pp as f64) * BYTES_PER_ELEMENT
    }

    /// Per-direction bytes each PP-adjacent stage pair carries per iteration:
    /// one boundary activation per micro-batch forward (and the matching
    /// gradient backward, which is the opposite direction of the same size).
    /// CP splits the sequence dimension, so each CP rank ships `1/cp` of the
    /// boundary tensor.
    pub fn pp_pair_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.pp <= 1 {
            return Bytes(0.0);
        }
        let microbatches = strategy.microbatches_per_replica(model.global_batch) as f64;
        let activation = strategy.micro_batch as f64
            * model.seq_len as f64
            * model.hidden as f64
            * BYTES_PER_ELEMENT
            / strategy.cp as f64;
        Bytes(microbatches * activation)
    }

    /// Per-direction bytes each CP-adjacent rank pair carries per iteration:
    /// per layer and micro-batch, Ring-Attention All-Gathers the K/V shards
    /// (`(cp−1)` shard-sized steps per link) and Reduce-Scatters the matching
    /// gradients backward, over the `layers/pp` layers hosted by the stage.
    pub fn cp_pair_bytes(&self, model: &ModelConfig, strategy: &ParallelismStrategy) -> Bytes {
        if strategy.cp <= 1 {
            return Bytes(0.0);
        }
        let n = strategy.cp as f64;
        let microbatches = strategy.microbatches_per_replica(model.global_batch) as f64;
        let layers_per_stage = model.layers as f64 / strategy.pp as f64;
        // K and V shards of the sequence slice held by one CP rank.
        let kv_shard = 2.0
            * strategy.micro_batch as f64
            * (model.seq_len as f64 / n)
            * model.hidden as f64
            * BYTES_PER_ELEMENT;
        Bytes(microbatches * layers_per_stage * 2.0 * (n - 1.0) * kv_shard)
    }

    /// All three per-pair DCN volumes of the plan at once.
    pub fn dcn_pair_volumes(
        &self,
        model: &ModelConfig,
        strategy: &ParallelismStrategy,
    ) -> DcnPairVolumes {
        DcnPairVolumes {
            dp_pair_bytes: self.dp_pair_bytes(model, strategy),
            pp_pair_bytes: self.pp_pair_bytes(model, strategy),
            cp_pair_bytes: self.cp_pair_bytes(model, strategy),
            cp_grad_pair_bytes: self.cp_grad_pair_bytes(model, strategy),
        }
    }
}

impl Default for CommModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama() -> ModelConfig {
        ModelConfig::llama31_405b()
    }

    #[test]
    fn table3_tp_volume_formula() {
        let comm = CommModel::paper_defaults();
        let strategy = ParallelismStrategy::new(16, 8, 8);
        let bytes = comm.tp_allreduce_bytes(&llama(), &strategy);
        let expected = 2.0 * 1.0 * 8192.0 * 16384.0 * 15.0 / 16.0 * 2.0;
        assert!((bytes.value() - expected).abs() < 1.0);
        // TP = 1 communicates nothing.
        assert_eq!(
            comm.tp_allreduce_bytes(&llama(), &ParallelismStrategy::new(1, 8, 128))
                .value(),
            0.0
        );
    }

    #[test]
    fn table3_ep_volume_is_tp_volume_scaled_by_k_over_n() {
        let comm = CommModel::paper_defaults();
        let moe = ModelConfig::gpt_moe_1t();
        let tp_strategy = ParallelismStrategy::new(8, 8, 16);
        let ep_strategy = ParallelismStrategy::new(1, 8, 128).with_ep(8);
        let tp_equiv = {
            // Evaluate the TP formula at n = 8 for comparison.
            let b = 1.0;
            let s = moe.seq_len as f64;
            let h = moe.hidden as f64;
            2.0 * b * s * h * 7.0 / 8.0 * 2.0
        };
        let ep = comm.ep_alltoall_bytes(&moe, &ep_strategy).value();
        assert!((ep - tp_equiv * 2.0 / 8.0).abs() < 1.0);
        // EP is cheaper than TP at the same degree when k < n (the paper's
        // observation motivating Table 3).
        let tp = comm.tp_allreduce_bytes(&moe, &tp_strategy).value();
        assert!(ep < tp);
    }

    #[test]
    fn tp_time_decreases_with_overlap_and_increases_with_tp() {
        let mut comm = CommModel::paper_defaults();
        let strategy16 = ParallelismStrategy::new(16, 8, 8);
        let strategy64 = ParallelismStrategy::new(64, 2, 8);
        let t16 = comm.tp_time_per_layer(&llama(), &strategy16);
        let t64 = comm.tp_time_per_layer(&llama(), &strategy64);
        assert!(t64 > t16 * 0.9, "larger TP should not be cheaper");
        comm.tp_overlap = 0.9;
        assert!(comm.tp_time_per_layer(&llama(), &strategy16) < t16);
        assert_eq!(
            comm.tp_time_per_layer(&llama(), &ParallelismStrategy::new(1, 1, 1024)),
            0.0
        );
    }

    #[test]
    fn dp_time_shrinks_with_model_parallel_sharding() {
        let comm = CommModel::paper_defaults();
        let narrow = ParallelismStrategy::new(8, 4, 32);
        let wide = ParallelismStrategy::new(64, 4, 4);
        let t_narrow = comm.dp_time_per_iteration(&llama(), &narrow);
        let t_wide = comm.dp_time_per_iteration(&llama(), &wide);
        assert!(t_wide < t_narrow);
        assert_eq!(
            comm.dp_time_per_iteration(&llama(), &ParallelismStrategy::new(64, 16, 1)),
            0.0
        );
    }

    #[test]
    fn dcn_pair_volumes_follow_the_dimension_formulas() {
        let comm = CommModel::paper_defaults();
        let model = llama();
        let strategy = ParallelismStrategy::new(16, 4, 8).with_cp(2);
        let volumes = comm.dcn_pair_volumes(&model, &strategy);

        // DP: 2·(dp−1)/dp of the gradient shard (params / (tp·pp), BF16).
        let shard = model.total_params() / (16.0 * 4.0) * BYTES_PER_ELEMENT;
        assert!((volumes.dp_pair_bytes.value() - 2.0 * 7.0 / 8.0 * shard).abs() < 1.0);

        // PP: microbatches × boundary activation, halved by CP = 2.
        let microbatches = (model.global_batch / 8) as f64;
        let activation = model.seq_len as f64 * model.hidden as f64 * BYTES_PER_ELEMENT / 2.0;
        assert!((volumes.pp_pair_bytes.value() - microbatches * activation).abs() < 1.0);

        // CP: microbatches × layers-per-stage × 2 passes × (cp−1) × K/V shard.
        let kv_shard = 2.0 * (model.seq_len as f64 / 2.0) * model.hidden as f64 * BYTES_PER_ELEMENT;
        let expected = microbatches * (model.layers as f64 / 4.0) * 2.0 * 1.0 * kv_shard;
        assert!((volumes.cp_pair_bytes.value() - expected).abs() < 1.0);

        // CP gradient sync: the same ring formula as DP, over the CP extent.
        assert!((volumes.cp_grad_pair_bytes.value() - 2.0 * 0.5 * shard).abs() < 1.0);

        // Degenerate dimensions communicate nothing.
        let flat = ParallelismStrategy::new(16, 1, 1).with_cp(1);
        let zero = comm.dcn_pair_volumes(&model, &flat);
        assert_eq!(zero.dp_pair_bytes.value(), 0.0);
        assert_eq!(zero.pp_pair_bytes.value(), 0.0);
        assert_eq!(zero.cp_pair_bytes.value(), 0.0);
        assert_eq!(zero.cp_grad_pair_bytes.value(), 0.0);

        // dp = 1 with cp > 1 still syncs gradients — over the CP ring.
        let cp_only = ParallelismStrategy::new(16, 4, 1).with_cp(2);
        let volumes = comm.dcn_pair_volumes(&model, &cp_only);
        assert_eq!(volumes.dp_pair_bytes.value(), 0.0);
        assert!(volumes.cp_grad_pair_bytes.value() > 0.0);
    }

    #[test]
    fn pp_time_is_zero_without_pipeline() {
        let comm = CommModel::paper_defaults();
        assert_eq!(
            comm.pp_time_per_microbatch(&llama(), &ParallelismStrategy::new(8, 1, 128)),
            0.0
        );
        assert!(comm.pp_time_per_microbatch(&llama(), &ParallelismStrategy::new(8, 16, 8)) > 0.0);
    }
}
