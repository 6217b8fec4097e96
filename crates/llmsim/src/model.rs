//! Transformer / Mixture-of-Experts model descriptions.
//!
//! Two presets match the models the paper evaluates:
//!
//! * **Llama 3.1-405B**, simplified from GQA to MHA as the paper does
//!   (footnote 5) so that attention shards cleanly across large TP groups;
//! * **GPT-MoE 1.1T**, the Appendix-B configuration (192 layers, hidden 12288,
//!   inner 49152, 8 experts, top-2, MoE on every second layer).

use serde::{Deserialize, Serialize};

/// Dense transformer or Mixture-of-Experts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Standard dense decoder-only transformer.
    Dense,
    /// Mixture-of-Experts: a fraction of layers replace the FFN with routed
    /// experts.
    MoE,
}

/// Architecture hyper-parameters of the trained model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Dense or MoE.
    pub kind: ModelKind,
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// FFN inner dimension.
    pub inner: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Training sequence length.
    pub seq_len: usize,
    /// Global batch size in sequences.
    pub global_batch: usize,
    /// Number of experts (1 for dense models).
    pub experts: usize,
    /// Top-K experts activated per token (0 for dense models).
    pub top_k: usize,
    /// Fraction of layers that are MoE layers (0.0 for dense models).
    pub moe_layer_ratio: f64,
    /// Weight matrices per FFN block: 2 for the classic GELU MLP (GPT-style),
    /// 3 for gated SwiGLU MLPs (Llama-style).
    pub ffn_matrices: usize,
}

impl ModelConfig {
    /// Llama 3.1-405B with the GQA→MHA simplification the paper applies, using
    /// the paper's simulation batch size of 2048 sequences of 8192 tokens.
    pub fn llama31_405b() -> Self {
        ModelConfig {
            name: "Llama 3.1-405B".to_string(),
            kind: ModelKind::Dense,
            layers: 126,
            hidden: 16384,
            inner: 53248,
            heads: 128,
            vocab: 128_256,
            seq_len: 8192,
            global_batch: 2048,
            experts: 1,
            top_k: 0,
            moe_layer_ratio: 0.0,
            ffn_matrices: 3,
        }
    }

    /// The GPT-MoE model of Appendix B (~1.1T parameters).
    pub fn gpt_moe_1t() -> Self {
        ModelConfig {
            name: "GPT-MoE 1.1T".to_string(),
            kind: ModelKind::MoE,
            layers: 192,
            hidden: 12288,
            inner: 49152,
            heads: 128,
            vocab: 64_000,
            seq_len: 2048,
            global_batch: 1536,
            experts: 8,
            top_k: 2,
            moe_layer_ratio: 0.5,
            ffn_matrices: 2,
        }
    }

    /// Attention parameters per layer: Q, K, V and output projections.
    fn attention_params_per_layer(&self) -> f64 {
        4.0 * (self.hidden as f64) * (self.hidden as f64)
    }

    /// FFN parameters per dense layer (`ffn_matrices` projections of
    /// `hidden × inner` each).
    pub fn ffn_params_per_layer(&self) -> f64 {
        self.ffn_matrices as f64 * (self.hidden as f64) * (self.inner as f64)
    }

    /// Number of MoE layers.
    pub fn moe_layers(&self) -> usize {
        (self.layers as f64 * self.moe_layer_ratio).round() as usize
    }

    /// Number of dense (non-MoE) layers.
    fn dense_layers(&self) -> usize {
        self.layers - self.moe_layers()
    }

    /// Total parameter count, counting every expert.
    pub fn total_params(&self) -> f64 {
        let attention = self.layers as f64 * self.attention_params_per_layer();
        let dense_ffn = self.dense_layers() as f64 * self.ffn_params_per_layer();
        let moe_ffn = self.moe_layers() as f64 * self.ffn_params_per_layer() * self.experts as f64;
        let embedding = 2.0 * (self.vocab as f64) * (self.hidden as f64);
        attention + dense_ffn + moe_ffn + embedding
    }

    /// Parameters *activated* per token (experts beyond the routed top-K do not
    /// contribute FLOPs).
    pub fn activated_params(&self) -> f64 {
        let attention = self.layers as f64 * self.attention_params_per_layer();
        let dense_ffn = self.dense_layers() as f64 * self.ffn_params_per_layer();
        let moe_ffn =
            self.moe_layers() as f64 * self.ffn_params_per_layer() * (self.top_k.max(1) as f64);
        let embedding = 2.0 * (self.vocab as f64) * (self.hidden as f64);
        attention + dense_ffn + moe_ffn + embedding
    }

    /// Tokens processed per training iteration.
    fn tokens_per_iteration(&self) -> f64 {
        (self.global_batch * self.seq_len) as f64
    }

    /// Model FLOPs per iteration: the standard `6 · N_activated · tokens`
    /// estimate (fwd + bwd) plus the attention-score term
    /// `12 · L · b · s² · h` that matters at long sequence lengths.
    pub fn flops_per_iteration(&self) -> f64 {
        let dense_term = 6.0 * self.activated_params() * self.tokens_per_iteration();
        let attn_scores = 12.0
            * self.layers as f64
            * self.global_batch as f64
            * (self.seq_len as f64)
            * (self.seq_len as f64)
            * self.hidden as f64;
        dense_term + attn_scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_405b_has_roughly_405b_parameters() {
        // The paper simplifies GQA to MHA (footnote 5), which inflates the
        // attention parameters relative to the released 405B checkpoint, so we
        // accept a window around and slightly above 405B.
        let model = ModelConfig::llama31_405b();
        let params = model.total_params();
        assert!(
            params > 380e9 && params < 490e9,
            "expected ~405B (MHA-inflated) parameters, got {params:.3e}"
        );
        assert_eq!(model.kind, ModelKind::Dense);
        assert_eq!(model.moe_layers(), 0);
        assert_eq!(model.dense_layers(), 126);
        // Dense model: activated == total.
        assert_eq!(model.activated_params(), model.total_params());
    }

    #[test]
    fn gpt_moe_has_roughly_one_trillion_parameters() {
        let model = ModelConfig::gpt_moe_1t();
        let params = model.total_params();
        assert!(
            params > 0.9e12 && params < 1.4e12,
            "expected ~1.1T parameters, got {params:.3e}"
        );
        assert_eq!(model.moe_layers(), 96);
        assert_eq!(model.dense_layers(), 96);
        // Activated parameters are much smaller than total for top-2 of 8.
        assert!(model.activated_params() < 0.55 * params);
    }

    #[test]
    fn flops_per_iteration_scales_with_tokens() {
        let mut model = ModelConfig::llama31_405b();
        let f1 = model.flops_per_iteration();
        model.global_batch *= 2;
        let f2 = model.flops_per_iteration();
        assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_per_iteration() {
        let model = ModelConfig::gpt_moe_1t();
        assert_eq!(model.tokens_per_iteration(), (1536 * 2048) as f64);
    }

    #[test]
    fn attention_and_ffn_parameter_formulas() {
        let model = ModelConfig::llama31_405b();
        assert_eq!(model.attention_params_per_layer(), 4.0 * 16384.0 * 16384.0);
        assert_eq!(model.ffn_params_per_layer(), 3.0 * 16384.0 * 53248.0);
    }
}
