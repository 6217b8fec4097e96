//! Exhaustive parallelism-strategy search under a TP-size cap.
//!
//! The paper's analysis (§2.3, §6.3) searches `TP ∈ {1, 2, 4, …, 128}`,
//! `PP ∈ {1, 2, 4, 8, 16}`, `DP ∈ {1, 2, 4, …, 1024}` (and `EP ∈ {1, 2, 4, 8}`
//! for MoE models) for the strategy maximising MFU, optionally with the TP size
//! capped at what the HBD can support — TP-8 for a conventional 8-GPU NVLink
//! node, effectively unbounded for InfiniteHBD. Table 2's `MFU_{TP-8}` column
//! and the headline "3.37× higher MFU than DGX" both come from comparing the
//! capped and uncapped optima.

use crate::mfu::{MfuEstimate, TrainingSimulator};
use crate::model::{ModelConfig, ModelKind};
use crate::parallelism::ParallelismStrategy;
use hbd_types::{HbdError, Result};
use serde::{Deserialize, Serialize};

/// The strategy grid to search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Candidate TP sizes.
    pub tp: Vec<usize>,
    /// Candidate PP depths.
    pub pp: Vec<usize>,
    /// Maximum DP degree.
    pub max_dp: usize,
    /// Candidate EP sizes (only used for MoE models).
    pub ep: Vec<usize>,
    /// Candidate virtual-pipeline factors.
    pub vpp: Vec<usize>,
}

impl Default for SearchSpace {
    /// The grid used by the paper's simulations (footnote 6). Virtual
    /// pipelining defaults to 1; the GPT-MoE runtime configuration of
    /// Appendix B (virtual pipeline = 3) can be expressed by overriding `vpp`.
    fn default() -> Self {
        SearchSpace {
            tp: vec![1, 2, 4, 8, 16, 32, 64, 128],
            pp: vec![1, 2, 4, 8, 16],
            max_dp: 1024,
            ep: vec![1, 2, 4, 8],
            vpp: vec![1],
        }
    }
}

/// The strategy search driver.
#[derive(Debug, Clone)]
pub struct StrategySearch {
    simulator: TrainingSimulator,
    space: SearchSpace,
}

impl StrategySearch {
    /// Creates a search over the given space.
    pub fn new(simulator: TrainingSimulator, space: SearchSpace) -> Self {
        StrategySearch { simulator, space }
    }

    /// Search with the paper's defaults.
    pub fn paper_defaults() -> Self {
        Self::new(TrainingSimulator::paper_defaults(), SearchSpace::default())
    }

    /// Enumerates every feasible strategy for `model` on `gpus` GPUs, together
    /// with its MFU estimate.
    pub fn enumerate(&self, model: &ModelConfig, gpus: usize) -> Vec<MfuEstimate> {
        let mut results = Vec::new();
        let ep_candidates: &[usize] = if model.kind == ModelKind::MoE {
            &self.space.ep
        } else {
            &[1]
        };
        for &tp in &self.space.tp {
            for &pp in &self.space.pp {
                if tp * pp > gpus || !gpus.is_multiple_of(tp * pp) {
                    continue;
                }
                let dp = gpus / (tp * pp);
                if dp > self.space.max_dp {
                    continue;
                }
                for &ep in ep_candidates {
                    for &vpp in &self.space.vpp {
                        let strategy = ParallelismStrategy::new(tp, pp, dp)
                            .with_ep(ep)
                            .with_vpp(vpp);
                        if strategy
                            .validate(gpus, model.layers, model.experts, model.global_batch)
                            .is_err()
                        {
                            continue;
                        }
                        if let Ok(estimate) = self.simulator.estimate(model, &strategy) {
                            results.push(estimate);
                        }
                    }
                }
            }
        }
        results
    }

    /// Finds the MFU-maximising strategy for `model` on `gpus` GPUs.
    pub fn optimal(&self, model: &ModelConfig, gpus: usize) -> Result<MfuEstimate> {
        self.enumerate(model, gpus)
            .into_iter()
            .max_by(|a, b| a.mfu.partial_cmp(&b.mfu).expect("MFU values are finite"))
            .ok_or_else(|| {
                HbdError::infeasible(format!(
                    "no feasible parallelism strategy for {} on {gpus} GPUs",
                    model.name
                ))
            })
    }

    /// Finds the optimum with TP capped at `cap` (the `MFU_{TP-8}` column of
    /// Table 2 uses `cap = 8`).
    pub fn optimal_with_tp_cap(
        &self,
        model: &ModelConfig,
        gpus: usize,
        cap: usize,
    ) -> Result<MfuEstimate> {
        let mut space = self.space.clone();
        space.tp.retain(|&tp| tp <= cap);
        StrategySearch::new(self.simulator, space).optimal(model, gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_contains_the_published_strategies() {
        let space = SearchSpace::default();
        assert!(space.tp.contains(&16) && space.tp.contains(&64));
        assert!(space.pp.contains(&16));
        let capped = StrategySearch::paper_defaults()
            .optimal_with_tp_cap(&ModelConfig::llama31_405b(), 4096, 8)
            .unwrap();
        assert!(capped.strategy.tp <= 8);
    }

    #[test]
    fn optimal_tp_grows_with_cluster_size() {
        let search = StrategySearch::paper_defaults();
        let model = ModelConfig::llama31_405b();
        let small = search.optimal(&model, 1024).unwrap();
        let large = search.optimal(&model, 32768).unwrap();
        assert!(
            large.strategy.tp >= small.strategy.tp,
            "optimal TP should not shrink as the cluster grows ({} -> {})",
            small.strategy.tp,
            large.strategy.tp
        );
        assert!(large.strategy.tp >= 16);
        // MFU decreases with scale at fixed global batch.
        assert!(large.mfu < small.mfu);
    }

    #[test]
    fn tp8_cap_hurts_more_at_larger_scale() {
        let search = StrategySearch::paper_defaults();
        let model = ModelConfig::llama31_405b();
        let gain_small = {
            let free = search.optimal(&model, 4096).unwrap().mfu;
            let capped = search.optimal_with_tp_cap(&model, 4096, 8).unwrap().mfu;
            free / capped
        };
        let gain_large = {
            let free = search.optimal(&model, 65536).unwrap().mfu;
            let capped = search.optimal_with_tp_cap(&model, 65536, 8).unwrap().mfu;
            free / capped
        };
        assert!(gain_small >= 0.99, "cap should never help: {gain_small}");
        assert!(
            gain_large > gain_small,
            "the TP cap should hurt more at 65k GPUs ({gain_large}) than at 4k ({gain_small})"
        );
        assert!(gain_large > 1.5);
    }

    #[test]
    fn moe_prefers_tp_over_ep_under_imbalance() {
        // Table 5: with the production 20% imbalance the optimal EP is 1.
        let search = StrategySearch::paper_defaults();
        let model = ModelConfig::gpt_moe_1t();
        let best = search.optimal(&model, 4096).unwrap();
        assert_eq!(
            best.strategy.ep, 1,
            "optimal strategy should avoid EP: {}",
            best.strategy
        );
        // The optimum uses a multi-node TP group (the exact size depends on the
        // analytical calibration; the growth-with-scale trend is asserted in
        // `optimal_tp_grows_with_cluster_size`).
        assert!(best.strategy.tp >= 8);
    }

    #[test]
    fn infeasible_cluster_returns_an_error() {
        let search = StrategySearch::paper_defaults();
        // 3 GPUs cannot host any strategy on the power-of-two grid with the
        // 405B model (nothing fits in memory).
        assert!(search.optimal(&ModelConfig::llama31_405b(), 3).is_err());
    }

    #[test]
    fn enumerate_only_returns_strategies_of_the_requested_size() {
        let search = StrategySearch::paper_defaults();
        let model = ModelConfig::llama31_405b();
        for estimate in search.enumerate(&model, 2048) {
            assert_eq!(estimate.strategy.gpus(), 2048);
        }
    }
}
