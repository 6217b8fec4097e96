//! The expert-imbalance straggler model (§2.3, Table 4).
//!
//! With expert parallelism and a no-token-left-behind router, experts receive
//! unequal token counts. The paper quantifies the skew with the *imbalance
//! coefficient* `c = (max − min) / max` over the per-expert token counts; the
//! EP group is only as fast as its most loaded member, so the MoE FFN compute
//! of every EP rank is stretched by `max / mean`.
//!
//! Assuming the per-expert load is spread symmetrically between `min` and
//! `max`, `mean = (max + min) / 2 = max · (1 − c/2)`, so the straggler
//! stretch is `1 / (1 − c/2)`. Tensor-sharding the experts (TP) instead of
//! EP sidesteps the problem entirely because every GPU holds an equal slice of
//! every expert — the key insight behind the paper's "TP is preferable for MoE"
//! finding.

use serde::{Deserialize, Serialize};

/// Expert-imbalance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpertImbalance {
    /// The imbalance coefficient `(max − min) / max`, in `[0, 1)`.
    pub coefficient: f64,
}

impl ExpertImbalance {
    /// Creates a model with the given coefficient.
    pub fn new(coefficient: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&coefficient),
            "imbalance coefficient must lie in [0, 1), got {coefficient}"
        );
        ExpertImbalance { coefficient }
    }

    /// The 20 % production setting used by the §6.3 simulations.
    pub fn paper_production() -> Self {
        Self::new(0.20)
    }

    /// Straggler stretch applied to MoE FFN compute when the experts are
    /// parallelised with EP (`ep > 1`). TP sharding (`ep == 1`) is immune.
    pub fn compute_stretch(&self, ep: usize) -> f64 {
        if ep <= 1 {
            1.0
        } else {
            1.0 / (1.0 - self.coefficient / 2.0)
        }
    }
}

impl Default for ExpertImbalance {
    /// Perfectly balanced experts.
    fn default() -> Self {
        Self::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_experts_have_no_stretch() {
        let imbalance = ExpertImbalance::default();
        assert_eq!(imbalance.compute_stretch(8), 1.0);
    }

    #[test]
    fn tp_sharding_is_immune_to_imbalance() {
        let imbalance = ExpertImbalance::new(0.3);
        assert_eq!(imbalance.compute_stretch(1), 1.0);
        assert!(imbalance.compute_stretch(8) > 1.0);
    }

    #[test]
    fn stretch_grows_with_the_coefficient() {
        let c10 = ExpertImbalance::new(0.1).compute_stretch(4);
        let c20 = ExpertImbalance::new(0.2).compute_stretch(4);
        let c30 = ExpertImbalance::new(0.3).compute_stretch(4);
        assert!(c10 < c20 && c20 < c30);
        // 1 / (1 - 0.15) ~ 1.176 for c = 0.3.
        assert!((c30 - 1.0 / 0.85).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "imbalance coefficient")]
    fn out_of_range_coefficient_is_rejected() {
        let _ = ExpertImbalance::new(1.0);
    }

    #[test]
    fn paper_production_setting_is_twenty_percent() {
        assert_eq!(ExpertImbalance::paper_production().coefficient, 0.20);
    }
}
