//! The Appendix-C closed-form bound on InfiniteHBD's expected GPU waste ratio
//! (Table 7).
//!
//! For a K-Hop topology with `R` GPUs per node, a TP group size of `N_t` GPUs
//! and an i.i.d. node failure probability `P_s`, the appendix derives
//!
//! ```text
//! E[waste ratio] ≤ 2 · (N_t − R) · P_s^K
//! ```
//!
//! — waste requires a *break point* (K or more consecutive failures), whose
//! probability decays exponentially in `K`, and each break point wastes at most
//! one in-progress TP group.

/// Parameters of the Appendix-C bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WasteBoundInput {
    /// GPUs per node (`R`).
    pub gpus_per_node: usize,
    /// OCSTrx bundles per node (`K`).
    pub k: u32,
    /// TP group size in GPUs (`N_t`).
    pub tp_size: usize,
    /// Node failure probability (`P_s`).
    pub node_failure_probability: f64,
}

/// Evaluates the Appendix-C upper bound `2 (N_t − R) P_s^K`.
pub fn waste_ratio_upper_bound(input: &WasteBoundInput) -> f64 {
    assert!(
        (0.0..=1.0).contains(&input.node_failure_probability),
        "failure probability must lie in [0, 1]"
    );
    assert!(
        input.tp_size >= input.gpus_per_node,
        "TP group must span at least one node"
    );
    2.0 * (input.tp_size - input.gpus_per_node) as f64
        * input.node_failure_probability.powi(input.k as i32)
}

/// The node failure probabilities the paper plugs into Table 7: the p99 value
/// of the 8-GPU-node trace (7.22 %) and the Appendix-A-derived 4-GPU-node
/// equivalent (3.67 %).
pub fn paper_node_failure_probability(gpus_per_node: usize) -> f64 {
    match gpus_per_node {
        8 => 0.0722,
        4 => 0.0367,
        other => {
            // Derive from the per-GPU failure probability of 0.93% (Appendix C).
            1.0 - (1.0 - 0.0093_f64).powi(other as i32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(r: usize, k: u32) -> f64 {
        waste_ratio_upper_bound(&WasteBoundInput {
            gpus_per_node: r,
            k,
            tp_size: 32,
            node_failure_probability: paper_node_failure_probability(r),
        })
    }

    #[test]
    fn table7_values_are_reproduced() {
        // Table 7 (TP-32): R=4 row: 7.54%, 0.28%, 1.02e-4; R=8 row: 25.02%,
        // 1.81%, 0.13%.
        assert!(
            (bound(4, 2) - 0.0754).abs() < 0.002,
            "R=4, K=2: {}",
            bound(4, 2)
        );
        assert!(
            (bound(4, 3) - 0.0028).abs() < 0.0002,
            "R=4, K=3: {}",
            bound(4, 3)
        );
        assert!(
            (bound(4, 4) - 1.02e-4).abs() < 2e-5,
            "R=4, K=4: {}",
            bound(4, 4)
        );
        assert!(
            (bound(8, 2) - 0.2502).abs() < 0.005,
            "R=8, K=2: {}",
            bound(8, 2)
        );
        assert!(
            (bound(8, 3) - 0.0181).abs() < 0.001,
            "R=8, K=3: {}",
            bound(8, 3)
        );
        assert!(
            (bound(8, 4) - 0.0013).abs() < 0.0002,
            "R=8, K=4: {}",
            bound(8, 4)
        );
    }

    #[test]
    fn bound_decays_exponentially_with_k() {
        let p = paper_node_failure_probability(4);
        assert!(bound(4, 3) / bound(4, 2) - p < 1e-9);
        assert!(bound(4, 4) < bound(4, 3));
    }

    #[test]
    fn paper_probabilities_match_appendix_a() {
        assert_eq!(paper_node_failure_probability(8), 0.0722);
        assert_eq!(paper_node_failure_probability(4), 0.0367);
        // Derived value for an unusual node size stays consistent with the
        // per-GPU rate.
        let p2 = paper_node_failure_probability(2);
        assert!(p2 > 0.018 && p2 < 0.019);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn invalid_probability_is_rejected() {
        let _ = waste_ratio_upper_bound(&WasteBoundInput {
            gpus_per_node: 4,
            k: 2,
            tp_size: 32,
            node_failure_probability: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = "span at least one node")]
    fn tiny_tp_group_is_rejected() {
        let _ = waste_ratio_upper_bound(&WasteBoundInput {
            gpus_per_node: 8,
            k: 2,
            tp_size: 4,
            node_failure_probability: 0.05,
        });
    }
}
