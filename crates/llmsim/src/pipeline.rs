//! The pipeline-bubble model.
//!
//! With the 1F1B schedule and `v` virtual pipeline stages per physical stage,
//! the classic bubble fraction is
//!
//! ```text
//! bubble / useful = (p − 1) / (v · m)
//! ```
//!
//! where `p` is the pipeline depth and `m` the number of micro-batches each
//! data-parallel replica pushes per iteration. This term is what eventually
//! punishes small-TP strategies at very large cluster sizes: with the global
//! batch fixed, growing DP shrinks `m`, and the only way to keep the bubble in
//! check is to grow TP instead of DP — the core argument of §2.3.

use crate::parallelism::ParallelismStrategy;

/// Pipeline-schedule model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineModel;

impl PipelineModel {
    /// Ratio of bubble time to useful time for the strategy, given the number
    /// of micro-batches per replica.
    pub fn bubble_ratio(strategy: &ParallelismStrategy, microbatches: usize) -> f64 {
        if strategy.pp <= 1 {
            return 0.0;
        }
        let m = microbatches.max(1) as f64;
        (strategy.pp as f64 - 1.0) / (strategy.vpp as f64 * m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pipeline_means_no_bubble() {
        let strategy = ParallelismStrategy::new(16, 1, 64);
        assert_eq!(PipelineModel::bubble_ratio(&strategy, 32), 0.0);
    }

    #[test]
    fn bubble_grows_with_depth_and_shrinks_with_microbatches() {
        let deep = ParallelismStrategy::new(8, 16, 16);
        let shallow = ParallelismStrategy::new(8, 4, 64);
        assert!(PipelineModel::bubble_ratio(&deep, 16) > PipelineModel::bubble_ratio(&shallow, 16));
        assert!(PipelineModel::bubble_ratio(&deep, 128) < PipelineModel::bubble_ratio(&deep, 16));
    }

    #[test]
    fn virtual_pipeline_divides_the_bubble() {
        let plain = ParallelismStrategy::new(8, 16, 16);
        let interleaved = ParallelismStrategy::new(8, 16, 16).with_vpp(4);
        let m = 32;
        assert!(
            (PipelineModel::bubble_ratio(&plain, m)
                - 4.0 * PipelineModel::bubble_ratio(&interleaved, m))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn classic_formula_values() {
        // p = 16, m = 2: bubble = 15/2 = 7.5 -> the catastrophic case that
        // makes TP-8 strategies collapse at 131k GPUs.
        let strategy = ParallelismStrategy::new(8, 16, 1024);
        assert!((PipelineModel::bubble_ratio(&strategy, 2) - 7.5).abs() < 1e-12);
        // p = 16, m = 16: bubble = 15/16.
        assert!((PipelineModel::bubble_ratio(&strategy, 16) - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn zero_microbatches_are_clamped() {
        let strategy = ParallelismStrategy::new(8, 4, 16);
        assert!(PipelineModel::bubble_ratio(&strategy, 0).is_finite());
    }
}
