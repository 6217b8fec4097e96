//! The parallelism-strategy space: (TP, PP, DP, CP, EP, virtual pipeline).

use hbd_types::{HbdError, Result};
use std::fmt;

/// One point of the parallelism search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelismStrategy {
    /// Tensor-parallel group size (GPUs per TP group).
    pub tp: usize,
    /// Pipeline-parallel stages.
    pub pp: usize,
    /// Data-parallel replicas.
    pub dp: usize,
    /// Context/sequence-parallel group size: ranks that split the sequence
    /// dimension of one replica (Ring-Attention style). `1` = no CP/SP.
    pub cp: usize,
    /// Expert-parallel group size (1 = experts are tensor-sharded instead).
    pub ep: usize,
    /// Virtual pipeline stages per physical stage (interleaved schedule).
    pub vpp: usize,
    /// Micro-batch size in sequences.
    pub micro_batch: usize,
}

impl ParallelismStrategy {
    /// Creates a strategy with virtual pipelining of 1 and micro-batch of 1
    /// (the paper's simulation settings unless stated otherwise).
    pub fn new(tp: usize, pp: usize, dp: usize) -> Self {
        ParallelismStrategy {
            tp,
            pp,
            dp,
            cp: 1,
            ep: 1,
            vpp: 1,
            micro_batch: 1,
        }
    }

    /// Adds an expert-parallel dimension.
    pub fn with_ep(mut self, ep: usize) -> Self {
        self.ep = ep;
        self
    }

    /// Adds a context/sequence-parallel dimension.
    pub fn with_cp(mut self, cp: usize) -> Self {
        self.cp = cp;
        self
    }

    /// Sets the virtual-pipeline factor.
    pub fn with_vpp(mut self, vpp: usize) -> Self {
        self.vpp = vpp;
        self
    }

    /// Total GPUs used by the strategy.
    pub fn gpus(&self) -> usize {
        self.tp * self.pp * self.dp * self.cp
    }

    /// Micro-batches each data-parallel replica pushes through the pipeline per
    /// iteration.
    pub fn microbatches_per_replica(&self, global_batch: usize) -> usize {
        (global_batch / self.dp / self.micro_batch).max(1)
    }

    /// Validates the strategy against a cluster of `gpus` GPUs, a model with
    /// `layers` layers and `experts` experts, and a global batch size.
    pub fn validate(
        &self,
        gpus: usize,
        layers: usize,
        experts: usize,
        global_batch: usize,
    ) -> Result<()> {
        if self.tp == 0
            || self.pp == 0
            || self.dp == 0
            || self.cp == 0
            || self.ep == 0
            || self.vpp == 0
        {
            return Err(HbdError::invalid_config(
                "all parallelism degrees must be positive",
            ));
        }
        if self.micro_batch == 0 {
            return Err(HbdError::invalid_config("micro-batch must be positive"));
        }
        if self.gpus() != gpus {
            return Err(HbdError::invalid_config(format!(
                "tp×pp×dp×cp = {} does not equal the cluster size {gpus}",
                self.gpus()
            )));
        }
        if layers < self.pp * self.vpp {
            return Err(HbdError::invalid_config(format!(
                "{layers} layers cannot fill {} pipeline chunks",
                self.pp * self.vpp
            )));
        }
        if !global_batch.is_multiple_of(self.dp * self.micro_batch) {
            return Err(HbdError::invalid_config(format!(
                "global batch {global_batch} is not divisible by dp×micro_batch = {}",
                self.dp * self.micro_batch
            )));
        }
        if self.ep > 1 {
            if !experts.is_multiple_of(self.ep) {
                return Err(HbdError::invalid_config(format!(
                    "{experts} experts cannot be split over EP = {}",
                    self.ep
                )));
            }
            if !self.dp.is_multiple_of(self.ep) {
                return Err(HbdError::invalid_config(format!(
                    "EP = {} must divide DP = {} (EP groups are carved out of the DP dimension)",
                    self.ep, self.dp
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ParallelismStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP{} PP{} DP{} EP{}", self.tp, self.pp, self.dp, self.ep)?;
        if self.cp > 1 {
            write!(f, " CP{}", self.cp)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpus_is_the_product_of_the_3d_dimensions() {
        let strategy = ParallelismStrategy::new(16, 4, 16);
        assert_eq!(strategy.gpus(), 1024);
        assert_eq!(strategy.to_string(), "TP16 PP4 DP16 EP1");
    }

    #[test]
    fn microbatch_count_per_replica() {
        let strategy = ParallelismStrategy::new(16, 4, 16);
        assert_eq!(strategy.microbatches_per_replica(2048), 128);
        let strategy = ParallelismStrategy::new(8, 16, 1024);
        assert_eq!(strategy.microbatches_per_replica(2048), 2);
    }

    #[test]
    fn validation_checks_product_and_divisibility() {
        let strategy = ParallelismStrategy::new(16, 4, 16);
        assert!(strategy.validate(1024, 128, 1, 2048).is_ok());
        assert!(strategy.validate(2048, 128, 1, 2048).is_err());
        // Uneven layer counts are allowed (Llama's 126 layers over 4 stages),
        // but the pipeline cannot be deeper than the layer count.
        assert!(strategy.validate(1024, 126, 1, 2048).is_ok());
        assert!(strategy.validate(1024, 3, 1, 2048).is_err());
        // Global batch not divisible by dp.
        assert!(strategy.validate(1024, 128, 1, 100).is_err());
    }

    #[test]
    fn ep_must_divide_experts_and_dp() {
        let strategy = ParallelismStrategy::new(8, 4, 32).with_ep(8);
        assert!(strategy.validate(1024, 128, 8, 2048).is_ok());
        assert!(strategy.validate(1024, 128, 6, 2048).is_err());
        let strategy = ParallelismStrategy::new(8, 4, 32).with_ep(3);
        assert!(strategy.validate(1024, 128, 9, 2048).is_err());
    }

    #[test]
    fn zero_degrees_are_rejected() {
        let mut strategy = ParallelismStrategy::new(0, 1, 1024);
        assert!(strategy.validate(0, 128, 1, 2048).is_err());
        strategy = ParallelismStrategy::new(1, 1, 1024);
        strategy.micro_batch = 0;
        assert!(strategy.validate(1024, 128, 1, 2048).is_err());
    }

    #[test]
    fn builders_compose() {
        let strategy = ParallelismStrategy::new(32, 8, 4).with_ep(4).with_vpp(3);
        assert_eq!(strategy.ep, 4);
        assert_eq!(strategy.vpp, 3);
    }

    #[test]
    fn cp_scales_the_gpu_count_and_shows_in_display() {
        let strategy = ParallelismStrategy::new(16, 4, 8).with_cp(2);
        assert_eq!(strategy.gpus(), 1024);
        assert_eq!(strategy.to_string(), "TP16 PP4 DP8 EP1 CP2");
        assert!(strategy.validate(1024, 128, 1, 2048).is_ok());
        // cp = 0 is rejected like every other zero degree.
        let mut zero = ParallelismStrategy::new(16, 4, 16);
        zero.cp = 0;
        assert!(zero.validate(1024, 128, 1, 2048).is_err());
    }
}
