//! The i.i.d. node-fault model used for the "GPU waste ratio versus node fault
//! ratio" sweeps (Figs 14 and 22) and the aggregate-cost sweep (Fig 17d).
//!
//! Unlike the trace replay, these experiments do not care about temporal
//! dynamics: they ask "if a fraction `f` of nodes is faulty *right now*, how
//! much capacity does each architecture lose?". The model draws fault sets
//! either by including each node independently with probability `f`
//! ([`IidFaultModel::sample`]) or by choosing exactly `⌊f·n⌋` faulty nodes
//! uniformly at random ([`IidFaultModel::sample_exact`], which removes the
//! binomial noise and is what the smooth curves of Fig 14 use).

use hbd_types::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Independent, identically distributed node-fault model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IidFaultModel {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Probability that any given node is faulty.
    pub fault_ratio: f64,
}

impl IidFaultModel {
    /// Creates a model. The ratio is clamped to `[0, 1]`.
    pub fn new(nodes: usize, fault_ratio: f64) -> Self {
        IidFaultModel {
            nodes,
            fault_ratio: fault_ratio.clamp(0.0, 1.0),
        }
    }

    /// Draws a fault set by including each node independently with probability
    /// `fault_ratio`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<NodeId> {
        (0..self.nodes)
            .filter(|_| rng.gen::<f64>() < self.fault_ratio)
            .map(NodeId)
            .collect()
    }

    /// Draws a fault set with exactly `round(nodes × fault_ratio)` faulty
    /// nodes, chosen uniformly at random without replacement.
    ///
    /// Implementation: an inlined Fisher–Yates whose rejection-sampling mask
    /// is hoisted out of the per-position loop and recomputed only at
    /// power-of-two span boundaries (the generic `shuffle` recomputes a u128
    /// mask per draw), over a compact `u32` permutation buffer. The draw
    /// sequence is **bit-for-bit identical** to the naive
    /// shuffle-take-sort sampler this replaces (retained as the test oracle),
    /// which is what keeps every pinned experiment output byte-stable — a
    /// distribution-level batched binomial/geometric sampler would be faster
    /// still but would re-randomise all committed sweep results.
    pub fn sample_exact<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<NodeId> {
        let count = (self.nodes as f64 * self.fault_ratio).round() as usize;
        let count = count.min(self.nodes);
        debug_assert!(self.nodes <= u32::MAX as usize, "node index fits in u32");
        let mut perm: Vec<u32> = (0..self.nodes as u32).collect();
        let mut hi = self.nodes.saturating_sub(1);
        while hi >= 1 {
            // Block of positions sharing one mask: spans (p/2, p] for the
            // power of two p covering hi + 1.
            let p = ((hi + 1) as u64).next_power_of_two();
            let mask = p - 1;
            let lo = ((p / 2) as usize).max(1);
            for i in (lo..=hi).rev() {
                let span = (i + 1) as u64;
                // Same accept/reject sequence as `sample_int_range(0, i + 1)`.
                let j = loop {
                    let candidate = rng.next_u64() & mask;
                    if candidate < span {
                        break candidate as usize;
                    }
                };
                perm.swap(i, j);
            }
            hi = lo - 1;
        }
        perm.truncate(count);
        perm.sort_unstable();
        perm.into_iter().map(|n| NodeId(n as usize)).collect()
    }

    /// The naive shuffle-take-sort sampler [`IidFaultModel::sample_exact`]
    /// replaced, kept verbatim as the oracle: a property test pins the fast
    /// path to it bit-for-bit (identical output *and* identical RNG
    /// consumption).
    #[cfg(test)]
    pub(crate) fn sample_exact_oracle<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<NodeId> {
        use rand::seq::SliceRandom;
        let count = (self.nodes as f64 * self.fault_ratio).round() as usize;
        let count = count.min(self.nodes);
        let mut all: Vec<usize> = (0..self.nodes).collect();
        all.shuffle(rng);
        let mut chosen: Vec<NodeId> = all.into_iter().take(count).map(NodeId).collect();
        chosen.sort();
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ratio_is_clamped() {
        assert_eq!(IidFaultModel::new(10, -0.5).fault_ratio, 0.0);
        assert_eq!(IidFaultModel::new(10, 1.5).fault_ratio, 1.0);
    }

    #[test]
    fn sample_exact_returns_requested_count() {
        let model = IidFaultModel::new(720, 0.05);
        let mut rng = StdRng::seed_from_u64(11);
        let faults = model.sample_exact(&mut rng);
        assert_eq!(faults.len(), 36);
        // Sorted and unique.
        assert!(faults.windows(2).all(|w| w[0] < w[1]));
        assert!(faults.iter().all(|n| n.index() < 720));
    }

    #[test]
    fn bernoulli_sample_is_near_the_expectation() {
        let model = IidFaultModel::new(10_000, 0.0233);
        let mut rng = StdRng::seed_from_u64(5);
        let faults = model.sample(&mut rng);
        let ratio = faults.len() as f64 / 10_000.0;
        assert!((ratio - 0.0233).abs() < 0.005, "observed ratio {ratio}");
    }

    #[test]
    fn extreme_ratios() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(IidFaultModel::new(100, 0.0)
            .sample_exact(&mut rng)
            .is_empty());
        assert_eq!(
            IidFaultModel::new(100, 1.0).sample_exact(&mut rng).len(),
            100
        );
        assert!(IidFaultModel::new(100, 0.0).sample(&mut rng).is_empty());
    }

    #[test]
    fn fast_sampler_is_pinned_to_the_oracle_on_the_fig14_grid() {
        // The exact (nodes, ratio) grid fig14 sweeps: any drift here would
        // change the committed EXPERIMENTS.md bytes.
        for ratio in [0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12] {
            let model = IidFaultModel::new(720, ratio);
            for seed in 0..20u64 {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut oracle = StdRng::seed_from_u64(seed);
                assert_eq!(
                    model.sample_exact(&mut fast),
                    model.sample_exact_oracle(&mut oracle),
                    "ratio {ratio} seed {seed}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The inlined Fisher–Yates must replicate the naive shuffle-take-sort
        /// oracle bit for bit: identical chosen set *and* identical RNG
        /// consumption (the trailing draws agree), for arbitrary sizes, ratios
        /// and seeds — the standing oracle-vs-fast-solver practice.
        #[test]
        fn fast_sampler_matches_the_oracle_bit_for_bit(
            nodes in 0usize..600,
            ratio_milli in 0usize..=1000,
            seed in 0u64..u64::MAX,
        ) {
            let model = IidFaultModel::new(nodes, ratio_milli as f64 / 1000.0);
            let mut fast = StdRng::seed_from_u64(seed);
            let mut oracle = StdRng::seed_from_u64(seed);
            proptest::prop_assert_eq!(
                model.sample_exact(&mut fast),
                model.sample_exact_oracle(&mut oracle)
            );
            proptest::prop_assert_eq!(fast.gen::<u64>(), oracle.gen::<u64>());
        }
    }

    #[test]
    fn consecutive_fault_probability_decays_exponentially() {
        // Appendix C's fault non-locality: under i.i.d. faults a run of `k`
        // consecutive faulty nodes occurs with probability ratio^k.
        let nodes = 200_000;
        let model = IidFaultModel::new(nodes, 0.05);
        let mut faulty = vec![false; nodes];
        for node in model.sample(&mut StdRng::seed_from_u64(3)) {
            faulty[node.index()] = true;
        }
        let run_frequency = |k: usize| {
            let runs = faulty.windows(k).filter(|w| w.iter().all(|&f| f)).count();
            runs as f64 / (nodes - k + 1) as f64
        };
        assert!((run_frequency(1) - 0.05).abs() < 0.002);
        assert!((run_frequency(2) - 0.0025).abs() < 0.0005);
        assert!(run_frequency(3) < run_frequency(2));
    }
}
