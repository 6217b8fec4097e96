//! Symbolic execution of the collectives.
//!
//! The closed-form cost formulas are easy to get subtly wrong, so this module
//! actually *runs* the algorithms over symbolic data blocks and checks the
//! outcome: after a Ring-AllReduce every rank must hold the sum of every rank's
//! contribution for every chunk, and after an AllToAll every rank `j` must hold
//! exactly the block that every rank `i` addressed to `j`. Property tests in
//! this module and integration tests in the umbrella crate lean on these
//! simulators.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Symbolic Ring-AllReduce over `ranks` participants and `ranks` chunks.
///
/// Each rank starts with its own contribution to every chunk; the simulation
/// tracks, per `(rank, chunk)`, the set of contributions accumulated so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingAllReduceSim {
    ranks: usize,
    /// `holdings[rank][chunk]` = set of source ranks whose contribution has
    /// been reduced into this rank's copy of the chunk.
    holdings: Vec<Vec<BTreeSet<usize>>>,
}

impl RingAllReduceSim {
    /// Creates the initial state: every rank holds only its own contribution to
    /// every chunk.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 2, "a ring needs at least two ranks");
        RingAllReduceSim {
            ranks,
            holdings: (0..ranks)
                .map(|r| (0..ranks).map(|_| BTreeSet::from([r])).collect())
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Runs the whole algorithm: `n − 1` reduce-scatter steps followed by
    /// `n − 1` all-gather steps.
    pub fn run(&mut self) {
        let n = self.ranks;
        // Reduce-scatter: in step s, rank r sends chunk (r - s) mod n to rank
        // r+1, which reduces it into its own copy.
        for s in 0..n - 1 {
            let sends: Vec<(usize, usize, BTreeSet<usize>)> = (0..n)
                .map(|r| {
                    let chunk = (r + n - s) % n;
                    (r, chunk, self.holdings[r][chunk].clone())
                })
                .collect();
            for (r, chunk, contribution) in sends {
                let dst = (r + 1) % n;
                self.holdings[dst][chunk].extend(contribution);
            }
        }
        // All-gather: in step s, rank r sends its (now complete) chunk
        // (r + 1 - s) mod n to rank r+1, which replaces its copy.
        for s in 0..n - 1 {
            let sends: Vec<(usize, usize, BTreeSet<usize>)> = (0..n)
                .map(|r| {
                    let chunk = (r + 1 + n - s) % n;
                    (r, chunk, self.holdings[r][chunk].clone())
                })
                .collect();
            for (r, chunk, contribution) in sends {
                let dst = (r + 1) % n;
                self.holdings[dst][chunk] = contribution;
            }
        }
    }

    /// Whether every rank holds the fully reduced value of every chunk.
    pub fn is_complete(&self) -> bool {
        let full: BTreeSet<usize> = (0..self.ranks).collect();
        self.holdings
            .iter()
            .all(|rank| rank.iter().all(|chunk| *chunk == full))
    }
}

/// Symbolic Binary Exchange AllToAll (Algorithm 6 of Appendix G).
///
/// Each rank `i` starts with `p` addressed blocks `(i → j)`. The simulation
/// follows the paper's algorithm: in round `k` (1-based), rank `i` exchanges
/// with `r = i ⊕ 2^(log₂ p − k)`, sending every block it currently holds whose
/// destination lies in `r`'s half of the address space for that round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinaryExchangeSim {
    ranks: usize,
    /// `blocks[holder]` = set of `(source, destination)` blocks currently held.
    blocks: Vec<BTreeSet<(usize, usize)>>,
    rounds_executed: usize,
    /// Total blocks transferred so far (the volume the O(p·log p) bound
    /// talks about).
    transfer_count: usize,
}

impl BinaryExchangeSim {
    /// Creates the initial state. `ranks` must be a power of two (the algorithm
    /// exchanges along address bits).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 2, "AllToAll needs at least two ranks");
        assert!(
            ranks.is_power_of_two(),
            "Binary Exchange needs a power-of-two group"
        );
        BinaryExchangeSim {
            ranks,
            blocks: (0..ranks)
                .map(|i| (0..ranks).map(|j| (i, j)).collect())
                .collect(),
            rounds_executed: 0,
            transfer_count: 0,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Rounds executed so far.
    pub fn rounds_executed(&self) -> usize {
        self.rounds_executed
    }

    /// Runs all `log₂ p` rounds.
    pub fn run(&mut self) {
        let log_p = self.ranks.trailing_zeros() as usize;
        for k in 1..=log_p {
            let bit = 1usize << (log_p - k);
            // Compute every rank's outgoing set first (synchronous round).
            let mut outgoing: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.ranks];
            for (i, out) in outgoing.iter_mut().enumerate() {
                let partner = i ^ bit;
                for &(src, dst) in &self.blocks[i] {
                    // Send the block if its destination lies on the partner's
                    // side of the current address bit.
                    if dst & bit == partner & bit {
                        out.push((src, dst));
                    }
                }
            }
            for (i, out) in outgoing.iter().enumerate() {
                let partner = i ^ bit;
                for &(src, dst) in out {
                    self.blocks[i].remove(&(src, dst));
                    self.blocks[partner].insert((src, dst));
                    self.transfer_count += 1;
                }
            }
            self.rounds_executed += 1;
        }
    }

    /// Whether every rank holds exactly the blocks addressed to it, one from
    /// every source.
    pub fn is_complete(&self) -> bool {
        self.blocks.iter().enumerate().all(|(holder, blocks)| {
            blocks.len() == self.ranks
                && blocks.iter().all(|&(_, dst)| dst == holder)
                && (0..self.ranks).all(|src| blocks.contains(&(src, holder)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_allreduce_completes_for_small_rings() {
        for ranks in 2..=9 {
            let mut sim = RingAllReduceSim::new(ranks);
            assert!(!sim.is_complete() || ranks == 1);
            sim.run();
            assert!(sim.is_complete(), "ring of {ranks} ranks did not complete");
        }
    }

    #[test]
    fn ring_allreduce_partial_state_is_not_complete() {
        let sim = RingAllReduceSim::new(4);
        assert!(!sim.is_complete());
        assert_eq!(sim.holdings[2][2].len(), 1);
    }

    #[test]
    fn binary_exchange_completes_for_powers_of_two() {
        for log_p in 1..=6 {
            let p = 1usize << log_p;
            let mut sim = BinaryExchangeSim::new(p);
            sim.run();
            assert!(sim.is_complete(), "group of {p} ranks did not complete");
            assert_eq!(sim.rounds_executed(), log_p);
        }
    }

    #[test]
    fn binary_exchange_volume_matches_the_bound() {
        // Each round every rank sends p/2 blocks: total transfers = p * p/2 * log p.
        for log_p in 1..=5 {
            let p = 1usize << log_p;
            let mut sim = BinaryExchangeSim::new(p);
            sim.run();
            assert_eq!(sim.transfer_count, p * p / 2 * log_p);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn binary_exchange_rejects_non_power_of_two() {
        let _ = BinaryExchangeSim::new(6);
    }

    #[test]
    fn binary_exchange_partner_pattern_is_xor() {
        // After one round of an 8-rank exchange, rank 0 must hold the blocks
        // rank 4 addressed to the lower half (destinations 0..4).
        let mut sim = BinaryExchangeSim::new(8);
        let log_p = 3;
        let bit = 1usize << (log_p - 1);
        // Run only one round by replicating the loop body.
        let mut outgoing: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 8];
        for (i, out) in outgoing.iter_mut().enumerate() {
            let partner = i ^ bit;
            for &(src, dst) in &sim.blocks[i] {
                if dst & bit == partner & bit {
                    out.push((src, dst));
                }
            }
        }
        // Rank 4 sends to rank 0 exactly its blocks destined to 0..4.
        assert_eq!(outgoing[4].len(), 4);
        assert!(outgoing[4].iter().all(|&(src, dst)| src == 4 && dst < 4));
        sim.run();
        assert!(sim.is_complete());
    }

    proptest! {
        #[test]
        fn ring_allreduce_always_completes(ranks in 2usize..32) {
            let mut sim = RingAllReduceSim::new(ranks);
            sim.run();
            prop_assert!(sim.is_complete());
        }

        #[test]
        fn binary_exchange_always_completes(log_p in 1u32..8) {
            let p = 1usize << log_p;
            let mut sim = BinaryExchangeSim::new(p);
            sim.run();
            prop_assert!(sim.is_complete());
            prop_assert_eq!(sim.rounds_executed(), log_p as usize);
        }
    }
}
