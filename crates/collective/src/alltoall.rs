//! The AllToAll algorithm family (Appendix G and §7).
//!
//! On a ring topology without fast switching, AllToAll degenerates to `p − 1`
//! rounds of neighbour exchange in which every block travels `O(p)` hops —
//! `O(p²)` total volume per rank. With the OCSTrx fast-switch mechanism and the
//! `±2ⁱ` backup-link wiring, InfiniteHBD can instead run **Binary Exchange**:
//! `log₂ p` rounds in which rank `i` talks to rank `i ⊕ 2^(log₂ p − k)` and
//! forwards half of its accumulated payload, for `O(p·log₂ p)` volume. The
//! classic Bruck and pairwise-exchange algorithms are included for comparison
//! (they need node-level loopback or all-to-all reachability, which InfiniteHBD
//! does not provide, but they are the standard baselines).

use crate::cost_model::{AlphaBeta, CollectiveCost};
use hbd_types::Bytes;

/// The AllToAll algorithms analysed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllToAllAlgorithm {
    /// Neighbour-shift on the ring: `p − 1` rounds, every rank forwards the
    /// full residual payload each round — the `O(p²)` case of §7.
    RingShift,
    /// Pairwise exchange: `p − 1` rounds, each rank exchanges exactly the block
    /// destined for its partner (requires all-to-all reachability).
    PairwiseExchange,
    /// Bruck's algorithm: `⌈log₂ p⌉` rounds of bulk forwarding (requires
    /// node-level loopback).
    Bruck,
    /// Binary Exchange on the `±2ⁱ` wiring with OCSTrx fast switching
    /// (Appendix G.2) — the algorithm InfiniteHBD can actually run.
    BinaryExchange,
}

impl AllToAllAlgorithm {
    /// All algorithms, in the order used by the Appendix-G discussion.
    pub const ALL: [AllToAllAlgorithm; 4] = [
        AllToAllAlgorithm::RingShift,
        AllToAllAlgorithm::PairwiseExchange,
        AllToAllAlgorithm::Bruck,
        AllToAllAlgorithm::BinaryExchange,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AllToAllAlgorithm::RingShift => "Ring shift",
            AllToAllAlgorithm::PairwiseExchange => "Pairwise exchange",
            AllToAllAlgorithm::Bruck => "Bruck",
            AllToAllAlgorithm::BinaryExchange => "Binary Exchange",
        }
    }

    /// Whether InfiniteHBD's topology can execute the algorithm without extra
    /// capabilities (node-level loopback or full-mesh reachability).
    pub fn supported_by_infinitehbd(&self) -> bool {
        matches!(
            self,
            AllToAllAlgorithm::RingShift | AllToAllAlgorithm::BinaryExchange
        )
    }

    /// Number of communication rounds for `p` ranks.
    pub fn rounds(&self, p: usize) -> usize {
        assert!(p >= 2, "AllToAll needs at least two ranks");
        match self {
            AllToAllAlgorithm::RingShift | AllToAllAlgorithm::PairwiseExchange => p - 1,
            AllToAllAlgorithm::Bruck | AllToAllAlgorithm::BinaryExchange => ceil_log2(p),
        }
    }

    /// Bytes sent per rank per round, for a per-destination block of `block`
    /// bytes (each rank holds `p` blocks initially).
    pub fn bytes_per_round(&self, p: usize, block: Bytes) -> Bytes {
        assert!(p >= 2, "AllToAll needs at least two ranks");
        match self {
            // Each round the rank forwards everything it still has to pass on:
            // on average p/2 blocks.
            AllToAllAlgorithm::RingShift => Bytes(block.value() * p as f64 / 2.0),
            // Exactly one block per round.
            AllToAllAlgorithm::PairwiseExchange => block,
            // Half of the total payload per round.
            AllToAllAlgorithm::Bruck | AllToAllAlgorithm::BinaryExchange => {
                Bytes(block.value() * p as f64 / 2.0)
            }
        }
    }

    /// Total bytes sent per rank over the whole collective.
    pub fn total_bytes_per_rank(&self, p: usize, block: Bytes) -> Bytes {
        Bytes(self.rounds(p) as f64 * self.bytes_per_round(p, block).value())
    }

    /// Asymptotic volume class as a human-readable string.
    pub fn complexity(&self) -> &'static str {
        match self {
            AllToAllAlgorithm::RingShift => "O(p^2)",
            AllToAllAlgorithm::PairwiseExchange => "O(p)",
            AllToAllAlgorithm::Bruck | AllToAllAlgorithm::BinaryExchange => "O(p log p)",
        }
    }

    /// α–β cost of the collective, optionally charging a per-round topology
    /// reconfiguration (the OCSTrx fast switch) on top of the link α.
    pub fn cost(
        &self,
        p: usize,
        block: Bytes,
        link: &AlphaBeta,
        reconfig_per_round: hbd_types::Seconds,
    ) -> AllToAllCost {
        let rounds = self.rounds(p);
        let per_round = self.bytes_per_round(p, block);
        let round_time = link.message_time(per_round).value() + reconfig_per_round.value();
        AllToAllCost {
            algorithm: *self,
            ranks: p,
            cost: CollectiveCost {
                steps: rounds,
                bytes_per_rank: self.total_bytes_per_rank(p, block),
                time: hbd_types::Seconds(rounds as f64 * round_time),
            },
        }
    }
}

/// The priced result of an AllToAll run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllToAllCost {
    /// Which algorithm was priced.
    pub algorithm: AllToAllAlgorithm,
    /// Group size.
    pub ranks: usize,
    /// The underlying cost breakdown.
    pub cost: CollectiveCost,
}

fn ceil_log2(p: usize) -> usize {
    assert!(p >= 1);
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::Seconds;

    #[test]
    fn round_counts() {
        assert_eq!(AllToAllAlgorithm::RingShift.rounds(8), 7);
        assert_eq!(AllToAllAlgorithm::PairwiseExchange.rounds(8), 7);
        assert_eq!(AllToAllAlgorithm::Bruck.rounds(8), 3);
        assert_eq!(AllToAllAlgorithm::BinaryExchange.rounds(8), 3);
        assert_eq!(AllToAllAlgorithm::BinaryExchange.rounds(9), 4);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_is_rejected() {
        let _ = AllToAllAlgorithm::Bruck.rounds(1);
    }

    #[test]
    fn binary_exchange_volume_is_p_log_p() {
        let block = Bytes(1e6);
        for &p in &[4usize, 8, 16, 64, 256] {
            let total = AllToAllAlgorithm::BinaryExchange
                .total_bytes_per_rank(p, block)
                .value();
            let expected = (p as f64 / 2.0) * (p as f64).log2() * 1e6;
            assert!(
                (total - expected).abs() / expected < 1e-9,
                "p={p}: {total} vs {expected}"
            );
        }
    }

    #[test]
    fn ring_shift_volume_is_quadratic() {
        let block = Bytes(1e6);
        let v8 = AllToAllAlgorithm::RingShift
            .total_bytes_per_rank(8, block)
            .value();
        let v16 = AllToAllAlgorithm::RingShift
            .total_bytes_per_rank(16, block)
            .value();
        // Doubling p should roughly quadruple the volume (p(p-1)/2 blocks).
        assert!(v16 / v8 > 3.0 && v16 / v8 < 5.0);
    }

    #[test]
    fn binary_exchange_beats_ring_shift_for_large_groups() {
        let link = AlphaBeta::hbd_default();
        let block = Bytes(4e6);
        let reconfig = Seconds(70e-6);
        for &p in &[16usize, 64, 256] {
            let ring = AllToAllAlgorithm::RingShift.cost(p, block, &link, Seconds::ZERO);
            let be = AllToAllAlgorithm::BinaryExchange.cost(p, block, &link, reconfig);
            assert!(
                be.cost.time.value() < ring.cost.time.value(),
                "p={p}: binary exchange should win even paying reconfiguration"
            );
        }
    }

    #[test]
    fn pairwise_sends_the_least_but_needs_full_mesh() {
        let block = Bytes(1e6);
        let p = 32;
        let pairwise = AllToAllAlgorithm::PairwiseExchange.total_bytes_per_rank(p, block);
        let bruck = AllToAllAlgorithm::Bruck.total_bytes_per_rank(p, block);
        assert!(pairwise.value() < bruck.value());
        assert!(!AllToAllAlgorithm::PairwiseExchange.supported_by_infinitehbd());
        assert!(!AllToAllAlgorithm::Bruck.supported_by_infinitehbd());
        assert!(AllToAllAlgorithm::BinaryExchange.supported_by_infinitehbd());
        assert!(AllToAllAlgorithm::RingShift.supported_by_infinitehbd());
    }

    #[test]
    fn complexity_strings_and_names() {
        assert_eq!(AllToAllAlgorithm::RingShift.complexity(), "O(p^2)");
        assert_eq!(AllToAllAlgorithm::BinaryExchange.complexity(), "O(p log p)");
        assert_eq!(AllToAllAlgorithm::ALL.len(), 4);
        for algo in AllToAllAlgorithm::ALL {
            assert!(!algo.name().is_empty());
        }
    }

    #[test]
    fn reconfiguration_overhead_is_charged_per_round() {
        let link = AlphaBeta::hbd_default();
        let block = Bytes(1e6);
        let without = AllToAllAlgorithm::BinaryExchange.cost(16, block, &link, Seconds::ZERO);
        let with = AllToAllAlgorithm::BinaryExchange.cost(16, block, &link, Seconds(70e-6));
        let delta = with.cost.time.value() - without.cost.time.value();
        assert!((delta - 4.0 * 70e-6).abs() < 1e-9);
    }
}
