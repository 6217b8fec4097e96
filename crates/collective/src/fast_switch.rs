//! Timing model for Binary Exchange AllToAll with OCSTrx **fast switching**
//! (Appendix G.1/G.2).
//!
//! On the ±2^i Binary-Hop wiring, node `i`'s partner changes every round
//! (`i ⊕ 2^(log₂p − k)`), so the active OCSTrx path must be re-targeted between
//! rounds. The OCSTrx fast-switch mechanism brings that reconfiguration down to
//! 60–80 µs, which the paper argues "can be overlapped with computation". This
//! module prices both variants — reconfiguration fully exposed and
//! reconfiguration hidden behind the per-round compute of the MoE layer — and
//! compares the result against the `O(p²)` ring AllToAll that a plain K-Hop
//! Ring would have to run.

use crate::alltoall::AllToAllAlgorithm;
use crate::cost_model::AlphaBeta;
use hbd_types::{Bytes, Microseconds, Seconds};
use serde::{Deserialize, Serialize};

/// The reconfiguration behaviour assumed between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReconfigOverlap {
    /// Reconfiguration latency is fully exposed on the critical path.
    Exposed,
    /// Reconfiguration is overlapped with per-round computation of at least the
    /// given duration; only the excess (if any) is exposed.
    OverlappedWithCompute {
        /// Computation available to hide each reconfiguration.
        compute_per_round: Seconds,
    },
}

/// Binary Exchange AllToAll timed with OCSTrx fast switching.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FastSwitchAllToAll {
    /// Number of participating ranks (must be a power of two, ≥ 2).
    pub ranks: usize,
    /// Hardware reconfiguration latency of one fast switch.
    pub reconfig: Microseconds,
    /// Overlap assumption.
    pub overlap: ReconfigOverlap,
}

/// Timing breakdown of one AllToAll execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FastSwitchCost {
    /// Communication rounds.
    pub rounds: usize,
    /// Fast switches per rank (rounds − 1: the first round uses the
    /// pre-configured path).
    pub reconfigurations: usize,
    /// Pure communication time (α–β).
    pub communication: Seconds,
    /// Reconfiguration time left exposed after overlap.
    pub exposed_reconfiguration: Seconds,
}

impl FastSwitchCost {
    /// Total critical-path time.
    pub fn total(&self) -> Seconds {
        self.communication + self.exposed_reconfiguration
    }
}

impl FastSwitchAllToAll {
    /// Creates the schedule with the paper's 70 µs mid-range fast-switch
    /// latency and no overlap.
    pub fn new(ranks: usize) -> Self {
        assert!(
            ranks >= 2 && ranks.is_power_of_two(),
            "ranks must be a power of two >= 2"
        );
        FastSwitchAllToAll {
            ranks,
            reconfig: Microseconds(70.0),
            overlap: ReconfigOverlap::Exposed,
        }
    }

    /// Assumes each reconfiguration can hide behind `compute_per_round` of
    /// computation.
    pub fn overlapped(mut self, compute_per_round: Seconds) -> Self {
        self.overlap = ReconfigOverlap::OverlappedWithCompute { compute_per_round };
        self
    }

    /// Prices the collective for a per-destination block of `block` bytes on
    /// the given link.
    pub fn cost(&self, block: Bytes, link: &AlphaBeta) -> FastSwitchCost {
        let algorithm = AllToAllAlgorithm::BinaryExchange;
        let rounds = algorithm.rounds(self.ranks);
        let per_round = algorithm.bytes_per_round(self.ranks, block);
        let communication = link.steps_time(rounds, per_round);
        let reconfigurations = rounds.saturating_sub(1);
        let per_switch = self.reconfig.to_seconds();
        let exposed_per_switch = match self.overlap {
            ReconfigOverlap::Exposed => per_switch,
            ReconfigOverlap::OverlappedWithCompute { compute_per_round } => {
                Seconds((per_switch.value() - compute_per_round.value()).max(0.0))
            }
        };
        FastSwitchCost {
            rounds,
            reconfigurations,
            communication,
            exposed_reconfiguration: Seconds(exposed_per_switch.value() * reconfigurations as f64),
        }
    }

    /// Time of the `O(p²)` ring-shift AllToAll a plain K-Hop Ring would run for
    /// the same block size (no reconfiguration needed, the ring never changes).
    pub fn ring_fallback(&self, block: Bytes, link: &AlphaBeta) -> Seconds {
        let algorithm = AllToAllAlgorithm::RingShift;
        let rounds = algorithm.rounds(self.ranks);
        link.steps_time(rounds, algorithm.bytes_per_round(self.ranks, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn link() -> AlphaBeta {
        AlphaBeta::hbd_default()
    }

    #[test]
    fn rounds_and_reconfigurations_scale_logarithmically() {
        let cost = FastSwitchAllToAll::new(16).cost(Bytes::from_mb(64.0), &link());
        assert_eq!(cost.rounds, 4);
        assert_eq!(cost.reconfigurations, 3);
        let cost = FastSwitchAllToAll::new(2).cost(Bytes::from_mb(64.0), &link());
        assert_eq!(cost.rounds, 1);
        assert_eq!(cost.reconfigurations, 0);
    }

    #[test]
    fn exposed_reconfiguration_adds_to_the_critical_path() {
        let block = Bytes::from_mb(1.0);
        let exposed = FastSwitchAllToAll::new(64).cost(block, &link());
        let hidden = FastSwitchAllToAll::new(64)
            .overlapped(Seconds(1.0))
            .cost(block, &link());
        assert_eq!(exposed.communication, hidden.communication);
        assert!(exposed.exposed_reconfiguration > Seconds::ZERO);
        assert_eq!(hidden.exposed_reconfiguration, Seconds::ZERO);
        assert!(exposed.total() > hidden.total());
        // 5 reconfigurations of 70 us.
        assert!((exposed.exposed_reconfiguration.value() - 5.0 * 70e-6).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_exposes_only_the_excess() {
        let block = Bytes::from_mb(1.0);
        let cost = FastSwitchAllToAll::new(16)
            .overlapped(Seconds(50e-6))
            .cost(block, &link());
        // 70 us switches behind 50 us of compute: 20 us exposed per switch,
        // 3 switches.
        assert!((cost.exposed_reconfiguration.value() - 3.0 * 20e-6).abs() < 1e-12);
    }

    #[test]
    fn binary_exchange_beats_the_ring_for_moderate_group_sizes() {
        // For large blocks the O(p log p) volume beats O(p^2) comfortably even
        // with exposed reconfigurations.
        let schedule = FastSwitchAllToAll::new(32);
        let speedup_over_ring = |block: Bytes| {
            schedule.ring_fallback(block, &link()).value()
                / schedule.cost(block, &link()).total().value()
        };
        let speedup = speedup_over_ring(Bytes::from_mb(32.0));
        assert!(speedup > 3.0, "speedup {speedup}");
        // For tiny blocks the reconfiguration overhead can eat the win.
        let tiny = speedup_over_ring(Bytes(512.0));
        assert!(tiny < speedup);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_groups_are_rejected() {
        let _ = FastSwitchAllToAll::new(12);
    }
}
