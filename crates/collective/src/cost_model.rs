//! The α–β (latency–bandwidth) cost model used to price collectives.
//!
//! A message of `n` bytes between two endpoints costs `α + n·β`, where `α` is
//! the per-message setup latency (link + protocol latency, and for OCSTrx-based
//! links optionally a path reconfiguration) and `β` is the inverse bandwidth
//! (seconds per byte). This is the model Appendix G uses to compare the ring
//! AllToAll (`O(p²)`) against Binary Exchange (`O(p·log₂ p)`).

use hbd_types::{Bytes, GBps, Seconds};
use serde::{Deserialize, Serialize};

/// An α–β link model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBeta {
    /// Per-message setup latency.
    pub alpha: Seconds,
    /// Link bandwidth.
    pub bandwidth: GBps,
}

impl AlphaBeta {
    /// Creates a link model from a setup latency and a bandwidth.
    pub fn new(alpha: Seconds, bandwidth: GBps) -> Self {
        assert!(bandwidth.value() > 0.0, "bandwidth must be positive");
        assert!(alpha.value() >= 0.0, "latency cannot be negative");
        AlphaBeta { alpha, bandwidth }
    }

    /// The HBD link of the paper's setup: 800 GBps per GPU (6.4 Tbps) and a
    /// few microseconds of link latency.
    pub fn hbd_default() -> Self {
        AlphaBeta::new(Seconds(3e-6), GBps(800.0))
    }

    /// The DCN link of the paper's setup: 50 GBps per GPU (400 Gbps NIC) with a
    /// slightly larger latency (NIC + one or more switch hops).
    pub fn dcn_default() -> Self {
        AlphaBeta::new(Seconds(10e-6), GBps(50.0))
    }

    /// Inverse bandwidth in seconds per byte.
    fn beta(&self) -> f64 {
        1.0 / (self.bandwidth.value() * 1e9)
    }

    /// Time to send one message of `size` bytes.
    pub fn message_time(&self, size: Bytes) -> Seconds {
        Seconds(self.alpha.value() + size.value() * self.beta())
    }

    /// Time for `steps` messages of `size` bytes each, sent back to back.
    pub fn steps_time(&self, steps: usize, size: Bytes) -> Seconds {
        Seconds(steps as f64 * self.message_time(size).value())
    }
}

/// The cost of a collective operation, broken down into latency and bandwidth
/// terms so utilisation can be derived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveCost {
    /// Number of communication steps on the critical path.
    pub steps: usize,
    /// Total bytes sent by the busiest participant.
    pub bytes_per_rank: Bytes,
    /// Total wall-clock time of the collective.
    pub time: Seconds,
}

impl CollectiveCost {
    /// Effective per-rank bandwidth achieved by the collective.
    fn effective_bandwidth(&self) -> GBps {
        if self.time.value() <= 0.0 {
            return GBps::ZERO;
        }
        GBps(self.bytes_per_rank.value() / self.time.value() / 1e9)
    }

    /// Bandwidth utilisation relative to the raw link bandwidth.
    pub fn utilization(&self, link: &AlphaBeta) -> f64 {
        (self.effective_bandwidth().value() / link.bandwidth.value()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_alpha_plus_size_over_bandwidth() {
        let link = AlphaBeta::new(Seconds(1e-6), GBps(100.0));
        let t = link.message_time(Bytes(1e9));
        assert!((t.value() - (1e-6 + 0.01)).abs() < 1e-12);
        let t2 = link.steps_time(3, Bytes(1e9));
        assert!((t2.value() - 3.0 * t.value()).abs() < 1e-12);
    }

    #[test]
    fn defaults_reflect_paper_bandwidths() {
        assert_eq!(AlphaBeta::hbd_default().bandwidth, GBps(800.0));
        assert_eq!(AlphaBeta::dcn_default().bandwidth, GBps(50.0));
        assert!(AlphaBeta::hbd_default().alpha.value() < AlphaBeta::dcn_default().alpha.value());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_is_rejected() {
        let _ = AlphaBeta::new(Seconds(0.0), GBps(0.0));
    }

    #[test]
    fn effective_bandwidth_and_utilization() {
        let link = AlphaBeta::new(Seconds(0.0), GBps(100.0));
        let cost = CollectiveCost {
            steps: 4,
            bytes_per_rank: Bytes(50e9),
            time: Seconds(1.0),
        };
        assert!((cost.effective_bandwidth().value() - 50.0).abs() < 1e-9);
        assert!((cost.utilization(&link) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_time_collective_has_zero_bandwidth() {
        let cost = CollectiveCost {
            steps: 0,
            bytes_per_rank: Bytes(0.0),
            time: Seconds(0.0),
        };
        assert_eq!(cost.effective_bandwidth(), GBps::ZERO);
    }
}
