//! Ring-AllReduce: step structure, timing and bandwidth utilisation.
//!
//! The ring algorithm is bandwidth-optimal for AllReduce (§2.1): for `n` ranks
//! and a message of `S` bytes per rank, it runs `2(n − 1)` steps, each moving
//! `S / n` bytes per rank (a reduce-scatter phase followed by an all-gather
//! phase), for a total of `2S(n − 1)/n` bytes per rank — the TP traffic volume
//! of Table 3.
//!
//! §5.2 of the paper measures the ring on a 32-GPU prototype: large-message
//! AllReduce achieves 77.11 % of ring bandwidth on 16 GPUs and 77.26 % on 32
//! GPUs (essentially flat in ring size), versus 81.77 % on an NVLink-switched
//! 8-GPU node without SHARP. [`RingUtilization`] reproduces that comparison
//! with an efficiency model: the achievable utilisation is limited by a fixed
//! protocol efficiency plus the latency term, which shrinks as messages grow
//! and grows mildly with ring size.

use crate::cost_model::{AlphaBeta, CollectiveCost};
use hbd_types::Bytes;
use serde::{Deserialize, Serialize};

/// The ring AllReduce algorithm on `ranks` participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingAllReduce {
    /// Number of participating ranks.
    pub ranks: usize,
}

impl RingAllReduce {
    /// Creates a ring over `ranks` participants (at least 2).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 2, "a ring AllReduce needs at least two ranks");
        RingAllReduce { ranks }
    }

    /// Number of communication steps (reduce-scatter + all-gather).
    pub fn steps(&self) -> usize {
        2 * (self.ranks - 1)
    }

    /// Bytes sent per rank per step for a `message` of bytes per rank.
    fn bytes_per_step(&self, message: Bytes) -> Bytes {
        Bytes(message.value() / self.ranks as f64)
    }

    /// Total bytes sent per rank: `2·S·(n−1)/n` (Table 3's TP AllReduce volume).
    pub fn total_bytes_per_rank(&self, message: Bytes) -> Bytes {
        Bytes(2.0 * message.value() * (self.ranks as f64 - 1.0) / self.ranks as f64)
    }

    /// Cost of the collective on the given link.
    pub fn cost(&self, message: Bytes, link: &AlphaBeta) -> CollectiveCost {
        let steps = self.steps();
        let per_step = self.bytes_per_step(message);
        CollectiveCost {
            steps,
            bytes_per_rank: self.total_bytes_per_rank(message),
            time: link.steps_time(steps, per_step),
        }
    }
}

/// Bandwidth-utilisation model reproducing the §5.2 measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingUtilization {
    /// Protocol/framing efficiency of the direct GPU-to-GPU ring links
    /// (encoding overhead, flow-control credits, kernel launch gaps).
    pub ring_protocol_efficiency: f64,
    /// Protocol efficiency of the NVLink-switch path (slightly higher because
    /// the switch pipeline hides some per-hop overhead; the paper measures
    /// 81.77 % on an 8-GPU H100 node without SHARP).
    pub switch_protocol_efficiency: f64,
    /// Extra per-rank efficiency penalty per doubling of the ring size
    /// (pipeline fill/drain of the 2(n−1) steps).
    pub per_doubling_penalty: f64,
}

impl RingUtilization {
    /// Model calibrated to the §5.2 measurements.
    pub fn paper_calibrated() -> Self {
        RingUtilization {
            ring_protocol_efficiency: 0.778,
            switch_protocol_efficiency: 0.8177,
            per_doubling_penalty: 0.0008,
        }
    }

    /// Large-message AllReduce bandwidth utilisation of a ring of `ranks` GPUs.
    pub fn ring_utilization(&self, ranks: usize) -> f64 {
        assert!(ranks >= 2, "a ring needs at least two ranks");
        let doublings = (ranks as f64 / 16.0).log2().max(0.0);
        (self.ring_protocol_efficiency - self.per_doubling_penalty * doublings).clamp(0.0, 1.0)
    }

    /// Large-message AllReduce bandwidth utilisation of the NVLink-switch node.
    pub fn switch_utilization(&self) -> f64 {
        self.switch_protocol_efficiency
    }

    /// Small-message latency advantage of direct GPU-to-GPU links over the
    /// switched path (§5.2 reports ~13 % lower latency).
    pub fn direct_link_latency_reduction(&self) -> f64 {
        0.13
    }
}

impl Default for RingUtilization {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::{GBps, Seconds};

    #[test]
    fn step_and_volume_formulas() {
        let ring = RingAllReduce::new(8);
        assert_eq!(ring.steps(), 14);
        let msg = Bytes(8e9);
        assert!((ring.bytes_per_step(msg).value() - 1e9).abs() < 1e-3);
        assert!((ring.total_bytes_per_rank(msg).value() - 2.0 * 8e9 * 7.0 / 8.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_ring_is_rejected() {
        let _ = RingAllReduce::new(1);
    }

    #[test]
    fn large_message_utilization_approaches_the_bandwidth_bound() {
        // With zero latency the ring achieves the ideal 2(n-1)/n / (2(n-1)/n)
        // = full utilisation of the algorithm's own bound.
        let link = AlphaBeta::new(Seconds(0.0), GBps(100.0));
        let ring = RingAllReduce::new(16);
        let cost = ring.cost(Bytes(1e10), &link);
        assert!((cost.utilization(&link) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_hurts_small_messages_more() {
        let link = AlphaBeta::new(Seconds(5e-6), GBps(100.0));
        let ring = RingAllReduce::new(16);
        let small = ring.cost(Bytes(1e6), &link);
        let large = ring.cost(Bytes(1e10), &link);
        assert!(small.utilization(&link) < large.utilization(&link));
        assert!(large.utilization(&link) > 0.99);
        assert!(small.utilization(&link) < 0.7);
    }

    #[test]
    fn cost_time_grows_linearly_with_message_size_for_large_messages() {
        let link = AlphaBeta::hbd_default();
        let ring = RingAllReduce::new(32);
        let t1 = ring.cost(Bytes(1e9), &link).time.value();
        let t2 = ring.cost(Bytes(2e9), &link).time.value();
        assert!(t2 / t1 > 1.9 && t2 / t1 < 2.1);
    }

    #[test]
    fn utilization_model_matches_section_5_2() {
        let model = RingUtilization::paper_calibrated();
        let u16 = model.ring_utilization(16);
        let u32 = model.ring_utilization(32);
        assert!((u16 - 0.7711).abs() < 0.01, "16-GPU utilisation {u16}");
        assert!((u32 - 0.7726).abs() < 0.01, "32-GPU utilisation {u32}");
        // Minimal degradation with scaling - within a percentage point.
        assert!((u16 - u32).abs() < 0.01);
        assert!((model.switch_utilization() - 0.8177).abs() < 1e-9);
        // The switched node (without SHARP) is a few points higher than the ring.
        assert!(model.switch_utilization() > u32);
        assert!((model.direct_link_latency_reduction() - 0.13).abs() < 1e-9);
    }

    #[test]
    fn ring_utilization_degrades_slowly_with_size() {
        let model = RingUtilization::paper_calibrated();
        let u64 = model.ring_utilization(64);
        let u1024 = model.ring_utilization(1024);
        assert!(u1024 < u64);
        assert!(u64 - u1024 < 0.01, "degradation should stay small");
    }
}
