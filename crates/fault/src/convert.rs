//! The Appendix-A conversion of an 8-GPU-node fault trace into a 4-GPU-node
//! trace.
//!
//! The production trace was collected on 8-GPU nodes, but most of the
//! evaluation simulates 4-GPU nodes (GB200-style trays). Appendix A derives the
//! conversion under the assumption that GPU faults are i.i.d.:
//!
//! * the 8-GPU node fault probability 2.33 % implies a per-GPU fault
//!   probability `p` with `1 − (1 − p)⁸ = 2.33 %`, i.e. `p ≈ 0.29 %`;
//! * a 4-GPU node then faults with probability `1 − (1 − p)⁴ ≈ 1.17 %`;
//! * by Bayes' rule, given that an 8-GPU node is faulty, each of the two 4-GPU
//!   half-nodes at the same physical position is faulty with probability
//!   `P(4-GPU | 8-GPU) = P(4-GPU) / P(8-GPU) ≈ 50.21 %`.
//!
//! The conversion therefore maps every 8-GPU node `n` onto 4-GPU nodes `2n` and
//! `2n + 1` and keeps each fault event on each half independently with that
//! probability.

use crate::event::FaultEvent;
use crate::trace::FaultTrace;
use hbd_types::NodeId;
use rand::Rng;

/// Per-GPU fault probability implied by an 8-GPU-node fault probability.
fn per_gpu_fault_probability(node8_fault_probability: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&node8_fault_probability),
        "probability must lie in [0, 1)"
    );
    1.0 - (1.0 - node8_fault_probability).powf(1.0 / 8.0)
}

/// 4-GPU-node fault probability implied by an 8-GPU-node fault probability.
fn node4_fault_probability(node8_fault_probability: f64) -> f64 {
    let p = per_gpu_fault_probability(node8_fault_probability);
    1.0 - (1.0 - p).powi(4)
}

/// The Bayesian keep probability: given a faulty 8-GPU node, the probability
/// that a specific 4-GPU half is faulty.
fn conversion_probability(node8_fault_probability: f64) -> f64 {
    if node8_fault_probability <= 0.0 {
        return 0.0;
    }
    node4_fault_probability(node8_fault_probability) / node8_fault_probability
}

/// Converts an 8-GPU-node fault trace into a 4-GPU-node trace with twice the
/// node count, applying the Appendix-A Bayesian thinning. Deterministic for a
/// given RNG seed.
pub fn convert_8gpu_to_4gpu<R: Rng + ?Sized>(
    trace: &FaultTrace,
    node8_fault_probability: f64,
    rng: &mut R,
) -> FaultTrace {
    let keep = conversion_probability(node8_fault_probability);
    let mut events = Vec::new();
    for event in trace.events() {
        for half in 0..2 {
            if rng.gen::<f64>() < keep {
                events.push(FaultEvent::new(
                    NodeId(event.node.index() * 2 + half),
                    event.start,
                    event.end,
                ));
            }
        }
    }
    FaultTrace::new(trace.nodes() * 2, trace.duration(), events)
        .expect("converted events stay in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbd_types::Seconds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_match_the_appendix_numbers() {
        let p = per_gpu_fault_probability(0.0233);
        assert!((p - 0.0029).abs() < 2e-4, "per-GPU probability {p}");
        let p4 = node4_fault_probability(0.0233);
        assert!((p4 - 0.0117).abs() < 4e-4, "4-GPU node probability {p4}");
        let keep = conversion_probability(0.0233);
        assert!(
            (keep - 0.5021).abs() < 0.01,
            "conversion probability {keep}"
        );
    }

    #[test]
    fn conversion_probability_of_zero_is_zero() {
        assert_eq!(conversion_probability(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_is_rejected() {
        let _ = per_gpu_fault_probability(1.5);
    }

    #[test]
    fn converted_trace_doubles_the_node_count() {
        let trace = FaultTrace::new(
            10,
            Seconds(1000.0),
            vec![FaultEvent::new(NodeId(3), Seconds(0.0), Seconds(100.0))],
        )
        .unwrap();
        let converted = convert_8gpu_to_4gpu(&trace, 0.0233, &mut StdRng::seed_from_u64(1));
        assert_eq!(converted.nodes(), 20);
        assert_eq!(converted.duration(), Seconds(1000.0));
        for event in converted.events() {
            assert!(event.node == NodeId(6) || event.node == NodeId(7));
            assert_eq!(event.start, Seconds(0.0));
            assert_eq!(event.end, Seconds(100.0));
        }
    }

    #[test]
    fn roughly_half_of_the_fault_mass_survives_conversion() {
        // Many events so the law of large numbers applies.
        let events: Vec<FaultEvent> = (0..100)
            .map(|n| FaultEvent::new(NodeId(n), Seconds(0.0), Seconds(10.0)))
            .collect();
        let trace = FaultTrace::new(100, Seconds(100.0), events).unwrap();
        let converted = convert_8gpu_to_4gpu(&trace, 0.0233, &mut StdRng::seed_from_u64(2));
        // 100 events x 2 halves x ~50.21% keep ~ 100 surviving events.
        let survivors = converted.len();
        assert!(
            (70..=130).contains(&survivors),
            "expected roughly 100 surviving events, got {survivors}"
        );
    }

    #[test]
    fn conversion_is_deterministic_for_a_seed() {
        let trace = FaultTrace::new(
            5,
            Seconds(50.0),
            vec![
                FaultEvent::new(NodeId(0), Seconds(0.0), Seconds(10.0)),
                FaultEvent::new(NodeId(4), Seconds(20.0), Seconds(30.0)),
            ],
        )
        .unwrap();
        let a = convert_8gpu_to_4gpu(&trace, 0.0233, &mut StdRng::seed_from_u64(9));
        let b = convert_8gpu_to_4gpu(&trace, 0.0233, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
