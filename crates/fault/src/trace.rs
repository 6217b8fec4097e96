//! The fault trace container: a time-ordered collection of fault events over a
//! fixed-size cluster, with the instantaneous fault-set query the cluster
//! simulator replays (§6.2).

use crate::event::FaultEvent;
use hbd_types::{HbdError, NodeId, Result, Seconds};

/// A fault trace over a cluster of `nodes` nodes and `duration` of wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrace {
    nodes: usize,
    duration: Seconds,
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// Creates a trace, validating that the duration is finite and positive,
    /// and that every event references an in-range node and spans finite,
    /// non-negative times with `start <= end <= duration`. Events are stored
    /// sorted by start time.
    pub fn new(nodes: usize, duration: Seconds, mut events: Vec<FaultEvent>) -> Result<Self> {
        if nodes == 0 {
            return Err(HbdError::invalid_config("a trace needs at least one node"));
        }
        if !(duration.is_finite() && duration.value() > 0.0) {
            return Err(HbdError::invalid_config(format!(
                "trace duration must be finite and positive, got {duration}"
            )));
        }
        for event in &events {
            if event.node.index() >= nodes {
                return Err(HbdError::unknown_entity(format!(
                    "{} in a {nodes}-node trace",
                    event.node
                )));
            }
            // This is the one check of a fault interval: `FaultEvent::new`
            // and struct literals accept any times. NaN fails every check.
            if !(event.start.is_finite_non_negative()
                && event.start.value() <= event.end.value()
                && event.end.value() <= duration.value())
            {
                return Err(HbdError::invalid_config(format!(
                    "fault on {} ({} .. {}) is not a finite interval within the trace duration {duration}",
                    event.node, event.start, event.end
                )));
            }
        }
        events.sort_by(|a, b| {
            a.start
                .value()
                .partial_cmp(&b.start.value())
                .expect("fault times are finite after the checks above")
        });
        Ok(FaultTrace {
            nodes,
            duration,
            events,
        })
    }

    /// Number of nodes covered by the trace.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total duration of the trace.
    pub fn duration(&self) -> Seconds {
        self.duration
    }

    /// All fault events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no fault events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The nodes that are out of service at time `t`, in ascending order and
    /// without duplicates (a node with overlapping fault records is reported
    /// once).
    pub fn faulty_nodes_at(&self, t: Seconds) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .events
            .iter()
            .filter(|e| e.active_at(t))
            .map(|e| e.node)
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Samples the trace at `samples` evenly spaced instants, returning
    /// `(time, faulty node set)` pairs. This is the replay loop every
    /// fault-resilience experiment uses.
    ///
    /// Event-driven: instead of scanning every event at every instant
    /// (O(samples × events)), each event is bucketed into the few instants it
    /// covers — O(events × instants-per-event + samples). Which instants an
    /// event covers is decided by the *same* `active_at(t_i)` comparison the
    /// per-instant scan would make (the arithmetic index range is only a
    /// conservative pre-filter), so the output is identical to querying
    /// [`faulty_nodes_at`](Self::faulty_nodes_at) instant by instant.
    pub fn sample(&self, samples: usize) -> Vec<(Seconds, Vec<NodeId>)> {
        assert!(samples > 0, "need at least one sample");
        let duration = self.duration.value();
        let instant = |i: usize| Seconds(duration * i as f64 / samples as f64);
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); samples];
        for event in &self.events {
            // Conservative candidate range around [start, end), padded by one
            // instant on each side against floating-point rounding; the exact
            // `active_at` test below makes the final call.
            let lo = (event.start.value() * samples as f64 / duration).floor() as usize;
            let lo = lo.saturating_sub(1);
            let hi = (event.end.value() * samples as f64 / duration).ceil() as usize;
            let hi = hi.saturating_add(1).min(samples);
            for (i, bucket) in buckets.iter_mut().enumerate().take(hi).skip(lo) {
                if event.active_at(instant(i)) {
                    bucket.push(event.node);
                }
            }
        }
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, mut nodes)| {
                nodes.sort();
                nodes.dedup();
                (instant(i), nodes)
            })
            .collect()
    }

    /// Mean time to repair over all events (zero when the trace is empty).
    pub fn mean_repair_time(&self) -> Seconds {
        if self.events.is_empty() {
            return Seconds::ZERO;
        }
        let total: f64 = self.events.iter().map(|e| e.duration().value()).sum();
        Seconds(total / self.events.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_trace() -> FaultTrace {
        FaultTrace::new(
            10,
            Seconds(1000.0),
            vec![
                FaultEvent::new(NodeId(2), Seconds(100.0), Seconds(300.0)),
                FaultEvent::new(NodeId(5), Seconds(250.0), Seconds(600.0)),
                FaultEvent::new(NodeId(2), Seconds(700.0), Seconds(900.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(FaultTrace::new(0, Seconds(10.0), vec![]).is_err());
        assert!(FaultTrace::new(5, Seconds(0.0), vec![]).is_err());
        assert!(FaultTrace::new(
            5,
            Seconds(10.0),
            vec![FaultEvent::new(NodeId(9), Seconds(0.0), Seconds(1.0))]
        )
        .is_err());
        assert!(FaultTrace::new(
            5,
            Seconds(10.0),
            vec![FaultEvent::new(NodeId(1), Seconds(5.0), Seconds(20.0))]
        )
        .is_err());
    }

    #[test]
    fn non_finite_or_inverted_times_are_an_error_not_a_panic() {
        let event = |start: f64, end: f64| FaultEvent::new(NodeId(0), Seconds(start), Seconds(end));
        for duration in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                FaultTrace::new(2, Seconds(duration), vec![]),
                Err(HbdError::InvalidConfig { .. })
            ));
        }
        for (start, end) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (f64::NEG_INFINITY, 1.0),
            (1.0, f64::INFINITY),
            (-1.0, 1.0),
            (5.0, 4.0),
        ] {
            // Two bad events used to reach the start-time sort's `expect`.
            let events = vec![event(start, end), event(start, end)];
            assert!(
                matches!(
                    FaultTrace::new(2, Seconds(10.0), events),
                    Err(HbdError::InvalidConfig { .. })
                ),
                "[{start}, {end})"
            );
        }
        assert!(
            FaultTrace::new(2, Seconds(10.0), vec![event(-0.0, 0.0), event(10.0, 10.0)]).is_ok()
        );
    }

    #[test]
    fn events_are_sorted_by_start() {
        let trace = FaultTrace::new(
            4,
            Seconds(100.0),
            vec![
                FaultEvent::new(NodeId(1), Seconds(50.0), Seconds(60.0)),
                FaultEvent::new(NodeId(0), Seconds(10.0), Seconds(20.0)),
            ],
        )
        .unwrap();
        assert_eq!(trace.events()[0].node, NodeId(0));
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn faulty_nodes_at_reflects_overlaps() {
        let trace = simple_trace();
        assert!(trace.faulty_nodes_at(Seconds(50.0)).is_empty());
        assert_eq!(trace.faulty_nodes_at(Seconds(150.0)), vec![NodeId(2)]);
        assert_eq!(
            trace.faulty_nodes_at(Seconds(275.0)),
            vec![NodeId(2), NodeId(5)]
        );
        assert_eq!(trace.faulty_nodes_at(Seconds(800.0)), vec![NodeId(2)]);
    }

    #[test]
    fn duplicate_concurrent_faults_are_reported_once() {
        let trace = FaultTrace::new(
            4,
            Seconds(100.0),
            vec![
                FaultEvent::new(NodeId(1), Seconds(0.0), Seconds(50.0)),
                FaultEvent::new(NodeId(1), Seconds(10.0), Seconds(60.0)),
            ],
        )
        .unwrap();
        assert_eq!(trace.faulty_nodes_at(Seconds(20.0)), vec![NodeId(1)]);
    }

    #[test]
    fn sampling_covers_the_whole_duration() {
        let trace = simple_trace();
        let samples = trace.sample(10);
        assert_eq!(samples.len(), 10);
        assert_eq!(samples[0].0, Seconds(0.0));
        assert!(samples[9].0.value() < 1000.0);
    }

    #[test]
    fn event_driven_sampling_matches_per_instant_queries() {
        // The bucketed sample() must agree exactly with querying
        // faulty_nodes_at at every instant, including at event boundaries
        // that coincide with sample instants (t = 100 is active, t = 300 is
        // not: [start, end) semantics).
        let trace = FaultTrace::new(
            10,
            Seconds(1000.0),
            vec![
                FaultEvent::new(NodeId(2), Seconds(100.0), Seconds(300.0)),
                FaultEvent::new(NodeId(5), Seconds(250.0), Seconds(600.0)),
                FaultEvent::new(NodeId(2), Seconds(700.0), Seconds(900.0)),
                FaultEvent::new(NodeId(5), Seconds(0.0), Seconds(1000.0)),
                FaultEvent::new(NodeId(9), Seconds(500.0), Seconds(500.0)),
            ],
        )
        .unwrap();
        for samples in [1usize, 7, 10, 100, 348] {
            let sampled = trace.sample(samples);
            assert_eq!(sampled.len(), samples);
            for (i, (t, nodes)) in sampled.iter().enumerate() {
                let expect_t = Seconds(1000.0 * i as f64 / samples as f64);
                assert_eq!(*t, expect_t);
                assert_eq!(nodes, &trace.faulty_nodes_at(*t), "instant {t}");
            }
        }
    }

    #[test]
    fn boundary_instants_follow_the_half_open_convention() {
        // Events whose start/end land *exactly* on sample instants: the
        // closed-start/open-end convention of `active_at` must hold at the
        // boundary itself, and the event-driven `sample` path must agree with
        // `active_at` at exactly those instants (its candidate-bucket
        // prefilter is conservative; the exact test makes the final call).
        //
        // Duration 100, 10 samples -> instants at 0, 10, ..., 90, all exact
        // in binary floating point, so no rounding can mask an off-by-one.
        let trace = FaultTrace::new(
            8,
            Seconds(100.0),
            vec![
                FaultEvent::new(NodeId(1), Seconds(10.0), Seconds(30.0)), // both on-grid
                FaultEvent::new(NodeId(2), Seconds(0.0), Seconds(20.0)),  // starts at t=0
                FaultEvent::new(NodeId(3), Seconds(90.0), Seconds(100.0)), // runs to the horizon
                FaultEvent::new(NodeId(4), Seconds(50.0), Seconds(50.0)), // zero length
            ],
        )
        .unwrap();

        // The trace orders events by start time; look them up by node.
        let event_of = |node: usize| {
            *trace
                .events()
                .iter()
                .find(|e| e.node == NodeId(node))
                .unwrap()
        };
        // Closed start: active the instant the fault begins.
        assert!(event_of(1).active_at(Seconds(10.0)));
        // Open end: no longer active the instant the repair lands.
        assert!(!event_of(1).active_at(Seconds(30.0)));
        // A zero-length event is never active, not even at its own instant.
        assert!(!event_of(4).active_at(Seconds(50.0)));
        // `overlaps` uses the same half-open convention on both sides.
        assert!(!event_of(1).overlaps(Seconds(30.0), Seconds(40.0)));
        assert!(!event_of(1).overlaps(Seconds(0.0), Seconds(10.0)));
        assert!(event_of(1).overlaps(Seconds(10.0), Seconds(11.0)));

        let sampled = trace.sample(10);
        let at = |i: usize| -> &[NodeId] { &sampled[i].1 };
        // t=10: node 1 just failed (closed start), node 2 still down.
        assert_eq!(at(1), &[NodeId(1), NodeId(2)]);
        // t=20: node 2's repair lands exactly here (open end) — only node 1.
        assert_eq!(at(2), &[NodeId(1)]);
        // t=30: node 1's repair lands exactly here — nobody is down.
        assert!(at(3).is_empty());
        // t=50: the zero-length event contributes nothing.
        assert!(at(5).is_empty());
        // t=90: the horizon-touching fault is active at its start instant.
        assert_eq!(at(9), &[NodeId(3)]);

        // And the full cross-check: every sampled bucket equals the
        // point-query at the same instant.
        for (t, nodes) in &sampled {
            assert_eq!(nodes, &trace.faulty_nodes_at(*t), "instant {t}");
        }
    }

    #[test]
    fn mean_repair_time() {
        let trace = simple_trace();
        // Durations: 200, 350, 200 -> mean 250.
        assert!((trace.mean_repair_time().value() - 250.0).abs() < 1e-9);
        let empty = FaultTrace::new(4, Seconds(10.0), vec![]).unwrap();
        assert_eq!(empty.mean_repair_time(), Seconds::ZERO);
    }
}
