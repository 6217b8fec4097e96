//! Trace → discrete-event adapters for the control-plane simulator.
//!
//! A [`FaultTrace`] stores *intervals* (node, start, end); a discrete-event
//! simulator consumes *edges* (node went down at `t`, node came back at `t`).
//! [`trace_events`] performs that conversion with the same semantics as
//! [`FaultTrace::faulty_nodes_at`]: overlapping or touching intervals of one
//! node are merged first, so the resulting edge stream strictly alternates
//! fault/repair per node — exactly what a stateful cluster manager (which
//! rejects double faults) can replay. [`generate_events`] composes the
//! renewal-process [`TraceGenerator`] with the adapter for seeded Poisson-style
//! arrival schedules. [`validate_edges`] is the check the simulators run on
//! any edge stream, from these adapters or built by hand, before they
//! schedule it.

use crate::generator::{GeneratorConfig, TraceGenerator};
use crate::trace::FaultTrace;
use hbd_types::{HbdError, NodeId, Result, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The direction of a node-availability edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeEventKind {
    /// The node left service.
    Fault,
    /// The node returned to service.
    Repair,
}

/// One node-availability edge, ready for an event queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeEvent {
    /// When the edge occurs.
    pub at: Seconds,
    /// The node whose availability changes.
    pub node: NodeId,
    /// Whether the node goes down or comes back.
    pub kind: NodeEventKind,
}

/// Converts a fault trace into a time-ordered fault/repair edge stream.
///
/// Per node, overlapping and touching fault intervals are merged (union), so
/// edges strictly alternate `Fault`/`Repair` with strictly increasing times —
/// a node is reported down exactly while [`FaultTrace::faulty_nodes_at`] would
/// report it down. Zero-length intervals (never active under the trace's
/// half-open `[start, end)` semantics) produce no edges. A repair that
/// coincides with the trace end is still emitted: the simulator decides
/// whether to process edges at the horizon.
///
/// The output is sorted by `(time, node, kind)`, a total order, so the edge
/// stream is deterministic for a given trace.
pub fn trace_events(trace: &FaultTrace) -> Vec<NodeEvent> {
    // Bucket intervals per node (events() is already sorted by start time).
    let mut per_node: Vec<Vec<(f64, f64)>> = vec![Vec::new(); trace.nodes()];
    for event in trace.events() {
        if event.end.value() > event.start.value() {
            per_node[event.node.index()].push((event.start.value(), event.end.value()));
        }
    }
    let mut edges = Vec::new();
    for (node, intervals) in per_node.iter().enumerate() {
        let mut current: Option<(f64, f64)> = None;
        // Intervals inherit the trace's start-time order; touching intervals
        // (next.start <= current.end) keep the node continuously down and are
        // merged, matching the half-open `active_at` query.
        for &(start, end) in intervals {
            match current {
                Some((cur_start, cur_end)) if start <= cur_end => {
                    current = Some((cur_start, cur_end.max(end)));
                }
                Some((cur_start, cur_end)) => {
                    push_edges(&mut edges, NodeId(node), cur_start, cur_end);
                    current = Some((start, end));
                }
                None => current = Some((start, end)),
            }
        }
        if let Some((start, end)) = current {
            push_edges(&mut edges, NodeId(node), start, end);
        }
    }
    edges.sort_by(|a, b| {
        a.at.value()
            .total_cmp(&b.at.value())
            .then_with(|| a.node.cmp(&b.node))
            .then_with(|| (a.kind == NodeEventKind::Repair).cmp(&(b.kind == NodeEventKind::Repair)))
    });
    edges
}

fn push_edges(edges: &mut Vec<NodeEvent>, node: NodeId, start: f64, end: f64) {
    edges.push(NodeEvent {
        at: Seconds(start),
        node,
        kind: NodeEventKind::Fault,
    });
    edges.push(NodeEvent {
        at: Seconds(end),
        node,
        kind: NodeEventKind::Repair,
    });
}

/// Checks that `edges` is a stream a stateful consumer can replay over a
/// cluster of `nodes` nodes: every edge names a node in range
/// ([`HbdError::UnknownEntity`] otherwise) at a finite, non-negative time
/// ([`HbdError::InvalidConfig`] otherwise: a simulator's clock starts at
/// zero and never runs backwards), and per node, in stream order,
/// the edges alternate `Fault`/`Repair` starting with a `Fault`, at strictly
/// increasing times ([`HbdError::InvalidOperation`] otherwise: a node that
/// faults while down, is repaired while up, or changes state twice at one
/// instant). Both adapters above produce such streams. The stream need not
/// be sorted across nodes.
pub fn validate_edges(edges: &[NodeEvent], nodes: usize) -> Result<()> {
    // Per node, the time and direction of its latest edge so far.
    let mut latest: Vec<Option<(f64, NodeEventKind)>> = vec![None; nodes];
    for edge in edges {
        let Some(slot) = latest.get_mut(edge.node.index()) else {
            return Err(HbdError::unknown_entity(format!("{}", edge.node)));
        };
        let at = edge.at.value();
        if !edge.at.is_finite_non_negative() {
            return Err(HbdError::invalid_config(format!(
                "{:?} edge of {} at time {at}, which is not finite and >= 0",
                edge.kind, edge.node
            )));
        }
        let expected = match slot {
            Some((_, NodeEventKind::Fault)) => NodeEventKind::Repair,
            _ => NodeEventKind::Fault,
        };
        if edge.kind != expected {
            return Err(HbdError::invalid_operation(format!(
                "{:?} edge of {} at t = {at}: the node's edges must alternate, starting with a Fault",
                edge.kind, edge.node
            )));
        }
        if let Some((previous, _)) = *slot {
            if at <= previous {
                return Err(HbdError::invalid_operation(format!(
                    "{:?} edge of {} at t = {at} is not after its previous edge at t = {previous}",
                    edge.kind, edge.node
                )));
            }
        }
        *slot = Some((at, edge.kind));
    }
    Ok(())
}

/// Generates a seeded renewal-process (Poisson-style) edge stream: a
/// [`TraceGenerator`] trace driven by `StdRng::seed_from_u64(seed)`, converted
/// through [`trace_events`]. Deterministic in `(config, seed)`.
pub fn generate_events(config: &GeneratorConfig, seed: u64) -> Result<Vec<NodeEvent>> {
    let generator = TraceGenerator::new(*config)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(trace_events(&generator.generate(&mut rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultEvent;

    fn replayed_state(edges: &[NodeEvent], nodes: usize, t: Seconds) -> Vec<NodeId> {
        let mut down = vec![false; nodes];
        for edge in edges.iter().filter(|e| e.at.value() <= t.value()) {
            // Half-open [start, end): an edge exactly at `t` has taken effect
            // for Fault but a Repair at `t` has too (node back in service).
            down[edge.node.index()] = edge.kind == NodeEventKind::Fault;
        }
        (0..nodes).filter(|&n| down[n]).map(NodeId).collect()
    }

    #[test]
    fn overlapping_intervals_merge_into_alternating_edges() {
        let trace = FaultTrace::new(
            4,
            Seconds(100.0),
            vec![
                FaultEvent::new(NodeId(1), Seconds(10.0), Seconds(40.0)),
                FaultEvent::new(NodeId(1), Seconds(30.0), Seconds(60.0)),
                FaultEvent::new(NodeId(1), Seconds(60.0), Seconds(70.0)), // touching
                FaultEvent::new(NodeId(1), Seconds(80.0), Seconds(90.0)), // separate
                FaultEvent::new(NodeId(2), Seconds(50.0), Seconds(50.0)), // zero length
            ],
        )
        .unwrap();
        let edges = trace_events(&trace);
        let node1: Vec<(f64, NodeEventKind)> = edges
            .iter()
            .filter(|e| e.node == NodeId(1))
            .map(|e| (e.at.value(), e.kind))
            .collect();
        assert_eq!(
            node1,
            vec![
                (10.0, NodeEventKind::Fault),
                (70.0, NodeEventKind::Repair),
                (80.0, NodeEventKind::Fault),
                (90.0, NodeEventKind::Repair),
            ]
        );
        // The zero-length interval is never active and emits nothing.
        assert!(edges.iter().all(|e| e.node != NodeId(2)));
    }

    #[test]
    fn replaying_edges_reproduces_the_trace_fault_sets() {
        let generator = TraceGenerator::new(GeneratorConfig {
            nodes: 30,
            duration: Seconds::from_days(20.0),
            steady_state_fault_ratio: 0.1,
            mean_time_to_repair: Seconds::from_hours(6.0),
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let trace = generator.generate(&mut rng);
        let edges = trace_events(&trace);
        assert!(!edges.is_empty());
        // Edge stream is time-ordered.
        assert!(edges.windows(2).all(|w| w[0].at.value() <= w[1].at.value()));
        // Replaying the edges reproduces faulty_nodes_at at arbitrary probes
        // (offset from edge instants so half-open boundary semantics cannot
        // differ between the two representations).
        for day in [0.5f64, 3.1, 7.7, 13.4, 19.9] {
            let t = Seconds::from_days(day);
            assert_eq!(
                replayed_state(&edges, 30, t),
                trace.faulty_nodes_at(t),
                "day {day}"
            );
        }
    }

    #[test]
    fn per_node_edges_strictly_alternate() {
        let edges = generate_events(
            &GeneratorConfig {
                nodes: 20,
                duration: Seconds::from_days(10.0),
                steady_state_fault_ratio: 0.2,
                mean_time_to_repair: Seconds::from_hours(4.0),
            },
            3,
        )
        .unwrap();
        for node in 0..20 {
            let kinds: Vec<NodeEventKind> = edges
                .iter()
                .filter(|e| e.node == NodeId(node))
                .map(|e| e.kind)
                .collect();
            for (i, kind) in kinds.iter().enumerate() {
                let expected = if i % 2 == 0 {
                    NodeEventKind::Fault
                } else {
                    NodeEventKind::Repair
                };
                assert_eq!(*kind, expected, "node {node} edge {i}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let config = GeneratorConfig {
            nodes: 16,
            duration: Seconds::from_days(5.0),
            steady_state_fault_ratio: 0.15,
            mean_time_to_repair: Seconds::from_hours(2.0),
        };
        let a = generate_events(&config, 11).unwrap();
        let b = generate_events(&config, 11).unwrap();
        let c = generate_events(&config, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    fn edge(at: f64, node: usize, kind: NodeEventKind) -> NodeEvent {
        NodeEvent {
            at: Seconds(at),
            node: NodeId(node),
            kind,
        }
    }

    #[test]
    fn generated_streams_pass_the_edge_validator() {
        let config = GeneratorConfig {
            nodes: 32,
            duration: Seconds::from_days(20.0),
            steady_state_fault_ratio: 0.2,
            mean_time_to_repair: Seconds::from_hours(3.0),
        };
        for seed in 0..8 {
            let edges = generate_events(&config, seed).unwrap();
            assert!(!edges.is_empty());
            validate_edges(&edges, config.nodes).unwrap();
        }
    }

    #[test]
    fn edge_validator_rejects_each_malformed_stream() {
        use NodeEventKind::{Fault, Repair};
        let ok = [
            edge(1.0, 0, Fault),
            edge(1.0, 1, Fault),
            edge(2.0, 0, Repair),
        ];
        validate_edges(&ok, 2).unwrap();
        let (unknown, config, operation) = (
            HbdError::unknown_entity(""),
            HbdError::invalid_config(""),
            HbdError::invalid_operation(""),
        );
        let cases: [(&[NodeEvent], &HbdError); 8] = [
            (&[edge(1.0, 2, Fault)], &unknown),
            (&[edge(f64::NAN, 0, Fault)], &config),
            (&[edge(f64::INFINITY, 0, Fault)], &config),
            (&[edge(-5.0, 0, Fault)], &config),
            (
                &[edge(1.0, 0, Fault), edge(f64::NEG_INFINITY, 1, Fault)],
                &config,
            ),
            // A doubled Fault, a Repair first, and a Repair at the instant
            // of its Fault.
            (&[edge(1.0, 0, Fault), edge(2.0, 0, Fault)], &operation),
            (&[edge(1.0, 1, Repair)], &operation),
            (&[edge(1.0, 0, Fault), edge(1.0, 0, Repair)], &operation),
        ];
        for (edges, expected) in cases {
            let err = validate_edges(edges, 2).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&err),
                std::mem::discriminant(expected),
                "{edges:?}: {err}"
            );
        }
    }

    #[test]
    fn node_event_serde_shape_is_pinned() {
        let event = NodeEvent {
            at: Seconds(12.5),
            node: NodeId(7),
            kind: NodeEventKind::Fault,
        };
        let json = serde_json::to_string(&event).unwrap();
        // Keys serialise in alphabetical order (the serde shim's map layout).
        assert_eq!(json, r#"{"at":12.5,"kind":"Fault","node":7}"#);
        let back: NodeEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }
}
