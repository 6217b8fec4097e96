//! Trace → discrete-event adapters for the control-plane simulator.
//!
//! A [`FaultTrace`] stores *intervals* (node, start, end); a discrete-event
//! simulator consumes *edges* (node went down at `t`, node came back at `t`).
//! [`trace_events`] performs that conversion with the same semantics as
//! [`FaultTrace::faulty_nodes_at`]: overlapping or touching intervals of one
//! node are merged first, so the resulting edge stream strictly alternates
//! fault/repair per node — exactly what a stateful cluster manager (which
//! rejects double faults) can replay. [`generate_events`] feeds the
//! renewal-process [`TraceGenerator`]'s repair periods straight into the same
//! merge, without building a trace, for seeded Poisson-style arrival
//! schedules. Both adapters order their edges once, in place.
//! [`validate_edges`] is the check the simulators run on any edge stream,
//! from these adapters or built by hand, before they schedule it.

use crate::event::FaultEvent;
use crate::generator::{GeneratorConfig, TraceGenerator};
use crate::trace::FaultTrace;
use hbd_types::{HbdError, NodeId, Result, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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
    // Group the faults by node. The sort is stable, so each node's faults
    // keep the trace's start-time order, which the merge needs.
    let mut faults: Vec<&FaultEvent> = trace.events().iter().collect();
    faults.sort_by_key(|event| event.node);
    let mut edges = EdgeBuilder::default();
    for event in faults {
        edges.fault(event.node, event.start.value(), event.end.value());
    }
    edges.finish()
}

/// Generates a seeded renewal-process (Poisson-style) edge stream: the
/// repair periods of a [`TraceGenerator`] driven by
/// `StdRng::seed_from_u64(seed)`, merged and ordered as [`trace_events`]
/// would convert the generator's trace. Deterministic in `(config, seed)`.
pub fn generate_events(config: &GeneratorConfig, seed: u64) -> Result<Vec<NodeEvent>> {
    let generator = TraceGenerator::new(*config)?;
    let mut edges = EdgeBuilder::default();
    generator.renew(&mut StdRng::seed_from_u64(seed), |node, start, end| {
        edges.fault(node, start, end);
    });
    Ok(edges.finish())
}

/// The per-node merge both adapters share. Fault intervals arrive grouped by
/// node and, within a node, in start-time order; each node's union of
/// non-empty intervals (touching ones joined) leaves as `Fault`/`Repair`
/// edge pairs, which [`finish`](Self::finish) orders once.
#[derive(Default)]
struct EdgeBuilder {
    edges: Vec<NodeEvent>,
    /// The open union: its node, start and end so far.
    open: Option<(NodeId, f64, f64)>,
}

impl EdgeBuilder {
    /// Adds the fault interval `[start, end)` of `node`.
    fn fault(&mut self, node: NodeId, start: f64, end: f64) {
        // A zero-length interval is never active, and a later start that
        // does not pass the open end keeps the node continuously down,
        // matching the half-open `active_at` query.
        if end > start {
            match &mut self.open {
                Some((open_node, _, open_end)) if *open_node == node && start <= *open_end => {
                    *open_end = open_end.max(end);
                }
                open => {
                    if let Some(closed) = open.replace((node, start, end)) {
                        push_edges(&mut self.edges, closed);
                    }
                }
            }
        }
    }

    /// The edges sorted by `(time, node, kind)`, `Fault` before `Repair`.
    fn finish(mut self) -> Vec<NodeEvent> {
        if let Some(closed) = self.open.take() {
            push_edges(&mut self.edges, closed);
        }
        // The order compares every field, and `total_cmp` calls two times
        // equal only when their bits are, so edges that compare equal are
        // identical and the unstable sort is exact. (After the merge there
        // are none: each node's edge times strictly increase.)
        self.edges.sort_unstable_by(edge_order);
        self.edges
    }
}

/// The edge order: time, then node, then `Fault` before `Repair`.
/// `total_cmp` keeps it total for any time a replayed trace may hold
/// (`-0.0` before `0.0`).
fn edge_order(a: &NodeEvent, b: &NodeEvent) -> Ordering {
    a.at.value()
        .total_cmp(&b.at.value())
        .then_with(|| a.node.cmp(&b.node))
        .then_with(|| (a.kind == NodeEventKind::Repair).cmp(&(b.kind == NodeEventKind::Repair)))
}

fn push_edges(edges: &mut Vec<NodeEvent>, (node, start, end): (NodeId, f64, f64)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `trace_events` as it was before the shared merge: one interval bucket
    /// per node, merged bucket by bucket, then a stable sort of all edges.
    fn trace_events_oracle(trace: &FaultTrace) -> Vec<NodeEvent> {
        let mut per_node: Vec<Vec<(f64, f64)>> = vec![Vec::new(); trace.nodes()];
        for event in trace.events() {
            if event.end.value() > event.start.value() {
                per_node[event.node.index()].push((event.start.value(), event.end.value()));
            }
        }
        let mut edges = Vec::new();
        for (node, intervals) in per_node.iter().enumerate() {
            let mut current: Option<(f64, f64)> = None;
            for &(start, end) in intervals {
                match current {
                    Some((cur_start, cur_end)) if start <= cur_end => {
                        current = Some((cur_start, cur_end.max(end)));
                    }
                    Some(closed) => {
                        push_edges(&mut edges, (NodeId(node), closed.0, closed.1));
                        current = Some((start, end));
                    }
                    None => current = Some((start, end)),
                }
            }
            if let Some((start, end)) = current {
                push_edges(&mut edges, (NodeId(node), start, end));
            }
        }
        edges.sort_by(edge_order);
        edges
    }

    /// The composition `generate_events` replaced: the generator's whole
    /// trace, then `trace_events`.
    fn generate_events_oracle(config: &GeneratorConfig, seed: u64) -> Result<Vec<NodeEvent>> {
        let generator = TraceGenerator::new(*config)?;
        Ok(trace_events(
            &generator.generate(&mut StdRng::seed_from_u64(seed)),
        ))
    }

    /// Pins `generate_events` to both oracles, checks that the stream is
    /// replayable and that consecutive edges strictly increase in the edge
    /// order; returns the edge count.
    fn assert_matches_the_oracles(config: &GeneratorConfig, seed: u64) -> usize {
        let edges = generate_events(config, seed).unwrap();
        let trace = TraceGenerator::new(*config)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(seed));
        assert_eq!(edges, generate_events_oracle(config, seed).unwrap());
        assert_eq!(edges, trace_events_oracle(&trace), "{config:?} seed {seed}");
        assert_strictly_ordered(&edges);
        validate_edges(&edges, config.nodes).unwrap();
        edges.len()
    }

    fn assert_strictly_ordered(edges: &[NodeEvent]) {
        for pair in edges.windows(2) {
            assert_eq!(
                edge_order(&pair[0], &pair[1]),
                Ordering::Less,
                "{:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn serving_scale_schedules_match_the_oracles() {
        // perfbench's serving histories: `serve_churn` (16,384 nodes x 256 h)
        // and `serve_steady` (4,096 nodes x 512 h), 2 % faulty, 1 h repairs.
        // Many nodes start faulty at t = 0 and many repairs are clamped to
        // the horizon, so equal times across nodes are common.
        for (nodes, hours) in [(16_384, 256.0), (4_096, 512.0)] {
            let config = GeneratorConfig {
                nodes,
                duration: Seconds::from_hours(hours),
                steady_state_fault_ratio: 0.02,
                mean_time_to_repair: Seconds::from_hours(1.0),
            };
            for seed in [1, 7, 21] {
                assert!(assert_matches_the_oracles(&config, seed) > 80_000);
            }
        }
    }

    /// A log-uniform span from 1 s to 10^4 h.
    fn span(unit: f64) -> Seconds {
        Seconds(Seconds::from_hours(1e4).value().powf(unit))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// `generate_events` equals the trace-then-convert composition bit
        /// for bit over random configurations.
        #[test]
        fn generated_schedules_match_the_oracles(
            nodes in 1usize..=300,
            (zero_ratio, ratio) in (0u8..4, 0.001f64..0.9),
            (mttr, duration) in (0.0f64..1.0, 0.0f64..1.0),
            seed in 0u64..u64::MAX,
        ) {
            let config = GeneratorConfig {
                nodes,
                duration: span(duration),
                steady_state_fault_ratio: if zero_ratio == 0 { 0.0 } else { ratio },
                mean_time_to_repair: span(mttr),
            };
            // Expected repair periods: `ratio` per node at t = 0, plus one
            // per mean renewal cycle `mttr / ratio`. Skip schedules too long
            // for a unit test.
            let expected = nodes as f64
                * config.steady_state_fault_ratio
                * (1.0 + config.duration.value() / config.mean_time_to_repair.value());
            prop_assume!(expected <= 5_000.0);
            assert_matches_the_oracles(&config, seed);
        }

        /// `trace_events` equals the per-node-bucket oracle on replayed traces
        /// whose integer times make overlapping, touching, zero-length and
        /// cross-node-equal intervals common.
        #[test]
        fn replayed_traces_match_the_bucket_oracle(
            nodes in 1usize..=40,
            intervals in proptest::collection::vec((0usize..40, 0u32..60, 0u32..8), 0..200),
        ) {
            let events = intervals
                .iter()
                .map(|&(node, start, length)| {
                    FaultEvent::new(
                        NodeId(node % nodes),
                        Seconds(f64::from(start)),
                        Seconds(f64::from(start + length)),
                    )
                })
                .collect();
            let trace = FaultTrace::new(nodes, Seconds(67.0), events).unwrap();
            let edges = trace_events(&trace);
            prop_assert_eq!(&edges, &trace_events_oracle(&trace));
            assert_strictly_ordered(&edges);
            validate_edges(&edges, nodes).unwrap();
        }
    }

    #[test]
    fn equal_edge_times_across_nodes_order_by_node_then_kind() {
        // 48 nodes fail at t = 10 and come back at t = 20, and node 0 also
        // has overlapping, touching and zero-length intervals: the order must
        // break every time tie by node, strictly.
        let mut events: Vec<FaultEvent> = (0..48)
            .rev()
            .map(|node| FaultEvent::new(NodeId(node), Seconds(10.0), Seconds(20.0)))
            .collect();
        events.extend([
            FaultEvent::new(NodeId(0), Seconds(15.0), Seconds(30.0)), // overlapping
            FaultEvent::new(NodeId(0), Seconds(30.0), Seconds(40.0)), // touching
            FaultEvent::new(NodeId(0), Seconds(45.0), Seconds(45.0)), // zero length
            FaultEvent::new(NodeId(1), Seconds(20.0), Seconds(20.0)), // zero length at a repair
        ]);
        let trace = FaultTrace::new(48, Seconds(50.0), events).unwrap();
        let edges = trace_events(&trace);
        assert_eq!(edges, trace_events_oracle(&trace));
        assert_strictly_ordered(&edges);
        assert_eq!(edges.len(), 96);
        assert_eq!(
            edges
                .iter()
                .filter(|e| e.node == NodeId(0))
                .collect::<Vec<_>>(),
            [
                &edge(10.0, 0, NodeEventKind::Fault),
                &edge(40.0, 0, NodeEventKind::Repair)
            ]
        );
        validate_edges(&edges, 48).unwrap();
    }

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
