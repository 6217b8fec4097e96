//! The control-plane event timeline.
//!
//! Every action the cluster manager takes is recorded with its wall-clock
//! timestamp, so experiments can reconstruct the full fault-handling sequence
//! (fault detected → plan computed → commands applied → ring restored) and
//! measure the end-to-end recovery latency the paper attributes to the 60–80 µs
//! OCSTrx reconfiguration.

use crate::plan::BundleAction;
use hbd_types::{Microseconds, NodeId, Seconds};
use serde::Serialize;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ControlEventKind {
    /// The cluster manager learned that a node failed.
    FaultDetected {
        /// The faulty node.
        node: NodeId,
    },
    /// The cluster manager learned that a node came back.
    RepairDetected {
        /// The repaired node.
        node: NodeId,
    },
    /// A new ring plan was computed.
    PlanComputed {
        /// Number of reconfiguration commands the plan diff produced.
        commands: usize,
    },
    /// One command was executed by a fabric manager.
    CommandApplied {
        /// The node whose bundle switched.
        node: NodeId,
        /// The bundle index.
        bundle: usize,
        /// The action applied.
        action: BundleAction,
        /// Hardware switching latency of this command.
        latency: Microseconds,
    },
    /// All commands finished; the surviving segments carry traffic again.
    RingRestored {
        /// Number of healthy segments after recovery.
        segments: usize,
    },
    /// An event was reported with a timestamp earlier than the manager's
    /// clock and was clamped to the current time (the manager's documented
    /// policy for out-of-order observations; the timeline stays monotone).
    EventTimeClamped {
        /// The stale timestamp the caller reported.
        requested: Seconds,
    },
}

/// A timestamped control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ControlEvent {
    /// Simulation time at which the event occurred.
    pub at: Seconds,
    /// The event itself.
    pub kind: ControlEventKind,
}

/// An append-only log of control-plane events.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Timeline {
    events: Vec<ControlEvent>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, at: Seconds, kind: ControlEventKind) {
        self.events.push(ControlEvent { at, kind });
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of commands applied over the whole timeline.
    pub fn commands_applied(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::CommandApplied { .. }))
            .count()
    }

    /// Total hardware switching time accumulated over the whole timeline.
    pub fn total_switching_time(&self) -> Microseconds {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                ControlEventKind::CommandApplied { latency, .. } => Some(latency),
                _ => None,
            })
            .fold(Microseconds::ZERO, |a, b| a + b)
    }

    /// Whether timestamps are non-decreasing in insertion order — the
    /// replayability property the cluster manager's clock clamping and the
    /// simulator's event-queue ordering both guarantee.
    #[cfg(test)]
    pub(crate) fn is_monotone(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| w[0].at.value() <= w[1].at.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_accumulates_events_in_order() {
        let mut timeline = Timeline::new();
        assert!(timeline.is_empty());
        timeline.push(
            Seconds(1.0),
            ControlEventKind::FaultDetected { node: NodeId(4) },
        );
        timeline.push(Seconds(1.0), ControlEventKind::PlanComputed { commands: 3 });
        timeline.push(
            Seconds(1.0),
            ControlEventKind::CommandApplied {
                node: NodeId(3),
                bundle: 0,
                action: BundleAction::ActivateBackup,
                latency: Microseconds(70.0),
            },
        );
        timeline.push(Seconds(1.0), ControlEventKind::RingRestored { segments: 1 });
        assert_eq!(timeline.len(), 4);
        assert_eq!(timeline.commands_applied(), 1);
        assert_eq!(timeline.total_switching_time(), Microseconds(70.0));
        assert_eq!(timeline.events().last().map(|e| e.at), Some(Seconds(1.0)));
        assert!(timeline.is_monotone());
    }

    #[test]
    fn monotonicity_check_catches_backwards_timestamps() {
        let mut timeline = Timeline::new();
        assert!(timeline.is_monotone());
        timeline.push(Seconds(2.0), ControlEventKind::PlanComputed { commands: 0 });
        timeline.push(Seconds(2.0), ControlEventKind::RingRestored { segments: 1 });
        assert!(timeline.is_monotone());
        timeline.push(
            Seconds(1.0),
            ControlEventKind::EventTimeClamped {
                requested: Seconds(1.0),
            },
        );
        assert!(!timeline.is_monotone());
    }

    #[test]
    fn timeline_serialises_to_json() {
        let mut timeline = Timeline::new();
        timeline.push(
            Seconds(0.5),
            ControlEventKind::RepairDetected { node: NodeId(9) },
        );
        let json = serde_json::to_string(&timeline).unwrap();
        assert_eq!(
            json,
            r#"{"events":[{"at":0.5,"kind":{"RepairDetected":{"node":9}}}]}"#
        );
    }
}
