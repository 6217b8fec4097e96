//! The fault-event data model.
//!
//! Each record of the production trace carries the faulty node's identifier,
//! the time the fault was detected, and the time it was repaired (Appendix A:
//! "fault start time, fault end time, and the ID of the faulty node").

use hbd_types::{NodeId, Seconds};

/// One fault event: a node leaving service and returning after repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The node that failed.
    pub node: NodeId,
    /// When the fault started, measured from the beginning of the trace.
    pub start: Seconds,
    /// When the node returned to service.
    pub end: Seconds,
}

impl FaultEvent {
    /// Creates a fault event. `end` must not precede `start`:
    /// [`FaultTrace::new`](crate::FaultTrace::new) checks that where the event
    /// enters a trace.
    pub fn new(node: NodeId, start: Seconds, end: Seconds) -> Self {
        FaultEvent { node, start, end }
    }

    /// How long the node was out of service.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Whether the node is out of service at time `t`.
    pub fn active_at(&self, t: Seconds) -> bool {
        t.value() >= self.start.value() && t.value() < self.end.value()
    }

    /// Whether this event overlaps the half-open interval `[from, to)`.
    pub fn overlaps(&self, from: Seconds, to: Seconds) -> bool {
        self.start.value() < to.value() && self.end.value() > from.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultTrace;
    use hbd_types::HbdError;

    #[test]
    fn duration_and_activity() {
        let event = FaultEvent::new(NodeId(3), Seconds(100.0), Seconds(400.0));
        assert_eq!(event.duration(), Seconds(300.0));
        assert!(!event.active_at(Seconds(99.0)));
        assert!(event.active_at(Seconds(100.0)));
        assert!(event.active_at(Seconds(399.0)));
        assert!(!event.active_at(Seconds(400.0)));
    }

    #[test]
    fn overlap_is_half_open() {
        let event = FaultEvent::new(NodeId(0), Seconds(10.0), Seconds(20.0));
        assert!(event.overlaps(Seconds(0.0), Seconds(15.0)));
        assert!(event.overlaps(Seconds(15.0), Seconds(30.0)));
        assert!(event.overlaps(Seconds(0.0), Seconds(100.0)));
        assert!(!event.overlaps(Seconds(20.0), Seconds(30.0)));
        assert!(!event.overlaps(Seconds(0.0), Seconds(10.0)));
    }

    #[test]
    fn inverted_interval_is_rejected() {
        let inverted = FaultEvent::new(NodeId(0), Seconds(5.0), Seconds(1.0));
        assert!(matches!(
            FaultTrace::new(1, Seconds(10.0), vec![inverted]),
            Err(HbdError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_length_fault_is_allowed_but_never_active() {
        let event = FaultEvent::new(NodeId(0), Seconds(5.0), Seconds(5.0));
        assert_eq!(event.duration(), Seconds(0.0));
        assert!(!event.active_at(Seconds(5.0)));
    }
}
