//! Deterministic discrete-event primitive: a priority event queue that is
//! also the simulation's monotone modeled clock.
//!
//! This is the substrate of the control-plane fault-injection simulator
//! (`control::sim`), the cluster lifecycle simulator and the retrying
//! client's session loop: events are ordered by `(timestamp, insertion
//! sequence)`, so two events scheduled for the same instant pop in the order
//! they were scheduled — no dependence on heap internals, hash iteration
//! order or pointer values. Timestamps are compared with [`f64::total_cmp`],
//! so the ordering is total even in the presence of pathological float
//! values.

use crate::{Microseconds, Seconds};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A modeled-time unit an [`EventQueue`] keys its events in; its `Default`
/// is time zero, where the queue's clock starts.
pub trait TimeUnit: Copy + Default {
    /// The raw value, compared with [`f64::total_cmp`].
    fn raw(self) -> f64;
}

impl TimeUnit for Seconds {
    fn raw(self) -> f64 {
        self.value()
    }
}

impl TimeUnit for Microseconds {
    fn raw(self) -> f64 {
        self.value()
    }
}

/// One scheduled entry: ordering key is `(at, seq)`, the payload is opaque.
#[derive(Debug, Clone)]
struct Entry<T, U> {
    at: U,
    seq: u64,
    item: T,
}

impl<T, U: TimeUnit> PartialEq for Entry<T, U> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T, U: TimeUnit> Eq for Entry<T, U> {}

impl<T, U: TimeUnit> PartialOrd for Entry<T, U> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T, U: TimeUnit> Ord for Entry<T, U> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, and we want the earliest
        // (at, seq) on top. `total_cmp` keeps the order total for every f64.
        other
            .at
            .raw()
            .total_cmp(&self.at.raw())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue and the modeled clock it drives.
///
/// Events pop in ascending timestamp order; ties break by insertion order
/// (first scheduled, first popped). Determinism is by construction: the pop
/// order is a pure function of the push sequence.
///
/// The queue keeps the simulation's `now`, which only moves forward:
/// [`EventQueue::pop`] returns the monotone instant `max(at, now)`. An event
/// pushed behind `now` pops at `now` and is counted in
/// [`EventQueue::rewinds`], so a simulation never observes time running
/// backwards and a mis-ordered caller is detectable.
#[derive(Debug, Clone)]
pub struct EventQueue<T, U = Seconds> {
    heap: BinaryHeap<Entry<T, U>>,
    seq: u64,
    now: U,
    rewinds: u64,
}

impl<T, U: TimeUnit> Default for EventQueue<T, U> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: U::default(),
            rewinds: 0,
        }
    }
}

impl<T, U: TimeUnit> EventQueue<T, U> {
    /// An empty queue whose clock starts at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` at time `at`.
    pub fn push(&mut self, at: U, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, item });
    }

    /// Removes the earliest event and advances the clock to it, returning
    /// the monotone instant `max(at, now)` with the event, or `None` when
    /// empty. An event scheduled behind `now` is clamped and counted, never
    /// applied.
    pub fn pop(&mut self) -> Option<(U, T)> {
        let Entry { at, item, .. } = self.heap.pop()?;
        if at.raw() < self.now.raw() {
            self.rewinds += 1;
        } else {
            self.now = at;
        }
        Some((self.now, item))
    }

    /// The instant of the last popped event (time zero before the first).
    pub fn now(&self) -> U {
        self.now
    }

    /// How many popped events were scheduled behind the clock.
    pub fn rewinds(&self) -> u64 {
        self.rewinds
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Seconds(3.0), "c");
        q.push(Seconds(1.0), "a");
        q.push(Seconds(2.0), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Seconds(1.0), "a")));
        assert_eq!(q.pop(), Some((Seconds(2.0), "b")));
        assert_eq!(q.pop(), Some((Seconds(3.0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            q.push(Seconds(7.0), i);
        }
        // Earlier events at the same instant keep priority over later ones.
        q.push(Seconds(6.9), 999);
        assert_eq!(q.pop(), Some((Seconds(6.9), 999)));
        for i in 0..50u32 {
            assert_eq!(q.pop(), Some((Seconds(7.0), i)));
        }
    }

    #[test]
    fn pop_order_is_a_pure_function_of_the_push_sequence() {
        let schedule = [(2.5, 0u32), (0.5, 1), (2.5, 2), (1.0, 3), (0.5, 4)];
        let drain = |sched: &[(f64, u32)]| {
            let mut q = EventQueue::new();
            for &(at, id) in sched {
                q.push(Seconds(at), id);
            }
            let mut order = Vec::new();
            while let Some((_, id)) = q.pop() {
                order.push(id);
            }
            order
        };
        assert_eq!(drain(&schedule), drain(&schedule));
        assert_eq!(drain(&schedule), vec![1, 4, 3, 0, 2]);
    }

    #[test]
    fn clock_is_monotone_and_counts_rewind_attempts() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Seconds::ZERO);
        q.push(Seconds(5.0), "a");
        assert_eq!(q.pop(), Some((Seconds(5.0), "a")));
        // A rewind is clamped to the current time, not applied.
        q.push(Seconds(3.0), "b");
        assert_eq!(q.pop(), Some((Seconds(5.0), "b")));
        assert_eq!(q.now(), Seconds(5.0));
        assert_eq!(q.rewinds(), 1);
        q.push(Seconds(5.0), "c");
        assert_eq!(q.pop(), Some((Seconds(5.0), "c")));
        assert_eq!(q.rewinds(), 1);
    }

    /// Pops one event (if any) and checks it against the previous pop and
    /// the instant it was pushed at.
    fn pop_checked<U: TimeUnit + std::fmt::Debug>(
        q: &mut EventQueue<(f64, bool), U>,
        last: &mut f64,
    ) -> TestCaseResult {
        let Some((at, (pushed, behind))) = q.pop() else {
            return Ok(());
        };
        prop_assert!(at.raw() >= *last, "pop went back: {:?} after {}", at, last);
        if !behind {
            prop_assert_eq!(at.raw(), pushed);
        }
        *last = at.raw();
        Ok(())
    }

    /// Replays `ops` against a queue keyed in `U`: `(true, d)` pushes an
    /// event at `now + d` (behind the clock when `d < 0`), `(false, _)` pops
    /// one; the queue is drained at the end.
    fn check_clock<U: TimeUnit + std::fmt::Debug>(
        unit: fn(f64) -> U,
        ops: &[(bool, f64)],
    ) -> TestCaseResult {
        let mut q: EventQueue<(f64, bool), U> = EventQueue::new();
        let mut behind = 0u64;
        let mut last = f64::NEG_INFINITY;
        for &(is_push, delta) in ops {
            if is_push {
                let at = q.now().raw() + delta;
                let is_behind = at < q.now().raw();
                behind += u64::from(is_behind);
                q.push(unit(at), (at, is_behind));
            } else {
                pop_checked(&mut q, &mut last)?;
            }
        }
        while !q.is_empty() {
            pop_checked(&mut q, &mut last)?;
        }
        prop_assert_eq!(q.rewinds(), behind);
        Ok(())
    }

    proptest! {
        /// Over random push/pop interleavings, in both time units: pops are
        /// nondecreasing, an event pushed at or after `now` pops at its own
        /// instant, and `rewinds()` counts exactly the pushes behind `now`.
        #[test]
        fn queue_clock_is_monotone_and_counts_behind_pushes(
            ops in prop::collection::vec((prop_oneof![Just(true), Just(false)], -5.0f64..20.0), 0..64),
        ) {
            check_clock(Seconds, &ops)?;
            check_clock(Microseconds, &ops)?;
        }
    }
}
