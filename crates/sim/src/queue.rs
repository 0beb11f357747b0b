//! Stable event queue: the reference scheduler.
//!
//! A binary heap keyed on `(Time, sequence)` where the sequence number is a
//! monotonically increasing insertion counter. Two events scheduled for the
//! same instant therefore pop in the order they were pushed, which keeps the
//! simulation deterministic regardless of heap implementation details.
//! Worlds run on [`EventEngine`](crate::EventEngine); this queue is what the
//! engine's differential tests hold it against.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued event and its `(at, seq)` key; also the entry type of every
/// heap, slot and batch in [`EventEngine`](crate::EventEngine).
pub(crate) struct Entry<E> {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within one
        // instant, the first-inserted) entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The instant of the most recently popped event (the current virtual
    /// time of a simulation driven by this queue).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — scheduling into the past is always a
    /// logic error in a discrete-event simulation.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.reserve_seq();
        self.push_seq(at, seq, event);
    }

    /// Take the next insertion sequence number without queueing anything:
    /// an event queued later with [`EventQueue::push_seq`] under this
    /// number sorts as if it had been pushed now.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a sequence number taken earlier from
    /// [`EventQueue::reserve_seq`]. Panics like [`EventQueue::push`].
    pub fn push_seq(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at:?} but the clock is already at {:?}",
            self.now
        );
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        self.heap.push(Entry { at, seq, event });
    }

    /// Pop the earliest event and advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every queued event (used when an experiment ends early).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), "c");
        q.push(Time(10), "a");
        q.push(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(42), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO + Dur::micros(5), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::ZERO + Dur::micros(5));
    }

    #[test]
    #[should_panic(expected = "scheduled event")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Time(10), ());
        q.pop();
        q.push(Time(5), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(7), 1u8);
        q.push(Time(3), 2u8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.push(Time(1), 0);
        q.push(Time(2), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // Push at the current instant: must come after nothing (time 2 event
        // is later than "now"=1, new event also at 2 but pushed later).
        q.push(Time(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in (time, insertion-order) order, no matter
        /// how pushes and pops interleave.
        #[test]
        fn ordering_invariant(ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
            let mut q = EventQueue::new();
            let mut last: Option<(Time, u64)> = None;
            for (seq, (dt, do_pop)) in ops.into_iter().enumerate() {
                let at = Time(q.now().nanos() + dt);
                q.push(at, seq as u64);
                if do_pop {
                    if let Some((t, s)) = q.pop() {
                        if let Some((lt, ls)) = last {
                            prop_assert!(t > lt || (t == lt && s > ls),
                                "order violated: ({t:?},{s}) after ({lt:?},{ls})");
                        }
                        last = Some((t, s));
                    }
                }
            }
            // Drain the rest.
            while let Some((t, s)) = q.pop() {
                if let Some((lt, ls)) = last {
                    prop_assert!(t > lt || (t == lt && s > ls));
                }
                last = Some((t, s));
            }
        }
    }
}
