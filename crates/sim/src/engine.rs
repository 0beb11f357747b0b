//! Pluggable event-scheduler engine.
//!
//! The simulator core can run on either the reference binary-heap
//! [`EventQueue`] or the O(1) [`TimingWheel`]. Both implement identical
//! `(Time, seq)` FIFO semantics — the wheel is the default because it is
//! faster on the timer-heavy schedules TCP generates, and the heap stays
//! available for differential testing and A/B byte-identity checks.

use crate::queue::EventQueue;
use crate::time::Time;
use crate::wheel::TimingWheel;

/// Which scheduler implementation a simulation runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Reference `BinaryHeap` scheduler (O(log n) push/pop).
    Heap,
    /// Hierarchical timing wheel (amortized O(1) push/pop), the default.
    #[default]
    Wheel,
}

impl EngineKind {
    /// The CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Heap => "heap",
            EngineKind::Wheel => "wheel",
        }
    }
}

/// A scheduler that is either the reference heap or the timing wheel,
/// behind the [`EventQueue`] API. `peek_time` takes `&mut self` because the
/// wheel's peek may advance its internal cursor (never past the earliest
/// pending event).
#[allow(
    clippy::large_enum_variant,
    reason = "one engine per world, never moved on the hot path; boxing the wheel would put a pointer chase on every push/pop"
)]
pub enum EventEngine<E> {
    /// Reference heap scheduler.
    Heap(EventQueue<E>),
    /// Timing-wheel scheduler.
    Wheel(TimingWheel<E>),
}

impl<E> Default for EventEngine<E> {
    fn default() -> Self {
        Self::new(EngineKind::default())
    }
}

impl<E> EventEngine<E> {
    /// An empty engine of the given kind with the clock at time zero.
    pub fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Heap => EventEngine::Heap(EventQueue::new()),
            EngineKind::Wheel => EventEngine::Wheel(TimingWheel::new()),
        }
    }

    /// Which implementation this engine runs on.
    pub fn kind(&self) -> EngineKind {
        match self {
            EventEngine::Heap(_) => EngineKind::Heap,
            EventEngine::Wheel(_) => EngineKind::Wheel,
        }
    }

    /// The instant of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Time {
        match self {
            EventEngine::Heap(q) => q.now(),
            EventEngine::Wheel(w) => w.now(),
        }
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the
    /// past (see [`EventQueue::push`]).
    #[inline]
    pub fn push(&mut self, at: Time, event: E) {
        match self {
            EventEngine::Heap(q) => q.push(at, event),
            EventEngine::Wheel(w) => w.push(at, event),
        }
    }

    /// Take the next insertion sequence number without queueing anything
    /// (see [`EventQueue::reserve_seq`]).
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        match self {
            EventEngine::Heap(q) => q.reserve_seq(),
            EventEngine::Wheel(w) => w.reserve_seq(),
        }
    }

    /// Schedule `event` at `at` under a sequence number from
    /// [`EventEngine::reserve_seq`]: it pops where a [`EventEngine::push`]
    /// made at reservation time would have.
    #[inline]
    pub fn push_seq(&mut self, at: Time, seq: u64, event: E) {
        match self {
            EventEngine::Heap(q) => q.push_seq(at, seq, event),
            EventEngine::Wheel(w) => w.push_seq(at, seq, event),
        }
    }

    /// Pop the earliest event and advance the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match self {
            EventEngine::Heap(q) => q.pop(),
            EventEngine::Wheel(w) => w.pop(),
        }
    }

    /// The timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        match self {
            EventEngine::Heap(q) => q.peek_time(),
            EventEngine::Wheel(w) => w.peek_time(),
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        match self {
            EventEngine::Heap(q) => q.len(),
            EventEngine::Wheel(w) => w.len(),
        }
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        match self {
            EventEngine::Heap(q) => q.is_empty(),
            EventEngine::Wheel(w) => w.is_empty(),
        }
    }

    /// Drop every queued event (keeps the clock).
    pub fn clear(&mut self) {
        match self {
            EventEngine::Heap(q) => q.clear(),
            EventEngine::Wheel(w) => w.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips() {
        assert_eq!(EngineKind::Heap.name(), "heap");
        assert_eq!(EngineKind::Wheel.name(), "wheel");
        assert_eq!(EngineKind::default(), EngineKind::Wheel);
    }

    #[test]
    fn both_engines_pop_identically() {
        let mut h = EventEngine::<u32>::new(EngineKind::Heap);
        let mut w = EventEngine::<u32>::new(EngineKind::Wheel);
        for (at, ev) in [(5u64, 0u32), (1, 1), (5, 2), (3, 3)] {
            h.push(Time(at), ev);
            w.push(Time(at), ev);
        }
        assert_eq!(h.len(), w.len());
        assert_eq!(h.peek_time(), w.peek_time());
        loop {
            let a = h.pop();
            let b = w.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_reserved_seq_pops_where_its_push_would_have() {
        for kind in [EngineKind::Heap, EngineKind::Wheel] {
            let mut q = EventEngine::<&str>::new(kind);
            let early = q.reserve_seq();
            q.push(Time(10), "b");
            let unused = q.reserve_seq();
            q.push(Time(10), "d");
            assert_eq!(q.pop(), Some((Time(10), "b")));
            // Queued after a pop, still ahead of everything pushed after it
            // at the same instant.
            q.push_seq(Time(10), early, "a");
            q.push_seq(Time(10), unused, "c");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, ["a", "c", "d"], "{}", kind.name());
        }
    }
}
