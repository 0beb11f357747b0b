//! The event scheduler: a hierarchical timing wheel (Varghese & Lauck,
//! SOSP '87) that runs as one binary heap while the schedule is small.
//!
//! [`EventEngine`] pops in `(Time, seq)` order: earliest first, and events
//! at one instant in the order they were pushed (FIFO tie-break). Below [`SPILL`] pending entries
//! it *is* that heap (see *Heap mode*); above it, schedule and expire are
//! amortized O(1) instead of O(log n). The wheel has four levels of 256
//! slots each, 8 bits of nanoseconds per level, on top of a 2^8 ns *grain*:
//! a level-0 slot spans a 256 ns window rather than a single instant, so
//! the timer deltas real protocol schedules generate (µs-to-ms apart) land
//! directly in level 0 or 1 instead of cascading down from the top every
//! pop. The wheel proper covers a 2^40 ns (~18 min) window around the
//! cursor; events beyond the window park in an overflow heap and migrate in
//! when the wheel drains up to them.
//!
//! # Layout and invariants
//!
//! Writing an event's absolute nanosecond timestamp `at` in base-256 digits
//! above the grain, `at = (d3 d2 d1 d0) * 2^8 + g`, an event lives at level
//! `L` slot `dL` where `L` is the highest digit in which `at` differs from
//! the cursor: `L = (63 - ((at ^ cursor) >> 8).leading_zeros()) / 8`.
//! Differences in digits ≥ 4 go to the overflow heap; a zero shifted xor
//! means the entry is inside the cursor's own grain window and joins the
//! batch directly. Consequences used throughout:
//!
//! * Every entry in a level-0 slot falls in one 256 ns window (all digits
//!   equal the cursor's above the slot index), so a slot drains wholesale
//!   into the batch, sorted once by `(at, seq)`.
//! * An entry can never sit at the *current index* of a level ≥ 1: equal
//!   digits above `L` plus an equal digit at `L` means the difference is
//!   below `L`, i.e. the entry belongs to a lower level.
//! * The cursor only advances, and only to the window start of the earliest
//!   pending entry, so slots behind the cursor are empty and the lowest
//!   occupied level's lowest occupied slot is always the global earliest.
//!
//! Each slot is a singly linked list through one node slab shared by all
//! 1 024 slots (a `u32` head per slot, a `next` index per node, freed nodes
//! on a free list), so the wheel holds no more nodes than the most entries
//! it has had pending at once, not every slot's own high-water mark.
//!
//! # FIFO tie-break proof sketch
//!
//! The batch is kept sorted by `(at, seq)` at all times: a slot drain sorts
//! once, and a push that lands inside the current grain window binary-search
//! inserts at its `(at, seq)` position. Two entries with equal `at` either
//! (a) land in the same slot / batch, where the `(at, seq)` order *is* FIFO
//! order, or (b) land in different levels at different times because the
//! cursor moved between the pushes. Case (b) resolves in
//! [`EventEngine::scan`]: a slot is only drained after the cursor has
//! advanced to its window start, at which point every entry for that window
//! — whatever level it was pushed at — has cascaded into the same batch
//! before the first pop of the window.
//!
//! A third case exists only for external pushes between a peek (which may
//! advance the cursor to the next pending window) and the next pop: a push
//! with `now <= at < cursor` cannot be placed by digit rules. Those go to a
//! tiny `early` heap which always pops before the wheel — correct because
//! every wheel/batch entry's timestamp is ≥ cursor > `at`.
//!
//! # Heap mode (density fallback)
//!
//! Below [`SPILL`] pending entries the slot machinery is bypassed entirely
//! and the whole schedule lives in the `early` binary heap — at that size
//! the heap is one or two cache lines and effectively optimal, while every
//! wheel op touches bitmaps, a slot list, and the batch (several cold
//! lines once real per-event work has evicted them). The wheel spills into
//! the slots when the count crosses [`SPILL`] and drops back to heap mode
//! when it fully drains, so protocol simulations (which idle at tens of
//! pending events) run at reference-heap speed while timer-churn workloads
//! (tens of thousands pending) spill once and run on the O(1) hierarchy —
//! the classic calendar-queue density adaptation. This fallback is the only
//! choice of scheduler there is: the queue depth makes it, not a setting.
//! The slot machinery (`spill`, `place`, `scan`) stays out of line, so heap
//! mode's push and pop compile to the reference heap's.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Slots per level (one byte of the timestamp per level).
const SLOTS: usize = 256;
/// Number of wheel levels; differences in bytes ≥ `LEVELS` overflow.
const LEVELS: usize = 4;
/// log2(SLOTS): bits of the timestamp consumed per level.
const BITS: u32 = 8;
/// Bits of the timestamp below level 0: a level-0 slot spans `2^GRAIN` ns
/// and the batch holds one grain window, sorted by `(at, seq)`.
const GRAIN: u32 = 8;
/// Default pending-entry count above which the wheel leaves heap mode.
/// Below a few hundred pending the schedule spans a handful of cache lines
/// and a plain binary heap is as fast as anything, even with cold caches —
/// a one-connection protocol run holds under 50 pending (one queued
/// wakeup per armed timer: 7 on average for 1 KB writes, 23 for 256 KB),
/// 256 concurrent connections about 1 300, while bulk timer churn (where
/// the wheel's O(1) wins by integer factors) sits in the tens of
/// thousands.
const SPILL: usize = 512;
/// No node: the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

/// A queued event and its `(at, seq)` key: the entry type of every heap,
/// slot and batch in [`EventEngine`].
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

/// A slab node: a slot entry (`None` while the node is free) and the next
/// node of its slot's list or of the free list.
struct Node<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// Where [`EventEngine::place`] puts an entry.
enum Target {
    /// The cursor's grain window.
    Batch,
    /// The slot at this index of the flattened slot array.
    Slot(usize),
    /// Beyond the wheel's window.
    Overflow,
}

/// A 256-bit occupancy bitmap over one level's slots.
#[derive(Default, Clone, Copy)]
struct Bitmap([u64; SLOTS / 64]);

impl Bitmap {
    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i >> 6] |= 1u64 << (i & 63);
    }
    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i >> 6] &= !(1u64 << (i & 63));
    }
    /// Lowest set bit, if any.
    #[inline]
    fn first(&self) -> Option<usize> {
        for (w, &word) in self.0.iter().enumerate() {
            if word != 0 {
                return Some((w << 6) | word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Names the one scheduler, [`EventEngine`], and selects nothing. It is
/// kept only because the frozen `benchmark/` crate names it (in
/// [`EventEngine::new`], `World::new_with_engine` and
/// `ExperimentConfig::engine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EngineKind;

impl EngineKind {
    /// The name the benchmark prints for the scheduler.
    pub fn name(self) -> &'static str {
        "wheel"
    }
}

/// A time-ordered event scheduler with FIFO tie-breaking. `peek_time` takes
/// `&mut self` because a peek may advance the cursor, never past the
/// earliest pending event.
pub struct EventEngine<E> {
    /// `LEVELS * SLOTS` list heads into `nodes`, flattened level-major.
    /// Empty until the first [`EventEngine::spill`] — heap-mode schedules
    /// never pay for it.
    heads: Vec<u32>,
    /// Every slot's entries. A node leaves its slot for the free list, and
    /// the slab grows only when that list is empty, so it never holds more
    /// nodes than the most entries pending at once.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list through `nodes`.
    free: u32,
    occupied: [Bitmap; LEVELS],
    /// Entries in the grain window the cursor points at, sorted by
    /// `(at, seq)`.
    batch: VecDeque<Entry<E>>,
    /// Heap mode: all entries live in `early` and the slots are untouched.
    /// Entered at construction and whenever the queue fully drains; left
    /// (via [`EventEngine::spill`]) when the count crosses `spill`.
    small: bool,
    /// Pending-entry count above which heap mode spills into the slots
    /// ([`SPILL`] unless overridden for tests/benches).
    spill: usize,
    /// In heap mode, the whole schedule. In wheel mode, entries pushed
    /// with `now <= at < cursor` after a peek advanced the cursor; always
    /// earlier than everything in the wheel.
    early: BinaryHeap<Entry<E>>,
    /// Entries beyond the wheel's 2^40 ns window.
    overflow: BinaryHeap<Entry<E>>,
    /// Wheel origin, in ns. Invariant: every slot / overflow entry has
    /// `at >= cursor`, and batch entries share the cursor's grain window
    /// (`at >> GRAIN == cursor >> GRAIN`, `at >= now`).
    cursor: u64,
    now: Time,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventEngine<E> {
    /// An empty engine with the clock at time zero.
    fn default() -> Self {
        EventEngine {
            heads: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            occupied: [Bitmap::default(); LEVELS],
            batch: VecDeque::new(),
            small: true,
            spill: SPILL,
            early: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            now: Time::ZERO,
            next_seq: 0,
            len: 0,
        }
    }
}

impl<E> EventEngine<E> {
    /// The same as [`EventEngine::default`]; the argument selects nothing
    /// (see [`EngineKind`]).
    pub fn new(_: EngineKind) -> Self {
        Self::default()
    }

    /// An empty engine that leaves heap mode once more than `threshold`
    /// entries are pending (`0` puts the first push straight into the slot
    /// hierarchy). For tests and benchmarks that need to exercise the
    /// wheel paths at small queue depths.
    pub fn with_spill_threshold(threshold: usize) -> Self {
        EventEngine {
            spill: threshold,
            ..Self::default()
        }
    }

    /// The instant of the most recently popped event.
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
    /// an event queued later with [`EventEngine::push_seq`] under this
    /// number sorts as if it had been pushed now.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a sequence number taken earlier from
    /// [`EventEngine::reserve_seq`]. Every placement below orders by
    /// `(at, seq)`, so an old number sorts where the push it stands for
    /// would have. Panics like [`EventEngine::push`].
    #[inline]
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
        self.len += 1;
        let e = Entry { at, seq, event };
        if self.small {
            self.early.push(e);
            if self.early.len() > self.spill {
                self.spill();
            }
        } else if at.nanos() < self.cursor {
            self.early.push(e);
        } else {
            self.place(e);
        }
    }

    /// Pop the earliest event and advance the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        // `early` is the whole schedule in heap mode, and always earlier
        // than the wheel otherwise, so it pops first either way.
        if let Some(e) = self.early.pop() {
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            self.len -= 1;
            return Some((e.at, e.event));
        }
        if self.small {
            return None;
        }
        self.scan();
        let e = self.batch.pop_front()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.len -= 1;
        if self.len == 0 {
            // Fully drained: drop back to heap mode so the next quiet
            // stretch runs on the compact path again.
            self.small = true;
            self.cursor = self.now.nanos();
        }
        Some((e.at, e.event))
    }

    /// The timestamp of the next event without popping it.
    ///
    /// Unlike the heap, peeking may advance the internal cursor (never past
    /// the earliest pending event), which is why this takes `&mut self`.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        if let Some(e) = self.early.peek() {
            return Some(e.at);
        }
        if self.small {
            return None;
        }
        self.scan();
        self.batch.front().map(|e| e.at)
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every queued event (used when an experiment ends early). Keeps
    /// the clock and the sequence counter.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.nodes.clear();
        self.free = NIL;
        self.occupied = [Bitmap::default(); LEVELS];
        self.batch.clear();
        self.small = true;
        self.early.clear();
        self.overflow.clear();
        self.len = 0;
    }

    /// Nodes in the slot slab, free or in a slot.
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Leave heap mode: move every entry into the slot hierarchy. Every
    /// pending entry is `>= now` (pops always take the global minimum), so
    /// anchoring the cursor at `now` lets `place` take all of them; entries
    /// inside the cursor's grain window land in the batch.
    #[inline(never)]
    fn spill(&mut self) {
        self.small = false;
        self.cursor = self.now.nanos();
        if self.heads.is_empty() {
            self.heads.resize(LEVELS * SLOTS, NIL);
        }
        let pending = std::mem::take(&mut self.early).into_vec();
        for e in pending {
            self.place(e);
        }
    }

    /// Where an entry at `at >= cursor` belongs: the batch, a wheel slot,
    /// or the overflow heap.
    fn target(&self, at: u64) -> Target {
        debug_assert!(at >= self.cursor);
        let xor = (at ^ self.cursor) >> GRAIN;
        if xor == 0 {
            return Target::Batch;
        }
        let level = ((63 - xor.leading_zeros()) / BITS) as usize;
        if level >= LEVELS {
            return Target::Overflow;
        }
        let slot = ((at >> (GRAIN + BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        Target::Slot(level * SLOTS + slot)
    }

    /// Place an entry with `at >= cursor` into the batch, a wheel slot, or
    /// the overflow heap.
    #[inline(never)]
    fn place(&mut self, e: Entry<E>) {
        match self.target(e.at.nanos()) {
            Target::Batch => {
                // Inside the cursor's grain window: binary-search insert
                // keeps the batch sorted by `(at, seq)`. The common case — a
                // push at the current instant while the window drains —
                // lands at the back in one probe.
                let key = (e.at, e.seq);
                let i = self.batch.partition_point(|x| (x.at, x.seq) < key);
                self.batch.insert(i, e);
            }
            Target::Overflow => self.overflow.push(e),
            Target::Slot(idx) => {
                let node = Node {
                    entry: Some(e),
                    next: NIL,
                };
                let n = match self.nodes.get_mut(self.free as usize) {
                    Some(free) => {
                        let n = self.free;
                        self.free = free.next;
                        *free = node;
                        n
                    }
                    None => {
                        // A slab of 2^32 entries would not fit in memory.
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                };
                self.link(idx, n);
            }
        }
    }

    /// Push node `n` onto the front of slot `idx`'s list.
    fn link(&mut self, idx: usize, n: u32) {
        self.nodes[n as usize].next = self.heads[idx];
        self.heads[idx] = n;
        self.occupied[idx / SLOTS].set(idx % SLOTS);
    }

    /// Take node `n`'s entry and put the node on the free list; returns the
    /// entry and the node that followed it.
    fn take(&mut self, n: u32) -> (Option<Entry<E>>, u32) {
        let node = &mut self.nodes[n as usize];
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = n;
        (node.entry.take(), next)
    }

    /// Advance the cursor to the earliest pending grain window and fill the
    /// batch with every entry in that window. No-op if the batch is
    /// nonempty; leaves it empty only when nothing is scheduled.
    #[inline(never)]
    fn scan(&mut self) {
        loop {
            if !self.batch.is_empty() {
                return;
            }
            // Level 0: the lowest occupied slot is the earliest pending
            // grain window.
            if let Some(j) = self.occupied[0].first() {
                self.cursor =
                    (self.cursor & !((1u64 << (GRAIN + BITS)) - 1)) | ((j as u64) << GRAIN);
                self.occupied[0].clear(j);
                // The batch was empty, so the slot is the full (unsorted)
                // window.
                let mut n = std::mem::replace(&mut self.heads[j], NIL);
                while n != NIL {
                    let (e, next) = self.take(n);
                    self.batch.extend(e);
                    n = next;
                }
                debug_assert!(self
                    .batch
                    .iter()
                    .all(|e| e.at.nanos() >> GRAIN == self.cursor >> GRAIN));
                self.batch
                    .make_contiguous()
                    .sort_unstable_by_key(|e| (e.at, e.seq));
                return;
            }
            // Levels 1..: the lowest occupied level's lowest occupied slot
            // is earliest (higher levels hold strictly later windows). The
            // batch and all lower levels are empty, so this slot holds the
            // global earliest pending entry — jump the cursor straight to
            // that entry's grain window rather than the slot's window
            // start. A sparse schedule then re-places each entry once (the
            // earliest lands directly in the batch) instead of cascading it
            // through every intermediate level on every pop.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if let Some(j) = self.occupied[level].first() {
                    self.occupied[level].clear(j);
                    let head = std::mem::replace(&mut self.heads[level * SLOTS + j], NIL);
                    // `place` / `clear` keep the bitmap bit paired with a
                    // nonempty slot.
                    debug_assert!(head != NIL);
                    let mut min_at = u64::MAX;
                    let mut n = head;
                    while n != NIL {
                        let node = &self.nodes[n as usize];
                        if let Some(e) = &node.entry {
                            min_at = min_at.min(e.at.nanos());
                        }
                        n = node.next;
                    }
                    // The slot's window start is grain-aligned and strictly
                    // above the cursor, so this advances monotonically.
                    let next = min_at & !((1u64 << GRAIN) - 1);
                    debug_assert!(next > self.cursor);
                    self.cursor = next;
                    // The cursor kept this slot's digit at `level`, so every
                    // entry goes strictly below `level`: a node is relinked
                    // into its lower slot where one holds it, and gives its
                    // entry to the batch otherwise.
                    let mut n = head;
                    while n != NIL {
                        let node = &self.nodes[n as usize];
                        let next = node.next;
                        match node.entry.as_ref().map(|e| self.target(e.at.nanos())) {
                            Some(Target::Slot(idx)) => self.link(idx, n),
                            _ => {
                                if let (Some(e), _) = self.take(n) {
                                    self.place(e);
                                }
                            }
                        }
                        n = next;
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel empty: migrate the next 2^40 ns window in from the
            // overflow heap (every overflow entry is later than the whole
            // wheel, so this is only reached when nothing else is pending).
            match self.overflow.pop() {
                Some(first) => {
                    let base = first.at.nanos();
                    debug_assert!(base > self.cursor);
                    self.cursor = base;
                    self.place(first);
                    let window = base >> (GRAIN + BITS * LEVELS as u32);
                    while let Some(e) = self.overflow.peek() {
                        if e.at.nanos() >> (GRAIN + BITS * LEVELS as u32) != window {
                            break;
                        }
                        let Some(e) = self.overflow.pop() else {
                            break;
                        };
                        self.place(e);
                    }
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::Dur;

    #[test]
    fn kind_round_trips() {
        assert_eq!(EngineKind.name(), "wheel");
        let mut q = EventEngine::new(EngineKind);
        q.push(Time(3), 'a');
        assert_eq!((q.len(), q.pop()), (1, Some((Time(3), 'a'))));
    }

    #[test]
    fn a_reserved_seq_pops_where_its_push_would_have() {
        for mut q in [EventEngine::default(), EventEngine::with_spill_threshold(0)] {
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
            assert_eq!(order, ["a", "c", "d"]);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventEngine::default();
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
        let mut q = EventEngine::default();
        for i in 0..100 {
            q.push(Time(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(42), i)));
        }
    }

    #[test]
    fn same_instant_across_levels_is_fifo() {
        // Entry 0 lands in a level-1 slot (time 0x123400 differs from
        // cursor 0 in the second digit above the grain); entry 1 at the same
        // instant is pushed after the cursor has moved near it and lands in
        // level 0. Both must pop FIFO. Threshold 0 forces wheel mode.
        let mut q = EventEngine::with_spill_threshold(0);
        q.push(Time(0x123400), 0u32);
        q.push(Time(0x120000), 99);
        assert_eq!(q.pop(), Some((Time(0x120000), 99)));
        q.push(Time(0x123400), 1);
        assert_eq!(q.pop(), Some((Time(0x123400), 0)));
        assert_eq!(q.pop(), Some((Time(0x123400), 1)));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventEngine::default();
        q.push(Time::ZERO + Dur::micros(5), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::ZERO + Dur::micros(5));
    }

    #[test]
    #[should_panic(expected = "scheduled event")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventEngine::default();
        q.push(Time(10), ());
        q.pop();
        q.push(Time(5), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventEngine::default();
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
    fn push_below_cursor_after_peek_still_pops_in_order() {
        let mut q = EventEngine::with_spill_threshold(0);
        q.push(Time(1_000_000), "far");
        // The peek advances the cursor to 1 ms.
        assert_eq!(q.peek_time(), Some(Time(1_000_000)));
        // An external push earlier than the cursor (but after `now`).
        q.push(Time(500), "early-b");
        q.push(Time(100), "early-a");
        q.push(Time(100), "early-a2");
        assert_eq!(q.pop(), Some((Time(100), "early-a")));
        assert_eq!(q.pop(), Some((Time(100), "early-a2")));
        assert_eq!(q.pop(), Some((Time(500), "early-b")));
        assert_eq!(q.pop(), Some((Time(1_000_000), "far")));
    }

    #[test]
    fn overflow_heap_round_trips() {
        let mut q = EventEngine::with_spill_threshold(0);
        let far = Time(2_000_000_000_000); // ~33 min: beyond the 2^40 ns window
        let farther = Time(4_000_000_000_000);
        q.push(far, "a");
        q.push(farther, "c");
        q.push(Time(5), "now-ish");
        q.push(far, "b");
        assert_eq!(q.pop(), Some((Time(5), "now-ish")));
        assert_eq!(q.pop(), Some((far, "a")));
        assert_eq!(q.pop(), Some((far, "b")));
        assert_eq!(q.pop(), Some((farther, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventEngine::with_spill_threshold(0);
        q.push(Time(1), 0);
        q.push(Time(2), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(Time(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn differential_vs_heap_exhaustive_small() {
        // Default threshold: crosses in and out of heap mode as the
        // pending count swings.
        run_differential(EventEngine::default());
    }

    #[test]
    fn differential_vs_heap_wheel_mode_only() {
        // Threshold 0: every entry takes the slot-hierarchy paths.
        run_differential(EventEngine::with_spill_threshold(0));
    }

    #[test]
    fn slab_never_outgrows_the_peak_pending_count() {
        // Swing the pending count up past the default threshold and down
        // again, three times, with offsets on every level: each slot's list
        // takes its nodes from the one slab, so the slab is bounded by the
        // most entries ever pending, not by the sum of per-slot peaks.
        for mut q in [EventEngine::default(), EventEngine::with_spill_threshold(0)] {
            let mut x = 0x2545f4914f6cdd1du64;
            let mut peak = 0;
            for round in 0..3u64 {
                let target = 600 + 700 * round as usize;
                while q.len() < target {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let off = match x % 4 {
                        0 => x % 0x100,
                        1 => x % 0x1_0000,
                        2 => x % 0x100_0000,
                        _ => x % 0x1_0000_0000,
                    };
                    q.push(Time(q.now().nanos() + off), x);
                    peak = peak.max(q.len());
                    assert!(q.slab_len() <= peak);
                }
                while q.len() > 100 {
                    q.pop();
                    assert!(q.slab_len() <= peak);
                }
            }
            assert!(q.slab_len() > 0, "the wheel's slots were used");
            while q.pop().is_some() {}
            assert!(q.slab_len() <= peak);
        }
    }

    /// Deterministic mixed workload crossing every level boundary.
    fn run_differential(mut wheel: EventEngine<u64>) {
        let mut heap = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = |q_at: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q_at.wrapping_add(x) // pseudo-random offsets
        };
        let mut pending = 0u32;
        for i in 0..5_000u64 {
            let r = step(i);
            if pending > 0 && r % 3 == 0 {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b);
                pending -= 1;
            } else {
                // Offsets spanning same-window (0), level 0..3 and overflow.
                let off = match r % 7 {
                    0 => 0,
                    1 => r % 200,
                    2 => 0x100 + r % 0x1000,
                    3 => 0x1_0000 + r % 0x10_0000,
                    4 => 0x100_0000 + r % 0x1000_0000,
                    5 => 0x100_0000_0000 + r % 0x1000_0000_0000,
                    _ => r % 16,
                };
                let at = Time(heap.now().nanos() + off);
                heap.push(at, i);
                wheel.push(at, i);
                pending += 1;
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Same invariant as the reference queue's property test, in wheel
        /// mode (threshold 0) so the slot paths are exercised at the small
        /// queue depths proptest generates.
        #[test]
        fn ordering_invariant(ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)) {
            let mut q = EventEngine::with_spill_threshold(0);
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
            while let Some((t, s)) = q.pop() {
                if let Some((lt, ls)) = last {
                    prop_assert!(t > lt || (t == lt && s > ls));
                }
                last = Some((t, s));
            }
        }
    }
}
