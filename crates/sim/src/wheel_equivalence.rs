//! Differential property test: the event engine must be observationally
//! identical to the reference heap queue under arbitrary interleavings of
//! schedules and expiries — same pop order, same timestamps, same clock,
//! same length at every step.
//!
//! The operation generator is biased toward the cases where wheel and heap
//! could plausibly diverge:
//!
//! * same-instant bursts (FIFO tie-break across slot/batch/early paths);
//! * scheduling while draining (pushes landing at or before the cursor
//!   after peeks advanced it);
//! * far-future times that overflow the wheel's 2^40 ns window;
//! * out-of-order sequence numbers: a number reserved now and queued with
//!   `push_seq` after later pushes and pops, as `testbed::timers` does for
//!   every timer arm, so low-`seq` entries arrive late in the batch, in a
//!   slot that later cascades, or in the overflow heap;
//! * the heap-mode/wheel-mode transition (exercised both ways: the default
//!   spill threshold crosses naturally on large pending sets, and a zero
//!   threshold forces every entry through the slot hierarchy).

use crate::queue::EventQueue;
use crate::{EventEngine, Time};
use proptest::prelude::*;

/// One step of the differential workload.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + offset`; the offset class picks the wheel level.
    Push(u64),
    /// Schedule `count` events at exactly `now + offset` (tie-break burst).
    Burst(u64, u8),
    /// Pop once and compare.
    Pop,
    /// Peek (may advance the wheel cursor), then push below the peeked
    /// time, then pop — the schedule-while-draining shape.
    PeekPushPop(u64),
    /// Take a sequence number on both sides and queue nothing yet.
    Reserve,
    /// Queue one of the reserved numbers (picked by index) at `now +
    /// offset`.
    PushReserved(u8, u64),
}

/// Map a (class, raw) pair to an offset whose class picks the wheel level
/// the event lands on (the vendored proptest stand-in has no `prop_oneof!`,
/// so the branch choice is an explicit generated discriminant).
fn offset(class: u8, raw: u64) -> u64 {
    match class % 6 {
        0 => 0,                                               // same instant
        1 => 1 + raw % 0xFF,                                  // inside one grain window
        2 => 0x100 + raw % (0x1_0000 - 0x100),                // level 0
        3 => 0x1_0000 + raw % (0x100_0000 - 0x1_0000),        // levels 1..2
        4 => 0x100_0000 + raw % (0x1_0000_0000 - 0x100_0000), // levels 2..3
        _ => 0x100_0000_0000 + raw % 0xF00_0000_0000,         // overflow heap
    }
}

/// Generate one op from primitive draws: `kind` weights push, pop, burst,
/// peek-push-pop, reserve and push-reserved 3:3:1:1:1:1 so sequences both
/// grow and drain.
fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>(), any::<u64>(), any::<u8>()).prop_map(|(kind, class, raw, n)| {
        match kind % 10 {
            0..=2 => Op::Push(offset(class, raw)),
            3..=5 => Op::Pop,
            6 => Op::Burst(offset(class, raw), 1 + n % 11),
            7 => Op::PeekPushPop(offset(class, raw)),
            8 => Op::Reserve,
            _ => Op::PushReserved(n, offset(class, raw)),
        }
    })
}

/// Run the op sequence against both schedulers, asserting identical
/// observable behavior after every operation.
fn run_differential(ops: Vec<Op>, mut wheel: EventEngine<u64>) {
    let mut heap = EventQueue::new();
    let mut id = 0u64;
    let mut reserved = Vec::new();
    for op in ops {
        match op {
            Op::Push(off) => {
                let at = Time(heap.now().nanos() + off);
                heap.push(at, id);
                wheel.push(at, id);
                id += 1;
            }
            Op::Burst(off, n) => {
                let at = Time(heap.now().nanos() + off);
                for _ in 0..n {
                    heap.push(at, id);
                    wheel.push(at, id);
                    id += 1;
                }
            }
            Op::Pop => {
                assert_eq!(heap.pop(), wheel.pop());
            }
            Op::PeekPushPop(off) => {
                // peek_time may advance the wheel's cursor; a push between
                // the peek and the pop can then land below it.
                assert_eq!(heap.peek_time(), wheel.peek_time());
                let at = Time(heap.now().nanos() + off);
                heap.push(at, id);
                wheel.push(at, id);
                id += 1;
                assert_eq!(heap.pop(), wheel.pop());
            }
            Op::Reserve => {
                let seq = heap.reserve_seq();
                assert_eq!(seq, wheel.reserve_seq());
                reserved.push(seq);
            }
            Op::PushReserved(i, off) => {
                if !reserved.is_empty() {
                    let seq = reserved.swap_remove(usize::from(i) % reserved.len());
                    let at = Time(heap.now().nanos() + off);
                    heap.push_seq(at, seq, id);
                    wheel.push_seq(at, seq, id);
                    id += 1;
                }
            }
        }
        assert_eq!(heap.len(), wheel.len());
        assert_eq!(heap.now(), wheel.now());
    }
    // Drain both to the end: total order must match exactly.
    loop {
        let a = heap.pop();
        let b = wheel.pop();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wheel_matches_heap_default_threshold(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run_differential(ops, EventEngine::default());
    }

    #[test]
    fn wheel_matches_heap_forced_wheel_mode(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run_differential(ops, EventEngine::with_spill_threshold(0));
    }
}

/// Deterministic (non-proptest) regression: a large same-instant burst that
/// crosses the default spill threshold mid-burst must stay FIFO through the
/// heap-mode → wheel-mode transition.
#[test]
fn same_instant_burst_across_spill_transition() {
    let mut heap = EventQueue::new();
    let mut wheel = EventEngine::default();
    let at = Time(1_000_000);
    for id in 0..2000u64 {
        heap.push(at, id);
        wheel.push(at, id);
    }
    for _ in 0..2000 {
        assert_eq!(heap.pop(), wheel.pop());
    }
    assert_eq!(wheel.pop(), None);
}

/// Deterministic regression: events pushed beyond the wheel window while
/// draining migrate back in, in order, including ties at the window edge.
#[test]
fn overflow_migration_preserves_order() {
    let mut heap = EventQueue::new();
    let mut wheel = EventEngine::with_spill_threshold(0);
    let far = 0x200_0000_0000u64; // > 2^40: overflow heap territory
    for id in 0..8u64 {
        let at = Time(far + (id % 2) * 0x100_0000_0000);
        heap.push(at, id);
        wheel.push(at, id);
    }
    heap.push(Time(5), 100);
    wheel.push(Time(5), 100);
    loop {
        let a = heap.pop();
        let b = wheel.pop();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
