//! One queued wakeup per live timer.
//!
//! Net/2 keeps one callout per connection timer and resets it in place.
//! The world does the same with the kernel's
//! [`Effect::Timer`](outboard_stack::Effect::Timer) arms: each (host,
//! [`TimerKind`]) slot, one timer of one socket or interface, holds its
//! latest arm plus the one [`Event::Timer`] of that slot in the queue.
//!
//! * An arm at or after the queued wakeup only replaces the slot's arm.
//! * An arm before it queues a new wakeup; the old one is dead and is
//!   dropped when it pops.
//! * A wakeup that pops while a later arm is current is queued again at
//!   that arm's time.
//! * Only a slot's latest arm reaches the kernel, whose armed state
//!   decides whether it does anything.
//!
//! Each arm reserves its sequence number when it is made, so timers and
//! every other event break ties at one instant exactly as they would if
//! every arm were pushed on the spot.

use crate::world::Event;
use outboard_sim::{EventEngine, Time};
use outboard_stack::TimerKind;

/// A slot's latest arm and its queued wakeup.
#[derive(Clone, Copy)]
struct Pending {
    /// When the latest arm fires.
    at: Time,
    /// The sequence number the latest arm reserved.
    seq: u64,
    /// `(at, seq)` of the slot's wakeup in the queue; never after the arm.
    wake_at: Time,
    wake_seq: u64,
}

/// The three timers of one socket (`TcpRexmt`, `TcpDelack`,
/// `TcpTimeWait`) or of one interface (`CabRetry`, `CabProbe`,
/// `CabWatchdog`).
type Row = [Option<Pending>; 3];

/// Every host's timer slots; socket and interface ids are issued
/// sequentially per host, so rows are indexed directly.
#[derive(Default)]
pub(crate) struct TimerTable {
    /// `[host][sock]`.
    tcp: Vec<Vec<Row>>,
    /// `[host][iface]`.
    cab: Vec<Vec<Row>>,
}

impl TimerTable {
    fn slot(&mut self, host: usize, kind: TimerKind) -> &mut Option<Pending> {
        let (table, id, variant) = match kind {
            TimerKind::TcpRexmt { sock } => (&mut self.tcp, sock.0, 0),
            TimerKind::TcpDelack { sock } => (&mut self.tcp, sock.0, 1),
            TimerKind::TcpTimeWait { sock } => (&mut self.tcp, sock.0, 2),
            TimerKind::CabRetry { iface } => (&mut self.cab, iface.0, 0),
            TimerKind::CabProbe { iface } => (&mut self.cab, iface.0, 1),
            TimerKind::CabWatchdog { iface } => (&mut self.cab, iface.0, 2),
        };
        if table.len() <= host {
            table.resize_with(host + 1, Vec::new);
        }
        let rows = &mut table[host];
        let id = id as usize;
        if rows.len() <= id {
            rows.resize(id + 1, [None; 3]);
        }
        &mut rows[id][variant]
    }

    /// Arm `kind` on `host` to fire at `at`, superseding the slot's
    /// previous arm.
    pub(crate) fn arm(
        &mut self,
        queue: &mut EventEngine<Event>,
        host: usize,
        at: Time,
        kind: TimerKind,
    ) {
        let seq = queue.reserve_seq();
        let slot = self.slot(host, kind);
        if let Some(p) = slot.as_mut().filter(|p| p.wake_at <= at) {
            // The queued wakeup comes first and re-queues itself for this arm.
            (p.at, p.seq) = (at, seq);
            return;
        }
        *slot = Some(Pending {
            at,
            seq,
            wake_at: at,
            wake_seq: seq,
        });
        queue.push_seq(at, seq, Event::Timer { host, kind, seq });
    }

    /// Queue `ev` again at `until` under a fresh sequence number, as a
    /// paused host's events are. A timer is re-armed in its slot, so it
    /// stays that slot's latest arm.
    pub(crate) fn defer(&mut self, queue: &mut EventEngine<Event>, until: Time, ev: Event) {
        match ev {
            Event::Timer { host, kind, .. } => self.arm(queue, host, until, kind),
            ev => queue.push(until, ev),
        }
    }

    /// A wakeup queued under `seq` for `kind`'s slot popped. True when it
    /// is the slot's latest arm, which the caller delivers (the slot is
    /// then empty); false when it is dead or has been queued again at the
    /// latest arm's time.
    pub(crate) fn wakeup(
        &mut self,
        queue: &mut EventEngine<Event>,
        host: usize,
        kind: TimerKind,
        seq: u64,
    ) -> bool {
        let slot = self.slot(host, kind);
        let Some(p) = slot.as_mut().filter(|p| p.wake_seq == seq) else {
            return false;
        };
        if p.seq == seq {
            *slot = None;
            return true;
        }
        (p.wake_at, p.wake_seq) = (p.at, p.seq);
        let ev = Event::Timer {
            host,
            kind,
            seq: p.seq,
        };
        queue.push_seq(p.at, p.seq, ev);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_host::TaskId;
    use outboard_stack::{IfaceId, SockId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The timers the model arms, per host: three of one socket, one of
    /// another, and one interface timer.
    fn kind_of(key: usize) -> TimerKind {
        let (sock, iface) = (SockId(3), IfaceId(0));
        match key {
            0 => TimerKind::TcpRexmt { sock },
            1 => TimerKind::TcpTimeWait { sock },
            2 => TimerKind::TcpDelack { sock },
            3 => TimerKind::TcpRexmt { sock: SockId(4) },
            _ => TimerKind::CabRetry { iface },
        }
    }
    const KEYS: usize = 5;

    /// The key a delivered kind was armed under.
    fn key_of(kind: TimerKind) -> usize {
        (0..KEYS)
            .find(|&key| kind_of(key) == kind)
            .expect("the model arms only its own keys")
    }

    /// What the model does while it handles one delivered event. Every
    /// delivery applies the ops up to the next `Yield` at its own instant,
    /// as the kernel arms timers only while the world dispatches to it.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Arm the key `delay` from now.
        Arm { host: usize, key: usize, delay: u64 },
        /// Clear the key's armed flag (everything acked).
        Disarm { host: usize, key: usize },
        /// A non-timer event for the host, `delay` from now.
        Plain { host: usize, delay: u64 },
        /// The host's CPU-side events defer until `dur` from now.
        Pause { host: usize, dur: u64 },
        /// Done with this delivery; the next ops wait for the next one.
        Yield,
    }

    /// Draw one op; `class` weights arm : disarm : plain : pause :
    /// yield as 4 : 1 : 2 : 1 : 3. Delays sit on a coarse grid, so arms at
    /// one instant on different keys, and later, earlier and equal re-arms
    /// of one key, are all common.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0..2usize, 0..KEYS, 0u64..6, 1u64..300).prop_map(|(class, host, key, d, dur)| {
            let delay = d * 40;
            match class {
                0..=3 => Op::Arm { host, key, delay },
                4 => Op::Disarm { host, key },
                5 | 6 => Op::Plain { host, delay },
                7 => Op::Pause { host, dur },
                _ => Op::Yield,
            }
        })
    }

    /// What was delivered and when: the latest arm of an armed timer, or a
    /// plain event.
    type Log = Vec<(Time, usize, Result<TimerKind, u32>)>;

    /// One side of the differential: a queue, the model kernel's armed
    /// flags, host pauses, and either the timer table or nothing (the
    /// reference, which pushes every arm).
    struct Side {
        queue: EventEngine<Event>,
        table: Option<TimerTable>,
        /// `[host][key]`: the model kernel's armed flag.
        armed: [[bool; KEYS]; 2],
        /// `[host][key]`: the sequence number of the latest arm (in the
        /// table, where a deferral moves it under a fresh one).
        latest: [[Option<u64>; KEYS]; 2],
        paused_until: BTreeMap<usize, Time>,
        log: Log,
        plain: u32,
    }

    impl Side {
        fn new(engine: Engine, table: bool) -> Side {
            Side {
                queue: engine.build(),
                table: table.then(TimerTable::default),
                armed: [[false; KEYS]; 2],
                latest: [[None; KEYS]; 2],
                paused_until: BTreeMap::new(),
                log: Vec::new(),
                plain: 0,
            }
        }

        /// Arm `key`, recording the sequence number the arm reserved.
        fn arm(&mut self, host: usize, at: Time, key: usize) {
            let kind = kind_of(key);
            let seq = match &mut self.table {
                Some(t) => {
                    t.arm(&mut self.queue, host, at, kind);
                    t.slot(host, kind).map(|p| p.seq)
                }
                None => {
                    let seq = self.queue.reserve_seq();
                    self.queue
                        .push_seq(at, seq, Event::Timer { host, kind, seq });
                    Some(seq)
                }
            };
            self.latest[host][key] = seq;
        }

        fn plain(&mut self, host: usize, at: Time) {
            self.plain += 1;
            let task = TaskId(self.plain);
            self.queue.push(at, Event::AppStep { host, task });
        }

        fn apply(&mut self, op: Op) {
            let now = self.queue.now();
            match op {
                Op::Arm { host, key, delay } => {
                    self.armed[host][key] = true;
                    self.arm(host, Time(now.nanos() + delay), key);
                }
                Op::Disarm { host, key } => self.armed[host][key] = false,
                Op::Plain { host, delay } => self.plain(host, Time(now.nanos() + delay)),
                Op::Pause { host, dur } => {
                    let until = Time(now.nanos() + dur);
                    let e = self.paused_until.entry(host).or_insert(until);
                    *e = (*e).max(until);
                }
                Op::Yield => {}
            }
        }

        /// Pop and handle events until one is logged; false once the queue
        /// is empty.
        fn deliver(&mut self) -> bool {
            while let Some((now, ev)) = self.queue.pop() {
                if self.handle(now, ev) {
                    return true;
                }
            }
            false
        }

        /// `World::dispatch` up to the kernel call: true when `ev` is
        /// logged.
        fn handle(&mut self, now: Time, ev: Event) -> bool {
            if let (Some(t), &Event::Timer { host, kind, seq }) = (&mut self.table, &ev) {
                if !t.wakeup(&mut self.queue, host, kind, seq) {
                    return false;
                }
                let latest = self.latest[host][key_of(kind)];
                assert_eq!(latest, Some(seq), "delivered a superseded arm");
            }
            let host = match ev {
                Event::Timer { host, .. } | Event::AppStep { host, .. } => host,
                _ => unreachable!("the model queues only timers and app steps"),
            };
            if let Some(&until) = self.paused_until.get(&host).filter(|&&u| now < u) {
                match &mut self.table {
                    Some(t) => {
                        let timer = match ev {
                            Event::Timer { kind, .. } => Some(kind),
                            _ => None,
                        };
                        t.defer(&mut self.queue, until, ev);
                        // The deferred arm is still the latest, under a
                        // fresh sequence number.
                        if let Some(kind) = timer {
                            self.latest[host][key_of(kind)] = t.slot(host, kind).map(|p| p.seq);
                        }
                    }
                    None => self.queue.push(until, ev),
                }
                return false;
            }
            let entry = match ev {
                Event::Timer { kind, seq, .. } => {
                    let key = key_of(kind);
                    if self.latest[host][key] != Some(seq) || !self.armed[host][key] {
                        return false;
                    }
                    self.armed[host][key] = false;
                    Ok(kind)
                }
                Event::AppStep { task, .. } => Err(task.0),
                _ => return false,
            };
            self.log.push((now, host, entry));
            true
        }
    }

    /// The engine setups the differential runs on: as worlds build it
    /// (heap mode at these depths), and in slot mode from the first push.
    #[derive(Clone, Copy, Debug)]
    enum Engine {
        Default,
        Slots,
    }

    impl Engine {
        fn build(self) -> EventEngine<Event> {
            match self {
                Engine::Default => EventEngine::default(),
                Engine::Slots => EventEngine::with_spill_threshold(0),
            }
        }
    }

    /// Drive the reference and the table through `ops` in lockstep;
    /// returns both logs and the most wakeups the table had queued.
    fn run(engine: Engine, ops: &[Op]) -> (Log, Log, usize) {
        let [mut reference, mut table] = [false, true].map(|t| Side::new(engine, t));
        let mut ops = ops.iter().copied().peekable();
        let mut max_pending = 0;
        loop {
            for op in ops.by_ref().take_while(|op| !matches!(op, Op::Yield)) {
                reference.apply(op);
                table.apply(op);
            }
            max_pending = max_pending.max(table.queue.len());
            let delivered = [reference.deliver(), table.deliver()];
            if delivered == [false, false] {
                if ops.peek().is_none() {
                    break;
                }
                // Both drained with ops left: deliver one event at an
                // instant no earlier than either clock, and go on from it.
                let at = reference.queue.now().max(table.queue.now());
                for side in [&mut reference, &mut table] {
                    side.plain(0, at);
                    side.deliver();
                }
            }
        }
        (reference.log, table.log, max_pending)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The latest arms of armed timers are delivered at the same
        /// times and in the same order, interleaved identically with other
        /// events and host pauses, in both engine setups; and the table never
        /// delivers an arm that a later one superseded.
        #[test]
        fn table_delivers_what_pushing_every_arm_does(
            ops in proptest::collection::vec(op(), 1..120)
        ) {
            for engine in [Engine::Default, Engine::Slots] {
                let (want, got, _) = run(engine, &ops);
                prop_assert_eq!(&got, &want, "{:?}", engine);
            }
        }
    }

    #[test]
    fn re_arms_keep_one_wakeup_per_slot() {
        // Forty later re-arms of one timer and one earlier one: at most
        // two wakeups queued at a time, and the last arm fires once.
        let ops: Vec<Op> = (0..40)
            .map(|i| Op::Arm {
                host: 0,
                key: 2,
                delay: 200 + i,
            })
            .chain([Op::Arm {
                host: 0,
                key: 2,
                delay: 10,
            }])
            .collect();
        let (want, got, max_pending) = run(Engine::Default, &ops);
        assert_eq!(got, want);
        assert_eq!(max_pending, 2);
        assert_eq!(got.len(), 1);
    }
}
