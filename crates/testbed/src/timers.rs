//! One queued wakeup per live timer.
//!
//! The kernel re-arms a timer by bumping its generation counter and
//! returning a fresh [`Effect::Timer`](outboard_stack::Effect::Timer); its
//! `timer_fire` ignores a stale generation. Net/2 instead resets the one
//! callout it keeps per connection. The world does that resetting here,
//! behind the kernel's unchanged interface: each (host, [`TimerKind`]
//! variant, socket or interface) slot holds its latest arm plus the one
//! [`Event::Timer`] of that slot in the queue.
//!
//! * An arm at or after the queued wakeup only replaces the slot's arm.
//! * An arm before it queues a new wakeup; the old one is dead and is
//!   dropped when it pops.
//! * A wakeup that pops while a later arm is current is queued again at
//!   that arm's time.
//! * Only a slot's latest arm reaches the kernel, whose generation check
//!   still decides whether it does anything.
//!
//! Slots are keyed by *variant*, not by generation counter:
//! `TcpTimeWait` shares `rexmt_gen` with `TcpRexmt`, and the two are
//! separate timers. Each arm reserves its sequence number when it is made,
//! so timers and every other event break ties at one instant exactly as
//! they would if every arm were pushed on the spot.

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
    /// What the latest arm delivers.
    kind: TimerKind,
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
            TimerKind::TcpRexmt { sock, .. } => (&mut self.tcp, sock.0, 0),
            TimerKind::TcpDelack { sock, .. } => (&mut self.tcp, sock.0, 1),
            TimerKind::TcpTimeWait { sock, .. } => (&mut self.tcp, sock.0, 2),
            TimerKind::CabRetry { iface, .. } => (&mut self.cab, iface.0, 0),
            TimerKind::CabProbe { iface, .. } => (&mut self.cab, iface.0, 1),
            TimerKind::CabWatchdog { iface, .. } => (&mut self.cab, iface.0, 2),
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
            (p.at, p.seq, p.kind) = (at, seq, kind);
            return;
        }
        *slot = Some(Pending {
            at,
            seq,
            kind,
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
            kind: p.kind,
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

    /// The timers the model arms, per host. Keys 0 and 1 share one
    /// generation counter, as `TcpRexmt` and `TcpTimeWait` share
    /// `rexmt_gen`; every other key has its own. A generation is
    /// `counter * KEYS + key`, so a delivered kind names its key.
    fn kind_of(key: usize, counter: u64) -> TimerKind {
        let generation = counter * KEYS as u64 + key as u64;
        let (sock, iface) = (SockId(3), IfaceId(0));
        match key {
            0 => TimerKind::TcpRexmt { sock, generation },
            1 => TimerKind::TcpTimeWait { sock, generation },
            2 => TimerKind::TcpDelack { sock, generation },
            3 => TimerKind::TcpRexmt {
                sock: SockId(4),
                generation,
            },
            _ => TimerKind::CabRetry { iface, generation },
        }
    }
    const KEYS: usize = 5;

    /// The key a delivered kind was armed under, and the counter value it
    /// was armed at.
    fn key_of(kind: TimerKind) -> (usize, u64) {
        let g = match kind {
            TimerKind::TcpRexmt { generation, .. }
            | TimerKind::TcpDelack { generation, .. }
            | TimerKind::TcpTimeWait { generation, .. }
            | TimerKind::CabRetry { generation, .. }
            | TimerKind::CabProbe { generation, .. }
            | TimerKind::CabWatchdog { generation, .. } => generation,
        };
        ((g % KEYS as u64) as usize, g / KEYS as u64)
    }

    /// The generation counter a key bumps.
    fn counter_of(key: usize) -> usize {
        if key == 1 {
            0
        } else {
            key
        }
    }

    /// What the model does while it handles one delivered event. Every
    /// delivery applies the ops up to the next `Yield` at its own instant,
    /// as the kernel arms timers only while the world dispatches to it.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Bump the key's generation and arm it `delay` from now.
        Arm { host: usize, key: usize, delay: u64 },
        /// Bump the key's generation without arming (everything acked).
        Invalidate { host: usize, key: usize },
        /// A non-timer event for the host, `delay` from now.
        Plain { host: usize, delay: u64 },
        /// The host's CPU-side events defer until `dur` from now.
        Pause { host: usize, dur: u64 },
        /// Done with this delivery; the next ops wait for the next one.
        Yield,
    }

    /// Draw one op; `class` weights arm : invalidate : plain : pause :
    /// yield as 4 : 1 : 2 : 1 : 3. Delays sit on a coarse grid, so arms at
    /// one instant on different keys, and later, earlier and equal re-arms
    /// of one key, are all common.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0..2usize, 0..KEYS, 0u64..6, 1u64..300).prop_map(|(class, host, key, d, dur)| {
            let delay = d * 40;
            match class {
                0..=3 => Op::Arm { host, key, delay },
                4 => Op::Invalidate { host, key },
                5 | 6 => Op::Plain { host, delay },
                7 => Op::Pause { host, dur },
                _ => Op::Yield,
            }
        })
    }

    /// What was delivered and when: a timer whose generation was current,
    /// or a plain event.
    type Log = Vec<(Time, usize, Result<TimerKind, u32>)>;

    /// One side of the differential: a queue, the model kernel's
    /// generations, host pauses, and either the timer table or nothing
    /// (the reference, which pushes every arm).
    struct Side {
        queue: EventEngine<Event>,
        table: Option<TimerTable>,
        /// `[host][counter]`: the current generation.
        gens: [[u64; KEYS]; 2],
        /// `[host][key]`: the latest arm, for the "never superseded" check.
        latest: [[Option<TimerKind>; KEYS]; 2],
        paused_until: BTreeMap<usize, Time>,
        log: Log,
        plain: u32,
    }

    impl Side {
        fn new(engine: Engine, table: bool) -> Side {
            Side {
                queue: engine.build(),
                table: table.then(TimerTable::default),
                gens: [[0; KEYS]; 2],
                latest: [[None; KEYS]; 2],
                paused_until: BTreeMap::new(),
                log: Vec::new(),
                plain: 0,
            }
        }

        fn arm(&mut self, host: usize, at: Time, kind: TimerKind) {
            match &mut self.table {
                Some(t) => t.arm(&mut self.queue, host, at, kind),
                None => self.queue.push(at, Event::Timer { host, kind, seq: 0 }),
            }
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
                    let g = &mut self.gens[host][counter_of(key)];
                    *g += 1;
                    let kind = kind_of(key, *g);
                    self.latest[host][key] = Some(kind);
                    self.arm(host, Time(now.nanos() + delay), kind);
                }
                Op::Invalidate { host, key } => self.gens[host][counter_of(key)] += 1,
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
                let latest = self.latest[host][key_of(kind).0];
                assert_eq!(latest, Some(kind), "delivered a superseded arm");
            }
            let host = match ev {
                Event::Timer { host, .. } | Event::AppStep { host, .. } => host,
                _ => unreachable!("the model queues only timers and app steps"),
            };
            if let Some(&until) = self.paused_until.get(&host).filter(|&&u| now < u) {
                match &mut self.table {
                    Some(t) => t.defer(&mut self.queue, until, ev),
                    None => self.queue.push(until, ev),
                }
                return false;
            }
            let entry = match ev {
                Event::Timer { kind, .. } => {
                    let (key, armed_at) = key_of(kind);
                    if self.gens[host][counter_of(key)] != armed_at {
                        return false;
                    }
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

        /// Timers whose generation is current are delivered at the same
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
