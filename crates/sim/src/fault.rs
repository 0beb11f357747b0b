//! One fault plan: every injected fault is a [`Fault`] — a trigger, a
//! target and an action.
//!
//! A trigger is a sim time (`At`), the k-th crossing of the target's
//! injection point (`Crossing`), or a per-crossing `Chance` drawn from the
//! device's own seeded [`Pcg32`]. A link crosses [`Point::Frame`] once per
//! frame offered; a CAB crosses the other points. Each device keeps its
//! entries, counts and stream in an [`Injector`]. The world actions (link
//! down, partition, delay spike, board crash, netmem squeeze, host pause)
//! take `At` triggers only; an `At` entry on a point arms its device, whose
//! next crossing fires it.
//!
//! Every fault that fires lands in the run's [`FaultLog`], a point fault as
//! the `Crossing` it fired at (a corruption with the bit it flipped). A
//! fault's line — `at 73950000 host0 link_down 50000000`, `crossing 39
//! host1.mdma wedge`, `chance 0.05 host0.frame drop`, in integral
//! nanoseconds — is its only textual form, so a run's log, rendered, is a
//! [`FaultPlan`] that replays the run with no `Chance` left.

use crate::json::ParseError;
use crate::obs::Scope;
use crate::rng::{check_probability, Chance, FaultConfigError, Pcg32};
use crate::time::{Dur, Time};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// When a fault fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// At this sim time (a point is armed for its next crossing).
    At(Time),
    /// At the k-th crossing of the target's point (the first is 1).
    Crossing(u64),
    /// At each crossing of the target's point, with this probability.
    Chance(Chance),
}

/// An injection point: where a device consults its fault entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// A frame offered to a host's outbound link.
    Frame,
    /// A CAB SDMA transfer (gather or copy-out).
    Sdma,
    /// A CAB transmit MDMA transfer.
    Mdma,
    /// A CAB network-memory allocation.
    Alloc,
    /// A CAB outboard checksum insertion.
    Csum,
}

const POINTS: [(Point, &str); 5] = [
    (Point::Frame, "frame"),
    (Point::Sdma, "sdma"),
    (Point::Mdma, "mdma"),
    (Point::Alloc, "alloc"),
    (Point::Csum, "csum"),
];

/// What a fault acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A point of host `0`: its outbound link's for `Frame`, else its CAB's.
    Point(usize, Point),
    /// A host (world actions).
    Host(usize),
    /// Every link (a partition).
    All,
}

/// What a fault does. The first eight act at a point, the rest on the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Drop the frame.
    Drop,
    /// Flip this bit of the frame, or one drawn from the link's stream.
    Corrupt(Option<u32>),
    /// Flip two payload bits so that the Internet checksum still verifies
    /// (the planted bug only the end-to-end oracle sees).
    StealthCorrupt,
    /// Deliver the frame this much later (behind frames sent after it).
    Delay(Dur),
    /// Deliver the frame twice.
    Duplicate,
    /// Fail the transfer or allocation transiently.
    Fail,
    /// Wedge the engine until the board is reset.
    Wedge,
    /// Insert a wrong outboard checksum.
    Miscompute,
    /// Take the host's outbound links down for the window.
    LinkDown(Dur),
    /// Take every link down for the window.
    Partition(Dur),
    /// Add `extra` latency to the host's outbound links for `dur`.
    DelaySpike {
        /// Added one-way latency.
        extra: Dur,
        /// Window length.
        dur: Dur,
    },
    /// Crash the host's CAB: rescue, reset, degrade, rebuild transmit.
    BoardCrash,
    /// Reserve `permille`/1000 of the host's netmem pages for `dur`.
    NetmemSqueeze {
        /// Share of the pages reserved, in parts per thousand.
        permille: u32,
        /// Window length.
        dur: Dur,
    },
    /// Defer the host's CPU-side events for the window.
    HostPause(Dur),
}

/// The actions' words, in [`Action`] order: the counters' order too.
const ACTIONS: [&str; 14] = [
    "drop",
    "corrupt",
    "stealth_corrupt",
    "delay",
    "duplicate",
    "fail",
    "wedge",
    "miscompute",
    "link_down",
    "partition",
    "delay_spike",
    "board_crash",
    "netmem_squeeze",
    "host_pause",
];

/// An action's numeric arguments as its line spells them.
type Args = [Option<u64>; 2];

/// The counter index of the action called `name`.
fn kind(name: &str) -> usize {
    let i = ACTIONS.iter().position(|a| *a == name);
    debug_assert!(i.is_some(), "no fault action {name:?}");
    i.unwrap_or(0)
}

impl Action {
    /// The word and the arguments of the action's text.
    fn parts(self) -> (&'static str, Args) {
        let ns = |d: Dur| Some(d.as_nanos());
        let (i, args) = match self {
            Action::Drop => (0, [None, None]),
            Action::Corrupt(bit) => (1, [bit.map(u64::from), None]),
            Action::StealthCorrupt => (2, [None, None]),
            Action::Delay(d) => (3, [ns(d), None]),
            Action::Duplicate => (4, [None, None]),
            Action::Fail => (5, [None, None]),
            Action::Wedge => (6, [None, None]),
            Action::Miscompute => (7, [None, None]),
            Action::LinkDown(d) => (8, [ns(d), None]),
            Action::Partition(d) => (9, [ns(d), None]),
            Action::DelaySpike { extra, dur } => (10, [ns(extra), ns(dur)]),
            Action::BoardCrash => (11, [None, None]),
            Action::NetmemSqueeze { permille, dur } => (12, [Some(permille.into()), ns(dur)]),
            Action::HostPause(d) => (13, [ns(d), None]),
        };
        (ACTIONS[i], args)
    }

    /// The action whose [`Action::parts`] are `(name, args)`, if any.
    fn from_parts(name: &str, args: Args) -> Option<Action> {
        let [a, b] = args;
        let action = match name {
            "drop" => Action::Drop,
            "corrupt" => Action::Corrupt(a.map(u32::try_from).transpose().ok()?),
            "stealth_corrupt" => Action::StealthCorrupt,
            "delay" => Action::Delay(Dur(a?)),
            "duplicate" => Action::Duplicate,
            "fail" => Action::Fail,
            "wedge" => Action::Wedge,
            "miscompute" => Action::Miscompute,
            "link_down" => Action::LinkDown(Dur(a?)),
            "partition" => Action::Partition(Dur(a?)),
            "delay_spike" => Action::DelaySpike {
                extra: Dur(a?),
                dur: Dur(b?),
            },
            "board_crash" => Action::BoardCrash,
            "netmem_squeeze" => Action::NetmemSqueeze {
                permille: u32::try_from(a?).ok()?,
                dur: Dur(b?),
            },
            "host_pause" => Action::HostPause(Dur(a?)),
            _ => return None,
        };
        // Surplus arguments are an error, not ignored.
        (action.parts() == (name, args)).then_some(action)
    }

    /// The action's word: `wedge`, `link_down`, ...
    pub fn name(self) -> &'static str {
        self.parts().0
    }

    /// True for the actions a device takes at an injection point.
    pub fn on_point(self) -> bool {
        kind(self.name()) < kind("link_down")
    }

    /// The window length of a durable world action: its last argument.
    pub fn window(self) -> Option<Dur> {
        let [a, b] = self.parts().1;
        (!self.on_point()).then_some(b.or(a).map(Dur)).flatten()
    }

    /// The same action with its window narrowed to `dur` (the shrinker).
    pub(crate) fn with_window(self, dur: Dur) -> Action {
        let (name, mut args) = self.parts();
        args[usize::from(args[1].is_some())] = Some(dur.as_nanos());
        Action::from_parts(name, args).unwrap_or(self)
    }
}

/// One fault: fire `action` on `target` when `trigger` says.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// When it fires.
    pub trigger: Trigger,
    /// What it acts on.
    pub target: Target,
    /// What it does.
    pub action: Action,
}

impl Fault {
    fn new(trigger: Trigger, target: Target, action: Action) -> Fault {
        Fault {
            trigger,
            target,
            action,
        }
    }

    /// A `Chance` entry, its probability checked here, once: a value
    /// outside `[0, 1]` (or not finite) is reported under `knob`.
    pub fn chance(
        knob: &'static str,
        p: f64,
        target: Target,
        action: Action,
    ) -> Result<Fault, FaultConfigError> {
        check_probability(knob, p)?;
        Ok(Fault::new(Trigger::Chance(Chance::new(p)), target, action))
    }

    /// The entry firing `action` at the `k`-th crossing of host `host`'s
    /// `point`.
    pub fn crossing(k: u64, host: usize, point: Point, action: Action) -> Fault {
        Fault::new(Trigger::Crossing(k), Target::Point(host, point), action)
    }

    /// The entry firing `action` on `target` at sim time `at`.
    pub fn at(at: Time, target: Target, action: Action) -> Fault {
        Fault::new(Trigger::At(at), target, action)
    }

    /// The time of an `At` entry; zero for the other triggers.
    pub fn time(&self) -> Time {
        match self.trigger {
            Trigger::At(t) => t,
            _ => Time::ZERO,
        }
    }

    fn point(&self) -> Option<Point> {
        match self.target {
            Target::Point(_, p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.trigger {
            Trigger::At(t) => write!(f, "at {}", t.nanos())?,
            Trigger::Crossing(k) => write!(f, "crossing {k}")?,
            Trigger::Chance(c) => write!(f, "chance {}", c.p())?,
        }
        match self.target {
            Target::Point(host, p) => write!(f, " host{host}.{}", POINTS[p as usize].1)?,
            Target::Host(host) => write!(f, " host{host}")?,
            Target::All => f.write_str(" all")?,
        }
        let (name, args) = self.action.parts();
        write!(f, " {name}")?;
        args.into_iter()
            .flatten()
            .try_for_each(|a| write!(f, " {a}"))
    }
}

impl FromStr for Fault {
    type Err = String;

    /// Parse one fault line (the [`fmt::Display`] form).
    fn from_str(line: &str) -> Result<Fault, String> {
        let bad = || format!("bad fault line {line:?}");
        let w: Vec<&str> = line.split_whitespace().collect();
        let ([when, n, target, name], args) = w.split_first_chunk::<4>().ok_or_else(bad)?;
        let num = |w: &str| w.parse::<u64>().map_err(|_| bad());
        let trigger = match *when {
            "at" => Trigger::At(Time(num(n)?)),
            "crossing" => Trigger::Crossing(num(n)?),
            "chance" => {
                let p = n.parse().map_err(|_| bad())?;
                check_probability("chance", p).map_err(|e| e.to_string())?;
                Trigger::Chance(Chance::new(p))
            }
            _ => return Err(bad()),
        };
        let host = |h: &str| h.strip_prefix("host").and_then(|h| h.parse().ok());
        let target = match target.split_once('.') {
            _ if *target == "all" => Target::All,
            None => Target::Host(host(target).ok_or_else(bad)?),
            Some((h, p)) => {
                let point = POINTS.iter().find(|(_, n)| *n == p).ok_or_else(bad)?.0;
                Target::Point(host(h).ok_or_else(bad)?, point)
            }
        };
        let mut nums: Args = [None, None];
        if args.len() > 2 {
            return Err(bad());
        }
        for (slot, a) in nums.iter_mut().zip(args) {
            *slot = Some(num(a)?);
        }
        let action = Action::from_parts(name, nums).ok_or_else(bad)?;
        let at = matches!(trigger, Trigger::At(_));
        let on_point = matches!(target, Target::Point(..));
        if action.on_point() != on_point || !(on_point || at) {
            return Err(bad());
        }
        Ok(Fault::new(trigger, target, action))
    }
}

/// A list of faults, in the order they were written or fired, and the seed
/// of the run they belong to (0 for a hand-written plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The run's seed: a replay builds its world from it.
    pub seed: u64,
    /// The entries. `At` entries at equal times apply in this order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The plan as text: a `seed` line, then one fault line per entry.
    pub fn render(&self) -> String {
        let lines = self.faults.iter().map(|f| format!("{f}\n"));
        format!("seed {}\n", self.seed) + &lines.collect::<String>()
    }

    /// Parse [`FaultPlan::render`]'s text; blank lines are skipped.
    pub fn parse(text: &str) -> Result<FaultPlan, ParseError> {
        let mut plan = FaultPlan::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            let err = |e| ParseError(format!("line {}: {e}", i + 1));
            if let Some(n) = line.strip_prefix("seed ") {
                let seed = n.trim().parse();
                plan.seed = seed.map_err(|_| err(format!("bad seed {n:?}")))?;
            } else if !line.is_empty() {
                plan.faults.push(line.parse().map_err(err)?);
            }
        }
        Ok(plan)
    }
}

/// The run log every device of a world appends its fired faults to, in
/// firing order (a shared handle, like [`crate::BufPool`]).
#[derive(Clone, Debug, Default)]
pub struct FaultLog(Rc<RefCell<Vec<Fault>>>);

impl FaultLog {
    /// Append a fired fault.
    pub fn push(&self, fault: Fault) {
        self.0.borrow_mut().push(fault);
    }

    /// The log as a plan for run `seed`: it replays the run.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let faults = self.0.borrow().clone();
        FaultPlan { seed, faults }
    }
}

/// Rows of [`FaultCounts`]: one per point, then the world's `At` entries.
const ROWS: usize = POINTS.len() + 1;

/// The one counter shape of fault injection: crossings per point, and
/// faults fired per point (or world) and action. Each owner publishes it
/// under its own key names with [`FaultCounts::publish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    crossed: [u64; POINTS.len()],
    fired: [[u64; ACTIONS.len()]; ROWS],
}

/// A registry key and how its value is read from a [`FaultCounts`].
pub type CountKey = (&'static str, fn(&FaultCounts) -> u64);

impl FaultCounts {
    /// Crossings of `point`.
    pub fn crossed(&self, point: Point) -> u64 {
        self.crossed[point as usize]
    }

    /// Faults called `action` (`"wedge"`, ...) fired at `point`, or
    /// applied by the world (`None`).
    pub fn fired(&self, point: Option<Point>, action: &str) -> u64 {
        self.fired[point.map_or(ROWS - 1, |p| p as usize)][kind(action)]
    }

    /// Every `At` entry the world applied.
    pub fn applied(&self) -> u64 {
        self.fired[ROWS - 1].iter().sum()
    }

    /// Count one `action` fired at `point` (`None`: by the world).
    pub fn fire(&mut self, point: Option<Point>, action: Action) {
        self.fired[point.map_or(ROWS - 1, |p| p as usize)][kind(action.name())] += 1;
    }

    /// Publish `keys` into a registry scope.
    pub fn publish(&self, s: &mut Scope<'_>, keys: &[CountKey]) {
        for (name, read) in keys {
            s.counter(name, read(self));
        }
    }
}

/// What fired at one crossing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fired {
    /// Drop the frame.
    pub drop: bool,
    /// Flip this bit of the frame.
    pub corrupt_bit: Option<u32>,
    /// Corrupt the frame without changing its checksum.
    pub stealth: bool,
    /// Deliver the frame this much later.
    pub delay: Dur,
    /// Deliver the frame twice.
    pub duplicate: bool,
    /// Fail the transfer or allocation.
    pub fail: bool,
    /// Wedge the engine.
    pub wedge: bool,
    /// Insert a wrong checksum.
    pub miscompute: bool,
}

/// The fault entries one device (a link or a CAB) consults at its points,
/// its crossing counts and its own seeded stream.
#[derive(Debug)]
pub struct Injector {
    /// The entries in the order added. At a crossing the first armed `At`
    /// entry of the point fires alone; otherwise the `Crossing` and
    /// `Chance` entries fire in order, chances drawn in it, until one drops
    /// the frame or fails or wedges the transfer.
    rules: Vec<Fault>,
    rng: Pcg32,
    counts: FaultCounts,
    log: Option<FaultLog>,
}

impl Injector {
    /// An injector with no entries, its chances drawn from `seed`.
    pub fn new(seed: u64) -> Injector {
        Injector {
            rules: Vec::new(),
            rng: Pcg32::new(seed),
            counts: FaultCounts::default(),
            log: None,
        }
    }

    /// Log fired faults to `log`.
    pub fn set_log(&mut self, log: FaultLog) {
        self.log = Some(log);
    }

    /// Add an entry; an `At` entry is armed: the point's next crossing
    /// fires it.
    pub fn add(&mut self, fault: Fault) {
        self.rules.push(fault);
    }

    /// What this device has counted.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Count a stealth corruption that found bits to flip (the device
    /// decides that, not the entry).
    pub fn count_stealth(&mut self, point: Point) {
        self.counts.fire(Some(point), Action::StealthCorrupt);
    }

    /// Cross `point` with a frame or transfer of `len` bytes: count the
    /// crossing and fire what the entries say.
    #[inline]
    pub fn cross(&mut self, point: Point, len: usize) -> Fired {
        self.counts.crossed[point as usize] += 1;
        if self.rules.is_empty() {
            return Fired::default();
        }
        self.consult(point, len)
    }

    /// [`Injector::cross`] with entries to consult.
    fn consult(&mut self, point: Point, len: usize) -> Fired {
        let k = self.counts.crossed[point as usize];
        let mut fired = Fired::default();
        let mine = |f: &Fault| f.point() == Some(point);
        let armed = |f: &Fault| mine(f) && matches!(f.trigger, Trigger::At(_));
        if let Some(i) = self.rules.iter().position(armed) {
            let f = self.rules.remove(i);
            self.fire(k, f, len, &mut fired);
            return fired;
        }
        for r in 0..self.rules.len() {
            let f = self.rules[r];
            let hit = mine(&f)
                && match f.trigger {
                    Trigger::Crossing(n) => n == k,
                    Trigger::Chance(c) => c.possible() && self.rng.chance(c),
                    Trigger::At(_) => false,
                };
            if hit {
                self.fire(k, f, len, &mut fired);
                if fired.drop || fired.fail || fired.wedge {
                    break;
                }
            }
        }
        fired
    }

    /// Fire `f` at crossing `k`: apply it to `fired`, count it and log it
    /// as it fired (a corruption with its bit drawn).
    fn fire(&mut self, k: u64, f: Fault, len: usize, fired: &mut Fired) {
        let mut action = f.action;
        match action {
            Action::Drop => fired.drop = true,
            Action::Corrupt(bit) => {
                let bit = bit.or_else(|| (len > 0).then(|| self.rng.below((len * 8) as u32)));
                (fired.corrupt_bit, action) = (bit, Action::Corrupt(bit));
            }
            Action::StealthCorrupt => fired.stealth = true,
            Action::Delay(d) => fired.delay = d,
            Action::Duplicate => fired.duplicate = true,
            Action::Fail => fired.fail = true,
            Action::Wedge => fired.wedge = true,
            Action::Miscompute => fired.miscompute = true,
            _ => {}
        }
        if action != Action::StealthCorrupt {
            self.counts.fire(f.point(), action);
        }
        if let Some(log) = &self.log {
            log.push(Fault::new(Trigger::Crossing(k), f.target, action));
        }
    }
}

/// A plan with an entry of every action and trigger (unit tests).
#[cfg(test)]
pub(crate) fn sample_plan() -> FaultPlan {
    let ms = |n| Time::ZERO + Dur::millis(n);
    let frame = Target::Point(0, Point::Frame);
    let delay = Action::Delay(Dur::millis(1));
    let spike = Action::DelaySpike {
        extra: Dur::micros(250),
        dur: Dur::millis(5),
    };
    let squeeze = Action::NetmemSqueeze {
        permille: 1000,
        dur: Dur::millis(80),
    };
    FaultPlan {
        seed: 42,
        faults: vec![
            Fault::at(ms(10), Target::Host(0), Action::LinkDown(Dur::millis(50))),
            Fault::at(ms(20), Target::Host(1), spike),
            Fault::at(ms(30), Target::Point(0, Point::Mdma), Action::Wedge),
            Fault::at(ms(40), Target::Host(1), Action::BoardCrash),
            Fault::at(ms(50), Target::Host(0), squeeze),
            Fault::at(ms(60), Target::Host(1), Action::HostPause(Dur::millis(8))),
            Fault::at(ms(70), Target::All, Action::Partition(Dur::millis(30))),
            Fault::at(ms(80), frame, Action::StealthCorrupt),
            Fault::crossing(7, 1, Point::Frame, Action::Corrupt(Some(9137))),
            Fault::crossing(8, 1, Point::Frame, Action::Corrupt(None)),
            Fault::crossing(9, 0, Point::Alloc, Action::Fail),
            Fault::crossing(3, 1, Point::Sdma, Action::Fail),
            Fault::crossing(4, 1, Point::Csum, Action::Miscompute),
            Fault::chance("p", 0.05, frame, delay).unwrap(),
            Fault::chance("p", 0.25, frame, Action::Drop).unwrap(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME: Target = Target::Point(0, Point::Frame);
    const SDMA: Target = Target::Point(0, Point::Sdma);

    fn always(inj: &mut Injector, target: Target, action: Action) {
        inj.add(Fault::chance("p", 1.0, target, action).unwrap());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let p = sample_plan();
        let text = p.render();
        assert!(text.starts_with("seed 42\nat 10000000 host0 link_down 50000000\n"));
        assert!(text.contains("\ncrossing 7 host1.frame corrupt 9137\n"));
        assert!(text.contains("\nchance 0.05 host0.frame delay 1000000\n"));
        let back = FaultPlan::parse(&text).expect("parse");
        assert_eq!(p, back);
        assert_eq!(back.render(), text);
        // Blank lines are not entries.
        let spaced = "seed 3\n\n  at 30000000 host0.mdma wedge\n";
        let plan = FaultPlan::parse(spaced).unwrap();
        assert_eq!((plan.seed, plan.faults), (3, vec![p.faults[2]]));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "not a plan",
            "at 5 host0 warp_core_breach",
            "at 5 host0.frame link_down 9",
            "crossing 3 host0 board_crash",
            "chance 1.5 host0.frame drop",
            "at 5 host0.frame drop 1",
            "at 5 host0 delay_spike 1",
            "at 5 host9.disk wedge",
            "seed x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn transparent_injector_injects_nothing() {
        let mut inj = Injector::new(1);
        for _ in 0..1000 {
            for point in [Point::Sdma, Point::Mdma, Point::Alloc, Point::Csum] {
                assert_eq!(inj.cross(point, 64), Fired::default());
            }
        }
        let c = inj.counts();
        assert_eq!(
            (c.crossed(Point::Sdma), c.crossed(Point::Alloc)),
            (1000, 1000)
        );
        assert_eq!(*c, {
            let mut only_crossings = *c;
            only_crossings.fired = Default::default();
            only_crossings
        });
    }

    #[test]
    fn transparent_injector_delivers_verbatim() {
        let mut inj = Injector::new(1);
        assert_eq!(inj.cross(Point::Frame, 5), Fired::default());
        assert_eq!(inj.counts().crossed(Point::Frame), 1);
        assert_eq!(inj.counts().fired(Some(Point::Frame), "drop"), 0);
    }

    #[test]
    fn forced_faults_win_then_clear() {
        // An armed wedge wins over a certain transient error, once, and is
        // logged as the crossing it landed on.
        let log = FaultLog::default();
        let mut inj = Injector::new(2);
        inj.set_log(log.clone());
        always(&mut inj, SDMA, Action::Fail);
        inj.add(Fault::at(Time(1), SDMA, Action::Wedge));
        assert!(inj.cross(Point::Sdma, 8).wedge);
        assert!(inj.cross(Point::Sdma, 8).fail);
        assert_eq!(
            log.plan(0).faults,
            [
                Fault::crossing(1, 0, Point::Sdma, Action::Wedge),
                Fault::crossing(2, 0, Point::Sdma, Action::Fail),
            ]
        );
        let c = inj.counts();
        assert_eq!(c.fired(Some(Point::Sdma), "wedge"), 1);
        assert_eq!(c.fired(Some(Point::Sdma), "fail"), 1);
    }

    #[test]
    fn forced_faults_win() {
        // A certain drop still yields to an armed stealth corruption, once;
        // the stealth one is counted by the link, when it flips bits.
        let mut inj = Injector::new(4);
        always(&mut inj, FRAME, Action::Drop);
        inj.add(Fault::at(Time::ZERO, FRAME, Action::StealthCorrupt));
        let first = inj.cross(Point::Frame, 1);
        assert!(first.stealth && !first.drop);
        assert!(inj.cross(Point::Frame, 1).drop);
        assert!(inj.cross(Point::Frame, 1).drop);
        let c = inj.counts();
        assert_eq!(
            (c.crossed(Point::Frame), c.fired(Some(Point::Frame), "drop")),
            (3, 2)
        );
        assert_eq!(c.fired(Some(Point::Frame), "stealth_corrupt"), 0);
    }

    #[test]
    fn a_terminal_action_stops_the_draws_and_corruption_logs_its_bit() {
        let log = FaultLog::default();
        let mut inj = Injector::new(3);
        inj.set_log(log.clone());
        for action in [Action::Corrupt(None), Action::Drop, Action::Duplicate] {
            always(&mut inj, FRAME, action);
        }
        let fired = inj.cross(Point::Frame, 100);
        assert!(fired.drop && !fired.duplicate);
        let bit = fired.corrupt_bit.expect("a bit was drawn");
        let plan = log.plan(0);
        assert_eq!(
            plan.faults,
            [
                Fault::crossing(1, 0, Point::Frame, Action::Corrupt(Some(bit))),
                Fault::crossing(1, 0, Point::Frame, Action::Drop),
            ]
        );
        // Replayed, the log fires the same way without a draw.
        let mut replay = Injector::new(99);
        for f in plan.faults {
            replay.add(f);
        }
        assert_eq!(replay.cross(Point::Frame, 100), fired);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        // A corruption names one bit inside the frame; an empty frame has
        // none to flip but still counts as corrupted.
        let mut inj = Injector::new(3);
        always(&mut inj, FRAME, Action::Corrupt(None));
        for len in [1, 64, 1500] {
            let bit = inj.cross(Point::Frame, len).corrupt_bit.expect("one bit");
            assert!((bit as usize) < len * 8);
        }
        assert_eq!(inj.cross(Point::Frame, 0).corrupt_bit, None);
        assert_eq!(inj.counts().fired(Some(Point::Frame), "corrupt"), 4);
    }

    /// The share of `n` crossings of `point` at which `fires` held.
    fn rate(inj: &mut Injector, point: Point, n: u32, fires: fn(Fired) -> bool) -> f64 {
        let hits = (0..n).filter(|_| fires(inj.cross(point, 1))).count();
        hits as f64 / f64::from(n)
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let mut inj = Injector::new(2);
        inj.add(Fault::chance("drop_p", 0.3, FRAME, Action::Drop).unwrap());
        let r = rate(&mut inj, Point::Frame, 10_000, |f| f.drop);
        assert!((0.27..0.33).contains(&r), "drop rate {r}");
    }

    #[test]
    fn probabilities_roughly_honored() {
        let mut inj = Injector::new(3);
        let alloc = Target::Point(0, Point::Alloc);
        inj.add(Fault::chance("p", 0.25, SDMA, Action::Fail).unwrap());
        inj.add(Fault::chance("p", 0.1, alloc, Action::Fail).unwrap());
        let sdma = rate(&mut inj, Point::Sdma, 10_000, |f| f.fail);
        let alloc = rate(&mut inj, Point::Alloc, 10_000, |f| f.fail);
        assert!((0.22..0.28).contains(&sdma), "sdma rate {sdma}");
        assert!((0.08..0.12).contains(&alloc), "alloc rate {alloc}");
    }

    #[test]
    fn deterministic_stream() {
        let run = |seed| {
            let mut inj = Injector::new(seed);
            inj.add(Fault::chance("p", 0.5, FRAME, Action::Drop).unwrap());
            (0..64)
                .map(|_| inj.cross(Point::Frame, 1).drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        let err = Fault::chance("drop_p", 1.5, FRAME, Action::Drop).unwrap_err();
        assert_eq!((err.knob, err.value), ("drop_p", 1.5));
        assert!(Fault::chance("p", -0.1, FRAME, Action::Drop).is_err());
        assert!(Fault::chance("p", f64::NAN, FRAME, Action::Drop).is_err());
        assert!(Fault::chance("p", f64::INFINITY, FRAME, Action::Drop).is_err());
        assert!(Fault::chance("p", 1.0, FRAME, Action::Drop).is_ok());
    }

    #[test]
    fn reorder_and_duplicate() {
        let mut inj = Injector::new(5);
        always(&mut inj, FRAME, Action::Delay(Dur::micros(500)));
        always(&mut inj, FRAME, Action::Duplicate);
        let fired = inj.cross(Point::Frame, 1);
        assert_eq!((fired.delay, fired.duplicate), (Dur::micros(500), true));
        let c = inj.counts();
        assert_eq!(c.fired(Some(Point::Frame), "delay"), 1);
        assert_eq!(c.fired(Some(Point::Frame), "duplicate"), 1);
    }
}
