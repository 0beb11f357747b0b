//! The simulated world: hosts, links, apps, and the event loop.
//!
//! Timing discipline: kernel entry points mutate protocol state at event
//! time and return effects. CPU effects serialize on the host's single CPU
//! (advancing a cursor used to schedule the application's next step), so
//! syscall rates and interrupt load throttle exactly as on a real machine.
//! Device events carry their own completion times from the engine models.

use crate::timers::TimerTable;
use bytes::Bytes;
use outboard_cab::{CabEvent, PacketId};
use outboard_host::{Charge, Cpu, HostMem, MachineConfig, MemFault, TaskId, UserMemory};
use outboard_netsim::{Capture, Framing, Link};
use outboard_sim::fault::{Action, CountKey, FaultCounts, FaultLog, Injector, Point};
use outboard_sim::fault::{Target, Trigger};
use outboard_sim::span::{CriticalPath, SpanSink, Stage};
use outboard_sim::{
    BufPool, Dur, EngineKind, EventEngine, Fault, FaultPlan, MetricsRegistry, Time,
};
use outboard_sim::{SeriesKind, Timeline};
use outboard_stack::{Effect, IfaceId, Kernel, SockId, StackConfig, StackError, TimerKind};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// What a scheduled event does when it fires. (Field meanings follow the
/// kernel entry points they feed; see [`outboard_stack::Kernel`].)
#[allow(missing_docs)]
pub(crate) enum Event {
    /// Run (or resume) an application.
    AppStep { host: usize, task: TaskId },
    /// An in-kernel application's queue became ready.
    KernelReady { host: usize, sock: SockId },
    /// SDMA completion loops back into the kernel.
    SdmaDone {
        host: usize,
        iface: IfaceId,
        token: u64,
        interrupt: bool,
        data: Option<Bytes>,
    },
    /// CAB receive interrupt.
    RxInterrupt {
        host: usize,
        iface: IfaceId,
        packet: Option<PacketId>,
        autodma: Bytes,
        frame_len: usize,
    },
    /// A frame leaves a host on a link (fabric ingress).
    FabricTx {
        host: usize,
        iface: IfaceId,
        dst_addr: u32,
        frame: Bytes,
    },
    /// A frame reaches a host's interface.
    FrameArrive {
        host: usize,
        iface: IfaceId,
        frame: Bytes,
    },
    /// The wakeup of one timer slot, queued under sequence number `seq`
    /// (see `timers`); only the slot's latest arm is delivered.
    Timer {
        host: usize,
        kind: TimerKind,
        seq: u64,
    },
    /// A plan's `At` entry fires (`heal` closes its window).
    Fault { idx: usize, heal: bool },
}

/// Application step outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Schedule the next step as soon as the CPU work completes.
    Continue,
    /// Block until a kernel `Wake`.
    Wait,
    /// The application finished.
    Done,
    /// The application gave up on a syscall error; the world keeps the
    /// first, where [`World::run_apps`] stops.
    GaveUp(StackError),
}

/// [`World::register_kernel_sock`] named a task that runs no app on the
/// host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoSuchApp {
    /// The host.
    pub host: usize,
    /// The task it runs no app for.
    pub task: TaskId,
}

impl std::fmt::Display for NoSuchApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host {} runs no app for task {:?}", self.host, self.task)
    }
}

impl std::error::Error for NoSuchApp {}

/// The syscall context handed to applications: one host's kernel + memory.
pub struct SysCtx<'a> {
    /// Current virtual time.
    pub now: Time,
    /// The calling process.
    pub task: TaskId,
    /// This host's kernel.
    pub kernel: &'a mut Kernel,
    /// This host's user memory.
    pub mem: &'a mut HostMem,
    pub(crate) effects: Vec<Effect>,
    pub(crate) user: Dur,
}

impl SysCtx<'_> {
    /// Account app-level (user mode) CPU, e.g. the ttcp loop body.
    pub(crate) fn user_cpu(&mut self, dur: Dur) {
        self.user += dur;
    }

    /// The application's own write access to `[vaddr, vaddr + len)` of its
    /// memory. Copy semantics are checked here in debug builds: a range the
    /// stack or an engine still claims is recorded as a `UserWriteWhileDma`
    /// ([`Kernel::user_violations`]). The access itself goes ahead.
    pub fn user_slice_mut(&mut self, vaddr: u64, len: usize) -> Result<&mut [u8], MemFault> {
        self.kernel.note_user_write(self.task, vaddr, len, self.now);
        self.mem.user_slice_mut(self.task, vaddr, len)
    }

    /// Collect effects returned by a kernel call for the harness to apply;
    /// the emptied list goes straight back to the kernel for its next call.
    pub fn absorb(&mut self, mut fx: Vec<Effect>) {
        self.effects.append(&mut fx);
        self.kernel.recycle_effects(fx);
    }
}

/// A simulated process (user application or in-kernel application driver).
pub trait App: std::any::Any {
    /// The process identity this app runs as.
    fn task(&self) -> TaskId;
    /// Downcasting support so harnesses can read app-specific counters.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Perform one scheduling quantum (at most one blocking syscall).
    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step;
    /// An owned in-kernel socket's queue became ready.
    fn on_kernel_ready(&mut self, _ctx: &mut SysCtx<'_>, _sock: SockId) -> Step {
        Step::Wait
    }
    /// True when the app has completed its work (for run-to-completion).
    fn finished(&self) -> bool;
}

/// One simulated host.
pub struct Host {
    /// The protocol stack.
    pub kernel: Kernel,
    /// User address spaces (real bytes).
    pub mem: HostMem,
    /// The single CPU and its accounting.
    pub cpu: Cpu,
    /// Applications (slots are `None` only while an app is being run).
    pub apps: Vec<Option<Box<dyn App>>>,
    /// The process whose syscalls count as `ttcp` in the accounting.
    pub measured_task: Option<TaskId>,
    /// Slot in `apps` of each task's app, filled by [`World::add_app`]; the
    /// first app registered under a task keeps it.
    app_slots: BTreeMap<TaskId, usize>,
    /// The effect list [`SysCtx`] collects into, kept between app quanta.
    app_fx: Vec<Effect>,
}

impl Host {
    fn app_index(&self, task: TaskId) -> Option<usize> {
        self.app_slots.get(&task).copied()
    }
}

/// A windowed series: its name under `host{i}.` or `world.`, its kind, the
/// unit label, and the read of its absolute value.
type SeriesDef<T> = (&'static str, SeriesKind, &'static str, fn(&T) -> i64);

/// The timeline's series in declaration order: each host's, on trace pid
/// `i`, then the world's, on pid = host count (the fabric's span pid).
const HOST_SERIES: [SeriesDef<Host>; 4] = [
    ("tx_bytes", SeriesKind::Counter, "bytes", |h| {
        h.kernel.stats.tx_bytes as i64
    }),
    (
        "netmem_pages",
        SeriesKind::Gauge,
        "pages",
        World::host_netmem_pages,
    ),
    ("retransmits", SeriesKind::Counter, "segs", |h| {
        h.kernel.stats.tcp_retransmit_segs as i64
    }),
    (
        "engine_busy_ns",
        SeriesKind::Counter,
        "ns",
        World::host_engine_busy_ns,
    ),
];
const WORLD_SERIES: [SeriesDef<World>; 2] = [
    ("pool_in_use", SeriesKind::Gauge, "bufs", World::pool_in_use),
    (
        "faults",
        SeriesKind::Counter,
        "events",
        World::fault_events_total,
    ),
];

/// `world.chaos.*` counters read from the `At` entries applied.
const WINDOW_KEYS: [CountKey; 8] = [
    ("link_downs", |c| c.fired(None, "link_down")),
    ("partitions", |c| c.fired(None, "partition")),
    ("delay_spikes", |c| c.fired(None, "delay_spike")),
    ("cab_wedges", |c| c.fired(None, "wedge")),
    ("board_crashes", |c| c.fired(None, "board_crash")),
    ("netmem_squeezes", |c| c.fired(None, "netmem_squeeze")),
    ("host_pauses", |c| c.fired(None, "host_pause")),
    ("stealth_corrupts", |c| c.fired(None, "stealth_corrupt")),
];

/// A plan's `At` entries and the world-level state of their windows,
/// present once a plan with an `At` entry is installed.
#[derive(Default)]
struct Windows {
    /// The `At` entries in plan order; [`Event::Fault`] names one by index.
    faults: Vec<Fault>,
    /// The entries applied, by kind (the counts' world row).
    counts: FaultCounts,
    /// Windows closed (links back up, squeezes released, ...).
    heals: u64,
    /// Events re-queued because their host was paused (a timer counts
    /// only when it is its slot's latest arm; superseded ones never reach
    /// the pause check).
    deferred: u64,
    /// Time by which every entry has fired and every window has closed.
    quiesce: Time,
    /// Active down-window count per link (overlapping outages stack).
    down_count: BTreeMap<(usize, IfaceId), u32>,
    /// Active squeeze-window count per host.
    squeeze_depth: BTreeMap<usize, u32>,
    /// CPU-side events of these hosts are deferred until the given time.
    paused_until: BTreeMap<usize, Time>,
}

/// The whole simulated system.
pub struct World {
    /// All simulated hosts.
    pub hosts: Vec<Host>,
    queue: EventEngine<Event>,
    /// One queued wakeup per armed timer.
    timers: TimerTable,
    /// Shared frame/cluster buffer pool (every host kernel, CAB, and link
    /// recycles storage through it; see `sim::pool`).
    pub pool: BufPool,
    /// Directed links keyed by the sending (host, iface).
    pub links: BTreeMap<(usize, IfaceId), Link>,
    /// HIPPI fabric address → (host, iface).
    hippi_map: BTreeMap<u32, (usize, IfaceId)>,
    /// Ethernet segment: every Eth iface hears every EthTx (point-to-point
    /// in practice; the MAC filter is the receiver's problem).
    eth_peers: BTreeMap<(usize, IfaceId), (usize, IfaceId)>,
    /// In-kernel socket → owning (host, app index).
    kernel_socks: BTreeMap<(usize, SockId), usize>,
    next_hippi_addr: u32,
    /// Frames that entered any link (diagnostics).
    pub frames_on_fabric: u64,
    /// Bytes that entered any link (diagnostics; pairs with the per-link
    /// `bytes_in` counters for the conservation invariant).
    pub bytes_on_fabric: u64,
    /// Optional tcpdump-style capture of every frame entering a link.
    pub capture: Option<Capture>,
    /// Events dispatched by the engine (wall-clock work proxy for the
    /// benchmark's events/sec figure). A timer wakeup counts only when it
    /// delivers its slot's latest arm.
    pub events_dispatched: u64,
    /// The fabric's handle on the world's span store, which records the
    /// wire-transit spans (disabled by default — see
    /// `World::enable_span_tracing`).
    spans: SpanSink,
    /// The installed plan's `At` entries (None without any).
    windows: Option<Windows>,
    /// Every fault that fired, in firing order.
    fault_log: FaultLog,
    /// Windowed time-series sampler (None unless enabled; see
    /// [`World::enable_timeline`]). Boxed behind an `Option`: the disabled
    /// path costs one `is_some` branch per dispatched event and nothing
    /// else (zero-overhead-off, like spans).
    timeline: Option<Box<Timeline>>,
    /// The first app to give up ([`Step::GaveUp`]): its host, when, and
    /// the error.
    pub(crate) gave_up: Option<(usize, Time, StackError)>,
    /// Apps on every host whose `finished()` is false: set by
    /// [`World::add_app`], kept by `run_app` (an app finishes only in one
    /// of its own quanta, and never unfinishes), read by
    /// [`World::every_app_finished`] between events.
    pub(crate) unfinished_apps: usize,
}

impl World {
    /// An empty world (add hosts, wire links, add apps, run).
    pub fn new() -> World {
        World {
            hosts: Vec::new(),
            queue: EventEngine::default(),
            timers: TimerTable::default(),
            pool: BufPool::new(),
            links: BTreeMap::new(),
            hippi_map: BTreeMap::new(),
            eth_peers: BTreeMap::new(),
            kernel_socks: BTreeMap::new(),
            next_hippi_addr: 1,
            frames_on_fabric: 0,
            bytes_on_fabric: 0,
            capture: None,
            events_dispatched: 0,
            spans: SpanSink::default(),
            windows: None,
            fault_log: FaultLog::default(),
            timeline: None,
            gave_up: None,
            unfinished_apps: 0,
        }
    }

    /// The same as [`World::new`]; the argument selects nothing (see
    /// [`EngineKind`]) and is kept for the `benchmark/` crate.
    pub fn new_with_engine(_: EngineKind) -> World {
        World::new()
    }

    /// Install a fault plan. `At` entries go onto the sim-time event queue
    /// (a window with its heal), so injection is part of the deterministic
    /// event stream; `Crossing` and `Chance` entries go to their target's
    /// device (host `h`'s outbound link for [`Point::Frame`], its CAB
    /// otherwise), which consults them at each crossing. Every fault that
    /// fires is appended to [`World::fault_log`]. Entries of further calls,
    /// mid-run too, add to the plan.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let now = self.queue.now();
        for fault in &plan.faults {
            let Trigger::At(at) = fault.trigger else {
                let log = self.fault_log.clone();
                if let Some(inj) = self.injector(fault.target) {
                    inj.set_log(log);
                    inj.add(*fault);
                }
                continue;
            };
            let w = self.windows.get_or_insert_with(Windows::default);
            let idx = w.faults.len();
            w.faults.push(*fault);
            let at = at.max(now);
            self.queue.push(at, Event::Fault { idx, heal: false });
            w.quiesce = w.quiesce.max(at);
            if let Some(d) = fault.action.window() {
                self.queue.push(at + d, Event::Fault { idx, heal: true });
                w.quiesce = w.quiesce.max(at + d);
            }
        }
    }

    /// Every fault that has fired so far, in firing order: rendered, a plan
    /// that replays the run.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Time by which every `At` entry has fired and every window has
    /// closed; zero without `At` entries.
    pub(crate) fn faults_quiesce_at(&self) -> Time {
        self.windows.as_ref().map_or(Time::ZERO, |w| w.quiesce)
    }

    /// The injector at `target`'s point: host `h`'s first outbound link for
    /// [`Point::Frame`], its first CAB otherwise.
    fn injector(&mut self, target: Target) -> Option<&mut Injector> {
        let Target::Point(host, point) = target else {
            return None;
        };
        if point == Point::Frame {
            let mut links = self.links.iter_mut();
            return links.find(|(k, _)| k.0 == host).map(|(_, l)| &mut l.faults);
        }
        let ifaces = self.hosts.get_mut(host)?.kernel.ifaces.iter_mut();
        ifaces
            .filter_map(|i| i.cab())
            .map(|ci| &mut ci.cab.faults)
            .next()
    }

    /// The host whose pause state gates this event, if any. Fabric-side
    /// events (`FabricTx`: the frame already left the adaptor) and fault
    /// entries themselves run even while the host is paused.
    fn cpu_host_of(ev: &Event) -> Option<usize> {
        match ev {
            Event::AppStep { host, .. }
            | Event::KernelReady { host, .. }
            | Event::SdmaDone { host, .. }
            | Event::RxInterrupt { host, .. }
            | Event::FrameArrive { host, .. }
            | Event::Timer { host, .. } => Some(*host),
            Event::FabricTx { .. } | Event::Fault { .. } => None,
        }
    }

    /// Apply `At` entry `idx` (or close its window): a window action acts
    /// on the world, a point action arms its device's next crossing.
    fn apply_fault(&mut self, idx: usize, heal: bool, now: Time) {
        let Some(w) = self.windows.as_mut() else {
            return;
        };
        let Some(&fault) = w.faults.get(idx) else {
            return;
        };
        if heal {
            w.heals += 1;
        } else {
            w.counts.fire(None, fault.action);
        }
        let host = match fault.target {
            Target::Point(h, _) | Target::Host(h) => h,
            Target::All => 0,
        };
        if !heal && !fault.action.on_point() {
            self.fault_log.push(fault);
        }
        match fault.action {
            // Its device logs it when the next crossing fires it.
            a if a.on_point() => {
                let log = self.fault_log.clone();
                if let Some(inj) = self.injector(fault.target) {
                    inj.set_log(log);
                    inj.add(fault);
                }
            }
            Action::LinkDown(_) => self.set_links_down(Some(host), heal),
            Action::Partition(_) => self.set_links_down(None, heal),
            Action::DelaySpike { extra, .. } => {
                for (key, link) in self.links.iter_mut() {
                    if key.0 == host {
                        link.extra_latency = if heal {
                            link.extra_latency.saturating_sub(extra)
                        } else {
                            link.extra_latency + extra
                        };
                    }
                }
            }
            Action::BoardCrash => {
                let target = self.hosts.get_mut(host).and_then(|h| {
                    h.kernel.ifaces.iter_mut().find_map(|i| {
                        let id = i.id;
                        i.cab().map(|_| id)
                    })
                });
                if let Some(iface_id) = target {
                    let fx = {
                        let h = &mut self.hosts[host];
                        h.kernel.cab_board_crash(iface_id, &mut h.mem, now)
                    };
                    self.apply_effects(host, fx, now);
                }
            }
            Action::NetmemSqueeze { permille, .. } => {
                let d = w.squeeze_depth.entry(host).or_insert(0);
                if heal {
                    *d = d.saturating_sub(1);
                } else {
                    *d += 1;
                }
                let depth = *d;
                if let Some(h) = self.hosts.get_mut(host) {
                    for iface in h.kernel.ifaces.iter_mut() {
                        if let Some(ci) = iface.cab() {
                            if heal {
                                if depth == 0 {
                                    ci.cab.squeeze_netmem(0);
                                }
                            } else {
                                let total = ci.cab.netmem().pages_total();
                                let reserved = (total as u64 * u64::from(permille) / 1000) as usize;
                                ci.cab.squeeze_netmem(reserved);
                            }
                        }
                    }
                }
            }
            // The pause expires by time comparison in `dispatch`.
            Action::HostPause(dur) if !heal => {
                let until = now + dur;
                let e = w.paused_until.entry(host).or_insert(until);
                if *e < until {
                    *e = until;
                }
            }
            _ => {}
        }
    }

    /// Open or close a down window on one host's outbound links (or, with
    /// `host == None`, on every link — a full partition). Overlapping
    /// windows stack: a link comes back up when its last window closes.
    fn set_links_down(&mut self, host: Option<usize>, heal: bool) {
        let Some(w) = self.windows.as_mut() else {
            return;
        };
        for (key, link) in self.links.iter_mut() {
            if host.is_none_or(|h| key.0 == h) {
                let c = w.down_count.entry(*key).or_insert(0);
                if heal {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        link.up = true;
                    }
                } else {
                    *c += 1;
                    link.up = false;
                }
            }
        }
    }

    /// Turn on per-packet causal tracing: one span store for the world,
    /// holding at most `capacity` closed spans (and as many open ones; see
    /// `sim::span` for its eviction rule). Host `i` records into it as
    /// trace pid `i`, the fabric as the pid after the last host. Call after
    /// hosts are added: a host added later stays untraced.
    pub(crate) fn enable_span_tracing(&mut self, capacity: usize) {
        let fabric = self.hosts.len() as u32;
        self.spans = SpanSink::enabled(capacity).for_pid(fabric);
        for (pid, host) in self.hosts.iter_mut().enumerate() {
            host.kernel.set_spans(self.spans.for_pid(pid as u32));
        }
    }

    /// True when span tracing is enabled.
    pub fn span_tracing_on(&self) -> bool {
        self.spans.on()
    }

    /// Force-close every span still open (run teardown): in-flight work at
    /// the end of a run is recorded as dropped, keeping the conservation
    /// identity `opened == closed + dropped` exact. The store is then
    /// finished: a world run on past this records no span through any
    /// handle, while the world still publishes and exports what it holds.
    pub fn finish_spans(&mut self, now: Time) {
        self.spans.finish(now);
    }

    /// Turn on windowed time-series telemetry: a fixed set of per-host and
    /// world-wide counters/gauges is sampled every `window` of virtual
    /// time into bounded rings of `capacity` windows. Call after hosts are
    /// added; hosts added later are not sampled. Sampling is lazy (driven
    /// by event dispatch crossing window boundaries), so disabled runs pay
    /// only one branch per event and stay byte-identical.
    pub(crate) fn enable_timeline(&mut self, window: Dur, capacity: usize) {
        let mut tl = Timeline::new(window, capacity);
        let n = self.hosts.len();
        let hosts = (0..n).flat_map(|i| {
            HOST_SERIES.map(|(name, kind, unit, _)| (format!("host{i}.{name}"), kind, unit, i))
        });
        let world =
            WORLD_SERIES.map(|(name, kind, unit, _)| (format!("world.{name}"), kind, unit, n));
        for ((name, kind, unit, pid), initial) in hosts.chain(world).zip(self.timeline_values()) {
            tl.declare(&name, kind, unit, pid as u32, initial);
        }
        self.timeline = Some(Box::new(tl));
    }

    /// True when the windowed sampler is installed.
    pub fn timeline_on(&self) -> bool {
        self.timeline.is_some()
    }

    /// The recorded timeline, when sampling is enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_deref()
    }

    /// Network-memory pages currently in use across a host's CAB ifaces.
    fn host_netmem_pages(host: &Host) -> i64 {
        let mut pages = 0i64;
        for iface in &host.kernel.ifaces {
            if let Some(ci) = iface.cab_ref() {
                let nm = ci.cab.netmem();
                pages += nm.pages_total() as i64 - nm.pages_free() as i64;
            }
        }
        pages
    }

    /// Cumulative DMA-engine busy nanoseconds across a host's CAB ifaces.
    fn host_engine_busy_ns(host: &Host) -> i64 {
        let mut ns = 0i64;
        for iface in &host.kernel.ifaces {
            if let Some(ci) = iface.cab_ref() {
                ns += ci.cab.engines_busy().as_nanos() as i64;
            }
        }
        ns
    }

    /// Shared-pool buffers currently handed out (the timeline's
    /// `world.pool_in_use` gauge).
    fn pool_in_use(&self) -> i64 {
        let ps = self.pool.stats();
        ps.acquires as i64 - ps.releases as i64
    }

    /// Total injected/suffered fault events across every link (the
    /// timeline's `world.faults` counter).
    fn fault_events_total(&self) -> i64 {
        let mut total = 0u64;
        for link in self.links.values() {
            // Every key but `offered` is a fate.
            let fates = outboard_netsim::FAULT_KEYS[1..].iter();
            total += fates
                .map(|(_, read)| read(link.faults.counts()))
                .sum::<u64>();
            total += link.down_drops;
        }
        total as i64
    }

    /// Absolute values of every declared series, in declaration order.
    fn timeline_values(&self) -> Vec<i64> {
        let n = self.hosts.len() * HOST_SERIES.len() + WORLD_SERIES.len();
        let mut vals = Vec::with_capacity(n);
        for host in &self.hosts {
            vals.extend(HOST_SERIES.iter().map(|s| (s.3)(host)));
        }
        vals.extend(WORLD_SERIES.iter().map(|s| (s.3)(self)));
        vals
    }

    /// Record every window boundary at or before `now`. Called from the
    /// dispatch loop when the clock reaches the timeline's next boundary;
    /// because events dispatch in nondecreasing time order, the sample at
    /// boundary `b` covers exactly the events with time `< b`.
    fn timeline_catch_up(&mut self, now: Time) {
        while self
            .timeline
            .as_ref()
            .is_some_and(|tl| now >= tl.next_boundary())
        {
            let vals = self.timeline_values();
            if let Some(tl) = &mut self.timeline {
                tl.record(&vals);
            }
        }
    }

    /// Close out the timeline at run teardown: record any boundaries the
    /// event stream never reached, then one final partial window up to
    /// `now`, so the conservation identity (window-delta sums == final
    /// counter values) holds exactly over the whole run. The closed
    /// timeline's next boundary is never reached, so a world run on past
    /// this samples no window; a second call is a no-op.
    pub fn finish_timeline(&mut self, now: Time) {
        if self.timeline.is_none() {
            return;
        }
        self.timeline_catch_up(now);
        let vals = self.timeline_values();
        if let Some(tl) = &mut self.timeline {
            tl.close(now, &vals);
        }
    }

    /// Export every recorded span as Chrome trace-event JSON (one process
    /// per traced host, `host{pid}`, plus one for the fabric). `flow_limit`
    /// bounds how many flow groups get arrows. When the windowed sampler is
    /// enabled its counter tracks (`ph:"C"` events) are merged into the
    /// same file, sharing the span pid space, so spans and system curves
    /// line up on one Perfetto timeline.
    pub fn export_trace(&self, flow_limit: Option<usize>) -> String {
        let fabric = self.spans.on().then(|| self.spans.pid());
        let fabric = fabric.unwrap_or(self.hosts.len() as u32);
        let hosts = (0..fabric).map(|pid| format!("host{pid}"));
        let names: Vec<String> = hosts.chain(["fabric".to_string()]).collect();
        let timeline = self.timeline.as_deref();
        self.spans.export_chrome_trace(&names, flow_limit, timeline)
    }

    /// Critical-path attribution for the busiest flow group (most spans;
    /// ties break toward the smallest group id). A group with a single
    /// span still yields a path; `None` only when no recorded span carries
    /// a flow group.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        self.spans.busiest_path()
    }

    /// Current virtual time: the timestamp of the last event the queue
    /// popped. That is the last dispatched event, or a later timer wakeup
    /// that found its slot re-armed further out and went back into the
    /// queue (or found an earlier wakeup had replaced it). It is never a
    /// run's deadline unless an event fell exactly there.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Snapshot every counter in the world into one [`MetricsRegistry`].
    ///
    /// `elapsed` is the virtual interval the busy-fraction and share
    /// metrics are computed over (normally the measured transfer's
    /// duration). Hosts are published under `host{i}.*` (kernel, VM, and
    /// per-interface CAB stats, plus `host{i}.cpu.*` for the CPU
    /// accounting), links under `link.h{host}.if{iface}.*` in sorted key
    /// order, and fabric-wide totals under `world.*` — including
    /// `world.faults.*`, the per-link fault-injection counters summed over
    /// every link. Iteration orders are fixed, so two identical runs
    /// snapshot byte-identical registries.
    pub fn metrics(&self, elapsed: Dur) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(elapsed);
        for (i, host) in self.hosts.iter().enumerate() {
            let name = format!("host{i}");
            host.kernel.publish_metrics(&mut reg.scope(&name));
            host.cpu
                .publish_metrics(&mut reg.scope(&format!("{name}.cpu")));
        }
        // BTreeMap iterates in sorted key order, so the registry layout is
        // stable without an explicit sort.
        for (key, link) in &self.links {
            let mut s = reg.scope(&format!("link.h{}.if{}", key.0, key.1 .0));
            link.publish_metrics(&mut s);
        }
        let down_drops = self.links.values().map(|l| l.down_drops).sum();
        let mut w = reg.scope("world");
        w.counter("events_dispatched", self.events_dispatched);
        w.counter("frames_on_fabric", self.frames_on_fabric);
        w.counter("bytes_on_fabric", self.bytes_on_fabric);
        for (name, read) in outboard_netsim::FAULT_KEYS {
            w.counter(
                name,
                self.links.values().map(|l| read(l.faults.counts())).sum(),
            );
        }
        // `At` counters publish only when a plan has `At` entries, so other
        // runs keep byte-identical registries (the same gate the span stats
        // use).
        if let Some(ws) = &self.windows {
            let mut c = w.sub("chaos");
            c.counter("events_scheduled", ws.faults.len() as u64);
            c.counter("events_applied", ws.counts.applied());
            c.counter("heals_applied", ws.heals);
            ws.counts.publish(&mut c, &WINDOW_KEYS);
            c.counter("deferred_events", ws.deferred);
            c.counter("down_drops", down_drops);
        }
        // Pool counters publish only once the pool has been used, so worlds
        // that never touch it (unit fixtures) keep byte-identical registries
        // — the same gate the chaos and span stats use.
        let ps = self.pool.stats();
        if ps.acquires > 0 {
            let mut p = w.sub("pool");
            p.counter("acquires", ps.acquires);
            p.counter("releases", ps.releases);
            p.counter("hits", ps.hits);
            p.counter("misses", ps.misses);
            p.counter("discards", ps.discards);
            p.counter("high_water", ps.high_water);
        }
        // Timeline counters publish only while the windowed sampler is
        // installed, so unsampled runs keep byte-identical registries —
        // the same gate the chaos, pool, and span stats use.
        if let Some(tl) = &self.timeline {
            let mut t = w.sub("timeline");
            t.counter("windows", tl.windows());
            t.counter("evicted", tl.evicted());
            t.counter("series", tl.series_len() as u64);
            t.counter("window_ns", tl.window().as_nanos());
        }
        // Span stats publish only while tracing is on, so untraced runs
        // keep byte-identical registries (parallel-sweep gate): the world's
        // one store, booked once.
        self.spans.publish(&mut w.sub("spans"));
        reg
    }

    /// Add a host with the given machine and stack configuration.
    pub fn add_host(&mut self, name: &str, machine: MachineConfig, cfg: StackConfig) -> usize {
        let mut kernel = Kernel::new(name, machine.clone(), cfg);
        kernel.set_pool(self.pool.clone());
        self.hosts.push(Host {
            kernel,
            mem: HostMem::new(),
            cpu: Cpu::new(machine),
            apps: Vec::new(),
            measured_task: None,
            app_slots: BTreeMap::new(),
            app_fx: Vec::new(),
        });
        self.hosts.len() - 1
    }

    /// Wire two hosts back-to-back through a HIPPI fabric (one CAB each).
    /// Returns the interface ids.
    pub fn connect_cab(
        &mut self,
        a: usize,
        ip_a: Ipv4Addr,
        b: usize,
        ip_b: Ipv4Addr,
        latency: Dur,
        seed: u64,
    ) -> (IfaceId, IfaceId) {
        let addr_a = self.next_hippi_addr;
        let addr_b = self.next_hippi_addr + 1;
        self.next_hippi_addr += 2;
        let mtu = 32 * 1024;

        // Each CAB draws its chances from a stream of the run's seed.
        let cab_seed = |host: usize| seed.wrapping_mul(7).wrapping_add(5 + host as u64);
        let mut cab_a = outboard_cab::Cab::new(addr_a, self.hosts[a].kernel.cab_config());
        cab_a.faults = Injector::new(cab_seed(a));
        cab_a.set_pool(self.pool.clone());
        let if_a = self.hosts[a].kernel.add_cab_iface(ip_a, cab_a, mtu);
        let mut cab_b = outboard_cab::Cab::new(addr_b, self.hosts[b].kernel.cab_config());
        cab_b.faults = Injector::new(cab_seed(b));
        cab_b.set_pool(self.pool.clone());
        let if_b = self.hosts[b].kernel.add_cab_iface(ip_b, cab_b, mtu);

        self.hosts[a].kernel.add_route(ip_b, 32, if_a);
        self.hosts[b].kernel.add_route(ip_a, 32, if_b);
        self.hosts[a].kernel.add_arp_hippi(if_a, ip_b, addr_b);
        self.hosts[b].kernel.add_arp_hippi(if_b, ip_a, addr_a);

        self.hippi_map.insert(addr_a, (a, if_a));
        self.hippi_map.insert(addr_b, (b, if_b));
        let mut link_a = Link::hippi(latency, seed.wrapping_mul(2) + 1);
        link_a.set_pool(self.pool.clone());
        let mut link_b = Link::hippi(latency, seed.wrapping_mul(2) + 2);
        link_b.set_pool(self.pool.clone());
        self.links.insert((a, if_a), link_a);
        self.links.insert((b, if_b), link_b);
        (if_a, if_b)
    }

    /// Wire two hosts with a conventional Ethernet.
    pub fn connect_eth(
        &mut self,
        a: usize,
        ip_a: Ipv4Addr,
        b: usize,
        ip_b: Ipv4Addr,
        bandwidth_bps: f64,
        seed: u64,
    ) -> (IfaceId, IfaceId) {
        use outboard_wire::ether::MacAddr;
        let mac_a = MacAddr::local((a * 2 + 1) as u8);
        let mac_b = MacAddr::local((b * 2 + 2) as u8);
        let if_a = self.hosts[a].kernel.add_eth_iface(ip_a, mac_a, 1500);
        let if_b = self.hosts[b].kernel.add_eth_iface(ip_b, mac_b, 1500);
        self.hosts[a].kernel.add_route(ip_b, 32, if_a);
        self.hosts[b].kernel.add_route(ip_a, 32, if_b);
        self.hosts[a].kernel.add_arp_ether(if_a, ip_b, mac_b);
        self.hosts[b].kernel.add_arp_ether(if_b, ip_a, mac_a);
        self.eth_peers.insert((a, if_a), (b, if_b));
        self.eth_peers.insert((b, if_b), (a, if_a));
        let mut link_a =
            Link::serializing(bandwidth_bps, Dur::micros(50), seed.wrapping_mul(3) + 1);
        link_a.set_pool(self.pool.clone());
        let mut link_b =
            Link::serializing(bandwidth_bps, Dur::micros(50), seed.wrapping_mul(3) + 2);
        link_b.set_pool(self.pool.clone());
        self.links.insert((a, if_a), link_a);
        self.links.insert((b, if_b), link_b);
        (if_a, if_b)
    }

    /// Register an application on a host; it gets an initial step at t=now.
    pub fn add_app(&mut self, host: usize, app: Box<dyn App>, measured: bool) {
        let task = app.task();
        if measured {
            self.hosts[host].measured_task = Some(task);
        }
        self.unfinished_apps += usize::from(!app.finished());
        let h = &mut self.hosts[host];
        h.app_slots.entry(task).or_insert(h.apps.len());
        h.apps.push(Some(app));
        self.queue
            .push(self.queue.now(), Event::AppStep { host, task });
    }

    /// Route in-kernel socket readiness to the app of `task` on `host`; an
    /// error when the host runs no such app.
    pub fn register_kernel_sock(
        &mut self,
        host: usize,
        sock: SockId,
        task: TaskId,
    ) -> Result<(), NoSuchApp> {
        let idx = self.hosts[host].app_index(task);
        let idx = idx.ok_or(NoSuchApp { host, task })?;
        self.kernel_socks.insert((host, sock), idx);
        Ok(())
    }

    /// Apply kernel effects produced on `host` at `now` and hand the emptied
    /// list back to that kernel; returns the time the effects' CPU work
    /// completes (the app-continuation time).
    fn apply_effects(&mut self, host: usize, mut effects: Vec<Effect>, now: Time) -> Time {
        let cursor = self.drain_effects(host, &mut effects, now);
        self.hosts[host].kernel.recycle_effects(effects);
        cursor
    }

    /// [`World::apply_effects`] on a list the caller keeps: `effects` is
    /// left empty with its storage intact.
    fn drain_effects(&mut self, host: usize, effects: &mut Vec<Effect>, now: Time) -> Time {
        let mut cursor = now;
        for e in effects.drain(..) {
            match e {
                Effect::Cpu { dur, charge } => {
                    cursor = self.hosts[host].cpu.run(cursor, dur, charge);
                }
                Effect::Cab { iface, event } => match event {
                    CabEvent::SdmaDone {
                        at,
                        token,
                        interrupt,
                        data,
                    } => {
                        self.queue.push(
                            at.max(now),
                            Event::SdmaDone {
                                host,
                                iface,
                                token,
                                interrupt,
                                data,
                            },
                        );
                    }
                    CabEvent::FrameOut {
                        at,
                        dst,
                        channel: _,
                        frame,
                    } => {
                        self.queue.push(
                            at.max(now),
                            Event::FabricTx {
                                host,
                                iface,
                                dst_addr: dst,
                                frame,
                            },
                        );
                    }
                    CabEvent::RxReady {
                        at,
                        packet,
                        autodma,
                        frame_len,
                    } => {
                        self.queue.push(
                            at.max(now),
                            Event::RxInterrupt {
                                host,
                                iface,
                                packet,
                                autodma,
                                frame_len,
                            },
                        );
                    }
                    CabEvent::RxDropped { .. } => {}
                },
                Effect::EthTx { iface, frame } => {
                    self.queue.push(
                        cursor,
                        Event::FabricTx {
                            host,
                            iface,
                            dst_addr: 0,
                            frame,
                        },
                    );
                }
                Effect::Loop { iface, frame } => {
                    self.queue.push(
                        cursor + Dur::micros(1),
                        Event::FrameArrive { host, iface, frame },
                    );
                }
                Effect::Wake { task, sock: _ } => {
                    self.queue.push(cursor, Event::AppStep { host, task });
                }
                Effect::Timer { after, kind } => {
                    self.timers.arm(&mut self.queue, host, now + after, kind);
                }
                Effect::KernelReady { sock } => {
                    self.queue.push(cursor, Event::KernelReady { host, sock });
                }
            }
        }
        cursor
    }

    /// Run one quantum of the app in slot `idx` of `host`.
    fn run_app(&mut self, host: usize, idx: usize, now: Time, ready_sock: Option<SockId>) {
        let Some(mut app) = self.hosts[host].apps[idx].take() else {
            return;
        };
        let task = app.task();
        let was_finished = app.finished();
        let measured = self.hosts[host].measured_task == Some(task);
        if measured {
            self.hosts[host].cpu.set_ttcp_on_cpu(true);
        }
        let (step, mut effects, user) = {
            let h = &mut self.hosts[host];
            let mut ctx = SysCtx {
                now,
                task,
                kernel: &mut h.kernel,
                mem: &mut h.mem,
                effects: std::mem::take(&mut h.app_fx),
                user: Dur::ZERO,
            };
            let step = match ready_sock {
                Some(sock) => app.on_kernel_ready(&mut ctx, sock),
                None => app.step(&mut ctx),
            };
            (step, ctx.effects, ctx.user)
        };
        if !was_finished && app.finished() {
            self.unfinished_apps -= 1;
        }
        let mut cursor = now;
        if !user.is_zero() {
            let charge = if measured {
                Charge::TtcpUser
            } else {
                Charge::Syscall
            };
            cursor = self.hosts[host].cpu.run(cursor, user, charge);
        }
        cursor = self.drain_effects(host, &mut effects, cursor);
        self.hosts[host].app_fx = effects;
        match step {
            Step::Continue => {
                self.queue.push(cursor, Event::AppStep { host, task });
            }
            Step::Wait => {
                if measured {
                    self.hosts[host].cpu.set_ttcp_on_cpu(false);
                }
            }
            Step::Done | Step::GaveUp(_) => {
                if let Step::GaveUp(error) = step {
                    self.gave_up.get_or_insert((host, now, error));
                }
                if measured {
                    self.hosts[host].cpu.set_ttcp_on_cpu(false);
                }
                self.hosts[host].apps[idx] = Some(app);
                return;
            }
        }
        self.hosts[host].apps[idx] = Some(app);
    }

    fn dispatch(&mut self, ev: Event, now: Time) {
        // A timer wakeup that is not its slot's latest arm stops here: it
        // is dead, or it has re-queued itself at the latest arm's time.
        if let Event::Timer { host, kind, seq } = ev {
            if !self.timers.wakeup(&mut self.queue, host, kind, seq) {
                return;
            }
        }
        // Windowed telemetry samples lazily at boundary crossings, before
        // the crossing event mutates any counters. Disabled runs pay only
        // this one branch (zero-overhead-off, byte-identical outputs).
        if let Some(tl) = &self.timeline {
            if now >= tl.next_boundary() {
                self.timeline_catch_up(now);
            }
        }
        // A paused host's CPU-side events are deferred (re-queued at the
        // resume time, preserving FIFO order among deferred events); the
        // fabric and the plan's own entries keep running.
        if let Some(ws) = self.windows.as_mut() {
            if let Some(h) = Self::cpu_host_of(&ev) {
                match ws.paused_until.get(&h).copied() {
                    Some(until) if now < until => {
                        ws.deferred += 1;
                        self.timers.defer(&mut self.queue, until, ev);
                        return;
                    }
                    Some(_) => {
                        ws.paused_until.remove(&h);
                    }
                    None => {}
                }
            }
        }
        self.events_dispatched += 1;
        match ev {
            Event::AppStep { host, task } => {
                let h = &self.hosts[host];
                let runnable = h.app_index(task).filter(|&i| {
                    h.apps
                        .get(i)
                        .and_then(|a| a.as_ref())
                        .is_some_and(|a| !a.finished())
                });
                if let Some(idx) = runnable {
                    self.run_app(host, idx, now, None);
                }
            }
            Event::KernelReady { host, sock } => {
                if let Some(&idx) = self.kernel_socks.get(&(host, sock)) {
                    self.run_app(host, idx, now, Some(sock));
                }
            }
            Event::SdmaDone {
                host,
                iface,
                token,
                interrupt,
                data,
            } => {
                let fx = {
                    let h = &mut self.hosts[host];
                    h.kernel
                        .sdma_done(iface, token, interrupt, data, &mut h.mem, now)
                };
                self.apply_effects(host, fx, now);
            }
            Event::RxInterrupt {
                host,
                iface,
                packet,
                autodma,
                frame_len,
            } => {
                let fx = {
                    let h = &mut self.hosts[host];
                    h.kernel
                        .rx_interrupt(iface, packet, autodma, frame_len, &mut h.mem, now)
                };
                self.apply_effects(host, fx, now);
            }
            Event::FabricTx {
                host,
                iface,
                dst_addr,
                frame,
            } => {
                self.frames_on_fabric += 1;
                self.bytes_on_fabric += frame.len() as u64;
                if let Some(cap) = &mut self.capture {
                    let framing = if dst_addr != 0 {
                        Framing::Hippi
                    } else {
                        Framing::Ether
                    };
                    cap.record(
                        now,
                        format!("h{host}/if{}", iface.0),
                        framing,
                        frame.clone(),
                    );
                }
                let dest = if dst_addr != 0 {
                    self.hippi_map.get(&dst_addr).copied()
                } else {
                    self.eth_peers.get(&(host, iface)).copied()
                };
                let Some((dst_host, dst_iface)) = dest else {
                    return;
                };
                let Some(link) = self.links.get_mut(&(host, iface)) else {
                    return;
                };
                let (flow, frame_len) = if self.spans.on() {
                    let ip_off = if dst_addr != 0 {
                        outboard_wire::hippi::HIPPI_HEADER_LEN
                    } else {
                        outboard_wire::ether::ETHER_HEADER_LEN
                    };
                    (
                        outboard_stack::kernel::frame_flow(&frame, ip_off),
                        frame.len() as u64,
                    )
                } else {
                    (outboard_sim::span::FlowId::NONE, 0)
                };
                let deliveries = link.transmit(frame, now);
                if self.spans.on() {
                    if deliveries.is_empty() {
                        // The link's fault model ate the frame: an opened-
                        // then-dropped span records the loss.
                        let key = ((host as u64) << 32) | iface.0 as u64;
                        self.spans.span_open(key, flow, Stage::Wire, now, frame_len);
                        self.spans.span_drop(key, Stage::Wire, now);
                    } else {
                        for d in &deliveries {
                            self.spans.span(flow, Stage::Wire, now, d.at, frame_len);
                        }
                    }
                }
                for d in deliveries {
                    self.queue.push(
                        d.at,
                        Event::FrameArrive {
                            host: dst_host,
                            iface: dst_iface,
                            frame: d.payload,
                        },
                    );
                }
            }
            Event::FrameArrive { host, iface, frame } => {
                let fx = {
                    let h = &mut self.hosts[host];
                    h.kernel.frame_arrive(iface, frame, &mut h.mem, now)
                };
                self.apply_effects(host, fx, now);
            }
            Event::Timer { host, kind, .. } => {
                let fx = {
                    let h = &mut self.hosts[host];
                    h.kernel.timer_fire(kind, &mut h.mem, now)
                };
                self.apply_effects(host, fx, now);
            }
            Event::Fault { idx, heal } => {
                self.apply_fault(idx, heal, now);
            }
        }
    }

    /// Run until the queue drains or its next event lies past `deadline`.
    /// Returns [`World::now`]: the time of the last event popped, at or
    /// before `deadline`, not `deadline` itself.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch(ev, now);
        }
        self.queue.now()
    }

    /// Run until a predicate over the world holds (checked between events)
    /// or the deadline passes; returns true when the predicate held.
    pub fn run_while(
        &mut self,
        deadline: Time,
        mut keep_going: impl FnMut(&World) -> bool,
    ) -> bool {
        loop {
            if !keep_going(self) {
                return true;
            }
            if self.queue.peek_time().is_some_and(|t| t > deadline) {
                return false;
            }
            let Some((now, ev)) = self.queue.pop() else {
                return !keep_going(self);
            };
            self.dispatch(ev, now);
        }
    }

    /// Apply effects produced by directly-driven kernel calls (tests that
    /// bypass the app machinery).
    pub fn apply_external_effects(&mut self, host: usize, effects: Vec<Effect>) {
        let now = self.queue.now();
        self.apply_effects(host, effects, now);
    }

    /// Number of pending events (diagnostics): one wakeup per armed timer,
    /// plus the rare dead one an earlier re-arm left behind.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

#[cfg(test)]
impl World {
    /// Kick an application (initial scheduling or test-driven wake).
    pub(crate) fn schedule_app(&mut self, host: usize, task: TaskId, at: Time) {
        self.queue.push(at, Event::AppStep { host, task });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_sim::span::FlowId;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Counts its quanta and finishes after `budget` of them.
    struct Counter {
        task: TaskId,
        steps: Rc<Cell<u32>>,
        budget: u32,
    }

    impl App for Counter {
        fn task(&self) -> TaskId {
            self.task
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
            self.steps.set(self.steps.get() + 1);
            ctx.user_cpu(Dur::micros(1));
            if self.finished() {
                Step::Done
            } else {
                Step::Continue
            }
        }
        fn finished(&self) -> bool {
            self.steps.get() >= self.budget
        }
    }

    #[test]
    fn duplicate_task_id_dispatches_to_the_first_app() {
        let mut w = World::new();
        let h = w.add_host(
            "h",
            MachineConfig::alpha_3000_400(),
            StackConfig::single_copy(),
        );
        let counts: Vec<Rc<Cell<u32>>> = (0..3).map(|_| Rc::new(Cell::new(0))).collect();
        for (i, task) in [TaskId(7), TaskId(7), TaskId(3)].into_iter().enumerate() {
            let app = Counter {
                task,
                steps: Rc::clone(&counts[i]),
                budget: 4,
            };
            w.add_app(h, Box::new(app), false);
        }
        w.run_until(Time(1_000_000_000));
        // Both registrations of task 7 schedule a step, and every one of
        // them lands on the first app registered under it (slot 0), as the
        // `position` scan did; the second never runs.
        let steps: Vec<u32> = counts.iter().map(|c| c.get()).collect();
        assert_eq!(steps, [4, 0, 4]);
        assert_eq!(w.hosts[h].app_index(TaskId(7)), Some(0));
        assert_eq!(w.hosts[h].app_index(TaskId(3)), Some(2));
        assert_eq!(w.hosts[h].app_index(TaskId(9)), None);
        // A wake for a task nobody registered is dropped, not a panic.
        w.schedule_app(h, TaskId(9), w.now());
        w.run_until(Time(2_000_000_000));
        assert_eq!(w.hosts[h].apps.len(), 3);
    }

    #[test]
    fn critical_path_needs_a_flow_group_not_two_spans() {
        let mut w = World::new();
        w.enable_span_tracing(8);
        assert!(w.critical_path().is_none(), "no spans at all");
        w.spans
            .span(FlowId::NONE, Stage::Degraded, Time(0), Time(9), 0);
        assert!(w.critical_path().is_none(), "only a group-0 span");
        w.spans
            .span(FlowId::group_only(7), Stage::Wire, Time(2), Time(5), 0);
        let cp = w.critical_path().expect("one grouped span is enough");
        assert_eq!((cp.group, cp.total_ns, cp.dominant()), (7, 3, "wire"));
        // Equal span counts: the smallest group id wins.
        w.spans
            .span(FlowId::group_only(3), Stage::Ack, Time(4), Time(8), 0);
        assert_eq!(w.critical_path().map(|cp| cp.group), Some(3));
    }

    /// A host added after `enable_span_tracing` stays untraced: the store
    /// has the hosts it was enabled with and the fabric (on the pid after
    /// them), and the late host's spans never reach it.
    #[test]
    fn a_host_added_after_tracing_is_enabled_stays_untraced() {
        use crate::apps::{TtcpReceiver, TtcpSender};
        use crate::run::RunOutcome;
        use outboard_stack::SockAddr;
        let mut stack = StackConfig::single_copy();
        stack.force_single_copy = true;
        let machine = MachineConfig::alpha_3000_400;
        let mut w = World::new();
        let a = w.add_host("sender", machine(), stack.clone());
        w.enable_span_tracing(1 << 12);
        let b = w.add_host("receiver", machine(), stack);
        let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        w.connect_cab(a, ip_a, b, ip_b, Dur::micros(5), 1);
        let rx = TtcpReceiver::new(TaskId(2), 5001, 4096);
        w.add_app(b, Box::new(rx), true);
        let dst = SockAddr::new(ip_b, 5001);
        w.add_app(
            a,
            Box::new(TtcpSender::new(TaskId(1), dst, 4096, 65536)),
            true,
        );
        assert_eq!(w.run_apps(), Ok(RunOutcome::Completed));
        w.finish_spans(w.now());
        let trace = w.export_trace(None);
        let process = |pid: u32, name: &str| {
            format!("\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}")
        };
        assert!(trace.contains(&process(0, "host0")));
        assert!(trace.contains(&process(1, "fabric")));
        assert!(!trace.contains("\"pid\":2"), "no third process");
        for stage in ["syscall", "sdma", "wire"] {
            let slice = format!("\"name\":\"{stage}\",\"cat\":\"span\"");
            assert!(trace.contains(&slice), "{stage} recorded");
        }
        // Only a receiver dwells in its socket buffer and reads.
        for stage in ["sockbuf", "sys_recv"] {
            let slice = format!("\"name\":\"{stage}\",\"cat\":\"span\"");
            assert!(!trace.contains(&slice), "{stage} recorded");
        }
        let m = w.metrics(w.now() - Time::ZERO);
        let opened = m.counter_value("world.spans.opened");
        assert!(opened > 0);
        let ended = m.counter_value("world.spans.closed") + m.counter_value("world.spans.dropped");
        assert_eq!(opened, ended);
    }
}
