//! The seven workloads and the code that runs one pass of each. All use
//! `MachineConfig::alpha_3000_400()`, a 5 µs HIPPI link, the default event
//! engine, and a closed loop with one generator process: the next pass
//! starts only after the previous one finished.
//!
//! The simulator is driven only through public items (listed in README.md).
//! The first pass of a run on a ttcp workload calls `run_ttcp`, what `fig5`
//! itself runs (`run_whole`); all other passes walk the same steps one by
//! one (`run_world`), so that the pass can be timed in chunks (`quiet.rs`)
//! and each call into a layer gets its own span. The checker holds both to
//! the same digest, so the two paths cannot drift apart unnoticed.

use crate::quiet::ChunkClock;
use crate::trace::Tracer;
use outboard_bench::{compute_figure, figure_point, figure_sizes, total_for};
use outboard_host::{MachineConfig, TaskId};
use outboard_sim::{stats, Dur, EngineKind, MetricsRegistry, Time};
use outboard_stack::{SockAddr, StackConfig};
use outboard_testbed::apps::{TtcpReceiver, TtcpSender};
use outboard_testbed::experiment::{build_ttcp_world, RECEIVER_IP, SENDER_IP};
use outboard_testbed::{raw_hippi_throughput, run_ttcp, ExperimentConfig, Metrics, World};
use std::hint::black_box;

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// Concurrent sender/receiver pairs of `many_flows`: enough for ~900–1000
/// pending events, past the wheel's 512-entry heap fallback.
pub const FLOWS: usize = 256;
const FLOW_BYTES: usize = 64 * KB;

/// `lossy` cycles through the link seeds `LOSSY_FIRST_SEED + 0..LOSSY_SEEDS`,
/// so that every fault schedule recurs within a run: its digest is compared
/// with its first occurrence, and each chunk of it is timed often enough
/// (~150 times in 12 s) for its fastest time to be free of interference;
/// with 32 seeds and ~20 repeats the filtered time still moved by 18 % in a
/// bad spell. The set is fixed because not every seed completes: under the
/// soak matrix link seed 204, for one, delivers 3 182 872 of 4 194 304 bytes
/// and then sits out the 33.5 s (virtual) deadline. The seeds of this set
/// complete; a change that makes one of them stall fails the run. `--seed`
/// picks where in the cycle a run starts.
const LOSSY_SEEDS: u64 = 4;
const LOSSY_FIRST_SEED: u64 = 42;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkSc,
    BulkUnmod,
    SmallWrites,
    ManyFlows,
    Lossy,
    FigSweep,
    TracedSmall,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::BulkSc,
        Workload::BulkUnmod,
        Workload::SmallWrites,
        Workload::ManyFlows,
        Workload::Lossy,
        Workload::FigSweep,
        Workload::TracedSmall,
    ];

    /// The workloads `BENCHMARK.json` lists, whose end-to-end metrics are
    /// held to a bound: all but `fig_sweep`. `compute_figure` is one opaque
    /// 0.2 s call on every core, so no part of it ever runs undisturbed on a
    /// shared box and its time cannot be filtered (`quiet.rs`); across ten
    /// runs it spread by 12–18 % where the others spread by 2–5 %.
    pub fn gated() -> impl Iterator<Item = Workload> {
        Workload::ALL
            .into_iter()
            .filter(|&w| w != Workload::FigSweep)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkSc => "bulk_sc",
            Workload::BulkUnmod => "bulk_unmod",
            Workload::SmallWrites => "small_writes",
            Workload::ManyFlows => "many_flows",
            Workload::Lossy => "lossy",
            Workload::FigSweep => "fig_sweep",
            Workload::TracedSmall => "traced_small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many distinct inputs the passes of one run cycle through.
    fn slots(self) -> u64 {
        match self {
            Workload::Lossy => LOSSY_SEEDS,
            _ => 1,
        }
    }

    /// The input slot of the run's `i`-th pass.
    pub fn slot(self, seed: u64, i: u64) -> u64 {
        seed.wrapping_add(i) % self.slots()
    }

    /// Events per timing chunk: about 40 µs of host time (an event costs
    /// ~1 µs on `small_writes`, ~2 µs on `many_flows`, ~7 µs on `bulk_*`).
    fn chunk_events(self) -> u32 {
        match self {
            Workload::BulkSc | Workload::BulkUnmod | Workload::Lossy => 6,
            Workload::ManyFlows => 20,
            Workload::SmallWrites | Workload::TracedSmall => 40,
            Workload::FigSweep => unreachable!("fig_sweep runs inside compute_figure"),
        }
    }

    /// `lossy` verifies the payload on every pass, because its link corrupts
    /// frames; the others only on the reference pass, as `fig5` runs.
    pub fn always_verifies(self) -> bool {
        self == Workload::Lossy
    }

    /// The experiment of one pass. `slot` selects the pass's input among
    /// [`Workload::slots`]; `verify` turns receiver-side pattern checking on.
    fn config(self, seed: u64, slot: u64, verify: bool) -> ExperimentConfig {
        let (single_copy, write, total) = match self {
            Workload::BulkSc => (true, 256 * KB, 16 * MB),
            Workload::BulkUnmod => (false, 256 * KB, 16 * MB),
            Workload::SmallWrites => (true, KB, 2 * MB),
            Workload::ManyFlows => (true, 4 * KB, FLOWS * FLOW_BYTES),
            Workload::Lossy => (true, 64 * KB, 4 * MB),
            Workload::TracedSmall => (true, KB, 512 * KB),
            Workload::FigSweep => unreachable!("fig_sweep takes no ExperimentConfig"),
        };
        let mut cfg = ttcp_config(single_copy, write, total, seed);
        cfg.verify = verify || self.always_verifies();
        match self {
            Workload::Lossy => {
                // The tests/fault_soak.rs matrix.
                cfg.seed = LOSSY_FIRST_SEED + slot;
                cfg.drop_p = 0.05;
                cfg.corrupt_p = 0.01;
                cfg.dup_p = 0.01;
                cfg.cab_alloc_fail_p = 0.05;
            }
            Workload::TracedSmall => {
                cfg.trace_spans = true;
                cfg.trace_export = true;
                cfg.timeline_enabled = true;
                cfg.timeline_window = Dur::millis(1);
                cfg.timeline_export = true;
            }
            _ => {}
        }
        cfg
    }

    /// The pass as `fig5` runs it — one call of `run_ttcp`, `verify = true`
    /// — for the checker to hold every stepwise pass against. `many_flows`
    /// and `fig_sweep` have no such call (`None`).
    pub fn run_whole(self, seed: u64, slot: u64) -> Option<PassOut> {
        if matches!(self, Workload::ManyFlows | Workload::FigSweep) {
            return None;
        }
        let cfg = self.config(seed, slot, true);
        let clock = ChunkClock::start();
        let run = RunOut::from_metrics(run_ttcp(&cfg), cfg.total_bytes);
        Some(PassOut {
            chunks: clock.finish(),
            runs: vec![run],
            raw_mbps: None,
        })
    }

    /// Run one pass. `reference` selects the checked variant the timed
    /// passes must agree with: `verify = true` for the ttcp workloads, the
    /// serial `figure_point` loop for `fig_sweep`. Spans go to `tr`, under
    /// whatever span the caller has open.
    pub fn run_pass(self, seed: u64, slot: u64, reference: bool, tr: &mut Tracer) -> PassOut {
        let machine = MachineConfig::alpha_3000_400();
        if self == Workload::FigSweep {
            return if reference {
                serial_figure(&machine, tr)
            } else {
                parallel_figure(&machine, tr)
            };
        }
        let cfg = self.config(seed, slot, reference);
        let mut clock = ChunkClock::start();
        let w = if self == Workload::ManyFlows {
            let s = tr.open("build_many_flows_world");
            let w = build_many_flows_world(&cfg);
            tr.close(s);
            w
        } else {
            let s = tr.open("build_ttcp_world");
            let w = build_ttcp_world(&cfg);
            tr.close(s);
            w
        };
        clock.cut();
        let run = run_world(w, &cfg, self.chunk_events(), tr, &mut clock);
        PassOut {
            chunks: clock.finish(),
            runs: vec![run],
            raw_mbps: None,
        }
    }
}

/// The perf harness's experiment shape: forced single-copy or unmodified
/// stack on the Alpha 3000/400, default engine named explicitly so that the
/// environment cannot change what is measured.
pub fn ttcp_config(single_copy: bool, write: usize, total: usize, seed: u64) -> ExperimentConfig {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, write);
    cfg.total_bytes = total;
    cfg.seed = seed;
    cfg.verify = false;
    cfg.engine = EngineKind::default();
    cfg
}

/// What one simulated transfer produced, as far as the checker and the
/// metrics need it.
pub struct RunOut {
    pub completed: bool,
    pub expected_bytes: u64,
    /// Payload bytes delivered to the receiving applications.
    pub bytes: u64,
    pub sim_elapsed: Dur,
    pub events: u64,
    pub verify_errors: u64,
    pub goodput_mbps: f64,
    pub sender_util: f64,
    pub sender_eff_mbps: f64,
    pub stats: MetricsRegistry,
}

impl RunOut {
    fn from_metrics(m: Metrics, expected_bytes: usize) -> RunOut {
        RunOut {
            completed: m.completed,
            expected_bytes: expected_bytes as u64,
            bytes: m.bytes as u64,
            sim_elapsed: m.elapsed,
            events: m.events_dispatched,
            verify_errors: m.verify_errors,
            goodput_mbps: m.throughput_mbps,
            sender_util: m.sender_utilization,
            sender_eff_mbps: m.sender_efficiency_mbps,
            stats: m.stats,
        }
    }
}

/// One pass: the unit that is timed.
pub struct PassOut {
    /// Host ns spent inside the simulator's functions, chunk by chunk: a
    /// chunk ends after every `chunk_events` events and after every call
    /// that follows the event loop. `compute_figure` is one chunk.
    pub chunks: Vec<u32>,
    /// One entry per simulated transfer (20 for `fig_sweep`, else 1).
    pub runs: Vec<RunOut>,
    /// Raw-HIPPI series value of the 512 KB row (`fig_sweep` only).
    pub raw_mbps: Option<f64>,
}

impl PassOut {
    pub fn host_ns(&self) -> u64 {
        self.chunks.iter().map(|&c| u64::from(c)).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes).sum()
    }

    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }
}

/// 256 ttcp pairs over one CAB link: distinct ports, tasks and sender
/// buffers. Receivers first, so every listener exists before its SYN.
fn build_many_flows_world(cfg: &ExperimentConfig) -> World {
    let mut w = World::new_with_engine(cfg.engine);
    let a = w.add_host("sender", cfg.machine.clone(), cfg.stack.clone());
    let b = w.add_host("receiver", cfg.machine.clone(), cfg.stack.clone());
    w.connect_cab(a, SENDER_IP, b, RECEIVER_IP, Dur::micros(5), cfg.seed);
    let port = |i: usize| 5001 + i as u16;
    for i in 0..FLOWS {
        let mut rx = TtcpReceiver::new(TaskId(2000 + i as u32), port(i), cfg.write_size);
        rx.verify = cfg.verify;
        w.add_app(b, Box::new(rx), i == 0);
    }
    for i in 0..FLOWS {
        let mut tx = TtcpSender::new(
            TaskId(1000 + i as u32),
            SockAddr::new(RECEIVER_IP, port(i)),
            cfg.write_size,
            FLOW_BYTES,
        );
        tx.buf_vaddr += i as u64 * 0x1_0000;
        w.add_app(a, Box::new(tx), i == 0);
    }
    w
}

/// `run_ttcp`'s steps from the event loop on, one span and at least one
/// chunk per call into a layer, for any number of ttcp pairs (senders on
/// host 0, receivers on 1).
fn run_world(
    mut w: World,
    cfg: &ExperimentConfig,
    chunk_events: u32,
    tr: &mut Tracer,
    clock: &mut ChunkClock,
) -> RunOut {
    // run_ttcp's deadline: even 1 Mbit/s would finish in time.
    let deadline = Time::ZERO + Dur::from_secs_f64((cfg.total_bytes as f64 * 8.0 / 1e6).max(30.0));
    let s = tr.open("World::run_while");
    // `finished` never reverts, so a cursor over the apps keeps the
    // predicate O(1) per event instead of O(apps): with 512 apps a full scan
    // per event would measure the predicate, not the simulator.
    let (mut host, mut app) = (0, 0);
    let mut events_in_chunk = 0;
    let done = w.run_while(deadline, |w| {
        events_in_chunk += 1;
        if events_in_chunk == chunk_events {
            events_in_chunk = 0;
            clock.cut();
        }
        while host < w.hosts.len() {
            match w.hosts[host].apps.get(app) {
                None => (host, app) = (host + 1, 0),
                Some(a) if a.as_ref().is_none_or(|a| a.finished()) => app += 1,
                Some(_) => return true,
            }
        }
        false
    });
    tr.close(s);
    clock.cut();
    let elapsed = w.now() - Time::ZERO;

    if w.span_tracing_on() {
        let s = tr.open("World::finish_spans");
        w.finish_spans(w.now());
        tr.close(s);
        clock.cut();
    }
    if w.timeline_on() {
        let s = tr.open("World::finish_timeline");
        w.finish_timeline(w.now());
        tr.close(s);
        clock.cut();
    }
    let s = tr.open("World::metrics");
    let stats = w.metrics(elapsed);
    tr.close(s);
    clock.cut();
    if w.span_tracing_on() && cfg.trace_export {
        let s = tr.open("World::export_trace");
        black_box(w.export_trace(cfg.trace_flows));
        tr.close(s);
        clock.cut();
        let s = tr.open("World::critical_path");
        black_box(w.critical_path());
        tr.close(s);
        clock.cut();
    }
    if let Some(tl) = w.timeline().filter(|_| cfg.timeline_export) {
        let s = tr.open("Timeline::export");
        black_box((tl.to_json(), tl.to_csv(), tl.sparklines()));
        tr.close(s);
        clock.cut();
    }

    let (mut bytes, mut verify_errors) = (0u64, 0u64);
    for rx in w.hosts[1].apps.iter().flatten() {
        let rx = rx
            .as_any()
            .downcast_ref::<TtcpReceiver>()
            .expect("host 1 runs only receivers");
        bytes += rx.bytes_read as u64;
        verify_errors += rx.verify_errors;
    }
    let goodput_mbps = stats::mbps(bytes, elapsed);
    let sender_util = w.hosts[0]
        .cpu
        .acct
        .utilization(elapsed, cfg.machine.background_share);
    let events = w.events_dispatched;
    let s = tr.open("World::drop");
    drop(w);
    tr.close(s);
    clock.cut();
    RunOut {
        completed: done && bytes >= cfg.total_bytes as u64,
        expected_bytes: cfg.total_bytes as u64,
        bytes,
        sim_elapsed: elapsed,
        events,
        verify_errors,
        goodput_mbps,
        sender_util,
        sender_eff_mbps: if sender_util > 0.0 {
            goodput_mbps / sender_util
        } else {
            0.0
        },
        stats,
    }
}

/// What a user runs as `fig5`: every point of the figure, fanned across the
/// sweep runner's worker threads.
fn parallel_figure(machine: &MachineConfig, tr: &mut Tracer) -> PassOut {
    let clock = ChunkClock::start();
    let s = tr.open("compute_figure");
    let rows = compute_figure(machine);
    tr.close(s);
    let chunks = clock.finish();
    let raw_mbps = rows.last().map(|r| r.raw_mbps);
    let runs = rows
        .into_iter()
        .flat_map(|row| {
            let expected = total_for(row.size);
            [
                RunOut::from_metrics(row.un, expected),
                RunOut::from_metrics(row.sc, expected),
            ]
        })
        .collect();
    PassOut {
        chunks,
        runs,
        raw_mbps,
    }
}

/// The same points, one after the other on this thread.
fn serial_figure(machine: &MachineConfig, tr: &mut Tracer) -> PassOut {
    let mut clock = ChunkClock::start();
    let s = tr.open("figure_point loop");
    let mut runs = Vec::new();
    let mut raw_mbps = None;
    for size in figure_sizes() {
        for single_copy in [false, true] {
            let m = figure_point(machine, single_copy, size);
            runs.push(RunOut::from_metrics(m, total_for(size)));
            clock.cut();
        }
        raw_mbps = Some(raw_hippi_throughput(machine, size.min(32 * KB), 200));
        clock.cut();
    }
    tr.close(s);
    PassOut {
        chunks: clock.finish(),
        runs,
        raw_mbps,
    }
}
