//! One run of one workload: set-up, the timed passes, and — in the traced
//! binary — the traced passes and the layer probes. Prints the result line
//! the contract in `BENCHMARK.json` asks for.

use crate::check::Checker;
use crate::json::Json;
use crate::probes::{self, random_bytes};
use crate::quiet::{QuietTime, Yardstick};
use crate::summary::{high_percentile, median};
use crate::trace::Tracer;
use crate::workloads::{PassOut, Workload};
use outboard_host::MachineConfig;
use outboard_sim::{MetricsRegistry, Pcg32};
use outboard_testbed::analysis::{single_copy_estimate, unmodified_estimate};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json` (a unit test holds the two together).
pub const RUN_SECONDS: u64 = 15;

/// End-to-end metrics `(name, unit)`, measured by the plain binary only.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pass_ms_quiet", "ms"),
    ("payload_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, measured by the traced binary. A value
/// of -1 means "not measured on this workload" (README.md lists which).
pub const PER_LAYER: [(&str, &str); 86] = [
    ("sim.sched.ns_per_op.d64", "ns"),
    ("sim.sched.ns_per_op.d1024", "ns"),
    ("sim.sched.est_share", "share"),
    ("sim.pool.ns_per_cycle.1k", "ns"),
    ("sim.pool.ns_per_cycle.32k", "ns"),
    ("sim.pool.acquires", "count"),
    ("sim.pool.hit_rate", "share"),
    ("sim.pool.high_water", "count"),
    ("wire.csum.gb_per_s.32k", "GB/s"),
    ("wire.csum.ns.64b", "ns"),
    ("wire.hdr.build_ns", "ns"),
    ("wire.hdr.parse_ns", "ns"),
    ("wire.csum.est_share", "share"),
    ("mbuf.chain.split_ns", "ns"),
    ("mbuf.chain.copy_range_ns", "ns"),
    ("mbuf.uio_allocs", "count"),
    ("mbuf.cluster_allocs", "count"),
    ("mbuf.uio_to_wcab", "count"),
    ("cab.sdma_tx.ns.32k", "ns"),
    ("cab.netmem.alloc_free_ns", "ns"),
    ("cab.sdma.requests", "count"),
    ("cab.sdma.bytes", "bytes"),
    ("cab.sdma.busy_frac", "share"),
    ("cab.mdma_tx.busy_frac", "share"),
    ("cab.netmem.pages_hwm", "count"),
    ("cab.netmem.alloc_failures", "count"),
    ("cab.sdma.est_share", "share"),
    ("host.vm.prepare_release_ns.32k", "ns"),
    ("host.vm.pin_calls", "count"),
    ("host.vm.cache_hit_rate", "share"),
    ("host.cpu.busy_frac", "share"),
    ("host.cpu.intr_share", "share"),
    ("host.vm.est_share", "share"),
    ("netsim.link.transmit_ns.32k", "ns"),
    ("netsim.frames", "count"),
    ("netsim.bytes", "bytes"),
    ("netsim.faults.dropped", "count"),
    ("netsim.faults.corrupted", "count"),
    ("netsim.faults.duplicated", "count"),
    ("core.tcp.segs_out", "count"),
    ("core.tcp.retransmits", "count"),
    ("core.tcp.rto_events", "count"),
    ("core.tcp.retransmit_header_only", "count"),
    ("core.csum.hw", "count"),
    ("core.csum.sw", "count"),
    ("core.drv.tx_retries", "count"),
    ("core.drv.degraded_entries", "count"),
    ("core.drv.pio_fallbacks", "count"),
    ("sim.span.record_ns", "ns"),
    ("sim.span.export_ms", "ms"),
    ("sim.timeline.export_ms", "ms"),
    ("sim.obs.snapshot_us", "us"),
    ("sim.obs.to_json_us", "us"),
    ("sim.spans.opened", "count"),
    ("sim.spans.evicted", "count"),
    ("sim.timeline.windows", "count"),
    ("sim.obs.untraced_pass_ms", "ms"),
    ("sim.obs.record_overhead_pct", "%"),
    ("testbed.fill.ns_per_kb", "ns"),
    ("testbed.fill.est_share", "share"),
    ("testbed.build_world_us", "us"),
    ("testbed.run_ms", "ms"),
    ("testbed.events", "count"),
    ("testbed.ns_per_event", "ns"),
    ("testbed.events_per_s", "1/s"),
    ("testbed.bytes_per_event", "bytes"),
    ("testbed.passes", "count"),
    ("testbed.pass_ms_p50", "ms"),
    ("testbed.pass_ms_hi", "ms"),
    ("testbed.pass_hi_pct", "%"),
    ("testbed.warmup_ms", "ms"),
    ("testbed.allocs_per_event", "count"),
    ("testbed.alloc_bytes_per_payload_byte", "bytes"),
    ("testbed.sim_goodput_mbps", "Mbit/s"),
    ("testbed.sim_sender_util", "share"),
    ("testbed.sim_sender_eff_mbps", "Mbit/s"),
    ("testbed.sim_elapsed_ms", "ms"),
    ("testbed.unattributed_share", "share"),
    ("bench.sweep.speedup", "x"),
    ("bench.sweep.efficiency", "share"),
    ("bench.sweep.workers", "count"),
    ("trace_overhead_pct", "%"),
    ("traced_pass_ms_quiet", "ms"),
    ("span_self_time_gap_pct", "%"),
    ("paper_err_pct", "%"),
    ("fail_share", "share"),
];

/// Marks a per-layer metric the workload cannot measure.
const NOT_MEASURED: f64 = -1.0;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory for `trace_<workload>.json`.
    pub out: PathBuf,
}

/// Run one workload and print the result line, which says whether every
/// check passed.
pub fn run(args: &RunArgs) {
    let mut checker = Checker::default();
    // What `fig5` calls, once, so that every stepwise pass on this input is
    // held to `run_ttcp`'s result.
    let slot = args.workload.slot(args.seed, 0);
    if let Some(whole) = args.workload.run_whole(args.seed, slot) {
        checker.check(slot, true, &whole);
    }
    let metrics = if args.traced {
        run_traced(args, &mut checker)
    } else {
        run_plain(args, &mut checker)
    };
    for reason in &checker.reasons {
        eprintln!("FAILED {reason}");
    }
    let correct = checker.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.attempted, checker.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
}

type MetricList = Vec<(&'static str, f64, &'static str)>;

/// Pair each name of `table` with its value; every name must have one.
fn fill(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> MetricList {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("{name} was not measured"));
            (name, *v, unit)
        })
        .collect()
}

/// One set-up: the checked reference pass (cold caches, first allocations)
/// and one more warm-up pass, after which timing may start. Returns its host
/// time, chunk by chunk.
fn set_up(w: Workload, seed: u64, checker: &mut Checker) -> Vec<u32> {
    let mut off = Tracer::new(false);
    let slot = w.slot(seed, 0);
    let reference = w.run_pass(seed, slot, true, &mut off);
    checker.check(slot, true, &reference);
    let warm = w.run_pass(seed, slot, false, &mut off);
    checker.check(slot, w.always_verifies(), &warm);
    [reference.chunks, warm.chunks].concat()
}

/// What a sequence of timed passes produced.
struct Timed {
    /// Host ms per pass.
    ms: Vec<f64>,
    /// The fastest time of each chunk of the passes.
    quiet: QuietTime,
    /// Timed between the passes.
    yardstick: Yardstick,
    bytes: u64,
    events: u64,
    last: Option<PassOut>,
}

impl Timed {
    /// Host ms per pass with the box's bursts filtered out.
    fn quiet_ms(&self) -> f64 {
        self.quiet.ns() / 1e6
    }

    /// Payload MB (10^6 bytes) delivered per host second at `pass_ms` per
    /// pass; every pass of a workload delivers the same bytes.
    fn payload_mb_per_s(&self, pass_ms: f64) -> f64 {
        let bytes_per_pass = self.bytes as f64 / self.ms.len() as f64;
        bytes_per_pass / 1e6 / (pass_ms / 1e3)
    }
}

/// Share of the timed passes' host time spent on the yardstick beside them.
const YARDSTICK_SHARE: f64 = 0.03;

/// Closed loop: run passes back to back until `budget` has elapsed, every
/// pass through the checker. `one_pass` runs the pass on the given input
/// slot (and may check companion passes of its own).
fn timed_passes(
    w: Workload,
    seed: u64,
    budget: Duration,
    checker: &mut Checker,
    mut one_pass: impl FnMut(u64, &mut Checker) -> PassOut,
) -> Timed {
    let mut t = Timed {
        ms: Vec::new(),
        quiet: QuietTime::default(),
        yardstick: Yardstick::default(),
        bytes: 0,
        events: 0,
        last: None,
    };
    let t_end = Instant::now() + budget;
    let mut i = 0u64;
    while t.ms.is_empty() || Instant::now() < t_end {
        let slot = w.slot(seed, i);
        let pass = one_pass(slot, checker);
        checker.check(slot, w.always_verifies(), &pass);
        t.ms.push(pass.host_ns() as f64 / 1e6);
        t.quiet.add(slot, &pass.chunks);
        t.yardstick.measure(pass.host_ns(), YARDSTICK_SHARE);
        t.bytes += pass.bytes();
        t.events += pass.events();
        t.last = Some(pass);
        i += 1;
    }
    t
}

fn run_plain(args: &RunArgs, checker: &mut Checker) -> MetricList {
    let w = args.workload;
    // Set up several times: the first repeat pays for page faults and
    // allocator growth, the later ones do not. Half of the repeats run before
    // the timed passes and half after, seconds apart, and go through the
    // same filter as the passes, so that a spell of interference has to reach
    // every repeat of a chunk to show. Each half stops after 25 repeats or
    // 2 s, but not before 3 repeats.
    let (mut setups, mut n_setups) = (QuietTime::default(), 0);
    let mut set_up_several = |checker: &mut Checker| {
        let (t0, n0) = (Instant::now(), n_setups);
        while n_setups < n0 + 3 || (n_setups < n0 + 25 && t0.elapsed().as_secs_f64() < 2.0) {
            setups.add(0, &set_up(w, args.seed, checker));
            n_setups += 1;
        }
    };
    set_up_several(checker);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut off = Tracer::new(false);
    let timed = timed_passes(w, args.seed, budget, checker, |slot, _| {
        w.run_pass(args.seed, slot, false, &mut off)
    });
    set_up_several(checker);

    // Wall time, bursts filtered out; then in reference time, which takes
    // the box's speed during this run out as well.
    let wall_ms = timed.quiet_ms();
    let wall_setup_s = setups.ns() / 1e9;
    let to_ref = timed.yardstick.to_reference();
    let pass_ms = wall_ms * to_ref;
    let (hi_pct, hi_ms) = high_percentile(&timed.ms);
    eprintln!(
        "{}: {} timed passes, wall ms: quiet {wall_ms:.3} p50 {:.3} p{hi_pct} {hi_ms:.3}; \
         {n_setups} set-ups, wall {wall_setup_s:.4} s; {} yardstick slices, wall to reference x{to_ref:.4}",
        w.name(),
        timed.ms.len(),
        median(&timed.ms),
        timed.yardstick.slices
    );
    let values = BTreeMap::from([
        ("pass_ms_quiet", pass_ms),
        ("payload_mb_per_s", timed.payload_mb_per_s(pass_ms)),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", wall_setup_s * to_ref),
    ]);
    fill(&END_TO_END, &values)
}

/// `VmHWM` of this process, in MB of 10^6 bytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / 1e6
}

fn run_traced(args: &RunArgs, checker: &mut Checker) -> MetricList {
    let w = args.workload;
    let warmup_ns: u64 = set_up(w, args.seed, checker)
        .iter()
        .map(|&c| u64::from(c))
        .sum();

    // Half the time untraced, half traced, in the same binary: their
    // difference is what the spans cost.
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut off = Tracer::new(false);
    let plain = timed_passes(w, args.seed, half, checker, |slot, _| {
        w.run_pass(args.seed, slot, false, &mut off)
    });

    let mut tr = Tracer::new(true);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut serial = QuietTime::default();
    let traced = timed_passes(w, args.seed, half, checker, |slot, checker| {
        tr.next_pass();
        let before = crate::alloc::counts();
        let root = tr.open("pass");
        let out = w.run_pass(args.seed, slot, false, &mut tr);
        tr.close(root);
        let after = crate::alloc::counts();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
        if w == Workload::FigSweep {
            // The serial reference, so that the sweep's speedup is measured
            // against the same work on one thread, turn by turn.
            let root = tr.open("serial_reference");
            let reference = w.run_pass(args.seed, slot, true, &mut tr);
            tr.close(root);
            checker.check(slot, true, &reference);
            serial.add(slot, &reference.chunks);
        }
        out
    });
    let self_times = tr.self_times();
    let self_sum: u64 = self_times.values().sum();
    let root_ns = tr.root_ns();
    let gap_pct = (self_sum as f64 - root_ns as f64).abs() / root_ns as f64 * 100.0;
    eprintln!(
        "{}: span self times over {} traced passes",
        w.name(),
        traced.ms.len()
    );
    for (name, ns) in &self_times {
        eprintln!(
            "  {name:<28} {:>10.3} ms {:>6.2} %",
            *ns as f64 / 1e6,
            *ns as f64 / root_ns as f64 * 100.0
        );
    }
    write_trace(args, &tr);
    if gap_pct > 2.0 {
        checker.attempted += 1;
        checker.failed += 1;
        checker.reasons.push(format!(
            "span self times miss the pass wall by {gap_pct:.2} %"
        ));
    }

    let (plain_ms, traced_ms) = (plain.quiet_ms(), traced.quiet_ms());
    let (hi_pct, hi_ms) = high_percentile(&plain.ms);
    let last = traced.last.as_ref().expect("at least one traced pass");
    let reg = Registry(last);
    // Host time the estimates are shares of. compute_figure spreads its work
    // over threads, so its wall time is not its CPU time; the serial loop's
    // time is.
    let denom_ns = if w == Workload::FigSweep {
        serial.ns()
    } else {
        plain_ms * 1e6
    };
    let events = last.events() as f64;
    let bytes = last.bytes() as f64;

    let mut rng = Pcg32::new(args.seed);
    let d64 = probes::sched_ns_per_op(&mut rng, 64);
    let d1024 = probes::sched_ns_per_op(&mut rng, 1024);
    // many_flows keeps ~1000 events pending; the others a few dozen.
    let sched_ns = if w == Workload::ManyFlows { d1024 } else { d64 };
    let sched_share = events * sched_ns / denom_ns;
    let csum_32k_ns = probes::csum_ns(&random_bytes(&mut rng, 32 * 1024), 20_000);
    let csum_64b_ns = probes::csum_ns(&random_bytes(&mut rng, 64), 1_000_000);
    let csum_share = reg.sw_checksummed_bytes() / 32768.0 * csum_32k_ns / denom_ns;
    let (hdr_build, hdr_parse) = probes::hdr_build_parse_ns(&mut rng);
    let (split_ns, copy_ns) = probes::chain_split_copy_ns();
    let sdma_ns = probes::cab_sdma_tx_ns(&mut rng);
    let sdma_share = reg.sum_hosts("cab0.sdma.bytes") / 32768.0 * sdma_ns / denom_ns;
    let vm_ns = probes::vm_prepare_release_ns();
    // The probe pins four 8 KB pages per call.
    let vm_share = reg.sum_hosts("vm.pages_pinned") / 4.0 * vm_ns / denom_ns;
    let fill_ns = probes::pattern_fill_ns_per_kb();
    // Senders fill every byte they write; receivers check every byte they
    // read only when verifying, which among the timed passes is lossy's.
    let patterned_kb = bytes / 1024.0 * if w.always_verifies() { 2.0 } else { 1.0 };
    let fill_share = patterned_kb * fill_ns / denom_ns;
    let obs = probes::obs_probe(args.seed);

    let mut v: BTreeMap<&str, f64> = BTreeMap::from([
        ("sim.sched.ns_per_op.d64", d64),
        ("sim.sched.ns_per_op.d1024", d1024),
        ("sim.sched.est_share", sched_share),
        (
            "sim.pool.ns_per_cycle.1k",
            probes::pool_ns_per_cycle(1024, 300_000),
        ),
        (
            "sim.pool.ns_per_cycle.32k",
            probes::pool_ns_per_cycle(32 * 1024, 50_000),
        ),
        ("sim.pool.acquires", reg.sum("world.pool.acquires")),
        (
            "sim.pool.hit_rate",
            reg.sum("world.pool.hits") / reg.sum("world.pool.acquires").max(1.0),
        ),
        ("sim.pool.high_water", reg.max("world.pool.high_water")),
        ("wire.csum.gb_per_s.32k", 32768.0 / csum_32k_ns),
        ("wire.csum.ns.64b", csum_64b_ns),
        ("wire.hdr.build_ns", hdr_build),
        ("wire.hdr.parse_ns", hdr_parse),
        ("wire.csum.est_share", csum_share),
        ("mbuf.chain.split_ns", split_ns),
        ("mbuf.chain.copy_range_ns", copy_ns),
        ("mbuf.uio_allocs", reg.sum("host0.mbuf.uio_allocs")),
        ("mbuf.cluster_allocs", reg.sum("host0.mbuf.cluster_allocs")),
        ("mbuf.uio_to_wcab", reg.sum("host0.mbuf.uio_to_wcab")),
        ("cab.sdma_tx.ns.32k", sdma_ns),
        ("cab.netmem.alloc_free_ns", probes::netmem_alloc_free_ns()),
        ("cab.sdma.requests", reg.sum("host0.cab0.sdma.requests")),
        ("cab.sdma.bytes", reg.sum("host0.cab0.sdma.bytes")),
        (
            "cab.sdma.busy_frac",
            reg.mean_frac("host0.cab0.sdma.busy_frac"),
        ),
        (
            "cab.mdma_tx.busy_frac",
            reg.mean_frac("host0.cab0.mdma_tx.busy_frac"),
        ),
        (
            "cab.netmem.pages_hwm",
            reg.max_hwm("host0.cab0.netmem.pages_used"),
        ),
        (
            "cab.netmem.alloc_failures",
            reg.sum("host0.cab0.netmem.alloc_failures") + reg.sum("host0.cab0.faults.alloc_failed"),
        ),
        ("cab.sdma.est_share", sdma_share),
        ("host.vm.prepare_release_ns.32k", vm_ns),
        ("host.vm.pin_calls", reg.sum("host0.vm.pin_calls")),
        (
            "host.vm.cache_hit_rate",
            reg.mean_frac("host0.vm.cache_hit_rate"),
        ),
        ("host.cpu.busy_frac", reg.mean_frac("host0.cpu.busy_frac")),
        ("host.cpu.intr_share", reg.mean_frac("host0.cpu.intr_share")),
        ("host.vm.est_share", vm_share),
        (
            "netsim.link.transmit_ns.32k",
            probes::link_transmit_ns(&mut rng, args.seed),
        ),
        ("netsim.frames", reg.sum("world.frames_on_fabric")),
        ("netsim.bytes", reg.sum("world.bytes_on_fabric")),
        ("netsim.faults.dropped", reg.sum("world.faults.dropped")),
        ("netsim.faults.corrupted", reg.sum("world.faults.corrupted")),
        (
            "netsim.faults.duplicated",
            reg.sum("world.faults.duplicated"),
        ),
        ("core.tcp.segs_out", reg.sum("host0.tcp.segs_out")),
        ("core.tcp.retransmits", reg.sum("host0.tcp.retransmits")),
        ("core.tcp.rto_events", reg.sum("host0.tcp.rto_events")),
        (
            "core.tcp.retransmit_header_only",
            reg.sum("host0.tcp.retransmit_header_only"),
        ),
        ("core.csum.hw", reg.sum("host0.csum.hw")),
        ("core.csum.sw", reg.sum("host0.csum.sw")),
        ("core.drv.tx_retries", reg.sum("host0.cab0.drv.tx_retries")),
        (
            "core.drv.degraded_entries",
            reg.sum("host0.cab0.drv.degraded_entries"),
        ),
        (
            "core.drv.pio_fallbacks",
            reg.sum("host0.cab0.drv.pio_fallbacks"),
        ),
        ("sim.span.record_ns", probes::span_record_ns()),
        ("sim.span.export_ms", obs.span_export_ms),
        ("sim.timeline.export_ms", obs.timeline_export_ms),
        ("sim.obs.snapshot_us", obs.snapshot_us),
        ("sim.obs.to_json_us", obs.to_json_us),
        ("sim.spans.opened", obs.spans_opened),
        ("sim.spans.evicted", obs.spans_evicted),
        ("sim.timeline.windows", obs.timeline_windows),
        ("sim.obs.untraced_pass_ms", obs.untraced_pass_ms),
        ("sim.obs.record_overhead_pct", obs.record_overhead_pct),
        ("testbed.fill.ns_per_kb", fill_ns),
        ("testbed.fill.est_share", fill_share),
        ("testbed.events", events),
        ("testbed.ns_per_event", plain_ms * 1e6 / events),
        ("testbed.events_per_s", events / (plain_ms / 1e3)),
        ("testbed.bytes_per_event", bytes / events),
        ("testbed.passes", plain.ms.len() as f64),
        ("testbed.pass_ms_p50", median(&plain.ms)),
        ("testbed.pass_ms_hi", hi_ms),
        ("testbed.pass_hi_pct", hi_pct),
        ("testbed.warmup_ms", warmup_ns as f64 / 1e6),
        (
            "testbed.allocs_per_event",
            allocs as f64 / traced.events as f64,
        ),
        (
            "testbed.alloc_bytes_per_payload_byte",
            alloc_bytes as f64 / traced.bytes as f64,
        ),
        (
            "testbed.sim_elapsed_ms",
            last.runs
                .iter()
                .map(|r| r.sim_elapsed.as_secs_f64() * 1e3)
                .sum(),
        ),
        (
            "testbed.unattributed_share",
            1.0 - (sched_share + csum_share + sdma_share + vm_share + fill_share),
        ),
        (
            "trace_overhead_pct",
            (traced_ms - plain_ms) / plain_ms * 100.0,
        ),
        ("traced_pass_ms_quiet", traced_ms),
        ("span_self_time_gap_pct", gap_pct),
        (
            "fail_share",
            checker.failed as f64 / checker.attempted as f64,
        ),
    ]);

    // Sim-side results of the pass's last transfer (for fig_sweep, the
    // 512 KB single-copy point).
    let tail = last.runs.last().expect("a pass has at least one run");
    v.insert("testbed.sim_goodput_mbps", tail.goodput_mbps);
    v.insert("testbed.sim_sender_util", tail.sender_util);
    v.insert("testbed.sim_sender_eff_mbps", tail.sender_eff_mbps);

    // Median duration of a span, in units of `ns_per_unit`; fig_sweep's
    // worlds are built and run inside compute_figure, out of sight.
    let span_median = |name: &str, ns_per_unit: f64| match tr.durations(name) {
        d if d.is_empty() => NOT_MEASURED,
        d => median(&d) / ns_per_unit,
    };
    let build_span = if w == Workload::ManyFlows {
        "build_many_flows_world"
    } else {
        "build_ttcp_world"
    };
    v.insert("testbed.build_world_us", span_median(build_span, 1e3));
    v.insert("testbed.run_ms", span_median("World::run_while", 1e6));

    if w == Workload::FigSweep {
        let workers = outboard_bench::sweep::jobs() as f64;
        let speedup = serial.ns() / 1e6 / traced_ms;
        v.insert("bench.sweep.speedup", speedup);
        v.insert("bench.sweep.efficiency", speedup / workers);
        v.insert("bench.sweep.workers", workers);
        v.insert("paper_err_pct", paper_err_pct(last));
    } else {
        for name in [
            "bench.sweep.speedup",
            "bench.sweep.efficiency",
            "bench.sweep.workers",
            "paper_err_pct",
        ] {
            v.insert(name, NOT_MEASURED);
        }
    }

    eprintln!(
        "{}: {} untraced passes quiet {plain_ms:.3} ms (p50 {:.3}, p{hi_pct} {hi_ms:.3}), \
         {} traced passes quiet {traced_ms:.3} ms",
        w.name(),
        plain.ms.len(),
        median(&plain.ms),
        traced.ms.len()
    );
    fill(&PER_LAYER, &v)
}

fn write_trace(args: &RunArgs, tr: &Tracer) {
    let path = args
        .out
        .join(format!("trace_{}.json", args.workload.name()));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, tr.to_chrome_json(args.workload.name())));
    match written {
        Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => panic!("cannot write {}: {e}", path.display()),
    }
}

/// Registry reads over every transfer of a pass (20 for fig_sweep).
struct Registry<'a>(&'a PassOut);

impl Registry<'_> {
    fn each<'a, T>(
        &'a self,
        read: impl Fn(&MetricsRegistry) -> T + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        self.0.runs.iter().map(move |r| read(&r.stats))
    }

    fn sum(&self, name: &str) -> f64 {
        self.each(|s| s.counter_value(name)).sum::<u64>() as f64
    }

    fn sum_hosts(&self, suffix: &str) -> f64 {
        self.sum(&format!("host0.{suffix}")) + self.sum(&format!("host1.{suffix}"))
    }

    fn max(&self, name: &str) -> f64 {
        self.each(|s| s.counter_value(name)).max().unwrap_or(0) as f64
    }

    fn max_hwm(&self, name: &str) -> f64 {
        self.each(|s| s.gauge_value(name).1).max().unwrap_or(0) as f64
    }

    fn mean_frac(&self, name: &str) -> f64 {
        self.each(|s| s.frac_value(name)).sum::<f64>() / self.0.runs.len() as f64
    }

    /// Payload bytes the sending kernels checksummed in software: each
    /// host's `tcp.bytes_sent` times its software share of checksums.
    fn sw_checksummed_bytes(&self) -> f64 {
        let mut total = 0.0;
        for run in &self.0.runs {
            for h in ["host0", "host1"] {
                let c = |n: &str| run.stats.counter_value(&format!("{h}.{n}")) as f64;
                let (sw, hw) = (c("csum.sw"), c("csum.hw"));
                if sw > 0.0 {
                    total += c("tcp.bytes_sent") * sw / (sw + hw);
                }
            }
        }
        total
    }
}

/// Mean absolute relative error, in percent, of the five simulated values
/// `paper_refs.json` names against the paper's.
fn paper_err_pct(pass: &PassOut) -> f64 {
    let refs = Json::parse(include_str!("../paper_refs.json")).expect("paper_refs.json");
    let machine = MachineConfig::alpha_3000_400();
    let n = pass.runs.len();
    let (un, sc) = (&pass.runs[n - 2], &pass.runs[n - 1]);
    let points = refs.get("points").expect("points").items();
    let errs: Vec<f64> = points
        .iter()
        .map(|p| {
            let name = p.get("name").and_then(Json::as_str).expect("name");
            let paper = p.get("paper").and_then(Json::as_f64).expect("paper");
            let sim = match name {
                "raw_hippi_mbps" => pass.raw_mbps.expect("fig_sweep reports raw HIPPI"),
                "unmodified_efficiency_mbps" => un.sender_eff_mbps,
                "single_copy_efficiency_mbps" => sc.sender_eff_mbps,
                "unmodified_per_byte_share" => {
                    unmodified_estimate(&machine, 32 * 1024).per_byte_share
                }
                "single_copy_per_byte_share" => {
                    single_copy_estimate(&machine, 32 * 1024).per_byte_share
                }
                other => panic!("paper_refs.json names an unknown point {other:?}"),
            };
            eprintln!("  fidelity {name:<30} paper {paper:>8.3} sim {sim:>8.3}");
            (sim - paper).abs() / paper
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root must name exactly what the code
    /// measures.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let names = |key: &str, field: &str| -> Vec<String> {
            let list = doc.get(key).unwrap().items().iter();
            list.map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::gated().map(|w| w.name()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let (n, u): (Vec<&str>, Vec<&str>) = table.iter().copied().unzip();
            assert_eq!(names(key, "name"), n, "{key} names");
            assert_eq!(names(key, "unit"), u, "{key} units");
        }
    }
}
