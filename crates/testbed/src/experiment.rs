//! The experiment harness: §7.1's measurement methodology.
//!
//! `run_ttcp` runs a user-process-to-user-process transfer between two
//! simulated hosts, then computes throughput (ttcp's view), CPU utilization
//! (the ttcp + util accounting with the unaccounted background share), and
//! efficiency = throughput / utilization — exactly the three panels of
//! Figures 5 and 6. `raw_hippi_throughput` reproduces the "raw HIPPI"
//! series: well-formed packets driven straight at the device.

use crate::apps::{TtcpReceiver, TtcpSender};
use crate::run::{RunError, RunOutcome};
use crate::world::World;
use bytes::Bytes;
use outboard_cab::{Cab, CabEvent, SdmaDst, SdmaRx, SdmaTx, SgEntry};
use outboard_host::{HostMem, MachineConfig, TaskId};
use outboard_sim::fault::{Action, Point, Target};
use outboard_sim::{
    stats, Dur, EngineKind, Fault, FaultConfigError, FaultPlan, MetricsRegistry, Time,
};
use outboard_stack::{SockAddr, StackConfig};
use std::net::Ipv4Addr;

/// Parameters of one ttcp run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Cost model of both hosts.
    pub machine: MachineConfig,
    /// Stack configuration of both hosts.
    pub stack: StackConfig,
    /// Read/write size (the x-axis of Figures 5 and 6).
    pub write_size: usize,
    /// Total bytes to move.
    pub total_bytes: usize,
    /// RNG seed (links, fault injection).
    pub seed: u64,
    /// Forward-link drop probability (fault-injection experiments).
    pub drop_p: f64,
    /// Forward-link single-bit corruption probability.
    pub corrupt_p: f64,
    /// Forward-link reordering (late-delivery) probability.
    pub reorder_p: f64,
    /// Forward-link duplication probability.
    pub dup_p: f64,
    /// CAB netmem allocation-failure probability (both hosts' adaptors).
    pub cab_alloc_fail_p: f64,
    /// CAB SDMA transfer-failure probability (both hosts' adaptors).
    pub cab_sdma_fail_p: f64,
    /// CAB MDMA transfer-failure probability (both hosts' adaptors).
    pub cab_mdma_fail_p: f64,
    /// Probability a CAB transfer wedges its engine instead of completing.
    pub cab_wedge_p: f64,
    /// Probability the CAB miscomputes an outboard checksum.
    pub cab_csum_error_p: f64,
    /// Verify payload integrity at the receiver.
    pub verify: bool,
    /// Misalign the sender's buffer by this many bytes (§4.5 experiments).
    pub sender_misalign: u64,
    /// Enable per-packet causal span tracing (off by default; traced runs
    /// additionally publish `world.spans.*` and can export a timeline).
    pub trace_spans: bool,
    /// Cap on how many flows get Perfetto flow arrows (`None` = all).
    pub trace_flows: Option<usize>,
    /// Render the trace JSON and critical path after a traced run. Turning
    /// this off measures the pure recording cost of enabled-but-unused
    /// tracing (the benchmark's `sim.obs.record_overhead_pct`).
    pub trace_export: bool,
    /// Has no effect: there is one scheduler. Kept because the `benchmark/`
    /// crate sets it.
    pub engine: EngineKind,
    /// Enable windowed time-series telemetry (off by default; sampled runs
    /// additionally publish `world.timeline.*` and can export timelines).
    pub timeline_enabled: bool,
    /// Sampling window of the timeline (virtual time).
    pub timeline_window: Dur,
    /// Render timeline JSON/CSV/sparklines after a sampled run. Turning
    /// this off measures the pure recording cost of enabled-but-unexported
    /// sampling; a traced run still merges the windows into its trace.
    pub timeline_export: bool,
}

impl ExperimentConfig {
    /// A default experiment: 8 MB transfer, no faults, verification on.
    pub fn new(machine: MachineConfig, stack: StackConfig, write_size: usize) -> ExperimentConfig {
        ExperimentConfig {
            machine,
            stack,
            write_size,
            total_bytes: 8 * 1024 * 1024,
            seed: 42,
            drop_p: 0.0,
            corrupt_p: 0.0,
            reorder_p: 0.0,
            dup_p: 0.0,
            cab_alloc_fail_p: 0.0,
            cab_sdma_fail_p: 0.0,
            cab_mdma_fail_p: 0.0,
            cab_wedge_p: 0.0,
            cab_csum_error_p: 0.0,
            verify: true,
            sender_misalign: 0,
            trace_spans: false,
            trace_flows: Some(64),
            trace_export: true,
            engine: EngineKind,
            timeline_enabled: false,
            timeline_window: Dur::millis(1),
            timeline_export: true,
        }
    }

    /// The run's faults: each nonzero probability as a `Chance` entry on
    /// host 0's outbound link or both hosts' CABs, in the order each device
    /// draws them. This is where the configuration is checked (each
    /// probability finite and in `[0, 1]`).
    pub fn fault_plan(&self) -> Result<FaultPlan, FaultConfigError> {
        use Action::{Corrupt, Delay, Drop, Duplicate, Fail, Miscompute, Wedge};
        use Point::{Alloc, Csum, Frame, Mdma, Sdma};
        let late = Delay(Dur::millis(1));
        let knobs = [
            ("drop_p", self.drop_p, Drop, Frame),
            ("corrupt_p", self.corrupt_p, Corrupt(None), Frame),
            ("reorder_p", self.reorder_p, late, Frame),
            ("dup_p", self.dup_p, Duplicate, Frame),
            ("cab_alloc_fail_p", self.cab_alloc_fail_p, Fail, Alloc),
            ("cab_wedge_p", self.cab_wedge_p, Wedge, Sdma),
            ("cab_wedge_p", self.cab_wedge_p, Wedge, Mdma),
            ("cab_sdma_fail_p", self.cab_sdma_fail_p, Fail, Sdma),
            ("cab_mdma_fail_p", self.cab_mdma_fail_p, Fail, Mdma),
            ("cab_csum_error_p", self.cab_csum_error_p, Miscompute, Csum),
        ];
        let mut faults = Vec::new();
        for (knob, p, action, point) in knobs {
            for host in 0..if point == Frame { 1 } else { 2 } {
                let fault = Fault::chance(knob, p, Target::Point(host, point), action)?;
                faults.extend((p > 0.0).then_some(fault));
            }
        }
        if self.timeline_enabled && self.timeline_window.is_zero() {
            return Err(FaultConfigError {
                knob: "timeline_window",
                value: 0.0,
            });
        }
        let seed = self.seed;
        Ok(FaultPlan { seed, faults })
    }
}

/// The one record of a finished run, written once by its close-out.
///
/// A counter the registry holds is read from `stats` (the sender's
/// retransmissions are `host0.tcp.retransmit_segs`, its checksums
/// `host0.csum.{hw,sw}`); the fields are what the registry does not hold:
/// how the run ended, the apps' own counts, the §7.1 figures computed from
/// them, and the exports. `events_dispatched` alone repeats a registry key
/// (`world.events_dispatched`), because `benchmark/` reads the field.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Whole transfer delivered.
    pub completed: bool,
    /// How the run loop ended.
    pub outcome: Result<RunOutcome, RunError>,
    /// Virtual wall time of the run.
    pub elapsed: Dur,
    /// Bytes delivered to the receiving application.
    pub bytes: usize,
    /// User-process to user-process throughput, Mbit/s.
    pub throughput_mbps: f64,
    /// §7.1 utilization estimate on each host.
    pub sender_utilization: f64,
    /// Receiver-side utilization.
    pub receiver_utilization: f64,
    /// throughput / utilization, Mbit/s.
    pub sender_efficiency_mbps: f64,
    /// Receiver-side efficiency.
    pub receiver_efficiency_mbps: f64,
    /// Received bytes that failed pattern verification.
    pub verify_errors: u64,
    /// write(2) calls the sender completed.
    pub writes: u64,
    /// Simulation events the engine dispatched during the run (the
    /// benchmark divides by wall time for an events/sec figure).
    pub events_dispatched: u64,
    /// Full metrics snapshot of the world at the end of the run (hosts,
    /// links, fabric totals) over the run's elapsed virtual time.
    pub stats: MetricsRegistry,
    /// Chrome trace-event JSON of the run's spans (traced runs only; when
    /// the timeline is also enabled, its counter tracks are merged in).
    pub trace_json: Option<String>,
    /// Critical-path attribution for the busiest flow (traced runs only).
    pub critical_path: Option<outboard_sim::span::CriticalPath>,
    /// `outboard-timeline-v1` JSON of the run's windowed telemetry
    /// (timeline-enabled runs with `timeline_export` only).
    pub timeline_json: Option<String>,
    /// CSV rendering of the same windows.
    pub timeline_csv: Option<String>,
    /// ASCII sparkline summary of the same windows (`--stats` output).
    pub timeline_summary: Option<String>,
}

const SENDER_TASK: TaskId = TaskId(1);
const RECEIVER_TASK: TaskId = TaskId(2);
const PORT: u16 = 5001;
/// Closed spans a traced run's span store holds: the three rings of `1 << 16` it replaced.
const SPAN_CAPACITY: usize = 3 << 16;
/// Retention capacity of a sampled run's timeline rings, in windows.
const TIMELINE_CAPACITY: usize = 1 << 16;

/// The sender host's CAB address in ttcp worlds.
pub const SENDER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The receiver host's CAB address in ttcp worlds.
pub const RECEIVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Build the standard two-host CAB world for a ttcp experiment, with the
/// configuration's [`ExperimentConfig::fault_plan`] installed. Panics on an
/// invalid configuration.
pub fn build_ttcp_world(cfg: &ExperimentConfig) -> World {
    match cfg.fault_plan() {
        Ok(plan) => ttcp_world(cfg, &plan),
        Err(e) => panic!("invalid ExperimentConfig: {e}"),
    }
}

/// The ttcp world of `cfg` with the faults of `plan` alone.
pub(crate) fn ttcp_world(cfg: &ExperimentConfig, plan: &FaultPlan) -> World {
    let mut w = World::new();
    let a = w.add_host("sender", cfg.machine.clone(), cfg.stack.clone());
    let b = w.add_host("receiver", cfg.machine.clone(), cfg.stack.clone());
    w.connect_cab(a, SENDER_IP, b, RECEIVER_IP, Dur::micros(5), cfg.seed);
    // Receiver first so the listener exists before the SYN arrives.
    let mut rx = TtcpReceiver::new(RECEIVER_TASK, PORT, cfg.write_size);
    rx.verify = cfg.verify;
    w.add_app(b, Box::new(rx), true);
    let mut tx = TtcpSender::new(
        SENDER_TASK,
        SockAddr::new(RECEIVER_IP, PORT),
        cfg.write_size,
        cfg.total_bytes,
    );
    tx.buf_vaddr += cfg.sender_misalign;
    w.add_app(a, Box::new(tx), true);
    if cfg.trace_spans {
        w.enable_span_tracing(SPAN_CAPACITY);
    }
    if cfg.timeline_enabled {
        w.enable_timeline(cfg.timeline_window, TIMELINE_CAPACITY);
    }
    w.install_faults(plan);
    w
}

/// Run one ttcp experiment until it completes or gives up.
pub fn run_ttcp(cfg: &ExperimentConfig) -> Metrics {
    run_ttcp_in(&mut build_ttcp_world(cfg), cfg)
}

/// [`run_ttcp`] on a world [`build_ttcp_world`] built from `cfg`, which is
/// left as the run ends so a caller can run it on (a settle past the
/// transfer) and inspect it.
pub fn run_ttcp_in(w: &mut World, cfg: &ExperimentConfig) -> Metrics {
    let outcome = w.run_apps();
    finish_ttcp(w, cfg, outcome)
}

/// Close out a ttcp run at [`World::now`], however long it ran on after
/// its run loop ended `outcome`: force-close the spans still open and flush
/// the timeline (so `opened == closed + dropped` and the window-delta sums
/// hold in the registry), snapshot the metrics, and render the exports
/// `cfg` asks for. [`run_ttcp_in`] and the chaos runner both end here.
pub(crate) fn finish_ttcp(
    w: &mut World,
    cfg: &ExperimentConfig,
    outcome: Result<RunOutcome, RunError>,
) -> Metrics {
    let elapsed = w.now() - Time::ZERO;

    // Dig the apps back out for their counters.
    let writes = {
        let app = w.hosts[0].apps[0].as_ref().unwrap();
        let tx = app
            .as_any()
            .downcast_ref::<TtcpSender>()
            .expect("sender app");
        tx.writes
    };
    let (bytes_read, verify_errors) = {
        let app = w.hosts[1].apps[0].as_ref().unwrap();
        let rx = app
            .as_any()
            .downcast_ref::<TtcpReceiver>()
            .expect("receiver app");
        (rx.bytes_read, rx.verify_errors)
    };

    let bg = cfg.machine.background_share;
    let sender_util = w.hosts[0].cpu.acct.utilization(elapsed, bg);
    let receiver_util = w.hosts[1].cpu.acct.utilization(elapsed, bg);
    let throughput = stats::mbps(bytes_read as u64, elapsed);
    let now = w.now();
    w.finish_spans(now);
    w.finish_timeline(now);
    let stats = w.metrics(elapsed);
    let (trace_json, critical_path) = if w.span_tracing_on() && cfg.trace_export {
        (Some(w.export_trace(cfg.trace_flows)), w.critical_path())
    } else {
        (None, None)
    };
    let (timeline_json, timeline_csv, timeline_summary) = match w.timeline() {
        Some(tl) if cfg.timeline_export => {
            (Some(tl.to_json()), Some(tl.to_csv()), Some(tl.sparklines()))
        }
        _ => (None, None, None),
    };

    Metrics {
        completed: outcome == Ok(RunOutcome::Completed) && bytes_read >= cfg.total_bytes,
        outcome,
        elapsed,
        bytes: bytes_read,
        throughput_mbps: throughput,
        sender_utilization: sender_util,
        receiver_utilization: receiver_util,
        sender_efficiency_mbps: if sender_util > 0.0 {
            throughput / sender_util
        } else {
            0.0
        },
        receiver_efficiency_mbps: if receiver_util > 0.0 {
            throughput / receiver_util
        } else {
            0.0
        },
        verify_errors,
        writes,
        events_dispatched: w.events_dispatched,
        stats,
        trace_json,
        critical_path,
        timeline_json,
        timeline_csv,
        timeline_summary,
    }
}

/// The "raw HIPPI" bound (Figure 5a): well-formed packets of `packet_size`
/// bytes driven straight at the CAB pair with minimal host involvement.
/// Returns Mbit/s.
pub fn raw_hippi_throughput(machine: &MachineConfig, packet_size: usize, packets: usize) -> f64 {
    let cab_cfg = outboard_cab::CabConfig {
        tc_speed_scale: machine.tc_speed_scale,
        ..outboard_cab::CabConfig::default()
    };
    let mut tx = Cab::new(1, cab_cfg.clone());
    let mut rx = Cab::new(2, cab_cfg);
    let mem = HostMem::new();
    let mut rx_mem = HostMem::new();
    rx_mem.create_region(TaskId(9), 0x1000, packet_size.max(4096));
    let latency = Dur::micros(5);
    // Host issue cost per packet on each side (raw test's tight loop),
    // scaled with the machine's speed like every other CPU cost.
    let issue = Dur::from_micros_f64(40.0 / machine.tc_speed_scale.max(0.25));

    let payload = Bytes::from(vec![0xA5u8; packet_size]);
    let mut tx_host_free = Time::ZERO;
    let mut rx_host_free = Time::ZERO;
    let mut last_done = Time::ZERO;
    for i in 0..packets {
        let t0 = tx_host_free;
        tx_host_free = t0 + issue;
        let pkt = tx.alloc_packet(packet_size).expect("netmem");
        let ev = tx
            .sdma_tx(
                SdmaTx {
                    packet: pkt,
                    sg: vec![SgEntry::Inline(payload.clone())],
                    csum: None,
                    reuse_body_csum: false,
                    interrupt_on_complete: false,
                    token: i as u64,
                },
                t0,
                &mem,
            )
            .expect("sdma");
        let sdma_done = ev.at();
        let ev = tx.mdma_tx(pkt, 2, 0, sdma_done, true).expect("mdma");
        let CabEvent::FrameOut { at, frame, .. } = ev else {
            unreachable!()
        };
        let arrival = at + latency;
        let rx_ev = rx.receive_frame(frame, arrival);
        let CabEvent::RxReady { at, packet, .. } = rx_ev else {
            continue; // dropped for lack of netmem: raw test overrun
        };
        // Copy out to the consumer.
        let t_rx = at.max(rx_host_free);
        rx_host_free = t_rx + issue;
        if let Some(p) = packet {
            let ev = rx
                .sdma_rx(
                    SdmaRx {
                        packet: p,
                        src_off: 0,
                        len: packet_size,
                        dst: SdmaDst::User {
                            task: TaskId(9),
                            vaddr: 0x1000,
                        },
                        free_packet: true,
                        interrupt_on_complete: false,
                        token: i as u64,
                    },
                    t_rx,
                    &mut rx_mem,
                )
                .expect("sdma rx");
            last_done = last_done.max(ev.at());
        } else {
            last_done = last_done.max(at);
        }
    }
    stats::mbps((packet_size * packets) as u64, last_done - Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(stack: StackConfig, write_size: usize, total: usize) -> Metrics {
        let mut stack = stack;
        if stack.mode == outboard_stack::StackMode::SingleCopy {
            stack.force_single_copy = true;
        }
        let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, write_size);
        cfg.total_bytes = total;
        run_ttcp(&cfg)
    }

    #[test]
    fn single_copy_transfer_completes_and_verifies() {
        let m = quick(StackConfig::single_copy(), 64 * 1024, 1024 * 1024);
        assert!(m.completed, "transfer stalled: {m:?}");
        assert_eq!(m.verify_errors, 0, "payload corrupted end-to-end");
        assert!(m.throughput_mbps > 10.0, "throughput {}", m.throughput_mbps);
        assert!(
            m.stats.counter_value("host0.csum.hw") > 0,
            "outboard checksums unused"
        );
    }

    #[test]
    fn unmodified_transfer_completes_and_verifies() {
        let m = quick(StackConfig::unmodified(), 64 * 1024, 1024 * 1024);
        assert!(m.completed, "transfer stalled: {m:?}");
        assert_eq!(m.verify_errors, 0);
        assert!(
            m.stats.counter_value("host0.csum.sw") > 0,
            "software checksums unused"
        );
        assert_eq!(
            m.stats.counter_value("host0.csum.hw"),
            0,
            "unmodified stack must not offload"
        );
    }

    #[test]
    fn ragged_final_write_is_filled_and_verified() {
        // 100 000 B in 64 KB writes: the second write is 34 464 B.
        for stack in [StackConfig::single_copy(), StackConfig::unmodified()] {
            let m = quick(stack, 64 * 1024, 100_000);
            assert!(m.completed, "transfer stalled: {m:?}");
            assert_eq!(m.bytes, 100_000);
            assert_eq!(m.verify_errors, 0);
        }
    }

    #[test]
    fn single_copy_is_more_efficient_at_large_writes() {
        let sc = quick(StackConfig::single_copy(), 256 * 1024, 4 * 1024 * 1024);
        let un = quick(StackConfig::unmodified(), 256 * 1024, 4 * 1024 * 1024);
        assert!(sc.completed && un.completed);
        assert!(
            sc.sender_efficiency_mbps > 2.0 * un.sender_efficiency_mbps,
            "single-copy {:.0} vs unmodified {:.0}",
            sc.sender_efficiency_mbps,
            un.sender_efficiency_mbps
        );
    }

    /// A wedge probability alone, with no other CAB fault set, wedges
    /// both adaptors' engines.
    #[test]
    fn cab_wedge_probability_alone_wedges_engines() {
        let mut stack = StackConfig::single_copy();
        stack.force_single_copy = true;
        let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
        cfg.total_bytes = 1024 * 1024;
        cfg.cab_wedge_p = 0.1;
        let m = run_ttcp(&cfg);
        let wedges = [0, 1].map(|h| {
            m.stats
                .counter_value(&format!("host{h}.cab0.faults.wedges"))
        });
        assert!(
            wedges.iter().all(|&n| n > 0),
            "wedges per adaptor: {wedges:?}"
        );
    }

    #[test]
    fn raw_hippi_bound_matches_microcode_limit() {
        let m = MachineConfig::alpha_3000_400();
        let t = raw_hippi_throughput(&m, 512 * 1024 / 16, 64);
        assert!((100.0..160.0).contains(&t), "raw hippi {t}");
        let lx = MachineConfig::alpha_3000_300lx();
        let t2 = raw_hippi_throughput(&lx, 512 * 1024 / 16, 64);
        // The LX's Turbochannel costs ~25-30 % of the SDMA bandwidth (the
        // microcode's per-transfer overhead dominates, not the clock).
        assert!(t2 < t * 0.85 && t2 > t * 0.55, "slower TC: {t2} vs {t}");
    }
}
