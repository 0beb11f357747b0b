//! Layer probes: each times a loop over one layer's public function with
//! workload-shaped inputs (32 KB packets, 1 KB writes, 64-byte headers),
//! once per traced invocation. They attribute host time to layers from the
//! outside; multiplied by the registry's counts they give the `*.est_share`
//! estimates. Inputs come from the run's seed.

use crate::summary::median;
use crate::trace::Tracer;
use crate::workloads::{ttcp_config, Workload};
use bytes::Bytes;
use outboard_cab::{Cab, CabConfig, NetworkMemory, SdmaTx, SgEntry};
use outboard_host::{HostMem, MachineConfig, TaskId, VmSystem};
use outboard_mbuf::{Chain, Mbuf, UioDesc, UioRegion};
use outboard_netsim::Link;
use outboard_sim::{BufPool, Dur, EngineKind, EventEngine, FlowId, Pcg32, SpanSink, Stage, Time};
use outboard_wire::checksum::Accumulator;
use outboard_wire::{Ipv4Header, TcpFlags, TcpHeader};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

const PKT: usize = 32 * 1024;

/// `len` bytes from the probes' input generator (seeded by `--seed`).
pub fn random_bytes(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// Ns per iteration of `f`: `iters` iterations in 50 batches, the mean of the
/// fastest batch — a batch is short enough to slip between the neighbours'
/// bursts (see `quiet.rs`), which the mean over all iterations is not.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let per_batch = (iters / 50).max(1);
    let mut fastest = f64::INFINITY;
    for _ in 0..50 {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        fastest = fastest.min(t0.elapsed().as_nanos() as f64);
    }
    fastest / f64::from(per_batch)
}

/// `sim.sched.ns_per_op`: one pop plus one push of a timer-like successor
/// with `depth` events pending, on the default engine.
pub fn sched_ns_per_op(rng: &mut Pcg32, depth: usize) -> f64 {
    let mut eng: EventEngine<u64> = EventEngine::new(EngineKind::default());
    for i in 0..depth {
        eng.push(Time(1 + rng.next_u64() % 5_000_000), i as u64);
    }
    let ns = ns_per_iter(300_000, || {
        let (now, ev) = eng.pop().expect("pending set never drains");
        eng.push(now + Dur(1 + rng.next_u64() % 5_000_000), ev);
    });
    black_box(eng.len());
    ns
}

/// `sim.pool.ns_per_cycle`: acquire → freeze → drop of one `len`-byte buffer.
pub fn pool_ns_per_cycle(len: usize, iters: u32) -> f64 {
    let pool = Arc::new(BufPool::new());
    ns_per_iter(iters, || {
        let (buf, ticket) = pool.acquire(black_box(len));
        drop(black_box(pool.freeze(buf, ticket)));
    })
}

/// `wire.csum`: ns to checksum `data` once.
pub fn csum_ns(data: &[u8], iters: u32) -> f64 {
    ns_per_iter(iters, || {
        let mut acc = Accumulator::new();
        acc.add_bytes(black_box(data));
        black_box(acc.finish());
    })
}

/// `wire.hdr.build_ns` / `wire.hdr.parse_ns`: an IPv4 header plus a TCP
/// header with MSS and window-scale options.
pub fn hdr_build_parse_ns(rng: &mut Pcg32) -> (f64, f64) {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let seq = rng.next_u64() as u32;
    let build = ns_per_iter(300_000, || {
        let ip = Ipv4Header::new(src, dst, 6, black_box(1000), 7);
        let mut th = TcpHeader::new(5001, 5002, black_box(seq), 4, TcpFlags::SYN);
        th.mss = Some(32728);
        th.window_scale = Some(4);
        black_box((ip.build(), th.build()));
    });
    let mut ipb = Ipv4Header::new(src, dst, 6, 1000, 7).build().to_vec();
    ipb.resize(1020, 0);
    let mut th = TcpHeader::new(5001, 5002, seq, 4, TcpFlags::SYN);
    th.mss = Some(32728);
    th.window_scale = Some(4);
    let tb = th.build();
    let parse = ns_per_iter(300_000, || {
        black_box(Ipv4Header::parse(black_box(&ipb)).expect("built header"));
        black_box(TcpHeader::parse(black_box(&tb)).expect("built header"));
    });
    (build, parse)
}

fn uio_chain() -> Chain {
    let mut chain = Chain::new();
    for i in 0..16 {
        chain.append(Mbuf::uio(UioDesc {
            region: UioRegion {
                task: TaskId(1),
                base: 0,
            },
            off: i * PKT as u64,
            len: PKT,
            counter: None,
        }));
    }
    chain
}

/// `mbuf.chain.split_ns` / `mbuf.chain.copy_range_ns` on a 16 × 32 KB uio
/// chain (one 512 KB write). Chains to split are built before the clock
/// starts.
pub fn chain_split_copy_ns() -> (f64, f64) {
    let mut chains: Vec<Chain> = (0..5_000).map(|_| uio_chain()).collect();
    let t0 = Instant::now();
    for c in &mut chains {
        black_box(c.split_front(black_box(100_000)));
    }
    let split = t0.elapsed().as_nanos() as f64 / chains.len() as f64;
    let chain = uio_chain();
    let copy = ns_per_iter(100_000, || {
        black_box(chain.copy_range(black_box(100_000), PKT));
    });
    (split, copy)
}

/// `cab.sdma_tx.ns.32k`: `alloc_packet` + `sdma_tx` of 32 KB of user memory
/// + `free_packet`.
pub fn cab_sdma_tx_ns(rng: &mut Pcg32) -> f64 {
    let mut cab = Cab::new(1, CabConfig::default());
    let mut mem = HostMem::new();
    mem.create_region(TaskId(1), 0, 2 * PKT);
    {
        use outboard_host::UserMemory;
        mem.write_user(TaskId(1), 0, &random_bytes(rng, PKT))
            .expect("region just created");
    }
    let mut now = Time::ZERO;
    ns_per_iter(20_000, || {
        let pkt = cab.alloc_packet(PKT).expect("netmem is empty");
        let ev = cab
            .sdma_tx(
                SdmaTx {
                    packet: pkt,
                    sg: vec![SgEntry::User {
                        task: TaskId(1),
                        vaddr: 0,
                        len: PKT,
                    }],
                    csum: None,
                    reuse_body_csum: false,
                    interrupt_on_complete: false,
                    token: 0,
                },
                now,
                &mem,
            )
            .expect("no faults injected");
        now = ev.at();
        cab.free_packet(pkt, now);
    })
}

/// `cab.netmem.alloc_free_ns`: one 32 KB packet buffer allocated and freed.
pub fn netmem_alloc_free_ns() -> f64 {
    let cfg = CabConfig::default();
    let mut nm = NetworkMemory::new(cfg.net_mem_bytes, cfg.page_size);
    ns_per_iter(100_000, || {
        let id = nm.alloc(black_box(PKT)).expect("netmem is empty");
        black_box(nm.free(id));
    })
}

/// `host.vm.prepare_release_ns.32k`: pin + map, then unpin, four pages.
pub fn vm_prepare_release_ns() -> f64 {
    let mut vm = VmSystem::new(MachineConfig::alpha_3000_400(), false);
    ns_per_iter(200_000, || {
        black_box(vm.prepare(TaskId(1), 0, black_box(PKT)));
        black_box(vm.release(TaskId(1), 0, PKT));
    })
}

/// `netsim.link.transmit_ns.32k`: one 32 KB frame offered to a fault-free
/// HIPPI link.
pub fn link_transmit_ns(rng: &mut Pcg32, seed: u64) -> f64 {
    let mut link = Link::hippi(Dur::micros(5), seed);
    let payload = Bytes::from(random_bytes(rng, PKT));
    let mut now = Time::ZERO;
    ns_per_iter(500_000, || {
        black_box(link.transmit(payload.clone(), now));
        now += Dur::micros(1);
    })
}

/// `testbed.fill.ns_per_kb`: what the ttcp apps spend per KB of payload
/// calling the public `ttcp_pattern` once per byte through a `fn` pointer —
/// the sender to fill its buffer before every write, a verifying receiver
/// to check every read.
pub fn pattern_fill_ns_per_kb() -> f64 {
    let pattern: fn(usize) -> u8 = black_box(outboard_testbed::apps::ttcp_pattern);
    let mut buf = vec![0u8; PKT];
    let mut off = 0usize;
    let per_pkt = ns_per_iter(2_000, || {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = pattern(off + i);
        }
        off += PKT;
        black_box(&mut buf);
    });
    per_pkt / (PKT / 1024) as f64
}

/// `sim.span.record_ns`: one `SpanSink` open + close.
pub fn span_record_ns() -> f64 {
    let mut sink = SpanSink::enabled(1 << 16);
    let mut key = 0u64;
    ns_per_iter(500_000, || {
        key += 1;
        let flow = FlowId::from_parts(7, key as u32);
        sink.span_open(key, flow, Stage::Sdma, Time(key), PKT as u64);
        black_box(sink.span_close(key, Stage::Sdma, Time(key + 100)));
    })
}

/// The observability family, measured on the `traced_small` configuration
/// (spans, 1 ms timeline and both exports on): median host time of each obs
/// call, and the counts the run published.
pub struct ObsProbe {
    pub span_export_ms: f64,
    pub timeline_export_ms: f64,
    pub snapshot_us: f64,
    pub to_json_us: f64,
    pub spans_opened: f64,
    pub spans_evicted: f64,
    pub timeline_windows: f64,
    /// Host ms of the same 512 KB transfer with every obs switch off.
    pub untraced_pass_ms: f64,
    /// Host-time cost of recording alone: `traced_small` with both exports
    /// off against the same transfer untraced.
    pub record_overhead_pct: f64,
}

pub fn obs_probe(seed: u64) -> ObsProbe {
    const REPS: usize = 5;
    let mut tr = Tracer::new(true);
    let mut to_json_ns = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let pass = Workload::TracedSmall.run_pass(seed, 0, false, &mut tr);
        let run = pass.runs.into_iter().next().expect("one run per pass");
        let t0 = Instant::now();
        black_box(run.stats.to_json());
        to_json_ns.push(t0.elapsed().as_nanos() as f64);
        last = Some(run.stats);
    }
    let stats = last.expect("REPS > 0");
    let med = |name: &str| median(&tr.durations(name));

    // Recording overhead: alternate the two configurations so drift hits
    // both equally.
    let total = 512 * 1024;
    let plain = ttcp_config(true, 1024, total, seed);
    let mut recording = plain.clone();
    recording.trace_spans = true;
    recording.trace_export = false;
    recording.timeline_enabled = true;
    recording.timeline_export = false;
    let (mut plain_ns, mut rec_ns) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        for (cfg, out) in [(&plain, &mut plain_ns), (&recording, &mut rec_ns)] {
            let t0 = Instant::now();
            black_box(outboard_testbed::run_ttcp(cfg));
            out.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let (plain_med, rec_med) = (median(&plain_ns), median(&rec_ns));

    ObsProbe {
        span_export_ms: (med("World::export_trace") + med("World::critical_path")) / 1e6,
        timeline_export_ms: med("Timeline::export") / 1e6,
        snapshot_us: med("World::metrics") / 1e3,
        to_json_us: median(&to_json_ns) / 1e3,
        spans_opened: stats.counter_value("world.spans.opened") as f64,
        spans_evicted: stats.counter_value("world.spans.evicted") as f64,
        timeline_windows: stats.counter_value("world.timeline.windows") as f64,
        untraced_pass_ms: plain_med / 1e6,
        record_overhead_pct: (rec_med - plain_med) / plain_med * 100.0,
    }
}
