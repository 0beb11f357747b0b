//! Pool recycling under fault injection and chaos.
//!
//! The buffer pool only pays off if recycling keeps working when the stack
//! is under stress: drops force retransmits, CAB faults force the software
//! fallback, chaos actions wedge and heal whole adaptors. Each case here
//! runs a full ttcp transfer under one fault regime and then checks the
//! three recycling invariants:
//!
//! * **conservation** — once the world (and every frozen frame it produced)
//!   is dropped, `acquires == releases`: nothing leaked (a buffer returns
//!   exactly once, when its owner drops or freezes it, so nothing can be
//!   freed twice);
//! * **steady state** — `misses` is bounded by `high_water + discards`:
//!   allocation count tracks peak concurrency, not packet count, so the
//!   hot path really is recycling rather than allocating;
//! * **ownership** — the CAB ownership journals (armed in debug builds)
//!   record no violations: recycled storage never reaches a DMA
//!   engine while another engine or the host still owns it (types keep
//!   pooled storage from being handed out twice; the journals check the
//!   DMA timing, which types cannot express).

use bytes::Bytes;
use outboard::cab::{
    Cab, CabConfig, CabError, CabEvent, ChecksumSpec, SdmaDst, SdmaRx, SdmaTx, SgEntry,
};
use outboard::host::{HostMem, MachineConfig, TaskId};
use outboard::sim::{BufPool, FaultPlan, PoolStats, PooledBuf, Time};
use outboard::stack::StackConfig;
use outboard::testbed::experiment::build_ttcp_world;
use outboard::testbed::{run_chaos, ExperimentConfig, RunOutcome, World};

/// One fault regime of the soak matrix.
#[derive(Clone)]
struct FaultCase {
    name: &'static str,
    drop_p: f64,
    corrupt_p: f64,
    reorder_p: f64,
    dup_p: f64,
    cab_alloc_fail_p: f64,
    cab_sdma_fail_p: f64,
    cab_mdma_fail_p: f64,
    cab_csum_error_p: f64,
}

impl FaultCase {
    const fn clean(name: &'static str) -> FaultCase {
        FaultCase {
            name,
            drop_p: 0.0,
            corrupt_p: 0.0,
            reorder_p: 0.0,
            dup_p: 0.0,
            cab_alloc_fail_p: 0.0,
            cab_sdma_fail_p: 0.0,
            cab_mdma_fail_p: 0.0,
            cab_csum_error_p: 0.0,
        }
    }
}

/// Link faults, CAB faults, and everything at once — each severe enough to
/// exercise retransmission and fallback paths, mild enough that TCP still
/// completes the transfer.
fn fault_matrix() -> Vec<FaultCase> {
    vec![
        FaultCase::clean("baseline"),
        FaultCase {
            drop_p: 0.02,
            ..FaultCase::clean("drop")
        },
        FaultCase {
            corrupt_p: 0.02,
            ..FaultCase::clean("corrupt")
        },
        FaultCase {
            reorder_p: 0.02,
            dup_p: 0.02,
            ..FaultCase::clean("reorder+dup")
        },
        FaultCase {
            cab_alloc_fail_p: 0.05,
            ..FaultCase::clean("cab-alloc-fail")
        },
        FaultCase {
            cab_sdma_fail_p: 0.02,
            cab_mdma_fail_p: 0.02,
            ..FaultCase::clean("cab-dma-fail")
        },
        FaultCase {
            cab_csum_error_p: 0.02,
            ..FaultCase::clean("cab-csum-error")
        },
        FaultCase {
            drop_p: 0.01,
            corrupt_p: 0.01,
            reorder_p: 0.01,
            dup_p: 0.01,
            cab_alloc_fail_p: 0.01,
            cab_sdma_fail_p: 0.01,
            cab_mdma_fail_p: 0.01,
            cab_csum_error_p: 0.01,
            ..FaultCase::clean("everything")
        },
    ]
}

fn config_for(case: &FaultCase, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 16 * 1024);
    cfg.total_bytes = 512 * 1024;
    cfg.seed = seed;
    cfg.verify = true;
    cfg.drop_p = case.drop_p;
    cfg.corrupt_p = case.corrupt_p;
    cfg.reorder_p = case.reorder_p;
    cfg.dup_p = case.dup_p;
    cfg.cab_alloc_fail_p = case.cab_alloc_fail_p;
    cfg.cab_sdma_fail_p = case.cab_sdma_fail_p;
    cfg.cab_mdma_fail_p = case.cab_mdma_fail_p;
    cfg.cab_csum_error_p = case.cab_csum_error_p;
    cfg
}

/// Every CAB ownership journal in the world must be clean (and must have
/// actually observed traffic).
fn assert_journals_clean(w: &mut World, name: &str) {
    for (h, host) in w.hosts.iter_mut().enumerate() {
        for iface in &mut host.kernel.ifaces {
            if let Some(ci) = iface.cab() {
                let violations = ci.cab.ownership_violations();
                assert!(
                    violations.is_empty(),
                    "case {name}: host {h} ownership journal recorded {} \
                     ownership violations, first: {}",
                    violations.len(),
                    violations[0],
                );
                assert!(
                    ci.cab.ownership_transitions() > 0,
                    "case {name}: host {h} journal saw no transfers — the \
                     journal is not wired up",
                );
            }
        }
    }
}

/// Misses allowed per buffer of `high_water`. A miss is counted per size
/// class (the class's freelist was empty) while `high_water` is global
/// outstanding, so `misses <= classes * high_water + discards` is sound
/// for any transfer. The pool has 41 classes (four per octave, 1 KiB …
/// 1 MiB); these transfers touch few of them, and the bound stays the 11
/// of the power-of-two pool — still orders of magnitude below per-packet
/// allocation.
const MISSES_PER_HIGH_WATER: u64 = 11;

fn assert_steady_state(ps: &PoolStats, name: &str) {
    assert!(ps.acquires > 0, "case {name}: pool never used");
    assert!(
        ps.misses <= MISSES_PER_HIGH_WATER * ps.high_water + ps.discards,
        "case {name}: {} misses exceed {MISSES_PER_HIGH_WATER}x high_water {} + \
         discards {} — the hot path is allocating instead of recycling",
        ps.misses,
        ps.high_water,
        ps.discards,
    );
    assert!(
        ps.hits >= ps.misses,
        "case {name}: freelist hits ({}) below misses ({}) — recycling is \
         not carrying the load",
        ps.hits,
        ps.misses,
    );
}

/// After the world and all frames are gone the pool must balance exactly.
fn assert_conservation(pool: BufPool, name: &str) {
    let ps = pool.stats();
    assert_eq!(
        ps.acquires, ps.releases,
        "case {name}: acquires vs releases diverge at teardown — buffers \
         leaked or double-freed",
    );
    assert!(
        pool.balanced(),
        "case {name}: pool not balanced at teardown: {ps:?}"
    );
}

#[test]
fn pool_survives_fault_matrix_soak() {
    for (i, case) in fault_matrix().into_iter().enumerate() {
        let cfg = config_for(&case, 0xC0FFEE + i as u64);
        let mut w = build_ttcp_world(&cfg);
        // Fault regimes are tuned so TCP always finishes; a hang here is a
        // real robustness regression, not a flaky tuning artifact.
        let outcome = w.run_apps();
        assert_eq!(outcome, Ok(RunOutcome::Completed), "case {}", case.name);
        assert_steady_state(&w.pool.stats(), case.name);
        assert_journals_clean(&mut w, case.name);
        let pool = w.pool.clone();
        drop(w);
        assert_conservation(pool, case.name);
    }
}

#[test]
fn pool_survives_chaos_schedules() {
    // The chaos engine wedges/heals adaptors and partitions links on top
    // of a fault-free transfer; the oracle checks integrity and liveness,
    // and the registry snapshot carries the pool counters.
    for seed in [3u64, 11] {
        let cfg = config_for(&FaultCase::clean("chaos"), seed);
        let plan = FaultPlan::generate(seed, 10, 2);
        let outcome = run_chaos(&cfg, &plan);
        assert!(
            outcome.passed(),
            "chaos seed {seed}: oracle violations: {:?}",
            outcome.violations
        );
        let stats = &outcome.metrics.as_ref().expect("the run ran").stats;
        let acquires = stats.counter_value("world.pool.acquires");
        let misses = stats.counter_value("world.pool.misses");
        let high_water = stats.counter_value("world.pool.high_water");
        let discards = stats.counter_value("world.pool.discards");
        assert!(acquires > 0, "chaos seed {seed}: pool never used");
        assert!(
            misses <= MISSES_PER_HIGH_WATER * high_water + discards,
            "chaos seed {seed}: {misses} misses exceed {MISSES_PER_HIGH_WATER}x \
             high_water {high_water} + discards {discards}",
        );
    }
}

#[test]
fn pool_balances_after_chaos_world_teardown() {
    // Same conservation check as the fault matrix, but with the chaos
    // driver installed — wedge/heal cycles must not strand buffers.
    for seed in [5u64, 23] {
        let cfg = config_for(&FaultCase::clean("chaos-teardown"), seed);
        let plan = FaultPlan::generate(seed, 8, 2);
        let mut w = build_ttcp_world(&cfg);
        w.install_faults(&plan);
        let outcome = w.run_apps();
        assert_eq!(outcome, Ok(RunOutcome::Completed), "chaos seed {seed}");
        assert_steady_state(&w.pool.stats(), "chaos-teardown");
        assert_journals_clean(&mut w, "chaos-teardown");
        let pool = w.pool.clone();
        drop(w);
        assert_conservation(pool, "chaos-teardown");
    }
}

/// A transmit gather of `sg` into `packet`, checksummed over everything
/// past a 64-byte header.
fn gather_req(packet: outboard::cab::PacketId, sg: Vec<SgEntry>) -> SdmaTx {
    SdmaTx {
        packet,
        sg,
        csum: Some(ChecksumSpec {
            csum_offset: 60,
            skip_words: 16,
        }),
        reuse_body_csum: false,
        interrupt_on_complete: false,
        token: 0,
    }
}

#[test]
fn faulting_gather_leaves_the_packet_untouched() {
    // The gather goes straight into network memory, so every user range
    // must be checked before the first byte moves.
    let pool = BufPool::new();
    let mut cab = Cab::new(1, CabConfig::default());
    cab.set_pool(pool.clone());
    let mut hm = HostMem::new();
    let task = TaskId(1);
    hm.create_region(task, 0x1000, 4096);
    hm.region_mut(task).unwrap().fill(0x11);
    let user = |vaddr| SgEntry::User {
        task,
        vaddr,
        len: 1024,
    };
    let id = cab.alloc_packet(64 + 2048).unwrap();
    let header = |fill| SgEntry::Inline(Bytes::from(vec![fill; 64]));
    let sg = vec![header(0x22), user(0x1000), user(0x1400)];
    let done = cab
        .sdma_tx(gather_req(id, sg), Time::ZERO, &hm)
        .unwrap()
        .at();
    let snapshot = |cab: &Cab| {
        let p = cab.netmem().get(id).unwrap();
        // A copy, not a view: a held `Bytes` would keep the storage out.
        (p.data.to_vec(), p.saved_body_csum)
    };
    let before = snapshot(&cab);
    assert_eq!(before.0.len(), 64 + 2048);
    assert!(before.1.is_some());

    // Same shape, different bytes, but the second user range runs off the
    // end of the region.
    hm.region_mut(task).unwrap().fill(0x33);
    let sg = vec![header(0x44), user(0x1000), user(0x1000 + 3584)];
    let err = cab.sdma_tx(gather_req(id, sg), done, &hm).unwrap_err();
    assert!(matches!(err, CabError::MemFault(f) if f.vaddr == 0x1000 + 3584));
    assert!(snapshot(&cab) == before, "a refused gather moved bytes");

    assert!(cab.free_packet(id, done));
    drop(cab);
    assert_conservation(pool, "faulting-gather");
}

#[test]
fn recycled_storage_never_shows_a_stale_byte() {
    // Packet buffers and frames are not zero-filled: whatever a recycled
    // buffer held must be unreachable past the bytes actually written.
    const LEN: usize = 3000; // shares the 4 KB class with the dirty buffers
    let pool = BufPool::new();
    let dirty: Vec<_> = (0..8)
        .map(|_| {
            let mut buf = PooledBuf::zeroed(&pool, 4096);
            buf.fill(0xFF);
            buf
        })
        .collect();
    drop(dirty);
    let mut tx = Cab::new(1, CabConfig::default());
    let mut rx = Cab::new(2, CabConfig::default());
    tx.set_pool(pool.clone());
    rx.set_pool(pool.clone());
    let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();

    let id = tx.alloc_packet(LEN).unwrap();
    let mut probe = [0u8; 1];
    assert!(!tx.read_packet(id, 0, &mut probe), "nothing written yet");
    let mut req = gather_req(id, vec![SgEntry::Inline(Bytes::from(payload.clone()))]);
    req.csum = None;
    let gathered = tx.sdma_tx(req, Time::ZERO, &HostMem::new()).unwrap().at();
    assert_eq!(tx.netmem().get(id).unwrap().data.len(), LEN);
    let mut out = vec![0u8; LEN];
    assert!(tx.netmem().read(id, 0, &mut out));
    assert_eq!(out, payload);
    assert!(!tx.read_packet(id, LEN, &mut probe), "past the watermark");

    let CabEvent::FrameOut { frame, .. } = tx.mdma_tx(id, 2, 0, gathered, true).unwrap() else {
        panic!("mdma_tx yields a frame")
    };
    assert_eq!(&frame[..], &payload[..]);

    let CabEvent::RxReady {
        at,
        packet: Some(pkt),
        ..
    } = rx.receive_frame(frame, Time(1_000_000))
    else {
        panic!("frame stays outboard")
    };
    assert_eq!(rx.netmem().get(pkt).unwrap().data.len(), LEN);
    let copy_out = |dst| SdmaRx {
        packet: pkt,
        src_off: 0,
        len: LEN,
        dst,
        free_packet: false,
        interrupt_on_complete: false,
        token: 0,
    };
    let mut hm = HostMem::new();
    let task = TaskId(2);
    hm.create_region(task, 0x8000, 4096);
    let to_user = SdmaDst::User {
        task,
        vaddr: 0x8000,
    };
    let copied = rx.sdma_rx(copy_out(to_user), at, &mut hm).unwrap().at();
    let region = hm.region(task).unwrap();
    assert_eq!(&region[..LEN], &payload[..]);
    assert!(region[LEN..].iter().all(|&b| b == 0), "copy-out overran");
    let CabEvent::SdmaDone {
        data: Some(data), ..
    } = rx
        .sdma_rx(copy_out(SdmaDst::Kernel), copied, &mut hm)
        .unwrap()
    else {
        panic!("kernel copy-out returns the bytes")
    };
    assert_eq!(&data[..], &payload[..]);

    drop((data, tx, rx));
    assert_conservation(pool, "stale-bytes");
}
