//! Integration tests for the single-copy data path (§3, §4): end-to-end
//! transfers through the whole simulated system, checking the *mechanisms*
//! (descriptor flow, outboard checksumming, buffer lifecycle) and not just
//! the outcomes.

use outboard::host::MachineConfig;
use outboard::sim::{Dur, Time};
use outboard::stack::{Kernel, Proto, StackConfig, StackError, StackMode, MIN_SOCK_BUF};
use outboard::testbed::experiment::{build_ttcp_world, run_ttcp_in};
use outboard::testbed::oracle::{copy_violations, held_page_violations};
use outboard::testbed::{run_ttcp, ExperimentConfig, RunOutcome};

fn sc_config(write_size: usize, total: usize) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, write_size);
    cfg.total_bytes = total;
    cfg
}

#[test]
fn bulk_transfer_delivers_exact_bytes() {
    for write_size in [3 * 1024, 32 * 1024, 200 * 1024] {
        let cfg = sc_config(write_size, 2 * 1024 * 1024);
        let m = run_ttcp(&cfg);
        assert!(m.completed, "stalled at write size {write_size}: {m:?}");
        assert_eq!(m.bytes, 2 * 1024 * 1024);
        assert_eq!(m.verify_errors, 0, "corruption at write size {write_size}");
    }
}

/// Socket buffers that are no multiple of a word, or of the MSS: ACKs
/// free space a byte count at a time, but the single-copy path appends
/// only word-multiple chunks before a write's tail, so each chunk still
/// starts word-aligned in user space (§4.5) and the sender never falls
/// back to copying one. Each (buffer, write) pair here frees space that
/// would start a later chunk unaligned without that rounding. Both stacks
/// must deliver every byte, with no copy-semantics violation.
#[test]
fn odd_socket_buffers_deliver_every_byte() {
    const PAIRS: [(usize, usize); 4] = [
        (4096, 10_001),
        (10_001, 4096),
        (10_001, 65_536),
        (65_535, 65_536),
    ];
    for (sock_buf, write_size) in PAIRS {
        for mut stack in [StackConfig::single_copy(), StackConfig::unmodified()] {
            stack.force_single_copy = stack.mode == StackMode::SingleCopy;
            stack.sock_buf = sock_buf;
            let machine = MachineConfig::alpha_3000_400();
            let mut cfg = ExperimentConfig::new(machine, stack, write_size);
            cfg.total_bytes = 256 * 1024;
            let mut w = build_ttcp_world(&cfg);
            let m = run_ttcp_in(&mut w, &cfg);
            let run = format!(
                "{:?}, buffer {sock_buf}, write {write_size}",
                cfg.stack.mode
            );
            assert!(m.completed, "{run}: {:?}", m.outcome);
            assert_eq!((m.bytes, m.verify_errors), (256 * 1024, 0), "{run}");
            assert_eq!(copy_violations(&w), Vec::<String>::new(), "{run}");
            let fallbacks = m.stats.counter_value("host0.csum.aligned_fallbacks");
            assert_eq!(fallbacks, 0, "{run}");
        }
    }
}

/// A socket buffer below one word could never take a single-copy write's
/// first chunk, which is a word multiple unless it is the write's tail
/// (§4.5). `setsockopt` refuses one with a typed error, and a write on a
/// socket created with one (a `StackConfig::sock_buf` default) fails the
/// same way, so the sender gives up at once instead of blocking until the
/// run drains.
#[test]
fn a_socket_buffer_below_a_word_is_refused() {
    let machine = MachineConfig::alpha_3000_400();
    let mut k = Kernel::new("h", machine, StackConfig::single_copy());
    let s = k.sys_socket(Proto::Tcp);
    for bytes in 0..MIN_SOCK_BUF {
        assert_eq!(k.sys_setsockbuf(s, bytes), Err(StackError::BufferTooSmall));
    }
    assert_eq!(k.sys_setsockbuf(s, MIN_SOCK_BUF), Ok(()));
    for sock_buf in [1, 3] {
        let mut cfg = sc_config(1000, 4000);
        cfg.stack.sock_buf = sock_buf;
        let m = run_ttcp(&cfg);
        let refused = matches!(
            m.outcome,
            Ok(RunOutcome::GaveUp { host: 0, at, error: StackError::BufferTooSmall })
                if at < Time::ZERO + Dur::millis(10)
        );
        assert!(refused, "buffer {sock_buf}: {:?}", m.outcome);
        assert_eq!(m.bytes, 0);
    }
    let mut cfg = sc_config(1000, 4000);
    cfg.stack.sock_buf = MIN_SOCK_BUF;
    let m = run_ttcp(&cfg);
    assert!(m.completed, "one word is enough: {:?}", m.outcome);
    assert_eq!((m.bytes, m.verify_errors), (4000, 0));
}

#[test]
fn odd_sized_writes_and_totals() {
    // Deliberately awkward: write size not a power of two, total not a
    // multiple of the write size, everything word-aligned but ragged.
    let cfg = sc_config(77 * 1024 + 4, 1_000_000);
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert_eq!(m.bytes, 1_000_000);
    assert_eq!(m.verify_errors, 0);
}

#[test]
fn every_data_packet_uses_outboard_checksum() {
    let cfg = sc_config(64 * 1024, 1024 * 1024);
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    let hw = m.stats.counter_value("host0.csum.hw");
    assert!(hw >= 16, "hw checksums: {hw}");
    let sw = m.stats.counter_value("host0.csum.sw");
    assert_eq!(sw, 0, "single-copy path must never Read_C");
}

#[test]
fn uio_descriptors_convert_to_wcab() {
    let cfg = sc_config(64 * 1024, 1024 * 1024);
    let mut w = build_ttcp_world(&cfg);
    w.run_until(Time::ZERO + Dur::secs(10));
    let s = &w.hosts[0].kernel.stats;
    assert!(s.uio_to_wcab >= 16, "conversions: {}", s.uio_to_wcab);
    // Pages were pinned and mapped in the socket layer.
    let vm = w.hosts[0].kernel.vm.stats();
    assert!(vm.pin_calls > 0 && vm.pages_pinned > 0);
    // Eager mode releases everything once the transfer is done.
    assert_eq!(
        w.hosts[0].kernel.vm.pinned_page_count(),
        0,
        "leaked pinned pages"
    );
}

#[test]
fn outboard_buffers_are_freed_on_both_sides() {
    let cfg = sc_config(128 * 1024, 2 * 1024 * 1024);
    let mut w = build_ttcp_world(&cfg);
    w.run_until(Time::ZERO + Dur::secs(20));
    for (host, side) in [(0usize, "sender"), (1usize, "receiver")] {
        let iface = &w.hosts[host].kernel.ifaces[0];
        if let outboard::stack::driver::IfaceKind::Cab(cab) = &iface.kind {
            assert_eq!(
                cab.cab.netmem().packet_count(),
                0,
                "{side} leaked outboard packets"
            );
            assert_eq!(
                cab.cab.netmem().pages_free(),
                cab.cab.netmem().pages_total(),
                "{side} leaked outboard pages"
            );
        } else {
            panic!("expected CAB iface");
        }
    }
}

#[test]
fn unmodified_stack_still_works_over_the_cab() {
    // Interoperability baseline: same device, traditional path.
    let mut cfg = sc_config(64 * 1024, 1024 * 1024);
    cfg.stack = StackConfig::unmodified();
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert_eq!(m.verify_errors, 0);
    assert_eq!(m.stats.counter_value("host0.csum.hw"), 0);
    assert!(m.stats.counter_value("host0.csum.sw") > 0);
}

#[test]
fn adaptive_path_switches_at_threshold() {
    // Below the 16 KB threshold the adaptive stack copies through kernel
    // buffers (software checksum); above, it goes single-copy.
    let mut small = ExperimentConfig::new(
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
        4 * 1024,
    );
    small.total_bytes = 256 * 1024;
    let m = run_ttcp(&small);
    assert!(m.completed);
    // In SingleCopy mode even copied data may use hw checksum insertion;
    // the real signal is the VM system: no pages pinned for small writes.
    let mut w = build_ttcp_world(&small);
    w.run_until(Time::ZERO + Dur::secs(5));
    assert_eq!(w.hosts[0].kernel.vm.stats().pages_pinned, 0);

    let mut big = small.clone();
    big.write_size = 64 * 1024;
    big.total_bytes = 1024 * 1024;
    let mut w = build_ttcp_world(&big);
    w.run_until(Time::ZERO + Dur::secs(5));
    assert!(w.hosts[0].kernel.vm.stats().pages_pinned > 0);
}

#[test]
fn misaligned_writes_fall_back_and_still_verify() {
    let mut cfg = sc_config(64 * 1024, 1024 * 1024);
    cfg.sender_misalign = 2;
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert_eq!(m.verify_errors, 0, "fallback path corrupted data");
    let mut w = build_ttcp_world(&cfg);
    w.run_until(Time::ZERO + Dur::secs(10));
    assert!(
        w.hosts[0].kernel.stats.aligned_fallbacks > 0,
        "misaligned buffer should hit the §4.5 fallback"
    );
}

#[test]
fn single_copy_stack_mode_is_observable() {
    let cfg = sc_config(64 * 1024, 512 * 1024);
    assert_eq!(cfg.stack.mode, StackMode::SingleCopy);
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    // Blocked-write semantics: one Wake per write → writes counted.
    assert_eq!(m.writes, 8);
}

#[test]
fn deterministic_across_runs() {
    let cfg = sc_config(32 * 1024, 1024 * 1024);
    let a = run_ttcp(&cfg);
    let b = run_ttcp(&cfg);
    assert_eq!(a.elapsed, b.elapsed, "simulation must be deterministic");
    assert_eq!(a.bytes, b.bytes);
    assert!((a.throughput_mbps - b.throughput_mbps).abs() < 1e-9);
}

/// Every frame of a fault-free single-copy transfer is the storage its
/// sending engine summed, so the receiving CAB reuses that body sum for
/// each one, in both directions; the unmodified stack never reads the
/// receive checksum at all.
#[test]
fn receive_checksums_reuse_the_senders_body_sum() {
    let mut unmodified = sc_config(64 * 1024, 1024 * 1024);
    unmodified.stack = StackConfig::unmodified();
    for (write_size, total) in [(64 * 1024, 1024 * 1024), (1024, 256 * 1024)] {
        let mut w = build_ttcp_world(&sc_config(write_size, total));
        w.run_until(Time::ZERO + Dur::secs(20));
        for host in 0..2 {
            let s = w.hosts[host].kernel.ifaces[0].cab().expect("CAB").cab.stats;
            assert_eq!(s.rx_csum_full, 0, "{write_size} B writes, host{host}");
            assert_eq!(
                s.rx_csum_reused, s.frames_rx,
                "{write_size} B writes, host{host}"
            );
        }
    }
    let mut w = build_ttcp_world(&unmodified);
    w.run_until(Time::ZERO + Dur::secs(20));
    for host in 0..2 {
        let s = w.hosts[host].kernel.ifaces[0].cab().expect("CAB").cab.stats;
        assert!(s.frames_rx > 0);
        assert_eq!(
            (s.rx_csum_reused, s.rx_csum_full),
            (0, 0),
            "unmodified host{host}"
        );
    }
}

/// No user page stays held once a run has settled: each hold ends exactly
/// once, and a page is unpinned when its last held byte is released, in
/// whatever pieces the bytes were pinned and consumed. While pins were
/// counted per call, each of these runs left pages pinned: the single-copy
/// Fig 5/6 points at 256 KB and 512 KB (their receivers' copy-outs, and at
/// 512 KB their senders' chunks, released per frame), a send buffer of
/// 100 003 bytes (segments that straddle its chunks), and the heavy fault
/// matrix (drops and resets that never released what they abandoned).
#[test]
fn no_run_leaves_a_user_page_held() {
    let sc = |machine: MachineConfig, write_size: usize, total: usize| {
        let mut cfg = sc_config(write_size, total);
        cfg.machine = machine;
        cfg.verify = false;
        cfg
    };
    let mut runs = Vec::new();
    for machine in [
        MachineConfig::alpha_3000_400(),
        MachineConfig::alpha_3000_300lx(),
    ] {
        for kb in [256, 512] {
            let cfg = sc(machine.clone(), kb * 1024, 16 * 1024 * 1024);
            runs.push((format!("{} {kb} KB", machine.name), cfg));
        }
    }
    let mut cfg = sc_config(64 * 1024, 256 * 1024);
    cfg.stack.sock_buf = 100_003;
    runs.push(("buffer 100 003, 64 KB writes".into(), cfg));
    for (write, seed) in [64 * 1024, 1000]
        .into_iter()
        .flat_map(|w| (0..4).map(move |s| (w, s)))
    {
        let mut cfg = sc_config(write, 1024 * 1024);
        cfg.seed = seed;
        (cfg.drop_p, cfg.corrupt_p, cfg.dup_p) = (0.05, 0.01, 0.01);
        cfg.cab_alloc_fail_p = 0.05;
        (cfg.cab_sdma_fail_p, cfg.cab_mdma_fail_p) = (0.02, 0.02);
        cfg.cab_wedge_p = 0.1;
        runs.push((format!("heavy matrix, {write} B writes, seed {seed}"), cfg));
    }
    for (what, cfg) in runs {
        let mut w = build_ttcp_world(&cfg);
        let m = run_ttcp_in(&mut w, &cfg);
        assert!(m.completed, "{what}: {:?}", m.outcome);
        let settled = w.now() + Dur::secs(5);
        w.run_until(settled);
        let held = held_page_violations(&w);
        assert!(held.is_empty(), "{what}: {held:?}");
    }
}
