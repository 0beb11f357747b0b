//! Deeper protocol-behaviour tests: the §4.1 mid-connection interface
//! switch, zero-window flow control, partial reads splitting outboard
//! descriptors, and the CPU-accounting methodology.

use outboard::host::{MachineConfig, TaskId, UserMemory};
use outboard::sim::{Dur, Time};
use outboard::stack::{SockAddr, StackConfig};
use outboard::testbed::apps::{ttcp_pattern, TtcpReceiver, TtcpSender};
use outboard::testbed::{RunOutcome, World};
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// §4.1: "it is possible for the interface that is used for a given
/// destination to change over time" — the reason a single stack exists.
/// Start a transfer over the CAB, then re-point the route at a
/// conventional Ethernet mid-connection. The driver's conversion layer
/// (M_UIO/M_WCAB → regular) and IP fragmentation (32 KB segments onto a
/// 1500-byte MTU) must carry the connection to completion.
#[test]
fn mid_connection_interface_switch() {
    let mut w = World::new();
    let a = w.add_host(
        "a",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let b = w.add_host(
        "b",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let (_cab_a, _cab_b) = w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 31);
    // A parallel Ethernet between the same hosts, with *different* IPs so
    // connect_eth's routes don't clobber the CAB ones.
    let (eth_a, eth_b) = w.connect_eth(
        a,
        Ipv4Addr::new(192, 168, 0, 1),
        b,
        Ipv4Addr::new(192, 168, 0, 2),
        10e6,
        32,
    );
    // b must also accept IP_B traffic arriving over Ethernet: its eth iface
    // is a different IP, but ip_input accepts any local iface IP. Give b a
    // return route for IP_A via Ethernet only after the switch (below).

    w.add_app(
        b,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 64 * 1024)),
        true,
    );
    w.add_app(
        a,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(IP_B, 5001),
            64 * 1024,
            1024 * 1024,
        )),
        true,
    );
    // Let roughly a third of the transfer happen over the CAB.
    w.run_until(Time::ZERO + Dur::millis(30));
    assert!(
        !w.every_app_finished(),
        "transfer should still be in flight"
    );

    // The switch: IP_B now routes over Ethernet on a; IP_A over Ethernet
    // on b. ARP entries for the cross-subnet addresses.
    use outboard::wire::ether::MacAddr;
    w.hosts[a].kernel.routes.clear();
    w.hosts[a].kernel.add_route(IP_B, 32, eth_a);
    w.hosts[a]
        .kernel
        .add_arp_ether(eth_a, IP_B, MacAddr::local((b * 2 + 2) as u8));
    w.hosts[b].kernel.routes.clear();
    w.hosts[b].kernel.add_route(IP_A, 32, eth_b);
    w.hosts[b]
        .kernel
        .add_arp_ether(eth_b, IP_A, MacAddr::local((a * 2 + 1) as u8));

    // 1 MB over 10 Mbit/s needs ~1 s; allow slack for retransmission of
    // anything lost in the switch window.
    let outcome = w.run_apps();
    assert_eq!(outcome, Ok(RunOutcome::Completed), "interface switch");
    let rx = w.hosts[b].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.bytes_read, 1024 * 1024);
    assert_eq!(rx.verify_errors, 0, "switch corrupted the stream");
    let s = &w.hosts[a].kernel.stats;
    assert!(s.hw_checksums > 0, "first phase used the CAB");
    assert!(s.sw_checksums > 0, "second phase used software checksums");
    assert!(
        s.frags_sent > 0,
        "32 KB-MSS segments must fragment onto the 1500-byte MTU"
    );
    assert!(
        s.uio_to_regular > 0 || s.wcab_to_regular > 0,
        "the conversion layer must have run at the Ethernet driver"
    );
}

/// Zero-window flow control: a receiver that accepts but does not read
/// closes the window; the sender stalls, then resumes as reads drain the
/// buffer (window updates + probes).
#[test]
fn zero_window_stall_and_recovery() {
    use outboard::stack::{Proto, ReadResult};
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut w = World::new();
    let a = w.add_host("a", MachineConfig::alpha_3000_400(), stack.clone());
    let b = w.add_host("b", MachineConfig::alpha_3000_400(), stack);
    w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 41);

    // Hand-rolled listener on b that never reads (yet).
    let listener = {
        let h = &mut w.hosts[b];
        let s = h.kernel.sys_socket(Proto::Tcp);
        h.kernel.sys_bind(s, 5001).unwrap();
        h.kernel.sys_listen(s).unwrap();
        s
    };
    w.add_app(
        a,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(IP_B, 5001),
            128 * 1024,
            2 * 1024 * 1024, // 4x the 512 KB window: must stall
        )),
        true,
    );
    // Run until the sender is fully stalled against the closed window.
    w.run_until(Time::ZERO + Dur::millis(200));
    let conn = {
        let h = &mut w.hosts[b];
        h.kernel
            .sys_accept(listener, TaskId(2))
            .unwrap()
            .expect("connection established")
    };
    {
        let s = w.hosts[b].kernel.socket_ref(conn).unwrap();
        assert_eq!(s.so_rcv.space(), 0, "receive buffer must be full");
    }
    let tx_done_before = w.hosts[0].apps[0].as_ref().unwrap().finished();
    assert!(
        !tx_done_before,
        "sender cannot finish against a closed window"
    );

    // Drain by reading; each read frees space and advertises a new window.
    let rx_task = TaskId(2);
    w.hosts[b].mem.create_region(rx_task, 0x9000, 64 * 1024);
    let mut got = 0usize;
    let mut pending: Option<usize> = None;
    for _ in 0..4000 {
        if got >= 2 * 1024 * 1024 {
            break;
        }
        if let Some(bytes) = pending.take() {
            got += bytes;
        }
        let now = w.now();
        let res = {
            let h = &mut w.hosts[b];
            h.kernel
                .sys_read(conn, rx_task, 0x9000, 64 * 1024, &mut h.mem, now)
        };
        match res {
            Ok((r, fx)) => {
                w.apply_external_effects(b, fx);
                match r {
                    ReadResult::Done { bytes } => got += bytes,
                    ReadResult::BlockedDma { bytes } => {
                        pending = Some(bytes);
                    }
                    ReadResult::WouldBlock => {}
                    ReadResult::Eof => break,
                }
            }
            Err(outboard::stack::StackError::InvalidState(_)) => {
                // Copy-out DMA still in flight; give it time below.
                assert!(pending.is_some());
            }
            Err(e) => panic!("read failed: {e}"),
        }
        // Let DMAs, ACKs and the sender's refills progress (a 64 KB
        // copy-out takes ~3.5 ms at the SDMA rate).
        w.run_until(w.now() + Dur::millis(10));
    }
    assert_eq!(got, 2 * 1024 * 1024, "drain incomplete");
    let ok = w.run_while(Time::ZERO + Dur::secs(120), |w| {
        !w.hosts[0].apps[0]
            .as_ref()
            .map(|ap| ap.finished())
            .unwrap_or(true)
    });
    assert!(ok, "sender never finished after the window reopened");
}

/// Partial reads split outboard descriptors: read a 24 KB segment's worth
/// of data in ragged 5000-byte chunks; every chunk must verify.
#[test]
fn ragged_partial_reads() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut w = World::new();
    let a = w.add_host("a", MachineConfig::alpha_3000_400(), stack.clone());
    let b = w.add_host("b", MachineConfig::alpha_3000_400(), stack);
    w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 43);
    // Receiver reads in 5000-byte chunks (not word-multiple, so some
    // copy-outs land on unaligned user addresses -> §4.5 kernel-bounce).
    w.add_app(b, Box::new(TtcpReceiver::new(TaskId(2), 5001, 5000)), true);
    w.add_app(
        a,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(IP_B, 5001),
            24 * 1024,
            480 * 1024,
        )),
        true,
    );
    let outcome = w.run_apps();
    assert_eq!(outcome, Ok(RunOutcome::Completed), "ragged reads");
    let rx = w.hosts[b].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.bytes_read, 480 * 1024);
    assert_eq!(rx.verify_errors, 0);
    assert!(rx.reads >= 480 * 1024 / 5000, "reads actually split");
}

/// The §7.1 accounting methodology end to end: busy time splits into
/// ttcp(user)+ttcp(sys)+util(sys) and utilization is their share of
/// non-background time.
#[test]
fn cpu_accounting_follows_the_papers_formula() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut w = World::new();
    let a = w.add_host("a", MachineConfig::alpha_3000_400(), stack.clone());
    let b = w.add_host("b", MachineConfig::alpha_3000_400(), stack);
    w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 47);
    w.add_app(
        b,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 64 * 1024)),
        true,
    );
    w.add_app(
        a,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(IP_B, 5001),
            64 * 1024,
            1024 * 1024,
        )),
        true,
    );
    let outcome = w.run_apps();
    assert_eq!(outcome, Ok(RunOutcome::Completed));
    let elapsed = w.now() - Time::ZERO;
    let acct = w.hosts[a].cpu.acct;
    // All three buckets were exercised.
    assert!(acct.ttcp_user.as_nanos() > 0, "user loop time");
    assert!(acct.ttcp_sys.as_nanos() > 0, "syscall time");
    assert!(
        acct.util_sys.as_nanos() > 0,
        "interrupts while ttcp blocked"
    );
    assert_eq!(
        acct.busy,
        acct.ttcp_user + acct.ttcp_sys + acct.util_sys,
        "every charged cycle lands in exactly one bucket"
    );
    // Utilization matches the formula by hand.
    let comm = (acct.ttcp_user + acct.ttcp_sys + acct.util_sys).as_secs_f64();
    let avail = elapsed.as_secs_f64() * (1.0 - 0.075);
    let expect = comm / (comm + (avail - comm).max(0.0));
    let got = acct.utilization(elapsed, 0.075);
    assert!((got - expect).abs() < 1e-12);
    // Sanity: pattern function is pure.
    assert_eq!(ttcp_pattern(0), ttcp_pattern(0));
}

/// The receive path honours word alignment of the *destination* too: an
/// odd-offset user buffer still gets correct data via the kernel bounce.
#[test]
fn unaligned_receive_buffer() {
    // Hand-driven: send one 8 KB UDP datagram, read into vaddr % 4 != 0.
    use outboard::stack::{Proto, ReadResult, WriteResult};
    let mut w = World::new();
    let a = w.add_host(
        "a",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let b = w.add_host(
        "b",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 53);
    let rx_task = TaskId(20);
    let rx_sock = {
        let h = &mut w.hosts[b];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel.sys_bind(s, 9000).unwrap();
        h.mem.create_region(rx_task, 0x9000, 32 * 1024);
        s
    };
    let data: Vec<u8> = (0..8192u32).map(|i| (i ^ 0xA5) as u8).collect();
    let fx = {
        let h = &mut w.hosts[a];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel
            .sys_connect_udp(s, SockAddr::new(IP_B, 9000))
            .unwrap();
        h.mem.create_region(TaskId(1), 0x4000, 32 * 1024);
        h.mem.write_user(TaskId(1), 0x4000, &data).unwrap();
        let (r, fx) = h
            .kernel
            .sys_write(s, TaskId(1), 0x4000, 8192, &mut h.mem, Time::ZERO)
            .unwrap();
        assert!(matches!(
            r,
            WriteResult::Blocked { .. } | WriteResult::Done { .. }
        ));
        fx
    };
    w.apply_external_effects(a, fx);
    w.run_until(Time::ZERO + Dur::millis(100));

    let now = w.now();
    let dst = 0x9000 + 2; // deliberately unaligned
    let (r, fx) = {
        let h = &mut w.hosts[b];
        h.kernel
            .sys_read(rx_sock, rx_task, dst, 32 * 1024 - 2, &mut h.mem, now)
            .unwrap()
    };
    w.apply_external_effects(b, fx);
    w.run_until(w.now() + Dur::millis(50));
    match r {
        ReadResult::Done { bytes } | ReadResult::BlockedDma { bytes } => assert_eq!(bytes, 8192),
        other => panic!("{other:?}"),
    }
    let mut buf = vec![0u8; 8192];
    w.hosts[b].mem.read_user(rx_task, dst, &mut buf).unwrap();
    assert_eq!(buf, data, "unaligned receive corrupted data");
    assert!(w.hosts[b].kernel.stats.aligned_fallbacks > 0);
}

/// The §4.5 align-split extension (the paper's "we have not implemented
/// this optimization"): a misaligned large write sends a short copied
/// fragment to realign and DMAs the rest — recovering most of the
/// single-copy efficiency a misaligned buffer would otherwise lose.
#[test]
fn align_split_extension_recovers_efficiency() {
    use outboard::testbed::{run_ttcp, ExperimentConfig};
    let mk = |align_split: bool| {
        let mut stack = StackConfig::single_copy();
        stack.force_single_copy = true;
        stack.align_split = align_split;
        // Large writes: the paper expects the split to "pay off for very
        // large writes" (the extra short packet amortizes).
        let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 256 * 1024);
        cfg.total_bytes = 4 * 1024 * 1024;
        cfg.sender_misalign = 2;
        run_ttcp(&cfg)
    };
    let fallback = mk(false);
    let split = mk(true);
    assert!(fallback.completed && split.completed);
    assert_eq!(fallback.verify_errors, 0);
    assert_eq!(split.verify_errors, 0, "align-split corrupted the stream");
    assert!(
        split.sender_efficiency_mbps > fallback.sender_efficiency_mbps * 1.2,
        "align-split {:.0} should beat the copy fallback {:.0}",
        split.sender_efficiency_mbps,
        fallback.sender_efficiency_mbps
    );
    // Mechanism check: the extension actually ran.
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    stack.align_split = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = 512 * 1024;
    cfg.sender_misalign = 2;
    let mut w = outboard::testbed::experiment::build_ttcp_world(&cfg);
    w.run_until(Time::ZERO + Dur::secs(10));
    assert!(w.hosts[0].kernel.stats.align_splits > 0);
    assert_eq!(w.hosts[0].kernel.stats.aligned_fallbacks, 0);
}

/// One listener, several sequential connections: the accept queue and
/// teardown must not leak sockets, ports, counters, or outboard memory.
#[test]
fn sequential_connections_do_not_leak() {
    use outboard::testbed::apps::{TtcpReceiver, TtcpSender};
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut w = World::new();
    let a = w.add_host("a", MachineConfig::alpha_3000_400(), stack.clone());
    let b = w.add_host("b", MachineConfig::alpha_3000_400(), stack);
    w.connect_cab(a, IP_A, b, IP_B, Dur::micros(5), 71);
    for round in 0..5u32 {
        let rx_task = TaskId(100 + round * 2);
        let tx_task = TaskId(101 + round * 2);
        let port = 6000 + round as u16;
        w.add_app(
            b,
            Box::new(TtcpReceiver::new(rx_task, port, 64 * 1024)),
            false,
        );
        w.add_app(
            a,
            Box::new(TtcpSender::new(
                tx_task,
                SockAddr::new(IP_B, port),
                64 * 1024,
                256 * 1024,
            )),
            false,
        );
        let outcome = w.run_apps();
        assert_eq!(outcome, Ok(RunOutcome::Completed), "round {round} stalled");
    }
    // Give TIME_WAIT holds a moment to expire, then check for leaks.
    let end = w.now() + Dur::secs(3);
    w.run_until(end);
    for (h, side) in [(a, "sender"), (b, "receiver")] {
        if let outboard::stack::driver::IfaceKind::Cab(cab) = &w.hosts[h].kernel.ifaces[0].kind {
            assert_eq!(
                cab.cab.netmem().packet_count(),
                0,
                "{side}: outboard buffers leaked after 5 connections"
            );
            assert_eq!(cab.pending_count(), 0, "{side}: SDMA tokens leaked");
        }
        assert_eq!(
            w.hosts[h].kernel.vm.pinned_page_count(),
            0,
            "{side}: pinned pages leaked"
        );
    }
}

/// Net/2 keeps one retransmit callout per connection and resets it on each
/// ACK; the world keeps one queued wakeup per timer the same way, so a
/// steady transfer holds a handful of pending events however many ACKs it
/// sees.
#[test]
fn pending_events_stay_bounded_through_a_transfer() {
    use outboard::testbed::experiment::build_ttcp_world;
    use outboard::testbed::ExperimentConfig;

    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 1024);
    cfg.total_bytes = 256 * 1024;
    let mut w = build_ttcp_world(&cfg);
    let mut max_pending = 0;
    let done = w.run_while(Time::ZERO + Dur::secs(60), |w| {
        max_pending = max_pending.max(w.pending_events());
        !w.every_app_finished()
    });
    assert!(done, "transfer stalled");
    assert!(
        max_pending <= 16,
        "{max_pending} events pending at once during a one-connection transfer"
    );
}
