//! Interoperability tests (§5 and §4.1): the modified stack must serve
//! conventional devices, user applications on any interface, loopback,
//! ICMP, and routing between interfaces — all through the *same* stack.

use outboard::host::{MachineConfig, TaskId};
use outboard::sim::{Dur, Time};
use outboard::stack::{Proto, SockAddr, StackConfig};
use outboard::testbed::apps::{TtcpReceiver, TtcpSender};
use outboard::testbed::{RunOutcome, World};
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);

fn eth_world() -> World {
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
    // 10 Mbit/s conventional Ethernet.
    w.connect_eth(a, IP_A, b, IP_B, 10e6, 5);
    w
}

#[test]
fn tcp_over_conventional_ethernet() {
    // The single-copy stack over a device with no outboard support: the
    // UIO->regular conversion layer at the driver entry (§5) makes it work.
    let mut w = eth_world();
    w.add_app(
        1,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 32 * 1024)),
        true,
    );
    w.add_app(
        0,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(IP_B, 5001),
            32 * 1024,
            256 * 1024,
        )),
        true,
    );
    let outcome = w.run_apps();
    assert_eq!(
        outcome,
        Ok(RunOutcome::Completed),
        "ethernet transfer stalled"
    );
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.bytes_read, 256 * 1024);
    assert_eq!(rx.verify_errors, 0);
    // Everything went through software checksums (no CAB on this path)...
    let s = &w.hosts[0].kernel.stats;
    assert!(s.sw_checksums > 0);
    assert_eq!(s.hw_checksums, 0);
    // ...and TCP segments were fragmented by IP to fit the 1500-byte MTU?
    // No: MSS derives from the connect-time route, so no fragmentation.
    assert_eq!(s.frags_sent, 0);
}

#[test]
fn loopback_transfer() {
    let mut w = World::new();
    let h = w.add_host(
        "solo",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let ip = Ipv4Addr::new(127, 0, 0, 1);
    let lo = w.hosts[h].kernel.add_loopback(ip);
    w.hosts[h].kernel.add_route(ip, 32, lo);
    w.add_app(
        h,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 64 * 1024)),
        false,
    );
    w.add_app(
        h,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(ip, 5001),
            64 * 1024,
            512 * 1024,
        )),
        true,
    );
    let outcome = w.run_apps();
    assert_eq!(outcome, Ok(RunOutcome::Completed), "loopback stalled");
    let rx = w.hosts[h].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.bytes_read, 512 * 1024);
    assert_eq!(rx.verify_errors, 0);
}

#[test]
fn udp_datagrams_over_cab_and_ethernet() {
    use outboard::stack::{ReadResult, WriteResult};
    // Hand-driven UDP exchange over the CAB: one datagram each way.
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
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    w.connect_cab(a, ip_a, b, ip_b, Dur::micros(5), 9);

    // Receiver socket on b.
    let (rx_sock, rx_task) = {
        let h = &mut w.hosts[b];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel.sys_bind(s, 7000).unwrap();
        h.mem.create_region(TaskId(20), 0x9000, 64 * 1024);
        (s, TaskId(20))
    };
    // Sender writes one 8 KB datagram (single-copy capable size).
    {
        let h = &mut w.hosts[a];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel
            .sys_connect_udp(s, SockAddr::new(ip_b, 7000))
            .unwrap();
        h.mem.create_region(TaskId(10), 0x4000, 64 * 1024);
        let data: Vec<u8> = (0..8192u32).map(|i| (i * 13) as u8).collect();
        use outboard::host::UserMemory;
        h.mem.write_user(TaskId(10), 0x4000, &data).unwrap();
        let (r, fx) = h
            .kernel
            .sys_write(s, TaskId(10), 0x4000, 8192, &mut h.mem, Time::ZERO)
            .unwrap();
        assert!(matches!(
            r,
            WriteResult::Blocked { .. } | WriteResult::Done { .. }
        ));
        let _ = h;
        w.apply_external_effects(a, fx);
    }
    w.run_until(Time::ZERO + Dur::millis(100));
    // Read it on b.
    {
        let now = w.now();
        let h = &mut w.hosts[b];
        let (r, _fx) = h
            .kernel
            .sys_read(rx_sock, rx_task, 0x9000, 64 * 1024, &mut h.mem, now)
            .unwrap();
        match r {
            ReadResult::Done { bytes } | ReadResult::BlockedDma { bytes } => {
                assert_eq!(bytes, 8192);
            }
            other => panic!("expected datagram, got {other:?}"),
        }
    }
}

#[test]
fn icmp_echo_through_the_stack() {
    // Ping b from a: build an echo request via the kernel's ICMP machinery
    // by injecting it at IP level through the in-kernel interface.
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
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    w.connect_cab(a, ip_a, b, ip_b, Dur::micros(5), 10);
    // Inject the request from a's kernel.
    let fx = {
        let h = &mut w.hosts[a];
        h.kernel
            .send_ping(ip_b, 0x42, 1, b"outboard ping", &mut h.mem, Time::ZERO)
    };
    w.apply_external_effects(a, fx);
    w.run_until(Time::ZERO + Dur::millis(50));
    assert_eq!(
        w.hosts[b].kernel.stats.icmp_echo_replies, 1,
        "b should reply to the echo request"
    );
    assert_eq!(
        w.hosts[a].kernel.stats.icmp_echo_replies, 0,
        "a receives a reply, not a request"
    );
    // a's kernel saw the reply arrive (rx_packets from b).
    assert!(w.hosts[a].kernel.stats.rx_packets >= 1);
}

#[test]
fn router_forwards_between_cab_and_ethernet() {
    // Three hosts: a --CAB-- r --ETH-- c. a sends TCP to c through r.
    let mut w = World::new();
    let a = w.add_host(
        "a",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let r = w.add_host(
        "r",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let c = w.add_host(
        "c",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let ip_a = Ipv4Addr::new(10, 0, 0, 1);
    let ip_r1 = Ipv4Addr::new(10, 0, 0, 254);
    let ip_r2 = Ipv4Addr::new(192, 168, 1, 254);
    let ip_c = Ipv4Addr::new(192, 168, 1, 3);
    let (if_a, _) = w.connect_cab(a, ip_a, r, ip_r1, Dur::micros(5), 21);
    let (_, if_c) = w.connect_eth(r, ip_r2, c, ip_c, 10e6, 22);
    // a routes everything via its CAB; ARP for the far subnet points at r.
    w.hosts[a].kernel.add_route(ip_c, 32, if_a);
    w.hosts[a].kernel.add_arp_hippi(if_a, ip_c, 2); // r's fabric address
                                                    // c routes back through r.
    w.hosts[c].kernel.add_route(ip_a, 32, if_c);
    use outboard::wire::ether::MacAddr;
    w.hosts[c]
        .kernel
        .add_arp_ether(if_c, ip_a, MacAddr::local((c as u8) * 2 + 1));
    // r: routes to c exist via connect_eth; ARP for the eth side of c too.

    w.add_app(
        c,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 16 * 1024)),
        true,
    );
    w.add_app(
        a,
        Box::new(TtcpSender::new(
            TaskId(1),
            SockAddr::new(ip_c, 5001),
            16 * 1024,
            128 * 1024,
        )),
        true,
    );
    let outcome = w.run_apps();
    assert_eq!(
        outcome,
        Ok(RunOutcome::Completed),
        "routed transfer stalled"
    );
    let rx = w.hosts[c].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.bytes_read, 128 * 1024);
    assert_eq!(rx.verify_errors, 0);
    // The router actually forwarded (it has no sockets of its own).
    assert!(w.hosts[r].kernel.stats.rx_packets > 0);
    assert!(w.hosts[r].kernel.stats.tx_packets > 0);
    // Fragmentation happened at the router: 32 KB-MSS segments onto a
    // 1500-byte Ethernet... no — MSS negotiation used the CAB MTU on a's
    // side but c advertised 1460, so the connection runs at 1460 and the
    // router forwards without fragmenting. Both behaviours are valid;
    // assert the invariant that c received everything intact (above).
}

/// Two simultaneous connections share one CAB: both make progress, data
/// stays intact per-connection, and the aggregate respects the adaptor's
/// SDMA limit (engines are a shared serial resource).
#[test]
fn two_connections_share_the_adaptor() {
    use outboard::sim::stats::mbps;
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
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    w.connect_cab(a, ip_a, b, ip_b, outboard::sim::Dur::micros(5), 61);
    let total = 2 * 1024 * 1024;
    w.add_app(
        b,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 64 * 1024)),
        true,
    );
    w.add_app(
        b,
        Box::new(TtcpReceiver::new(TaskId(4), 5002, 64 * 1024)),
        false,
    );
    let mut tx1 = TtcpSender::new(TaskId(1), SockAddr::new(ip_b, 5001), 64 * 1024, total);
    let mut tx2 = TtcpSender::new(TaskId(3), SockAddr::new(ip_b, 5002), 64 * 1024, total);
    // Separate user buffers.
    tx2.buf_vaddr = 0x50_0000;
    tx1.buf_vaddr = 0x10_0000;
    w.add_app(a, Box::new(tx1), true);
    w.add_app(a, Box::new(tx2), false);
    let outcome = w.run_apps();
    assert_eq!(outcome, Ok(RunOutcome::Completed), "a connection starved");
    let elapsed = w.now() - Time::ZERO;
    for idx in [0usize, 1] {
        let rx = w.hosts[b].apps[idx]
            .as_ref()
            .unwrap()
            .as_any()
            .downcast_ref::<TtcpReceiver>()
            .unwrap();
        assert_eq!(rx.bytes_read, total, "connection {idx} incomplete");
        assert_eq!(rx.verify_errors, 0, "connection {idx} corrupted");
    }
    // Aggregate throughput cannot exceed the adaptor's effective limit.
    let agg = mbps((2 * total) as u64, elapsed);
    assert!(agg < 160.0, "aggregate {agg} Mbit/s exceeds the SDMA limit");
    assert!(agg > 80.0, "aggregate {agg} Mbit/s suspiciously low");
}

/// Routed UDP with fragmentation: an 8 KB datagram rides one 32 KB CAB
/// frame to the router, which must fragment it onto the 1500-byte Ethernet;
/// the destination reassembles and delivers intact bytes.
#[test]
fn router_fragments_large_udp() {
    use outboard::host::UserMemory;
    use outboard::stack::{Proto, ReadResult, WriteResult};
    let mut w = World::new();
    let a = w.add_host(
        "a",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let r = w.add_host(
        "r",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let c = w.add_host(
        "c",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    let ip_a = Ipv4Addr::new(10, 0, 0, 1);
    let ip_r1 = Ipv4Addr::new(10, 0, 0, 254);
    let ip_r2 = Ipv4Addr::new(192, 168, 1, 254);
    let ip_c = Ipv4Addr::new(192, 168, 1, 3);
    let (if_a, _) = w.connect_cab(a, ip_a, r, ip_r1, Dur::micros(5), 81);
    let (_, if_c) = w.connect_eth(r, ip_r2, c, ip_c, 10e6, 82);
    w.hosts[a].kernel.add_route(ip_c, 32, if_a);
    w.hosts[a].kernel.add_arp_hippi(if_a, ip_c, 2);
    w.hosts[c].kernel.add_route(ip_a, 32, if_c);
    use outboard::wire::ether::MacAddr;
    w.hosts[c]
        .kernel
        .add_arp_ether(if_c, ip_a, MacAddr::local((r * 2 + 1) as u8));

    let rx_task = TaskId(30);
    let rx_sock = {
        let h = &mut w.hosts[c];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel.sys_bind(s, 7777).unwrap();
        h.mem.create_region(rx_task, 0x9000, 16 * 1024);
        s
    };
    let data: Vec<u8> = (0..8000u32).map(|i| (i * 5 + 2) as u8).collect();
    let fx = {
        let h = &mut w.hosts[a];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel
            .sys_connect_udp(s, SockAddr::new(ip_c, 7777))
            .unwrap();
        h.mem.create_region(TaskId(1), 0x4000, 16 * 1024);
        h.mem.write_user(TaskId(1), 0x4000, &data).unwrap();
        let (wr, fx) = h
            .kernel
            .sys_write(s, TaskId(1), 0x4000, 8000, &mut h.mem, Time::ZERO)
            .unwrap();
        assert!(matches!(
            wr,
            WriteResult::Blocked { .. } | WriteResult::Done { .. }
        ));
        fx
    };
    w.apply_external_effects(a, fx);
    w.run_until(Time::ZERO + Dur::millis(200));

    assert!(
        w.hosts[r].kernel.stats.frags_sent >= 5,
        "router must fragment the 8 KB datagram onto Ethernet: {}",
        w.hosts[r].kernel.stats.frags_sent
    );
    let now = w.now();
    let h = &mut w.hosts[c];
    let (rr, _fx) = h
        .kernel
        .sys_read(rx_sock, rx_task, 0x9000, 16 * 1024, &mut h.mem, now)
        .unwrap();
    match rr {
        ReadResult::Done { bytes } | ReadResult::BlockedDma { bytes } => assert_eq!(bytes, 8000),
        other => panic!("datagram lost: {other:?}"),
    }
    let mut buf = vec![0u8; 8000];
    h.mem.read_user(rx_task, 0x9000, &mut buf).unwrap();
    assert_eq!(buf, data, "routed+fragmented datagram corrupted");
}
