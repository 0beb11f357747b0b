//! Host byte touches that no byte-identity gate reaches (the behaviour
//! ledger, the stdout and trace goldens and `chaos --smoke` never run a UDP
//! copy-in, a conventional device, a forwarded outboard chain, a software
//! UDP verify or §4.5's unaligned gather fallback). Each test pins its
//! run's end time and the hosts' CPU busy nanoseconds exactly, so a charge
//! that moves (its bytes, its working set, its order) fails here.

use outboard::host::{MachineConfig, TaskId, UserMemory};
use outboard::sim::{Dur, Time};
use outboard::stack::{Proto, ReadResult, SockAddr, StackConfig};
use outboard::testbed::apps::{TtcpReceiver, TtcpSender};
use outboard::testbed::{run_ttcp, ExperimentConfig, RunOutcome, World};
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_C: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 3);

/// `a --CAB-- r --Ethernet-- c`, single-copy stacks: `r` forwards between
/// the two, copying outboard chains to its 10 Mbit/s Ethernet.
fn routed_world() -> World {
    let mut w = World::new();
    for name in ["a", "r", "c"] {
        w.add_host(
            name,
            MachineConfig::alpha_3000_400(),
            StackConfig::single_copy(),
        );
    }
    let (if_a, _) = w.connect_cab(0, IP_A, 1, Ipv4Addr::new(10, 0, 0, 254), Dur::micros(5), 21);
    let (_, if_c) = w.connect_eth(1, Ipv4Addr::new(192, 168, 1, 254), 2, IP_C, 10e6, 22);
    w.hosts[0].kernel.add_route(IP_C, 32, if_a);
    w.hosts[0].kernel.add_arp_hippi(if_a, IP_C, 2);
    w.hosts[2].kernel.add_route(IP_A, 32, if_c);
    let r_mac = outboard::wire::ether::MacAddr::local(3);
    w.hosts[2].kernel.add_arp_ether(if_c, IP_A, r_mac);
    w
}

/// The world's end time and each host's CPU busy time, in nanoseconds.
fn pins(w: &World) -> Vec<u64> {
    let mut v = vec![w.now().nanos()];
    v.extend(w.hosts.iter().map(|h| h.cpu.acct.busy.as_nanos()));
    v
}

/// TCP through the router: `a` sends single-copy over its CAB, `r`
/// flattens each received outboard chain and copies the frame to its
/// Ethernet, `c` copies frames in and verifies TCP in software.
#[test]
fn routed_tcp_charges_the_legacy_copies() {
    let mut w = routed_world();
    w.add_app(
        2,
        Box::new(TtcpReceiver::new(TaskId(2), 5001, 16 * 1024)),
        true,
    );
    let dst = SockAddr::new(IP_C, 5001);
    let sender = TtcpSender::new(TaskId(1), dst, 16 * 1024, 128 * 1024);
    w.add_app(0, Box::new(sender), true);
    assert_eq!(w.run_apps(), Ok(RunOutcome::Completed));
    assert!(w.hosts[1].kernel.stats.wcab_to_regular > 0);
    assert_eq!(pins(&w), [111_619_565, 26_135_400, 22_953_891, 37_440_970]);
}

/// One 8000-byte datagram through the router: the sub-threshold write is
/// copied in, `r` fragments it onto the Ethernet, `c` reassembles it,
/// verifies UDP in software and copies it out.
#[test]
fn routed_udp_charges_the_copy_in_and_the_software_verify() {
    let mut w = routed_world();
    let rx_task = TaskId(30);
    let rx_sock = {
        let h = &mut w.hosts[2];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel.sys_bind(s, 7777).unwrap();
        h.mem.create_region(rx_task, 0x9000, 16 * 1024);
        s
    };
    let data: Vec<u8> = (0..8000u32).map(|i| (i * 5 + 2) as u8).collect();
    let fx = {
        let h = &mut w.hosts[0];
        let s = h.kernel.sys_socket(Proto::Udp);
        h.kernel
            .sys_connect_udp(s, SockAddr::new(IP_C, 7777))
            .unwrap();
        h.mem.create_region(TaskId(1), 0x4000, 16 * 1024);
        h.mem.write_user(TaskId(1), 0x4000, &data).unwrap();
        let (_, fx) = h
            .kernel
            .sys_write(s, TaskId(1), 0x4000, 8000, &mut h.mem, Time::ZERO)
            .unwrap();
        fx
    };
    w.apply_external_effects(0, fx);
    w.run_until(Time::ZERO + Dur::millis(200));
    let now = w.now();
    let h = &mut w.hosts[2];
    let (r, fx) = h
        .kernel
        .sys_read(rx_sock, rx_task, 0x9000, 16 * 1024, &mut h.mem, now)
        .unwrap();
    assert_eq!(r, ReadResult::Done { bytes: 8000 });
    w.apply_external_effects(2, fx);
    w.run_until(now + Dur::millis(200));
    assert!(w.hosts[2].kernel.stats.frags_reassembled > 0);
    assert_eq!(pins(&w), [7_501_952, 312_222, 616_909, 939_904]);
}

/// §4.5's align-split write from a misaligned buffer over a lossy link: a
/// retransmission that starts at the copied fragment ends its first
/// segment off a word boundary of the user buffer, so the next segment's
/// user bytes take the driver's unaligned gather fallback, a CPU copy.
#[test]
fn an_unaligned_gather_charges_its_copy_in() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    stack.align_split = true;
    stack.sock_buf = 128 * 1024;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = 512 * 1024;
    cfg.sender_misalign = 2;
    cfg.drop_p = 0.05;
    cfg.seed = 3;
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert_eq!(m.verify_errors, 0);
    assert!(m.stats.counter_value("host0.csum.aligned_fallbacks") > 0);
    let busy = |h: usize| m.stats.counter_value(&format!("host{h}.cpu.busy_ns"));
    let pins = [m.elapsed.as_nanos(), busy(0), busy(1)];
    assert_eq!(pins, [42_916_790, 14_713_188, 17_228_488]);
}
