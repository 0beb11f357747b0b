//! Kernel unit tests: syscall error paths, socket lifecycle, loopback
//! traffic, and stats — exercised against a single kernel with a manual
//! effect pump (no testbed).

use super::*;
use crate::driver::{MdmaJob, PendingTx};
use crate::tcp::TcpState;
use crate::types::{
    Effect, IfaceId, Proto, ReadResult, SockAddr, StackError, TimerKind, WriteResult,
};
use outboard_cab::{CabError, SdmaTx, SgEntry};
use outboard_host::{HostMem, MachineConfig, UserMemory};
use outboard_mbuf::TaskId;
use outboard_sim::{Dur, Time};
use std::net::Ipv4Addr;

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

struct Rig {
    k: Kernel,
    mem: HostMem,
    now: Time,
    /// Wakes observed while pumping.
    wakes: Vec<TaskId>,
}

impl Rig {
    fn loopback(cfg: StackConfig) -> Rig {
        let mut k = Kernel::new("rig", MachineConfig::alpha_3000_400(), cfg);
        let lo = k.add_loopback(LO);
        k.add_route(LO, 32, lo);
        Rig {
            k,
            mem: HostMem::new(),
            now: Time::ZERO,
            wakes: Vec::new(),
        }
    }

    /// Interpret effects: re-inject loopback frames, fire timers late,
    /// record wakes. Loops until quiescent.
    fn pump(&mut self, fx: Vec<Effect>) {
        self.pump_holding(fx, |_| false);
    }

    /// [`Rig::pump`], except that the timers `hold` selects stay unfired
    /// and are returned.
    fn pump_holding(
        &mut self,
        mut fx: Vec<Effect>,
        hold: impl Fn(TimerKind) -> bool,
    ) -> Vec<(Time, TimerKind)> {
        let (mut timers, mut held) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            let mut next = Vec::new();
            for e in fx {
                match e {
                    Effect::Loop { iface, frame } => {
                        self.now += Dur::micros(1);
                        next.extend(self.k.frame_arrive(iface, frame, &mut self.mem, self.now));
                    }
                    Effect::Wake { task, .. } => self.wakes.push(task),
                    Effect::Timer { after, kind } if hold(kind) => {
                        held.push((self.now + after, kind));
                    }
                    Effect::Timer { after, kind } => timers.push((self.now + after, kind)),
                    Effect::Cpu { .. } | Effect::Cab { .. } | Effect::EthTx { .. } => {}
                    Effect::KernelReady { .. } => {}
                }
            }
            if next.is_empty() {
                // Fire due (or all pending) timers once traffic quiesces:
                // delayed ACKs keep the loopback handshake moving.
                if let Some((at, kind)) = timers.pop() {
                    self.now = self.now.max(at);
                    next = self.k.timer_fire(kind, &mut self.mem, self.now);
                } else {
                    return held;
                }
            }
            fx = next;
        }
        panic!("pump did not quiesce");
    }

    /// A CAB interface beside the loopback (its own board, no peer).
    fn add_cab(&mut self) -> IfaceId {
        let cab = Cab::new(1, outboard_cab::CabConfig::default());
        self.k
            .add_cab_iface(Ipv4Addr::new(10, 0, 0, 1), cab, 65_280)
    }
}

fn established_loopback_pair(rig: &mut Rig) -> (crate::types::SockId, crate::types::SockId) {
    let l = rig.k.sys_socket(Proto::Tcp);
    rig.k.sys_bind(l, 80).unwrap();
    rig.k.sys_listen(l).unwrap();
    let c = rig.k.sys_socket(Proto::Tcp);
    let fx = rig
        .k
        .sys_connect(c, TaskId(1), SockAddr::new(LO, 80), &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    let child = rig
        .k
        .sys_accept(l, TaskId(2))
        .unwrap()
        .expect("loopback handshake completed");
    (c, child)
}

#[test]
fn bind_conflicts_are_rejected() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let a = rig.k.sys_socket(Proto::Tcp);
    let b = rig.k.sys_socket(Proto::Tcp);
    rig.k.sys_bind(a, 80).unwrap();
    assert_eq!(rig.k.sys_bind(b, 80), Err(StackError::AddrInUse));
    // Different proto: fine.
    let u = rig.k.sys_socket(Proto::Udp);
    assert!(rig.k.sys_bind(u, 80).is_ok());
}

#[test]
fn listen_requires_tcp() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let u = rig.k.sys_socket(Proto::Udp);
    assert!(matches!(
        rig.k.sys_listen(u),
        Err(StackError::InvalidState(_))
    ));
}

#[test]
fn connect_without_route_fails() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = rig.k.sys_socket(Proto::Tcp);
    let err = rig
        .k
        .sys_connect(
            c,
            TaskId(1),
            SockAddr::new(Ipv4Addr::new(8, 8, 8, 8), 53),
            &mut rig.mem,
            Time::ZERO,
        )
        .unwrap_err();
    assert_eq!(err, StackError::NoRoute);
}

#[test]
fn bad_socket_ids_error() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let bogus = crate::types::SockId(999);
    assert_eq!(rig.k.sys_bind(bogus, 1), Err(StackError::BadSocket));
    assert!(rig
        .k
        .sys_write(bogus, TaskId(1), 0, 10, &mut rig.mem, Time::ZERO)
        .is_err());
    assert!(rig
        .k
        .sys_read(bogus, TaskId(1), 0, 10, &mut rig.mem, Time::ZERO)
        .is_err());
}

#[test]
fn write_before_connect_fails() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = rig.k.sys_socket(Proto::Tcp);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    assert_eq!(
        rig.k
            .sys_write(c, TaskId(1), 0x1000, 10, &mut rig.mem, Time::ZERO)
            .unwrap_err(),
        StackError::NotConnected
    );
}

#[test]
fn loopback_tcp_round_trip() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, child) = established_loopback_pair(&mut rig);

    rig.mem.create_region(TaskId(1), 0x1000, 8192);
    let data: Vec<u8> = (0..5000u32).map(|i| (i * 3) as u8).collect();
    rig.mem.write_user(TaskId(1), 0x1000, &data).unwrap();
    let (r, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 5000, &mut rig.mem, rig.now)
        .unwrap();
    // A non-single-copy interface takes the traditional path: the write
    // completes as soon as the copy into kernel mbufs is done.
    assert_eq!(r, WriteResult::Done { bytes: 5000 });
    rig.pump(fx);

    rig.mem.create_region(TaskId(2), 0x9000, 8192);
    let (r, _fx) = rig
        .k
        .sys_read(child, TaskId(2), 0x9000, 8192, &mut rig.mem, rig.now)
        .unwrap();
    match r {
        ReadResult::Done { bytes } => assert_eq!(bytes, 5000),
        other => panic!("loopback data not delivered: {other:?}"),
    }
    let mut buf = vec![0u8; 5000];
    rig.mem.read_user(TaskId(2), 0x9000, &mut buf).unwrap();
    assert_eq!(buf, data);
    // Loopback path never touched a checksum engine...
    assert_eq!(rig.k.stats.hw_checksums, 0);
    // ...and never built M_UIO descriptors either: the socket layer sees a
    // non-single-copy interface and copies through kernel mbufs (§4.4.3).
    assert_eq!(rig.k.stats.uio_to_wcab, 0);
    assert_eq!(rig.k.mbuf_stats.uio_allocs, 0);
}

#[test]
fn loopback_udp_datagram() {
    let mut rig = Rig::loopback(StackConfig::unmodified());
    let srv = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_bind(srv, 9000).unwrap();
    let cli = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_connect_udp(cli, SockAddr::new(LO, 9000)).unwrap();
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    rig.mem
        .write_user(TaskId(1), 0x1000, b"hello dgram")
        .unwrap();
    let (r, fx) = rig
        .k
        .sys_write(cli, TaskId(1), 0x1000, 11, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, WriteResult::Done { bytes: 11 });
    rig.pump(fx);
    rig.mem.create_region(TaskId(2), 0x9000, 4096);
    let (r, _) = rig
        .k
        .sys_read(srv, TaskId(2), 0x9000, 4096, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, ReadResult::Done { bytes: 11 });
    let mut buf = [0u8; 11];
    rig.mem.read_user(TaskId(2), 0x9000, &mut buf).unwrap();
    assert_eq!(&buf, b"hello dgram");
}

#[test]
fn read_on_empty_socket_registers_waiter_and_wakes() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(2), 0x9000, 4096);
    let (r, _) = rig
        .k
        .sys_read(child, TaskId(2), 0x9000, 4096, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, ReadResult::WouldBlock);
    // Data arrives -> the waiting reader is woken.
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    rig.mem.write_user(TaskId(1), 0x1000, &[7u8; 100]).unwrap();
    let (_, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    assert!(
        rig.wakes.contains(&TaskId(2)),
        "reader not woken: {:?}",
        rig.wakes
    );
}

#[test]
fn close_tears_down_after_fin_handshake() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, child) = established_loopback_pair(&mut rig);
    let fx = rig.k.sys_close(c, &mut rig.mem, rig.now);
    rig.pump(fx);
    // The child sees EOF.
    rig.mem.create_region(TaskId(2), 0x9000, 64);
    let (r, _) = rig
        .k
        .sys_read(child, TaskId(2), 0x9000, 64, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, ReadResult::Eof);
    let fx = rig.k.sys_close(child, &mut rig.mem, rig.now);
    rig.pump(fx);
    // The closing side lingers in TIME_WAIT; the passive closer is gone.
    assert!(rig.k.socket_ref(child).is_none(), "LAST_ACK side torn down");
}

#[test]
fn syn_to_closed_port_gets_rst() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = rig.k.sys_socket(Proto::Tcp);
    let fx = rig
        .k
        .sys_connect(c, TaskId(1), SockAddr::new(LO, 4444), &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    assert!(rig.k.stats.rst_sent > 0, "no RST for refused connection");
    // The connecting socket collapsed back to Closed.
    let s = rig.k.socket_ref(c);
    assert!(s.is_none() || s.unwrap().tcb.as_ref().unwrap().state == crate::tcp::TcpState::Closed);
}

#[test]
fn udp_message_too_big() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let cli = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_connect_udp(cli, SockAddr::new(LO, 9000)).unwrap();
    rig.mem.create_region(TaskId(1), 0x1000, 70_000);
    assert_eq!(
        rig.k
            .sys_write(cli, TaskId(1), 0x1000, 66_000, &mut rig.mem, rig.now)
            .unwrap_err(),
        StackError::MessageTooBig
    );
}

#[test]
fn concurrent_writes_are_rejected() {
    // Two outstanding writes on one socket is a caller bug in this model
    // (one process per socket); surfaced as InvalidState, not corruption.
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, _child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(1), 0x1000, 1 << 20);
    // Fill the socket buffer so a write stays blocked.
    let big = rig.k.cfg.sock_buf + 4096;
    let data = vec![1u8; big];
    rig.mem.region_mut(TaskId(1)).unwrap()[..big].copy_from_slice(&data);
    let (r, _fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, big, &mut rig.mem, rig.now)
        .unwrap();
    if matches!(r, WriteResult::Blocked { .. }) {
        assert!(matches!(
            rig.k
                .sys_write(c, TaskId(1), 0x1000, 10, &mut rig.mem, rig.now)
                .unwrap_err(),
            StackError::InvalidState(_)
        ));
    }
}

#[test]
fn accept_queue_and_acceptor_registration() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let l = rig.k.sys_socket(Proto::Tcp);
    rig.k.sys_bind(l, 80).unwrap();
    rig.k.sys_listen(l).unwrap();
    // No pending connection: registers the acceptor.
    assert_eq!(rig.k.sys_accept(l, TaskId(5)).unwrap(), None);
    let c = rig.k.sys_socket(Proto::Tcp);
    let fx = rig
        .k
        .sys_connect(c, TaskId(1), SockAddr::new(LO, 80), &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    assert!(rig.wakes.contains(&TaskId(5)), "acceptor woken");
    assert!(rig.k.sys_accept(l, TaskId(5)).unwrap().is_some());
}

#[test]
fn window_probe_is_an_emitted_segment() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, _child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    // Leave the write's segment unpumped: its data stays unacknowledged.
    let (r, _fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, WriteResult::Done { bytes: 100 });
    let s = rig.k.sockets.get_mut(c).unwrap();
    s.tcb.as_mut().unwrap().snd_wnd = 0;
    assert!(s.rexmt_armed, "unacknowledged data arms the rexmt timer");
    let (segs, rexmits) = (rig.k.stats.tcp_segs_out, rig.k.stats.tcp_retransmit_segs);
    let fx = rig.k.timer_fire(
        TimerKind::TcpRexmt { sock: c },
        &mut rig.mem,
        rig.now + Dur::secs(1),
    );
    assert!(
        fx.iter().any(|e| matches!(e, Effect::Loop { .. })),
        "the closed window is probed"
    );
    assert_eq!(
        rig.k.stats.tcp_segs_out,
        segs + 1,
        "the probe is a segment out"
    );
    assert_eq!(rig.k.stats.tcp_retransmit_segs, rexmits + 1);
}

// ----------------------------------------------------------------------
// timers: the table delivers a timer's latest arm, the armed state decides
// ----------------------------------------------------------------------

#[test]
fn time_wait_expires_after_a_retransmitted_fin() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, child) = established_loopback_pair(&mut rig);
    let fx = rig.k.sys_close(c, &mut rig.mem, rig.now);
    rig.pump(fx);
    let fx = rig.k.sys_close(child, &mut rig.mem, rig.now);
    let (iface, fin) = fx
        .iter()
        .find_map(|e| match e {
            Effect::Loop { iface, frame } => Some((*iface, frame.clone())),
            _ => None,
        })
        .expect("the passive closer sends its FIN");
    let expiry = TimerKind::TcpTimeWait { sock: c };
    let held = rig.pump_holding(fx, |kind| kind == expiry);
    let tcb = rig.k.socket_ref(c).and_then(|s| s.tcb.as_ref());
    assert_eq!(tcb.map(|t| t.state), Some(TcpState::TimeWait));
    let [(at, _)] = held[..] else {
        panic!("entering TIME_WAIT arms the expiry once: {held:?}");
    };
    // The peer's FIN again, as if our ACK were lost: TIME_WAIT re-ACKs it
    // (and that re-ACK is lost too), then the expiry tears the socket down.
    let fx = rig.k.frame_arrive(iface, fin, &mut rig.mem, rig.now);
    assert!(fx.iter().any(|e| matches!(e, Effect::Loop { .. })));
    rig.k.timer_fire(expiry, &mut rig.mem, at);
    assert!(rig.k.socket_ref(c).is_none(), "TIME_WAIT expired");
}

#[test]
fn rexmt_firing_after_everything_is_acked_does_nothing() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, _child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    let (_, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    let rexmt = TimerKind::TcpRexmt { sock: c };
    // Deliver the data and its (delayed) ACK; the rexmt arm stays pending.
    let held = rig.pump_holding(fx, |kind| kind == rexmt);
    assert_eq!(held.len(), 1);
    assert!(!rig.k.socket_ref(c).unwrap().rexmt_armed);
    let fx = rig.k.timer_fire(rexmt, &mut rig.mem, held[0].0);
    assert!(fx.is_empty(), "no CPU charged, nothing sent: {fx:?}");
    assert_eq!(rig.k.tcp_stats().rto_events, 0);
}

/// Wedge `cab`'s SDMA engine with a forced fault on a fresh transfer.
fn wedge_sdma(cab: &mut Cab, mem: &HostMem, now: Time) {
    cab.faults.force_sdma_wedge_next();
    let req = SdmaTx {
        packet: cab.alloc_packet(64).expect("netmem"),
        sg: vec![SgEntry::Inline(Bytes::from(vec![0u8; 64]))],
        csum: None,
        reuse_body_csum: false,
        interrupt_on_complete: false,
        token: 0,
    };
    let err = cab.sdma_tx(req, now, mem).unwrap_err();
    assert!(matches!(err, CabError::EngineWedged(_)), "{err:?}");
}

#[test]
fn cab_timers_after_the_watchdog_reset_do_nothing() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (iface, now, mem) = (rig.add_cab(), rig.now, &rig.mem);
    rig.k.with_cab(iface, |k, cab| {
        let job = MdmaJob {
            packet: cab.cab.alloc_packet(64).expect("netmem"),
            dst: 2,
            channel: 0,
            free_after: true,
            ready: now,
        };
        Kernel::park_tx(k, cab, iface, PendingTx::Mdma(job), now);
        Kernel::arm_watchdog(k, cab, iface);
        wedge_sdma(&mut cab.cab, mem, now);
    });
    let (retry, watchdog) = (
        TimerKind::CabRetry { iface },
        TimerKind::CabWatchdog { iface },
    );
    let fx = rig.k.timer_fire(watchdog, &mut rig.mem, now);
    assert!(!fx.is_empty(), "the armed watchdog resets the wedged board");
    // Wedged again, but nothing re-armed either timer: the parked
    // transmission died with the reset and the watchdog already fired.
    let mem = &rig.mem;
    rig.k
        .with_cab(iface, |_, cab| wedge_sdma(&mut cab.cab, mem, now));
    for kind in [retry, watchdog] {
        let fx = rig.k.timer_fire(kind, &mut rig.mem, now);
        assert!(fx.is_empty(), "{kind:?}: no CPU charged, no effect: {fx:?}");
    }
    let stats = rig.k.with_cab(iface, |_, cab| cab.health.stats);
    assert_eq!((stats.tx_retries, stats.abandoned_tx), (0, 1));
    assert_eq!(stats.watchdog_resets, 1);
}

#[test]
fn stats_count_packets_both_ways() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (_c, _child) = established_loopback_pair(&mut rig);
    // Handshake alone moves at least 3 packets through tx and rx.
    assert!(rig.k.stats.tx_packets >= 3);
    assert!(rig.k.stats.rx_packets >= 3);
}

#[test]
fn effective_nagle_depends_on_mode() {
    let rig = Rig::loopback(StackConfig::single_copy());
    assert!(!rig.k.effective_nagle(), "single-copy never coalesces");
    let rig = Rig::loopback(StackConfig::unmodified());
    assert!(rig.k.effective_nagle());
    let mut cfg = StackConfig::unmodified();
    cfg.nagle = false;
    let rig = Rig::loopback(cfg);
    assert!(!rig.k.effective_nagle());
}

#[test]
fn sendto_recvfrom_unconnected_udp() {
    let mut rig = Rig::loopback(StackConfig::unmodified());
    let srv = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_bind(srv, 9000).unwrap();
    let cli = rig.k.sys_socket(Proto::Udp);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    rig.mem.write_user(TaskId(1), 0x1000, b"dgram one").unwrap();
    let (r, fx) = rig
        .k
        .sys_sendto(
            cli,
            TaskId(1),
            0x1000,
            9,
            SockAddr::new(LO, 9000),
            &mut rig.mem,
            rig.now,
        )
        .unwrap();
    assert_eq!(r, WriteResult::Done { bytes: 9 });
    rig.pump(fx);
    rig.mem.create_region(TaskId(2), 0x9000, 4096);
    let (r, from, _fx) = rig
        .k
        .sys_recvfrom(srv, TaskId(2), 0x9000, 4096, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, ReadResult::Done { bytes: 9 });
    let from = from.expect("source reported");
    assert_eq!(from.ip, LO);
    // The client got an ephemeral port.
    assert!(from.port >= 20_000);
    // sendto on a TCP socket is rejected.
    let t = rig.k.sys_socket(Proto::Tcp);
    assert!(matches!(
        rig.k
            .sys_sendto(
                t,
                TaskId(1),
                0x1000,
                4,
                SockAddr::new(LO, 9000),
                &mut rig.mem,
                rig.now
            )
            .unwrap_err(),
        StackError::InvalidState(_)
    ));
}

#[test]
fn setsockbuf_resizes_and_locks_after_handshake() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = rig.k.sys_socket(Proto::Tcp);
    rig.k.sys_setsockbuf(c, 64 * 1024).unwrap();
    assert_eq!(rig.k.socket_ref(c).unwrap().so_rcv.hiwat, 64 * 1024);
    let l = rig.k.sys_socket(Proto::Tcp);
    rig.k.sys_bind(l, 80).unwrap();
    rig.k.sys_listen(l).unwrap();
    let fx = rig
        .k
        .sys_connect(c, TaskId(1), SockAddr::new(LO, 80), &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    assert!(matches!(
        rig.k.sys_setsockbuf(c, 128 * 1024),
        Err(StackError::InvalidState(_))
    ));
}

// ----------------------------------------------------------------------
// effect-list coalescing
// ----------------------------------------------------------------------

/// Replay an effect list the way `World` does: CPU effects serialize on the
/// host CPU and move the cursor; every other effect is scheduled at the
/// cursor it finds. Returns the CPU, the final cursor, and the cursor each
/// non-CPU effect saw.
fn replay_on_cpu(
    fx: &[Effect],
    now: Time,
    busy_until: Time,
    ttcp_on_cpu: bool,
) -> (outboard_host::Cpu, Time, Vec<Time>) {
    let mut cpu = outboard_host::Cpu::new(MachineConfig::alpha_3000_400());
    cpu.run(busy_until, Dur::ZERO, Charge::Syscall);
    cpu.set_ttcp_on_cpu(ttcp_on_cpu);
    let mut cursor = now;
    let mut seen = Vec::new();
    for e in fx {
        match e {
            Effect::Cpu { dur, charge } => cursor = cpu.run(cursor, *dur, *charge),
            _ => seen.push(cursor),
        }
    }
    (cpu, cursor, seen)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

    /// `Kernel::cpu` / `cpu_dur` fold work onto a trailing `Cpu` effect of
    /// the same charge. Against the list the kernel used to build (one
    /// effect per call), the CPU's `busy_until`, every accounting bucket,
    /// the returned cursor and the cursor each wake sees must be identical:
    /// in both `ttcp_on_cpu` states, with the CPU already busy past `now`,
    /// and with charges that are zero nanoseconds long in the list.
    #[test]
    fn coalesced_cpu_effects_replay_identically(
        ops in proptest::collection::vec((proptest::prelude::any::<u8>(), 0u64..40_000), 1..60),
        busy_ahead in 0u64..50_000,
        ttcp_on_cpu in proptest::prelude::any::<bool>(),
    ) {
        // A wakeup cost below a nanosecond: compiled, it is a zero-length
        // charge that is still pushed.
        let mut machine = MachineConfig::alpha_3000_400();
        machine.cost_wakeup_us = 0.0004;
        let mut k = Kernel::new("fx", machine, StackConfig::single_copy());
        assert_eq!(k.costs.wakeup, Some(Dur::ZERO));
        let mut plain: Vec<Effect> = Vec::new();
        for (kind, ns) in ops {
            let charge = [Charge::Syscall, Charge::Interrupt, Charge::TtcpUser][(kind % 3) as usize];
            match (kind / 3) % 5 {
                // `cpu`: a configured cost is pushed, a missing one is not.
                0 | 1 => {
                    let cost = (ns % 4 != 0).then_some(Dur::nanos(ns));
                    k.cpu(cost, charge);
                    if let Some(dur) = cost {
                        plain.push(Effect::Cpu { dur, charge });
                    }
                }
                // Sub-nanosecond charge: a zero-length effect.
                2 => {
                    k.cpu(Some(Dur::ZERO), charge);
                    plain.push(Effect::Cpu { dur: Dur::ZERO, charge });
                }
                // `cpu_dur`: zero durations are skipped on both sides.
                3 => {
                    k.cpu_dur(Dur::nanos(ns % 3 * ns), charge);
                    if ns % 3 * ns > 0 {
                        plain.push(Effect::Cpu { dur: Dur::nanos(ns % 3 * ns), charge });
                    }
                }
                // Anything else ends a run of CPU effects.
                _ => {
                    k.wake(TaskId(1), SockId(1), charge);
                    plain.push(Effect::Cpu { dur: Dur::ZERO, charge });
                    plain.push(Effect::Wake { task: TaskId(1), sock: SockId(1) });
                }
            }
        }
        let fx = k.take_effects();
        assert!(fx.len() <= plain.len());
        let adjacent_same_charge = fx.windows(2).any(|w| {
            matches!((&w[0], &w[1]), (Effect::Cpu { charge: a, .. }, Effect::Cpu { charge: b, .. }) if a == b)
        });
        assert!(!adjacent_same_charge, "same-charge neighbours are merged");
        let now = Time(1_000_000);
        let busy = Time(1_000_000 - 25_000 + busy_ahead);
        let (cpu_a, cur_a, seen_a) = replay_on_cpu(&plain, now, busy, ttcp_on_cpu);
        let (cpu_b, cur_b, seen_b) = replay_on_cpu(&fx, now, busy, ttcp_on_cpu);
        assert_eq!(cpu_a.busy_until(), cpu_b.busy_until());
        assert_eq!(cpu_a.acct, cpu_b.acct);
        assert_eq!(cur_a, cur_b);
        assert_eq!(seen_a, seen_b);
    }
}

#[test]
fn recycled_effect_storage_is_reused() {
    let mut k = Kernel::new(
        "fx",
        MachineConfig::alpha_3000_400(),
        StackConfig::single_copy(),
    );
    k.cpu(Some(Dur::micros(5)), Charge::Syscall);
    k.wake(TaskId(1), SockId(1), Charge::Syscall);
    let fx = k.take_effects();
    let (ptr, cap) = (fx.as_ptr(), fx.capacity());
    assert_eq!(fx.len(), 2);
    k.recycle_effects(fx);
    // `take_effects` swaps the spare in, so the storage carries the list
    // after the next one.
    k.cpu(Some(Dur::micros(5)), Charge::Syscall);
    let second = k.take_effects();
    assert_eq!(second.len(), 1);
    k.cpu(Some(Dur::micros(5)), Charge::Interrupt);
    let third = k.take_effects();
    assert_eq!(
        (third.as_ptr(), third.capacity(), third.len()),
        (ptr, cap, 1)
    );
}
