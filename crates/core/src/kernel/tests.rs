//! Kernel unit tests: syscall error paths, socket lifecycle, loopback
//! traffic, and stats — exercised against a single kernel with a manual
//! effect pump (no testbed).

use super::*;
use crate::driver::{MdmaJob, PendingTx};
use crate::tcp::{TcpState, MAX_BACKOFF, RTO_MAX};
use crate::types::{
    Effect, IfaceId, Proto, ReadResult, SockAddr, SockId, StackError, TimerKind, WriteResult,
};
use bytes::Bytes;
use outboard_cab::{CabError, SdmaTx, SgEntry};
use outboard_host::{HostMem, MachineConfig, UserMemory};
use outboard_mbuf::TaskId;
use outboard_sim::fault::{Action, Fault, Point};
use outboard_sim::{Dur, Time};
use outboard_wire::TcpFlags;
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
    // The connecting socket collapsed back to Closed, and the woken
    // connector learns why: `ECONNREFUSED`, once.
    let s = rig.k.socket_ref(c).expect("kept until closed");
    assert_eq!(s.tcb.as_ref().unwrap().state, TcpState::Closed);
    assert_eq!(rig.wakes, [TaskId(1)]);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    let mut write = || {
        rig.k
            .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
            .map(|(r, _)| r)
    };
    assert_eq!(write(), Err(StackError::ConnRefused));
    assert_eq!(write(), Err(StackError::NotConnected));
}

/// A peer's RST on an established connection wakes the blocked reader,
/// whose next `read` returns `ECONNRESET` once and then EOF; the socket
/// stays until the application closes it.
#[test]
fn a_peer_reset_wakes_the_reader_with_econnreset() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(2), 0x1000, 4096);
    let read = |rig: &mut Rig| {
        rig.k
            .sys_read(child, TaskId(2), 0x1000, 100, &mut rig.mem, rig.now)
            .map(|(r, _)| r)
    };
    assert_eq!(read(&mut rig), Ok(ReadResult::WouldBlock));
    // The other end is dropped: its RST reaches the reader.
    rig.wakes.clear();
    rig.k
        .tcp_drop(c, StackError::TimedOut, true, &mut rig.mem, rig.now);
    let fx = rig.k.take_effects(rig.now);
    rig.pump(fx);
    assert_eq!(rig.wakes, [TaskId(2)], "the reader is woken once");
    assert_eq!(read(&mut rig), Err(StackError::ConnReset));
    assert_eq!(read(&mut rig), Ok(ReadResult::Eof));
    let s = rig.k.socket_ref(child).expect("kept until closed");
    assert_eq!(s.tcb.as_ref().unwrap().state, TcpState::Closed);
    let fx = rig.k.sys_close(child, &mut rig.mem, rig.now);
    rig.pump(fx);
    assert!(rig.k.socket_ref(child).is_none());
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
fn unmapped_user_range_is_efault() {
    // Every syscall that takes a user range checks it at entry: memory
    // the task never mapped is `BadAddress`, not an aborted simulator.
    let mut rig = Rig::loopback(StackConfig::unmodified());
    let (c, child) = established_loopback_pair(&mut rig);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    let efault = Err(StackError::BadAddress);
    let write = |rig: &mut Rig, sock, task, len| {
        rig.k
            .sys_write(sock, task, 0x1000, len, &mut rig.mem, rig.now)
            .map(drop)
    };
    assert_eq!(write(&mut rig, c, TaskId(1), 4097), efault, "past the end");
    assert_eq!(write(&mut rig, c, TaskId(7), 10), efault, "no region");
    let (_, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    rig.pump(fx);
    let read = rig
        .k
        .sys_read(child, TaskId(2), 0x9000, 100, &mut rig.mem, rig.now)
        .map(drop);
    assert_eq!(read, efault, "read into an unmapped buffer");
    assert_eq!(
        rig.k.socket_ref(child).unwrap().so_rcv.len(),
        100,
        "nothing was consumed"
    );

    let srv = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_bind(srv, 9000).unwrap();
    let cli = rig.k.sys_socket(Proto::Udp);
    rig.k.sys_connect_udp(cli, SockAddr::new(LO, 9000)).unwrap();
    assert_eq!(write(&mut rig, cli, TaskId(7), 10), efault, "UDP write");
    let dst = SockAddr::new(LO, 9000);
    let sendto = rig
        .k
        .sys_sendto(srv, TaskId(7), 0x1000, 10, dst, &mut rig.mem, rig.now)
        .map(drop);
    assert_eq!(sendto, efault, "sendto");
}

#[test]
fn region_shrunk_under_a_blocked_write_zero_fills() {
    // A range checked at entry can still fault later: here the region
    // shrinks while the write is blocked on socket-buffer space. The
    // copy then counts the fault and queues zeros in place of the bytes.
    let mut rig = Rig::loopback(StackConfig::unmodified());
    let (c, child) = established_loopback_pair(&mut rig);
    let big = rig.k.cfg.sock_buf + 8192;
    rig.mem.create_region(TaskId(1), 0x1000, big);
    rig.mem.region_mut(TaskId(1)).unwrap().fill(0xab);
    let (r, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, big, &mut rig.mem, rig.now)
        .unwrap();
    assert!(matches!(r, WriteResult::Blocked { .. }), "{r:?}");
    rig.mem.region_mut(TaskId(1)).unwrap().truncate(4096);
    rig.pump(fx);
    assert!(rig.k.stats.user_mem_faults > 0, "the late copy faulted");

    rig.mem.create_region(TaskId(2), 0x10_0000, big);
    let mut got = 0;
    while got < big {
        let at = 0x10_0000 + got as u64;
        let (r, fx) = rig
            .k
            .sys_read(child, TaskId(2), at, big - got, &mut rig.mem, rig.now)
            .unwrap();
        let ReadResult::Done { bytes } = r else {
            panic!("loopback data is queued before the read: {r:?}");
        };
        got += bytes;
        rig.pump(fx);
    }
    let data = rig.mem.region(TaskId(2)).unwrap();
    assert!(data[..4096].iter().all(|&b| b == 0xab), "copied before");
    assert!(data[big - 8192..].iter().all(|&b| b == 0), "zero-filled");
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

/// A client socket with 100 bytes written and never acknowledged (the
/// segment is left unpumped).
fn unacknowledged_write(rig: &mut Rig) -> SockId {
    let (c, _child) = established_loopback_pair(rig);
    rig.mem.create_region(TaskId(1), 0x1000, 4096);
    let (r, _fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, WriteResult::Done { bytes: 100 });
    assert!(
        rig.k.socket_ref(c).unwrap().rexmt_armed,
        "unacknowledged data arms the rexmt timer"
    );
    c
}

#[test]
fn window_probe_is_an_emitted_segment() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = unacknowledged_write(&mut rig);
    let s = rig.k.sockets.get_mut(c).unwrap();
    s.tcb.as_mut().unwrap().snd_wnd = 0;
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

/// The retransmit timer's next arm among `fx`, if it was armed.
fn rexmt_arm(fx: &[Effect], sock: SockId) -> Option<Dur> {
    fx.iter().find_map(|e| match e {
        Effect::Timer { after, kind } if *kind == TimerKind::TcpRexmt { sock } => Some(*after),
        _ => None,
    })
}

/// Net/2's `tcp_drop`: a peer that never answers again. The first twelve
/// expiries of the retransmit ladder resend, the 13th drops the connection
/// with one RST and wakes the blocked writer once; its next write returns
/// `TimedOut`, the one after does not, and no timer is left armed.
#[test]
fn the_thirteenth_timeout_drops_the_connection() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, _child) = established_loopback_pair(&mut rig);
    // A write twice the send buffer blocks its writer.
    let len = 2 * rig.k.socket_ref(c).unwrap().so_snd.hiwat;
    rig.mem.create_region(TaskId(1), 0x1000, len);
    let (r, fx) = rig
        .k
        .sys_write(c, TaskId(1), 0x1000, len, &mut rig.mem, rig.now)
        .unwrap();
    assert!(matches!(r, WriteResult::Blocked { .. }), "{r:?}");
    // Its segments are never delivered.
    let mut after = rexmt_arm(&fx, c).expect("the write arms the rexmt timer");
    let rexmt = TimerKind::TcpRexmt { sock: c };
    for expiry in 1..=MAX_BACKOFF {
        rig.now += after;
        let segs = rig.k.stats.tcp_segs_out;
        let fx = rig.k.timer_fire(rexmt, &mut rig.mem, rig.now);
        assert!(rig.k.stats.tcp_segs_out > segs, "expiry {expiry} resends");
        assert!(!fx.iter().any(|e| matches!(e, Effect::Wake { .. })));
        after = rexmt_arm(&fx, c).expect("and re-arms");
    }
    rig.now += after;
    let rsts = rig.k.stats.rst_sent;
    let fx = rig.k.timer_fire(rexmt, &mut rig.mem, rig.now);
    assert_eq!(rig.k.stats.rst_sent, rsts + 1, "one RST tells the peer");
    let wakes: Vec<_> = fx
        .iter()
        .filter_map(|e| match e {
            Effect::Wake { task, sock } => Some((*task, *sock)),
            _ => None,
        })
        .collect();
    assert_eq!(wakes, [(TaskId(1), c)], "the blocked writer is woken once");
    assert_eq!(rexmt_arm(&fx, c), None);
    let s = rig.k.socket_ref(c).expect("the socket stays until closed");
    let tcb = s.tcb.as_ref().unwrap();
    assert_eq!(tcb.state, TcpState::Closed);
    assert!(!s.rexmt_armed && !tcb.delack_pending && !tcb.wants_rexmt_timer());
    rig.k.debug_assert_rexmt_covered(c);
    let write = |rig: &mut Rig| {
        rig.k
            .sys_write(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
            .map(|(r, _)| r)
    };
    assert_eq!(write(&mut rig), Err(StackError::TimedOut));
    assert_eq!(
        write(&mut rig),
        Err(StackError::NotConnected),
        "reported once"
    );
    let (r, _) = rig
        .k
        .sys_read(c, TaskId(1), 0x1000, 100, &mut rig.mem, rig.now)
        .unwrap();
    assert_eq!(r, ReadResult::Eof);
    // Nothing fires on the socket any more.
    let fx = rig
        .k
        .timer_fire(rexmt, &mut rig.mem, rig.now + Dur::secs(64));
    assert!(fx.is_empty(), "{fx:?}");
}

/// Net/2's persist timer never drops: a sender facing a closed window with
/// data queued probes on every expiry, 24 of them, and the connection
/// stays. Once the window opens the timeout count starts afresh: twelve
/// more expiries resend and only the 13th drops.
#[test]
fn window_probes_never_drop_the_connection() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = unacknowledged_write(&mut rig);
    fn tcb(rig: &mut Rig, c: SockId) -> &mut crate::tcp::Tcb {
        rig.k.sockets.get_mut(c).unwrap().tcb.as_mut().unwrap()
    }
    let wnd = std::mem::take(&mut tcb(&mut rig, c).snd_wnd);
    let rexmt = TimerKind::TcpRexmt { sock: c };
    let fire = |rig: &mut Rig| {
        rig.now += RTO_MAX;
        let segs = rig.k.stats.tcp_segs_out;
        let fx = rig.k.timer_fire(rexmt, &mut rig.mem, rig.now);
        (rig.k.stats.tcp_segs_out - segs, rexmt_arm(&fx, c).is_some())
    };
    for probe in 0..24 {
        assert_eq!(fire(&mut rig), (1, true), "probe {probe}");
    }
    assert_eq!(tcb(&mut rig, c).state, TcpState::Established);
    assert!(rig.k.socket_ref(c).unwrap().so_error.is_none());
    tcb(&mut rig, c).snd_wnd = wnd;
    for expiry in 1..=MAX_BACKOFF {
        assert!(fire(&mut rig).1, "expiry {expiry} after the window opened");
    }
    let rsts = rig.k.stats.rst_sent;
    fire(&mut rig);
    assert_eq!(rig.k.stats.rst_sent, rsts + 1);
    assert_eq!(tcb(&mut rig, c).state, TcpState::Closed);
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

// ----------------------------------------------------------------------
// the liveness invariant (debug builds): unacknowledged data has a
// retransmit timer, and its firing sends
// ----------------------------------------------------------------------

/// Planted defect: the timer is disarmed with the data outstanding, so a
/// stale firing is ignored and nothing would ever resend it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "no retransmit timer armed")]
fn unacknowledged_data_without_a_rexmt_timer_is_caught() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = unacknowledged_write(&mut rig);
    rig.k.sockets.get_mut(c).unwrap().rexmt_armed = false;
    let at = rig.now + Dur::secs(1);
    rig.k
        .timer_fire(TimerKind::TcpRexmt { sock: c }, &mut rig.mem, at);
}

/// Planted defect: the socket loses its peer address, so the firing's
/// output pass cannot address a segment and sends nothing.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "sent nothing")]
fn rexmt_firing_that_sends_nothing_is_caught() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let c = unacknowledged_write(&mut rig);
    rig.k.sockets.get_mut(c).unwrap().remote = None;
    let at = rig.now + Dur::secs(1);
    rig.k
        .timer_fire(TimerKind::TcpRexmt { sock: c }, &mut rig.mem, at);
}

/// Wedge `cab`'s SDMA engine at the crossing of a fresh transfer.
fn wedge_sdma(cab: &mut Cab, mem: &HostMem, now: Time) {
    let next = cab.faults.counts().crossed(Point::Sdma) + 1;
    cab.faults
        .add(Fault::crossing(next, 0, Point::Sdma, Action::Wedge));
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
            packet: cab.alloc(64, 0, now).expect("netmem"),
            dst: 2,
            channel: 0,
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
        let fx = k.take_effects(Time::ZERO);
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
    let fx = k.take_effects(Time::ZERO);
    let (ptr, cap) = (fx.as_ptr(), fx.capacity());
    assert_eq!(fx.len(), 2);
    k.recycle_effects(fx);
    // `take_effects` swaps the spare in, so the storage carries the list
    // after the next one.
    k.cpu(Some(Dur::micros(5)), Charge::Syscall);
    let second = k.take_effects(Time::ZERO);
    assert_eq!(second.len(), 1);
    k.cpu(Some(Dur::micros(5)), Charge::Interrupt);
    let third = k.take_effects(Time::ZERO);
    assert_eq!(
        (third.as_ptr(), third.capacity(), third.len()),
        (ptr, cap, 1)
    );
}

// ----------------------------------------------------------------------
// outboard buffers: every drop site releases the packets it drops
// ----------------------------------------------------------------------

/// Network-memory pages in use on the CAB `cab`.
fn pages_used(rig: &Rig, cab: IfaceId) -> usize {
    let nm = rig.k.iface(cab).cab_ref().expect("CAB").cab.netmem();
    nm.pages_total() - nm.pages_free()
}

/// Deliver one segment from `to`'s loopback peer through the CAB `cab`:
/// the bytes past the auto-DMA prefix stay outboard, so TCP receives the
/// payload's tail as an `M_WCAB` descriptor.
fn deliver_outboard(
    rig: &mut Rig,
    cab: IfaceId,
    to: SockId,
    seq: u32,
    len: usize,
    flags: TcpFlags,
) {
    let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
    deliver_segment(rig, cab, to, seq, &payload, flags);
}

/// [`deliver_outboard`] with the segment's payload given.
fn deliver_segment(
    rig: &mut Rig,
    cab: IfaceId,
    to: SockId,
    seq: u32,
    payload: &[u8],
    flags: TcpFlags,
) {
    use outboard_wire::checksum::{pseudo_header_sum, Accumulator};
    use outboard_wire::hippi::HippiHeader;
    use outboard_wire::ipv4::Ipv4Header;
    use outboard_wire::tcp::TcpHeader;
    let s = rig.k.socket_ref(to).expect("socket");
    let (local, remote) = (s.local.expect("bound"), s.remote.expect("connected"));
    let ack = s.tcb.as_ref().expect("tcb").snd_una;
    let mut th = TcpHeader::new(remote.port, local.port, seq, ack, flags);
    th.window = 0xffff;
    let mut seg = th.build();
    seg.extend_from_slice(payload);
    let pseudo = pseudo_header_sum(LO.octets(), LO.octets(), 6, seg.len() as u16);
    let mut acc = Accumulator::from_partial(pseudo);
    acc.add_bytes(&seg);
    seg[16..18].copy_from_slice(&acc.finish().to_be_bytes());
    let ip = Ipv4Header::new(LO, LO, 6, seg.len(), 1);
    let mut frame = HippiHeader::new(2, 1, IPV4_HEADER_LEN + seg.len(), 0)
        .build()
        .to_vec();
    frame.extend_from_slice(&ip.build());
    frame.extend_from_slice(&seg);
    let fx = rig
        .k
        .frame_arrive(cab, Bytes::from(frame), &mut rig.mem, rig.now);
    for e in fx {
        if let Effect::Cab {
            event:
                outboard_cab::CabEvent::RxReady {
                    at,
                    packet,
                    autodma,
                    frame_len,
                },
            ..
        } = e
        {
            rig.now = rig.now.max(at);
            rig.k
                .rx_interrupt(cab, packet, autodma, frame_len, &mut rig.mem, rig.now);
        }
    }
}

/// Read everything queued on `sock` in one `read(2)`: the outboard bytes
/// leave by copy-out SDMA.
fn read_all(rig: &mut Rig, sock: SockId) {
    let n = rig.k.socket_ref(sock).expect("socket").so_rcv.len();
    rig.mem.create_region(TaskId(2), 0x10_0000, n.max(4096));
    rig.k
        .sys_read(sock, TaskId(2), 0x10_0000, n, &mut rig.mem, rig.now)
        .expect("read");
}

/// Bytes of the stream the reassembly proptest delivers.
const STREAM: u32 = 12_000;

/// The stream's byte at offset `off`. The period is 251, so a segment
/// placed a multiple of 256 bytes off reads wrong.
fn stream_byte(off: u32) -> u8 {
    (off % 251) as u8
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

    /// TCP reassembly under adversarial overlap, against a byte map of what
    /// arrived. Segments of one stream come at any offset and length, in
    /// any order, overlapping and duplicated, each tail past the auto-DMA
    /// prefix outboard, with reads between them. The connection never
    /// delivers past the map's contiguous prefix, every byte read is the
    /// stream's byte at its offset, and a closing in-order retransmission
    /// of the whole stream delivers the rest. Once the receiver closes — when
    /// `abort`, with data still queued out of order — and its peer resets,
    /// the socket is gone and no network-memory page is held.
    #[test]
    fn reassembly_under_adversarial_overlap_matches_a_byte_map(
        segs in proptest::collection::vec(
            (
                (proptest::prelude::any::<bool>(), 0..16u32, 0..STREAM),
                1..4000u32,
                proptest::prelude::any::<bool>(),
            ),
            1..24,
        ),
        abort in proptest::prelude::any::<bool>(),
    ) {
        const BUF: u64 = 0x10_0000;
        let mut rig = Rig::loopback(StackConfig::single_copy());
        let (_c, child) = established_loopback_pair(&mut rig);
        let cab = rig.add_cab();
        let rcv_nxt = |rig: &Rig| rig.k.socket_ref(child).unwrap().tcb.as_ref().unwrap().rcv_nxt;
        let r0 = rcv_nxt(&rig);
        rig.mem.create_region(TaskId(2), BUF, STREAM as usize);
        let mut read = 0usize;
        // Read what is queued; outboard bytes leave by copy-out SDMA, whose
        // completions end the read.
        let read_queued = |rig: &mut Rig, read: &mut usize| {
            let n = rig.k.socket_ref(child).unwrap().so_rcv.len();
            if n == 0 {
                return;
            }
            let at = BUF + *read as u64;
            let (_, fx) = rig.k.sys_read(child, TaskId(2), at, n, &mut rig.mem, rig.now).unwrap();
            for e in fx {
                if let Effect::Cab { event: outboard_cab::CabEvent::SdmaDone { at, token, interrupt, data }, .. } = e {
                    rig.now = rig.now.max(at);
                    rig.k.sdma_done(cab, token, interrupt, data, &mut rig.mem, rig.now);
                }
            }
            *read += n;
        };
        // Stream offsets some segment carried.
        let mut map = vec![false; STREAM as usize];
        for ((on_grid, k, anywhere), len, then_read) in segs {
            // Half the segments start on a coarse grid, so that they meet,
            // nest and start at the next expected byte.
            let off = if on_grid { k * 750 } else { anywhere };
            let end = (off + len).min(STREAM);
            let payload: Vec<u8> = (off..end).map(stream_byte).collect();
            deliver_segment(&mut rig, cab, child, r0.wrapping_add(off), &payload, TcpFlags::ACK);
            map[off as usize..end as usize].fill(true);
            let delivered = rcv_nxt(&rig).wrapping_sub(r0) as usize;
            let queued = rig.k.socket_ref(child).unwrap().so_rcv.len();
            proptest::prop_assert!(delivered <= map.iter().take_while(|&&b| b).count());
            proptest::prop_assert_eq!(delivered, read + queued);
            if then_read {
                read_queued(&mut rig, &mut read);
            }
        }
        if !abort {
            // The sender's retransmission of the whole stream, MSS by MSS.
            for off in (0..STREAM).step_by(1460) {
                let chunk: Vec<u8> = (off..(off + 1460).min(STREAM)).map(stream_byte).collect();
                deliver_segment(&mut rig, cab, child, r0.wrapping_add(off), &chunk, TcpFlags::ACK);
            }
            let delivered = rcv_nxt(&rig).wrapping_sub(r0) as usize;
            proptest::prop_assert_eq!(delivered, STREAM as usize);
            read_queued(&mut rig, &mut read);
        }
        let mut got = vec![0u8; read];
        rig.mem.read_user(TaskId(2), BUF, &mut got).unwrap();
        let want: Vec<u8> = (0..read as u32).map(stream_byte).collect();
        proptest::prop_assert_eq!(got, want);
        // The receiver closes; its peer, gone, answers the FIN with a reset.
        let _fin = rig.k.sys_close(child, &mut rig.mem, rig.now);
        let seq = rcv_nxt(&rig);
        deliver_segment(&mut rig, cab, child, seq, &[], TcpFlags::RST);
        proptest::prop_assert!(rig.k.socket_ref(child).is_none(), "receiver left open");
        proptest::prop_assert_eq!(pages_used(&rig, cab), 0, "pages held after close");
    }
}

/// The completion of a copy-in of `c`'s send-queue range `[seq_lo,
/// seq_lo + len)` into a fresh packet, as `launch_tx` issues it.
fn complete_copy_in(rig: &mut Rig, cab: IfaceId, c: SockId, seq_lo: u32, len: usize) {
    let now = rig.now;
    let token = rig.k.with_cab(cab, |_k, ci| {
        let packet = ci.alloc(len + 80, 80, now).expect("netmem");
        let seg = crate::driver::TxSegment {
            sock: c,
            seq_lo,
            data_len: len,
            pinned: None,
        };
        ci.issue(SdmaPurpose::TxSegment(seg, packet))
    });
    rig.k.sdma_done(cab, token, true, None, &mut rig.mem, now);
}

/// Every place the stack drops `M_WCAB`-backed data releases the outboard
/// packets it dropped: each row feeds segments whose tails sit in network
/// memory, lets the connection consume what it keeps, and expects no page
/// left in use. One row per drop site of `Tcb::input`, the abort of a
/// connection with out-of-order data queued, and the two send-queue cases
/// (a copy-in completing over a range an earlier one converted, and one
/// completing after its range was acknowledged).
#[test]
fn every_drop_site_releases_its_outboard_packets() {
    type Row = fn(&mut Rig, IfaceId, SockId, SockId, u32);
    const L: usize = 4000;
    let rows: [(&str, Row); 10] = [
        ("whole duplicate", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0, L, TcpFlags::ACK);
            let fin = TcpFlags::ACK | TcpFlags::FIN;
            deliver_outboard(rig, cab, child, r0, L, fin);
            read_all(rig, child);
        }),
        ("partial duplicate", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0, L, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0 + 1000, L, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("beyond the window", |rig, cab, _c, child, r0| {
            let space = rig.k.socket_ref(child).unwrap().so_rcv.space();
            deliver_outboard(rig, cab, child, r0, space + L, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("reassembly whole duplicate", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0 + 1000, 2000, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0, L, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("reassembly partial duplicate", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0 + 1000, L, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0, L, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("reassembly slot taken", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0 + 1000, 2000, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0 + 1000, 2000, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0, 1000, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("reassembly queue full", |rig, cab, _c, child, r0| {
            // 64 small segments (all in the auto-DMA prefix) fill the queue;
            // the next one is refused.
            for i in 0..64 {
                deliver_outboard(rig, cab, child, r0 + 1000 + 10 * i, 10, TcpFlags::ACK);
            }
            deliver_outboard(rig, cab, child, r0 + 2000, 2000, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0, 1000, TcpFlags::ACK);
            read_all(rig, child);
        }),
        ("abort with out-of-order data", |rig, cab, _c, child, r0| {
            deliver_outboard(rig, cab, child, r0 + 1000, 2000, TcpFlags::ACK);
            deliver_outboard(rig, cab, child, r0, 0, TcpFlags::RST);
            let s = rig.k.socket_ref(child).expect("kept for its ECONNRESET");
            assert_eq!(s.tcb.as_ref().unwrap().state, TcpState::Closed);
        }),
        (
            "copy-in over a converted range",
            |rig, cab, c, _child, _r0| {
                let s = rig.k.sockets.get_mut(c).unwrap();
                s.so_snd.chain.append(Mbuf::kernel_copy(&[7; L]));
                let una = s.tcb.as_ref().unwrap().snd_una;
                complete_copy_in(rig, cab, c, una, L);
                complete_copy_in(rig, cab, c, una, L);
                rig.k.teardown(c, rig.now);
                rig.k.take_effects(rig.now);
            },
        ),
        (
            "copy-in after its range was acknowledged",
            |rig, cab, c, _child, _r0| {
                let una = rig.k.socket_ref(c).unwrap().tcb.as_ref().unwrap().snd_una;
                complete_copy_in(rig, cab, c, una.wrapping_sub(L as u32), L);
            },
        ),
    ];
    for (name, row) in rows {
        let mut cfg = StackConfig::single_copy();
        // A window small enough for one segment to overrun it.
        cfg.sock_buf = 16 * 1024;
        let mut rig = Rig::loopback(cfg);
        let (c, child) = established_loopback_pair(&mut rig);
        let cab = rig.add_cab();
        let r0 = rig
            .k
            .socket_ref(child)
            .unwrap()
            .tcb
            .as_ref()
            .unwrap()
            .rcv_nxt;
        row(&mut rig, cab, c, child, r0);
        let allocs = rig.k.iface(cab).cab_ref().unwrap().cab.netmem().allocs();
        assert!(allocs > 0, "{name}: no outboard packet");
        assert_eq!(pages_used(&rig, cab), 0, "{name}: pages left in use");
    }
}

// ----------------------------------------------------------------------
// copy semantics: the user-memory journal catches planted bugs
// ----------------------------------------------------------------------

const WRITER: TaskId = TaskId(1);
const WRITE_BUF: u64 = 0x10_0000;

/// A blocked single-copy write of three full segments on a connection
/// re-pointed at a CAB (its frames go nowhere): the congestion window lets
/// two out, whose copy-ins complete, and the third stays queued as an
/// `M_UIO` descriptor. Returns the socket, the CAB, the mss, and the first
/// segment's descriptor as it was queued.
fn write_two_of_three_segments(rig: &mut Rig) -> (SockId, IfaceId, usize, Chain) {
    let (c, _child) = established_loopback_pair(rig);
    let cab = rig.add_cab();
    rig.k.routes.clear();
    rig.k.add_route(LO, 32, cab);
    rig.k.add_arp_hippi(cab, LO, 2);
    let s = rig.k.sockets.get_mut(c).unwrap();
    s.iface_hint = Some(cab);
    let mss = s.tcb.as_ref().unwrap().mss;
    assert_eq!(s.tcb.as_ref().unwrap().cwnd, 2 * mss);
    rig.mem.create_region(WRITER, WRITE_BUF, 3 * mss);
    let (r, fx) = rig
        .k
        .sys_write(c, WRITER, WRITE_BUF, 3 * mss, &mut rig.mem, rig.now)
        .unwrap();
    assert!(matches!(r, WriteResult::Blocked { .. }), "{r:?}");
    let first = rig.k.socket_ref(c).unwrap().so_snd.chain.copy_range(0, mss);
    assert!(first.has_uio());
    let tokens = copy_in_tokens(&fx);
    assert_eq!(tokens.len(), 2, "two segments in the window");
    for token in tokens {
        let fx = rig
            .k
            .sdma_done(cab, token, true, None, &mut rig.mem, rig.now);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Wake { .. })));
    }
    (c, cab, mss, first)
}

/// The copy-in completions among `fx`.
fn copy_in_tokens(fx: &[Effect]) -> Vec<u64> {
    fx.iter()
        .filter_map(|e| match e {
            Effect::Cab {
                event: outboard_cab::CabEvent::SdmaDone { token, .. },
                ..
            } => Some(*token),
            _ => None,
        })
        .collect()
}

fn violation_kinds(rig: &Rig) -> Vec<(crate::UserViolationKind, crate::ClaimHolder)> {
    let vs = rig.k.user_violations();
    vs.iter().map(|v| (v.kind, v.holder)).collect()
}

/// The stack as it is: the third segment goes out once the window opens,
/// and its copy-in completing wakes the writer with nothing claimed.
#[test]
fn a_write_completes_after_its_last_copy_in() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, cab, mss, _) = write_two_of_three_segments(&mut rig);
    // The peer opens its window.
    let tcb = rig.k.sockets.get_mut(c).unwrap().tcb.as_mut().unwrap();
    (tcb.cwnd, tcb.snd_wnd) = (16 * mss, 16 * mss);
    rig.k.tcp_send(c, &mut rig.mem, rig.now, false);
    let fx = rig.k.take_effects(rig.now);
    let [token] = copy_in_tokens(&fx)[..] else {
        panic!("one more copy-in: {fx:?}");
    };
    let fx = rig
        .k
        .sdma_done(cab, token, true, None, &mut rig.mem, rig.now);
    assert!(fx.iter().any(|e| matches!(e, Effect::Wake { .. })));
    rig.k.note_user_write(WRITER, WRITE_BUF, 3 * mss, rig.now);
    assert_eq!(violation_kinds(&rig), []);
}

/// Planted: the writer is woken one copy-in completion early, at the
/// second of three, and the woken application reuses its buffer. The
/// third segment's descriptor still claims its bytes: an early wake, then
/// a user write while they wait for their DMA.
#[test]
fn a_wake_one_completion_early_is_caught() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (c, _cab, mss, _) = write_two_of_three_segments(&mut rig);
    rig.k.finish_write(WRITER, c, Charge::Interrupt, rig.now);
    rig.k.note_user_write(WRITER, WRITE_BUF, 3 * mss, rig.now);
    use crate::{ClaimHolder::Queued, UserViolationKind::*};
    assert_eq!(
        violation_kinds(&rig),
        [(EarlyWake, Queued), (UserWriteWhileDma, Queued)]
    );
}

/// Planted: one descriptor's bytes are credited twice, which drains the
/// write's UIO counter while the third segment is still queued. The claims
/// do not follow the counter, so the wake it causes is an early wake.
#[test]
fn a_descriptor_credited_twice_is_caught() {
    let mut rig = Rig::loopback(StackConfig::single_copy());
    let (_c, _cab, _mss, first) = write_two_of_three_segments(&mut rig);
    let fx_before = rig.k.fx.len();
    rig.k.credit_uio(&first, Charge::Interrupt, rig.now);
    assert!(
        rig.k.fx[fx_before..]
            .iter()
            .any(|e| matches!(e, Effect::Wake { task: WRITER, .. })),
        "the counter drained early and woke the writer"
    );
    use crate::{ClaimHolder::Queued, UserViolationKind::EarlyWake};
    assert_eq!(violation_kinds(&rig), [(EarlyWake, Queued)]);
}
