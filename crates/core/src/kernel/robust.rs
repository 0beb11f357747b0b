//! CAB driver robustness: bounded retry with exponential backoff for
//! transient DMA failures and network-memory exhaustion, degraded mode
//! (fall back to the traditional host-buffered, software-checksum path)
//! with periodic recovery probes, and a watchdog that resets a board whose
//! engine has wedged.
//!
//! A reset and a give-up share one recovery rule (`rebuild_transmit`):
//! what the interface abandons is not traced back to its sockets; every
//! connection routed over it rewinds to its unacknowledged left edge and
//! sends again with an ACK forced, so a dropped control frame is resent
//! like dropped data.
//!
//! The paper's driver treats outboard-resource exhaustion as "a transient
//! out-of-resources condition" (§4.4.3); this module applies that
//! philosophy to every failure the device model can produce. Nothing here
//! panics: a sick adaptor costs throughput, never the kernel.

use super::Kernel;
use crate::driver::{CabIface, PendingTx, TxSegment};
use crate::types::{Effect, IfaceId, SockAddr, SockId, TimerKind};
use outboard_cab::{CabError, CabEvent, PacketId, SdmaDst, SdmaRx};
use outboard_host::{Charge, HostMem, UserMemory};
use outboard_mbuf::{Chain, Mbuf, MbufData, PacketRef};
use outboard_sim::span::Stage;
use outboard_sim::{Dur, PooledBuf, Time};

/// First retry delay; doubles per round (exponential backoff) while
/// transmissions fail on transient DMA errors or netmem exhaustion.
const CAB_RETRY_BASE: Dur = Dur::millis(2);

/// Retry rounds before the driver gives up and degrades the interface to
/// the traditional (host-buffered, software-checksum) path.
const CAB_RETRY_MAX: u32 = 5;

/// How often a degraded interface probes the adaptor for recovery.
pub const CAB_PROBE_INTERVAL: Dur = Dur::millis(10);

/// How long the driver waits for a wedged engine before resetting the
/// board and rebuilding transmit from the socket send queues.
const CAB_WATCHDOG_TIMEOUT: Dur = Dur::millis(20);

/// Which buffer of a socket the watchdog rescue is walking: the send
/// queue, the receive queue, or one TCP reassembly chain (by sequence).
enum RescueChain {
    Snd,
    Rcv,
    Reass(u32),
}

impl RescueChain {
    fn chain<'a>(&self, s: &'a crate::socket::Socket) -> Option<&'a Chain> {
        match self {
            RescueChain::Snd => Some(&s.so_snd.chain),
            RescueChain::Rcv => Some(&s.so_rcv.chain),
            RescueChain::Reass(seq) => s.tcb.as_ref()?.reass_chain(*seq),
        }
    }

    fn chain_mut<'a>(&self, s: &'a mut crate::socket::Socket) -> Option<&'a mut Chain> {
        match self {
            RescueChain::Snd => Some(&mut s.so_snd.chain),
            RescueChain::Rcv => Some(&mut s.so_rcv.chain),
            RescueChain::Reass(seq) => s.tcb.as_mut()?.reass_chain_mut(*seq),
        }
    }
}

impl Kernel {
    /// Arm the wedged-engine watchdog (idempotent while armed).
    pub(crate) fn arm_watchdog(k: &mut Kernel, cab: &mut CabIface, iface: IfaceId) {
        if cab.health.watchdog_armed {
            return;
        }
        cab.health.watchdog_armed = true;
        k.fx.push(Effect::Timer {
            after: CAB_WATCHDOG_TIMEOUT,
            kind: TimerKind::CabWatchdog { iface },
        });
    }

    /// Arm the watchdog when the error indicates a wedged engine.
    pub(crate) fn watchdog_on_wedge(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        e: &CabError,
    ) {
        if matches!(e, CabError::EngineWedged(_)) {
            Kernel::arm_watchdog(k, cab, iface);
        }
    }

    /// Park a transmission on the retry queue and arm the backoff timer.
    pub(crate) fn park_tx(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        entry: PendingTx,
        now: Time,
    ) {
        cab.retry_q.push_back(entry);
        k.span_detour_open(iface, Stage::RetryDwell, now);
        if !cab.health.retry_armed {
            Kernel::arm_retry(k, cab, iface);
        }
    }

    /// Arm the retry-backoff timer for the current round (base × 2^round).
    fn arm_retry(k: &mut Kernel, cab: &mut CabIface, iface: IfaceId) {
        cab.health.retry_armed = true;
        let after = CAB_RETRY_BASE * (1u64 << cab.health.retry_round.min(16));
        cab.health.stats.backoff_us += after.as_nanos() / 1_000;
        k.fx.push(Effect::Timer {
            after,
            kind: TimerKind::CabRetry { iface },
        });
    }

    /// Enter degraded mode (counted once per stay) and arm the recovery
    /// probe.
    fn degrade(k: &mut Kernel, cab: &mut CabIface, iface: IfaceId, now: Time) {
        if !cab.health.degraded {
            cab.health.degraded = true;
            cab.health.stats.degraded_entries += 1;
            k.span_detour_open(iface, Stage::Degraded, now);
        }
        Kernel::arm_probe(k, iface);
    }

    /// Arm the degraded-mode recovery probe.
    fn arm_probe(k: &mut Kernel, iface: IfaceId) {
        k.fx.push(Effect::Timer {
            after: CAB_PROBE_INTERVAL,
            kind: TimerKind::CabProbe { iface },
        });
    }

    /// Re-attempt one parked transmission. On failure the entry goes back
    /// on the retry queue (without re-arming: the caller owns the timer).
    fn submit_pending(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        entry: PendingTx,
        now: Time,
        mem: &mut HostMem,
    ) {
        k.cpu(k.costs.driver_pkt, Charge::Interrupt);
        match entry {
            PendingTx::Mdma(job) => {
                let Err((job, e)) = Kernel::mdma_out(k, cab, iface, job, now, None) else {
                    return;
                };
                // Nothing else refuses it: the job's handle keeps the
                // packet, a board reset empties the queue first, and no
                // frame is empty.
                let retry = e.is_transient() || matches!(e, CabError::EngineWedged(_));
                debug_assert!(retry, "a parked media transfer refused: {e}");
                if retry {
                    cab.retry_q.push_back(PendingTx::Mdma(job));
                } else {
                    cab.health.stats.abandoned_tx += 1;
                }
            }
            PendingTx::Sdma(frame) => {
                if let Some(stalled) = Kernel::launch_tx(k, cab, iface, frame, None, now, mem) {
                    cab.retry_q.push_back(stalled.entry);
                }
            }
        }
    }

    /// The retry-backoff timer fired: re-attempt every parked transmission;
    /// whatever fails again waits for the next (doubled) round, and after
    /// `cab_retry_max` rounds the driver gives up and degrades.
    pub(crate) fn cab_retry_fire(&mut self, iface_id: IfaceId, mem: &mut HostMem, now: Time) {
        // Every parked transmission's dwell ends here; if some re-park, a
        // fresh dwell span covers the queue until the next round.
        self.span_detour_close_all(iface_id, Stage::RetryDwell, now);
        let give_up = self.with_cab(iface_id, |k, cab| {
            cab.health.retry_armed = false;
            let parked: Vec<PendingTx> = cab.retry_q.drain(..).collect();
            for entry in parked {
                cab.health.stats.tx_retries += 1;
                Kernel::submit_pending(k, cab, iface_id, entry, now, mem);
            }
            if cab.retry_q.is_empty() {
                cab.health.retry_round = 0;
                return false;
            }
            cab.health.retry_round += 1;
            if cab.health.retry_round >= CAB_RETRY_MAX {
                return true;
            }
            k.span_detour_open(iface_id, Stage::RetryDwell, now);
            Kernel::arm_retry(k, cab, iface_id);
            false
        });
        if give_up {
            self.cab_give_up(iface_id, mem, now);
        }
    }

    /// Retries exhausted: abandon the parked transmissions to TCP recovery,
    /// enter degraded mode, and rebuild transmit through the traditional
    /// path so progress continues without the adaptor.
    fn cab_give_up(&mut self, iface_id: IfaceId, mem: &mut HostMem, now: Time) {
        let segments = self.with_cab(iface_id, |k, cab| {
            let segments = cab.abandon_retries();
            Kernel::degrade(k, cab, iface_id, now);
            segments
        });
        self.rebuild_transmit(iface_id, &segments, mem, now);
    }

    /// The one recovery rule. The abandoned `segments` end their gathers
    /// (the completions that would have ended them will never run). Then
    /// every connection
    /// routed over `iface` settles its write, rewinds to its
    /// unacknowledged left edge and goes back through the output path (now
    /// the traditional one) with an ACK forced. What the interface dropped
    /// records no connection, and need not: data, a SYN, a FIN, a pure ACK
    /// or a window update is sent again by the connection it came from.
    fn rebuild_transmit(
        &mut self,
        iface: IfaceId,
        segments: &[TxSegment],
        mem: &mut HostMem,
        now: Time,
    ) {
        for seg in segments {
            let unpin = self.end_gather(seg);
            self.cpu_dur(unpin, Charge::Interrupt);
        }
        let routed = |r: SockAddr| self.routes.lookup(r.ip) == Some(iface);
        let socks: Vec<SockId> = (self.sockets.values())
            .filter_map(|s| s.remote.is_some_and(routed).then_some(s.id))
            .collect();
        for sock in socks {
            if let Some(task) = self.settle_write(sock, now) {
                self.wake(task, sock, Charge::Interrupt);
            }
            if let Some(tcb) = self.sockets.get_mut(sock).and_then(|s| s.tcb.as_mut()) {
                tcb.rewind_for_rebuild();
            }
            self.tcp_send(sock, mem, now, true);
        }
    }

    /// The degraded-mode probe fired: test the adaptor (engines unwedged
    /// and an allocation succeeds) and either return to the single-copy
    /// path or re-arm the probe.
    pub(crate) fn cab_probe_fire(&mut self, iface_id: IfaceId, now: Time) {
        self.with_cab(iface_id, |k, cab| {
            if !cab.health.degraded {
                return;
            }
            // The probe packet is released as its handle drops.
            let healthy = !cab.cab.any_engine_wedged() && cab.alloc(1, 0, now).is_some();
            if healthy {
                cab.health.degraded = false;
                cab.health.stats.degraded_exits += 1;
                k.span_detour_close_all(iface_id, Stage::Degraded, now);
            } else {
                Kernel::arm_probe(k, iface_id);
            }
        });
    }

    /// The watchdog fired: if an engine is still wedged, rescue outboard
    /// bytes referenced by socket buffers via programmed I/O, reset the
    /// board (dropping all outboard state), enter degraded mode, and
    /// rebuild transmit from the socket send queues.
    pub(crate) fn cab_watchdog_fire(&mut self, iface_id: IfaceId, mem: &mut HostMem, now: Time) {
        let still_wedged = self.with_cab(iface_id, |_k, cab| {
            cab.health.watchdog_armed = false;
            cab.cab.any_engine_wedged()
        });
        if !still_wedged {
            return;
        }
        self.cab_reset_recover(iface_id, mem, now);
    }

    /// The board crashed out of band (chaos `board_crash`): run the same
    /// rescue-reset-degrade-rebuild sequence the watchdog uses, immediately
    /// and unconditionally. The rescue step matters even for a dead board —
    /// network memory stays host-addressable, so PIO-ing the socket-buffer
    /// bytes out *before* the reset is what keeps the rebuilt segments
    /// carrying real data instead of zeros under valid checksums.
    pub fn cab_board_crash(
        &mut self,
        iface_id: IfaceId,
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        let idx = iface_id.0 as usize;
        if self.ifaces.get_mut(idx).and_then(|i| i.cab()).is_none() {
            return self.take_effects(now); // not a CAB interface: nothing to crash
        }
        self.with_cab(iface_id, |_k, cab| {
            cab.health.stats.board_crashes += 1;
        });
        self.cab_reset_recover(iface_id, mem, now);
        self.take_effects(now)
    }

    /// Shared recovery sequence: PIO-rescue outboard socket-buffer bytes,
    /// drop in-flight conversions and parked retries, reset the board,
    /// enter degraded mode with a recovery probe, and rebuild transmit from
    /// the socket send queues.
    fn cab_reset_recover(&mut self, iface_id: IfaceId, mem: &mut HostMem, now: Time) {
        self.cpu(self.costs.interrupt, Charge::Interrupt);
        self.span_detour(Stage::WatchdogReset, now, now, 0);
        // Parked transmissions die with the reset; their dwell is abandoned.
        self.span_detour_drop_all(iface_id, Stage::RetryDwell, now);

        // 1. Rescue: network memory stays host-addressable even with the
        //    DMA engines stuck, so every M_WCAB descriptor (this interface)
        //    still in a socket buffer is read out by PIO into host mbufs
        //    before the reset frees its backing packet.
        let socks: Vec<SockId> = self.sockets.values().map(|s| s.id).collect();
        for sock in socks {
            self.rescue_sock_buffers(sock, iface_id);
        }

        // 2. Drop in-flight transmit conversions and parked retries, then
        //    reset; `rebuild_transmit` sends again what they carried.
        //    Handles that outlive the reset release ids it already freed,
        //    which the release drain ignores (ids are never reused).
        let segments = self.with_cab(iface_id, |k, cab| {
            let mut segments = cab.drop_pending_tx();
            segments.extend(cab.abandon_retries());
            cab.cab.reset();
            cab.health.stats.watchdog_resets += 1;
            Kernel::degrade(k, cab, iface_id, now);
            segments
        });
        self.rebuild_transmit(iface_id, &segments, mem, now);
    }

    /// Replace this interface's outboard descriptors in `sock`'s buffers
    /// with host mbufs read out by programmed I/O.
    ///
    /// Covers the send queue, the receive queue, AND the TCP out-of-order
    /// reassembly queue: reassembled chains are appended to `so_rcv` long
    /// after their segment checksum was verified, so an outboard buffer
    /// lost to a board reset would otherwise surface as silent zeros at
    /// the application (found by chaos seed 9: receiver-side MDMA wedge
    /// while a gap was queued).
    fn rescue_sock_buffers(&mut self, sock: SockId, iface_id: IfaceId) {
        let mut targets = vec![RescueChain::Snd, RescueChain::Rcv];
        if let Some(tcb) = self.sockets.get(sock).and_then(|s| s.tcb.as_ref()) {
            targets.extend(tcb.reass_keys().into_iter().map(RescueChain::Reass));
        }
        for which in targets {
            // This interface's outboard descriptors, by offset: a rescue
            // replaces each with a kernel mbuf of the same length, so the
            // offsets of the rest hold.
            let Some(chain) = self.sockets.get(sock).and_then(|s| which.chain(s)) else {
                continue;
            };
            let mut off = 0usize;
            let mut found = Vec::new();
            for m in chain.iter() {
                match m.data() {
                    MbufData::Wcab(d) if d.cab == iface_id.0 => {
                        found.push((off, PacketId(d.packet.id()), d.off, d.len));
                    }
                    _ => {}
                }
                off += m.len();
            }
            for (off, packet, src_off, len) in found {
                let buf = self.with_cab(iface_id, |k, cab| {
                    cab.health.stats.rescued_bytes += len as u64;
                    k.pio_read(&cab.cab, packet, src_off, len, Charge::Interrupt)
                });
                if let Some(chain) = self.sockets.get_mut(sock).and_then(|s| which.chain_mut(s)) {
                    chain.splice(off, len, Mbuf::kernel(buf.freeze()));
                }
            }
        }
    }

    /// Issue a receive copy-out of the packet `packet` holds, falling back
    /// to programmed I/O with a synthesized completion event when the
    /// engine refuses the request. The data still reaches its destination;
    /// only the transfer is slower (and charged to the CPU instead of the
    /// engine). A request with the free flag set passes the packet to the
    /// engine.
    pub(crate) fn sdma_rx_resilient(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        req: SdmaRx,
        packet: PacketRef,
        now: Time,
        mem: &mut HostMem,
    ) {
        match cab.cab.sdma_rx(req, now, mem) {
            Ok(ev) => {
                cab.transfer(packet, ev.at(), req.free_packet);
                k.fx.push(Effect::Cab { iface, event: ev });
            }
            Err(e) => {
                let buf = Kernel::pio_fallback(k, cab, iface, &req, &e, packet);
                let data = match req.dst {
                    SdmaDst::User { task, vaddr } => {
                        if mem.write_user(task, vaddr, &buf).is_err() {
                            k.stats.user_mem_faults += 1;
                        }
                        None
                    }
                    SdmaDst::Kernel => Some(buf.freeze()),
                };
                k.span_detour(Stage::PioFallback, now, now, req.len as u64);
                k.fx.push(Effect::Cab {
                    iface,
                    event: CabEvent::SdmaDone {
                        at: now,
                        token: req.token,
                        interrupt: req.interrupt_on_complete,
                        data,
                    },
                });
            }
        }
    }

    /// The programmed-I/O fallback for a receive copy-out the engine
    /// refused with `e`: the CPU reads the bytes into a kernel cluster,
    /// and `packet`'s handle drops, releasing the packet if it was the
    /// last, unless a wedged engine still owns it.
    pub(crate) fn pio_fallback(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        req: &SdmaRx,
        e: &CabError,
        packet: PacketRef,
    ) -> PooledBuf {
        Kernel::watchdog_on_wedge(k, cab, iface, e);
        let (id, off, len) = (req.packet, req.src_off, req.len);
        let buf = k.pio_read(&cab.cab, id, off, len, Charge::Interrupt);
        // A wedged engine holds the buffer until board reset; PIO may
        // still read the bytes, but the host must not release it.
        if matches!(e, CabError::EngineWedged(_)) {
            packet.disown();
        }
        cab.health.stats.pio_fallbacks += 1;
        buf
    }
}
