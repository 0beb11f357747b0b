//! CAB driver robustness: bounded retry with exponential backoff for
//! transient DMA failures and network-memory exhaustion, degraded mode
//! (fall back to the traditional host-buffered, software-checksum path)
//! with periodic recovery probes, and a watchdog that resets a board whose
//! engine has wedged and rebuilds transmit state from the socket send
//! queues.
//!
//! The paper's driver treats outboard-resource exhaustion as "a transient
//! out-of-resources condition" (§4.4.3); this module applies that
//! philosophy to every failure the device model can produce. Nothing here
//! panics: a sick adaptor costs throughput, never the kernel.

use super::Kernel;
use crate::driver::{CabIface, PendingTx, SdmaPurpose};
use crate::types::{Effect, IfaceId, SockId, TimerKind};
use outboard_cab::{CabError, CabEvent, PacketId, SdmaDst, SdmaRx};
use outboard_host::{Charge, HostMem, UserMemory};
use outboard_mbuf::{Chain, Mbuf, MbufData};
use outboard_sim::span::Stage;
use outboard_sim::{Dur, Ticket, Time};

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
    /// Backoff delay for the given retry round (base × 2^round).
    fn cab_backoff(&self, round: u32) -> Dur {
        self.cfg.cab_retry_base * (1u64 << round.min(16))
    }

    /// Arm the wedged-engine watchdog (idempotent while armed).
    pub(crate) fn arm_watchdog(k: &mut Kernel, cab: &mut CabIface, iface: IfaceId) {
        if cab.health.watchdog_armed {
            return;
        }
        cab.health.watchdog_armed = true;
        k.fx.push(Effect::Timer {
            after: k.cfg.cab_watchdog_timeout,
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

    /// Arm the retry-backoff timer for the current round.
    fn arm_retry(k: &mut Kernel, cab: &mut CabIface, iface: IfaceId) {
        cab.health.retry_armed = true;
        let after = k.cab_backoff(cab.health.retry_round);
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
            after: k.cfg.cab_probe_interval,
            kind: TimerKind::CabProbe { iface },
        });
    }

    /// Release a transmit purpose's pinned user pages (the completion that
    /// would have released them will never run).
    fn release_purpose_pins(&mut self, purpose: &SdmaPurpose) -> Option<SockId> {
        if let SdmaPurpose::TxSegment { sock, pinned, .. } = purpose {
            if let Some((task, vaddr, len)) = *pinned {
                let cost = self.vm.release(task, vaddr, len);
                self.cpu_dur(cost, Charge::Interrupt);
            }
            Some(*sock)
        } else {
            None
        }
    }

    /// Re-attempt one parked transmission. On failure the entry goes back
    /// on the retry queue (without re-arming: the caller owns the timer) or
    /// is dropped when the device says it can never succeed.
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
                let Err(e) = Kernel::mdma_out(k, cab, iface, job, now, None) else {
                    return;
                };
                if e.is_transient() || matches!(e, CabError::EngineWedged(_)) {
                    cab.retry_q.push_back(PendingTx::Mdma(job));
                } else {
                    // The packet vanished (board reset) or the request is
                    // malformed: nothing a retry can fix.
                    cab.health.stats.abandoned_tx += 1;
                    if job.free_after {
                        cab.cab.free_packet(job.packet, now);
                    }
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
            if cab.health.retry_round >= k.cfg.cab_retry_max {
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
        let purposes = self.with_cab(iface_id, |k, cab| {
            cab.health.retry_round = 0;
            let parked: Vec<PendingTx> = cab.retry_q.drain(..).collect();
            let mut purposes = Vec::new();
            for entry in parked {
                cab.health.stats.abandoned_tx += 1;
                match entry {
                    PendingTx::Sdma(frame) => purposes.push(frame.purpose),
                    PendingTx::Mdma(job) => {
                        // If an engine is wedged this packet may be seized
                        // mid-transfer; the board reset reclaims it instead.
                        if job.free_after && !cab.cab.any_engine_wedged() {
                            cab.cab.free_packet(job.packet, now);
                        }
                    }
                }
            }
            Kernel::degrade(k, cab, iface_id, now);
            purposes
        });
        self.rebuild_transmit(Vec::new(), &purposes, mem, now);
    }

    /// Release the pins of the abandoned transmissions' `purposes`, then
    /// rewind each connection they or `socks` name to its unacknowledged
    /// left edge and push it back through the output path (now the
    /// traditional one if degraded).
    fn rebuild_transmit(
        &mut self,
        mut socks: Vec<SockId>,
        purposes: &[SdmaPurpose],
        mem: &mut HostMem,
        now: Time,
    ) {
        socks.extend(purposes.iter().filter_map(|p| self.release_purpose_pins(p)));
        socks.sort();
        socks.dedup();
        for sock in socks {
            if let Some(tcb) = self.sockets.get_mut(sock).and_then(|s| s.tcb.as_mut()) {
                tcb.rewind_for_rebuild();
            }
            self.tcp_send(sock, mem, now, false);
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
            let healthy = !cab.cab.any_engine_wedged()
                && match cab.cab.alloc_packet(1) {
                    Some(p) => {
                        cab.cab.free_packet(p, now);
                        true
                    }
                    None => false,
                };
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
            return self.take_effects(); // not a CAB interface: nothing to crash
        }
        self.with_cab(iface_id, |_k, cab| {
            cab.health.stats.board_crashes += 1;
        });
        self.cab_reset_recover(iface_id, mem, now);
        self.take_effects()
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
        let to_rescue: Vec<SockId> = self.sockets.values().map(|s| s.id).collect();
        let mut affected: Vec<SockId> = Vec::new();
        for sock in to_rescue {
            if self.rescue_sock_buffers(sock, iface_id) {
                affected.push(sock);
            }
        }

        // 2. Drop in-flight transmit conversions and parked retries, then
        //    reset. Their sockets rewind and resend below.
        let purposes = self.with_cab(iface_id, |k, cab| {
            let mut purposes = cab.drop_pending_tx();
            for entry in std::mem::take(&mut cab.retry_q) {
                cab.health.stats.abandoned_tx += 1;
                match entry {
                    PendingTx::Sdma(frame) => purposes.push(frame.purpose),
                    PendingTx::Mdma(_) => {} // its packet dies with the reset
                }
            }
            cab.health.retry_armed = false;
            cab.health.retry_round = 0;
            cab.reset();
            cab.health.stats.watchdog_resets += 1;
            Kernel::degrade(k, cab, iface_id, now);
            purposes
        });
        self.rebuild_transmit(affected, &purposes, mem, now);
    }

    /// Replace this interface's outboard descriptors in `sock`'s buffers
    /// with host mbufs read out by programmed I/O. Returns whether anything
    /// was rescued.
    ///
    /// Covers the send queue, the receive queue, AND the TCP out-of-order
    /// reassembly queue: reassembled chains are appended to `so_rcv` long
    /// after their segment checksum was verified, so an outboard buffer
    /// lost to a board reset would otherwise surface as silent zeros at
    /// the application (found by chaos seed 9: receiver-side MDMA wedge
    /// while a gap was queued).
    fn rescue_sock_buffers(&mut self, sock: SockId, iface_id: IfaceId) -> bool {
        let mut rescued = false;
        let mut targets = vec![RescueChain::Snd, RescueChain::Rcv];
        if let Some(tcb) = self.sockets.get(sock).and_then(|s| s.tcb.as_ref()) {
            targets.extend(tcb.reass_keys().into_iter().map(RescueChain::Reass));
        }
        for which in targets {
            loop {
                // Locate the first outboard descriptor of this interface.
                let found = {
                    let Some(s) = self.sockets.get(sock) else {
                        break;
                    };
                    let Some(chain) = which.chain(s) else {
                        break;
                    };
                    let mut off = 0usize;
                    let mut hit = None;
                    for m in chain.iter() {
                        if let MbufData::Wcab(d) = m.data() {
                            if d.cab == iface_id.0 {
                                hit = Some((off, *d));
                                break;
                            }
                        }
                        off += m.len();
                    }
                    hit
                };
                let Some((off, d)) = found else {
                    break;
                };
                let (mut buf, ticket) = self.cluster_alloc(d.len);
                self.with_cab(iface_id, |k, cab| {
                    // A buffer already gone reads as zeros; the peer's
                    // checksum rejects any segment built from it.
                    let _ = cab.cab.read_packet(PacketId(d.packet), d.off, &mut buf);
                    cab.health.stats.rescued_bytes += d.len as u64;
                    let cost = k.memsys.read_cost(d.len, d.len.max(4096));
                    k.cpu_dur(cost, Charge::Interrupt);
                });
                let rescued_mbuf = Mbuf::kernel(self.cluster_freeze(buf, ticket));
                let Some(s) = self.sockets.get_mut(sock) else {
                    break;
                };
                let Some(chain) = which.chain_mut(s) else {
                    break;
                };
                chain.splice(off, d.len, rescued_mbuf);
                rescued = true;
            }
        }
        rescued
    }

    /// Issue a receive copy-out, falling back to programmed I/O with a
    /// synthesized completion event when the engine refuses the request.
    /// The data still reaches its destination; only the transfer is slower
    /// (and charged to the CPU instead of the engine).
    pub(crate) fn sdma_rx_resilient(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        req: SdmaRx,
        now: Time,
        mem: &mut HostMem,
    ) {
        match cab.cab.sdma_rx(req, now, mem) {
            Ok(ev) => k.fx.push(Effect::Cab { iface, event: ev }),
            Err(e) => {
                let (buf, ticket) = Kernel::pio_read(k, cab, iface, &req, &e, now);
                let data = match req.dst {
                    SdmaDst::User { task, vaddr } => {
                        if mem.write_user(task, vaddr, &buf).is_err() {
                            k.stats.user_mem_faults += 1;
                        }
                        if let (Some(p), Some(t)) = (&k.pool, ticket) {
                            p.release(buf, t);
                        }
                        None
                    }
                    SdmaDst::Kernel => Some(k.cluster_freeze(buf, ticket)),
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
    /// and the packet is freed when the request asked for that and no
    /// wedged engine still owns it.
    pub(crate) fn pio_read(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        req: &SdmaRx,
        e: &CabError,
        now: Time,
    ) -> (Vec<u8>, Option<Ticket>) {
        Kernel::watchdog_on_wedge(k, cab, iface, e);
        let (mut buf, ticket) = k.cluster_alloc(req.len);
        let _ = cab.cab.read_packet(req.packet, req.src_off, &mut buf);
        let cost = k.memsys.read_cost(req.len, req.len.max(4096));
        k.cpu_dur(cost, Charge::Interrupt);
        // A wedged engine holds the buffer until board reset; PIO may
        // still read the bytes, but the host must not free.
        if req.free_packet && !matches!(e, CabError::EngineWedged(_)) {
            cab.cab.free_packet(req.packet, now);
        }
        cab.health.stats.pio_fallbacks += 1;
        (buf, ticket)
    }
}
