//! Kernel receive paths: frame arrival, the CAB receive interrupt, IP
//! input (validation, reassembly, forwarding, demux), TCP/UDP segment
//! input, SDMA completion handling (including the `M_UIO` → `M_WCAB`
//! conversion that realizes §4.2), and TCP timers.

use super::{Kernel, TxMeta};
use crate::driver::{IfaceHealth, IfaceKind, SdmaPurpose};
use crate::ip::FragKey;
use crate::socket::{KqEntry, Owner};
use crate::tcp::{AckMode, SegmentPlan};
use crate::types::{Effect, IfaceId, Proto, SockAddr, SockId, TimerKind};
use bytes::Bytes;
use outboard_cab::{PacketId, SdmaDst, SdmaRx};
use outboard_host::{Charge, HostMem, UserMemory};
use outboard_mbuf::{Chain, Mbuf, MbufData, WcabDesc};
use outboard_sim::span::{FlowId, Stage};
use outboard_sim::Time;
use outboard_wire::hippi::{HippiHeader, HIPPI_HEADER_LEN};
use outboard_wire::ipv4::Ipv4Header;
use outboard_wire::tcp::{TcpFlags, TcpHeader};
use outboard_wire::udp::{UdpHeader, UDP_HEADER_LEN};
use outboard_wire::{proto, EtherHeader};
use std::net::Ipv4Addr;

/// Everything IP input needs to know about where a packet's bytes are.
struct RxPacket {
    iface: IfaceId,
    /// Kernel-resident prefix, starting at the IP header (the Ethernet
    /// driver delivers the whole packet here; the CAB delivers the auto-DMA
    /// words).
    prefix: Bytes,
    /// Outboard remainder: packet id and the full frame length.
    outboard: Option<(PacketId, usize)>,
    /// Hardware checksum over the transport area, when the frame came
    /// through a CAB.
    hw_csum: Option<u16>,
    /// Byte offset of the IP header within the original frame (HIPPI
    /// framing length for CAB packets; irrelevant otherwise).
    frame_ip_off: usize,
    /// Loopback frames skip checksum verification (BSD does too).
    trusted: bool,
}

impl Kernel {
    // ------------------------------------------------------------------
    // frame arrival
    // ------------------------------------------------------------------

    /// A frame arrives from the medium at this interface.
    pub fn frame_arrive(
        &mut self,
        iface: IfaceId,
        frame: Bytes,
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        match &self.ifaces[iface.0 as usize].kind {
            IfaceKind::Cab(_) => {
                // Hardware path: no CPU until the receive interrupt.
                let flow = if self.spans.on() {
                    super::frame_flow(&frame, HIPPI_HEADER_LEN)
                } else {
                    FlowId::NONE
                };
                let frame_len = frame.len() as u64;
                self.with_cab(iface, |k, cab| {
                    let ev = cab.cab.receive_frame(frame, now);
                    if k.spans.on() {
                        k.spans.span(flow, Stage::MdmaRx, now, ev.at(), frame_len);
                    }
                    k.fx.push(Effect::Cab { iface, event: ev });
                });
            }
            IfaceKind::Eth(_) => {
                // Conventional device: interrupt + copy into mbufs.
                self.cpu(self.costs.interrupt, Charge::Interrupt);
                let copy = self.memsys.copy_cost(frame.len(), frame.len().max(4096));
                self.cpu_dur(copy, Charge::Interrupt);
                match EtherHeader::parse(&frame) {
                    Ok(_) => {
                        let rx = RxPacket {
                            iface,
                            prefix: frame.slice(outboard_wire::ether::ETHER_HEADER_LEN..),
                            outboard: None,
                            hw_csum: None,
                            frame_ip_off: 0,
                            trusted: false,
                        };
                        self.ip_input(rx, mem, now);
                    }
                    Err(_) => self.stats.ip_errors += 1,
                }
            }
            IfaceKind::Loopback => {
                self.cpu(self.costs.interrupt, Charge::Interrupt);
                let rx = RxPacket {
                    iface,
                    prefix: frame,
                    outboard: None,
                    hw_csum: None,
                    frame_ip_off: 0,
                    trusted: true,
                };
                self.ip_input(rx, mem, now);
            }
        }
        self.take_effects()
    }

    /// The CAB's receive interrupt: the first L words are in host memory,
    /// the body checksum is computed, large packets wait outboard (§2.2).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub fn rx_interrupt(
        &mut self,
        iface: IfaceId,
        packet: Option<PacketId>,
        autodma: Bytes,
        hw_csum: u16,
        frame_len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        self.cpu(self.costs.interrupt, Charge::Interrupt);
        // A board reset between this frame's arrival and its interrupt frees
        // the outboard buffer, but the interrupt (with its pre-reset hardware
        // checksum) still lands. Trusting it would queue a descriptor whose
        // checksum verifies against bytes that no longer exist — silent
        // corruption at the application. The frame died with the reset:
        // discard it here and let the transport retransmit.
        if let Some(p) = packet {
            let stale = self.with_cab(iface, |_k, cab| {
                if cab.cab.packet_exists(p) {
                    false
                } else {
                    cab.health.stats.stale_rx_drops += 1;
                    true
                }
            });
            if stale {
                return self.take_effects();
            }
        }
        if autodma.len() < HIPPI_HEADER_LEN {
            self.stats.ip_errors += 1;
            return self.take_effects();
        }
        match HippiHeader::parse(&autodma) {
            Ok(_) => {}
            Err(_) if frame_len > autodma.len() => {
                // d2_size extends beyond the auto-DMA prefix: fine.
            }
            Err(_) => {
                self.stats.ip_errors += 1;
                return self.take_effects();
            }
        }
        // The unmodified stack ignores the hardware checksum — verifying
        // in software is exactly the per-byte cost the paper measures it
        // paying.
        let hw = (self.cfg.mode == crate::types::StackMode::SingleCopy).then_some(hw_csum);
        if self.spans.on() {
            // The demux stage covers the interrupt + IP + transport input
            // CPU work charged on this path.
            let flow = super::frame_flow(&autodma, HIPPI_HEADER_LEN);
            let end = now + self.costs.demux;
            self.spans
                .span(flow, Stage::Demux, now, end, frame_len as u64);
        }
        let rx = RxPacket {
            iface,
            prefix: autodma.slice(HIPPI_HEADER_LEN..),
            outboard: packet.map(|p| (p, frame_len)),
            hw_csum: hw,
            frame_ip_off: HIPPI_HEADER_LEN,
            trusted: false,
        };
        self.ip_input(rx, mem, now);
        self.take_effects()
    }

    // ------------------------------------------------------------------
    // IP input
    // ------------------------------------------------------------------

    fn is_local_ip(&self, ip: Ipv4Addr) -> bool {
        self.ifaces.iter().any(|i| i.ip == ip)
    }

    fn ip_input(&mut self, rx: RxPacket, mem: &mut HostMem, now: Time) {
        self.cpu(self.costs.ip, Charge::Interrupt);
        self.stats.rx_packets += 1;
        let available = rx
            .outboard
            .map(|(_, flen)| flen - rx.frame_ip_off)
            .unwrap_or(rx.prefix.len());
        let hdr = match Ipv4Header::parse_with_limit(&rx.prefix, available) {
            Ok(h) => h,
            Err(_) => {
                self.stats.ip_errors += 1;
                self.discard_outboard(&rx, now);
                return;
            }
        };
        self.stats.rx_bytes += hdr.total_len as u64;

        if !self.is_local_ip(hdr.dst) {
            self.ip_forward(rx, hdr, mem, now);
            return;
        }

        // Build the payload chain: kernel prefix + outboard remainder.
        let ihl = hdr.header_len as usize;
        let total = hdr.total_len as usize;
        let payload = self.build_rx_chain(&rx, ihl, total, now);

        if hdr.is_fragment() {
            self.stats.frags_reassembled += 1;
            let key = FragKey {
                src: hdr.src,
                dst: hdr.dst,
                proto: hdr.protocol,
                id: hdr.id,
            };
            // Per-fragment hardware partials combine across the datagram.
            let frag_hw = rx
                .hw_csum
                .filter(|_| rx.outboard.is_some() || rx.hw_csum.is_some());
            if let Some(done) = self.reass.feed(key, &hdr, payload, frag_hw) {
                self.dispatch_transport(
                    rx.iface,
                    hdr.src,
                    hdr.dst,
                    hdr.protocol,
                    done.payload,
                    done.hw_sum,
                    rx.trusted,
                    mem,
                    now,
                );
            }
            return;
        }
        self.dispatch_transport(
            rx.iface,
            hdr.src,
            hdr.dst,
            hdr.protocol,
            payload,
            rx.hw_csum,
            rx.trusted,
            mem,
            now,
        );
    }

    /// Assemble the receive chain: the paper's mbuf holding the first 176
    /// words, plus an `M_WCAB` descriptor for the outboard remainder.
    ///
    /// The *unmodified* stack does not know about `M_WCAB`: its driver
    /// DMAs the whole packet into kernel mbufs at receive time (the CAB
    /// used as a conventional device), so the chain it builds is all
    /// kernel-resident.
    fn build_rx_chain(&mut self, rx: &RxPacket, ihl: usize, total: usize, now: Time) -> Chain {
        let mut chain = Chain::new();
        let kernel_end = rx.prefix.len().min(total);
        if kernel_end > ihl {
            chain.append(Mbuf::kernel(rx.prefix.slice(ihl..kernel_end)));
        }
        if let Some((packet, _flen)) = rx.outboard {
            let out_len = total - kernel_end;
            if out_len > 0 && self.cfg.mode == crate::types::StackMode::Unmodified {
                // Traditional receive: copy-in to kernel buffers via DMA
                // and free the outboard buffer immediately.
                let iface = rx.iface;
                let src_off = rx.frame_ip_off + kernel_end;
                let data = self.with_cab(iface, |k, cab| {
                    let token = cab.issue(SdmaPurpose::TxPlain);
                    let req = SdmaRx {
                        packet,
                        src_off,
                        len: out_len,
                        dst: SdmaDst::Kernel,
                        free_packet: true,
                        interrupt_on_complete: false,
                        token,
                    };
                    let mut dummy = outboard_host::HostMem::new();
                    match cab.cab.sdma_rx(req, now, &mut dummy) {
                        Ok(ev) => {
                            let data = match &ev {
                                outboard_cab::CabEvent::SdmaDone { data, .. } => {
                                    data.as_ref().cloned().unwrap_or_default()
                                }
                                _ => Bytes::new(),
                            };
                            k.fx.push(Effect::Cab { iface, event: ev });
                            data
                        }
                        Err(e) => {
                            // Engine refused the copy-in: fall back to
                            // programmed I/O so the packet still arrives.
                            cab.complete(token);
                            let (buf, ticket) = Kernel::pio_read(k, cab, iface, &req, &e, now);
                            k.cluster_freeze(buf, ticket)
                        }
                    }
                });
                let m = Mbuf::kernel(data);
                self.mbuf_stats.count(&m);
                chain.append(m);
                return chain;
            }
            if out_len > 0 {
                let desc = WcabDesc {
                    cab: rx.iface.0,
                    packet: packet.0,
                    off: rx.frame_ip_off + kernel_end,
                    len: out_len,
                    hw_csum: rx.hw_csum.unwrap_or(0),
                };
                let m = Mbuf::wcab(desc);
                self.mbuf_stats.count(&m);
                chain.append(m);
                self.with_cab(rx.iface, |_k, cab| cab.hold_rx(packet, out_len));
            } else {
                // Nothing left outboard: release immediately.
                self.with_cab(rx.iface, |_k, cab| {
                    cab.cab.free_packet(packet, now);
                });
            }
        }
        chain
    }

    /// Free an outboard buffer for a packet we are dropping.
    fn discard_outboard(&mut self, rx: &RxPacket, now: Time) {
        if let Some((packet, _)) = rx.outboard {
            self.with_cab(rx.iface, |_k, cab| {
                cab.forget(packet);
                cab.cab.free_packet(packet, now);
            });
        }
    }

    /// Discard a payload chain, releasing any outboard buffers it covers.
    /// The chain is owned, so its descriptors are walked in place — no
    /// intermediate `Vec` of descriptors.
    fn discard_chain(&mut self, chain: Chain, now: Time) {
        for m in chain.iter() {
            let MbufData::Wcab(d) = m.data() else {
                continue;
            };
            let d = *d;
            let packet = PacketId(d.packet);
            self.with_cab(IfaceId(d.cab), |_k, cab| {
                if cab.rx_consume(packet, d.len) {
                    cab.cab.free_packet(packet, now);
                }
            });
        }
    }

    /// Forward a packet between interfaces (§4.1's argument for one stack).
    fn ip_forward(&mut self, rx: RxPacket, mut hdr: Ipv4Header, mem: &mut HostMem, now: Time) {
        if hdr.ttl <= 1 {
            self.stats.ip_errors += 1;
            self.discard_outboard(&rx, now);
            return;
        }
        let Some(out_iface) = self.routes.lookup(hdr.dst) else {
            self.stats.ip_errors += 1;
            self.discard_outboard(&rx, now);
            return;
        };
        let ihl = hdr.header_len as usize;
        let total = hdr.total_len as usize;
        let payload = self.build_rx_chain(&rx, ihl, total, now);
        // Decrement TTL (ip_output rebuilds the header checksum; a real
        // stack would use the RFC 1624 incremental update).
        hdr.ttl -= 1;
        // Materialize through the conversion layer and retransmit. The
        // payload chain may reference outboard memory; flatten reads it.
        let flat = self.flatten_for_legacy(&payload, mem);
        self.discard_chain(payload, now);
        let chain = Chain::from_slice(&flat);
        self.cpu(self.costs.ip, Charge::Interrupt);
        self.ip_output(
            hdr.src,
            hdr.dst,
            hdr.protocol,
            chain,
            out_iface,
            TxMeta::plain(),
            mem,
            now,
        );
    }

    // ------------------------------------------------------------------
    // transport demux
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    fn dispatch_transport(
        &mut self,
        iface: IfaceId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        payload: Chain,
        hw_csum: Option<u16>,
        trusted: bool,
        mem: &mut HostMem,
        now: Time,
    ) {
        match protocol {
            proto::TCP => self.tcp_rx(iface, src, dst, payload, hw_csum, trusted, mem, now),
            proto::UDP => self.udp_rx(iface, src, dst, payload, hw_csum, trusted, mem, now),
            proto::ICMP => self.icmp_rx(src, dst, payload, mem, now),
            p => {
                // Raw-IP in-kernel handlers (§5).
                if let Some(&sock) = self.raw_protos.get(&p) {
                    let from = SockAddr::new(src, 0);
                    self.deliver_to_kernel_queue(sock, payload, from, mem, now);
                } else {
                    self.stats.no_socket_drops += 1;
                    self.discard_chain(payload, now);
                }
            }
        }
    }

    /// Pull the transport header bytes out of the chain's kernel prefix.
    /// Zero-copy: `Bytes::slice` just bumps the refcount on the backing
    /// buffer, so demux never duplicates header bytes.
    fn transport_header_bytes(&self, chain: &Chain, max: usize) -> Option<Bytes> {
        let first = chain.iter().next()?;
        let b = first.kernel_bytes()?;
        Some(b.slice(..b.len().min(max)))
    }

    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    fn tcp_rx(
        &mut self,
        iface: IfaceId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        mut payload: Chain,
        hw_csum: Option<u16>,
        trusted: bool,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.tcp_input, Charge::Interrupt);
        let transport_len = payload.len();
        let Some(hdr_bytes) = self.transport_header_bytes(&payload, 60) else {
            self.stats.ip_errors += 1;
            self.discard_chain(payload, now);
            return;
        };
        let Ok(thdr) = TcpHeader::parse(&hdr_bytes) else {
            self.stats.ip_errors += 1;
            self.discard_chain(payload, now);
            return;
        };
        // Checksum verification (§4.3): hardware sum adjusted by the
        // pseudo-header, or a software read on the traditional path.
        let valid = if trusted {
            true
        } else if let Some(hw) = hw_csum {
            crate::udp::verify_hw(src, dst, proto::TCP, transport_len, hw)
        } else {
            // Freshly-DMAed data is cache-cold: no locality for the read.
            let cold = self.memsys.config().read_nolocality_at;
            let cost = self.memsys.read_cost(transport_len, cold);
            self.cpu_dur(cost, Charge::Interrupt);
            let pseudo = outboard_wire::checksum::pseudo_header_sum(
                src.octets(),
                dst.octets(),
                proto::TCP,
                transport_len as u16,
            );
            let sum = self.software_chain_sum(&payload, mem);
            outboard_wire::checksum::add16(pseudo, sum) == 0xFFFF
        };
        if !valid {
            self.stats.csum_errors += 1;
            self.discard_chain(payload, now);
            return;
        }
        payload.drop_front((thdr.header_len as usize).min(payload.len()));

        let local = SockAddr::new(dst, thdr.dst_port);
        let remote = SockAddr::new(src, thdr.src_port);
        let sock = self
            .conns
            .get(&(Proto::Tcp, local, remote))
            .copied()
            .or_else(|| {
                self.ports
                    .get(&(Proto::Tcp, thdr.dst_port))
                    .copied()
                    .filter(|s| {
                        self.sockets
                            .get(*s)
                            .map(|s| s.is_listener())
                            .unwrap_or(false)
                    })
            });
        let Some(sock) = sock else {
            // No one listening: RST per RFC 793.
            self.discard_chain(payload, now);
            let data_len = transport_len - thdr.header_len as usize;
            let (seq, ack, flags) = if thdr.flags.ack() {
                (thdr.ack, 0, TcpFlags::RST)
            } else {
                (
                    0,
                    thdr.seq
                        .wrapping_add(data_len as u32)
                        .wrapping_add(u32::from(thdr.flags.syn())),
                    TcpFlags::RST | TcpFlags::ACK,
                )
            };
            self.emit_rst(local, remote, seq, ack, flags, mem, now);
            return;
        };

        // A demux entry that outlived its socket: drop and count.
        let Some((listening, owner)) = self.sockets.get(sock).map(|s| (s.is_listener(), s.owner))
        else {
            self.stats.no_socket_drops += 1;
            self.discard_chain(payload, now);
            return;
        };
        // A SYN to a listener spawns a child connection (§4.1's single
        // stack: the child lives on whatever interface the SYN arrived on).
        let sock = if listening && thdr.flags.syn() && !thdr.flags.ack() {
            self.spawn_child(sock, owner, iface, local, remote)
        } else {
            sock
        };

        self.tcp_input_segment(sock, &thdr, payload, mem, now);
    }

    fn spawn_child(
        &mut self,
        listener: SockId,
        owner: Owner,
        iface: IfaceId,
        local: SockAddr,
        remote: SockAddr,
    ) -> SockId {
        // The child is owned as its listener is.
        let child = match owner {
            Owner::User => self.sys_socket(Proto::Tcp),
            Owner::Kernel => self.kernel_socket(Proto::Tcp),
        };
        let iface_mss = self.ifaces[iface.0 as usize].tcp_mss();
        let buf = self.cfg.sock_buf;
        let nagle = self.effective_nagle();
        let iss = self.next_iss();
        let mut tcb = crate::tcp::Tcb::new(&self.cfg, iss, nagle);
        tcb.listen(iface_mss, buf);
        let Some(s) = self.sockets.get_mut(child) else {
            return child;
        };
        s.local = Some(local);
        s.remote = Some(remote);
        s.iface_hint = Some(iface);
        s.listen_parent = Some(listener);
        s.tcb = Some(tcb);
        self.conns.insert((Proto::Tcp, local, remote), child);
        child
    }

    /// Core TCP segment processing against a socket's TCB.
    pub(crate) fn tcp_input_segment(
        &mut self,
        sock: SockId,
        thdr: &TcpHeader,
        data: Chain,
        mem: &mut HostMem,
        now: Time,
    ) {
        let r = {
            let Some(s) = self.sockets.get_mut(sock) else {
                self.discard_chain(data, now);
                return;
            };
            let rcv_space = s.so_rcv.space();
            let Some(tcb) = s.tcb.as_mut() else {
                self.discard_chain(data, now);
                return;
            };
            tcb.input(thdr, data, rcv_space, now)
        };

        // RST out for pathological segments.
        if let Some((seq, ack, flags)) = r.rst_out {
            let endpoints = self.sockets.get(sock).and_then(|s| s.local.zip(s.remote));
            if let Some((local, remote)) = endpoints {
                self.emit_rst(local, remote, seq, ack, flags, mem, now);
            }
        }

        // Newly acknowledged data: drop from so_snd, free outboard buffers.
        if r.acked_bytes > 0 {
            self.span_ack(sock, r.acked_bytes as u64, now);
            self.ack_free(sock, r.acked_bytes, now);
            // Restart the retransmission timer from the new left edge.
            if let Some(s) = self.sockets.get_mut(sock) {
                s.rexmt_armed = false;
            }
        }

        // Deliver in-order data.
        let mut delivered = false;
        for c in r.deliver {
            delivered = true;
            self.deliver_data(sock, c, None, now);
        }

        // Connection events.
        if r.connected {
            self.on_connected(sock);
        }
        if r.fin_reached {
            if let Some(s) = self.sockets.get_mut(sock) {
                s.rcv_eof = true;
                if let Some(w) = s.waiting_reader.take() {
                    self.wake(w.task, sock, Charge::Interrupt);
                }
            }
        }
        if delivered {
            let (waker, kernel_chain) = {
                let Some(s) = self.sockets.get_mut(sock) else {
                    return;
                };
                let waker = s.waiting_reader.take();
                let kernel_chain = if s.owner == Owner::Kernel {
                    // TCP in-kernel applications read the byte stream via
                    // the ordered conversion queue.
                    let chain = std::mem::take(&mut s.so_rcv.chain);
                    let from = s.remote.unwrap_or(SockAddr::new(Ipv4Addr::UNSPECIFIED, 0));
                    Some((chain, from))
                } else {
                    None
                };
                (waker, kernel_chain)
            };
            if let Some(w) = waker {
                self.wake(w.task, sock, Charge::Interrupt);
            }
            if let Some((chain, from)) = kernel_chain {
                self.deliver_to_kernel_queue(sock, chain, from, mem, now);
            }
        }

        // Writers may continue when ACKs freed space.
        if r.writer_space_freed {
            self.append_write_chunks(sock, mem, Charge::Interrupt, now);
            // Traditional-path writes complete once fully copied.
            let wake = {
                match self.sockets.get_mut(sock) {
                    Some(s) => match s.blocked_write {
                        Some(bw) if !bw.uio_path && bw.appended == bw.total => {
                            s.blocked_write = None;
                            Some(bw.task)
                        }
                        _ => None,
                    },
                    None => None,
                }
            };
            if let Some(task) = wake {
                self.wake(task, sock, Charge::Interrupt);
            }
        }

        if r.closed {
            self.teardown(sock, now);
            return;
        }

        // Output follow-ups: forced ACK / window-opened transmission.
        let force = r.ack == AckMode::Now;
        if force || r.need_output || r.writer_space_freed {
            self.tcp_send(sock, mem, now, force);
        } else if r.ack == AckMode::Delayed {
            self.arm_tcp_timers(sock);
        }

        // TIME_WAIT arming; a retransmission timer still pending dies with
        // the connection's send side.
        if let Some(s) = self.sockets.get_mut(sock).filter(|_| r.time_wait) {
            s.rexmt_armed = false;
            self.fx.push(Effect::Timer {
                after: self.cfg.time_wait,
                kind: TimerKind::TcpTimeWait { sock },
            });
        }
    }

    /// Append received data to `so_rcv` (datagram bounds for UDP).
    fn deliver_data(
        &mut self,
        sock: SockId,
        chain: Chain,
        dgram_from: Option<SockAddr>,
        now: Time,
    ) {
        let Some(s) = self.sockets.get_mut(sock) else {
            self.discard_chain(chain, now);
            return;
        };
        let blen = chain.len() as u64;
        // Kernel-owner sockets drain so_rcv synchronously (conversion
        // queue), so only user sockets accrue sockbuf-dwell spans.
        let track = s.owner != Owner::Kernel;
        if let Some(from) = dgram_from {
            s.dgram_bounds.push_back((chain.len(), from));
        }
        s.so_rcv.chain.concat(chain);
        if track {
            self.span_sockbuf_enqueue(sock, blen, now);
        }
    }

    fn on_connected(&mut self, sock: SockId) {
        let (connector, parent) = {
            let Some(s) = self.sockets.get_mut(sock) else {
                return;
            };
            (s.connector.take(), s.listen_parent)
        };
        if let Some(task) = connector {
            self.wake(task, sock, Charge::Interrupt);
        }
        if let Some(parent) = parent {
            let acceptor = {
                let Some(p) = self.sockets.get_mut(parent) else {
                    return;
                };
                p.accept_queue.push_back(sock);
                p.acceptor.take()
            };
            if let Some(task) = acceptor {
                self.wake(task, parent, Charge::Interrupt);
            }
        }
    }

    /// ACK processing: drop acknowledged bytes from the send queue and free
    /// the outboard packets they lived in.
    fn ack_free(&mut self, sock: SockId, bytes: usize, now: Time) {
        let dropped = {
            let Some(s) = self.sockets.get_mut(sock) else {
                return;
            };
            let n = bytes.min(s.so_snd.chain.len());
            s.so_snd.chain.split_front(n)
        };
        for m in dropped.iter() {
            if let MbufData::Wcab(d) = m.data() {
                self.with_cab(IfaceId(d.cab), |_k, cab| {
                    cab.tx_ack(PacketId(d.packet), d.len, now);
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // UDP input
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    fn udp_rx(
        &mut self,
        _iface: IfaceId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        mut payload: Chain,
        hw_csum: Option<u16>,
        trusted: bool,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.udp, Charge::Interrupt);
        let transport_len = payload.len();
        let Some(hdr_bytes) = self.transport_header_bytes(&payload, UDP_HEADER_LEN) else {
            self.stats.ip_errors += 1;
            self.discard_chain(payload, now);
            return;
        };
        let Ok(uhdr) = UdpHeader::parse_with_available(&hdr_bytes, transport_len) else {
            self.stats.ip_errors += 1;
            self.discard_chain(payload, now);
            return;
        };
        let valid = if trusted || uhdr.checksum == 0 {
            true
        } else if let Some(hw) = hw_csum {
            crate::udp::verify_hw(src, dst, proto::UDP, transport_len, hw)
        } else {
            let cold = self.memsys.config().read_nolocality_at;
            let cost = self.memsys.read_cost(transport_len, cold);
            self.cpu_dur(cost, Charge::Interrupt);
            let pseudo = outboard_wire::checksum::pseudo_header_sum(
                src.octets(),
                dst.octets(),
                proto::UDP,
                transport_len as u16,
            );
            let sum = self.software_chain_sum(&payload, mem);
            outboard_wire::checksum::add16(pseudo, sum) == 0xFFFF
        };
        if !valid {
            self.stats.csum_errors += 1;
            self.discard_chain(payload, now);
            return;
        }
        payload.drop_front(UDP_HEADER_LEN.min(payload.len()));
        payload.truncate(payload.len().min(uhdr.payload_len()));

        let Some(&sock) = self.ports.get(&(Proto::Udp, uhdr.dst_port)) else {
            self.stats.no_socket_drops += 1;
            self.discard_chain(payload, now);
            return;
        };
        // A port binding that outlived its socket drops like an unbound port.
        let Some((owner, space)) = self.sockets.get(sock).map(|s| (s.owner, s.so_rcv.space()))
        else {
            self.stats.no_socket_drops += 1;
            self.discard_chain(payload, now);
            return;
        };
        let from = SockAddr::new(src, uhdr.src_port);
        self.stats.udp_datagrams_in += 1;
        match owner {
            Owner::Kernel => self.deliver_to_kernel_queue(sock, payload, from, mem, now),
            Owner::User => {
                // Respect the receive buffer (datagrams drop when full).
                if space < payload.len() {
                    self.stats.no_socket_drops += 1;
                    self.discard_chain(payload, now);
                    return;
                }
                self.deliver_data(sock, payload, Some(from), now);
                let waker = self
                    .sockets
                    .get_mut(sock)
                    .and_then(|s| s.waiting_reader.take());
                if let Some(w) = waker {
                    self.wake(w.task, sock, Charge::Interrupt);
                }
            }
        }
    }

    /// §5: queue a chain for an in-kernel application, converting `M_WCAB`
    /// descriptors to regular mbufs by asynchronous DMA while preserving
    /// arrival order.
    pub(crate) fn deliver_to_kernel_queue(
        &mut self,
        sock: SockId,
        chain: Chain,
        from: SockAddr,
        mem: &mut HostMem,
        now: Time,
    ) {
        let serial = self.kq_serial;
        self.kq_serial += 1;
        // Issue conversions before queueing (chain offsets are stable: the
        // entry chain is not consumed until fully converted).
        let mut converting = 0usize;
        let mut chain_off = 0usize;
        for m in chain.iter() {
            let off = chain_off;
            chain_off += m.len();
            let MbufData::Wcab(d) = m.data() else {
                continue;
            };
            let d = *d;
            converting += d.len;
            self.stats.wcab_to_regular += 1;
            let packet = PacketId(d.packet);
            let iface = IfaceId(d.cab);
            let purpose = SdmaPurpose::RxToKernel {
                sock,
                serial,
                chain_off: off,
                len: d.len,
            };
            self.with_cab(iface, |k, cab| {
                let free = cab.rx_consume(packet, d.len);
                let token = cab.issue(purpose);
                let req = SdmaRx {
                    packet,
                    src_off: d.off,
                    len: d.len,
                    dst: SdmaDst::Kernel,
                    free_packet: free,
                    interrupt_on_complete: true,
                    token,
                };
                Kernel::sdma_rx_resilient(k, cab, iface, req, now, mem);
            });
        }
        let ready = converting == 0;
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        s.kq.push_back(KqEntry {
            serial,
            chain,
            from,
            converting,
        });
        if ready && s.kq.len() == 1 {
            self.fx.push(Effect::KernelReady { sock });
        }
    }

    // ------------------------------------------------------------------
    // ICMP (the resident in-kernel application)
    // ------------------------------------------------------------------

    fn icmp_rx(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Chain,
        mem: &mut HostMem,
        now: Time,
    ) {
        // ICMP messages are small; flatten through the conversion layer.
        let flat = self.flatten_for_legacy(&payload, mem);
        self.discard_chain(payload, now);
        if let Some((kind, ident, seq, data)) = crate::ip::icmp::parse_echo(&flat) {
            if kind == crate::ip::icmp::ECHO_REQUEST {
                // Reply goes out from our address to the requester.
                self.icmp_reply(dst, src, ident, seq, data, mem, now);
            }
        } else {
            self.stats.ip_errors += 1;
        }
    }

    // ------------------------------------------------------------------
    // SDMA completion
    // ------------------------------------------------------------------

    /// An SDMA request completed (the end-of-DMA notification, §4.4.2).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub fn sdma_done(
        &mut self,
        iface: IfaceId,
        token: u64,
        interrupt: bool,
        data: Option<Bytes>,
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        if interrupt {
            self.cpu(self.costs.interrupt, Charge::Interrupt);
        }
        let purpose = self.with_cab(iface, |_k, cab| cab.complete(token));
        let Some(purpose) = purpose else {
            return self.take_effects();
        };
        match purpose {
            SdmaPurpose::TxPlain => {}
            SdmaPurpose::TxSegment {
                sock,
                seq_lo,
                data_len,
                packet,
                hdr_len,
                pinned,
            } => {
                self.convert_uio_to_wcab(sock, iface, seq_lo, data_len, packet, hdr_len);
                if let Some((task, vaddr, len)) = pinned {
                    let cost = self.vm.release(task, vaddr, len);
                    self.cpu_dur(cost, Charge::Interrupt);
                }
            }
            SdmaPurpose::RxToUser {
                sock,
                bytes,
                copy_dst,
            } => {
                if let (Some(bytes_data), Some((task, vaddr))) = (&data, copy_dst) {
                    // §4.5 unaligned fallback: finish with a CPU copy.
                    let cost = self
                        .memsys
                        .copy_cost(bytes_data.len(), bytes_data.len().max(4096));
                    self.cpu_dur(cost, Charge::Interrupt);
                    if mem.write_user(task, vaddr, bytes_data).is_err() {
                        self.stats.user_mem_faults += 1;
                    }
                }
                let done = {
                    let Some(s) = self.sockets.get(sock) else {
                        return self.take_effects();
                    };
                    s.blocked_read
                        .map(|br| (br.counter, br.task, br.pinned_vaddr, br.pinned_len))
                };
                if let Some((counter, task, pv, pl)) = done {
                    if self.uio.complete(counter, bytes).is_some() {
                        let cost = self.vm.release(task, pv, pl);
                        self.cpu_dur(cost, Charge::Interrupt);
                        if let Some(s) = self.sockets.get_mut(sock) {
                            s.blocked_read = None;
                        }
                        self.span_recv_complete(sock, now);
                        self.wake(task, sock, Charge::Interrupt);
                    }
                }
            }
            SdmaPurpose::RxToKernel {
                sock,
                serial,
                chain_off,
                len,
            } => {
                // A fallback completion with a missing or short payload
                // yields zeros of the right geometry; the consumer's
                // integrity checks reject the content, not the kernel.
                let bytes = match data {
                    Some(b) if b.len() == len => b,
                    _ => {
                        let (buf, ticket) = self.cluster_alloc(len);
                        self.cluster_freeze(buf, ticket)
                    }
                };
                let ready = {
                    let Some(s) = self.sockets.get_mut(sock) else {
                        return self.take_effects();
                    };
                    let Some(entry) = s.kq.iter_mut().find(|e| e.serial == serial) else {
                        return self.take_effects();
                    };
                    if chain_off + len <= entry.chain.len() {
                        entry.chain.splice(chain_off, len, Mbuf::kernel(bytes));
                    }
                    entry.converting = entry.converting.saturating_sub(len);
                    entry.converting == 0 && s.kq.front().map(|e| e.serial) == Some(serial)
                };
                if ready {
                    self.fx.push(Effect::KernelReady { sock });
                }
            }
        }
        self.take_effects()
    }

    /// §4.2: after the data is copied outboard, the `M_UIO` range of the
    /// send queue becomes an `M_WCAB` descriptor (retransmittable without
    /// host memory), and the write's UIO counter is credited.
    fn convert_uio_to_wcab(
        &mut self,
        sock: SockId,
        iface: IfaceId,
        seq_lo: u32,
        data_len: usize,
        packet: PacketId,
        hdr_len: usize,
    ) {
        let converted =
            self.replace_snd_range(sock, seq_lo, data_len, Charge::Interrupt, |_, skip, len| {
                Mbuf::wcab(WcabDesc {
                    cab: iface.0,
                    packet: packet.0,
                    off: hdr_len + skip,
                    len,
                    hw_csum: 0,
                })
            });
        if converted {
            self.stats.uio_to_wcab += 1;
        }
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// A timer fired (harness callback). The harness delivers only a
    /// timer's latest arm; whether it does anything is its owner's armed
    /// state (`rexmt_armed`, the delayed-ACK flag, TIME_WAIT, `retry_armed`,
    /// `degraded`, `watchdog_armed`), so a timer disarmed since it was set
    /// is ignored here.
    pub fn timer_fire(&mut self, kind: TimerKind, mem: &mut HostMem, now: Time) -> Vec<Effect> {
        match kind {
            TimerKind::TcpRexmt { sock } => {
                let fired = self.sockets.get_mut(sock).filter(|s| s.rexmt_armed);
                let probe = fired.and_then(|s| {
                    s.rexmt_armed = false;
                    let tcb = s.tcb.as_mut()?;
                    tcb.on_rexmt_timeout();
                    Some(tcb.snd_wnd == 0 && !s.so_snd.chain.is_empty())
                });
                if let Some(probe) = probe {
                    self.cpu(self.costs.interrupt, Charge::Interrupt);
                    if probe {
                        self.send_window_probe(sock, mem, now);
                    } else {
                        self.tcp_send(sock, mem, now, false);
                    }
                    self.arm_tcp_timers(sock);
                }
            }
            TimerKind::TcpDelack { sock } => {
                let fire = self
                    .sockets
                    .get_mut(sock)
                    .and_then(|s| s.tcb.as_mut())
                    .is_some_and(|t| t.take_delack());
                if fire {
                    self.cpu(self.costs.interrupt, Charge::Interrupt);
                    self.tcp_send(sock, mem, now, true);
                }
            }
            TimerKind::TcpTimeWait { sock } => {
                let expire = self
                    .sockets
                    .get_mut(sock)
                    .and_then(|s| s.tcb.as_mut())
                    .is_some_and(|t| t.on_time_wait_expired());
                if expire {
                    self.teardown(sock, now);
                }
            }
            TimerKind::CabRetry { iface } => {
                if self.cab_health(iface).is_some_and(|h| h.retry_armed) {
                    self.cpu(self.costs.interrupt, Charge::Interrupt);
                    self.cab_retry_fire(iface, mem, now);
                }
            }
            TimerKind::CabProbe { iface } => {
                if self.cab_health(iface).is_some_and(|h| h.degraded) {
                    self.cpu(self.costs.interrupt, Charge::Interrupt);
                    self.cab_probe_fire(iface, now);
                }
            }
            TimerKind::CabWatchdog { iface } => {
                if self.cab_health(iface).is_some_and(|h| h.watchdog_armed) {
                    self.cab_watchdog_fire(iface, mem, now);
                }
            }
        }
        self.take_effects()
    }

    /// Health of a CAB interface (none for another kind of interface).
    fn cab_health(&self, iface: IfaceId) -> Option<&IfaceHealth> {
        self.ifaces
            .get(iface.0 as usize)
            .and_then(|i| i.cab_ref())
            .map(|c| &c.health)
    }

    /// Zero-window probe: one byte past the window forces the peer to
    /// re-advertise (BSD's persist logic, folded into the rexmt timer).
    fn send_window_probe(&mut self, sock: SockId, mem: &mut HostMem, now: Time) {
        let (local, remote, plan) = {
            let Some(s) = self.sockets.get(sock) else {
                return;
            };
            let Some(tcb) = s.tcb.as_ref() else {
                return;
            };
            let plan = SegmentPlan {
                seq: tcb.snd_una,
                ack: tcb.rcv_nxt,
                flags: TcpFlags::ACK,
                window: ((s.so_rcv.space() >> tcb.rcv_scale).min(0xFFFF)) as u16,
                data_off: 0,
                data_len: 1.min(s.so_snd.chain.len()),
                mss_opt: None,
                ws_opt: None,
                retransmit: true,
            };
            let (Some(local), Some(remote)) = (s.local, s.remote) else {
                return;
            };
            (local, remote, plan)
        };
        self.emit_tcp_segment(sock, local, remote, &plan, Charge::Interrupt, mem, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_range_substitutes_descriptors() {
        let mut c = Chain::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        c.append(Mbuf::kernel_copy(&[9, 10]));
        let removed = c.splice(2, 5, Mbuf::kernel_copy(&[0xAA; 5]));
        assert_eq!(c.len(), 10);
        assert_eq!(removed.len(), 5);
        let flat = c.flatten_kernel().unwrap();
        assert_eq!(flat, vec![1, 2, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 8, 9, 10]);
        assert_eq!(removed.flatten_kernel().unwrap(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn replace_entire_chain() {
        let mut c = Chain::from_slice(&[1, 2, 3]);
        c.splice(0, 3, Mbuf::kernel_copy(&[7, 7, 7]));
        assert_eq!(c.flatten_kernel().unwrap(), vec![7, 7, 7]);
    }
}
