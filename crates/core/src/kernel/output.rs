//! Kernel transmit paths: TCP segment emission, the shared transport tail
//! (checksum strategy selection), IP output with fragmentation, and the
//! three drivers' output routines.

use super::{Kernel, TxMeta};
use crate::driver::{CabIface, IfaceKind, MdmaJob, PendingTx, SdmaPurpose, TxFrame, TxSegment};
use crate::ip;
use crate::socket::Owner;
use crate::tcp::SegmentPlan;
use crate::types::{Effect, IfaceId, SockAddr, SockId, TimerKind};
use bytes::Bytes;
use outboard_cab::{CabError, CabEvent, ChecksumSpec, PacketId, SdmaTx, SgEntry};
use outboard_host::{Charge, HostMem};
use outboard_mbuf::{Chain, CsumPlan, Mbuf, MbufData};
use outboard_sim::span::{FlowId, Stage};
use outboard_sim::{Dur, Time};
use outboard_wire::checksum::pseudo_header_sum;
use outboard_wire::ether::{EtherHeader, ETHER_HEADER_LEN};
use outboard_wire::hippi::{HippiHeader, HIPPI_HEADER_LEN};
use outboard_wire::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use outboard_wire::tcp::{TcpHeader, TCP_CSUM_OFFSET};
use outboard_wire::udp::UdpHeader;
use outboard_wire::{proto, TcpFlags};
use std::net::Ipv4Addr;

/// Delayed-ACK timeout (BSD's fast timer, 200 ms).
const DELACK_TIMEOUT: Dur = Dur::millis(200);

/// The byte counts a traced first launch records on its flow: the copy-in,
/// the checksum the engine computes on the way (when it does), and the
/// media transfer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxSpans {
    flow: FlowId,
    sdma: u64,
    checksum: Option<u64>,
    mdma: u64,
}

/// The spans of a traced launch of `frame` whose copy-in moves `sdma`
/// bytes (the whole frame, or only its header on a header-only
/// retransmit).
fn tx_spans(frame: &TxFrame, flow: FlowId, sdma: usize) -> TxSpans {
    TxSpans {
        flow,
        sdma: sdma as u64,
        checksum: frame.csum.map(|_| frame.data_len as u64),
        mdma: frame.frame_len as u64,
    }
}

/// What a launch that stopped short leaves for the retry timer.
#[derive(Debug)]
pub(crate) struct Stalled {
    /// The transmission to retry.
    pub(crate) entry: PendingTx,
    /// Network memory ran out: nothing was issued.
    pub(crate) no_memory: bool,
}

impl Kernel {
    /// Run tcp_output for a socket: materialize every segment the TCB wants
    /// to send and push it down through IP to the driver.
    pub(crate) fn tcp_send(&mut self, sock: SockId, mem: &mut HostMem, now: Time, force_ack: bool) {
        let (local, remote, mut plans) = {
            let Some(s) = self.sockets.get_mut(sock) else {
                return;
            };
            let (local, remote) = match (s.local, s.remote) {
                (Some(l), Some(r)) => (l, r),
                _ => return,
            };
            let Some(tcb) = s.tcb.as_mut() else { return };
            let snd_q = s.so_snd.chain.len();
            let rcv_space = s.so_rcv.space();
            let plans = std::mem::take(&mut self.plans);
            (
                local,
                remote,
                tcb.output(&mut self.tcpstat, snd_q, rcv_space, force_ack, now, plans),
            )
        };
        for plan in plans.drain(..) {
            self.emit_tcp_segment(sock, local, remote, &plan, Charge::Syscall, mem, now);
        }
        self.plans = plans;
        self.arm_tcp_timers(sock);
    }

    /// Materialize one planned segment and push it down through IP, with
    /// tcp_output's cost charged as `charge` (a syscall, or the timer
    /// interrupt for a window probe).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub(crate) fn emit_tcp_segment(
        &mut self,
        sock: SockId,
        local: SockAddr,
        remote: SockAddr,
        plan: &SegmentPlan,
        charge: Charge,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.tcp_output, charge);
        let data = {
            let Some(s) = self.sockets.get(sock) else {
                return;
            };
            s.so_snd.chain.copy_range(plan.data_off, plan.data_len)
        };
        let mut hdr = TcpHeader::new(local.port, remote.port, plan.seq, plan.ack, plan.flags);
        hdr.window = plan.window;
        hdr.mss = plan.mss_opt;
        hdr.window_scale = plan.ws_opt;
        let flow = if self.spans.on() {
            FlowId::from_parts(super::flow_group(local, remote), plan.seq)
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: plan.seq,
            retransmit: plan.retransmit,
            flow,
        };
        self.stats.tcp_segs_out += 1;
        if self.spans.on() {
            let end = now + self.costs.tcp_output.unwrap_or_default();
            self.spans
                .span(flow, Stage::KernelOutput, now, end, plan.data_len as u64);
        }
        if plan.retransmit {
            self.stats.tcp_retransmit_segs += 1;
            if self.spans.on() {
                self.spans
                    .span(flow, Stage::Retransmit, now, now, plan.data_len as u64);
            }
        }
        self.transport_output(
            local.ip,
            remote.ip,
            proto::TCP,
            hdr.build(),
            TCP_CSUM_OFFSET,
            data,
            meta,
            mem,
            now,
        );
    }

    /// Emit a bare RST (segment to a closed/refusing endpoint).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub(crate) fn emit_rst(
        &mut self,
        local: SockAddr,
        remote: SockAddr,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        mem: &mut HostMem,
        now: Time,
    ) {
        // Count only RSTs that will actually reach a driver; an unroutable
        // one keeps the checksum-conservation invariant honest.
        if self.routes.lookup(remote.ip).is_none() {
            self.stats.ip_errors += 1;
            return;
        }
        self.stats.rst_sent += 1;
        let mut hdr = TcpHeader::new(local.port, remote.port, seq, ack, flags);
        hdr.window = 0;
        self.transport_output(
            local.ip,
            remote.ip,
            proto::TCP,
            hdr.build(),
            TCP_CSUM_OFFSET,
            Chain::new(),
            TxMeta::plain(),
            mem,
            now,
        );
    }

    /// (Re)arm TCP timers after input/output activity.
    pub(crate) fn arm_tcp_timers(&mut self, sock: SockId) {
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        let Some(tcb) = s.tcb.as_mut() else { return };
        if !tcb.wants_rexmt_timer() {
            // Everything acknowledged: a pending firing does nothing.
            s.rexmt_armed = false;
        } else if !s.rexmt_armed {
            s.rexmt_armed = true;
            let kind = TimerKind::TcpRexmt { sock };
            let after = tcb.rto;
            self.fx.push(Effect::Timer { after, kind });
        }
        if tcb.delack_pending {
            let kind = TimerKind::TcpDelack { sock };
            let after = DELACK_TIMEOUT;
            self.fx.push(Effect::Timer { after, kind });
        }
    }

    /// The liveness invariant, checked in debug builds (DESIGN.md §11):
    /// unacknowledged data, SYN or FIN has the retransmit timer armed.
    /// `tcp_send` (every sending syscall, `rebuild_transmit`) establishes
    /// it in `arm_tcp_timers`; TCP input and the rexmt firing check it.
    pub(crate) fn debug_assert_rexmt_covered(&self, sock: SockId) {
        debug_assert!(
            self.sockets.get(sock).is_none_or(
                |s| s.rexmt_armed || !s.tcb.as_ref().is_some_and(|t| t.wants_rexmt_timer())
            ),
            "{}: {sock:?} has unacknowledged data and no retransmit timer armed",
            self.name
        );
    }

    /// Shared TCP/UDP transmit tail: checksum strategy, IP, driver.
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub(crate) fn transport_output(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ip_proto: u8,
        mut thdr: Vec<u8>,
        csum_offset: usize,
        data: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        // Route per packet — §4.1: interface selection is a network-layer
        // decision and may change during a connection's lifetime.
        let Some(iface_id) = self.routes.lookup(dst) else {
            self.stats.ip_errors += 1;
            return;
        };
        let iface = &self.ifaces[iface_id.0 as usize];
        let is_loop = matches!(iface.kind, IfaceKind::Loopback);
        // The unmodified stack never uses the outboard checksum engine —
        // that is exactly the modification under test.
        let single_copy = self.cfg.mode == crate::types::StackMode::SingleCopy
            && iface.single_copy_capable()
            && thdr.len() + data.len() + IPV4_HEADER_LEN <= iface.mtu;
        // A legacy (or size-fallback) path cannot leave M_UIO descriptors
        // in flight: convert at the driver boundary (§5), crediting the
        // writer's counter — the copy has merely been delayed.
        let data = if !single_copy && data.has_uio() {
            self.legacy_convert_uio(&meta, data, mem, now)
        } else {
            data
        };
        let transport_len = thdr.len() + data.len();
        // Account payload pushed through the traditional path because the
        // interface is degraded (it would have gone single-copy otherwise).
        if !single_copy && !data.is_empty() && self.cfg.mode == crate::types::StackMode::SingleCopy
        {
            if let IfaceKind::Cab(c) = &mut self.ifaces[iface_id.0 as usize].kind {
                if c.health.degraded {
                    c.health.stats.fallback_bytes += data.len() as u64;
                }
            }
        }

        let csum_plan = if single_copy {
            // Outboard checksumming (§4.3): seed the checksum field with
            // the host-owned partial sum; the CAB covers the data.
            thdr[csum_offset] = 0;
            thdr[csum_offset + 1] = 0;
            let seed = crate::udp::transport_seed(src, dst, ip_proto, transport_len, &thdr);
            thdr[csum_offset..csum_offset + 2].copy_from_slice(&seed.to_be_bytes());
            self.stats.hw_checksums += 1;
            Some(CsumPlan {
                csum_offset,
                skip_words: thdr.len() / 4,
                seed,
            })
        } else if is_loop {
            // Loopback never corrupts; BSD skips the checksum here too.
            None
        } else {
            // Traditional path: the software checksum read (`Read_C`). The
            // cache working set is the data the sender cycles through — the
            // send queue (§7.3 measures the read over the window size).
            thdr[csum_offset] = 0;
            thdr[csum_offset + 1] = 0;
            let send_queue = meta
                .sock
                .and_then(|s| self.sockets.get(s))
                .map_or(0, |s| s.so_snd.chain.len());
            let pseudo =
                pseudo_header_sum(src.octets(), dst.octets(), ip_proto, transport_len as u16);
            let mut c = !self.checksum_read(pseudo, &thdr, &data, send_queue, mem);
            if ip_proto == proto::UDP {
                c = UdpHeader::encode_checksum(c);
            }
            thdr[csum_offset..csum_offset + 2].copy_from_slice(&c.to_be_bytes());
            self.stats.sw_checksums += 1;
            None
        };

        // The transport packet is the data chain with the header prepended,
        // under a fresh packet header that carries only the checksum plan.
        let mut packet = data;
        packet.hdr = Default::default();
        packet.hdr.csum_plan = csum_plan;
        packet.prepend(Bytes::from(thdr));
        self.ip_output(src, dst, ip_proto, packet, iface_id, meta, mem, now);
    }

    /// IP output: header, fragmentation, dispatch to the driver.
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub(crate) fn ip_output(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ip_proto: u8,
        transport: Chain,
        iface_id: IfaceId,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.ip, Charge::Syscall);
        let mtu = self.ifaces[iface_id.0 as usize].mtu;
        let id = self.ip_id;
        self.ip_id = self.ip_id.wrapping_add(1);

        if transport.len() + IPV4_HEADER_LEN <= mtu {
            let hdr = Ipv4Header::new(src, dst, ip_proto, transport.len(), id);
            self.link_output(iface_id, hdr, transport, meta, mem, now);
            return;
        }
        // Fragment (traditional path only; single-copy packets fit the MTU
        // by construction).
        assert!(
            transport.hdr.csum_plan.is_none(),
            "outboard checksum cannot span fragments"
        );
        let plan = ip::fragment_plan(transport.len(), mtu, IPV4_HEADER_LEN);
        for part in plan {
            let mut hdr = Ipv4Header::new(src, dst, ip_proto, part.len, id);
            hdr.flags_frag = ((part.offset / 8) as u16)
                | if part.more {
                    outboard_wire::ipv4::IP_MF
                } else {
                    0
                };
            let frag = transport.copy_range(part.offset, part.len);
            self.stats.frags_sent += 1;
            self.link_output(iface_id, hdr, frag, TxMeta::plain(), mem, now);
        }
    }

    /// Hand a finished IP packet to the interface's driver.
    fn link_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += ip_hdr.total_len as u64;
        match &self.ifaces[iface_id.0 as usize].kind {
            IfaceKind::Cab(_) => self.cab_output(iface_id, ip_hdr, transport, meta, mem, now),
            IfaceKind::Eth(_) => self.eth_output(iface_id, ip_hdr, transport, mem),
            IfaceKind::Loopback => self.loop_output(iface_id, ip_hdr, transport, mem),
        }
    }

    /// The CAB driver's output routine (§3): all the stack's data-touching
    /// work happens here, in hardware.
    fn cab_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        meta: TxMeta,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.driver_pkt, Charge::Syscall);
        let csum_plan = transport.hdr.csum_plan;
        let frame_len = HIPPI_HEADER_LEN + ip_hdr.total_len as usize;

        self.with_cab(iface_id, |k, cab| {
            let Some(&dst) = cab.arp.get(&ip_hdr.dst) else {
                k.stats.ip_errors += 1;
                return;
            };
            let channel = cab.channel_for(dst);
            let hippi = HippiHeader::new(cab.cab.addr, dst, ip_hdr.total_len as usize, channel);
            let csum = csum_plan.map(|p| ChecksumSpec {
                csum_offset: HIPPI_HEADER_LEN + IPV4_HEADER_LEN + p.csum_offset,
                skip_words: (HIPPI_HEADER_LEN + IPV4_HEADER_LEN) / 4 + p.skip_words,
            });

            // The frame header: HIPPI, IP and the transport header, which
            // is the chain's leading kernel mbuf. It is assembled in the
            // recycled scratch buffer, restored once frozen into `Bytes`.
            let mut mbufs = transport.iter().peekable();
            let mut header = std::mem::take(&mut k.scratch);
            header.clear();
            header.extend_from_slice(&hippi.build());
            header.extend_from_slice(&ip_hdr.build());
            let first = mbufs.next_if(|m| m.kernel_bytes().is_some());
            if let Some(b) = first.and_then(|m| m.kernel_bytes()) {
                header.extend_from_slice(b);
            }
            let hdr_len = header.len();
            // Room for the header and a few payload entries: one
            // allocation for the common frame.
            let mut sg = Vec::with_capacity(4);
            sg.push(SgEntry::Inline(Bytes::copy_from_slice(&header)));
            let mut frame = TxFrame {
                frame_len,
                sg,
                csum,
                dst,
                channel,
                // A user-data segment is set once gathered.
                segment: None,
                data_len: frame_len - hdr_len,
                hdr_len,
            };
            k.scratch = header;

            if meta.retransmit && frame.data_len > 0 {
                let trace = tx_spans(&frame, meta.flow, hdr_len);
                if Kernel::retransmit_header_only(
                    k, cab, iface_id, &transport, &frame, trace, now, mem,
                ) {
                    k.stats.retransmit_header_only += 1;
                    return;
                }
                k.stats.retransmit_slow_path += 1;
            }

            // --- Normal path: gather the payload behind the header, then
            // launch.
            let (uio_bytes, pinned) = Kernel::gather_payload(k, cab, mbufs, &mut frame.sg, mem);
            if let (true, Some(sock)) = (uio_bytes > 0, meta.sock) {
                // The frame reads the pinned range in place until its
                // copy-in completes or the driver abandons it.
                if let Some(pinned) = pinned {
                    k.begin_gather(sock, pinned);
                }
                frame.segment = Some(TxSegment {
                    sock,
                    seq_lo: meta.seq_lo,
                    data_len: frame.data_len,
                    pinned,
                });
            }
            let trace = tx_spans(&frame, meta.flow, frame_len);
            if let Some(stalled) = Kernel::launch_tx(k, cab, iface_id, frame, Some(trace), now, mem)
            {
                // Out of network memory is the paper's "transient
                // out-of-resources condition" (§4.4.3): like a refused
                // transfer, the frame is parked and retried with backoff
                // instead of dropped.
                if stalled.no_memory {
                    k.stats.tx_nomem_drops += 1;
                }
                Kernel::park_tx(k, cab, iface_id, stalled.entry, now);
            }
        });
    }

    /// Gather a frame's payload mbufs into `sg` for the copy-in. Returns
    /// the user bytes among them and the user range the DMA reads in place
    /// (pinned until the copy-in completes).
    fn gather_payload<'a>(
        k: &mut Kernel,
        cab: &mut CabIface,
        mbufs: impl Iterator<Item = &'a Mbuf>,
        sg: &mut Vec<SgEntry>,
        mem: &HostMem,
    ) -> (usize, Option<(outboard_host::TaskId, u64, usize)>) {
        let mut uio_bytes = 0usize;
        let mut pinned: Option<(outboard_host::TaskId, u64, usize)> = None;
        for m in mbufs {
            match m.data() {
                MbufData::Kernel(b) => sg.push(SgEntry::Inline(b.clone())),
                MbufData::Uio(d) => {
                    uio_bytes += d.len;
                    if d.vaddr() % 4 != 0 {
                        // §4.5: the device cannot DMA from an unaligned
                        // start address; fall back to a kernel copy for
                        // this entry ("the traditional path is used for
                        // unaligned accesses"). The bytes are copied, so
                        // the write's counter is credited as if DMAed.
                        k.stats.aligned_fallbacks += 1;
                        let copied =
                            k.copyin(d.region.task, d.vaddr(), d.len, None, mem, Charge::Syscall);
                        sg.push(SgEntry::Inline(copied));
                    } else {
                        match &mut pinned {
                            None => pinned = Some((d.region.task, d.vaddr(), d.len)),
                            Some((_, _, l)) => *l += d.len,
                        }
                        sg.push(SgEntry::User {
                            task: d.region.task,
                            vaddr: d.vaddr(),
                            len: d.len,
                        });
                    }
                }
                MbufData::Wcab(d) => {
                    // Cross-packet retransmit slice: resolve outboard bytes
                    // through the driver (rare; a CPU read). Zeros on a
                    // lost buffer; the peer's checksum rejects.
                    let packet = PacketId(d.packet.id());
                    let buf = k.pio_read(&cab.cab, packet, d.off, d.len, Charge::Syscall);
                    sg.push(SgEntry::Inline(buf.freeze()));
                }
            }
        }
        (uio_bytes, pinned)
    }

    /// §4.3's header-only retransmission: the data is still outboard in
    /// the packet that first carried it, so only `frame`'s fresh header is
    /// copied over its front, the saved body checksum is reused, and the
    /// packet goes to the media again. False when the packet's geometry
    /// does not match, a transfer of the packet is still in flight, or the
    /// engine refuses the copy-in; the caller then rebuilds the whole frame.
    #[expect(
        clippy::too_many_arguments,
        reason = "a launch's context: device, frame and its chain, trace, clock, memory"
    )]
    fn retransmit_header_only(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface_id: IfaceId,
        transport: &Chain,
        frame: &TxFrame,
        trace: TxSpans,
        now: Time,
        mem: &mut HostMem,
    ) -> bool {
        let mut mbufs = transport.iter();
        let (Some(_), Some(body), None) = (mbufs.next(), mbufs.next(), mbufs.next()) else {
            return false;
        };
        let MbufData::Wcab(d) = body.data() else {
            return false;
        };
        let packet = PacketId(d.packet.id());
        let geom_ok = d.packet.hdr_len() == d.off
            && cab
                .cab
                .netmem()
                .get(packet)
                .is_some_and(|p| p.cap == d.off + d.len)
            && d.cab == iface_id.0;
        // A media transfer of the packet still in flight owns its buffer:
        // the header is not rewritten under it.
        if !geom_ok || cab.in_transfer(&d.packet, now) {
            return false;
        }
        let token = cab.issue(SdmaPurpose::TxPlain);
        let req = SdmaTx {
            packet,
            sg: frame.sg.clone(),
            csum: frame.csum,
            reuse_body_csum: true,
            interrupt_on_complete: false,
            token,
        };
        match cab.cab.sdma_tx(req, now, mem) {
            Ok(ev) => {
                let job = MdmaJob {
                    packet: d.packet.clone(),
                    dst: frame.dst,
                    channel: frame.channel,
                    ready: now,
                };
                if let Err(job) = Kernel::copied_in(k, cab, iface_id, ev, job, now, Some(trace)) {
                    // The header is refreshed; only the media transfer is
                    // parked.
                    Kernel::park_tx(k, cab, iface_id, PendingTx::Mdma(job), now);
                }
                true
            }
            Err(e) => {
                cab.complete(token);
                Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                false
            }
        }
    }

    /// Launch a gathered frame, the one transmit sequence: allocate network
    /// memory, issue the completion token (a socket segment's holding the
    /// packet until the send queue takes over), SDMA the frame through the
    /// checksum engine, then MDMA it to the media. Whatever must wait comes
    /// back to the caller, which parks it (first launch) or re-queues it
    /// (retry round). Spans are recorded only when a `trace` is given,
    /// which is first launches only.
    pub(crate) fn launch_tx(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface_id: IfaceId,
        frame: TxFrame,
        trace: Option<TxSpans>,
        now: Time,
        mem: &mut HostMem,
    ) -> Option<Stalled> {
        let Some(packet) = cab.alloc(frame.frame_len, frame.hdr_len, now) else {
            return Some(Stalled {
                entry: PendingTx::Sdma(frame),
                no_memory: true,
            });
        };
        let purpose = match frame.segment {
            Some(seg) => SdmaPurpose::TxSegment(seg, packet.clone()),
            None => SdmaPurpose::TxPlain,
        };
        let token = cab.issue(purpose);
        let req = SdmaTx {
            packet: PacketId(packet.id()),
            sg: frame.sg.clone(),
            csum: frame.csum,
            reuse_body_csum: false,
            interrupt_on_complete: frame.segment.is_some(),
            token,
        };
        match cab.cab.sdma_tx(req, now, mem) {
            Ok(ev) => {
                let job = MdmaJob {
                    packet,
                    dst: frame.dst,
                    channel: frame.channel,
                    ready: now,
                };
                Kernel::copied_in(k, cab, iface_id, ev, job, now, trace)
                    .err()
                    .map(|job| Stalled {
                        entry: PendingTx::Mdma(job),
                        no_memory: false,
                    })
            }
            Err(e) => {
                // Undo the issue and hand the whole transfer back. A wedged
                // engine has seized the buffer mid-gather; the board reset
                // reclaims it, so the host must not release it.
                cab.complete(token);
                if matches!(e, CabError::EngineWedged(_)) {
                    packet.disown();
                }
                Kernel::watchdog_on_wedge(k, cab, iface_id, &e);
                Some(Stalled {
                    entry: PendingTx::Sdma(frame),
                    no_memory: false,
                })
            }
        }
    }

    /// The tail every transmit shares once the engine has accepted its
    /// copy-in `sdma`: queue the SDMA completion, then put the packet on
    /// the media from the moment the copy-in is done. A refused media
    /// transfer comes back, ready at that moment.
    fn copied_in(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        sdma: CabEvent,
        job: MdmaJob,
        now: Time,
        spans: Option<TxSpans>,
    ) -> Result<(), MdmaJob> {
        let done = sdma.at();
        let job = MdmaJob { ready: done, ..job };
        if let Some(s) = spans.filter(|_| k.spans.on()) {
            k.spans.span(s.flow, Stage::Sdma, now, done, s.sdma);
            if let Some(bytes) = s.checksum {
                k.spans.span(s.flow, Stage::Checksum, now, done, bytes);
            }
        }
        k.fx.push(Effect::Cab { iface, event: sdma });
        let span = spans.map(|s| (s.flow, s.mdma));
        Kernel::mdma_out(k, cab, iface, job, now, span).map_err(|(job, _)| job)
    }

    /// Put a packet on the media from `now`, or from when its copy-in
    /// completes if that is later, recording the MdmaTx span when given
    /// one. The engine frees the packet after the transfer when the job
    /// holds its last handle. On refusal the watchdog is armed if an engine
    /// wedged, and the job comes back with the error.
    pub(crate) fn mdma_out(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        job: MdmaJob,
        now: Time,
        span: Option<(FlowId, u64)>,
    ) -> Result<(), (MdmaJob, CabError)> {
        let at = now.max(job.ready);
        let free_after = job.packet.is_last();
        let packet = PacketId(job.packet.id());
        match cab
            .cab
            .mdma_tx(packet, job.dst, job.channel, at, free_after)
        {
            Ok(ev) => {
                cab.transfer(job.packet, ev.at(), free_after);
                if let Some((flow, bytes)) = span.filter(|_| k.spans.on()) {
                    k.spans.span(flow, Stage::MdmaTx, at, ev.at(), bytes);
                }
                k.fx.push(Effect::Cab { iface, event: ev });
                Ok(())
            }
            Err(e) => {
                Kernel::watchdog_on_wedge(k, cab, iface, &e);
                Err((job, e))
            }
        }
    }

    /// Ethernet output with the thin conversion layer at the driver entry
    /// (§5): UIO/WCAB chains become regular data here — "a copy has merely
    /// been delayed".
    fn eth_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        mem: &HostMem,
    ) {
        self.cpu(self.costs.driver_pkt, Charge::Syscall);
        let flat = self.flatten_for_legacy(&transport, mem);
        // Routing only sends Ethernet-bound traffic here, but a stale route
        // table entry is a survivable error, not grounds to abort the host.
        let IfaceKind::Eth(eth) = &self.ifaces[iface_id.0 as usize].kind else {
            self.stats.ip_errors += 1;
            return;
        };
        let Some(&dst_mac) = eth.arp.get(&ip_hdr.dst) else {
            self.stats.ip_errors += 1;
            return;
        };
        let src_mac = eth.mac;
        let mut frame = Vec::with_capacity(ETHER_HEADER_LEN + IPV4_HEADER_LEN + flat.len());
        frame.extend_from_slice(&EtherHeader::new(src_mac, dst_mac).build());
        frame.extend_from_slice(&ip_hdr.build());
        frame.extend_from_slice(&flat);
        // The conventional device copies the frame over its bus.
        self.legacy_copy(frame.len(), Charge::Syscall);
        self.fx.push(Effect::EthTx {
            iface: iface_id,
            frame: Bytes::from(frame),
        });
    }

    fn loop_output(
        &mut self,
        iface_id: IfaceId,
        ip_hdr: Ipv4Header,
        transport: Chain,
        mem: &HostMem,
    ) {
        let flat = self.flatten_for_legacy(&transport, mem);
        let mut frame = Vec::with_capacity(IPV4_HEADER_LEN + flat.len());
        frame.extend_from_slice(&ip_hdr.build());
        frame.extend_from_slice(&flat);
        self.fx.push(Effect::Loop {
            iface: iface_id,
            frame: Bytes::from(frame),
        });
    }

    /// UDP output: header + checksum strategy + IP.
    pub(crate) fn udp_output(
        &mut self,
        sock: SockId,
        local: SockAddr,
        remote: SockAddr,
        mut data: Chain,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.udp, Charge::Syscall);
        // In-kernel applications may hand us chains whose format the CAB
        // driver cannot take; check and convert (§5).
        let owner = self.sockets.get(sock).map(|s| s.owner);
        if owner == Some(Owner::Kernel) && data.has_wcab() {
            let flat = self.flatten_for_legacy(&data, mem);
            data = Chain::from_slice(&flat);
        }
        let hdr = UdpHeader::new(local.port, remote.port, data.len());
        self.stats.udp_datagrams_out += 1;
        let flow = if self.spans.on() {
            FlowId::group_only(super::flow_group(local, remote))
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: 0,
            retransmit: false,
            flow,
        };
        if self.spans.on() {
            let end = now + self.costs.udp.unwrap_or_default();
            self.spans
                .span(flow, Stage::KernelOutput, now, end, data.len() as u64);
        }
        self.transport_output(
            local.ip,
            remote.ip,
            proto::UDP,
            hdr.build().to_vec(),
            outboard_wire::udp::UDP_CSUM_OFFSET,
            data,
            meta,
            mem,
            now,
        );
    }

    /// Send an ICMP echo request (ping) — an in-kernel transmit path used
    /// by tests and examples.
    pub fn send_ping(
        &mut self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        let chain = crate::ip::icmp::build_echo(crate::ip::icmp::ECHO_REQUEST, ident, seq, payload);
        if let Some(iface_id) = self.routes.lookup(dst) {
            let src = self.ifaces[iface_id.0 as usize].ip;
            self.ip_output(
                src,
                dst,
                proto::ICMP,
                chain,
                iface_id,
                TxMeta::plain(),
                mem,
                now,
            );
        }
        self.take_effects(now)
    }

    /// ICMP echo reply — the resident in-kernel application (§5).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub(crate) fn icmp_reply(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
        mem: &mut HostMem,
        now: Time,
    ) {
        self.stats.icmp_echo_replies += 1;
        let chain = crate::ip::icmp::build_echo(crate::ip::icmp::ECHO_REPLY, ident, seq, payload);
        let Some(iface_id) = self.routes.lookup(dst) else {
            return;
        };
        self.ip_output(
            src,
            dst,
            proto::ICMP,
            chain,
            iface_id,
            TxMeta::plain(),
            mem,
            now,
        );
    }
}
