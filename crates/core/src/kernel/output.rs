//! Kernel transmit paths: TCP segment emission, the shared transport tail
//! (checksum strategy selection), IP output with fragmentation, and the
//! three drivers' output routines.

use super::{Kernel, TxMeta};
use crate::driver::{CabIface, IfaceKind, MdmaJob, PendingTx, SdmaPurpose, TxFrame};
use crate::ip;
use crate::socket::Owner;
use crate::tcp::SegmentPlan;
use crate::types::{Effect, IfaceId, SockAddr, SockId, TimerKind};
use bytes::Bytes;
use outboard_cab::{CabError, CabEvent, ChecksumSpec, PacketId, SdmaTx, SgEntry};
use outboard_host::{Charge, HostMem, UserMemory};
use outboard_mbuf::{Chain, CsumPlan, Mbuf, MbufData};
use outboard_sim::span::{FlowId, Stage};
use outboard_sim::Time;
use outboard_wire::checksum::{pseudo_header_sum, Accumulator};
use outboard_wire::ether::{EtherHeader, ETHER_HEADER_LEN};
use outboard_wire::hippi::{HippiHeader, HIPPI_HEADER_LEN};
use outboard_wire::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use outboard_wire::tcp::{TcpHeader, TCP_CSUM_OFFSET};
use outboard_wire::udp::UdpHeader;
use outboard_wire::{proto, TcpFlags};
use std::net::Ipv4Addr;

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
                tcb.output(snd_q, rcv_space, force_ack, now, plans),
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
            let group = FlowId::group_of(
                local.ip.octets(),
                local.port,
                remote.ip.octets(),
                remote.port,
            );
            FlowId::from_parts(group, plan.seq)
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: plan.seq,
            retransmit: plan.retransmit,
            // Keep single-copy TCP data outboard until acknowledged (the
            // M_WCAB conversion frees it on ACK). Control segments and
            // traditional-path data (which retransmits from kernel mbufs)
            // free right after MDMA.
            free_after_mdma: plan.data_len == 0 || !data.has_uio(),
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
            let after = self.cfg.delack_timeout;
            self.fx.push(Effect::Timer { after, kind });
        }
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
            let m = meta;
            self.legacy_convert_uio(&m, data, mem)
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
            let working_set = meta
                .sock
                .and_then(|s| self.sockets.get(s))
                .map(|s| s.so_snd.chain.len())
                .unwrap_or(0)
                .max(transport_len);
            let read_cost = self.memsys.read_cost(transport_len, working_set);
            self.cpu_dur(read_cost, Charge::Syscall);
            let pseudo =
                pseudo_header_sum(src.octets(), dst.octets(), ip_proto, transport_len as u16);
            let mut acc = Accumulator::from_partial(pseudo);
            acc.add_bytes(&thdr);
            let data_sum = self.software_chain_sum(&data, mem);
            acc.add_partial(data_sum);
            let mut c = !acc.partial();
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

    /// Copy an `M_UIO` descriptor's bytes into a kernel cluster. A range
    /// that faults is counted and yields zeros of the same length.
    fn uio_copyin(&mut self, d: &outboard_mbuf::UioDesc, mem: &HostMem) -> Bytes {
        match mem.user_slice(d.region.task, d.vaddr(), d.len) {
            Ok(src) => outboard_sim::pooled_copy(&self.pool, src),
            Err(_) => {
                self.stats.user_mem_faults += 1;
                let (buf, ticket) = self.cluster_alloc(d.len);
                self.cluster_freeze(buf, ticket)
            }
        }
    }

    /// §5's conversion layer for legacy devices, applied at the source: the
    /// user data is copied into kernel mbufs now ("a copy has merely been
    /// delayed"), the send queue's `M_UIO` range becomes regular data, and
    /// the write's UIO counter is credited — exactly what the `M_WCAB`
    /// conversion does on the CAB path, with a memory copy in place of DMA.
    fn legacy_convert_uio(&mut self, meta: &TxMeta, data: Chain, mem: &HostMem) -> Chain {
        let uio_bytes: usize = data
            .iter()
            .filter_map(|m| match m.data() {
                MbufData::Uio(d) => Some(d.len),
                _ => None,
            })
            .sum();
        if uio_bytes == 0 {
            return data;
        }
        self.stats.uio_to_regular += 1;
        let cost = self.memsys.copy_cost(uio_bytes, uio_bytes.max(4096));
        self.cpu_dur(cost, Charge::Syscall);

        // Materialize the outgoing chain.
        let mut out = Chain::new();
        out.hdr = data.hdr.clone();
        for m in data.iter() {
            match m.data() {
                MbufData::Uio(d) => out.append(Mbuf::kernel(self.uio_copyin(d, mem))),
                _ => out.append(m.clone()),
            }
        }

        // TCP retains data in so_snd: rewrite the queued range so later
        // retransmissions (and the counter bookkeeping) see regular mbufs.
        // Counters are credited through the queue rewrite to avoid double
        // counting; datagram sockets (nothing retained) credit directly.
        let rewrote_queue = meta.sock.is_some_and(|sock| {
            self.replace_snd_range(
                sock,
                meta.seq_lo,
                out.len(),
                Charge::Syscall,
                |k, skip, len| {
                    Mbuf::kernel(Bytes::from(k.chain_bytes(&out.copy_range(skip, len), mem)))
                },
            )
        });
        if !rewrote_queue {
            self.credit_uio(&data, Charge::Syscall);
        }
        out
    }

    /// Flatten a chain to bytes, resolving UIO (user memory) and WCAB
    /// (outboard memory) descriptors without charging costs (helper for
    /// conversions that have already accounted the copy).
    fn chain_bytes(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        let mut outb = Vec::with_capacity(chain.len());
        for m in chain.iter() {
            self.append_bytes(m.data(), mem, &mut outb);
        }
        outb
    }

    /// Append an mbuf's bytes to `out`, reading an external descriptor
    /// straight into its tail. A user range that faults is counted; it and
    /// an outboard buffer lost to a board reset read as zeros (the peer's
    /// checksum rejects a segment built from them, and TCP recovers).
    fn append_bytes(&mut self, data: &MbufData, mem: &HostMem, out: &mut Vec<u8>) {
        let at = out.len();
        match data {
            MbufData::Kernel(b) => out.extend_from_slice(b),
            MbufData::Uio(d) => {
                out.resize(at + d.len, 0);
                if mem
                    .read_user(d.region.task, d.vaddr(), &mut out[at..])
                    .is_err()
                {
                    self.stats.user_mem_faults += 1;
                }
            }
            MbufData::Wcab(d) => {
                out.resize(at + d.len, 0);
                if let IfaceKind::Cab(c) = &self.ifaces[d.cab as usize].kind {
                    let _ = c.cab.read_packet(PacketId(d.packet), d.off, &mut out[at..]);
                }
            }
        }
    }

    /// Software ones-complement sum over a chain, resolving external
    /// descriptors (traditional path and conversion layers).
    pub(crate) fn software_chain_sum(&mut self, chain: &Chain, mem: &HostMem) -> u16 {
        let mut acc = Accumulator::new();
        // External descriptors resolve through the recycled scratch buffer
        // instead of a fresh allocation per mbuf.
        let mut scratch = std::mem::take(&mut self.scratch);
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => acc.add_bytes(b),
                external => {
                    scratch.clear();
                    self.append_bytes(external, mem, &mut scratch);
                    acc.add_bytes(&scratch);
                }
            }
        }
        self.scratch = scratch;
        acc.partial()
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
            IfaceKind::Eth(_) => self.eth_output(iface_id, ip_hdr, transport, mem, now),
            IfaceKind::Loopback => self.loop_output(iface_id, ip_hdr, transport, mem, now),
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
                // A user-data segment's purpose is set once gathered.
                purpose: SdmaPurpose::TxPlain,
                free_after_mdma: meta.free_after_mdma,
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
                frame.purpose = SdmaPurpose::TxSegment {
                    sock,
                    seq_lo: meta.seq_lo,
                    data_len: frame.data_len,
                    // Set by the launch once a packet is allocated.
                    packet: PacketId(0),
                    hdr_len,
                    pinned,
                };
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
                        let copied = k.uio_copyin(d, mem);
                        let cost = k.memsys.copy_cost(d.len, d.len.max(4096));
                        k.cpu_dur(cost, Charge::Syscall);
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
                    let (mut buf, ticket) = k.cluster_alloc(d.len);
                    let _ = cab.cab.read_packet(PacketId(d.packet), d.off, &mut buf);
                    let cost = k.memsys.read_cost(d.len, d.len.max(4096));
                    k.cpu_dur(cost, Charge::Syscall);
                    sg.push(SgEntry::Inline(k.cluster_freeze(buf, ticket)));
                }
            }
        }
        (uio_bytes, pinned)
    }

    /// §4.3's header-only retransmission: the data is still outboard in
    /// the packet that first carried it, so only `frame`'s fresh header is
    /// copied over its front, the saved body checksum is reused, and the
    /// packet goes to the media again. False when the packet's geometry
    /// does not match or the engine refuses the copy-in; the caller then
    /// rebuilds the whole frame.
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
        let packet = PacketId(d.packet);
        let geom_ok = cab.held_header_len(packet) == Some(d.off)
            && cab
                .cab
                .netmem()
                .get(packet)
                .is_some_and(|p| p.cap == d.off + d.len)
            && d.cab == iface_id.0;
        if !geom_ok {
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
                    packet,
                    dst: frame.dst,
                    channel: frame.channel,
                    free_after: false,
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
    /// memory, issue the completion token, hold the transmit geometry, SDMA
    /// the frame through the checksum engine, then MDMA it to the media.
    /// Whatever must wait comes back to the caller, which parks it (first
    /// launch) or re-queues it (retry round). Spans are recorded only when
    /// a `trace` is given, which is first launches only.
    pub(crate) fn launch_tx(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface_id: IfaceId,
        mut frame: TxFrame,
        trace: Option<TxSpans>,
        now: Time,
        mem: &mut HostMem,
    ) -> Option<Stalled> {
        let Some(packet) = cab.cab.alloc_packet(frame.frame_len) else {
            return Some(Stalled {
                entry: PendingTx::Sdma(frame),
                no_memory: true,
            });
        };
        if let SdmaPurpose::TxSegment { packet: p, .. } = &mut frame.purpose {
            *p = packet;
        }
        let interrupt = matches!(frame.purpose, SdmaPurpose::TxSegment { .. });
        let token = cab.issue(frame.purpose);
        // Geometry for ACK-driven freeing and header-only retransmits.
        if !frame.free_after_mdma && frame.data_len > 0 {
            cab.hold_tx(packet, frame.data_len, frame.hdr_len);
        }
        let req = SdmaTx {
            packet,
            sg: frame.sg.clone(),
            csum: frame.csum,
            reuse_body_csum: false,
            interrupt_on_complete: interrupt,
            token,
        };
        match cab.cab.sdma_tx(req, now, mem) {
            Ok(ev) => {
                let job = MdmaJob {
                    packet,
                    dst: frame.dst,
                    channel: frame.channel,
                    free_after: frame.free_after_mdma,
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
                // reclaims it, so the host must not free it here.
                cab.complete(token);
                cab.forget(packet);
                if !matches!(e, CabError::EngineWedged(_)) {
                    cab.cab.free_packet(packet, now);
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
        Kernel::mdma_out(k, cab, iface, job, now, span).map_err(|_| job)
    }

    /// Put a packet on the media from `now`, or from when its copy-in
    /// completes if that is later, recording the MdmaTx span when given
    /// one. On refusal the watchdog is armed if an engine wedged, and the
    /// error comes back.
    pub(crate) fn mdma_out(
        k: &mut Kernel,
        cab: &mut CabIface,
        iface: IfaceId,
        job: MdmaJob,
        now: Time,
        span: Option<(FlowId, u64)>,
    ) -> Result<(), CabError> {
        let at = now.max(job.ready);
        match cab
            .cab
            .mdma_tx(job.packet, job.dst, job.channel, at, job.free_after)
        {
            Ok(ev) => {
                if let Some((flow, bytes)) = span.filter(|_| k.spans.on()) {
                    k.spans.span(flow, Stage::MdmaTx, at, ev.at(), bytes);
                }
                k.fx.push(Effect::Cab { iface, event: ev });
                Ok(())
            }
            Err(e) => {
                Kernel::watchdog_on_wedge(k, cab, iface, &e);
                Err(e)
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
        _now: Time,
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
        let copy = self.memsys.copy_cost(frame.len(), frame.len().max(4096));
        self.cpu_dur(copy, Charge::Syscall);
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
        _now: Time,
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

    /// Resolve a possibly-mixed chain to flat kernel bytes for a legacy
    /// device, charging the conversion copies (§5).
    pub(crate) fn flatten_for_legacy(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        let out = self.chain_bytes(chain, mem);
        let (mut uio_copied, mut wcab_copied) = (0usize, 0usize);
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(_) => {}
                MbufData::Uio(d) => uio_copied += d.len,
                MbufData::Wcab(d) => wcab_copied += d.len,
            }
        }
        if uio_copied > 0 {
            self.stats.uio_to_regular += 1;
            let cost = self.memsys.copy_cost(uio_copied, uio_copied.max(4096));
            self.cpu_dur(cost, Charge::Syscall);
        }
        if wcab_copied > 0 {
            self.stats.wcab_to_regular += 1;
            let cost = self.memsys.copy_cost(wcab_copied, wcab_copied.max(4096));
            self.cpu_dur(cost, Charge::Syscall);
        }
        out
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
            let group = FlowId::group_of(
                local.ip.octets(),
                local.port,
                remote.ip.octets(),
                remote.port,
            );
            FlowId::group_only(group)
        } else {
            FlowId::NONE
        };
        let meta = TxMeta {
            sock: Some(sock),
            seq_lo: 0,
            retransmit: false,
            free_after_mdma: true,
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
        self.take_effects()
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
