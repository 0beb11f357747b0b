//! Host byte touching: every copy, checksum read and programmed-I/O read
//! the host CPU makes for the stack moves its bytes and charges the
//! locality-curve cost (DESIGN.md §2) in one call here. The
//! [`MemorySystem`] is private to this module, so no other part of the
//! stack can price a touch itself. A touch of `len` bytes is priced at
//! working set `max(len, reuse)`, where `reuse` is the span of memory its
//! caller cycles through, a page when the caller names none; the receive
//! checksum read alone has no locality.

use super::hold::{uio_descs, Consumed};
use super::{Kernel, TxMeta};
use crate::driver::IfaceKind;
use bytes::Bytes;
use outboard_cab::{Cab, PacketId};
use outboard_host::{Charge, HostMem, MachineConfig, MemorySystem, TaskId, UserMemory};
use outboard_mbuf::{Chain, Mbuf, MbufData};
use outboard_sim::{PooledBuf, Time};
use outboard_wire::checksum::{add16, pseudo_header_sum, Accumulator};
use std::net::Ipv4Addr;

/// The working set of a touch whose caller names none.
const PAGE: usize = 4096;

/// The host's per-byte cost model, priced only by the touches below.
pub(super) struct Touch(MemorySystem);

impl Touch {
    pub(super) fn new(machine: MachineConfig) -> Touch {
        Touch(MemorySystem::new(machine))
    }
}

/// Read outboard bytes into `out` by programmed I/O: the one place the CPU
/// reads network memory. A buffer already gone leaves `out` as it was
/// (zeros); the peer's checksum rejects a segment built from them.
fn pio(cab: &Cab, packet: PacketId, off: usize, out: &mut [u8]) {
    let _ = cab.read_packet(packet, off, out);
}

impl Kernel {
    fn charge_copy(&mut self, len: usize, reuse: Option<usize>, charge: Charge) {
        let cost = self.touch.0.copy_cost(len, len.max(reuse.unwrap_or(PAGE)));
        self.cpu_dur(cost, charge);
    }

    fn charge_read(&mut self, len: usize, working_set: usize, charge: Charge) {
        let cost = self.touch.0.read_cost(len, working_set);
        self.cpu_dur(cost, charge);
    }

    /// Copy `len` bytes of `task`'s memory at `vaddr` into a kernel cluster.
    pub(super) fn copyin(
        &mut self,
        task: TaskId,
        vaddr: u64,
        len: usize,
        reuse: Option<usize>,
        mem: &HostMem,
        charge: Charge,
    ) -> Bytes {
        self.charge_copy(len, reuse, charge);
        self.user_bytes(task, vaddr, len, mem)
    }

    /// Copy `src` out to `task`'s memory at `vaddr`. The range was checked
    /// at syscall entry; a fault is counted, never ignored.
    pub(super) fn copyout(
        &mut self,
        task: TaskId,
        vaddr: u64,
        src: &[u8],
        reuse: Option<usize>,
        mem: &mut HostMem,
        charge: Charge,
    ) {
        self.charge_copy(src.len(), reuse, charge);
        if mem.write_user(task, vaddr, src).is_err() {
            self.stats.user_mem_faults += 1;
        }
    }

    /// Read `len` bytes of outboard packet `packet` at `off` into a fresh
    /// kernel cluster by programmed I/O.
    pub(super) fn pio_read(
        &mut self,
        cab: &Cab,
        packet: PacketId,
        off: usize,
        len: usize,
        charge: Charge,
    ) -> PooledBuf {
        let mut buf = PooledBuf::zeroed(&self.pool, len);
        pio(cab, packet, off, &mut buf);
        self.charge_read(len, len.max(PAGE), charge);
        buf
    }

    /// The transmit checksum read (`Read_C`): the ones-complement sum of
    /// `seed`, `head` and `chain`, read over the `send_queue` bytes the
    /// sender cycles through (§7.3 measures it over the window size).
    pub(super) fn checksum_read(
        &mut self,
        seed: u16,
        head: &[u8],
        chain: &Chain,
        send_queue: usize,
        mem: &HostMem,
    ) -> u16 {
        let len = head.len() + chain.len();
        self.charge_read(len, len.max(send_queue), Charge::Syscall);
        let mut acc = Accumulator::from_partial(seed);
        acc.add_bytes(head);
        acc.add_partial(self.software_chain_sum(chain, mem));
        acc.partial()
    }

    /// Verify a received transport packet's checksum (§4.3), for TCP and
    /// UDP alike: the hardware body sum adjusted by the pseudo-header, or on
    /// the traditional path a software read of freshly-DMAed, cache-cold
    /// bytes.
    pub(super) fn verify_rx(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        chain: &Chain,
        hw_csum: Option<u16>,
        mem: &HostMem,
    ) -> bool {
        let len = chain.len();
        if let Some(hw) = hw_csum {
            return crate::udp::verify_hw(src, dst, protocol, len, hw);
        }
        let cold = self.touch.0.config().read_nolocality_at;
        self.charge_read(len, cold, Charge::Interrupt);
        let pseudo = pseudo_header_sum(src.octets(), dst.octets(), protocol, len as u16);
        add16(pseudo, self.software_chain_sum(chain, mem)) == 0xFFFF
    }

    /// Charge the copy a conventional device makes over its bus, or §5's
    /// conversion of `len` bytes to regular mbufs.
    pub(super) fn legacy_copy(&mut self, len: usize, charge: Charge) {
        self.charge_copy(len, None, charge);
    }

    /// §5's conversion layer for legacy devices, applied at the source: the
    /// user data is copied into kernel mbufs now ("a copy has merely been
    /// delayed"), one copy charged for it all, the send queue's `M_UIO`
    /// range becomes regular data, and the write's UIO counter is credited —
    /// exactly what the `M_WCAB` conversion does on the CAB path, with a
    /// memory copy in place of DMA.
    pub(super) fn legacy_convert_uio(
        &mut self,
        meta: &TxMeta,
        data: Chain,
        mem: &HostMem,
        now: Time,
    ) -> Chain {
        let (uio_bytes, _) = external_bytes(&data);
        if uio_bytes == 0 {
            return data;
        }
        self.stats.uio_to_regular += 1;
        self.legacy_copy(uio_bytes, Charge::Syscall);
        let mut out = Chain::new();
        out.hdr = data.hdr.clone();
        for m in data.iter() {
            match m.data() {
                MbufData::Uio(d) => {
                    let copied = self.user_bytes(d.region.task, d.vaddr(), d.len, mem);
                    out.append(Mbuf::kernel(copied));
                }
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
                now,
                |k, skip, len| {
                    Mbuf::kernel(Bytes::from(k.chain_bytes(&out.copy_range(skip, len), mem)))
                },
            )
        });
        if !rewrote_queue {
            self.end_queued(uio_descs(&data), Consumed::Copied, Charge::Syscall, now);
        }
        out
    }

    /// Resolve a possibly-mixed chain to flat kernel bytes for a legacy
    /// device, charging the conversion copies (§5).
    pub(super) fn flatten_for_legacy(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        let out = self.chain_bytes(chain, mem);
        let (uio_copied, wcab_copied) = external_bytes(chain);
        if uio_copied > 0 {
            self.stats.uio_to_regular += 1;
            self.legacy_copy(uio_copied, Charge::Syscall);
        }
        if wcab_copied > 0 {
            self.stats.wcab_to_regular += 1;
            self.legacy_copy(wcab_copied, Charge::Syscall);
        }
        out
    }

    /// Flatten a chain to bytes without charging: for bytes a touch above
    /// has already charged.
    fn chain_bytes(&mut self, chain: &Chain, mem: &HostMem) -> Vec<u8> {
        let mut outb = Vec::with_capacity(chain.len());
        for m in chain.iter() {
            self.append_bytes(m.data(), mem, &mut outb);
        }
        outb
    }

    /// `len` bytes of `task`'s memory at `vaddr` in a kernel cluster. A
    /// range that faults is counted and yields zeros of the same length:
    /// syscalls check their range at entry, so this is a region that shrank
    /// later, under a blocked write or a DMA descriptor.
    fn user_bytes(&mut self, task: TaskId, vaddr: u64, len: usize, mem: &HostMem) -> Bytes {
        match mem.user_slice(task, vaddr, len) {
            Ok(src) => self.pool.copy_from_slice(src),
            Err(_) => {
                self.stats.user_mem_faults += 1;
                PooledBuf::zeroed(&self.pool, len).freeze()
            }
        }
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
                    pio(&c.cab, PacketId(d.packet.id()), d.off, &mut out[at..]);
                }
            }
        }
    }

    /// Software ones-complement sum over a chain, resolving external
    /// descriptors through the recycled scratch buffer instead of a fresh
    /// allocation per mbuf.
    fn software_chain_sum(&mut self, chain: &Chain, mem: &HostMem) -> u16 {
        let mut acc = Accumulator::new();
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
}

/// The user (`M_UIO`) and outboard (`M_WCAB`) bytes of a chain.
fn external_bytes(chain: &Chain) -> (usize, usize) {
    chain.iter().fold((0, 0), |(uio, wcab), m| match m.data() {
        MbufData::Kernel(_) => (uio, wcab),
        MbufData::Uio(d) => (uio + d.len, wcab),
        MbufData::Wcab(d) => (uio, wcab + d.len),
    })
}
