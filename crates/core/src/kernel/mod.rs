//! The kernel façade: sockets + TCP/UDP/IP + drivers on one host.
//!
//! Every public entry point is one of the arrows in the paper's Figure 4:
//! syscalls from user applications, the in-kernel application interface,
//! frame arrivals from devices, DMA-completion interrupts, and timers. Each
//! mutates protocol state and returns [`Effect`]s for the harness.
//!
//! CPU costs are charged per the machine model as the code walks the same
//! layers the real kernel would: syscall entry, socket layer (including VM
//! pin/map on the single-copy path, or the data copy on the traditional
//! path), transport output/input (including the software checksum read on
//! the traditional path), IP, and driver work.
//!
//! Split across submodules: construction + syscalls here, the transmit path
//! in `output`, the receive/completion/timer paths in `input`.

mod hold;
mod input;
mod output;
mod robust;
#[cfg(test)]
mod tests;
mod touch;

pub use input::TIME_WAIT;
pub use robust::CAB_PROBE_INTERVAL;

use crate::claims::{UserClaims, UserViolation};
use crate::driver::{CabIface, EthIface, Iface, IfaceKind, SdmaPurpose};
use crate::ip::Reassembler;
use crate::route::RouteTable;
use crate::socket::{BlockedRead, BlockedWrite, Owner, Socket, WaitingReader};
use crate::tcp::{SegmentPlan, Tcb, TcpState, TcpStats};
use crate::types::{
    Effect, IfaceId, Proto, ReadResult, SockAddr, SockId, StackConfig, StackError, StackMode,
    WriteResult, MIN_SOCK_BUF,
};
use hold::Consumed;
use outboard_cab::{Cab, PacketId, SdmaDst, SdmaRx};
use outboard_host::{
    Charge, HostMem, MachineConfig, PacketCost, PacketCosts, TaskId, UserMemory, VmSystem,
};
use outboard_mbuf::{Chain, Mbuf, MbufData, MbufStats, UioDesc, UioRegion, WcabDesc};
use outboard_sim::span::{FlowId, SpanSink, Stage};
use outboard_sim::{BufPool, DetMap, Dur, IdTable, Time};
use outboard_wire::ether::MacAddr;
use outboard_wire::ipv4::IPV4_HEADER_LEN;
use outboard_wire::udp::UDP_HEADER_LEN;
use std::net::Ipv4Addr;

/// `EFAULT` at syscall entry: `[vaddr, vaddr + len)` must lie in `task`'s
/// address space.
fn user_range(mem: &HostMem, task: TaskId, vaddr: u64, len: usize) -> Result<(), StackError> {
    match mem.user_slice(task, vaddr, len) {
        Ok(_) => Ok(()),
        Err(_) => Err(StackError::BadAddress),
    }
}

/// Writes at least this large take the single-copy path; smaller writes
/// are copied through kernel mbufs (§4.4.3). Ignored under
/// `StackConfig::force_single_copy` (the paper's measurements force it).
const UIO_THRESHOLD: usize = 16 * 1024;

/// Kernel-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// IP packets transmitted.
    pub tx_packets: u64,
    /// IP packets received.
    pub rx_packets: u64,
    /// IP bytes transmitted.
    pub tx_bytes: u64,
    /// IP bytes received.
    pub rx_bytes: u64,
    /// Segments rejected by checksum verification.
    pub csum_errors: u64,
    /// Malformed/undeliverable IP packets.
    pub ip_errors: u64,
    /// Packets with no matching socket.
    pub no_socket_drops: u64,
    /// Transmissions dropped: CAB network memory exhausted.
    pub tx_nomem_drops: u64,
    /// RST segments emitted.
    pub rst_sent: u64,
    /// Send-queue ranges converted `M_UIO` to `M_WCAB` (§4.2).
    pub uio_to_wcab: u64,
    /// `M_UIO` chains copied to regular mbufs at a legacy driver (§5).
    pub uio_to_regular: u64,
    /// `M_WCAB` chains converted for legacy consumers (§5).
    pub wcab_to_regular: u64,
    /// Software (Read_C) checksums computed.
    pub sw_checksums: u64,
    /// Outboard checksum insertions used.
    pub hw_checksums: u64,
    /// IP fragments emitted.
    pub frags_sent: u64,
    /// IP fragments received into the reassembler.
    pub frags_reassembled: u64,
    /// ICMP echo replies generated.
    pub icmp_echo_replies: u64,
    /// Writes/reads that fell back to the traditional path on alignment.
    pub aligned_fallbacks: u64,
    /// Misaligned writes realigned by the §4.5 align-split extension.
    pub align_splits: u64,
    /// Retransmissions that re-DMAed only a fresh header (§4.3).
    pub retransmit_header_only: u64,
    /// Retransmissions that rebuilt a full packet (partial/misaligned).
    pub retransmit_slow_path: u64,
    /// TCP segments emitted (first transmissions and retransmissions).
    pub tcp_segs_out: u64,
    /// TCP segments emitted that were retransmissions.
    pub tcp_retransmit_segs: u64,
    /// UDP datagrams emitted.
    pub udp_datagrams_out: u64,
    /// UDP datagrams delivered to a socket.
    pub udp_datagrams_in: u64,
    /// User-memory accesses that faulted (bad mapping); the affected bytes
    /// read/write as zeros and the transfer continues.
    pub user_mem_faults: u64,
}

/// Metadata accompanying a transmit packet down to the driver.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxMeta {
    pub sock: Option<SockId>,
    /// First sequence number of the payload (TCP).
    pub seq_lo: u32,
    /// True for TCP retransmissions (enables the header-only path).
    pub retransmit: bool,
    /// Causal-trace flow id ([`FlowId::NONE`] when tracing is disabled).
    pub flow: FlowId,
}

impl TxMeta {
    pub(crate) fn plain() -> TxMeta {
        TxMeta {
            sock: None,
            seq_lo: 0,
            retransmit: false,
            flow: FlowId::NONE,
        }
    }
}

/// One simulated host's kernel.
pub struct Kernel {
    /// Host name (diagnostics).
    pub(crate) name: String,
    /// The machine's Turbochannel speed, for [`Kernel::cab_config`].
    tc_speed_scale: f64,
    /// The machine's per-packet costs, compiled once by [`Kernel::new`].
    pub(crate) costs: PacketCosts,
    /// Stack configuration.
    pub(crate) cfg: StackConfig,
    /// Per-byte cost model, priced only by the byte touches of `touch`.
    touch: touch::Touch,
    /// VM pin/map bookkeeping and costs.
    pub vm: VmSystem,
    // Socket-table sweeps (degraded-mode rescue) iterate this
    // table, so its ascending-id order reaches the event stream. Boxed: a
    // freed slot costs a pointer, not a `Socket`.
    pub(crate) sockets: IdTable<Box<Socket>>,
    next_sock: u32,
    next_port: u16,
    /// Bound (listener / datagram) sockets by port.
    pub(crate) ports: DetMap<(Proto, u16), SockId>,
    /// Fully-specified connections (proto, local, remote).
    pub(crate) conns: DetMap<(Proto, SockAddr, SockAddr), SockId>,
    /// Raw-IP protocol handlers: protocol number → kernel socket whose
    /// queue receives matching datagrams' payloads (§5: in-kernel
    /// applications "use TCP or UDP over IP, or raw IP").
    pub(crate) raw_protos: DetMap<u8, SockId>,
    /// Network interfaces, indexed by [`IfaceId`].
    pub ifaces: Vec<Iface>,
    /// The routing table.
    pub routes: RouteTable,
    pub(crate) reass: Reassembler,
    /// Copy semantics, checked on user memory (debug builds).
    pub(crate) claims: UserClaims,
    pub(crate) fx: Vec<Effect>,
    /// An emptied effect list handed back by the harness; `take_effects`
    /// swaps it in so a kernel entry allocates no list of its own.
    fx_spare: Vec<Effect>,
    pub(crate) ip_id: u16,
    iss: u32,
    pub(crate) kq_serial: u64,
    /// Protocol statistics.
    pub stats: KernelStats,
    /// TCP counters: every control block counts into this one set.
    pub(crate) tcpstat: TcpStats,
    /// Mbuf allocation statistics.
    pub(crate) mbuf_stats: MbufStats,
    /// This host's handle on the world's span store (disabled by default;
    /// see `sim::span`).
    pub(crate) spans: SpanSink,
    /// Reusable list `tcp_send` lends to `Tcb::output` for its segment plans.
    plans: Vec<SegmentPlan>,
    /// Reusable scratch buffer for header assembly and descriptor reads on
    /// the transmit/checksum hot paths (grown once, then recycled).
    pub(crate) scratch: Vec<u8>,
    /// Buffer pool for mbuf cluster storage (kernel copies of user data,
    /// PIO fallbacks, rescue reads): the kernel's own until a world shares
    /// its pool.
    pub(crate) pool: BufPool,
}

impl Kernel {
    /// A kernel with no interfaces, routes, or sockets.
    pub fn new(name: &str, machine: MachineConfig, cfg: StackConfig) -> Kernel {
        Kernel {
            name: name.to_string(),
            costs: PacketCosts::compile(&machine),
            touch: touch::Touch::new(machine.clone()),
            tc_speed_scale: machine.tc_speed_scale,
            vm: VmSystem::new(machine, cfg.lazy_vm),
            cfg,
            sockets: IdTable::new(),
            next_sock: 1,
            next_port: 20_000,
            ports: DetMap::new(),
            conns: DetMap::new(),
            raw_protos: DetMap::new(),
            ifaces: Vec::new(),
            routes: RouteTable::new(),
            reass: Reassembler::new(),
            claims: UserClaims::default(),
            fx: Vec::new(),
            fx_spare: Vec::new(),
            ip_id: 1,
            iss: 10_000,
            kq_serial: 1,
            stats: KernelStats::default(),
            tcpstat: TcpStats::default(),
            mbuf_stats: MbufStats::default(),
            spans: SpanSink::default(),
            plans: Vec::new(),
            scratch: Vec::new(),
            pool: BufPool::new(),
        }
    }

    /// Recycle mbuf cluster storage through a shared [`BufPool`] instead of
    /// the kernel's own.
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// Record spans through `spans`, a handle on the world's span store
    /// under this host's trace pid.
    pub fn set_spans(&mut self, spans: SpanSink) {
        self.spans = spans;
    }

    // ------------------------------------------------------------------
    // configuration
    // ------------------------------------------------------------------

    /// The CAB configuration for this machine (Turbochannel speed applied).
    pub fn cab_config(&self) -> outboard_cab::CabConfig {
        outboard_cab::CabConfig {
            tc_speed_scale: self.tc_speed_scale,
            ..outboard_cab::CabConfig::default()
        }
    }

    /// Attach a CAB interface (build the device via [`Kernel::cab_config`]).
    pub fn add_cab_iface(&mut self, ip: Ipv4Addr, cab: Cab, mtu: usize) -> IfaceId {
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(Iface {
            id,
            ip,
            mtu,
            kind: IfaceKind::Cab(Box::new(CabIface::new(cab))),
        });
        id
    }

    /// Attach a conventional Ethernet interface.
    pub fn add_eth_iface(&mut self, ip: Ipv4Addr, mac: MacAddr, mtu: usize) -> IfaceId {
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(Iface {
            id,
            ip,
            mtu,
            kind: IfaceKind::Eth(EthIface::new(mac)),
        });
        id
    }

    /// Attach a loopback interface.
    pub fn add_loopback(&mut self, ip: Ipv4Addr) -> IfaceId {
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(Iface {
            id,
            ip,
            mtu: 32 * 1024,
            kind: IfaceKind::Loopback,
        });
        id
    }

    /// Install a route.
    pub fn add_route(&mut self, dest: Ipv4Addr, prefix_len: u8, iface: IfaceId) {
        self.routes.add(dest, prefix_len, iface);
    }

    /// Static ARP entries for the HIPPI fabric / Ethernet segment.
    pub fn add_arp_hippi(&mut self, iface: IfaceId, ip: Ipv4Addr, addr: u32) {
        if let Some(cab) = self.ifaces[iface.0 as usize].cab() {
            cab.arp.insert(ip, addr);
        }
    }

    /// Static ARP entry for an Ethernet segment.
    pub fn add_arp_ether(&mut self, iface: IfaceId, ip: Ipv4Addr, mac: MacAddr) {
        if let IfaceKind::Eth(e) = &mut self.ifaces[iface.0 as usize].kind {
            e.arp.insert(ip, mac);
        }
    }

    /// Look up an interface.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.0 as usize]
    }

    /// Inspect a socket (tests and harnesses).
    pub fn socket_ref(&self, id: SockId) -> Option<&Socket> {
        self.sockets.get(id).map(Box::as_ref)
    }

    /// An application is about to write `[vaddr, vaddr + len)` of its own
    /// memory: in debug builds, record a `UserWriteWhileDma` if the stack
    /// or an engine still claims any of it. Nothing is refused.
    pub fn note_user_write(&mut self, task: TaskId, vaddr: u64, len: usize, now: Time) {
        self.claims.check_user_write(task, vaddr, len, now);
    }

    /// Copy-semantics violations on this host's user memory so far (debug
    /// builds; a release build records none).
    pub fn user_violations(&self) -> &[UserViolation] {
        self.claims.violations()
    }

    /// End a kernel entry at `now`: free the outboard packets whose last
    /// handle dropped during it, then take the accumulated effects.
    pub fn take_effects(&mut self, now: Time) -> Vec<Effect> {
        for iface in &mut self.ifaces {
            if let IfaceKind::Cab(cab) = &mut iface.kind {
                cab.release(now);
            }
        }
        std::mem::replace(&mut self.fx, std::mem::take(&mut self.fx_spare))
    }

    /// Hand a list from [`Kernel::take_effects`] back once it is applied;
    /// its storage carries the next entry's effects.
    pub fn recycle_effects(&mut self, mut fx: Vec<Effect>) {
        fx.clear();
        if fx.capacity() > self.fx_spare.capacity() {
            self.fx_spare = fx;
        }
    }

    // ------------------------------------------------------------------
    // internal helpers
    // ------------------------------------------------------------------

    /// Socket entry for an id already validated at syscall entry. Sockets
    /// leave the table only through `sys_close`, which cannot interleave
    /// with an in-flight syscall, so the entry outlives the whole call.
    #[expect(
        clippy::expect_used,
        reason = "socket validated at syscall entry and close cannot interleave"
    )]
    fn sock_mut(&mut self, sock: SockId) -> &mut Socket {
        self.sockets
            .get_mut(sock)
            .expect("socket present for in-flight syscall")
    }

    /// Charge a per-packet cost. A positive cost that rounds to zero
    /// nanoseconds is still pushed: running it moves the harness's cursor
    /// up to the CPU's `busy_until`.
    pub(crate) fn cpu(&mut self, cost: PacketCost, charge: Charge) {
        if let Some(dur) = cost {
            self.push_cpu(dur, charge);
        }
    }

    pub(crate) fn cpu_dur(&mut self, dur: Dur, charge: Charge) {
        if !dur.is_zero() {
            self.push_cpu(dur, charge);
        }
    }

    /// Add CPU work to the effect list, onto a trailing `Cpu` effect of the
    /// same charge when there is one: `Cpu::run` is additive in `dur` and a
    /// second run would start exactly where the first is done, so one run
    /// of the sum leaves the same cursor and the same accounting.
    fn push_cpu(&mut self, dur: Dur, charge: Charge) {
        match self.fx.last_mut() {
            Some(Effect::Cpu { dur: d, charge: c }) if *c == charge => *d += dur,
            _ => self.fx.push(Effect::Cpu { dur, charge }),
        }
    }

    pub(crate) fn wake(&mut self, task: TaskId, sock: SockId, charge: Charge) {
        self.cpu(self.costs.wakeup, charge);
        self.fx.push(Effect::Wake { task, sock });
    }

    /// Replace what is still queued of send-queue range `[seq_lo, seq_lo +
    /// data_len)` with one mbuf, which `with` builds from the range's
    /// offset into the segment and its queued length: the `M_UIO`
    /// descriptors it replaces have been copied (`end_queued`). False, with
    /// nothing changed, when no byte of the range is still queued.
    pub(crate) fn replace_snd_range(
        &mut self,
        sock: SockId,
        seq_lo: u32,
        data_len: usize,
        charge: Charge,
        now: Time,
        with: impl FnOnce(&mut Kernel, usize, usize) -> Mbuf,
    ) -> bool {
        use outboard_wire::tcp::seq;
        let Some(s) = self.sockets.get(sock) else {
            return false;
        };
        let Some(tcb) = s.tcb.as_ref() else {
            return false;
        };
        let base = tcb.snd_una;
        // Clamp to the still-queued range.
        let (skip_front, off_in_q) = if seq::lt(seq_lo, base) {
            (seq::diff(base, seq_lo) as usize, 0usize)
        } else {
            (0usize, seq::diff(seq_lo, base) as usize)
        };
        if skip_front >= data_len {
            return false;
        }
        let len = (data_len - skip_front).min(s.so_snd.chain.len().saturating_sub(off_in_q));
        if len == 0 {
            return false;
        }
        let replacement = with(self, skip_front, len);
        let Some(s) = self.sockets.get_mut(sock) else {
            return false;
        };
        let removed = s.so_snd.chain.splice(off_in_q, len, replacement);
        self.end_queued(hold::uio_descs(&removed), Consumed::Copied, charge, now);
        true
    }

    /// Temporarily detach a CAB interface so device calls can run while
    /// other kernel state is borrowed.
    #[expect(
        clippy::panic,
        reason = "caller contract: with_cab is only invoked on ifaces routed as CABs"
    )]
    pub(crate) fn with_cab<R>(
        &mut self,
        iface: IfaceId,
        f: impl FnOnce(&mut Kernel, &mut CabIface) -> R,
    ) -> R {
        let idx = iface.0 as usize;
        let kind = std::mem::replace(&mut self.ifaces[idx].kind, IfaceKind::Loopback);
        let IfaceKind::Cab(mut cab) = kind else {
            panic!("iface {iface:?} is not a CAB");
        };
        let r = f(self, &mut cab);
        self.ifaces[idx].kind = IfaceKind::Cab(cab);
        r
    }

    // ------------------------------------------------------------------
    // socket syscalls
    // ------------------------------------------------------------------

    fn alloc_sock(&mut self, proto: Proto, owner: Owner) -> SockId {
        let id = SockId(self.next_sock);
        self.next_sock += 1;
        let s = Socket::new(id, proto, owner, self.cfg.sock_buf);
        self.sockets.insert(id, Box::new(s));
        id
    }

    /// `socket(2)`: create an unbound user socket.
    pub fn sys_socket(&mut self, proto: Proto) -> SockId {
        self.alloc_sock(proto, Owner::User)
    }

    /// Create an in-kernel socket (share-semantics mbuf interface, §5).
    pub fn kernel_socket(&mut self, proto: Proto) -> SockId {
        self.alloc_sock(proto, Owner::Kernel)
    }

    /// `bind(2)`: claim a local port.
    pub fn sys_bind(&mut self, sock: SockId, port: u16) -> Result<(), StackError> {
        let proto = self.sockets.get(sock).ok_or(StackError::BadSocket)?.proto;
        if self.ports.contains_key(&(proto, port)) {
            return Err(StackError::AddrInUse);
        }
        self.ports.insert((proto, port), sock);
        let s = self.sock_mut(sock);
        s.local = Some(SockAddr::new(Ipv4Addr::UNSPECIFIED, port));
        Ok(())
    }

    /// Nagle coalescing applies only to the traditional stack: a
    /// single-copy write blocks until its data is transmitted, so holding
    /// sub-MSS tails would deadlock the writer against the delayed-ACK
    /// timer (and §7.2 notes the modified stack "does not coalesce").
    pub(crate) fn effective_nagle(&self) -> bool {
        self.cfg.mode == StackMode::Unmodified
    }

    /// `listen(2)`: turn a bound TCP socket into a listener. A socket that
    /// already has a control block (listening, connecting or connected)
    /// is refused, as FreeBSD's `tcp_usr_listen` refuses one not `CLOSED`.
    pub fn sys_listen(&mut self, sock: SockId) -> Result<(), StackError> {
        let nagle = self.effective_nagle();
        let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
        let buf = s.so_rcv.hiwat;
        if s.proto != Proto::Tcp {
            return Err(StackError::InvalidState("listen on non-TCP socket"));
        }
        if s.tcb.is_some() {
            return Err(StackError::InvalidState("listen on an open TCP socket"));
        }
        let mut tcb = Tcb::new(0, nagle);
        tcb.listen(536, buf);
        let s = self.sockets.get_mut(sock).ok_or(StackError::BadSocket)?;
        s.tcb = Some(tcb);
        Ok(())
    }

    pub(crate) fn alloc_port(&mut self, proto: Proto) -> u16 {
        loop {
            let p = self.next_port;
            self.next_port = self.next_port.wrapping_add(1).max(20_000);
            if !self.ports.contains_key(&(proto, p)) {
                return p;
            }
        }
    }

    pub(crate) fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(64_000);
        self.iss
    }

    /// Active open. The caller blocks until the `Wake` for this socket. A
    /// connected socket is refused with `AlreadyConnected` and a listener
    /// with `InvalidState`, as Net/2's `soconnect` refuses one.
    pub fn sys_connect(
        &mut self,
        sock: SockId,
        task: TaskId,
        dst: SockAddr,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<Vec<Effect>, StackError> {
        self.cpu(self.costs.syscall, Charge::Syscall);
        let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
        if s.remote.is_some() {
            return Err(StackError::AlreadyConnected);
        }
        if s.tcb.is_some() {
            return Err(StackError::InvalidState("connect on a listening socket"));
        }
        let iface_id = self.routes.lookup(dst.ip).ok_or(StackError::NoRoute)?;
        let iface = &self.ifaces[iface_id.0 as usize];
        let local_ip = iface.ip;
        let mss = iface.tcp_mss();
        let port = self.alloc_port(Proto::Tcp);
        let local = SockAddr::new(local_ip, port);

        let mut tcb = Tcb::new(self.next_iss(), self.effective_nagle());
        let s = self.sock_mut(sock);
        tcb.connect(mss, s.so_rcv.hiwat);
        s.local = Some(local);
        s.remote = Some(dst);
        s.iface_hint = Some(iface_id);
        s.tcb = Some(tcb);
        s.connector = Some(task);
        self.conns.insert((Proto::Tcp, local, dst), sock);
        self.ports.insert((Proto::Tcp, port), sock);
        self.tcp_send(sock, mem, now, false);
        Ok(self.take_effects(now))
    }

    /// Accept an established connection from a listener's queue; `None`
    /// registers the task for a wake when one arrives.
    pub fn sys_accept(
        &mut self,
        listener: SockId,
        task: TaskId,
    ) -> Result<Option<SockId>, StackError> {
        let s = self
            .sockets
            .get_mut(listener)
            .ok_or(StackError::BadSocket)?;
        if let Some(child) = s.accept_queue.pop_front() {
            s.acceptor = None;
            Ok(Some(child))
        } else {
            s.acceptor = Some(task);
            Ok(None)
        }
    }

    /// `setsockopt(SO_SNDBUF/SO_RCVBUF)`: resize both socket buffers. Only
    /// valid before a TCP connection is established (the window scale is
    /// negotiated from the buffer size on SYN), and never below
    /// [`MIN_SOCK_BUF`].
    pub fn sys_setsockbuf(&mut self, sock: SockId, bytes: usize) -> Result<(), StackError> {
        let s = self.sockets.get_mut(sock).ok_or(StackError::BadSocket)?;
        if bytes < MIN_SOCK_BUF {
            return Err(StackError::BufferTooSmall);
        }
        if s.tcb
            .as_ref()
            .map(|t| t.state.is_synchronized())
            .unwrap_or(false)
        {
            return Err(StackError::InvalidState("buffers fixed after handshake"));
        }
        s.so_snd.hiwat = bytes;
        s.so_rcv.hiwat = bytes;
        Ok(())
    }

    /// `sendto(2)`: one datagram to an explicit destination from an
    /// unconnected UDP socket (binds an ephemeral local port on first use).
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub fn sys_sendto(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        dst: SockAddr,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(WriteResult, Vec<Effect>), StackError> {
        self.cpu(self.costs.syscall, Charge::Syscall);
        let bound = {
            let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
            if s.proto != Proto::Udp {
                return Err(StackError::InvalidState("sendto is UDP-only"));
            }
            s.local
        };
        user_range(mem, task, vaddr, len)?;
        // Ensure a local binding and a per-destination iface hint.
        let iface_id = self.routes.lookup(dst.ip).ok_or(StackError::NoRoute)?;
        let local_ip = self.ifaces[iface_id.0 as usize].ip;
        let port = match bound {
            Some(l) if l.ip != Ipv4Addr::UNSPECIFIED => None,
            // Bound port, unspecified address: fill in per route.
            Some(l) => Some(l.port),
            None => {
                let port = self.alloc_port(Proto::Udp);
                self.ports.insert((Proto::Udp, port), sock);
                Some(port)
            }
        };
        let s = self.sock_mut(sock);
        if let Some(port) = port {
            s.local = Some(SockAddr::new(local_ip, port));
        }
        s.iface_hint = Some(iface_id);
        s.remote = Some(dst);
        // Reuse the connected-UDP write machinery.
        self.udp_write(sock, task, vaddr, len, mem, now)
    }

    /// `recvfrom(2)`: like `sys_read` but also reports the datagram's
    /// source address.
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    pub fn sys_recvfrom(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(ReadResult, Option<SockAddr>, Vec<Effect>), StackError> {
        let from = self
            .sockets
            .get(sock)
            .ok_or(StackError::BadSocket)?
            .dgram_bounds
            .front()
            .map(|(_, f)| *f);
        let (r, fx) = self.sys_read(sock, task, vaddr, len, mem, now)?;
        Ok((r, from, fx))
    }

    /// Bind a UDP socket's default destination.
    pub fn sys_connect_udp(&mut self, sock: SockId, dst: SockAddr) -> Result<(), StackError> {
        let iface_id = self.routes.lookup(dst.ip).ok_or(StackError::NoRoute)?;
        let local_ip = self.ifaces[iface_id.0 as usize].ip;
        let port = self.alloc_port(Proto::Udp);
        let s = self.sockets.get_mut(sock).ok_or(StackError::BadSocket)?;
        s.local = Some(SockAddr::new(local_ip, port));
        s.remote = Some(dst);
        s.iface_hint = Some(iface_id);
        self.ports.insert((Proto::Udp, port), sock);
        Ok(())
    }

    /// Application close.
    pub fn sys_close(&mut self, sock: SockId, mem: &mut HostMem, now: Time) -> Vec<Effect> {
        self.cpu(self.costs.syscall, Charge::Syscall);
        let tcb = self.sockets.get_mut(sock).and_then(|s| s.tcb.as_mut());
        let closed = tcb.map(|tcb| {
            tcb.close();
            tcb.state == TcpState::Closed
        });
        match closed {
            Some(false) => self.tcp_send(sock, mem, now, false),
            Some(true) => self.teardown(sock, now),
            None if self.sockets.contains(sock) => self.teardown(sock, now),
            None => {}
        }
        self.take_effects(now)
    }

    /// `write(2)`.
    pub fn sys_write(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(WriteResult, Vec<Effect>), StackError> {
        self.cpu(self.costs.syscall, Charge::Syscall);
        let proto = self.sockets.get(sock).ok_or(StackError::BadSocket)?.proto;
        user_range(mem, task, vaddr, len)?;
        if self.spans.on() {
            let flow = self.flow_id_tx(sock);
            let end = now + self.costs.syscall.unwrap_or_default();
            self.spans.span(flow, Stage::Syscall, now, end, len as u64);
        }
        match proto {
            Proto::Tcp => self.tcp_write(sock, task, vaddr, len, mem, now),
            Proto::Udp => self.udp_write(sock, task, vaddr, len, mem, now),
        }
    }

    fn tcp_write(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(WriteResult, Vec<Effect>), StackError> {
        {
            let s = self.sockets.get_mut(sock).ok_or(StackError::BadSocket)?;
            if let Some(e) = s.so_error.take() {
                return Err(e);
            }
            let tcb = s.tcb.as_ref().ok_or(StackError::NotConnected)?;
            if !tcb.state.can_send() {
                return Err(StackError::NotConnected);
            }
            if s.blocked_write.is_some() {
                return Err(StackError::InvalidState("write already in progress"));
            }
            // A buffer `StackConfig::sock_buf` set below a word.
            if s.so_snd.hiwat < MIN_SOCK_BUF {
                return Err(StackError::BufferTooSmall);
            }
        }
        let mut bw = BlockedWrite {
            task,
            region: UioRegion { task, base: vaddr },
            total: len,
            appended: 0,
            uio: self.use_uio_path(sock, vaddr, len),
        };
        self.append_write_chunks(sock, &mut bw, mem, Charge::Syscall, now);
        self.tcp_send(sock, mem, now, false);
        // On the socket only now: a write that a legacy driver's
        // conversion copied whole in the send above ends in this return.
        self.sock_mut(sock).blocked_write = Some(bw);
        let r = match self.settle_write(sock, now) {
            Some(_) => WriteResult::Done { bytes: len },
            None => WriteResult::Blocked {
                accepted: bw.appended,
            },
        };
        Ok((r, self.take_effects(now)))
    }

    /// §4.4.3 + §4.5: which path does this write take?
    fn use_uio_path(&mut self, sock: SockId, vaddr: u64, len: usize) -> bool {
        if self.cfg.mode != StackMode::SingleCopy {
            return false;
        }
        // A vanished socket takes the traditional path; its caller's next
        // lookup reports `BadSocket`.
        let iface_ok = self
            .sockets
            .get(sock)
            .and_then(|s| s.iface_hint)
            .map(|i| self.ifaces[i.0 as usize].single_copy_capable())
            .unwrap_or(false);
        if !iface_ok {
            return false;
        }
        // Word alignment is a hard constraint (§4.5) — unless the
        // align-split extension is on, which realigns with a short copied
        // fragment and DMAs the rest ("might pay off for very large
        // writes"; the paper left it unimplemented).
        if !vaddr.is_multiple_of(4) {
            if self.cfg.align_split && (self.cfg.force_single_copy || len >= UIO_THRESHOLD) {
                self.stats.align_splits += 1;
                return true;
            }
            self.stats.aligned_fallbacks += 1;
            return false;
        }
        self.cfg.force_single_copy || len >= UIO_THRESHOLD
    }

    /// Move as much as possible of the write `w` into `so_snd`,
    /// mapping/pinning (single-copy) or copying (traditional) as we go —
    /// "one socket buffer worth at a time, as data is handed down" (§4.4.1).
    pub(crate) fn append_write_chunks(
        &mut self,
        sock: SockId,
        w: &mut BlockedWrite,
        mem: &mut HostMem,
        charge: Charge,
        now: Time,
    ) {
        loop {
            let Some(s) = self.sockets.get(sock) else {
                return;
            };
            let remaining = w.total - w.appended;
            let mss = s.tcb.as_ref().map(|t| t.mss).unwrap_or(1460);
            let mut chunk = remaining.min(s.so_snd.space()).min(mss);
            // A UIO chunk ends on a word boundary unless it is the write's
            // tail, so the next one starts word-aligned in user space
            // (§4.5), as `Tcb::output` keeps its segments. With less space
            // than a word, wait for ACKs to free more.
            if w.uio && chunk < remaining {
                chunk &= !3;
            }
            if chunk == 0 {
                return;
            }
            // Socket-layer per-packet work.
            self.cpu(self.costs.socket_pkt, charge);
            let (task, cur_addr) = (w.region.task, w.region.base + w.appended as u64);
            let unaligned_start = w.appended == 0 && !cur_addr.is_multiple_of(4);
            if w.uio && unaligned_start {
                // Align-split extension (§4.5): copy the 1-3 bytes up to
                // the next word boundary through a kernel mbuf so the rest
                // of the write can be DMAed. The copy satisfies copy
                // semantics for them now, so they never count as queued.
                let fix = (4 - (cur_addr % 4) as usize).min(remaining);
                let m = Mbuf::kernel(self.copyin(task, cur_addr, fix, Some(64), mem, charge));
                self.mbuf_stats.count(&m);
                self.sock_mut(sock).so_snd.chain.append(m);
                w.appended += fix;
                if w.appended == w.total {
                    // A sub-word write, copied whole: the caller settles
                    // it.
                    return;
                }
                // Flush the fragment as its own short packet (the paper:
                // "send a first packet of 16 bits") so every subsequent
                // segment boundary lands word-aligned in user space.
                self.tcp_send(sock, mem, now, false);
                continue;
            }
            let m = if w.uio {
                let desc = UioDesc {
                    region: w.region,
                    off: w.appended as u64,
                    len: chunk,
                    counter: Some(hold::write_counter(sock)),
                };
                self.hold_queued(desc, charge)
            } else {
                // Traditional path: copy through kernel buffers.
                Mbuf::kernel(self.copyin(task, cur_addr, chunk, Some(w.total), mem, charge))
            };
            self.mbuf_stats.count(&m);
            self.sock_mut(sock).so_snd.chain.append(m);
            w.appended += chunk;
        }
    }

    /// `read(2)`.
    pub fn sys_read(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(ReadResult, Vec<Effect>), StackError> {
        self.cpu(self.costs.syscall, Charge::Syscall);
        let take = {
            let s = self.sockets.get_mut(sock).ok_or(StackError::BadSocket)?;
            user_range(mem, task, vaddr, len)?;
            if s.blocked_read.is_some() {
                return Err(StackError::InvalidState("read already in progress"));
            }
            if s.so_rcv.is_empty() {
                // A dropped connection's error comes once, before EOF.
                s.so_error.take().map_or(Ok(()), Err)?;
                if s.rcv_eof {
                    return Ok((ReadResult::Eof, self.take_effects(now)));
                }
                s.waiting_reader = Some(WaitingReader { task });
                return Ok((ReadResult::WouldBlock, self.take_effects(now)));
            }
            match s.proto {
                Proto::Udp => {
                    let so_rcv_len = s.so_rcv.len();
                    match s.dgram_bounds.front_mut() {
                        Some((dlen_mut, _)) => {
                            let take = (*dlen_mut).min(len).min(so_rcv_len);
                            *dlen_mut -= take;
                            if *dlen_mut == 0 {
                                s.dgram_bounds.pop_front();
                            }
                            take
                        }
                        // Defensive: bounds track the chain one-to-one, so a
                        // non-empty buffer always has a front bound; drain
                        // what is queued if the invariant ever slips.
                        None => so_rcv_len.min(len),
                    }
                }
                Proto::Tcp => s.so_rcv.len().min(len),
            }
        };
        let chunk = {
            let s = self.sock_mut(sock);
            s.so_rcv.chain.split_front(take)
        };
        self.spans
            .span_close_bytes(sock.0 as u64, Stage::Sockbuf, now, take as u64);

        let mut read = BlockedRead {
            task,
            vaddr,
            len: take,
            pins: Vec::new(),
            outstanding: 0,
        };
        let mut dst_off = 0usize;
        for m in chunk {
            let mlen = m.len();
            let user_dst = vaddr + dst_off as u64;
            match m.into_data() {
                MbufData::Kernel(b) => {
                    self.copyout(task, user_dst, &b, Some(take), mem, Charge::Syscall);
                }
                MbufData::Wcab(d) => {
                    let aligned = user_dst.is_multiple_of(4);
                    if !aligned {
                        self.stats.aligned_fallbacks += 1;
                    }
                    self.begin_copyout(&mut read, user_dst, d.len, aligned);
                    self.issue_rx_copyout(sock, d, task, user_dst, aligned, mem, now);
                }
                #[expect(
                    clippy::unreachable,
                    reason = "receive chains hold only kernel or WCAB mbufs; M_UIO exists solely on send queues"
                )]
                MbufData::Uio(_) => unreachable!("M_UIO never appears in so_rcv"),
            }
            self.cpu(self.costs.socket_pkt, Charge::Syscall);
            dst_off += mlen;
        }
        // Receive-window update: tell the peer about the space we freed.
        self.maybe_window_update(sock, mem, now);

        if read.outstanding > 0 {
            self.sock_mut(sock).blocked_read = Some(read);
            if self.spans.on() {
                let flow = self.flow_id_rx(sock);
                self.spans
                    .span_open(sock.0 as u64, flow, Stage::SysRecv, now, take as u64);
            }
            Ok((
                ReadResult::BlockedDma { bytes: take },
                self.take_effects(now),
            ))
        } else {
            if self.spans.on() {
                let flow = self.flow_id_rx(sock);
                self.spans.span(flow, Stage::SysRecv, now, now, take as u64);
            }
            self.claims.check_read_done(task, vaddr, take, now);
            Ok((ReadResult::Done { bytes: take }, self.take_effects(now)))
        }
    }

    /// Issue the copy-out SDMA for one `M_WCAB` descriptor of a read.
    #[allow(clippy::too_many_arguments, reason = "BSD-shaped parameter list")]
    fn issue_rx_copyout(
        &mut self,
        sock: SockId,
        d: WcabDesc,
        task: TaskId,
        user_dst: u64,
        aligned: bool,
        mem: &mut HostMem,
        now: Time,
    ) {
        self.cpu(self.costs.driver_pkt, Charge::Syscall);
        let iface_id = IfaceId(d.cab);
        self.with_cab(iface_id, |k, cab| {
            let dst = if aligned {
                SdmaDst::User {
                    task,
                    vaddr: user_dst,
                }
            } else {
                // §4.5: unaligned reads fall back through kernel buffers;
                // the completion handler finishes with a CPU copy.
                SdmaDst::Kernel
            };
            let token = cab.issue(SdmaPurpose::RxToUser {
                sock,
                bytes: d.len,
                dst: (task, user_dst),
                via_kernel: !aligned,
            });
            let req = SdmaRx {
                packet: PacketId(d.packet.id()),
                src_off: d.off,
                len: d.len,
                dst,
                // The last descriptor out frees the outboard buffer.
                free_packet: d.packet.is_last(),
                interrupt_on_complete: true,
                token,
            };
            Kernel::sdma_rx_resilient(k, cab, iface_id, req, d.packet, now, mem);
        });
    }

    /// Advertise newly-freed receive space when it has grown enough
    /// (BSD: by two segments or half the buffer).
    pub(crate) fn maybe_window_update(&mut self, sock: SockId, mem: &mut HostMem, now: Time) {
        let needs = {
            let Some(s) = self.sockets.get(sock) else {
                return;
            };
            let Some(tcb) = s.tcb.as_ref() else { return };
            if !tcb.state.is_synchronized() {
                return;
            }
            let space = s.so_rcv.space();
            let adv = outboard_wire::tcp::seq::diff(tcb.rcv_adv, tcb.rcv_nxt) as usize;
            space >= adv + 2 * tcb.mss || space >= adv + self.cfg.sock_buf / 2
        };
        if needs {
            self.tcp_send(sock, mem, now, true);
        }
    }

    // ------------------------------------------------------------------
    // in-kernel application interface (§5)
    // ------------------------------------------------------------------

    /// Share-semantics send over UDP: the chain's mbufs are handed to the
    /// stack as-is.
    pub fn kernel_sendto(
        &mut self,
        sock: SockId,
        chain: Chain,
        dst: SockAddr,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<Vec<Effect>, StackError> {
        let bound = {
            let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
            if s.owner != Owner::Kernel {
                return Err(StackError::InvalidState("kernel_sendto on a user socket"));
            }
            s.local
        };
        let local = match bound {
            Some(l) => l,
            None => {
                let port = self.alloc_port(Proto::Udp);
                let iface_id = self.routes.lookup(dst.ip).ok_or(StackError::NoRoute)?;
                let local = SockAddr::new(self.ifaces[iface_id.0 as usize].ip, port);
                let s = self.sock_mut(sock);
                s.local = Some(local);
                self.ports.insert((Proto::Udp, port), sock);
                local
            }
        };
        self.udp_output(sock, local, dst, chain, mem, now);
        Ok(self.take_effects(now))
    }

    /// Create a listening in-kernel TCP socket on `port`; established
    /// children appear on its accept queue and are themselves
    /// kernel-owned (their delivery runs through the conversion queue).
    pub fn kernel_listen(&mut self, port: u16) -> Result<SockId, StackError> {
        let s = self.kernel_socket(Proto::Tcp);
        self.sys_bind(s, port)?;
        self.sys_listen(s)?;
        Ok(s)
    }

    /// Pop an established child from an in-kernel listener.
    pub fn kernel_accept(&mut self, listener: SockId) -> Option<SockId> {
        let s = self.sockets.get_mut(listener)?;
        s.accept_queue.pop_front()
    }

    /// After an in-kernel consumer drains its queue, advertise the freed
    /// receive window (the socket layer does this implicitly for user
    /// reads; kernel consumers call it explicitly).
    pub fn kernel_window_update(
        &mut self,
        sock: SockId,
        mem: &mut HostMem,
        now: Time,
    ) -> Vec<Effect> {
        self.maybe_window_update(sock, mem, now);
        self.take_effects(now)
    }

    /// Register an in-kernel socket as the raw-IP handler for `proto`.
    /// Matching datagrams are queued (with `M_WCAB` conversion) on it.
    pub fn kernel_register_raw(&mut self, proto: u8, sock: SockId) -> Result<(), StackError> {
        let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
        if s.owner != Owner::Kernel {
            return Err(StackError::InvalidState("raw handlers are kernel sockets"));
        }
        self.raw_protos.insert(proto, sock);
        Ok(())
    }

    /// Send a raw IP datagram from an in-kernel application: the chain is
    /// the entire transport payload for `proto`.
    pub fn kernel_send_raw(
        &mut self,
        proto: u8,
        dst: Ipv4Addr,
        chain: Chain,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<Vec<Effect>, StackError> {
        let iface_id = self.routes.lookup(dst).ok_or(StackError::NoRoute)?;
        let src = self.ifaces[iface_id.0 as usize].ip;
        self.cpu(self.costs.ip, Charge::Syscall);
        self.ip_output(src, dst, proto, chain, iface_id, TxMeta::plain(), mem, now);
        Ok(self.take_effects(now))
    }

    /// Share-semantics receive: ready (fully converted) chains in arrival
    /// order (§5's ordering requirement).
    pub fn kernel_recv(&mut self, sock: SockId) -> Option<(Chain, SockAddr)> {
        let s = self.sockets.get_mut(sock)?;
        if s.kq.front()?.converting != 0 {
            return None;
        }
        let e = s.kq.pop_front()?;
        Some((e.chain, e.from))
    }

    // ------------------------------------------------------------------
    // UDP write
    // ------------------------------------------------------------------

    fn udp_write(
        &mut self,
        sock: SockId,
        task: TaskId,
        vaddr: u64,
        len: usize,
        mem: &mut HostMem,
        now: Time,
    ) -> Result<(WriteResult, Vec<Effect>), StackError> {
        let (local, remote, iface_hint) = {
            let s = self.sockets.get(sock).ok_or(StackError::BadSocket)?;
            if s.blocked_write.is_some() {
                return Err(StackError::InvalidState("write already in progress"));
            }
            match (s.local, s.remote) {
                (Some(l), Some(r)) => (l, r, s.iface_hint),
                _ => return Err(StackError::NotConnected),
            }
        };
        if len + UDP_HEADER_LEN + IPV4_HEADER_LEN > 65_535 {
            return Err(StackError::MessageTooBig);
        }
        let fits_mtu = {
            let mtu = iface_hint
                .map(|i| self.ifaces[i.0 as usize].mtu)
                .unwrap_or(1500);
            len + UDP_HEADER_LEN + IPV4_HEADER_LEN <= mtu
        };
        // Fragmented datagrams take the traditional path: the CAB inserts a
        // checksum per *packet*, but the UDP checksum spans the datagram.
        let uio_path = fits_mtu && self.use_uio_path(sock, vaddr, len);
        let region = UioRegion { task, base: vaddr };
        let mut chain = Chain::new();
        if uio_path {
            let desc = UioDesc {
                region,
                off: 0,
                len,
                counter: Some(hold::write_counter(sock)),
            };
            chain.append(self.hold_queued(desc, Charge::Syscall));
        } else {
            let copied = self.copyin(task, vaddr, len, None, mem, Charge::Syscall);
            chain.append(Mbuf::kernel(copied));
        }
        self.cpu(self.costs.socket_pkt, Charge::Syscall);
        self.udp_output(sock, local, remote, chain, mem, now);
        let s = self.sock_mut(sock);
        s.blocked_write = Some(BlockedWrite {
            task,
            region,
            total: len,
            appended: len,
            uio: uio_path,
        });
        // A legacy driver's conversion may have copied the datagram in
        // the send above.
        let r = match self.settle_write(sock, now) {
            Some(_) => WriteResult::Done { bytes: len },
            None => WriteResult::Blocked { accepted: len },
        };
        Ok((r, self.take_effects(now)))
    }

    /// Net/2's `tcp_drop`: end the connection with `err`. A synchronized
    /// connection tells its peer with one RST when `tell_peer` (not when
    /// the peer's own RST ended it). The send queue goes at once, and with
    /// it its outboard buffers, and a blocked write ends once no frame
    /// still gathers from its buffer (`settle_write`). A socket the
    /// application has closed (or never accepted) is torn down; any other
    /// stays, `Closed`, until the application closes it: its next `read`
    /// or `write` returns `err`, once, and a writer, reader or connector
    /// blocked on it is woken to make that call.
    pub(crate) fn tcp_drop(
        &mut self,
        sock: SockId,
        err: StackError,
        tell_peer: bool,
        mem: &mut HostMem,
        now: Time,
    ) {
        let Some(s) = self.sockets.get_mut(sock) else {
            return;
        };
        let Some(tcb) = s.tcb.as_mut() else {
            return;
        };
        let state = std::mem::replace(&mut tcb.state, TcpState::Closed);
        tcb.delack_pending = false;
        tcb.drop_reass();
        let rst = (tell_peer && state.is_synchronized()).then_some((tcb.snd_nxt, tcb.rcv_nxt));
        let orphan = matches!(
            state,
            TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::Closing
                | TcpState::LastAck
                | TcpState::TimeWait
        ) || (state == TcpState::SynRcvd && s.listen_parent.is_some());
        s.so_error = Some(err);
        s.rcv_eof = true;
        // The receive queue stays: the application reads what arrived
        // before the error.
        let queued = std::mem::take(&mut s.so_snd.chain);
        let reader = s.waiting_reader.take().map(|r| r.task);
        let connector = s.connector.take();
        let endpoints = s.local.zip(s.remote);
        self.end_queued(
            hold::uio_descs(&queued),
            Consumed::Dropped,
            Charge::Interrupt,
            now,
        );
        if let (Some((seq, ack)), Some((local, remote))) = (rst, endpoints) {
            let flags = outboard_wire::TcpFlags::RST | outboard_wire::TcpFlags::ACK;
            self.emit_rst(local, remote, seq, ack, flags, mem, now);
        }
        if orphan {
            self.teardown(sock, now);
            return;
        }
        let writer = self.settle_write(sock, now);
        for task in [writer, reader, connector].into_iter().flatten() {
            self.wake(task, sock, Charge::Interrupt);
        }
    }

    /// Tear a socket down: end its queued bytes' holds and unbind; its
    /// counts go with it, and the outboard buffers its queues still hold
    /// are released as they drop.
    pub(crate) fn teardown(&mut self, sock: SockId, now: Time) {
        let Some(s) = self.sockets.remove(sock) else {
            return;
        };
        let queued = hold::uio_descs(&s.so_snd.chain);
        self.end_queued(queued, Consumed::Dropped, Charge::Interrupt, now);
        // Any sockbuf-dwell or blocked-read spans die with the socket.
        if self.spans.on() {
            while self.spans.span_drop(sock.0 as u64, Stage::Sockbuf, now) {}
            while self.spans.span_drop(sock.0 as u64, Stage::SysRecv, now) {}
        }
        if let Some(local) = s.local {
            self.ports.remove(&(s.proto, local.port));
            if let Some(remote) = s.remote {
                self.conns.remove(&(s.proto, local, remote));
            }
        }
    }

    // ------------------------------------------------------------------
    // causal-span helpers
    //
    // Hot-path files (output/input/robust/driver) never call `span_open`
    // directly — cross-function opens route through these helpers so each
    // open sits beside its close; a leaked open shows as
    // `world.spans.dropped` (tests/span_trace.rs holds it to 0).
    // ------------------------------------------------------------------

    /// Data-direction flow id for bytes this socket is *sending*
    /// (`local → remote`, sequence = next send sequence number).
    pub(crate) fn flow_id_tx(&self, sock: SockId) -> FlowId {
        let Some(s) = self.sockets.get(sock) else {
            return FlowId::NONE;
        };
        let (Some(l), Some(r)) = (s.local, s.remote) else {
            return FlowId::NONE;
        };
        let seq = s.tcb.as_ref().map(|t| t.snd_nxt).unwrap_or(0);
        FlowId::from_parts(flow_group(l, r), seq)
    }

    /// Data-direction flow id for bytes this socket is *receiving*
    /// (`remote → local`; group only — receive spans cover byte ranges,
    /// not individual segments).
    pub(crate) fn flow_id_rx(&self, sock: SockId) -> FlowId {
        let Some(s) = self.sockets.get(sock) else {
            return FlowId::NONE;
        };
        let (Some(l), Some(r)) = (s.local, s.remote) else {
            return FlowId::NONE;
        };
        FlowId::group_only(flow_group(r, l))
    }

    /// Open a sockbuf-dwell span: `bytes` of in-order data entered
    /// `so_rcv` and now wait for the application to read them.
    pub(crate) fn span_sockbuf_enqueue(&mut self, sock: SockId, bytes: u64, now: Time) {
        if self.spans.on() {
            let flow = self.flow_id_rx(sock);
            self.spans
                .span_open(sock.0 as u64, flow, Stage::Sockbuf, now, bytes);
        }
    }

    /// Close the blocked-read span opened by `sys_read` once its copy-out
    /// DMA drains and the reader is woken.
    pub(crate) fn span_recv_complete(&mut self, sock: SockId, now: Time) {
        if self.spans.on() {
            self.spans.span_close(sock.0 as u64, Stage::SysRecv, now);
        }
    }

    /// Record an ACK-arrival causality point on the *send* direction.
    pub(crate) fn span_ack(&mut self, sock: SockId, acked: u64, now: Time) {
        if self.spans.on() {
            let flow = self.flow_id_tx(sock);
            self.spans.span(flow, Stage::Ack, now, now, acked);
        }
    }

    /// Open a fault-detour span (retry dwell / degraded mode) keyed by
    /// interface.
    pub(crate) fn span_detour_open(&mut self, iface: IfaceId, stage: Stage, now: Time) {
        self.spans
            .span_open(iface.0 as u64, FlowId::NONE, stage, now, 0);
    }

    /// Close every open detour span of this stage for the interface.
    pub(crate) fn span_detour_close_all(&mut self, iface: IfaceId, stage: Stage, now: Time) {
        while self.spans.span_close(iface.0 as u64, stage, now) {}
    }

    /// Drop (abandon) every open detour span of this stage for the
    /// interface — the work it covered was given up, not completed.
    pub(crate) fn span_detour_drop_all(&mut self, iface: IfaceId, stage: Stage, now: Time) {
        while self.spans.span_drop(iface.0 as u64, stage, now) {}
    }

    /// Record a complete (instantaneous or pre-timed) detour span.
    pub(crate) fn span_detour(&mut self, stage: Stage, start: Time, end: Time, bytes: u64) {
        self.spans.span(FlowId::NONE, stage, start, end, bytes);
    }

    /// Publish this kernel's metrics into a registry scope: IP/TCP/UDP
    /// protocol counters, checksum and mbuf-path accounting, VM activity,
    /// and each CAB interface's engine/netmem state.
    pub fn publish_metrics(&self, s: &mut outboard_sim::obs::Scope<'_>) {
        let st = &self.stats;
        s.counter("ip.tx_packets", st.tx_packets);
        s.counter("ip.rx_packets", st.rx_packets);
        s.counter("ip.tx_bytes", st.tx_bytes);
        s.counter("ip.rx_bytes", st.rx_bytes);
        s.counter("ip.errors", st.ip_errors);
        s.counter("ip.frags_sent", st.frags_sent);
        s.counter("ip.frags_reassembled", st.frags_reassembled);
        s.counter("ip.no_socket_drops", st.no_socket_drops);
        s.counter("ip.tx_nomem_drops", st.tx_nomem_drops);
        s.counter("icmp.echo_replies", st.icmp_echo_replies);

        let t = &self.tcpstat;
        s.counter("tcp.segs_out", st.tcp_segs_out);
        s.counter("tcp.segs_in", t.segs_in);
        s.counter("tcp.retransmit_segs", st.tcp_retransmit_segs);
        s.counter("tcp.retransmits", t.retransmits);
        s.counter("tcp.fast_retransmits", t.fast_retransmits);
        s.counter("tcp.rto_events", t.rto_events);
        s.counter("tcp.dup_acks_rcvd", t.dup_acks_rcvd);
        s.counter("tcp.delayed_acks", t.delayed_acks);
        s.counter("tcp.window_stalls", t.window_stalls);
        s.counter("tcp.bytes_sent", t.bytes_sent);
        s.counter("tcp.bytes_retx", t.bytes_retx);
        s.counter("tcp.retransmit_header_only", st.retransmit_header_only);
        s.counter("tcp.retransmit_slow_path", st.retransmit_slow_path);
        s.counter("tcp.rst_sent", st.rst_sent);
        s.counter("udp.datagrams_out", st.udp_datagrams_out);
        s.counter("udp.datagrams_in", st.udp_datagrams_in);

        s.counter("csum.hw", st.hw_checksums);
        s.counter("csum.sw", st.sw_checksums);
        s.counter("csum.errors", st.csum_errors);
        s.counter("csum.aligned_fallbacks", st.aligned_fallbacks);
        s.counter("csum.align_splits", st.align_splits);

        s.counter("mbuf.uio_to_wcab", st.uio_to_wcab);
        s.counter("mbuf.uio_to_regular", st.uio_to_regular);
        s.counter("mbuf.wcab_to_regular", st.wcab_to_regular);
        s.counter("mbuf.small_allocs", self.mbuf_stats.small_allocs);
        s.counter("mbuf.cluster_allocs", self.mbuf_stats.cluster_allocs);
        s.counter("mbuf.uio_allocs", self.mbuf_stats.uio_allocs);
        s.counter("mbuf.wcab_allocs", self.mbuf_stats.wcab_allocs);
        s.counter("mbuf.user_mem_faults", st.user_mem_faults);

        self.vm.publish_metrics(&mut s.sub("vm"));
        for iface in &self.ifaces {
            if let Some(ci) = iface.cab_ref() {
                let mut sc = s.sub(&format!("cab{}", iface.id.0));
                ci.cab.publish_metrics(&mut sc);
                ci.publish_driver_metrics(&mut sc);
            }
        }
    }
}

/// The causal-trace flow group of the bytes `src` sends to `dst`.
fn flow_group(src: SockAddr, dst: SockAddr) -> u32 {
    FlowId::group_of(src.ip.octets(), src.port, dst.ip.octets(), dst.port)
}

/// Compute the data-direction flow id of a frame from its wire-visible
/// headers; `ip_off` is the length of the link framing in front of the IP
/// header (e.g. [`outboard_wire::hippi::HIPPI_HEADER_LEN`]).
///
/// Only called when span tracing is on. Ports (and the TCP sequence
/// number) are read straight from the transport header so the result
/// matches what the sending socket stamped, even when only a DMA prefix
/// of the datagram is available. Returns [`FlowId::NONE`] when the
/// headers don't parse.
pub fn frame_flow(frame: &[u8], ip_off: usize) -> FlowId {
    let Some(ip_bytes) = frame.get(ip_off..) else {
        return FlowId::NONE;
    };
    let Ok(ip) = outboard_wire::Ipv4Header::parse_with_limit(ip_bytes, u16::MAX as usize) else {
        return FlowId::NONE;
    };
    let Some(t) = ip_bytes.get(ip.header_len as usize..) else {
        return FlowId::NONE;
    };
    let (sport, dport, seq) = match ip.protocol {
        outboard_wire::proto::TCP if t.len() >= 8 => (
            u16::from_be_bytes([t[0], t[1]]),
            u16::from_be_bytes([t[2], t[3]]),
            u32::from_be_bytes([t[4], t[5], t[6], t[7]]),
        ),
        outboard_wire::proto::UDP if t.len() >= 4 => (
            u16::from_be_bytes([t[0], t[1]]),
            u16::from_be_bytes([t[2], t[3]]),
            0,
        ),
        _ => return FlowId::NONE,
    };
    let group = FlowId::group_of(ip.src.octets(), sport, ip.dst.octets(), dport);
    FlowId::from_parts(group, seq)
}
