//! Interfaces and drivers.
//!
//! Three device classes (Figure 4 of the paper):
//!
//! * [`CabIface`] — the CAB driver state: besides the traditional input and
//!   output entry points it provides the *copy-in* and *copy-out* routines
//!   (§3) that move data between host and network memory, tracks in-flight
//!   SDMA requests by token, manages per-destination logical channels
//!   (§2.1), and owns the table of counted handles on its outboard packets
//!   ([`PacketHolds`]). A packet is freed when its last handle drops — the
//!   last `M_WCAB` descriptor of acknowledged transmit data or of copied-out
//!   receive data — through the release list [`CabIface::release`] drains;
//!   DESIGN.md's "Outboard buffer lifetime" has the rule;
//! * [`EthIface`] — a conventional Ethernet whose driver copies data and
//!   leaves checksumming to software; `M_UIO` chains are converted to
//!   regular mbufs by a thin layer at its entry (§5);
//! * `Loopback` — frames re-injected into the same kernel.

use crate::types::SockId;
use outboard_cab::{Cab, ChecksumSpec, PacketId, SgEntry};
use outboard_mbuf::{PacketHolds, PacketRef};
use outboard_sim::obs::Scope;
use outboard_sim::{DetMap, IdTable, Time};
use outboard_wire::ether::MacAddr;
use outboard_wire::hippi::HippiAddr;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A transmit copy-in of socket data. On completion the kernel replaces
/// the `[seq_lo, seq_lo+data_len)` range of the socket's send queue with an
/// `M_WCAB` descriptor (the paper's "the mbuf type is changed to M_WCAB
/// after the data has been copied outboard") and credits the write's UIO
/// counter.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxSegment {
    pub(crate) sock: SockId,
    pub(crate) seq_lo: u32,
    pub(crate) data_len: usize,
    /// Pinned user range to release (single-copy path).
    pub(crate) pinned: Option<(outboard_host::TaskId, u64, usize)>,
}

/// Why an SDMA request was issued; consulted on its completion interrupt.
#[derive(Debug)]
pub(crate) enum SdmaPurpose {
    /// A [`TxSegment`] copy-in, holding the packet it fills until the
    /// send queue's descriptors take over.
    TxSegment(TxSegment, PacketRef),
    /// Transmit of a packet whose payload needed no conversion (traditional
    /// path, retransmission header refresh, control segments).
    TxPlain,
    /// Receive copy-out of `bytes` toward the user buffer at `dst`;
    /// credits the read's counter. `via_kernel` is set on the unaligned
    /// fallback: the DMA lands in kernel memory and the completion handler
    /// finishes with a CPU copy to `dst` (§4.5).
    RxToUser {
        sock: SockId,
        bytes: usize,
        dst: (outboard_host::TaskId, u64),
        via_kernel: bool,
    },
    /// Receive conversion for an in-kernel application (§5): the completion
    /// carries the kernel bytes that replace an `M_WCAB` range of queue
    /// entry `serial` on `sock`.
    RxToKernel {
        sock: SockId,
        serial: u64,
        chain_off: usize,
        len: usize,
    },
}

/// A frame gathered for the CAB: everything the SDMA→MDMA launch needs,
/// and all a parked retry keeps. User-memory scatter/gather entries stay
/// valid because the data is retained in the socket send queue (and its
/// pages stay pinned) until completion.
#[derive(Debug)]
pub(crate) struct TxFrame {
    /// Full frame length (header + data).
    pub(crate) frame_len: usize,
    /// Scatter/gather list, header first.
    pub(crate) sg: Vec<SgEntry>,
    /// Outboard checksum insertion spec, when hardware checksumming.
    pub(crate) csum: Option<ChecksumSpec>,
    /// Destination fabric address.
    pub(crate) dst: HippiAddr,
    /// Logical channel.
    pub(crate) channel: u16,
    /// The socket data the copy-in converts, if any.
    pub(crate) segment: Option<TxSegment>,
    /// Payload bytes in the frame.
    pub(crate) data_len: usize,
    /// Header bytes in front of the payload.
    pub(crate) hdr_len: usize,
}

/// The media transfer of a packet that sits complete in network memory.
#[derive(Debug)]
pub(crate) struct MdmaJob {
    /// The outboard packet to put on the media. The engine frees it after
    /// the transfer when this is its last handle.
    pub(crate) packet: PacketRef,
    /// Destination fabric address.
    pub(crate) dst: HippiAddr,
    /// Logical channel.
    pub(crate) channel: u16,
    /// When the packet's copy-in completes: the media transfer cannot
    /// start earlier, however soon a retry round comes.
    pub(crate) ready: Time,
}

/// A transmission parked after a transient failure, waiting for the
/// retry-backoff timer. The paper's driver treats outboard exhaustion as a
/// "transient out-of-resources condition"; these entries are how the
/// condition stays transient instead of becoming a silent drop.
#[derive(Debug)]
pub(crate) enum PendingTx {
    /// The copy-in (SDMA) itself failed or network memory was exhausted:
    /// the frame is launched again from scratch.
    Sdma(TxFrame),
    /// The copy-in succeeded but the media transfer failed: only the MDMA
    /// needs re-issuing.
    Mdma(MdmaJob),
}

/// The handle an accepted DMA transfer holds on its packet until `end`,
/// ordered for [`CabIface`]'s min-heap: earliest end first, then first
/// accepted.
#[derive(Debug)]
struct InFlight {
    end: Time,
    seq: u64,
    packet: PacketRef,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.end, self.seq) == (other.end, other.seq)
    }
}
impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: invert so the earliest end is on top.
        (other.end, other.seq).cmp(&(self.end, self.seq))
    }
}

/// Robustness counters for one CAB interface's driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverFaultStats {
    /// Transmissions re-attempted from the retry queue.
    pub tx_retries: u64,
    /// Cumulative backoff time spent between retry rounds, microseconds.
    pub backoff_us: u64,
    /// Transitions into degraded (traditional-path) mode.
    pub degraded_entries: u64,
    /// Transitions back to the single-copy path.
    pub degraded_exits: u64,
    /// Payload bytes sent through the traditional path while degraded.
    pub fallback_bytes: u64,
    /// Watchdog board resets.
    pub watchdog_resets: u64,
    /// Parked transmissions abandoned to TCP recovery when retries ran out.
    pub abandoned_tx: u64,
    /// Receive copy-outs completed by programmed I/O after a DMA error.
    pub pio_fallbacks: u64,
    /// Outboard bytes rescued into host mbufs during a watchdog reset.
    pub rescued_bytes: u64,
    /// Out-of-band board crashes recovered (chaos `board_crash` events).
    pub board_crashes: u64,
    /// Receive interrupts discarded because a board reset freed the frame's
    /// outboard buffer between arrival and interrupt delivery.
    pub stale_rx_drops: u64,
}

/// Driver-level health state for one CAB interface: degraded-mode flag,
/// retry backoff, and watchdog bookkeeping.
#[derive(Debug, Default)]
pub struct IfaceHealth {
    /// Interface is on the traditional path (host mbuf buffering +
    /// software checksum) until a probe finds the adaptor healthy again.
    pub degraded: bool,
    /// Retry-backoff timer armed.
    pub(crate) retry_armed: bool,
    /// Consecutive unsuccessful retry rounds (drives the backoff exponent).
    pub(crate) retry_round: u32,
    /// Watchdog timer armed.
    pub(crate) watchdog_armed: bool,
    /// Robustness counters.
    pub stats: DriverFaultStats,
}

/// CAB driver state for one interface.
#[derive(Debug)]
pub struct CabIface {
    /// The device itself.
    pub cab: Cab,
    /// IP → fabric address resolution (static ARP for the simulation).
    pub(crate) arp: DetMap<Ipv4Addr, HippiAddr>,
    next_token: u64,
    /// In-flight SDMA requests by completion token (issued in sequence).
    pending: IdTable<SdmaPurpose>,
    /// Per socket, the [`SdmaPurpose::TxSegment`]s in `pending` that gather
    /// pinned user memory: kept by `issue`, `complete` and
    /// `drop_pending_tx`, so [`CabIface::gathering`] needs no scan. A
    /// socket with none has no entry.
    gathers: IdTable<u32>,
    /// Logical channel assigned per destination (§2.1).
    channels: DetMap<HippiAddr, u16>,
    next_channel: u16,
    /// Handles on the outboard packets and the release list.
    holds: Rc<PacketHolds>,
    /// The handles of accepted DMA transfers that did not free their
    /// packet, each kept until its transfer ends: the host never frees a
    /// packet inside an engine's window. A min-heap by end, so
    /// [`CabIface::release`] touches only the transfers that are over.
    in_flight: BinaryHeap<InFlight>,
    /// Transfers accepted so far: `in_flight`'s tie-break.
    transfers: u64,
    /// Transmissions parked for the retry-backoff timer.
    pub(crate) retry_q: VecDeque<PendingTx>,
    /// Degraded-mode / retry / watchdog state.
    pub health: IfaceHealth,
}

impl CabIface {
    /// Driver state for a fresh device.
    pub(crate) fn new(cab: Cab) -> CabIface {
        CabIface {
            cab,
            arp: DetMap::new(),
            next_token: 1,
            pending: IdTable::new(),
            gathers: IdTable::new(),
            channels: DetMap::new(),
            next_channel: 0,
            holds: PacketHolds::new(),
            in_flight: BinaryHeap::new(),
            transfers: 0,
            retry_q: VecDeque::new(),
            health: IfaceHealth::default(),
        }
    }

    /// Publish the driver's robustness counters into a registry scope.
    pub(crate) fn publish_driver_metrics(&self, s: &mut Scope<'_>) {
        let d = &self.health.stats;
        s.counter("drv.tx_retries", d.tx_retries);
        s.counter("drv.backoff_us", d.backoff_us);
        s.counter("drv.degraded_entries", d.degraded_entries);
        s.counter("drv.degraded_exits", d.degraded_exits);
        s.counter("drv.fallback_bytes", d.fallback_bytes);
        s.counter("drv.watchdog_resets", d.watchdog_resets);
        s.counter("drv.abandoned_tx", d.abandoned_tx);
        s.counter("drv.pio_fallbacks", d.pio_fallbacks);
        s.counter("drv.rescued_bytes", d.rescued_bytes);
        s.counter("drv.board_crashes", d.board_crashes);
        s.counter("drv.stale_rx_drops", d.stale_rx_drops);
        s.counter("drv.degraded", u64::from(self.health.degraded));
        s.counter("drv.retry_queue_depth", self.retry_q.len() as u64);
    }

    /// Allocate a completion token for a request with the given purpose.
    pub(crate) fn issue(&mut self, purpose: SdmaPurpose) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        if let Some(sock) = gather_sock(&purpose) {
            match self.gathers.get_mut(sock) {
                Some(n) => *n += 1,
                None => {
                    self.gathers.insert(sock, 1);
                }
            }
        }
        self.pending.insert(t, purpose);
        t
    }

    /// Resolve a completion token.
    pub(crate) fn complete(&mut self, token: u64) -> Option<SdmaPurpose> {
        let purpose = self.pending.remove(token)?;
        if let Some(sock) = gather_sock(&purpose) {
            if let Some(n) = self.gathers.get_mut(sock) {
                *n -= 1;
                if *n == 0 {
                    self.gathers.remove(sock);
                }
            }
        }
        Some(purpose)
    }

    /// Drop every pending transmit-conversion token (watchdog reset path):
    /// their completions must not rewrite send-queue ranges toward outboard
    /// buffers the reset is about to free. Receive completions carry their
    /// data in the event itself and stay pending. Tokens are drained in
    /// ascending order (the table's iteration order), so the reset is
    /// deterministic.
    pub(crate) fn drop_pending_tx(&mut self) -> Vec<TxSegment> {
        let tokens: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p, SdmaPurpose::TxSegment(..)))
            .map(|(t, _)| t)
            .collect();
        tokens
            .into_iter()
            .filter_map(|t| match self.complete(t) {
                Some(SdmaPurpose::TxSegment(seg, _)) => Some(seg),
                _ => None,
            })
            .collect()
    }

    /// Abandon every parked transmission to TCP recovery (a give-up or a
    /// board reset): count each, clear the retry state, and return the
    /// segments whose user pages the frames still pin. A parked media
    /// transfer's packet is disowned while an engine is wedged, which may
    /// have seized it mid-transfer; the board reset reclaims it instead.
    pub(crate) fn abandon_retries(&mut self) -> Vec<TxSegment> {
        self.health.retry_armed = false;
        self.health.retry_round = 0;
        let wedged = self.cab.any_engine_wedged();
        let mut segments = Vec::new();
        for entry in std::mem::take(&mut self.retry_q) {
            self.health.stats.abandoned_tx += 1;
            match entry {
                PendingTx::Sdma(frame) => segments.extend(frame.segment),
                PendingTx::Mdma(job) if wedged => job.packet.disown(),
                PendingTx::Mdma(_) => {}
            }
        }
        segments
    }

    /// Allocate a packet of `len` bytes whose data starts `hdr_len` bytes
    /// in, with its first handle. Released packets are freed first, so the
    /// allocation sees every page their holders gave up.
    pub(crate) fn alloc(&mut self, len: usize, hdr_len: usize, now: Time) -> Option<PacketRef> {
        self.release(now);
        let packet = self.cab.alloc_packet(len)?;
        Some(self.holds.adopt(packet.0, hdr_len))
    }

    /// The first handle on a packet the board allocated for an arriving
    /// frame.
    pub(crate) fn adopt_rx(&self, packet: PacketId) -> PacketRef {
        self.holds.adopt(packet.0, 0)
    }

    /// An engine accepted a transfer on `packet` that ends at `end`; when
    /// `freed`, the engine frees the packet itself and the claim ends here,
    /// otherwise the handle is held until the transfer is over.
    pub(crate) fn transfer(&mut self, packet: PacketRef, end: Time, freed: bool) {
        if freed {
            packet.disown();
        } else {
            let seq = self.transfers;
            self.transfers += 1;
            self.in_flight.push(InFlight { end, seq, packet });
        }
    }

    /// An accepted transfer on `packet` is still running at `now`.
    pub(crate) fn in_transfer(&self, packet: &PacketRef, now: Time) -> bool {
        self.in_flight
            .iter()
            .any(|t| t.end > now && t.packet.id() == packet.id())
    }

    /// Drop the handles of transfers over by `now`, then free every packet
    /// whose last handle has dropped: the one place the host frees network
    /// memory. `now` is the time of the event being handled, so the free
    /// lands in the same event as the drop.
    pub(crate) fn release(&mut self, now: Time) {
        while self.in_flight.peek().is_some_and(|t| t.end <= now) {
            self.in_flight.pop();
        }
        while let Some(id) = self.holds.pop_released() {
            self.cab.free_packet(PacketId(id), now);
        }
    }

    /// A transmit frame of `sock` that gathers user memory in place has its
    /// copy-in in flight or is parked for a retry, whose relaunch gathers
    /// again. `Kernel::settle_write` asks on every write syscall and
    /// copy-in completion; debug builds hold the count to a scan of
    /// `pending` here. The retry queue is empty off the fault path.
    pub(crate) fn gathering(&self, sock: SockId) -> bool {
        let copying = self.gathers.contains(sock);
        debug_assert_eq!(
            copying,
            self.pending.values().any(|p| gather_sock(p) == Some(sock)),
            "gather count of {sock:?} disagrees with the pending tokens"
        );
        copying
            || self.retry_q.iter().any(|e| {
                matches!(e, PendingTx::Sdma(TxFrame { segment: Some(s), .. })
                    if s.sock == sock && s.pinned.is_some())
            })
    }

    /// SDMA requests in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The logical channel for a destination: one queue per distinct
    /// destination, assigned round-robin over the hardware's channel set.
    pub(crate) fn channel_for(&mut self, dst: HippiAddr) -> u16 {
        let n = self.cab.config().num_channels as u16;
        *self.channels.get_or_insert_with(dst, || {
            let c = self.next_channel % n;
            self.next_channel = self.next_channel.wrapping_add(1);
            c
        })
    }
}

/// The socket whose pinned user memory a request's copy-in gathers, if any.
fn gather_sock(purpose: &SdmaPurpose) -> Option<SockId> {
    match purpose {
        SdmaPurpose::TxSegment(s, _) if s.pinned.is_some() => Some(s.sock),
        _ => None,
    }
}

/// Conventional Ethernet interface.
#[derive(Debug)]
pub struct EthIface {
    /// This interface's hardware address.
    pub mac: MacAddr,
    /// IP to MAC resolution (static for the simulation).
    pub arp: DetMap<Ipv4Addr, MacAddr>,
}

impl EthIface {
    /// Driver state for an Ethernet with address `mac`.
    pub fn new(mac: MacAddr) -> EthIface {
        EthIface {
            mac,
            arp: DetMap::new(),
        }
    }
}

/// The device behind an interface.
#[derive(Debug)]
pub enum IfaceKind {
    /// The CAB (single-copy capable).
    Cab(Box<CabIface>),
    /// Conventional Ethernet.
    Eth(EthIface),
    /// Software loopback.
    Loopback,
}

/// One network interface.
#[derive(Debug)]
pub struct Iface {
    /// Index within the kernel's interface table.
    pub id: crate::types::IfaceId,
    /// The interface's IP address.
    pub(crate) ip: Ipv4Addr,
    /// Maximum transmission unit, bytes.
    pub(crate) mtu: usize,
    /// The device behind it.
    pub kind: IfaceKind,
}

impl Iface {
    /// Does this interface take the single-copy path (outboard buffering
    /// and checksumming)? A degraded CAB answers no: the stack falls back
    /// to the traditional path until a probe finds the adaptor healthy.
    pub(crate) fn single_copy_capable(&self) -> bool {
        matches!(&self.kind, IfaceKind::Cab(c) if !c.health.degraded)
    }

    /// Maximum TCP segment this interface supports.
    pub(crate) fn tcp_mss(&self) -> usize {
        self.mtu - outboard_wire::ipv4::IPV4_HEADER_LEN - outboard_wire::tcp::TCP_HEADER_LEN
    }

    /// The CAB driver state, when this interface is a CAB.
    pub fn cab(&mut self) -> Option<&mut CabIface> {
        match &mut self.kind {
            IfaceKind::Cab(c) => Some(c),
            _ => None,
        }
    }

    /// Shared view of the CAB driver state, when this interface is a CAB.
    pub fn cab_ref(&self) -> Option<&CabIface> {
        match &self.kind {
            IfaceKind::Cab(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::IfaceId;
    use outboard_cab::CabConfig;

    fn cab_iface() -> CabIface {
        CabIface::new(Cab::new(1, CabConfig::default()))
    }

    #[test]
    fn token_lifecycle() {
        let mut c = cab_iface();
        let t1 = c.issue(SdmaPurpose::TxPlain);
        let t2 = c.issue(SdmaPurpose::RxToUser {
            sock: SockId(1),
            bytes: 100,
            dst: (outboard_host::TaskId(2), 0x1000),
            via_kernel: false,
        });
        assert_ne!(t1, t2);
        assert_eq!(c.pending_count(), 2);
        assert!(matches!(c.complete(t1), Some(SdmaPurpose::TxPlain)));
        assert!(c.complete(t1).is_none(), "token single-use");
        assert_eq!(c.pending_count(), 1);
    }

    /// Transfers accepted out of end order (an MDMA transmit, then an rx
    /// copy-out that ends first) each hold their packet until exactly the
    /// event at their end.
    #[test]
    fn transfers_release_exactly_when_their_end_passes() {
        let mut c = cab_iface();
        let tx = c.alloc(4096, 64, Time(0)).unwrap();
        let rx = c.alloc(4096, 0, Time(0)).unwrap();
        let (tx_id, rx_id) = (PacketId(tx.id()), PacketId(rx.id()));
        let probe = tx.clone();
        c.transfer(tx, Time(300), false);
        c.transfer(rx, Time(100), false);
        drop(probe);
        for (now, tx_held, rx_held) in [
            (99, true, true),
            (100, true, false),
            (299, true, false),
            (300, false, false),
        ] {
            c.release(Time(now));
            assert_eq!(c.cab.packet_exists(tx_id), tx_held, "tx at {now}");
            assert_eq!(c.cab.packet_exists(rx_id), rx_held, "rx at {now}");
            assert_eq!(
                c.in_flight.len(),
                usize::from(tx_held) + usize::from(rx_held)
            );
        }
    }

    /// `in_transfer` sees a transfer until its end, in any heap position.
    #[test]
    fn in_transfer_sees_every_running_transfer() {
        let mut c = cab_iface();
        let a = c.alloc(1024, 0, Time(0)).unwrap();
        let b = c.alloc(1024, 0, Time(0)).unwrap();
        let (qa, qb) = (a.clone(), b.clone());
        c.transfer(a, Time(50), false);
        c.transfer(b, Time(20), false);
        assert!(c.in_transfer(&qa, Time(19)) && c.in_transfer(&qb, Time(19)));
        assert!(c.in_transfer(&qa, Time(20)) && !c.in_transfer(&qb, Time(20)));
        assert!(!c.in_transfer(&qa, Time(50)));
    }

    /// The per-socket gather count equals a scan of `pending` after every
    /// `issue`, `complete` and `drop_pending_tx`.
    #[test]
    fn gather_count_matches_a_scan_of_pending() {
        let mut c = cab_iface();
        let check = |c: &CabIface| {
            for sock in (0..4).map(SockId) {
                let scan = c
                    .pending
                    .values()
                    .filter(|p| gather_sock(p) == Some(sock))
                    .count() as u32;
                assert_eq!(c.gathers.get(sock).copied().unwrap_or(0), scan, "{sock:?}");
                assert_eq!(c.gathering(sock), scan > 0, "{sock:?}");
            }
        };
        let seg = |sock: u32, pinned: bool| TxSegment {
            sock: SockId(sock),
            seq_lo: 0,
            data_len: 1024,
            pinned: pinned.then_some((outboard_host::TaskId(1), 0x1000, 1024)),
        };
        let mut tokens = Vec::new();
        for (sock, pinned) in [(1, true), (1, true), (2, true), (2, false), (3, true)] {
            let packet = c.alloc(1024, 64, Time(0)).unwrap();
            tokens.push(c.issue(SdmaPurpose::TxSegment(seg(sock, pinned), packet)));
            check(&c);
        }
        let rx = c.issue(SdmaPurpose::RxToUser {
            sock: SockId(1),
            bytes: 10,
            dst: (outboard_host::TaskId(1), 0x2000),
            via_kernel: false,
        });
        c.issue(SdmaPurpose::TxPlain);
        check(&c);
        assert!(c.complete(tokens[0]).is_some());
        check(&c);
        assert!(c.complete(tokens[3]).is_some(), "an unpinned segment");
        assert!(c.complete(tokens[3]).is_none(), "token single-use");
        check(&c);
        let dropped = c.drop_pending_tx();
        assert_eq!(dropped.len(), 3);
        check(&c);
        assert!(c.gathers.is_empty());
        assert!(c.complete(rx).is_some(), "receive tokens stay pending");
        check(&c);
    }

    #[test]
    fn channels_are_per_destination_and_stable() {
        let mut c = cab_iface();
        let a = c.channel_for(10);
        let b = c.channel_for(20);
        assert_ne!(a, b, "distinct destinations, distinct channels");
        assert_eq!(c.channel_for(10), a, "stable per destination");
        // Channel ids stay within the hardware's channel count.
        for dst in 0..100u32 {
            assert!((c.channel_for(dst) as usize) < c.cab.config().num_channels);
        }
    }

    #[test]
    fn degraded_cab_loses_single_copy_capability() {
        let mut iface = Iface {
            id: IfaceId(0),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mtu: 32 * 1024,
            kind: IfaceKind::Cab(Box::new(cab_iface())),
        };
        assert!(iface.single_copy_capable());
        iface.cab().unwrap().health.degraded = true;
        assert!(!iface.single_copy_capable());
        iface.cab().unwrap().health.degraded = false;
        assert!(iface.single_copy_capable());
    }

    #[test]
    fn iface_capabilities() {
        let iface = Iface {
            id: IfaceId(0),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mtu: 32 * 1024,
            kind: IfaceKind::Cab(Box::new(cab_iface())),
        };
        assert!(iface.single_copy_capable());
        assert_eq!(iface.tcp_mss(), 32 * 1024 - 40);
        let eth = Iface {
            id: IfaceId(1),
            ip: Ipv4Addr::new(192, 168, 0, 1),
            mtu: 1500,
            kind: IfaceKind::Eth(EthIface::new(MacAddr::local(1))),
        };
        assert!(!eth.single_copy_capable());
        assert_eq!(eth.tcp_mss(), 1460);
    }
}
