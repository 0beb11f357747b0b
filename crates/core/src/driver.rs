//! Interfaces and drivers.
//!
//! Three device classes (Figure 4 of the paper):
//!
//! * [`CabIface`] — the CAB driver state: besides the traditional input and
//!   output entry points it provides the *copy-in* and *copy-out* routines
//!   (§3) that move data between host and network memory, tracks in-flight
//!   SDMA requests by token, manages per-destination logical channels
//!   (§2.1), and keeps the maps that tie outboard packet buffers to the
//!   protocol data referencing them (so transmit buffers are freed on ACK
//!   and receive buffers after the last copy-out);
//! * [`EthIface`] — a conventional Ethernet whose driver copies data and
//!   leaves checksumming to software; `M_UIO` chains are converted to
//!   regular mbufs by a thin layer at its entry (§5);
//! * `Loopback` — frames re-injected into the same kernel.

use crate::types::SockId;
use outboard_cab::{Cab, ChecksumSpec, PacketId, SgEntry};
use outboard_sim::obs::Scope;
use outboard_sim::{DetMap, IdTable, Time};
use outboard_wire::ether::MacAddr;
use outboard_wire::hippi::HippiAddr;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Why an SDMA request was issued; consulted on its completion interrupt.
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs, reason = "variant docs describe the payload fields")]
pub enum SdmaPurpose {
    /// Transmit copy-in of a data segment. On completion the kernel
    /// replaces the `[seq_lo, seq_lo+data_len)` range of the socket's send
    /// queue with an `M_WCAB` descriptor (the paper's "the mbuf type is
    /// changed to M_WCAB after the data has been copied outboard") and
    /// credits the write's UIO counter.
    TxSegment {
        sock: SockId,
        seq_lo: u32,
        data_len: usize,
        packet: PacketId,
        /// Framing + IP + transport header bytes in front of the data.
        hdr_len: usize,
        /// Pinned user range to release (single-copy path).
        pinned: Option<(outboard_host::TaskId, u64, usize)>,
    },
    /// Transmit of a packet whose payload needed no conversion (traditional
    /// path, retransmission header refresh, control segments).
    TxPlain,
    /// Receive copy-out toward a user buffer; credits the read's counter.
    /// `copy_dst` is set on the unaligned fallback: the DMA lands in kernel
    /// memory and the completion handler finishes with a CPU copy to the
    /// user address (§4.5).
    RxToUser {
        sock: SockId,
        bytes: usize,
        copy_dst: Option<(outboard_host::TaskId, u64)>,
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
#[derive(Clone, Debug)]
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
    /// Completion purpose (its `packet` field is rewritten on each alloc).
    pub(crate) purpose: SdmaPurpose,
    /// Free the outboard buffer right after the media transfer.
    pub(crate) free_after_mdma: bool,
    /// Payload bytes in the frame.
    pub(crate) data_len: usize,
    /// Header bytes in front of the payload.
    pub(crate) hdr_len: usize,
}

/// The media transfer of a packet that sits complete in network memory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MdmaJob {
    /// The outboard packet to put on the media.
    pub(crate) packet: PacketId,
    /// Destination fabric address.
    pub(crate) dst: HippiAddr,
    /// Logical channel.
    pub(crate) channel: u16,
    /// Free the outboard buffer after the media transfer.
    pub(crate) free_after: bool,
    /// When the packet's copy-in completes: the media transfer cannot
    /// start earlier, however soon a retry round comes.
    pub(crate) ready: Time,
}

/// A transmission parked after a transient failure, waiting for the
/// retry-backoff timer. The paper's driver treats outboard exhaustion as a
/// "transient out-of-resources condition"; these entries are how the
/// condition stays transient instead of becoming a silent drop.
#[derive(Clone, Debug)]
pub(crate) enum PendingTx {
    /// The copy-in (SDMA) itself failed or network memory was exhausted:
    /// the frame is launched again from scratch.
    Sdma(TxFrame),
    /// The copy-in succeeded but the media transfer failed: only the MDMA
    /// needs re-issuing.
    Mdma(MdmaJob),
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
    pub arp: DetMap<Ipv4Addr, HippiAddr>,
    next_token: u64,
    /// In-flight SDMA requests by completion token (issued in sequence).
    pending: IdTable<SdmaPurpose>,
    /// Logical channel assigned per destination (§2.1).
    channels: DetMap<HippiAddr, u16>,
    next_channel: u16,
    /// Receive packets: payload bytes not yet copied out of network memory.
    rx_remaining: IdTable<usize>,
    /// Transmit packets: data bytes not yet acknowledged (the packet stays
    /// outboard for retransmission until this drains).
    tx_remaining: IdTable<usize>,
    /// Transmit packets' header length (for retransmission geometry).
    tx_hdr_len: IdTable<usize>,
    /// Transmissions parked for the retry-backoff timer.
    pub(crate) retry_q: VecDeque<PendingTx>,
    /// Degraded-mode / retry / watchdog state.
    pub health: IfaceHealth,
}

impl CabIface {
    /// Driver state for a fresh device.
    pub fn new(cab: Cab) -> CabIface {
        CabIface {
            cab,
            arp: DetMap::new(),
            next_token: 1,
            pending: IdTable::new(),
            channels: DetMap::new(),
            next_channel: 0,
            rx_remaining: IdTable::new(),
            tx_remaining: IdTable::new(),
            tx_hdr_len: IdTable::new(),
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
    pub fn issue(&mut self, purpose: SdmaPurpose) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        self.pending.insert(t, purpose);
        t
    }

    /// Resolve a completion token.
    pub fn complete(&mut self, token: u64) -> Option<SdmaPurpose> {
        self.pending.remove(token)
    }

    /// Drop every pending transmit-conversion token (watchdog reset path):
    /// their completions must not rewrite send-queue ranges toward outboard
    /// buffers the reset is about to free. Receive completions carry their
    /// data in the event itself and stay pending. Tokens are drained in
    /// ascending order (the table's iteration order), so the reset is
    /// deterministic.
    pub(crate) fn drop_pending_tx(&mut self) -> Vec<SdmaPurpose> {
        let tokens: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p, SdmaPurpose::TxSegment { .. }))
            .map(|(t, _)| t)
            .collect();
        tokens
            .into_iter()
            .filter_map(|t| self.pending.remove(t))
            .collect()
    }

    /// Hold a received packet outboard until its `len` payload bytes are
    /// copied out or discarded.
    pub(crate) fn hold_rx(&mut self, packet: PacketId, len: usize) {
        self.rx_remaining.insert(packet, len);
    }

    /// Hold a transmitted packet outboard until its `data_len` bytes are
    /// acknowledged, with the header length a header-only retransmit needs.
    pub(crate) fn hold_tx(&mut self, packet: PacketId, data_len: usize, hdr_len: usize) {
        self.tx_remaining.insert(packet, data_len);
        self.tx_hdr_len.insert(packet, hdr_len);
    }

    /// Header length of a held transmit packet.
    pub(crate) fn held_header_len(&self, packet: PacketId) -> Option<usize> {
        self.tx_hdr_len.get(packet).copied()
    }

    /// Count `len` bytes of a held receive packet as copied out or
    /// discarded. True when they were the last: the hold ends and the
    /// caller frees the packet, itself or through the copy-out. An
    /// untracked packet (a board reset cleared the holds) is never freed
    /// here.
    pub(crate) fn rx_consume(&mut self, packet: PacketId, len: usize) -> bool {
        countdown(&mut self.rx_remaining, packet, len)
    }

    /// Count `len` bytes of a held transmit packet as acknowledged, and
    /// free the packet with the last of them.
    pub(crate) fn tx_ack(&mut self, packet: PacketId, len: usize, now: Time) {
        if countdown(&mut self.tx_remaining, packet, len) {
            self.tx_hdr_len.remove(packet);
            self.cab.free_packet(packet, now);
        }
    }

    /// End every hold on `packet`; the caller frees it or has lost it.
    pub(crate) fn forget(&mut self, packet: PacketId) {
        self.rx_remaining.remove(packet);
        self.tx_remaining.remove(packet);
        self.tx_hdr_len.remove(packet);
    }

    /// Reset the board, which frees every outboard packet and so ends
    /// every hold.
    pub(crate) fn reset(&mut self) {
        self.cab.reset();
        self.rx_remaining.clear();
        self.tx_remaining.clear();
        self.tx_hdr_len.clear();
    }

    /// SDMA requests in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The logical channel for a destination: one queue per distinct
    /// destination, assigned round-robin over the hardware's channel set.
    pub fn channel_for(&mut self, dst: HippiAddr) -> u16 {
        let n = self.cab.config().num_channels as u16;
        *self.channels.get_or_insert_with(dst, || {
            let c = self.next_channel % n;
            self.next_channel = self.next_channel.wrapping_add(1);
            c
        })
    }
}

/// Take `len` from a hold; true (and the hold ended) when it drains.
fn countdown(table: &mut IdTable<usize>, packet: PacketId, len: usize) -> bool {
    let Some(rem) = table.get_mut(packet) else {
        return false;
    };
    *rem = rem.saturating_sub(len);
    let drained = *rem == 0;
    if drained {
        table.remove(packet);
    }
    drained
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
    pub ip: Ipv4Addr,
    /// Maximum transmission unit, bytes.
    pub mtu: usize,
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
            copy_dst: None,
        });
        assert_ne!(t1, t2);
        assert_eq!(c.pending_count(), 2);
        assert!(matches!(c.complete(t1), Some(SdmaPurpose::TxPlain)));
        assert!(c.complete(t1).is_none(), "token single-use");
        assert_eq!(c.pending_count(), 1);
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
