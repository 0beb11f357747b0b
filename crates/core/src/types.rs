//! Shared stack types: identifiers, configuration, effects, errors.

use bytes::Bytes;
use outboard_cab::CabEvent;
use outboard_host::Charge;
use outboard_mbuf::TaskId;
use outboard_sim::Dur;
use std::net::Ipv4Addr;

/// Socket descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(pub u32);

impl From<SockId> for u64 {
    fn from(id: SockId) -> u64 {
        u64::from(id.0)
    }
}

/// Interface index within one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

/// Transport protocol of a socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Reliable byte stream.
    Tcp,
    /// Datagrams.
    Udp,
}

/// An IPv4 endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// Host address.
    pub ip: Ipv4Addr,
    /// Transport port.
    pub port: u16,
}

impl SockAddr {
    /// An endpoint from its parts.
    pub fn new(ip: Ipv4Addr, port: u16) -> SockAddr {
        SockAddr { ip, port }
    }
}

impl std::fmt::Display for SockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// Which data path the stack uses (the paper's two measured configurations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackMode {
    /// The original Net2 BSD behaviour: the socket layer copies user data
    /// into kernel mbufs and TCP/UDP checksum in software; the CAB is used
    /// as a dumb DMA device.
    Unmodified,
    /// The paper's single-copy path: `M_UIO` descriptors through the stack,
    /// outboard buffering and checksumming.
    SingleCopy,
}

/// Stack-level tunables: the knobs a configuration varies. Timings and
/// thresholds with one value everywhere are constants beside their readers.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// Which data path this stack uses.
    pub mode: StackMode,
    /// Always use the single-copy path regardless of size (§7.2: "the
    /// measurements for the modified stack always use the single-copy
    /// path").
    pub force_single_copy: bool,
    /// Keep user pages pinned across operations (§4.4.1 lazy unpinning).
    pub lazy_vm: bool,
    /// §4.5's unimplemented optimization, built here as an extension: a
    /// misaligned large write first sends a short copied fragment to
    /// realign, then DMAs the (now word-aligned) bulk directly — "we can
    /// send a first packet of 16 bits ... the remainder of the data can be
    /// DMAed since it is now word aligned".
    pub align_split: bool,
    /// Socket buffer high-water mark / TCP window, bytes (paper: 512 KB).
    pub sock_buf: usize,
}

impl StackConfig {
    /// The paper's modified stack (single-copy path available).
    pub fn single_copy() -> StackConfig {
        StackConfig {
            mode: StackMode::SingleCopy,
            force_single_copy: false,
            lazy_vm: false,
            align_split: false,
            sock_buf: 512 * 1024,
        }
    }

    /// The baseline Net2 BSD behaviour.
    pub fn unmodified() -> StackConfig {
        StackConfig {
            mode: StackMode::Unmodified,
            ..StackConfig::single_copy()
        }
    }
}

/// Timer identities: which timer of which socket or interface. Each
/// names one slot whose latest arm alone fires (the harness re-arms a slot
/// in place, as Net/2 resets its one callout per timer); whether a firing
/// does anything is the owner's armed state, checked in
/// [`crate::Kernel::timer_fire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(
    missing_docs,
    reason = "field names (sock/iface) are the documentation"
)]
pub enum TimerKind {
    /// Retransmission timeout.
    TcpRexmt { sock: SockId },
    /// Delayed-ACK (fast) timer.
    TcpDelack { sock: SockId },
    /// TIME_WAIT expiry.
    TcpTimeWait { sock: SockId },
    /// CAB driver retry backoff: re-attempt transmissions parked after a
    /// transient DMA error or netmem exhaustion.
    CabRetry { iface: IfaceId },
    /// Degraded-mode probe: test whether the adaptor has recovered and the
    /// interface can return to the single-copy path.
    CabProbe { iface: IfaceId },
    /// Watchdog for a wedged DMA engine: reset the board if it is still
    /// stuck when this fires.
    CabWatchdog { iface: IfaceId },
}

/// Side effects a kernel entry point hands back to the harness.
#[derive(Clone, Debug)]
#[allow(missing_docs, reason = "the variant docs describe the payload fields")]
pub enum Effect {
    /// Charge CPU time on this host.
    Cpu { dur: Dur, charge: Charge },
    /// A device event from this host's CAB (already timestamped by the
    /// device model): SDMA completions loop back into
    /// [`crate::Kernel::sdma_done`], `FrameOut`s go onto the fabric,
    /// `RxReady`s loop back into [`crate::Kernel::rx_interrupt`].
    Cab { iface: IfaceId, event: CabEvent },
    /// A frame for a conventional serializing link (Ethernet).
    EthTx { iface: IfaceId, frame: Bytes },
    /// A frame looped back to this same kernel (loopback interface);
    /// deliver via `frame_arrive` after a tiny scheduling delay.
    Loop { iface: IfaceId, frame: Bytes },
    /// Wake a process blocked in a syscall on this socket.
    Wake { task: TaskId, sock: SockId },
    /// Arm a timer `after` from now.
    Timer { after: Dur, kind: TimerKind },
    /// An in-kernel application's delivery queue has a ready entry (§5).
    KernelReady { sock: SockId },
}

/// Outcome of `sys_write`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs, reason = "the variant docs describe the payload fields")]
pub enum WriteResult {
    /// All bytes accepted; the call returns to the application immediately.
    Done { bytes: usize },
    /// The calling process must block; it will receive a `Wake` when the
    /// write's data has been fully copied/DMAed (copy semantics, §4.4.2) or
    /// when buffer space frees up for the remainder.
    Blocked { accepted: usize },
}

/// Outcome of `sys_read`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs, reason = "the variant docs describe the payload fields")]
pub enum ReadResult {
    /// `bytes` are in the user buffer (kernel-resident data was copied
    /// synchronously).
    Done { bytes: usize },
    /// Data is being DMAed from outboard memory into the user buffer; the
    /// process blocks until the end-of-DMA wake (§2.2), after which `bytes`
    /// will be available.
    BlockedDma { bytes: usize },
    /// No data available; the process blocks until data arrives.
    WouldBlock,
    /// The peer closed and no more data will arrive.
    Eof,
}

/// Stack errors surfaced to callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackError {
    /// Unknown socket descriptor.
    BadSocket,
    /// Operation requires an established connection.
    NotConnected,
    /// Socket already has a peer.
    AlreadyConnected,
    /// Port already bound.
    AddrInUse,
    /// No route to the destination.
    NoRoute,
    /// Operation not valid in the socket's current state.
    InvalidState(&'static str),
    /// Datagram exceeds the UDP/IP maximum.
    MessageTooBig,
    /// The user range is not mapped in the task's address space
    /// (`EFAULT`).
    BadAddress,
    /// The connection was dropped after [`crate::MAX_BACKOFF`] + 1
    /// consecutive retransmission timeouts (Net/2 `ETIMEDOUT`).
    TimedOut,
    /// The peer reset the connection (`ECONNRESET`).
    ConnReset,
    /// The peer answered the connection request with a reset
    /// (`ECONNREFUSED`).
    ConnRefused,
    /// A socket buffer smaller than [`MIN_SOCK_BUF`]: refused by
    /// `setsockopt`, and by a write on a socket created with one.
    BufferTooSmall,
}

/// The smallest socket buffer a TCP socket accepts, bytes: one word. The
/// single-copy path appends word-multiple chunks before a write's tail
/// (§4.5), so a smaller buffer could never take a first chunk.
pub const MIN_SOCK_BUF: usize = 4;

impl std::fmt::Display for StackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for StackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let sc = StackConfig::single_copy();
        assert_eq!(sc.mode, StackMode::SingleCopy);
        assert_eq!(sc.sock_buf, 512 * 1024);
        let un = StackConfig::unmodified();
        assert_eq!(un.mode, StackMode::Unmodified);
        assert_eq!(un.sock_buf, sc.sock_buf);
    }

    #[test]
    fn sockaddr_display() {
        let a = SockAddr::new(Ipv4Addr::new(10, 0, 0, 1), 5001);
        assert_eq!(a.to_string(), "10.0.0.1:5001");
    }
}
