//! Sockets: state for the copy-semantics API.
//!
//! A socket couples two [`SockBuf`]s with a transport control block and the
//! bookkeeping for blocked operations. The single-copy path's defining
//! feature lives in [`BlockedWrite`]/[`BlockedRead`]: a process that wrote
//! or read through the CAB is suspended not on buffer space alone but on
//! the *completion of the DMAs* covering its buffer (§4.4.2).

use crate::sockbuf::SockBuf;
use crate::tcp::Tcb;
use crate::types::{IfaceId, Proto, SockAddr, SockId, StackError};
use outboard_mbuf::{Chain, TaskId, UioRegion};
use std::collections::VecDeque;

/// Who owns a socket: a user process (copy semantics through syscalls) or
/// an in-kernel application (share semantics over mbuf chains, §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// A user process: copy semantics through syscalls.
    User,
    /// An in-kernel application: share semantics over mbuf chains.
    Kernel,
}

/// A `write` that could not complete synchronously.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockedWrite {
    /// The writing process.
    pub task: TaskId,
    /// The user buffer being written.
    pub region: UioRegion,
    /// Total bytes the application asked to write.
    pub total: usize,
    /// Bytes already handed to the transport layer (appended to `so_snd`).
    pub appended: usize,
    /// The write is on the single-copy path and appends `M_UIO`
    /// descriptors, counted in its socket's `uio_queued`; a traditional
    /// write copies and blocks on space alone.
    pub uio: bool,
}

/// A `read` blocked on outboard copy-out DMA.
#[derive(Clone, Debug)]
pub(crate) struct BlockedRead {
    /// The reading process.
    pub task: TaskId,
    /// The reader's buffer.
    pub vaddr: u64,
    /// The bytes the reader finds in its buffer once woken.
    pub len: usize,
    /// The ranges of the buffer the copy-outs pinned (`kernel::hold`),
    /// unpinned together when the read completes.
    pub pins: Vec<(u64, usize)>,
    /// Copy-out bytes still in flight (§4.4.2's UIO counter of a read,
    /// kept by `kernel::hold`): the read ends when it reaches 0.
    pub outstanding: usize,
}

/// A reader waiting for data to arrive at all.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WaitingReader {
    /// The process to wake when data (or EOF) arrives.
    pub task: TaskId,
}

/// An entry in the in-kernel delivery queue (§5): chains are released to
/// the kernel application strictly in arrival order, so a short packet that
/// needed no conversion DMA can never overtake a long one that did.
#[derive(Debug)]
pub(crate) struct KqEntry {
    /// Monotone arrival order tag.
    pub serial: u64,
    /// The delivered data (converted in place as DMAs complete).
    pub chain: Chain,
    /// The datagram's source (or the stream peer for TCP).
    pub from: SockAddr,
    /// Bytes still being converted from `M_WCAB` to regular mbufs.
    pub converting: usize,
}

/// One socket.
#[derive(Debug)]
pub struct Socket {
    /// Descriptor.
    pub(crate) id: SockId,
    /// Transport protocol.
    pub(crate) proto: Proto,
    /// User process or in-kernel application.
    pub(crate) owner: Owner,
    /// Bound local endpoint.
    pub(crate) local: Option<SockAddr>,
    /// Connected peer.
    pub(crate) remote: Option<SockAddr>,
    /// Interface chosen by the connect-time route (may be superseded by a
    /// fresh route lookup per packet — §4.1's point).
    pub(crate) iface_hint: Option<IfaceId>,
    /// Send buffer.
    pub(crate) so_snd: SockBuf,
    /// Receive buffer.
    pub so_rcv: SockBuf,
    /// TCP control block (None for UDP).
    pub(crate) tcb: Option<Tcb>,
    /// A write awaiting buffer space or DMA completion.
    pub(crate) blocked_write: Option<BlockedWrite>,
    /// A read awaiting copy-out DMA completion.
    pub(crate) blocked_read: Option<BlockedRead>,
    /// Transmit frames gathering from this socket's queued user bytes:
    /// copy-ins in flight or parked for a retry (kept by `kernel::hold`).
    pub(crate) gathers: u32,
    /// Bytes of this socket's write queued as `M_UIO` and not yet copied
    /// or dropped: §4.4.2's UIO counter of a write (kept by
    /// `kernel::hold`). On the socket, not the write, because `write(2)`
    /// puts its write there only after its own send, which a legacy
    /// driver's conversion may already copy.
    pub(crate) uio_queued: usize,
    /// A reader waiting for any data.
    pub(crate) waiting_reader: Option<WaitingReader>,
    /// Task blocked in `connect`.
    pub(crate) connector: Option<TaskId>,
    /// Task blocked in `accept`.
    pub(crate) acceptor: Option<TaskId>,
    /// Listener: established child sockets awaiting `accept`.
    pub(crate) accept_queue: VecDeque<SockId>,
    /// Listener this child was spawned from.
    pub(crate) listen_parent: Option<SockId>,
    /// Receive-side EOF (peer FIN consumed).
    pub(crate) rcv_eof: bool,
    /// UDP datagram boundaries in `so_rcv`: (len, source).
    pub(crate) dgram_bounds: VecDeque<(usize, SockAddr)>,
    /// In-kernel delivery queue (Owner::Kernel).
    pub(crate) kq: VecDeque<KqEntry>,
    /// The retransmission timer is armed: its slot's latest arm acts when
    /// it fires. Cleared when everything is acknowledged, when an ACK
    /// restarts the timer from the new left edge, when it fires, and on
    /// entering TIME_WAIT; a firing while clear does nothing.
    pub(crate) rexmt_armed: bool,
    /// Net/2's `so_error`: why the connection was dropped, returned once
    /// by the next `read` or `write`.
    pub(crate) so_error: Option<StackError>,
}

impl Socket {
    /// A fresh socket with `buf`-byte send/receive buffers.
    pub fn new(id: SockId, proto: Proto, owner: Owner, buf: usize) -> Socket {
        Socket {
            id,
            proto,
            owner,
            local: None,
            remote: None,
            iface_hint: None,
            so_snd: SockBuf::new(buf),
            so_rcv: SockBuf::new(buf),
            tcb: None,
            blocked_write: None,
            blocked_read: None,
            gathers: 0,
            uio_queued: 0,
            waiting_reader: None,
            connector: None,
            acceptor: None,
            accept_queue: VecDeque::new(),
            listen_parent: None,
            rcv_eof: false,
            dgram_bounds: VecDeque::new(),
            kq: VecDeque::new(),
            rexmt_armed: false,
            so_error: None,
        }
    }

    /// True when this socket is a TCP listener.
    pub(crate) fn is_listener(&self) -> bool {
        self.tcb
            .as_ref()
            .map(|t| t.state == crate::tcp::TcpState::Listen)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_socket_defaults() {
        let s = Socket::new(SockId(1), Proto::Tcp, Owner::User, 1024);
        assert_eq!(s.so_snd.space(), 1024);
        assert!(!s.is_listener());
        assert!(s.blocked_write.is_none());
    }

    #[test]
    fn listener_flag_follows_tcb_state() {
        let mut s = Socket::new(SockId(1), Proto::Tcp, Owner::User, 1024);
        let mut tcb = Tcb::new(1, true);
        tcb.listen(1460, 1024);
        s.tcb = Some(tcb);
        assert!(s.is_listener());
    }
}
