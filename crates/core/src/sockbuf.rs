//! Socket buffers and UIO counters.
//!
//! [`SockBuf`] is BSD's `sockbuf`: a bounded mbuf chain with a high-water
//! mark. [`UioCounters`] implements §4.4.2: a `write` on the single-copy
//! path may only return once *all* of its bytes have been copied outboard
//! (copy semantics), and a `read` only once all DMAs filling the user buffer
//! have completed. Each blocked operation owns a counter tracking its
//! outstanding bytes; drivers decrement it from end-of-DMA handling. A
//! drained counter ends a read; a write also waits for the frames that
//! still gather from its buffer (`Kernel::settle_write`).

use crate::types::{SockId, StackError};
use outboard_mbuf::{Chain, UioCounterId};
use outboard_sim::IdTable;

/// A bounded socket buffer.
#[derive(Clone, Debug)]
pub struct SockBuf {
    /// The buffered data (possibly mixed mbuf formats).
    pub chain: Chain,
    /// High-water mark in bytes.
    pub hiwat: usize,
}

impl SockBuf {
    /// An empty buffer bounded at `hiwat` bytes.
    pub fn new(hiwat: usize) -> SockBuf {
        SockBuf {
            chain: Chain::new(),
            hiwat,
        }
    }

    /// Buffered bytes.
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// Free space below the high-water mark.
    pub fn space(&self) -> usize {
        self.hiwat.saturating_sub(self.chain.len())
    }
}

/// State of one blocked single-copy operation (§4.4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UioState {
    /// The socket the operation runs on.
    pub sock: SockId,
    /// Bytes queued/issued but whose DMA has not completed yet.
    pub outstanding: usize,
    /// Bytes of the operation not yet handed to the stack (socket buffer was
    /// full; the socket layer continues incrementally as space frees).
    pub unissued: usize,
}

impl UioState {
    /// The operation is complete and its process may be woken.
    pub(crate) fn drained(&self) -> bool {
        self.outstanding == 0 && self.unissued == 0
    }
}

/// Registry of live UIO counters on one host.
#[derive(Debug, Default)]
pub(crate) struct UioCounters {
    next: u64,
    /// Live counters by id (issued in sequence from `next`).
    live: IdTable<UioState>,
}

impl UioCounters {
    /// An empty registry.
    pub(crate) fn new() -> UioCounters {
        UioCounters::default()
    }

    /// Register a blocked operation covering `total` bytes.
    pub(crate) fn create(&mut self, sock: SockId, total: usize) -> UioCounterId {
        let id = UioCounterId(self.next);
        self.next += 1;
        self.live.insert(
            id.0,
            UioState {
                sock,
                outstanding: 0,
                unissued: total,
            },
        );
        id
    }

    /// Inspect a live counter.
    pub(crate) fn get(&self, id: UioCounterId) -> Option<&UioState> {
        self.live.get(id.0)
    }

    /// Move `bytes` from un-issued to outstanding (data handed down to the
    /// transport layer / DMA issued).
    pub(crate) fn issue(&mut self, id: UioCounterId, bytes: usize) -> Result<(), StackError> {
        let st = self.live.get_mut(id.0).ok_or(StackError::BadSocket)?;
        assert!(st.unissued >= bytes, "issuing more than remains");
        st.unissued -= bytes;
        st.outstanding += bytes;
        Ok(())
    }

    /// Record DMA completion of `bytes`; returns the state if the whole
    /// operation just drained (the counter is removed, and the caller ends
    /// the operation).
    pub(crate) fn complete(&mut self, id: UioCounterId, bytes: usize) -> Option<UioState> {
        let st = self.live.get_mut(id.0)?;
        assert!(st.outstanding >= bytes, "completing more than outstanding");
        st.outstanding -= bytes;
        if st.drained() {
            self.live.remove(id.0)
        } else {
            None
        }
    }

    /// Drop a counter without waking (socket torn down).
    pub(crate) fn cancel(&mut self, id: UioCounterId) {
        self.live.remove(id.0);
    }
}

#[cfg(test)]
impl UioCounters {
    /// Counters not yet drained.
    pub(crate) fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockbuf_space() {
        let mut sb = SockBuf::new(100);
        assert_eq!(sb.space(), 100);
        sb.chain
            .append(outboard_mbuf::Mbuf::kernel_copy(&[0u8; 60]));
        assert_eq!(sb.space(), 40);
        sb.chain
            .append(outboard_mbuf::Mbuf::kernel_copy(&[0u8; 60]));
        assert_eq!(sb.space(), 0, "space saturates below zero");
        assert_eq!(sb.len(), 120);
    }

    #[test]
    fn counter_lifecycle_models_a_blocked_write() {
        let mut reg = UioCounters::new();
        let id = reg.create(SockId(0), 64 * 1024);
        // Socket layer hands down two 32 KB packets.
        reg.issue(id, 32 * 1024).unwrap();
        reg.issue(id, 32 * 1024).unwrap();
        assert!(!reg.get(id).unwrap().drained());
        // First DMA completes: still outstanding.
        assert!(reg.complete(id, 32 * 1024).is_none());
        // Second completes: drained, counter removed, caller settles the
        // write on socket 0.
        let st = reg.complete(id, 32 * 1024).expect("drained");
        assert_eq!(st.sock, SockId(0));
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn partial_issue_keeps_blocking() {
        let mut reg = UioCounters::new();
        let id = reg.create(SockId(1), 100);
        reg.issue(id, 40).unwrap();
        // DMA of the issued part completes, but 60 bytes never got buffer
        // space yet: not drained.
        assert!(reg.complete(id, 40).is_none());
        reg.issue(id, 60).unwrap();
        assert!(reg.complete(id, 60).is_some());
    }

    #[test]
    fn cancel_removes() {
        let mut reg = UioCounters::new();
        let id = reg.create(SockId(0), 10);
        reg.cancel(id);
        assert!(reg.get(id).is_none());
        assert!(reg.complete(id, 10).is_none());
    }
}
