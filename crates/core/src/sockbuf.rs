//! Socket buffers.
//!
//! [`SockBuf`] is BSD's `sockbuf`: a bounded mbuf chain with a high-water
//! mark. §4.4.2's UIO counters live with the operations they count: a
//! write's is its socket's `uio_queued`, a read's its
//! `BlockedRead::outstanding`, both kept by `kernel::hold`.

use outboard_mbuf::Chain;

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
}
