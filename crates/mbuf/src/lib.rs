//! BSD mbuf framework with the paper's two new external mbuf types.
//!
//! §4.2 of the paper: with a single-stack implementation, data flows through
//! the stack in three formats, all represented as mbufs —
//!
//! 1. **kernel buffers** — traditional mbufs (small or cluster storage; we
//!    model both with cheap reference-counted [`bytes::Bytes`]),
//! 2. **data in user space** — `M_UIO` mbufs, descriptors pointing at a
//!    region of a (simulated) user address space; used on transmit before
//!    the data moves outboard, and on receive to describe a `read()` target,
//! 3. **data in outboard buffers** — `M_WCAB` mbufs, descriptors pointing at
//!    a packet in CAB network memory; these appear in the transmit stack as
//!    retransmittable sent data and in the receive stack for large packets.
//!
//! Packetization is performed *symbolically* on these descriptors — chains
//! are split, cloned, trimmed and spliced without touching payload bytes — which is
//! what collapses all data-touching work into the driver (§3).
//!
//! The crate is deliberately independent of the CAB and host models: `M_UIO`
//! and `M_WCAB` carry opaque ids (task ids, packet ids) that the stack crate
//! resolves. This mirrors the original design where mbufs carry pointers the
//! driver interprets.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_macros, reason = "tests use vec!"))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod chain;
mod hold;
mod mbuf;

pub use chain::Chain;
pub use hold::{PacketHolds, PacketRef};
pub use mbuf::{CsumPlan, Mbuf, MbufData, Segment, UioDesc, UioRegion, WcabDesc};

/// Identifies a simulated task/process (owner of a user address space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Names the socket-layer UIO counter of a `write` (§4.4.2: its bytes still
/// to move outboard before the process may be woken). The stack keeps that
/// count on the writing socket, and the id is the socket's number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UioCounterId(pub u64);

/// Size of a small mbuf's internal data area, bytes (BSD `MLEN`-ish). The
/// socket layer copies writes smaller than a threshold into regular mbufs
/// instead of building `M_UIO` descriptors (§4.4.3).
pub(crate) const MLEN: usize = 128;

/// Allocation statistics, kept by each kernel to expose mbuf-pool behaviour
/// in tests and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MbufStats {
    /// Mbufs small enough for internal storage.
    pub small_allocs: u64,
    /// Cluster-backed mbufs (payload larger than `MLEN`).
    pub cluster_allocs: u64,
    /// `M_UIO` descriptor mbufs created.
    pub uio_allocs: u64,
    /// `M_WCAB` descriptor mbufs created.
    pub wcab_allocs: u64,
}

impl MbufStats {
    /// Attribute one allocation to the right bucket.
    pub fn count(&mut self, m: &Mbuf) {
        match m.data() {
            MbufData::Kernel(b) => {
                if b.len() > MLEN {
                    self.cluster_allocs += 1;
                } else {
                    self.small_allocs += 1;
                }
            }
            MbufData::Uio(_) => self.uio_allocs += 1,
            MbufData::Wcab(_) => self.wcab_allocs += 1,
        }
    }

    /// All allocations counted so far.
    pub fn total(&self) -> u64 {
        self.small_allocs + self.cluster_allocs + self.uio_allocs + self.wcab_allocs
    }
}
