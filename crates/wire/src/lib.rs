//! Wire formats for the outboard reproduction.
//!
//! This crate owns everything that has a bit-level representation on the
//! simulated network:
//!
//! * [`checksum`] — the Internet ones-complement checksum, including the
//!   partial-sum/seed algebra that makes *outboard* checksumming work
//!   (§4.3 of the paper): the host seeds the checksum field with the sum of
//!   the headers it owns, and the CAB hardware folds in the sum of the body
//!   it DMAs,
//! * [`ipv4`] — IPv4 header build/parse with header checksum and
//!   fragmentation fields,
//! * [`tcp`] — TCP header with MSS and window-scale options (the paper's
//!   stack supports RFC 1323 window scaling; the 512 KB experiment window
//!   requires it),
//! * [`udp`] — UDP header,
//! * [`hippi`] — a simplified HIPPI-FP framing header (fixed-size, word
//!   aligned, so the CAB's "skip S words" checksum engine lines up),
//! * [`ether`] — Ethernet II framing for the traditional-path device.
//!
//! All multi-byte fields are big-endian (network order). Parsers return
//! `Result<_, WireError>` and never panic on hostile input — a property test
//! feeds random bytes through every parser.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

pub mod checksum;
pub mod ether;
pub mod hippi;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use checksum::{Accumulator, Checksum};
pub use ether::EtherHeader;
pub use hippi::HippiHeader;
pub use ipv4::Ipv4Header;
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;

/// IP protocol numbers used in the workspace.
pub mod proto {
    /// Internet Control Message Protocol.
    pub const ICMP: u8 = 1;
    /// Transmission Control Protocol.
    pub const TCP: u8 = 6;
    /// User Datagram Protocol.
    pub const UDP: u8 = 17;

    /// Human-readable protocol name for reports and traces.
    pub fn name(p: u8) -> &'static str {
        match p {
            ICMP => "icmp",
            TCP => "tcp",
            UDP => "udp",
            _ => "other",
        }
    }
}

/// Errors produced by header parsers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the fixed header.
    Truncated,
    /// A length field points outside the buffer or below the header size.
    BadLength,
    /// Version/IHL or another structural field is invalid.
    Malformed,
    /// A verified checksum did not match.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated header",
            WireError::BadLength => "bad length field",
            WireError::Malformed => "malformed header",
            WireError::BadChecksum => "checksum mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Read a big-endian u16 at `off` (caller guarantees bounds).
#[inline]
pub(crate) fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Read a big-endian u32 at `off` (caller guarantees bounds).
#[inline]
pub(crate) fn be32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// Write a big-endian u16 at `off`.
#[inline]
pub(crate) fn put16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Write a big-endian u32 at `off`.
#[inline]
pub(crate) fn put32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_be_bytes());
}
