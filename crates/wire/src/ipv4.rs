//! IPv4 header build/parse.
//!
//! The CAB does not "speak IP" (paper §4.3): the host builds every IP header,
//! including its header checksum, in software. This module is that software.
//! Options are not generated; received options are tolerated (skipped) so a
//! hostile peer cannot crash the stack.

use crate::checksum::{Accumulator, Checksum};
use crate::{be16, put16, WireError};
use std::net::Ipv4Addr;

/// Fixed IPv4 header length without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// More Fragments flag.
pub const IP_MF: u16 = 0x2000;
/// Fragment offset mask (in 8-byte units).
pub(crate) const IP_OFFMASK: u16 = 0x1FFF;

/// A parsed or to-be-serialized IPv4 header (options never generated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Type-of-service byte.
    pub tos: u8,
    /// Total datagram length (header + payload), bytes.
    pub total_len: u16,
    /// Datagram identification (shared by all of its fragments).
    pub id: u16,
    /// Flags in the top 3 bits plus 13-bit fragment offset in 8-byte units.
    pub flags_frag: u16,
    /// Time to live (hop count budget).
    pub ttl: u8,
    /// Payload protocol number (see [`crate::proto`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Header length in bytes (>= 20; parse accepts options, build emits 20).
    pub header_len: u8,
}

impl Ipv4Header {
    /// A fresh header for an outgoing datagram.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload_len: usize, id: u16) -> Self {
        let total = IPV4_HEADER_LEN + payload_len;
        assert!(total <= u16::MAX as usize, "datagram too large for IPv4");
        Ipv4Header {
            tos: 0,
            total_len: total as u16,
            id,
            flags_frag: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            header_len: IPV4_HEADER_LEN as u8,
        }
    }

    /// Fragment offset in bytes.
    pub fn frag_offset(&self) -> usize {
        ((self.flags_frag & IP_OFFMASK) as usize) * 8
    }

    /// True when the MF flag is set (more fragments follow).
    pub fn more_fragments(&self) -> bool {
        self.flags_frag & IP_MF != 0
    }

    /// True when this datagram is a fragment (offset != 0 or MF set).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments() || self.frag_offset() != 0
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        self.total_len as usize - self.header_len as usize
    }

    /// Serialize into exactly [`IPV4_HEADER_LEN`] bytes with a correct header
    /// checksum.
    pub fn build(&self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.tos;
        put16(&mut b, 2, self.total_len);
        put16(&mut b, 4, self.id);
        put16(&mut b, 6, self.flags_frag);
        b[8] = self.ttl;
        b[9] = self.protocol;
        // checksum at 10..12 stays zero during computation
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let c = Checksum::of(&b);
        b[10..12].copy_from_slice(&c.to_be_bytes());
        b
    }

    /// Parse and validate a header from the front of `buf`.
    ///
    /// Checks: length, version, IHL, total-length plausibility and the header
    /// checksum. Returns the header; the payload is `buf[header_len..total_len]`.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header, WireError> {
        Ipv4Header::parse_with_limit(buf, buf.len())
    }

    /// Like [`Ipv4Header::parse`], but the datagram's bytes may extend
    /// beyond `buf` up to `available` bytes (the CAB's auto-DMA hands the
    /// host only the first L words of a large packet; the rest is outboard).
    pub fn parse_with_limit(buf: &[u8], available: usize) -> Result<Ipv4Header, WireError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::Malformed);
        }
        let ihl = (buf[0] & 0x0F) as usize * 4;
        if !(IPV4_HEADER_LEN..=60).contains(&ihl) || buf.len() < ihl {
            return Err(WireError::Malformed);
        }
        let total_len = be16(buf, 2);
        if (total_len as usize) < ihl || total_len as usize > available.max(buf.len()) {
            return Err(WireError::BadLength);
        }
        let mut acc = Accumulator::new();
        acc.add_bytes(&buf[..ihl]);
        if acc.partial() != 0xFFFF {
            return Err(WireError::BadChecksum);
        }
        Ok(Ipv4Header {
            tos: buf[1],
            total_len,
            id: be16(buf, 4),
            flags_frag: be16(buf, 6),
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            header_len: ihl as u8,
        })
    }
}

/// Don't Fragment flag.
#[cfg(test)]
pub(crate) const IP_DF: u16 = 0x4000;

#[cfg(test)]
impl Ipv4Header {
    /// True when the DF flag is set.
    pub(crate) fn dont_fragment(&self) -> bool {
        self.flags_frag & IP_DF != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            crate::proto::TCP,
            100,
            0x1234,
        )
    }

    fn padded(h: &Ipv4Header) -> Vec<u8> {
        let mut buf = h.build().to_vec();
        buf.resize(h.total_len as usize, 0);
        buf
    }

    #[test]
    fn build_parse_round_trip() {
        let h = sample();
        let parsed = Ipv4Header::parse(&padded(&h)).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.payload_len(), 100);
    }

    #[test]
    fn checksum_is_verified() {
        let mut bytes = padded(&sample());
        bytes[8] = bytes[8].wrapping_add(1); // mangle TTL
        assert_eq!(Ipv4Header::parse(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn rejects_short_and_bad_version() {
        assert_eq!(Ipv4Header::parse(&[0u8; 10]), Err(WireError::Truncated));
        let mut bytes = sample().build();
        bytes[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let h = sample();
        let bytes = h.build();
        // Claim 100-byte payload but hand only the header to the parser.
        assert_eq!(Ipv4Header::parse(&bytes[..20]), Err(WireError::BadLength));
        // With a buffer big enough it parses.
        let mut buf = bytes.to_vec();
        buf.resize(120, 0);
        assert!(Ipv4Header::parse(&buf).is_ok());
    }

    #[test]
    fn fragment_fields() {
        let mut h = sample();
        h.flags_frag = IP_MF | 185; // offset 185*8 = 1480 bytes
        assert!(h.more_fragments());
        assert!(h.is_fragment());
        assert_eq!(h.frag_offset(), 1480);
        h.flags_frag = IP_DF;
        assert!(h.dont_fragment());
        assert!(!h.is_fragment());
    }

    #[test]
    fn parse_accepts_options() {
        // Hand-build a 24-byte header (IHL=6) with one option word.
        let mut b = vec![0u8; 24];
        b[0] = 0x46;
        put16(&mut b, 2, 24);
        b[8] = 64;
        b[9] = 17;
        b[12..16].copy_from_slice(&[1, 1, 1, 1]);
        b[16..20].copy_from_slice(&[2, 2, 2, 2]);
        b[20] = 0x01; // NOP option
        let c = Checksum::of(&b[..24]);
        b[10..12].copy_from_slice(&c.to_be_bytes());
        let h = Ipv4Header::parse(&b).unwrap();
        assert_eq!(h.header_len, 24);
        assert_eq!(h.payload_len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser never panics on arbitrary bytes.
        #[test]
        fn parser_is_total(buf in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Ipv4Header::parse(&buf);
        }

        /// Round trip holds for arbitrary field values.
        #[test]
        fn round_trip(tos in any::<u8>(), id in any::<u16>(), ttl in 1u8..,
                      payload in 0usize..1000, proto in any::<u8>(),
                      src in any::<[u8;4]>(), dst in any::<[u8;4]>(),
                      flags in 0u16..8) {
            let mut h = Ipv4Header::new(src.into(), dst.into(), proto, payload, id);
            h.tos = tos;
            h.ttl = ttl;
            h.flags_frag = flags << 13 | 7;
            let mut buf = h.build().to_vec();
            buf.resize(20 + payload, 0xAA);
            let parsed = Ipv4Header::parse(&buf).unwrap();
            prop_assert_eq!(parsed, h);
        }
    }
}
