//! Ethernet II framing for the traditional-path device.
//!
//! The paper's interoperability story (§5) requires a second, conventional
//! network interface next to the CAB; the testbed uses a 10 Mbit/s Ethernet
//! whose driver copies data and checksums in software. Note the 14-byte
//! header is *not* word-aligned — which is precisely why this device cannot
//! use the CAB's word-based checksum engine and must take the traditional
//! path.

use crate::{be16, put16, WireError};

/// Ethernet II header length.
pub const ETHER_HEADER_LEN: usize = 14;
/// Ethertype for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;
/// A 48-bit MAC address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Deterministic locally-administered address derived from a host index.
    pub fn local(idx: u8) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, idx])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// An Ethernet II header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EtherHeader {
    /// Destination hardware address.
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// EtherType of the payload (0x0800 for IPv4).
    pub ethertype: u16,
}

impl EtherHeader {
    /// An IPv4 frame header from `src` to `dst`.
    pub fn new(src: MacAddr, dst: MacAddr) -> EtherHeader {
        EtherHeader {
            dst,
            src,
            ethertype: ETHERTYPE_IPV4,
        }
    }

    /// Serialize into the 14-byte wire format.
    pub fn build(&self) -> [u8; ETHER_HEADER_LEN] {
        let mut b = [0u8; ETHER_HEADER_LEN];
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        put16(&mut b, 12, self.ethertype);
        b
    }

    /// Parse a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<EtherHeader, WireError> {
        if buf.len() < ETHER_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EtherHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: be16(buf, 12),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = EtherHeader::new(MacAddr::local(1), MacAddr::local(2));
        let b = h.build();
        assert_eq!(EtherHeader::parse(&b).unwrap(), h);
    }

    #[test]
    fn header_is_not_word_aligned() {
        // Documented property that forces the traditional path.
        assert_ne!(ETHER_HEADER_LEN % 4, 0);
    }

    #[test]
    fn truncated() {
        assert_eq!(EtherHeader::parse(&[0; 13]), Err(WireError::Truncated));
    }

    #[test]
    fn display_mac() {
        assert_eq!(format!("{}", MacAddr::local(9)), "02:00:00:00:00:09");
    }
}
