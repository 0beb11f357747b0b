//! Simplified HIPPI-FP framing.
//!
//! The real Gigabit Nectar framing carries a HIPPI-FP header plus a D1 area;
//! what matters for this reproduction is its *shape*: a fixed-size,
//! word-aligned header in front of the IP datagram, so that
//!
//! * the CAB's receive checksum engine can start at a fixed word offset
//!   (`RX_CSUM_SKIP_WORDS` = HIPPI + IP headers, the paper's "20 words"
//!   adapted to our framing), and
//! * the transmit "skip S words" count (HIPPI + IP + TCP headers) is an
//!   integral number of 32-bit words.
//!
//! We use a 40-byte header: 20 bytes of fields and a 20-byte D1/padding area.

use crate::{be16, be32, put16, put32, WireError};

/// Total framing header length (word-aligned, fixed).
pub const HIPPI_HEADER_LEN: usize = 40;

/// `HIPPI_HEADER_LEN` in 32-bit words.
pub(crate) const HIPPI_HEADER_WORDS: usize = HIPPI_HEADER_LEN / 4;

/// ULP id we use for IPv4 ("IP-over-HIPPI" in this simulation).
pub(crate) const ULP_IPV4: u8 = 4;

/// Receive checksum start offset in words: HIPPI (10) + IPv4 (5) headers.
/// This is the simulation's analogue of the paper's "set to 20 words".
pub const RX_CSUM_SKIP_WORDS: usize = HIPPI_HEADER_WORDS + 5;

/// A HIPPI switch address (one per host port in the simulated fabric).
pub type HippiAddr = u32;

/// The simplified HIPPI-FP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HippiHeader {
    /// Upper-layer protocol (always `ULP_IPV4` here).
    pub ulp: u8,
    /// D2 (payload) size in bytes — the IP datagram length.
    pub d2_size: u32,
    /// Source port address in the switch fabric.
    pub src: HippiAddr,
    /// Destination port address in the switch fabric.
    pub dst: HippiAddr,
    /// Logical channel the sender queued this packet on (§2.1: used to avoid
    /// head-of-line blocking; FIFO MACs always send 0).
    pub channel: u16,
}

impl HippiHeader {
    /// A framing header carrying `payload_len` bytes of IPv4 from `src` to `dst` on `channel`.
    pub fn new(src: HippiAddr, dst: HippiAddr, payload_len: usize, channel: u16) -> HippiHeader {
        HippiHeader {
            ulp: ULP_IPV4,
            d2_size: payload_len as u32,
            src,
            dst,
            channel,
        }
    }

    /// Payload (D2 area) length in bytes.
    pub fn payload_len(&self) -> usize {
        self.d2_size as usize
    }

    /// Serialize into the fixed 40-byte wire format.
    pub fn build(&self) -> [u8; HIPPI_HEADER_LEN] {
        let mut b = [0u8; HIPPI_HEADER_LEN];
        b[0] = self.ulp;
        b[1] = 0; // version
        put16(&mut b, 2, 0); // flags
        put32(&mut b, 4, self.d2_size);
        put32(&mut b, 8, self.src);
        put32(&mut b, 12, self.dst);
        put16(&mut b, 16, self.channel);
        // 18..20 reserved, 20..40 D1/padding: zero.
        b
    }

    /// Parse a header from the front of `buf`, checking the payload fits.
    pub fn parse(buf: &[u8]) -> Result<HippiHeader, WireError> {
        if buf.len() < HIPPI_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let d2_size = be32(buf, 4);
        if d2_size as usize > buf.len() - HIPPI_HEADER_LEN {
            return Err(WireError::BadLength);
        }
        Ok(HippiHeader {
            ulp: buf[0],
            d2_size,
            src: be32(buf, 8),
            dst: be32(buf, 12),
            channel: be16(buf, 16),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_word_aligned() {
        assert_eq!(HIPPI_HEADER_LEN % 4, 0);
        assert_eq!(RX_CSUM_SKIP_WORDS * 4, HIPPI_HEADER_LEN + 20);
    }

    #[test]
    fn round_trip() {
        let h = HippiHeader::new(3, 7, 32 * 1024, 5);
        let mut buf = h.build().to_vec();
        buf.resize(HIPPI_HEADER_LEN + 32 * 1024, 0);
        assert_eq!(HippiHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn rejects_short_buffer_and_bad_d2() {
        assert_eq!(HippiHeader::parse(&[0u8; 10]), Err(WireError::Truncated));
        let h = HippiHeader::new(1, 2, 100, 0);
        let buf = h.build(); // no payload present
        assert_eq!(HippiHeader::parse(&buf), Err(WireError::BadLength));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parser_is_total(buf in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = HippiHeader::parse(&buf);
        }

        #[test]
        fn round_trip(src in any::<u32>(), dst in any::<u32>(),
                      plen in 0usize..4096, ch in any::<u16>()) {
            let h = HippiHeader::new(src, dst, plen, ch);
            let mut buf = h.build().to_vec();
            buf.resize(HIPPI_HEADER_LEN + plen, 0xCC);
            prop_assert_eq!(HippiHeader::parse(&buf).unwrap(), h);
        }
    }
}
