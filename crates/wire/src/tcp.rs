//! TCP header with the options the paper's stack uses: MSS (on SYN) and
//! RFC 1323 window scaling (the experiments run a 512 KB window over a
//! 32 KB-MTU HIPPI network, which does not fit in the bare 16-bit field).
//!
//! The header is always emitted padded to a 4-byte multiple so the CAB's
//! word-based "skip S words" checksum engine lines up with the start of user
//! data (§4.3).

use crate::{be16, be32, put16, put32, WireError};

/// Fixed TCP header length without options.
pub const TCP_HEADER_LEN: usize = 20;
/// Offset of the checksum field within the TCP header.
pub const TCP_CSUM_OFFSET: usize = 16;

/// TCP flag bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No more data from sender.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// Synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// Reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// Acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// Urgent pointer is significant.
    pub(crate) const URG: TcpFlags = TcpFlags(0x20);

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Bitwise union of two flag sets.
    pub(crate) fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// SYN set?
    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// ACK set?
    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// FIN set?
    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// RST set?
    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = [
            (TcpFlags::SYN, "S"),
            (TcpFlags::ACK, "A"),
            (TcpFlags::FIN, "F"),
            (TcpFlags::RST, "R"),
            (TcpFlags::PSH, "P"),
            (TcpFlags::URG, "U"),
        ];
        for (flag, n) in names {
            if self.contains(flag) {
                f.write_str(n)?;
            }
        }
        Ok(())
    }
}

/// A parsed or to-be-serialized TCP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Next sequence number expected from the peer (with ACK).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Raw (unscaled) window field.
    pub window: u16,
    /// Checksum field as carried on the wire (or the outboard seed).
    pub checksum: u16,
    /// Urgent pointer (unused by this stack).
    pub urgent: u16,
    /// MSS option value (SYN segments only).
    pub mss: Option<u16>,
    /// Window-scale option shift count (SYN segments only).
    pub window_scale: Option<u8>,
    /// Header length in bytes, always a multiple of 4.
    pub header_len: u8,
}

impl TcpHeader {
    /// A bare header with no options and zeroed window/checksum.
    pub fn new(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0,
            checksum: 0,
            urgent: 0,
            mss: None,
            window_scale: None,
            header_len: TCP_HEADER_LEN as u8,
        }
    }

    /// Length this header will serialize to (20 + padded options).
    pub(crate) fn wire_len(&self) -> usize {
        let mut opt = 0usize;
        if self.mss.is_some() {
            opt += 4;
        }
        if self.window_scale.is_some() {
            opt += 3;
        }
        TCP_HEADER_LEN + opt.div_ceil(4) * 4
    }

    /// Serialize. The checksum field is emitted as `self.checksum`
    /// (zero while computing a software checksum, or the outboard *seed*).
    pub fn build(&self) -> Vec<u8> {
        let len = self.wire_len();
        let mut b = vec![0u8; len];
        put16(&mut b, 0, self.src_port);
        put16(&mut b, 2, self.dst_port);
        put32(&mut b, 4, self.seq);
        put32(&mut b, 8, self.ack);
        b[12] = ((len / 4) as u8) << 4;
        b[13] = self.flags.0;
        put16(&mut b, 14, self.window);
        put16(&mut b, 16, self.checksum);
        put16(&mut b, 18, self.urgent);
        let mut off = TCP_HEADER_LEN;
        if let Some(mss) = self.mss {
            b[off] = 2; // kind: MSS
            b[off + 1] = 4;
            put16(&mut b, off + 2, mss);
            off += 4;
        }
        if let Some(ws) = self.window_scale {
            b[off] = 3; // kind: window scale
            b[off + 1] = 3;
            b[off + 2] = ws;
            off += 3;
        }
        // Pad with NOPs to the word boundary.
        while off < len {
            b[off] = 1;
            off += 1;
        }
        b
    }

    /// Parse a header (and its options) from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<TcpHeader, WireError> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_off = ((buf[12] >> 4) as usize) * 4;
        if !(TCP_HEADER_LEN..=60).contains(&data_off) || buf.len() < data_off {
            return Err(WireError::Malformed);
        }
        let mut h = TcpHeader {
            src_port: be16(buf, 0),
            dst_port: be16(buf, 2),
            seq: be32(buf, 4),
            ack: be32(buf, 8),
            flags: TcpFlags(buf[13]),
            window: be16(buf, 14),
            checksum: be16(buf, 16),
            urgent: be16(buf, 18),
            mss: None,
            window_scale: None,
            header_len: data_off as u8,
        };
        let mut off = TCP_HEADER_LEN;
        while off < data_off {
            match buf[off] {
                0 => break, // end of options
                1 => off += 1,
                kind => {
                    if off + 1 >= data_off {
                        return Err(WireError::Malformed);
                    }
                    let olen = buf[off + 1] as usize;
                    if olen < 2 || off + olen > data_off {
                        return Err(WireError::Malformed);
                    }
                    match (kind, olen) {
                        (2, 4) => h.mss = Some(be16(buf, off + 2)),
                        (3, 3) => h.window_scale = Some(buf[off + 2]),
                        _ => {} // unknown option: skip
                    }
                    off += olen;
                }
            }
        }
        Ok(h)
    }
}

/// Sequence-number arithmetic (RFC 793 modular comparisons).
pub mod seq {
    /// `a < b` in sequence space.
    #[inline]
    pub fn lt(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) < 0
    }

    /// `a <= b` in sequence space.
    #[inline]
    pub fn leq(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) <= 0
    }

    /// `a > b` in sequence space.
    #[inline]
    pub fn gt(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) > 0
    }

    /// `a >= b` in sequence space.
    #[inline]
    pub fn geq(a: u32, b: u32) -> bool {
        (a.wrapping_sub(b) as i32) >= 0
    }

    /// Distance `b - a` (caller asserts `a <= b` in sequence space).
    #[inline]
    pub fn diff(b: u32, a: u32) -> u32 {
        b.wrapping_sub(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_header_round_trip() {
        let mut h = TcpHeader::new(
            1234,
            80,
            0xDEADBEEF,
            0x12345678,
            TcpFlags::ACK | TcpFlags::PSH,
        );
        h.window = 0xFFFF;
        h.checksum = 0xABCD;
        let bytes = h.build();
        assert_eq!(bytes.len(), 20);
        let parsed = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn syn_options_round_trip() {
        let mut h = TcpHeader::new(5000, 5001, 1, 0, TcpFlags::SYN);
        h.mss = Some(32 * 1024 - 60);
        h.window_scale = Some(3);
        let bytes = h.build();
        // 20 + 4 (MSS) + 3 (WS) padded to 28.
        assert_eq!(bytes.len(), 28);
        assert_eq!(bytes.len() % 4, 0, "word aligned for the CAB");
        let parsed = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.mss, h.mss);
        assert_eq!(parsed.window_scale, h.window_scale);
        assert_eq!(parsed.header_len, 28);
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut bytes = TcpHeader::new(1, 2, 3, 4, TcpFlags::ACK).build();
        bytes[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpHeader::parse(&bytes), Err(WireError::Malformed));
        bytes[12] = 0xF0; // data offset 60 > buffer
        assert_eq!(TcpHeader::parse(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn rejects_truncated_option() {
        let mut h = TcpHeader::new(1, 2, 3, 4, TcpFlags::SYN);
        h.mss = Some(1460);
        let mut bytes = h.build();
        bytes[21] = 40; // MSS option claims length 40
        assert_eq!(TcpHeader::parse(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn unknown_option_skipped() {
        // 24-byte header with an unknown kind-8 option.
        let mut h = TcpHeader::new(1, 2, 3, 4, TcpFlags::ACK);
        h.mss = Some(9999);
        let mut bytes = h.build();
        bytes[20] = 8; // timestamps kind, len 4 (not a real ts option; parser skips)
        bytes[21] = 4;
        bytes[22] = 0;
        bytes[23] = 0;
        let parsed = TcpHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.mss, None, "option replaced, no longer MSS");
    }

    #[test]
    fn flags_display_and_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.syn() && f.ack() && !f.fin());
        assert_eq!(format!("{f}"), "SA");
    }

    #[test]
    fn seq_arithmetic_wraps() {
        use super::seq;
        assert!(seq::lt(0xFFFF_FFF0, 0x10));
        assert!(seq::gt(0x10, 0xFFFF_FFF0));
        assert!(seq::leq(5, 5) && seq::geq(5, 5));
        assert_eq!(seq::diff(0x10, 0xFFFF_FFF0), 0x20);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parser_is_total(buf in proptest::collection::vec(any::<u8>(), 0..80)) {
            let _ = TcpHeader::parse(&buf);
        }

        #[test]
        fn round_trip(sp in any::<u16>(), dp in any::<u16>(), seqn in any::<u32>(),
                      ackn in any::<u32>(), win in any::<u16>(), flags in any::<u8>(),
                      mss in proptest::option::of(any::<u16>()),
                      ws in proptest::option::of(0u8..15)) {
            let mut h = TcpHeader::new(sp, dp, seqn, ackn, TcpFlags(flags));
            h.window = win;
            h.mss = mss;
            h.window_scale = ws;
            let bytes = h.build();
            prop_assert_eq!(bytes.len() % 4, 0);
            let parsed = TcpHeader::parse(&bytes).unwrap();
            prop_assert_eq!(parsed.src_port, h.src_port);
            prop_assert_eq!(parsed.seq, h.seq);
            prop_assert_eq!(parsed.ack, h.ack);
            prop_assert_eq!(parsed.mss, h.mss);
            prop_assert_eq!(parsed.window_scale, h.window_scale);
        }
    }
}
