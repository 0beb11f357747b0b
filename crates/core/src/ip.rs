//! IP-layer helpers: fragmentation planning, reassembly, ICMP echo.
//!
//! The output/input control flow lives in the kernel (it needs routes and
//! interfaces); this module holds the data structures and pure logic:
//!
//! * [`fragment_plan`] — how a datagram splits across an MTU,
//! * [`Reassembler`] — fragment buffers keyed by (src, dst, proto, id),
//!   combining per-fragment *hardware* checksum partials so a fragmented
//!   UDP datagram received through the CAB can still be verified without a
//!   software read pass,
//! * [`icmp`] — echo request/reply builders (ICMP is the paper's example of
//!   a low-bandwidth in-kernel application, §5).

use outboard_mbuf::Chain;
use outboard_wire::checksum::add16;
use outboard_wire::Ipv4Header;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One planned fragment: payload byte range and MF flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FragPart {
    /// Byte offset of this fragment's payload in the datagram.
    pub offset: usize,
    /// Fragment payload length.
    pub len: usize,
    /// More fragments follow (sets IP_MF).
    pub more: bool,
}

/// Split a transport payload of `len` bytes across an IP MTU. Fragment
/// payloads (except the last) must be multiples of 8 bytes.
pub(crate) fn fragment_plan(len: usize, mtu: usize, ip_header_len: usize) -> Vec<FragPart> {
    let max_payload = (mtu - ip_header_len) & !7;
    assert!(max_payload > 0, "mtu too small to fragment into");
    if len <= mtu - ip_header_len {
        return vec![FragPart {
            offset: 0,
            len,
            more: false,
        }];
    }
    let mut parts = Vec::new();
    let mut off = 0;
    while off < len {
        let take = max_payload.min(len - off);
        let more = off + take < len;
        parts.push(FragPart {
            offset: off,
            len: take,
            more,
        });
        off += take;
    }
    parts
}

/// Key identifying a datagram being reassembled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct FragKey {
    /// Datagram source.
    pub src: Ipv4Addr,
    /// Datagram destination.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: u8,
    /// IP identification field.
    pub id: u16,
}

#[derive(Debug)]
struct FragBuf {
    /// Fragment payloads keyed by byte offset.
    parts: BTreeMap<usize, Chain>,
    /// Combined hardware checksum partials (each fragment's transport-area
    /// sum, as computed by the CAB's receive engine). `None` once any
    /// fragment arrives without one (software path required).
    hw_sum: Option<u16>,
    /// Total payload length, known once the final fragment arrives.
    total: Option<usize>,
}

/// A completed reassembly.
#[derive(Debug)]
pub(crate) struct Reassembled {
    /// The reassembled transport payload.
    pub payload: Chain,
    /// Combined hardware checksum over the whole transport payload, when
    /// every fragment carried one.
    pub hw_sum: Option<u16>,
}

/// IP fragment reassembler with a bounded number of concurrent datagrams.
#[derive(Debug, Default)]
pub(crate) struct Reassembler {
    bufs: BTreeMap<FragKey, FragBuf>,
}

/// Upper bound on concurrent reassemblies (old ones are evicted).
const MAX_REASS: usize = 32;

impl Reassembler {
    /// An empty reassembler.
    pub(crate) fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feed one fragment. `hw_sum` is the CAB's partial checksum over this
    /// fragment's transport bytes, when it arrived through a CAB.
    /// Returns the reassembled payload once complete.
    pub(crate) fn feed(
        &mut self,
        key: FragKey,
        hdr: &Ipv4Header,
        payload: Chain,
        hw_sum: Option<u16>,
    ) -> Option<Reassembled> {
        if self.bufs.len() >= MAX_REASS && !self.bufs.contains_key(&key) {
            // Evict the smallest key to stay bounded (deterministic, if
            // arbitrary; real stacks use a reassembly timer instead).
            if let Some(&victim) = self.bufs.keys().next() {
                self.bufs.remove(&victim);
            }
        }
        let buf = self.bufs.entry(key).or_insert_with(|| FragBuf {
            parts: BTreeMap::new(),
            hw_sum: Some(0),
            total: None,
        });
        let off = hdr.frag_offset();
        if !hdr.more_fragments() {
            buf.total = Some(off + payload.len());
        }
        // Combine hardware partials; any software-path fragment poisons it.
        match (buf.hw_sum, hw_sum) {
            (Some(acc), Some(part)) => buf.hw_sum = Some(add16(acc, part)),
            _ => buf.hw_sum = None,
        }
        buf.parts.entry(off).or_insert(payload);

        // Complete?
        let total = buf.total?;
        let mut have = 0usize;
        for (&o, c) in &buf.parts {
            if o != have {
                return None; // hole
            }
            have += c.len();
        }
        if have != total {
            return None;
        }
        let mut buf = self.bufs.remove(&key)?;
        let mut payload = Chain::new();
        let mut first = true;
        for (_, c) in std::mem::take(&mut buf.parts) {
            if first {
                payload = c;
                first = false;
            } else {
                payload.concat(c);
            }
        }
        Some(Reassembled {
            payload,
            hw_sum: buf.hw_sum,
        })
    }
}

/// ICMP echo: the minimal in-kernel application.
pub(crate) mod icmp {
    use bytes::Bytes;
    use outboard_mbuf::Chain;
    use outboard_wire::checksum::Checksum;

    /// ICMP type: echo request (ping).
    pub(crate) const ECHO_REQUEST: u8 = 8;
    /// ICMP type: echo reply.
    pub(crate) const ECHO_REPLY: u8 = 0;

    /// Build an ICMP echo message (kernel mbuf chain).
    pub(crate) fn build_echo(kind: u8, ident: u16, seq: u16, payload: &[u8]) -> Chain {
        let mut b = vec![0u8; 8 + payload.len()];
        b[0] = kind;
        b[4..6].copy_from_slice(&ident.to_be_bytes());
        b[6..8].copy_from_slice(&seq.to_be_bytes());
        b[8..].copy_from_slice(payload);
        let c = Checksum::of(&b);
        b[2..4].copy_from_slice(&c.to_be_bytes());
        Chain::from_bytes(Bytes::from(b))
    }

    /// Parse an ICMP message; returns (type, ident, seq, payload) when it is
    /// an echo request/reply with a valid checksum.
    pub(crate) fn parse_echo(data: &[u8]) -> Option<(u8, u16, u16, &[u8])> {
        if data.len() < 8 {
            return None;
        }
        let mut acc = outboard_wire::checksum::Accumulator::new();
        acc.add_bytes(data);
        if acc.partial() != 0xFFFF {
            return None;
        }
        let kind = data[0];
        if kind != ECHO_REQUEST && kind != ECHO_REPLY {
            return None;
        }
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let seq = u16::from_be_bytes([data[6], data[7]]);
        Some((kind, ident, seq, &data[8..]))
    }
}

#[cfg(test)]
impl Reassembler {
    /// Datagrams currently mid-reassembly.
    pub(crate) fn pending(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_wire::checksum::Accumulator;

    #[test]
    fn fragment_plan_small_fits() {
        let p = fragment_plan(1000, 1500, 20);
        assert_eq!(p.len(), 1);
        assert!(!p[0].more);
        assert_eq!(p[0].len, 1000);
    }

    #[test]
    fn fragment_plan_splits_on_8_byte_boundaries() {
        let p = fragment_plan(4000, 1500, 20);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].len, 1480);
        assert_eq!(p[1].offset, 1480);
        assert!(p[0].more && p[1].more && !p[2].more);
        assert_eq!(p.iter().map(|f| f.len).sum::<usize>(), 4000);
        for f in &p[..2] {
            assert_eq!(f.len % 8, 0);
        }
    }

    fn key() -> FragKey {
        FragKey {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            proto: 17,
            id: 42,
        }
    }

    fn frag_hdr(off: usize, more: bool, payload_len: usize) -> Ipv4Header {
        let mut h = Ipv4Header::new(key().src, key().dst, 17, payload_len, 42);
        h.flags_frag = ((off / 8) as u16) | if more { outboard_wire::ipv4::IP_MF } else { 0 };
        h
    }

    #[test]
    fn reassembles_out_of_order() {
        let mut r = Reassembler::new();
        let d1: Vec<u8> = (0..1480u32).map(|i| i as u8).collect();
        let d2: Vec<u8> = (0..520u32).map(|i| (i + 7) as u8).collect();
        // Last fragment first.
        assert!(r
            .feed(
                key(),
                &frag_hdr(1480, false, 520),
                Chain::from_slice(&d2),
                None
            )
            .is_none());
        let done = r
            .feed(
                key(),
                &frag_hdr(0, true, 1480),
                Chain::from_slice(&d1),
                None,
            )
            .expect("complete");
        let flat = done.payload.flatten_kernel().unwrap();
        assert_eq!(&flat[..1480], &d1[..]);
        assert_eq!(&flat[1480..], &d2[..]);
        assert_eq!(r.pending(), 0);
        assert!(done.hw_sum.is_none(), "software fragment poisons hw sum");
    }

    #[test]
    fn combines_hardware_partial_sums() {
        let mut r = Reassembler::new();
        let d1 = vec![0x12u8; 1480];
        let d2 = vec![0x34u8; 200];
        let mut a1 = Accumulator::new();
        a1.add_bytes(&d1);
        let mut a2 = Accumulator::new();
        a2.add_bytes(&d2);
        r.feed(
            key(),
            &frag_hdr(0, true, 1480),
            Chain::from_slice(&d1),
            Some(a1.partial()),
        );
        let done = r
            .feed(
                key(),
                &frag_hdr(1480, false, 200),
                Chain::from_slice(&d2),
                Some(a2.partial()),
            )
            .unwrap();
        // Combined partial equals a sum over the whole payload.
        let mut whole = Accumulator::new();
        whole.add_bytes(&d1);
        whole.add_bytes(&d2);
        assert_eq!(done.hw_sum, Some(whole.partial()));
    }

    #[test]
    fn duplicate_fragment_is_idempotent() {
        let mut r = Reassembler::new();
        let d1 = vec![1u8; 800];
        r.feed(key(), &frag_hdr(0, true, 800), Chain::from_slice(&d1), None);
        r.feed(key(), &frag_hdr(0, true, 800), Chain::from_slice(&d1), None);
        let done = r
            .feed(
                key(),
                &frag_hdr(800, false, 8),
                Chain::from_slice(&[9; 8]),
                None,
            )
            .unwrap();
        assert_eq!(done.payload.len(), 808);
    }

    #[test]
    fn bounded_buffers_evict() {
        let mut r = Reassembler::new();
        for id in 0..40u16 {
            let mut k = key();
            k.id = id;
            r.feed(k, &frag_hdr(0, true, 8), Chain::from_slice(&[0; 8]), None);
        }
        assert!(r.pending() <= MAX_REASS);
    }

    #[test]
    fn icmp_echo_round_trip() {
        let c = icmp::build_echo(icmp::ECHO_REQUEST, 0x1234, 7, b"ping!");
        let flat = c.flatten_kernel().unwrap();
        let (kind, ident, seq, payload) = icmp::parse_echo(&flat).unwrap();
        assert_eq!(kind, icmp::ECHO_REQUEST);
        assert_eq!(ident, 0x1234);
        assert_eq!(seq, 7);
        assert_eq!(payload, b"ping!");
        // Corruption detected.
        let mut bad = flat.clone();
        bad[9] ^= 1;
        assert!(icmp::parse_echo(&bad).is_none());
    }
}
