//! Transport checksum helpers shared by TCP and UDP output/input.
//!
//! §4.3 of the paper, distilled: on the single-copy path the transport
//! layer's "checksum routine" does not touch the data. It computes a *seed*
//! covering the fields the host owns — the transport header (with a zeroed
//! checksum field) plus the pseudo-header — and records where the hardware
//! must put the final checksum and how many words to skip. On receive it
//! *adjusts* the hardware's body sum with the pseudo-header and compares.

use outboard_wire::checksum::{pseudo_header_sum, Accumulator};
use std::net::Ipv4Addr;

/// The transport seed for outboard checksumming: partial ones-complement
/// sum over pseudo-header + transport header (checksum field zeroed).
pub(crate) fn transport_seed(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    transport_len: usize,
    header_zero_csum: &[u8],
) -> u16 {
    let pseudo = pseudo_header_sum(src.octets(), dst.octets(), proto, transport_len as u16);
    let mut acc = Accumulator::from_partial(pseudo);
    acc.add_bytes(header_zero_csum);
    acc.partial()
}

/// Validate a received transport segment using the CAB's hardware sum.
///
/// `hw_sum` covers transport header + payload (the receive engine starts at
/// the fixed word offset past the framing and IP headers). Valid iff
/// folding in the pseudo-header yields all-ones.
pub(crate) fn verify_hw(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    transport_len: usize,
    hw_sum: u16,
) -> bool {
    let pseudo = pseudo_header_sum(src.octets(), dst.octets(), proto, transport_len as u16);
    let mut acc = Accumulator::from_partial(pseudo);
    acc.add_partial(hw_sum);
    acc.partial() == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_host::{HostMem, MemFault, UserMemory};
    use outboard_mbuf::{Chain, Mbuf, MbufData, TaskId, UioDesc, UioRegion};
    use outboard_wire::checksum::Checksum;

    /// Software checksum over a possibly-mixed chain: the traditional path's
    /// `Read_C`. Kernel bytes are summed directly; `M_UIO` bytes are read from
    /// user memory (they are mapped — §4.4.1 notes the mapping is needed for
    /// exactly this). `M_WCAB` bytes must be resolved by the caller (the bytes
    /// live outboard); `resolve_wcab` supplies them.
    fn software_sum(
        chain: &Chain,
        mem: &dyn UserMemory,
        mut resolve_wcab: impl FnMut(u32, u64, usize, usize, &mut [u8]) -> bool,
    ) -> Result<u16, MemFault> {
        let mut acc = Accumulator::new();
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => acc.add_bytes(b),
                MbufData::Uio(d) => {
                    acc.add_bytes(mem.user_slice(d.region.task, d.vaddr(), d.len)?)
                }
                MbufData::Wcab(d) => {
                    let mut buf = vec![0u8; d.len];
                    let ok = resolve_wcab(d.cab, d.packet.id(), d.off, d.len, &mut buf);
                    assert!(ok, "WCAB bytes unavailable for software checksum");
                    acc.add_bytes(&buf);
                }
            }
        }
        Ok(acc.partial())
    }

    #[test]
    fn seed_plus_body_equals_direct_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut hdr = vec![0u8; 20];
        for (i, b) in hdr.iter_mut().enumerate() {
            *b = (i * 3) as u8;
        }
        hdr[16] = 0;
        hdr[17] = 0;
        let body = vec![0x5Au8; 100];
        let seed = transport_seed(src, dst, 6, 120, &hdr);
        // "Hardware": seed + body.
        let mut hw = Accumulator::from_partial(seed);
        hw.add_bytes(&body);
        let outboard = !hw.partial();
        // Direct software computation.
        let pseudo = pseudo_header_sum(src.octets(), dst.octets(), 6, 120);
        let mut sw = Accumulator::from_partial(pseudo);
        sw.add_bytes(&hdr);
        sw.add_bytes(&body);
        assert_eq!(Checksum(outboard), sw.finish());
    }

    #[test]
    fn verify_hw_accepts_and_rejects() {
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        // Build a valid segment: header with checksum + body.
        let mut seg = vec![7u8; 60];
        seg[16] = 0;
        seg[17] = 0;
        let pseudo = pseudo_header_sum(src.octets(), dst.octets(), 6, 60);
        let mut acc = Accumulator::from_partial(pseudo);
        acc.add_bytes(&seg);
        let c = acc.finish();
        seg[16..18].copy_from_slice(&c.to_be_bytes());
        // hw_sum as the CAB computes it: over the stamped segment.
        let mut hw = Accumulator::new();
        hw.add_bytes(&seg);
        assert!(verify_hw(src, dst, 6, 60, hw.partial()));
        // Corrupt a byte.
        seg[30] ^= 0xFF;
        let mut hw2 = Accumulator::new();
        hw2.add_bytes(&seg);
        assert!(!verify_hw(src, dst, 6, 60, hw2.partial()));
    }

    #[test]
    fn software_sum_walks_mixed_chains() {
        let mut hm = HostMem::new();
        let task = TaskId(1);
        hm.create_region(task, 0x1000, 256);
        let user_data = [0xABu8; 64];
        use outboard_host::UserMemory as _;
        hm.write_user(task, 0x1000, &user_data).unwrap();

        let mut chain = Chain::from_slice(&[1, 2, 3, 4]);
        chain.append(Mbuf::uio(UioDesc {
            region: UioRegion { task, base: 0x1000 },
            off: 0,
            len: 64,
            counter: None,
        }));
        let got = software_sum(&chain, &hm, |_, _, _, _, _| false).unwrap();

        let mut expect = Accumulator::new();
        expect.add_bytes(&[1, 2, 3, 4]);
        expect.add_bytes(&user_data);
        assert_eq!(got, expect.partial());
    }
}
