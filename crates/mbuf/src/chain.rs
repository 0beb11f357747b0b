//! Mbuf chains and the packet header.
//!
//! A [`Chain`] is the unit that moves through the protocol stack: a sequence
//! of mbufs (possibly of mixed storage formats) plus an optional packet
//! header. The operations here are the BSD chain primitives the paper's
//! modified stack leans on — in particular [`Chain::copy_range`], the
//! "search the transmit queue for a block of data at a specific offset"
//! routine that replaced TCP's copy-into-fresh-mbufs logic (§4.2), which
//! must work across regular, `M_UIO`, and `M_WCAB` mbufs alike. Trims
//! ([`Chain::drop_front`], [`Chain::truncate`]) and the swap of a byte range
//! for one descriptor ([`Chain::splice`]) edit the chain in place, as BSD's
//! `sbdrop` and `m_adj` do, rather than building chains only to drop them.

use crate::mbuf::{CsumPlan, Mbuf, MbufData};
use bytes::Bytes;
use std::collections::VecDeque;

/// Per-packet metadata (BSD `M_PKTHDR`). The paper's `uiowCABhdr` also
/// names the owning task and the DMA counter; the stack keeps those with
/// the blocked operation and the DMA request instead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PktHdr {
    /// Outboard-checksum plan for the CAB driver, set by TCP/UDP output in
    /// place of a software checksum (§4.3).
    pub csum_plan: Option<CsumPlan>,
}

/// A chain of mbufs with a total length and optional packet header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Chain {
    mbufs: VecDeque<Mbuf>,
    len: usize,
    /// Packet-level metadata (the outboard checksum plan).
    pub hdr: PktHdr,
}

impl Chain {
    /// An empty chain.
    pub fn new() -> Chain {
        Chain::default()
    }

    /// A chain holding one kernel mbuf copied from `bytes`.
    pub fn from_slice(bytes: &[u8]) -> Chain {
        let mut c = Chain::new();
        c.append(Mbuf::kernel_copy(bytes));
        c
    }

    /// A chain holding one kernel mbuf over `bytes` (no copy).
    pub fn from_bytes(bytes: Bytes) -> Chain {
        let mut c = Chain::new();
        c.append(Mbuf::kernel(bytes));
        c
    }

    /// Total payload bytes across all mbufs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the mbufs front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Mbuf> {
        self.mbufs.iter()
    }

    /// True if any mbuf is an `M_UIO` descriptor.
    pub fn has_uio(&self) -> bool {
        self.mbufs.iter().any(|m| m.is_uio())
    }

    /// True if any mbuf is an `M_WCAB` descriptor.
    pub fn has_wcab(&self) -> bool {
        self.mbufs.iter().any(|m| m.is_wcab())
    }

    /// Append one mbuf (empty mbufs are dropped, as BSD frees zero-length
    /// mbufs during compaction).
    pub fn append(&mut self, m: Mbuf) {
        if m.is_empty() {
            return;
        }
        self.len += m.len();
        self.mbufs.push_back(m);
    }

    /// Append all of `other`'s mbufs (BSD `m_cat`). `other`'s packet header
    /// is discarded; the receiver keeps its own.
    pub fn concat(&mut self, other: Chain) {
        for m in other.mbufs {
            self.append(m);
        }
    }

    /// Prepend kernel bytes (header prepend, BSD `M_PREPEND`).
    pub fn prepend(&mut self, bytes: Bytes) {
        if bytes.is_empty() {
            return;
        }
        self.len += bytes.len();
        self.mbufs.push_front(Mbuf::kernel(bytes));
    }

    /// Remove and return the first `n` bytes as a new chain (keeps `self`'s
    /// packet header on the *returned* front — BSD `m_split` semantics for
    /// packetization). The remainder keeps a cleared header.
    pub fn split_front(&mut self, n: usize) -> Chain {
        assert!(
            n <= self.len,
            "split_front({n}) beyond chain len {}",
            self.len
        );
        let mut front = Chain {
            hdr: std::mem::take(&mut self.hdr),
            ..Chain::new()
        };
        let mut remaining = n;
        while remaining > 0 {
            // `len` counts exactly the bytes in `mbufs`, so the assert above
            // guarantees a front mbuf exists while `remaining > 0`.
            let Some(mut m) = self.mbufs.pop_front() else {
                break;
            };
            if m.len() <= remaining {
                self.len -= m.len();
                remaining -= m.len();
                front.append(m);
            } else {
                let part = m.split_front(remaining);
                self.len -= part.len();
                remaining = 0;
                front.append(part);
                self.mbufs.push_front(m);
            }
        }
        front
    }

    /// Drop the first `n` bytes in place (socket-buffer `sbdrop`, used when
    /// TCP ACKs data or the socket layer consumes a read). The packet
    /// header stays, and the mbufs drop front to back.
    pub fn drop_front(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "drop_front({n}) beyond chain len {}",
            self.len
        );
        let mut remaining = n;
        while remaining > 0 {
            // `len` counts exactly the bytes in `mbufs`, so the assert above
            // guarantees a front mbuf exists while `remaining > 0`.
            let Some(m) = self.mbufs.front_mut() else {
                break;
            };
            if m.len() > remaining {
                m.advance(remaining);
                self.len -= remaining;
                break;
            }
            remaining -= m.len();
            self.len -= m.len();
            self.mbufs.pop_front();
        }
    }

    /// Replace bytes `[off, off+len)` with `replacement` in place and return
    /// what was there, with a cleared packet header; `self` keeps its own.
    /// At most two mbufs are cut (where the range starts and ends); the rest
    /// move as they are. This is how a send-queue `M_UIO` range becomes one
    /// `M_WCAB` descriptor once its data is outboard (§4.2).
    pub fn splice(&mut self, off: usize, len: usize, replacement: Mbuf) -> Chain {
        assert!(
            off + len <= self.len,
            "splice({off},{len}) beyond chain len {}",
            self.len
        );
        let start = self.cut(0, off);
        let end = self.cut(start, len);
        let removed = Chain {
            mbufs: self.mbufs.drain(start..end).collect(),
            len,
            hdr: PktHdr::default(),
        };
        self.len -= len;
        if !replacement.is_empty() {
            self.len += replacement.len();
            self.mbufs.insert(start, replacement);
        }
        removed
    }

    /// Make the byte `skip` bytes past the start of mbuf `from` an mbuf
    /// boundary, splitting the mbuf it lands in; returns the index of the
    /// first mbuf at or after it.
    fn cut(&mut self, from: usize, mut skip: usize) -> usize {
        let mut i = from;
        while skip > 0 {
            let Some(m) = self.mbufs.get_mut(i) else {
                break;
            };
            if skip < m.len() {
                let front = m.split_front(skip);
                self.mbufs.insert(i, front);
                return i + 1;
            }
            skip -= m.len();
            i += 1;
        }
        i
    }

    /// Keep only the first `n` bytes (BSD `m_adj(-x)`).
    pub fn truncate(&mut self, n: usize) {
        assert!(n <= self.len);
        let mut to_cut = self.len - n;
        while to_cut > 0 {
            // `len` counts exactly the bytes in `mbufs`, so the assert above
            // guarantees a back mbuf exists while `to_cut > 0`.
            let Some(mut last) = self.mbufs.pop_back() else {
                break;
            };
            if last.len() <= to_cut {
                to_cut -= last.len();
                self.len -= last.len();
            } else {
                let keep = last.len() - to_cut;
                last.truncate(keep);
                self.len -= to_cut;
                to_cut = 0;
                self.mbufs.push_back(last);
            }
        }
    }

    /// Descriptor-level copy of `[off, off+len)` (BSD `m_copym`).
    ///
    /// This is the transmit-queue *search routine* from §4.2: TCP calls it
    /// with the retransmit offset to assemble a packet's worth of data from
    /// a queue that may contain regular, `M_UIO`, and `M_WCAB` mbufs.
    pub fn copy_range(&self, off: usize, len: usize) -> Chain {
        assert!(
            off + len <= self.len,
            "copy_range({off},{len}) beyond chain len {}",
            self.len
        );
        let mut out = Chain::new();
        let mut skip = off;
        let mut want = len;
        for m in &self.mbufs {
            if want == 0 {
                break;
            }
            let mlen = m.len();
            if skip >= mlen {
                skip -= mlen;
                continue;
            }
            let take = (mlen - skip).min(want);
            out.append(m.copy_range(skip, take));
            skip = 0;
            want -= take;
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Gather kernel-resident payload into one flat buffer. Returns `None`
    /// if the chain contains any external descriptor (whose bytes live
    /// elsewhere) — callers needing those must go through the driver.
    pub fn flatten_kernel(&self) -> Option<Vec<u8>> {
        #[expect(
            clippy::disallowed_methods,
            reason = "app- and test-side read of small kernel-resident messages; nothing per frame calls it"
        )]
        let mut out = Vec::with_capacity(self.len);
        for m in &self.mbufs {
            match m.data() {
                MbufData::Kernel(b) => out.extend_from_slice(b),
                _ => return None,
            }
        }
        Some(out)
    }

    /// Read `len` kernel-resident bytes at `off` into `dst`. Panics if the
    /// range touches a non-kernel mbuf (protocol headers are always kernel
    /// resident, which is what input paths rely on).
    pub fn copy_kernel_out(&self, off: usize, dst: &mut [u8]) {
        assert!(
            off + dst.len() <= self.len,
            "copy_kernel_out({off},{}) beyond chain len {}",
            dst.len(),
            self.len
        );
        // Walk segments directly: no intermediate descriptor chain, no
        // flattened Vec — one copy straight into the caller's buffer.
        let mut skip = off;
        let mut filled = 0usize;
        for m in &self.mbufs {
            if filled == dst.len() {
                break;
            }
            let mlen = m.len();
            if skip >= mlen {
                skip -= mlen;
                continue;
            }
            let take = (mlen - skip).min(dst.len() - filled);
            match m.data() {
                MbufData::Kernel(b) => {
                    dst[filled..filled + take].copy_from_slice(&b[skip..skip + take])
                }
                #[expect(
                    clippy::panic,
                    reason = "caller contract: only called over header bytes, which are always kernel resident"
                )]
                _ => panic!("copy_kernel_out over non-kernel data"),
            }
            filled += take;
            skip = 0;
        }
    }
}

impl FromIterator<Mbuf> for Chain {
    fn from_iter<T: IntoIterator<Item = Mbuf>>(iter: T) -> Chain {
        let mut c = Chain::new();
        for m in iter {
            c.append(m);
        }
        c
    }
}

#[cfg(test)]
impl Chain {
    /// True if every mbuf is a traditional kernel mbuf (safe to hand to a
    /// legacy driver or in-kernel application without conversion, §5).
    pub(crate) fn all_kernel(&self) -> bool {
        self.mbufs.iter().all(|m| m.is_kernel())
    }

    /// Number of mbufs in the chain.
    pub(crate) fn mbuf_count(&self) -> usize {
        self.mbufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbuf::{UioDesc, UioRegion, WcabDesc};
    use crate::TaskId;

    /// A checksum plan told apart by its seed.
    fn plan(seed: u16) -> Option<CsumPlan> {
        Some(CsumPlan {
            csum_offset: 16,
            skip_words: 5,
            seed,
        })
    }

    fn mixed_chain() -> Chain {
        // 10 bytes kernel header + 100 bytes UIO + 50 bytes WCAB.
        let mut c = Chain::new();
        c.append(Mbuf::kernel_copy(&[0xAA; 10]));
        c.append(Mbuf::uio(UioDesc {
            region: UioRegion {
                task: TaskId(3),
                base: 0x4000,
            },
            off: 0,
            len: 100,
            counter: None,
        }));
        c.append(Mbuf::wcab(WcabDesc {
            cab: 0,
            packet: 7,
            off: 0,
            len: 50,
            hw_csum: 0,
        }));
        c
    }

    #[test]
    fn length_tracks_appends() {
        let c = mixed_chain();
        assert_eq!(c.len(), 160);
        assert_eq!(c.mbuf_count(), 3);
        assert!(c.has_uio() && c.has_wcab() && !c.all_kernel());
    }

    #[test]
    fn split_front_across_boundaries() {
        let mut c = mixed_chain();
        let front = c.split_front(60);
        assert_eq!(front.len(), 60);
        assert_eq!(c.len(), 100);
        // front = 10 kernel + 50 of the UIO desc
        assert_eq!(front.mbuf_count(), 2);
        let descs: Vec<_> = front.iter().collect();
        assert!(descs[0].is_kernel());
        match descs[1].data() {
            MbufData::Uio(d) => {
                assert_eq!(d.off, 0);
                assert_eq!(d.len, 50);
            }
            _ => panic!(),
        }
        // remainder starts 50 bytes into the UIO region
        let first = c.iter().next().unwrap().clone();
        match first.data() {
            MbufData::Uio(d) => {
                assert_eq!(d.off, 50);
                assert_eq!(d.len, 50);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn copy_range_mixed_types() {
        let c = mixed_chain();
        // Range spanning the UIO/WCAB boundary.
        let r = c.copy_range(100, 30);
        assert_eq!(r.len(), 30);
        let parts: Vec<_> = r.iter().collect();
        assert_eq!(parts.len(), 2);
        match parts[0].data() {
            MbufData::Uio(d) => {
                assert_eq!(d.off, 90);
                assert_eq!(d.len, 10);
            }
            _ => panic!(),
        }
        match parts[1].data() {
            MbufData::Wcab(d) => {
                assert_eq!(d.off, 0);
                assert_eq!(d.len, 20);
            }
            _ => panic!(),
        }
        // Source untouched.
        assert_eq!(c.len(), 160);
    }

    #[test]
    fn truncate_from_back() {
        let mut c = mixed_chain();
        c.truncate(105);
        assert_eq!(c.len(), 105);
        assert_eq!(c.mbuf_count(), 2, "WCAB mbuf cut entirely");
        c.truncate(5);
        assert_eq!(c.mbuf_count(), 1);
        assert!(c.iter().next().unwrap().is_kernel());
    }

    #[test]
    fn drop_front_models_ack() {
        let mut c = mixed_chain();
        c.hdr.csum_plan = plan(0x2222);
        c.drop_front(110);
        assert_eq!(c.len(), 50);
        assert!(c.iter().next().unwrap().is_wcab());
        assert_eq!(c.hdr.csum_plan, plan(0x2222), "the header stays");
    }

    #[test]
    fn prepend_header() {
        let mut c = mixed_chain();
        c.prepend(Bytes::copy_from_slice(&[1, 2, 3, 4]));
        assert_eq!(c.len(), 164);
        assert_eq!(
            c.iter().next().unwrap().kernel_bytes().unwrap().as_ref(),
            &[1, 2, 3, 4]
        );
    }

    #[test]
    fn flatten_kernel_only_for_kernel_chains() {
        let mut c = Chain::from_slice(&[1, 2, 3]);
        c.append(Mbuf::kernel_copy(&[4, 5]));
        assert_eq!(c.flatten_kernel().unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(mixed_chain().flatten_kernel(), None);
    }

    #[test]
    fn copy_kernel_out_reads_headers() {
        let mut c = Chain::from_slice(&[1, 2, 3, 4, 5, 6]);
        c.append(Mbuf::kernel_copy(&[7, 8]));
        let mut buf = [0u8; 4];
        c.copy_kernel_out(3, &mut buf);
        assert_eq!(buf, [4, 5, 6, 7]);
    }

    #[test]
    fn concat_preserves_own_header() {
        let mut a = Chain::from_slice(&[1]);
        a.hdr.csum_plan = plan(0xBEEF);
        let mut b = Chain::from_slice(&[2]);
        b.hdr.csum_plan = plan(0xDEAD);
        a.concat(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.hdr.csum_plan, plan(0xBEEF));
    }

    /// `splice` edits the chain in place, so the chain keeps its own packet
    /// header and the removed range comes back with a cleared one. Nothing
    /// reads the header of the chains it edits (socket queues): its one
    /// field, `csum_plan`, is consulted only on the packet
    /// `transport_output` builds.
    #[test]
    fn splice_keeps_own_pkthdr_and_clears_the_removed_one() {
        let mut c = mixed_chain();
        c.hdr.csum_plan = plan(0x3333);
        let removed = c.splice(10, 100, Mbuf::kernel_copy(&[5; 4]));
        assert_eq!(c.hdr.csum_plan, plan(0x3333));
        assert_eq!(removed.hdr, PktHdr::default());
        assert_eq!((c.len(), removed.len()), (64, 100));
        assert!(removed.iter().all(|m| m.is_uio()));
    }

    #[test]
    fn split_front_moves_pkthdr_to_front() {
        let mut c = mixed_chain();
        c.hdr.csum_plan = plan(0x1111);
        let front = c.split_front(10);
        assert_eq!(front.hdr.csum_plan, plan(0x1111));
        assert_eq!(c.hdr.csum_plan, None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::mbuf::{UioDesc, UioRegion};
    use crate::TaskId;
    use proptest::prelude::*;

    /// Build a random mixed chain; return it with a reference model: a vec
    /// tagging each byte with (format, identity) so descriptor arithmetic
    /// can be checked byte-for-byte.
    fn arb_chain() -> impl Strategy<Value = (Chain, Vec<(u8, u64)>)> {
        proptest::collection::vec((0u8..3, 1usize..64), 1..12).prop_map(|specs| {
            let mut chain = Chain::new();
            let mut model = Vec::new();
            let mut uio_cursor = 0u64;
            let mut kern_tag = 0u64;
            for (kind, len) in specs {
                match kind {
                    0 => {
                        let data: Vec<u8> = (0..len).map(|i| (kern_tag + i as u64) as u8).collect();
                        for (i, _) in data.iter().enumerate() {
                            model.push((0, kern_tag + i as u64));
                        }
                        kern_tag += len as u64;
                        chain.append(Mbuf::kernel_copy(&data));
                    }
                    1 => {
                        chain.append(Mbuf::uio(UioDesc {
                            region: UioRegion {
                                task: TaskId(1),
                                base: 0,
                            },
                            off: uio_cursor,
                            len,
                            counter: None,
                        }));
                        for i in 0..len {
                            model.push((1, uio_cursor + i as u64));
                        }
                        uio_cursor += len as u64;
                    }
                    _ => {
                        chain.append(Mbuf::wcab(crate::mbuf::WcabDesc {
                            cab: 0,
                            packet: 9,
                            off: uio_cursor as usize,
                            len,
                            hw_csum: 0,
                        }));
                        for i in 0..len {
                            model.push((2, uio_cursor + i as u64));
                        }
                        uio_cursor += len as u64;
                    }
                }
            }
            (chain, model)
        })
    }

    /// Flatten a chain into the same (format, identity) tagging as the model.
    fn tags(chain: &Chain) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for m in chain.iter() {
            match m.data() {
                MbufData::Kernel(b) => {
                    for &byte in b.iter() {
                        // kernel identity = the byte value we wrote (mod 256
                        // collisions are fine: positions align by order)
                        out.push((0, byte as u64));
                    }
                }
                MbufData::Uio(d) => {
                    for i in 0..d.len {
                        out.push((1, d.off + i as u64));
                    }
                }
                MbufData::Wcab(d) => {
                    for i in 0..d.len {
                        out.push((2, (d.off + i) as u64));
                    }
                }
            }
        }
        out
    }

    /// Kernel identities wrap at 256; compare format + low byte.
    fn cmp(model: &[(u8, u64)]) -> Vec<(u8, u64)> {
        model
            .iter()
            .map(|&(f, id)| if f == 0 { (f, id & 0xFF) } else { (f, id) })
            .collect()
    }

    fn some_hdr() -> PktHdr {
        PktHdr {
            csum_plan: Some(crate::mbuf::CsumPlan {
                csum_offset: 16,
                skip_words: 5,
                seed: 0x1234,
            }),
        }
    }

    /// An offset no greater than `max`: an mbuf boundary (`pick` 0, which
    /// includes 0 and the chain's end), an offset inside an mbuf (1), or
    /// anywhere (2).
    fn pick_offset(chain: &Chain, pick: usize, frac: f64, max: usize) -> usize {
        let mut bounds = vec![0];
        for m in chain.iter() {
            bounds.push(bounds[bounds.len() - 1] + m.len());
        }
        let at = |v: &[usize]| v[((v.len() as f64 * frac) as usize).min(v.len() - 1)];
        let off = match pick {
            0 => at(&bounds),
            1 => {
                let inside: Vec<usize> = (0..max).filter(|o| !bounds.contains(o)).collect();
                if inside.is_empty() {
                    at(&bounds)
                } else {
                    at(&inside)
                }
            }
            _ => (max as f64 * frac) as usize,
        };
        off.min(max)
    }

    /// A replacement mbuf of any kind, or an empty one, with its byte map
    /// (identities distinct from any `arb_chain` byte).
    fn arb_replacement() -> impl Strategy<Value = (Mbuf, Vec<(u8, u64)>)> {
        (0u8..4, 1usize..40).prop_map(|(kind, len)| match kind {
            0 => (Mbuf::kernel(Bytes::new()), Vec::new()),
            1 => {
                let data: Vec<u8> = (0..len).map(|i| (200 + i) as u8).collect();
                let tags = data.iter().map(|&b| (0, b as u64)).collect();
                (Mbuf::kernel_copy(&data), tags)
            }
            2 => (
                Mbuf::uio(UioDesc {
                    region: UioRegion {
                        task: TaskId(5),
                        base: 0,
                    },
                    off: 1_000_000,
                    len,
                    counter: None,
                }),
                (0..len).map(|i| (1, 1_000_000 + i as u64)).collect(),
            ),
            _ => (
                Mbuf::wcab(crate::mbuf::WcabDesc {
                    cab: 1,
                    packet: 77,
                    off: 2_000_000,
                    len,
                    hw_csum: 0xABCD,
                }),
                (0..len).map(|i| (2, 2_000_000 + i as u64)).collect(),
            ),
        })
    }

    /// The split/split/append/concat rebuild `Chain::splice` replaced, kept
    /// as its oracle. Both `split_front`s move the header away, so the
    /// rebuilt chain's header ends up cleared.
    fn oracle_splice(
        mut chain: Chain,
        off: usize,
        len: usize,
        replacement: Mbuf,
    ) -> (Chain, Chain) {
        let mut head = chain.split_front(off);
        let removed = chain.split_front(len);
        head.hdr = std::mem::take(&mut chain.hdr);
        head.append(replacement);
        head.concat(chain);
        (head, removed)
    }

    proptest! {
        /// split_front partitions the chain without altering the byte map.
        #[test]
        fn split_partitions((chain, model) in arb_chain(), at_frac in 0.0f64..=1.0) {
            let at = (chain.len() as f64 * at_frac) as usize;
            let mut rest = chain;
            let front = rest.split_front(at);
            prop_assert_eq!(front.len(), at);
            prop_assert_eq!(front.len() + rest.len(), model.len());
            let mut combined = tags(&front);
            combined.extend(tags(&rest));
            // Kernel identities wrap at 256; compare format + low byte.
            let model_cmp: Vec<(u8,u64)> = model.iter()
                .map(|&(f, id)| if f == 0 { (f, id & 0xFF) } else { (f, id) }).collect();
            prop_assert_eq!(combined, model_cmp);
        }

        /// copy_range extracts exactly the modeled byte range.
        #[test]
        fn copy_range_matches_model((chain, model) in arb_chain(),
                                    a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let (lo, hi) = {
                let x = (chain.len() as f64 * a) as usize;
                let y = (chain.len() as f64 * b) as usize;
                (x.min(y), x.max(y))
            };
            let copied = chain.copy_range(lo, hi - lo);
            prop_assert_eq!(copied.len(), hi - lo);
            let model_cmp: Vec<(u8,u64)> = model[lo..hi].iter()
                .map(|&(f, id)| if f == 0 { (f, id & 0xFF) } else { (f, id) }).collect();
            prop_assert_eq!(tags(&copied), model_cmp);
            // Source unchanged.
            prop_assert_eq!(chain.len(), model.len());
        }

        /// drop_front then truncate leaves the modeled middle window.
        #[test]
        fn window_operations((chain, model) in arb_chain(),
                             a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let (lo, hi) = {
                let x = (chain.len() as f64 * a) as usize;
                let y = (chain.len() as f64 * b) as usize;
                (x.min(y), x.max(y))
            };
            let mut c = chain;
            c.drop_front(lo);
            c.truncate(hi - lo);
            let model_cmp: Vec<(u8,u64)> = model[lo..hi].iter()
                .map(|&(f, id)| if f == 0 { (f, id & 0xFF) } else { (f, id) }).collect();
            prop_assert_eq!(tags(&c), model_cmp);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `drop_front` trims in place exactly as the split-and-discard it
        /// replaced, and keeps the header.
        #[test]
        fn drop_front_matches_split_oracle((chain, model) in arb_chain(),
                                            pick in 0usize..3, a in 0.0f64..=1.0) {
            let mut chain = chain;
            chain.hdr = some_hdr();
            let n = pick_offset(&chain, pick, a, chain.len());
            let mut oracle = chain.clone();
            let front = oracle.split_front(n);
            oracle.hdr = front.hdr;

            let mut dropped = chain;
            dropped.drop_front(n);
            prop_assert_eq!(&dropped, &oracle);
            prop_assert_eq!(&dropped.hdr, &some_hdr());
            prop_assert_eq!(dropped.len(), model.len() - n);
            prop_assert_eq!(tags(&dropped), cmp(&model[n..]));
        }

        /// `splice` edits in place what the split/split/append/concat
        /// rebuild produced, cutting at most two mbufs, and keeps the
        /// chain's header where the rebuild cleared it.
        #[test]
        fn splice_matches_rebuild_oracle((chain, model) in arb_chain(),
                                         pick in 0usize..3,
                                         a in 0.0f64..=1.0, b in 0.0f64..=1.0,
                                         (repl, repl_tags) in arb_replacement()) {
            let mut chain = chain;
            chain.hdr = some_hdr();
            let off = pick_offset(&chain, pick, a, chain.len());
            let len = pick_offset(&chain, pick, b, chain.len()).saturating_sub(off);
            let (oracle, oracle_removed) = oracle_splice(chain.clone(), off, len, repl.clone());

            let mut spliced = chain.clone();
            let removed = spliced.splice(off, len, repl.clone());
            // Same mbufs (kinds, offsets, lengths) and total length.
            prop_assert_eq!(&spliced.mbufs, &oracle.mbufs);
            prop_assert_eq!(spliced.len, oracle.len);
            prop_assert_eq!(&removed, &oracle_removed);
            // The header: kept here, cleared by the rebuild and on the
            // removed range in both.
            prop_assert_eq!(&spliced.hdr, &chain.hdr);
            prop_assert_eq!(&oracle.hdr, &PktHdr::default());
            prop_assert_eq!(&removed.hdr, &PktHdr::default());
            // The byte map.
            let mut want = cmp(&model[..off]);
            want.extend(repl_tags);
            want.extend(cmp(&model[off + len..]));
            prop_assert_eq!(tags(&spliced), want);
            prop_assert_eq!(tags(&removed), cmp(&model[off..off + len]));
            prop_assert_eq!(spliced.len(), model.len() - len + repl.len());
            prop_assert!(spliced.iter().all(|m| !m.is_empty()));
            // At most two mbufs were cut.
            let added = usize::from(!repl.is_empty());
            prop_assert!(
                spliced.mbuf_count() + removed.mbuf_count() <= chain.mbuf_count() + 2 + added
            );
        }
    }
}
