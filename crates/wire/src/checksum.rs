//! The Internet ones-complement checksum and its partial-sum algebra.
//!
//! The checksum of a byte sequence is the 16-bit ones-complement of the
//! ones-complement sum of its 16-bit big-endian words (RFC 1071), padding an
//! odd trailing byte with a zero low byte.
//!
//! Outboard checksumming (paper §4.3) relies on three algebraic facts that
//! this module exposes and the test suite proves:
//!
//! 1. **Partial sums combine**: the sum over `a ++ b` equals the fold of
//!    `sum(a) + sum(b)` when `a` has even length (and a byte-swapped
//!    combination when odd — the CAB only ever splits on word boundaries, so
//!    the even case is the one the hardware exercises).
//! 2. **The seed trick**: placing the (uncomplemented) partial sum of the
//!    host-owned prefix into the checksum field lets the hardware compute
//!    `!fold(seed + sum(body))` and obtain the checksum of the whole
//!    transport segment without ever seeing the pseudo-header.
//! 3. **A ones-complement sum is zero only if every term is zero** — which is
//!    why a UDP checksum computed this way can never accidentally collide
//!    with the "no checksum" encoding (the pseudo-header address terms are
//!    non-zero). A property test demonstrates this.
//!
//! Everything the module exposes (partial sums, seeds, the final field) is
//! in network byte order. Only the inside of [`Accumulator::add_bytes`] is
//! not: its block kernel sums native-endian words in eight independent
//! lanes and byte-swaps the folded result once (RFC 1071 §2(B)), with the
//! 16-bit [`Accumulator::add_bytes_scalar`] as the reference the tests hold
//! it to.

/// A finalized Internet checksum value (the complemented fold).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Checksum(pub u16);

impl Checksum {
    /// Compute the checksum of `data` (pad odd length with a zero byte).
    pub fn of(data: &[u8]) -> Checksum {
        let mut acc = Accumulator::new();
        acc.add_bytes(data);
        acc.finish()
    }

    /// The raw big-endian field value to place on the wire.
    pub fn to_be_bytes(self) -> [u8; 2] {
        self.0.to_be_bytes()
    }
}

/// Fold a 32-bit accumulated sum into 16 bits with end-around carry.
#[inline]
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// Ones-complement addition of two folded 16-bit partial sums.
#[inline]
pub fn add16(a: u16, b: u16) -> u16 {
    fold(a as u32 + b as u32)
}

/// Streaming ones-complement accumulator that tolerates arbitrary slice
/// boundaries (it tracks byte parity internally).
#[derive(Clone, Copy, Debug, Default)]
pub struct Accumulator {
    sum: u64,
    /// True when an odd number of bytes has been consumed so far.
    odd: bool,
    len: usize,
}

impl Accumulator {
    /// An empty accumulator (zero partial sum).
    pub fn new() -> Accumulator {
        Accumulator::default()
    }

    /// Start from an existing folded partial sum (e.g. a hardware seed).
    pub fn from_partial(sum: u16) -> Accumulator {
        Accumulator {
            sum: sum as u64,
            odd: false,
            len: 0,
        }
    }

    /// Total bytes consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append bytes to the running sum.
    ///
    /// The block kernel sums in *host* byte order (RFC 1071 §2(B): the
    /// ones-complement sum of byte-swapped words is the byte-swapped sum,
    /// so one swap of the folded result replaces a swap per word). It
    /// reads 32 bytes per iteration as eight native-endian `u32`s into
    /// eight independent `u64` accumulators — `2^16 ≡ 1 (mod 0xFFFF)`, so
    /// 32-bit words fold to the same 16-bit value as 16-bit words, and
    /// independent lanes are what lets the compiler vectorise the loop.
    /// The folded block sum is swapped to big-endian once and added into
    /// the running `sum`. Byte parity across calls is preserved by the
    /// same `odd` bookkeeping as the scalar path, and
    /// [`Accumulator::add_bytes_scalar`] remains as the property-tested
    /// reference.
    pub fn add_bytes(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if self.odd && !data.is_empty() {
            // Previous chunk ended mid-word: this byte is the low half.
            self.sum += data[0] as u64;
            data = &data[1..];
            self.odd = false;
        }
        // Bound each block so its lane sums stay far from u64 overflow
        // (a 1 GiB block of 0xFFFFFFFF words sums to < 2^60 across all
        // lanes). The block size is a multiple of 32, so only the final
        // block sees a lane remainder or an odd tail.
        const BLOCK: usize = 1 << 30;
        for block in data.chunks(BLOCK) {
            let mut lanes = [0u64; 8];
            let mut wide = block.chunks_exact(32);
            for c in &mut wide {
                for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(4)) {
                    // Cannot overflow (see BLOCK); unchecked in debug builds
                    // too, where eight overflow branches per iteration
                    // would halve the kernel.
                    *lane = lane.wrapping_add(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]) as u64);
                }
            }
            let mut s: u64 = lanes.iter().sum();
            let mut quads = wide.remainder().chunks_exact(4);
            for w in &mut quads {
                s += u32::from_ne_bytes([w[0], w[1], w[2], w[3]]) as u64;
            }
            let mut words = quads.remainder().chunks_exact(2);
            for c in &mut words {
                s += u16::from_ne_bytes([c[0], c[1]]) as u64;
            }
            if let [last] = *words.remainder() {
                // High half of a word whose low half arrives next call.
                s += u16::from_ne_bytes([last, 0]) as u64;
                self.odd = true;
            }
            // Fold lazily, only when the running sum gets near the top of
            // the u64 range (not on every call): ones-complement folding
            // commutes with addition, so deferring it is free, and eager
            // per-call folds cost a loop on the hot path.
            if self.sum >= FOLD_AT {
                self.sum = fold_u64(self.sum);
            }
            let ne = fold_u64(s) as u16;
            self.sum += u16::from_ne_bytes(ne.to_be_bytes()) as u64;
        }
    }

    /// Reference scalar path: 16-bit words, one at a time. Kept `pub` so
    /// the tests in `tests/checksum_wide.rs` can compare the wide-lane
    /// [`Accumulator::add_bytes`] against it on arbitrary split boundaries.
    pub fn add_bytes_scalar(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if self.odd && !data.is_empty() {
            self.sum += data[0] as u64;
            data = &data[1..];
            self.odd = false;
        }
        let mut chunks = data.chunks_exact(2);
        let mut s: u64 = 0;
        for c in &mut chunks {
            s += u16::from_be_bytes([c[0], c[1]]) as u64;
            if s >= FOLD_AT {
                s = fold_u64(s);
            }
        }
        if self.sum >= FOLD_AT {
            self.sum = fold_u64(self.sum);
        }
        self.sum += s;
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.sum += (rem[0] as u64) << 8;
            self.odd = true;
        }
    }

    /// Append a 16-bit word (network order).
    pub(crate) fn add_u16(&mut self, v: u16) {
        self.add_word(v as u64, &v.to_be_bytes());
    }

    /// Append a 32-bit word (network order).
    pub(crate) fn add_u32(&mut self, v: u32) {
        self.add_word(v as u64, &v.to_be_bytes());
    }

    /// `word`, whose big-endian bytes are `be`: on an even boundary it goes
    /// straight into the running sum — no block kernel for 2-4 bytes.
    #[inline]
    fn add_word(&mut self, word: u64, be: &[u8]) {
        if self.odd {
            return self.add_bytes(be);
        }
        if self.sum >= FOLD_AT {
            self.sum = fold_u64(self.sum);
        }
        self.sum += word;
        self.len += be.len();
    }

    /// Fold in another folded partial sum (must be word-aligned here; the CAB
    /// splits only on 4-byte boundaries, so this is its composition rule).
    pub fn add_partial(&mut self, partial: u16) {
        assert!(!self.odd, "partial sums combine only on even boundaries");
        self.sum += partial as u64;
    }

    /// The folded (uncomplemented) 16-bit partial sum.
    pub fn partial(&self) -> u16 {
        fold_u64(self.sum) as u16
    }

    /// The finalized, complemented checksum.
    pub fn finish(&self) -> Checksum {
        Checksum(!self.partial())
    }
}

/// Lazy-fold threshold: a running sum is folded only when it could
/// plausibly overflow with one more block's worth of additions (a 1 GiB
/// block of maximal words adds < 2^60). Far above `u32::MAX`, which the
/// accumulator used to fold at on every call.
const FOLD_AT: u64 = 1 << 62;

#[inline]
fn fold_u64(mut sum: u64) -> u64 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum
}

/// The IPv4 pseudo-header partial sum for TCP/UDP (RFC 793 / RFC 768).
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], protocol: u8, transport_len: u16) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_u32(u32::from_be_bytes(src));
    acc.add_u32(u32::from_be_bytes(dst));
    acc.add_u16(protocol as u16);
    acc.add_u16(transport_len);
    acc.partial()
}

/// Verify a transport segment: sum over pseudo-header + header + payload
/// (including the checksum field itself) must fold to `0xFFFF`.
pub fn verify_transport(pseudo_sum: u16, segment: &[u8]) -> bool {
    let mut acc = Accumulator::from_partial(pseudo_sum);
    acc.add_bytes(segment);
    acc.partial() == 0xFFFF
}

/// RFC 1624 incremental update: recompute a checksum after a 16-bit field
/// changed from `old` to `new` without touching the rest of the data.
#[cfg(test)]
pub(crate) fn incremental_update(old_csum: Checksum, old_field: u16, new_field: u16) -> Checksum {
    // HC' = ~(C + (-m) + m') computed in ones-complement arithmetic.
    let partial = !old_csum.0;
    let partial = add16(partial, !old_field);
    let partial = add16(partial, new_field);
    Checksum(!partial)
}

/// Ones-complement subtraction: the value `d` such that `add16(b, d) == a`.
#[cfg(test)]
#[inline]
pub(crate) fn sub16(a: u16, b: u16) -> u16 {
    add16(a, !b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071's worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut acc = Accumulator::new();
        acc.add_bytes(&data);
        assert_eq!(acc.partial(), 0xddf2);
        assert_eq!(acc.finish(), Checksum(0x220d));
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(Checksum::of(&[0xAB]), Checksum::of(&[0xAB, 0x00]));
    }

    #[test]
    fn split_at_even_boundary_combines() {
        let data: Vec<u8> = (0u8..=200).collect();
        for split in (0..=200).step_by(2) {
            let mut whole = Accumulator::new();
            whole.add_bytes(&data);

            let mut a = Accumulator::new();
            a.add_bytes(&data[..split]);
            let mut b = Accumulator::new();
            b.add_bytes(&data[split..]);
            let mut combined = Accumulator::new();
            combined.add_partial(a.partial());
            combined.add_partial(b.partial());
            assert_eq!(whole.partial(), combined.partial(), "split at {split}");
        }
    }

    /// The block kernel and the scalar reference agree on every length that
    /// covers all lane / quad / word / tail cases, from either starting
    /// parity, across every two-way split, and from every byte alignment of
    /// the backing buffer (the kernel's loads are unaligned).
    #[test]
    fn wide_lanes_match_scalar_reference() {
        let backing: Vec<u8> = (0..320u32).map(|i| (i * 131 + 17) as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let data = &backing[start..start + len];
                for lead in [&[][..], &[0xA5][..]] {
                    let mut want = Accumulator::new();
                    want.add_bytes_scalar(lead);
                    want.add_bytes_scalar(data);
                    for split in 0..=len {
                        let mut got = Accumulator::new();
                        got.add_bytes(lead);
                        got.add_bytes(&data[..split]);
                        got.add_bytes(&data[split..]);
                        assert_eq!(
                            (got.partial(), got.len()),
                            (want.partial(), want.len()),
                            "start {start} len {len} lead {} split {split}",
                            lead.len()
                        );
                    }
                }
            }
        }
    }

    /// The word fast path of `add_u16` / `add_u32` equals feeding the same
    /// big-endian bytes, from either parity.
    #[test]
    fn word_adds_match_their_bytes() {
        for lead in [&[][..], &[0x5A][..]] {
            let mut words = Accumulator::new();
            let mut bytes = Accumulator::new();
            words.add_bytes(lead);
            bytes.add_bytes_scalar(lead);
            for v in [0u32, 1, 0xFFFF, 0x1_0000, 0xDEAD_BEEF, u32::MAX] {
                words.add_u32(v);
                words.add_u16(v as u16);
                bytes.add_bytes_scalar(&v.to_be_bytes());
                bytes.add_bytes_scalar(&(v as u16).to_be_bytes());
                assert_eq!(words.partial(), bytes.partial(), "after {v:#x}");
                assert_eq!(words.len(), bytes.len());
            }
        }
    }

    /// The one perf assertion worth a tier-1 test: the block kernel must
    /// stay well clear of the scalar reference (15x+ in a release build,
    /// 6-8x under the dev profile's debug assertions; the gate is 4x).
    /// Best of seven interleaved samples a side, so neither a stall on one
    /// sample nor a slow phase of the machine can trip it.
    #[test]
    fn block_kernel_is_at_least_4x_the_scalar_reference() {
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        let buf: Vec<u8> = (0..32 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
        let sample = |sum: fn(&mut Accumulator, &[u8])| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the one wall-clock read outside benchmark/: a host-speed gate on the kernel, nothing simulated"
            )]
            let t = Instant::now();
            for _ in 0..64 {
                let mut acc = Accumulator::new();
                sum(&mut acc, black_box(&buf));
                black_box(acc.partial());
            }
            t.elapsed()
        };
        let (mut wide, mut scalar) = (Duration::MAX, Duration::MAX);
        for _ in 0..7 {
            wide = wide.min(sample(Accumulator::add_bytes));
            scalar = scalar.min(sample(Accumulator::add_bytes_scalar));
        }
        assert!(
            scalar >= wide * 4,
            "add_bytes {wide:?} vs add_bytes_scalar {scalar:?} per 64 x 32 KB: under 4x"
        );
    }

    #[test]
    fn streaming_across_arbitrary_boundaries() {
        let data: Vec<u8> = (0u8..=250).cycle().take(999).collect();
        let whole = Checksum::of(&data);
        for chunk in [1usize, 3, 7, 16, 100] {
            let mut acc = Accumulator::new();
            for c in data.chunks(chunk) {
                acc.add_bytes(c);
            }
            assert_eq!(acc.finish(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn seed_trick_matches_direct_checksum() {
        // The outboard transmit protocol: host computes the seed over the
        // header (with a zeroed checksum field) plus pseudo-header; hardware
        // adds the body sum and complements.
        let header = [0x12u8, 0x34, 0x56, 0x78, 0x00, 0x00, 0x9a, 0xbc];
        let body = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x02];
        let pseudo = pseudo_header_sum([10, 0, 0, 1], [10, 0, 0, 2], 6, 14);

        // Direct software computation (what a traditional stack does).
        let mut sw = Accumulator::from_partial(pseudo);
        sw.add_bytes(&header);
        sw.add_bytes(&body);
        let direct = sw.finish();

        // Outboard: seed = headers + pseudo; hardware folds in the body.
        let mut seed = Accumulator::from_partial(pseudo);
        seed.add_bytes(&header);
        let mut hw = Accumulator::from_partial(seed.partial());
        hw.add_bytes(&body);
        assert_eq!(hw.finish(), direct);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00, 0x40, 0x06];
        data.extend_from_slice(&[0, 0, 10, 0, 0, 1, 10, 0, 0, 2]);
        let old = Checksum::of(&data);
        // Change the 16-bit field at offset 4 (the IP id).
        let old_field = u16::from_be_bytes([data[4], data[5]]);
        let new_field: u16 = 0xBEEF;
        data[4..6].copy_from_slice(&new_field.to_be_bytes());
        let recomputed = Checksum::of(&data);
        assert_eq!(incremental_update(old, old_field, new_field), recomputed);
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        let src = [192, 168, 1, 1];
        let dst = [192, 168, 1, 2];
        let mut seg = vec![0u8; 30];
        for (i, b) in seg.iter_mut().enumerate() {
            *b = i as u8;
        }
        // Checksum field at offset 16 (like TCP); zero it, compute, insert.
        seg[16] = 0;
        seg[17] = 0;
        let pseudo = pseudo_header_sum(src, dst, 6, seg.len() as u16);
        let mut acc = Accumulator::from_partial(pseudo);
        acc.add_bytes(&seg);
        let c = acc.finish();
        seg[16..18].copy_from_slice(&c.to_be_bytes());
        assert!(verify_transport(pseudo, &seg));
        seg[5] ^= 0x40;
        assert!(!verify_transport(pseudo, &seg));
    }

    #[test]
    fn add_sub_are_inverses() {
        for a in [0u16, 1, 0x7FFF, 0xFFFE, 0xFFFF] {
            for b in [0u16, 3, 0x8000, 0xFFFF] {
                let s = add16(a, b);
                // In ones-complement arithmetic 0x0000 and 0xFFFF are both
                // representations of zero; compare modulo that equivalence.
                let back = sub16(s, b);
                let eq = back == a || (back == 0xFFFF && a == 0) || (back == 0 && a == 0xFFFF);
                assert!(eq, "a={a:#x} b={b:#x} s={s:#x} back={back:#x}");
            }
        }
    }

    #[test]
    fn udp_zero_sum_requires_all_zero_terms() {
        // §4.3: a ones-complement sum folds to 0 only when every term is 0.
        // With a non-zero source address in the pseudo-header the folded sum
        // can never be 0x0000, so the UDP "no checksum" sentinel is safe.
        let pseudo = pseudo_header_sum([10, 0, 0, 1], [10, 0, 0, 2], 17, 8);
        let mut acc = Accumulator::from_partial(pseudo);
        acc.add_bytes(&[0u8; 8]);
        assert_ne!(acc.partial(), 0x0000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Checksumming is invariant under any chunking of the input.
        #[test]
        fn chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048),
                               cuts in proptest::collection::vec(0usize..2048, 0..8)) {
            let whole = Checksum::of(&data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut acc = Accumulator::new();
            let mut prev = 0;
            for c in cuts {
                acc.add_bytes(&data[prev..c.max(prev)]);
                prev = c.max(prev);
            }
            acc.add_bytes(&data[prev..]);
            prop_assert_eq!(acc.finish(), whole);
        }

        /// The block kernel equals the scalar reference under any chunking
        /// of the input (parity carries across both).
        #[test]
        fn wide_equals_scalar_any_chunking(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                           cuts in proptest::collection::vec(0usize..4096, 0..6)) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut wide = Accumulator::new();
            let mut scalar = Accumulator::new();
            let mut prev = 0;
            for c in cuts {
                let c = c.max(prev);
                wide.add_bytes(&data[prev..c]);
                scalar.add_bytes_scalar(&data[prev..c]);
                prev = c;
            }
            wide.add_bytes(&data[prev..]);
            scalar.add_bytes_scalar(&data[prev..]);
            prop_assert_eq!(wide.partial(), scalar.partial());
            prop_assert_eq!(wide.len(), scalar.len());
        }

        /// Word-aligned partial sums always recombine exactly.
        #[test]
        fn word_partials_recombine(a in proptest::collection::vec(any::<u8>(), 0..512),
                                   b in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Force word alignment of the first part, as the CAB does.
            let mut a = a;
            a.truncate(a.len() & !3);
            let mut whole = Accumulator::new();
            whole.add_bytes(&a);
            whole.add_bytes(&b);

            let mut pa = Accumulator::new();
            pa.add_bytes(&a);
            let mut pb = Accumulator::new();
            pb.add_bytes(&b);
            let mut comb = Accumulator::new();
            comb.add_partial(pa.partial());
            comb.add_partial(pb.partial());
            prop_assert_eq!(comb.partial(), whole.partial());
        }

        /// A segment stamped with its own checksum always verifies.
        #[test]
        fn stamped_segment_verifies(mut seg in proptest::collection::vec(any::<u8>(), 20..600),
                                    src in any::<[u8;4]>(), dst in any::<[u8;4]>()) {
            seg[16] = 0;
            seg[17] = 0;
            let pseudo = pseudo_header_sum(src, dst, 6, seg.len() as u16);
            let mut acc = Accumulator::from_partial(pseudo);
            acc.add_bytes(&seg);
            let c = acc.finish();
            seg[16..18].copy_from_slice(&c.to_be_bytes());
            prop_assert!(verify_transport(pseudo, &seg));
        }

        /// Flipping any single bit breaks verification.
        #[test]
        fn bitflip_detected(mut seg in proptest::collection::vec(any::<u8>(), 20..128),
                            bit in 0usize..1024) {
            seg[16] = 0;
            seg[17] = 0;
            let pseudo = pseudo_header_sum([1,2,3,4], [5,6,7,8], 6, seg.len() as u16);
            let mut acc = Accumulator::from_partial(pseudo);
            acc.add_bytes(&seg);
            let c = acc.finish();
            seg[16..18].copy_from_slice(&c.to_be_bytes());
            let bit = bit % (seg.len() * 8);
            seg[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!verify_transport(pseudo, &seg));
        }

        /// RFC 1624 incremental update equals full recomputation.
        #[test]
        fn incremental_equals_recompute(mut data in proptest::collection::vec(any::<u8>(), 8..256),
                                        off in 0usize..64, newval in any::<u16>()) {
            let off = (off * 2) % (data.len() & !1);
            let old = Checksum::of(&data);
            let old_field = u16::from_be_bytes([data[off], data[off+1]]);
            data[off..off+2].copy_from_slice(&newval.to_be_bytes());
            let expect = Checksum::of(&data);
            let got = incremental_update(old, old_field, newval);
            // 0x0000/0xFFFF ambiguity: both complements of a zero sum.
            prop_assert!(got == expect || (got.0 == 0 && expect.0 == 0xFFFF) || (got.0 == 0xFFFF && expect.0 == 0));
        }
    }
}
