//! Fault injection.
//!
//! Modeled on the knobs the smoltcp examples expose (`--drop-chance`,
//! `--corrupt-chance`, ...): every frame presented to a faulty link draws a
//! fate from a seeded RNG. A probability of 1 makes a fault certain, and
//! the chaos engine can force one checksum-preserving corruption
//! (`force_stealth_corrupt_next`) that only an end-to-end oracle catches.
//! Each knob is a [`Chance`], compiled once to the integer threshold a draw
//! is compared with.

use bytes::Bytes;
use outboard_sim::{check_probability, BufPool, Chance, Dur, FaultConfigError, Pcg32, PooledBuf};

/// What happened to each frame, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames presented to the injector.
    pub offered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Frames delayed behind later traffic.
    pub reordered: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames corrupted in a checksum-preserving way (test-only planted bug).
    pub stealth_corrupted: u64,
}

/// The fate drawn for one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the (possibly corrupted) payload after an extra delay, and
    /// optionally deliver it twice.
    Deliver {
        /// The (possibly corrupted) frame contents.
        payload: Bytes,
        /// Additional delay beyond the link's latency.
        extra_delay: Dur,
        /// Deliver a second copy shortly after the first.
        duplicate: bool,
    },
    /// Silently dropped.
    Drop,
}

/// Configurable fault injector with a deterministic stream.
#[derive(Debug)]
pub struct FaultInjector {
    /// Probability a frame is dropped.
    pub drop_p: Chance,
    /// Probability one bit of a frame is flipped.
    pub corrupt_p: Chance,
    /// Probability a frame is delayed (arrives late).
    pub reorder_p: Chance,
    /// Extra delay applied to "reordered" frames (they arrive late, after
    /// frames sent behind them).
    pub reorder_delay: Dur,
    /// Probability a frame is delivered twice.
    pub dup_p: Chance,
    rng: Pcg32,
    /// Checksum-preserving corruptions forced ahead of the probabilistic
    /// draws, applied to the next frames offered.
    stealth_pending: u32,
    /// Cumulative fate counts.
    pub stats: FaultStats,
    /// Buffer pool for corruption copies (the only fates that rewrite a
    /// frame): the injector's own until a world shares its pool.
    pool: BufPool,
}

impl FaultInjector {
    /// A transparent injector (no faults).
    pub fn none(seed: u64) -> FaultInjector {
        FaultInjector {
            drop_p: Chance::NEVER,
            corrupt_p: Chance::NEVER,
            reorder_p: Chance::NEVER,
            reorder_delay: Dur::millis(1),
            dup_p: Chance::NEVER,
            rng: Pcg32::new(seed),
            stealth_pending: 0,
            stats: FaultStats::default(),
            pool: BufPool::new(),
        }
    }

    /// Recycle corruption-copy storage through `pool` instead of the
    /// injector's own.
    pub fn set_pool(&mut self, pool: BufPool) {
        self.pool = pool;
    }

    /// Copy `payload` into pooled storage and freeze the edited bytes back
    /// into a frame.
    fn edited_copy(&self, payload: &Bytes, edit: impl FnOnce(&mut [u8])) -> Bytes {
        let mut buf = PooledBuf::with_capacity(&self.pool, payload.len());
        buf.extend_from_slice(payload);
        edit(&mut buf);
        buf.freeze()
    }

    /// An injector with the given drop/corrupt probabilities.
    ///
    /// Rejects probabilities outside `[0, 1]` — a misconfigured knob would
    /// otherwise compile to a [`Chance`] that silently always or never
    /// fires.
    pub fn lossy(
        seed: u64,
        drop_p: f64,
        corrupt_p: f64,
    ) -> Result<FaultInjector, FaultConfigError> {
        check_probability("drop_p", drop_p)?;
        check_probability("corrupt_p", corrupt_p)?;
        let mut f = FaultInjector::none(seed);
        f.drop_p = Chance::new(drop_p);
        f.corrupt_p = Chance::new(corrupt_p);
        Ok(f)
    }

    /// Validate every probability knob currently configured on this injector
    /// (the fields are public, so post-construction edits can still smuggle
    /// in a bad value; callers that accept external config should re-check).
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        check_probability("drop_p", self.drop_p.p())?;
        check_probability("corrupt_p", self.corrupt_p.p())?;
        check_probability("reorder_p", self.reorder_p.p())?;
        check_probability("dup_p", self.dup_p.p())?;
        Ok(())
    }

    /// Force the next frame to be corrupted in a way that *preserves* the
    /// Internet checksum (the chaos engine's planted bug — the corruption
    /// must leak past the checksum layer so only an end-to-end oracle can
    /// catch it).
    pub fn force_stealth_corrupt_next(&mut self) {
        self.stealth_pending += 1;
    }

    fn corrupt(&mut self, payload: &Bytes) -> Bytes {
        self.stats.corrupted += 1;
        if payload.is_empty() {
            return payload.clone();
        }
        let bit = self.rng.below((payload.len() * 8) as u32) as usize;
        self.edited_copy(payload, |buf| buf[bit / 8] ^= 1 << (bit % 8))
    }

    /// Corrupt `payload` without changing its Internet checksum.
    ///
    /// The checksum is a ones'-complement sum of big-endian 16-bit words, so
    /// flipping the same bit index in two bytes that sit at the same parity
    /// (both high-lane or both low-lane, i.e. an even offset apart) — one
    /// byte with the bit set, the other with it clear — shifts one word by
    /// `+d` and the other by `-d`, leaving the sum exactly unchanged. The
    /// search is restricted to the frame tail (past the link/IP/TCP headers)
    /// so the flips land in application payload, not in header fields whose
    /// semantics TCP would notice. If the payload has no such pair (e.g. a
    /// constant fill), it is delivered untouched.
    fn stealth_corrupt(&mut self, payload: &Bytes) -> Bytes {
        const HEADER_SKIP: usize = 128;
        if payload.len() < HEADER_SKIP + 4 {
            return payload.clone();
        }
        let start = HEADER_SKIP;
        let region = &payload[start..];
        for bit in 0..8u8 {
            for parity in 0..2usize {
                let mut set_at = None;
                let mut clear_at = None;
                for (i, &b) in region.iter().enumerate().skip(parity).step_by(2) {
                    if b & (1 << bit) != 0 {
                        if set_at.is_none() {
                            set_at = Some(i);
                        }
                    } else if clear_at.is_none() {
                        clear_at = Some(i);
                    }
                    if let (Some(set), Some(clear)) = (set_at, clear_at) {
                        self.stats.stealth_corrupted += 1;
                        return self.edited_copy(payload, |buf| {
                            buf[start + set] ^= 1 << bit;
                            buf[start + clear] ^= 1 << bit;
                        });
                    }
                }
            }
        }
        payload.clone()
    }

    /// Draw the fate of one frame.
    pub fn fate(&mut self, payload: Bytes) -> Fate {
        self.stats.offered += 1;
        if self.stealth_pending > 0 {
            self.stealth_pending -= 1;
            return Fate::Deliver {
                payload: self.stealth_corrupt(&payload),
                extra_delay: Dur::ZERO,
                duplicate: false,
            };
        }
        if self.drop_p.possible() && self.rng.chance(self.drop_p) {
            self.stats.dropped += 1;
            return Fate::Drop;
        }
        let payload = if self.corrupt_p.possible() && self.rng.chance(self.corrupt_p) {
            self.corrupt(&payload)
        } else {
            payload
        };
        let extra_delay = if self.reorder_p.possible() && self.rng.chance(self.reorder_p) {
            self.stats.reordered += 1;
            self.reorder_delay
        } else {
            Dur::ZERO
        };
        let duplicate = self.dup_p.possible() && self.rng.chance(self.dup_p);
        if duplicate {
            self.stats.duplicated += 1;
        }
        Fate::Deliver {
            payload,
            extra_delay,
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_injector_delivers_verbatim() {
        let mut f = FaultInjector::none(1);
        let data = Bytes::from_static(b"hello");
        match f.fate(data.clone()) {
            Fate::Deliver {
                payload,
                extra_delay,
                duplicate,
            } => {
                assert_eq!(payload, data);
                assert_eq!(extra_delay, Dur::ZERO);
                assert!(!duplicate);
            }
            Fate::Drop => panic!("dropped without faults"),
        }
        assert_eq!(f.stats.offered, 1);
        assert_eq!(f.stats.dropped, 0);
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let mut f = FaultInjector::lossy(2, 0.3, 0.0).unwrap();
        for _ in 0..10_000 {
            f.fate(Bytes::from_static(b"x"));
        }
        let rate = f.stats.dropped as f64 / f.stats.offered as f64;
        assert!((0.27..0.33).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut f = FaultInjector::lossy(3, 0.0, 1.0).unwrap();
        let data = Bytes::from(vec![0u8; 64]);
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => {
                let flipped: u32 = payload
                    .iter()
                    .zip(data.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            Fate::Drop => panic!(),
        }
    }

    #[test]
    fn standalone_injector_recycles_corruption_copies() {
        // Without a shared pool the injector recycles through its own.
        let mut f = FaultInjector::lossy(3, 0.0, 1.0).unwrap();
        for _ in 0..3 {
            let Fate::Deliver { payload, .. } = f.fate(Bytes::from(vec![0u8; 1500])) else {
                panic!("corruption delivers");
            };
            drop(payload);
        }
        let s = f.pool.stats();
        assert_eq!((s.acquires, s.releases, s.misses), (3, 3, 1));
        assert!(f.pool.balanced());
    }

    #[test]
    fn forced_faults_win() {
        // A certain drop still yields to a forced stealth corruption, once.
        let mut f = FaultInjector::lossy(4, 1.0, 0.0).unwrap();
        f.force_stealth_corrupt_next();
        match f.fate(Bytes::from_static(b"a")) {
            Fate::Deliver { payload, .. } => assert_eq!(payload, Bytes::from_static(b"a")),
            Fate::Drop => panic!("the forced fate must win"),
        }
        assert_eq!(f.fate(Bytes::from_static(b"b")), Fate::Drop);
        assert_eq!(f.fate(Bytes::from_static(b"c")), Fate::Drop);
        assert_eq!((f.stats.offered, f.stats.dropped), (3, 2));
    }

    #[test]
    fn reorder_and_duplicate() {
        let mut f = FaultInjector::none(5);
        f.reorder_p = Chance::new(1.0);
        f.reorder_delay = Dur::micros(500);
        f.dup_p = Chance::new(1.0);
        match f.fate(Bytes::from_static(b"z")) {
            Fate::Deliver {
                extra_delay,
                duplicate,
                ..
            } => {
                assert_eq!(extra_delay, Dur::micros(500));
                assert!(duplicate);
            }
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.reordered, 1);
        assert_eq!(f.stats.duplicated, 1);
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert_eq!(
            FaultInjector::lossy(1, 1.5, 0.0).unwrap_err(),
            FaultConfigError {
                knob: "drop_p",
                value: 1.5
            }
        );
        assert_eq!(
            FaultInjector::lossy(1, 0.0, -0.1).unwrap_err(),
            FaultConfigError {
                knob: "corrupt_p",
                value: -0.1
            }
        );
        assert!(FaultInjector::lossy(1, 0.0, f64::NAN).is_err());
        let mut f = FaultInjector::none(1);
        f.reorder_p = Chance::new(2.0);
        assert_eq!(f.validate().unwrap_err().knob, "reorder_p");
        f.reorder_p = Chance::new(1.0);
        assert!(f.validate().is_ok());
    }

    /// The folded ones'-complement sum over the whole buffer — any checksum
    /// computed over any even-offset-aligned sub-range shifts by the same
    /// amount under the stealth flip, so preserving this global sum (plus
    /// both lane sums) proves the real TCP checksum is preserved.
    fn ones_sum(buf: &[u8]) -> u32 {
        let mut sum = 0u32;
        let mut i = 0;
        while i < buf.len() {
            let hi = buf[i] as u32;
            let lo = if i + 1 < buf.len() {
                buf[i + 1] as u32
            } else {
                0
            };
            sum += (hi << 8) | lo;
            i += 2;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum
    }

    #[test]
    fn stealth_corruption_changes_bytes_but_not_checksum() {
        let mut f = FaultInjector::none(9);
        f.force_stealth_corrupt_next();
        // A varied payload like real application data.
        let data: Bytes = (0..1024u32)
            .map(|i| i.wrapping_mul(2654435761).to_le_bytes()[0])
            .collect::<Vec<u8>>()
            .into();
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => {
                assert_ne!(payload, data, "payload must actually change");
                let diff: usize = payload
                    .iter()
                    .zip(data.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(diff, 2, "exactly two bytes flipped");
                assert_eq!(ones_sum(&payload), ones_sum(&data), "checksum must survive");
                // Both lane sums individually, so any 16-bit alignment works.
                let lane = |buf: &[u8], p: usize| -> u64 {
                    buf.iter().skip(p).step_by(2).map(|&b| b as u64).sum()
                };
                assert_eq!(lane(&payload, 0), lane(&data, 0));
                assert_eq!(lane(&payload, 1), lane(&data, 1));
                // The header region is untouched.
                assert_eq!(&payload[..128], &data[..128]);
            }
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.stealth_corrupted, 1);
    }

    #[test]
    fn stealth_corruption_leaves_uncorruptible_payloads_alone() {
        let mut f = FaultInjector::none(10);
        f.force_stealth_corrupt_next();
        let data = Bytes::from(vec![0u8; 512]); // constant fill: no set/clear pair
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => assert_eq!(payload, data),
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.stealth_corrupted, 0);
    }

    #[test]
    fn deterministic_stream() {
        let run = |seed| {
            let mut f = FaultInjector::lossy(seed, 0.5, 0.0).unwrap();
            (0..64)
                .map(|_| matches!(f.fate(Bytes::from_static(b"p")), Fate::Drop))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }
}
