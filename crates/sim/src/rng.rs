//! Deterministic PRNG.
//!
//! PCG32 (Melissa O'Neill's `pcg32_random_r`) with a SplitMix64 seeder. The
//! stream is fixed by this file, so experiment results never shift under us
//! when an external RNG crate revs its algorithm.

/// A probability knob was configured outside `[0, 1]` (or was not a finite
/// number). [`Chance::new`] takes any value (above 1 always fires, below 0 or
/// NaN never), so a bad knob would silently misdraw; fault-injection
/// constructors validate with [`check_probability`] and surface this typed
/// error instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfigError {
    /// Name of the offending knob (e.g. `"drop_p"`).
    pub knob: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault probability {} = {} is outside [0, 1]",
            self.knob, self.value
        )
    }
}

impl std::error::Error for FaultConfigError {}

/// Check that one probability knob is a finite value in `[0, 1]`.
pub fn check_probability(knob: &'static str, value: f64) -> Result<(), FaultConfigError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultConfigError { knob, value })
    }
}

/// A probability compiled once for [`Pcg32::chance`].
///
/// A draw of 53 random bits `k` stands for the float `k · 2^-53`, and
/// `k · 2^-53 < p` exactly when `k < ⌈p·2^53⌉` (`p · 2^53` is exact in f64),
/// so comparing `k` with that integer threshold makes the same decision as
/// comparing the float, without any float work per draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chance {
    p: f64,
    threshold: u64,
}

impl Chance {
    /// The probability that never fires.
    pub const NEVER: Chance = Chance {
        p: 0.0,
        threshold: 0,
    };

    /// Compile `p`. Values above 1 always fire; zero, negative and NaN
    /// values never do ([`check_probability`] is what rejects them).
    pub fn new(p: f64) -> Chance {
        let threshold = if p > 0.0 {
            // Saturating cast: every p >= 1 lands at or above 2^53.
            (p * (1u64 << 53) as f64).ceil() as u64
        } else {
            0
        };
        Chance { p, threshold }
    }

    /// The probability this was compiled from.
    pub fn p(self) -> f64 {
        self.p
    }

    /// Whether a draw can succeed (`p > 0`). The fault injectors only draw
    /// when it can, so a transparent knob leaves the stream untouched.
    pub fn possible(self) -> bool {
        self.threshold > 0
    }
}

/// A PCG-XSH-RR 64/32 generator.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Pcg32 {
    /// Create a generator from a 64-bit seed. Distinct seeds give distinct,
    /// well-mixed streams (the stream selector is derived from the seed too).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let init_state = splitmix64(&mut s);
        let init_inc = splitmix64(&mut s) | 1; // must be odd
        let mut rng = Pcg32 {
            state: 0,
            inc: init_inc,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(init_state);
        rng.next_u32();
        rng
    }

    /// The next 32 random bits (PCG-XSH-RR output function).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 random bits (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform in `[0, bound)` using Lemire-style rejection to avoid modulo
    /// bias.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below(0) is meaningless");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = (r as u64) * (bound as u64);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial: one 53-bit draw `k` succeeds when `k < ⌈p·2^53⌉`.
    /// Always consumes a draw; see [`Chance::possible`] for the fault
    /// injectors' rule that a zero knob consumes none.
    pub fn chance(&mut self, c: Chance) -> bool {
        (self.next_u64() >> 11) < c.threshold
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
impl Pcg32 {
    /// Uniform float in `[0, 1)`: the draw the float compare used.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        // 53 random bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fill `buf` with random bytes.
    pub(crate) fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(4);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }

    /// Derive an independent child generator (for giving each component its
    /// own stream without coupling their consumption patterns).
    pub(crate) fn fork(&mut self) -> Pcg32 {
        let seed = ((self.next_u32() as u64) << 32) | self.next_u32() as u64;
        Pcg32::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::new(12345);
        let mut b = Pcg32::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let sa: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let sb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Pcg32::new(7);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expect 10_000 per bucket; allow generous slack.
            assert!((8_500..11_500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Pcg32::new(99);
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::new(4);
        for _ in 0..100 {
            assert!(!rng.chance(Chance::new(0.0)));
            assert!(rng.chance(Chance::new(1.0)));
        }
        assert!(!Chance::new(0.0).possible() && !Chance::NEVER.possible());
        assert!(!Chance::new(-0.5).possible() && !Chance::new(f64::NAN).possible());
        assert!(Chance::new(f64::MIN_POSITIVE).possible());
        assert_eq!(Chance::new(2f64.powi(-53)).threshold, 1);
        assert_eq!(Chance::new(1.0).threshold, 1 << 53);
    }

    /// The integer compare against the float compare it replaces, over
    /// random and edge probabilities: the same decision on every draw.
    fn same_decisions(seed: u64, p: f64) {
        let (mut float, mut int) = (Pcg32::new(seed), Pcg32::new(seed));
        let c = Chance::new(p);
        for _ in 0..256 {
            assert_eq!(
                float.unit_f64() < p,
                int.chance(c),
                "p = {p:e}, seed {seed}"
            );
        }
    }

    #[test]
    fn chance_edges_match_the_float_compare() {
        let edges = [
            0.0,
            1.0,
            2f64.powi(-53),
            2f64.powi(-52),
            0.5,
            0.05,
            0.01,
            1.0 - 1e-16,
        ];
        for (seed, p) in (0..64).flat_map(|s| edges.map(|p| (s, p))) {
            same_decisions(seed, p);
        }
    }

    proptest::proptest! {
        #[test]
        fn chance_matches_the_float_compare(seed in 0u64.., p in 0.0f64..=1.0, k in 0i32..60) {
            same_decisions(seed, p);
            // Small probabilities, where the threshold has few bits.
            same_decisions(seed, p * 2f64.powi(-k));
        }
    }

    /// Near a threshold the float compare and the integer one must still
    /// agree: every `k` at and around `⌈p·2^53⌉` for random `p`.
    #[test]
    fn chance_threshold_is_the_float_boundary() {
        let mut rng = Pcg32::new(17);
        for _ in 0..10_000 {
            let p = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 + 1e-17;
            let t = Chance::new(p).threshold;
            for k in t.saturating_sub(2)..t + 2 {
                let unit = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(unit < p, k < t, "p = {p:e}, k = {k}");
            }
        }
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = Pcg32::new(5);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        // Practically impossible for 7 random bytes to all be zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::new(11);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle changed order");
    }

    #[test]
    fn fork_decouples_streams() {
        let mut a = Pcg32::new(123);
        let mut child = a.fork();
        let parent_next = a.next_u32();
        let child_next = child.next_u32();
        assert_ne!(parent_next, child_next);
    }
}
