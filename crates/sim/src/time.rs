//! Virtual time.
//!
//! The simulation clock counts nanoseconds from the start of an experiment.
//! A `u64` of nanoseconds covers ~584 years of virtual time, far beyond any
//! experiment here (the longest paper run moves 512 KB × a few thousand
//! iterations, i.e. minutes of virtual time).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Virtual seconds since simulation start, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`; saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s >= 0.0 && s.is_finite(), "duration must be non-negative");
        Dur((s * 1e9).round() as u64)
    }

    /// Construct from fractional microseconds.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Dur {
        Dur::from_secs_f64(us / 1e6)
    }

    /// The time it takes to move `bytes` at `bits_per_sec`, evaluated in
    /// f64. The model crates charge byte rates through [`Rate`] instead;
    /// this is the reference a `Rate` is tested against.
    #[inline]
    pub fn for_bytes_at_bps(bytes: u64, bits_per_sec: f64) -> Dur {
        assert!(bits_per_sec > 0.0, "bandwidth must be positive");
        Dur::from_secs_f64(bytes as f64 * 8.0 / bits_per_sec)
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True for the zero-length duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
}

/// A bandwidth compiled once into integers, so charging a transfer does no
/// floating-point work.
///
/// Every finite f64 is an integer times a power of two, so
/// [`Rate::from_bps`] takes `bits_per_sec` apart into the exact fraction
/// `P / Q` and [`Rate::time_for`] returns `bytes · 8e9 / bps` nanoseconds
/// rounded half up, `⌊(2·bytes·8e9·Q + P) / 2P⌋`. That is the exact value
/// [`Dur::for_bytes_at_bps`] approximates through two f64 roundings; the
/// cost-model tests check the two agree on every rate the machine presets
/// compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rate {
    /// `16e9 · Q`.
    mul: u128,
    /// `P`.
    p: u128,
}

impl Rate {
    /// Compile a bandwidth in bit/s, between 1 bit/s and 2^64 bit/s.
    pub fn from_bps(bits_per_sec: f64) -> Rate {
        assert!(
            (1.0..18_446_744_073_709_551_616.0).contains(&bits_per_sec),
            "bandwidth must be within [1, 2^64) bit/s"
        );
        // A normal f64 in range: value = (2^52 + fraction) · 2^(exponent - 1075).
        let bits = bits_per_sec.to_bits();
        let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
        let shift = ((bits >> 52) & 0x7ff) as i32 - 1075;
        let zeros = mantissa.trailing_zeros() as i32;
        let (m, e) = (u128::from(mantissa >> zeros), shift + zeros);
        // 1 <= bps < 2^64 bounds e to [-52, 63]: Q <= 2^52, P < 2^64.
        let (p, q) = if e >= 0 {
            (m << e, 1)
        } else {
            (m, 1u128 << -e)
        };
        Rate {
            mul: 16_000_000_000 * q,
            p,
        }
    }

    /// Time to move `bytes` at this rate (saturating at `u64::MAX` ns).
    #[inline]
    pub fn time_for(&self, bytes: u64) -> Dur {
        let ns = u128::from(bytes)
            .checked_mul(self.mul)
            .and_then(|n| n.checked_add(self.p))
            .map_or(u128::MAX, |n| n / (2 * self.p));
        Dur(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "harness arithmetic, frozen benchmark surface; model code uses Time::since"
    )]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::ZERO + Dur::micros(250);
        assert_eq!(t.nanos(), 250_000);
        assert_eq!(t - Time::ZERO, Dur::micros(250));
        assert_eq!(t.since(Time(300_000)), Dur::ZERO);
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::secs(1), Dur::millis(1000));
        assert_eq!(Dur::millis(1), Dur::micros(1000));
        assert_eq!(Dur::micros(1), Dur::nanos(1000));
        assert_eq!(Dur::from_secs_f64(0.5), Dur::millis(500));
    }

    #[test]
    fn bandwidth_cost_model() {
        // 100 Mbit/s moving 12_500 bytes = 1 ms.
        let d = Dur::for_bytes_at_bps(12_500, 100e6);
        assert_eq!(d, Dur::millis(1));
        // HIPPI line rate: 100 MByte/s = 800 Mbit/s; 32 KB takes 327.68 us.
        let d = Dur::for_bytes_at_bps(32 * 1024, 800e6);
        assert_eq!(d.as_nanos(), 327_680);
    }

    #[test]
    fn rate_matches_the_f64_model() {
        // Integer rates, the LX SDMA rate and fractional locality-curve
        // rates.
        for bps in [
            10e6,
            100e6,
            112.5e6,
            150e6,
            800e6,
            412.345_678_9e6,
            1.0,
            7.3e9,
        ] {
            let rate = Rate::from_bps(bps);
            for bytes in (0..5_000).chain([32 * 1024, 1 << 20, (1 << 20) + 7]) {
                assert_eq!(
                    rate.time_for(bytes),
                    Dur::for_bytes_at_bps(bytes, bps),
                    "{bytes} bytes at {bps} bit/s"
                );
            }
        }
        assert_eq!(Rate::from_bps(1.0).time_for(u64::MAX), Dur(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be within")]
    fn rate_rejects_sub_bit_bandwidth() {
        let _ = Rate::from_bps(0.5);
    }

    #[test]
    fn dur_scaling() {
        assert_eq!(Dur::micros(10) * 3, Dur::micros(30));
        assert_eq!(Dur::micros(30) / 3, Dur::micros(10));
        let total: Dur = [Dur::micros(1), Dur::micros(2)].into_iter().sum();
        assert_eq!(total, Dur::micros(3));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_interval_panics() {
        let _ = Time::ZERO - Time(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::nanos(5)), "5ns");
        assert_eq!(format!("{}", Dur::micros(5)), "5.000us");
        assert_eq!(format!("{}", Dur::millis(5)), "5.000ms");
        assert_eq!(format!("{}", Dur::secs(5)), "5.000s");
    }
}
