//! Per-byte memory-system costs with cache locality.
//!
//! The paper measures per-byte costs by repeatedly copying/reading regions
//! whose size sets the cache locality (§7.3): a 1 MB copy region runs at
//! 350 Mbit/s, a 512 KB checksum read at 630 Mbit/s, and intermediate write
//! sizes (64 KB) show measurably better efficiency from cache reuse.
//!
//! We model effective bandwidth as a log-linear interpolation between a
//! fully-cached maximum (working set ≤ `cache_resident_at`) and a
//! no-locality minimum (working set ≥ `*_nolocality_at`). The curve is
//! evaluated in f64 once per working set and kept as an exact integer
//! [`Rate`]; a transfer's cost is integer arithmetic on it.

use crate::config::MachineConfig;
use outboard_sim::{Dur, Rate};

/// One log-linear bandwidth-against-locality curve, in the configuration's
/// f64 terms.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Working sets at or below this run at `bw_max`.
    lo: usize,
    /// Working sets at or above this run at `bw_min`.
    hi: usize,
    bw_max: f64,
    bw_min: f64,
}

impl Shape {
    /// Log-linear interpolation of bandwidth against working-set size, in
    /// bit/s.
    #[expect(
        clippy::float_arithmetic,
        reason = "the curve's compiler: once per working set between the ends while it repeats"
    )]
    fn bps(&self, working_set: usize) -> f64 {
        let (lo, hi) = (self.lo as f64, self.hi as f64);
        let ws = (working_set.max(1) as f64).clamp(lo, hi);
        let frac = (ws.ln() - lo.ln()) / (hi.ln() - lo.ln());
        (self.bw_max + (self.bw_min - self.bw_max) * frac) * 1e6
    }

    fn compile(&self, working_set: usize) -> Rate {
        Rate::from_bps(self.bps(working_set))
    }
}

/// A [`Shape`] compiled to a [`Rate`] per working set: the two flat ends at
/// construction, a working set between them when a transfer uses it.
///
/// Between the ends only the last working set is kept: the copy curve sees
/// at most 8 distinct ones per host and pass on `bulk_sc` and 3 on
/// `bulk_unmod`, in runs (77 % and 99 % of calls repeat the previous one),
/// and the unmodified stack's checksum working set is its send-queue
/// length, which seldom repeats at all (50 % repeats, 53 % at best).
#[derive(Debug)]
struct Curve {
    shape: Shape,
    cached: Rate,
    cold: Rate,
    /// The last working set between the ends and its rate (0: none yet).
    last: (usize, Rate),
}

impl Curve {
    fn new(cfg: &MachineConfig, bw_max: f64, bw_min: f64, nolocality_at: usize) -> Curve {
        let shape = Shape {
            lo: cfg.cache_resident_at.max(1),
            hi: nolocality_at.max(cfg.cache_resident_at + 1),
            bw_max,
            bw_min,
        };
        Curve {
            shape,
            cached: shape.compile(shape.lo),
            cold: shape.compile(shape.hi),
            last: (0, shape.compile(shape.hi)),
        }
    }

    fn rate(&mut self, working_set: usize) -> Rate {
        let ws = working_set.clamp(self.shape.lo, self.shape.hi);
        if ws == self.shape.lo {
            self.cached
        } else if ws == self.shape.hi {
            self.cold
        } else {
            if self.last.0 != ws {
                self.last = (ws, self.shape.compile(ws));
            }
            self.last.1
        }
    }

    fn cost(&mut self, bytes: usize, working_set: usize) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        self.rate(working_set).time_for(bytes as u64)
    }
}

/// Bandwidth-based cost model for CPU data touching.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MachineConfig,
    copy: Curve,
    read: Curve,
}

impl MemorySystem {
    /// A memory system with the machine's bandwidth curve.
    pub fn new(cfg: MachineConfig) -> MemorySystem {
        let copy = Curve::new(
            &cfg,
            cfg.copy_bw_max_mbps,
            cfg.copy_bw_min_mbps,
            cfg.copy_nolocality_at,
        );
        let read = Curve::new(
            &cfg,
            cfg.read_bw_max_mbps,
            cfg.read_bw_min_mbps,
            cfg.read_nolocality_at,
        );
        MemorySystem { cfg, copy, read }
    }

    /// The underlying machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// CPU time to memory-copy `bytes`, with locality determined by the
    /// working set `region` (e.g. the TCP window on the unmodified transmit
    /// path, or the write size when data is re-used quickly).
    pub fn copy_cost(&mut self, bytes: usize, region: usize) -> Dur {
        self.copy.cost(bytes, region)
    }

    /// CPU time to read (checksum) `bytes` with working set `region`.
    pub fn read_cost(&mut self, bytes: usize, region: usize) -> Dur {
        self.read.cost(bytes, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn ms() -> MemorySystem {
        MemorySystem::new(MachineConfig::alpha_3000_400())
    }

    #[test]
    fn paper_anchor_points() {
        let m = ms();
        // 1 MB copy region: exactly the no-locality bandwidth.
        assert!((m.copy.shape.bps(1024 * 1024) - 350e6).abs() < 1e-3);
        // 512 KB read region: exactly the paper's 630 Mbit/s.
        assert!((m.read.shape.bps(512 * 1024) - 630e6).abs() < 1e-3);
    }

    #[test]
    fn locality_is_monotone() {
        let m = ms();
        let mut prev = f64::INFINITY;
        for sz in [16usize, 64, 128, 256, 512, 1024].map(|k| k * 1024) {
            let bw = m.read.shape.bps(sz);
            assert!(bw <= prev + 1e-3, "bandwidth must not grow with region");
            prev = bw;
        }
        // Small regions enjoy the cached maximum.
        assert!((m.read.shape.bps(4 * 1024) - 850e6).abs() < 1e-3);
        assert!((m.copy.shape.bps(64 * 1024) - 450e6).abs() < 1e-3);
    }

    #[test]
    fn costs_scale_linearly_in_bytes() {
        let mut m = ms();
        let one = m.copy_cost(32 * 1024, 1024 * 1024);
        let two = m.copy_cost(64 * 1024, 1024 * 1024);
        let ratio = two.as_nanos() as f64 / one.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
        assert_eq!(m.copy_cost(0, 1024), Dur::ZERO);
        assert_eq!(m.read_cost(0, 1024), Dur::ZERO);
    }

    #[test]
    fn paper_732_copy_of_32k_at_window_locality() {
        // §7.3: copying 32 KB with no locality costs 32768*8/350e6 ≈ 749 us.
        let mut m = ms();
        let c = m.copy_cost(32 * 1024, 1024 * 1024);
        assert!((c.as_micros_f64() - 749.0).abs() < 1.0, "{c:?}");
        let r = m.read_cost(32 * 1024, 512 * 1024);
        assert!((r.as_micros_f64() - 416.1).abs() < 1.0, "{r:?}");
    }

    /// Working sets across the whole curve: both flat ends and twelve
    /// points between 64 KB and 1 MB.
    const REGIONS: [usize; 16] = [
        4096,
        64 * 1024,
        64 * 1024 + 1,
        80 * 1024,
        100_000,
        128 * 1024,
        192 * 1024,
        256 * 1024,
        300_000,
        384 * 1024,
        448 * 1024,
        512 * 1024,
        600_000,
        768 * 1024,
        1024 * 1024 - 1,
        4 << 20,
    ];

    fn machines() -> [MemorySystem; 2] {
        [ms(), MemorySystem::new(MachineConfig::alpha_3000_300lx())]
    }

    /// The f64 model the compiled curve replaced, per transfer.
    fn reference(curve: &Curve, bytes: usize, region: usize) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        Dur::for_bytes_at_bps(bytes as u64, curve.shape.bps(region))
    }

    /// Working sets between the ends, repeated and alternating: every cost
    /// matches the f64 model whether the last one is reused or replaced.
    #[test]
    fn last_working_set_reuse_changes_nothing() {
        let mut m = ms();
        let sets: Vec<usize> = (0..100).map(|i| 64 * 1024 + 1 + i * 4493).collect();
        for &ws in sets.iter().chain(sets.iter().rev()).flat_map(|ws| [ws, ws]) {
            assert_eq!(
                m.read_cost(32 * 1024, ws),
                reference(&m.read, 32 * 1024, ws)
            );
            assert_eq!(m.read.last.0, ws);
        }
        assert_eq!(m.copy.last.0, 0, "the copy curve saw no such working set");
    }

    /// Every length up to 1 MiB at every region on both machines: run with
    /// `cargo test --release -p outboard-host -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 64 M transfers, seconds in release"]
    fn compiled_curve_matches_the_f64_model_exhaustively() {
        for mut m in machines() {
            for region in REGIONS {
                for bytes in 0..=1 << 20 {
                    let (c, r) = (m.copy_cost(bytes, region), m.read_cost(bytes, region));
                    assert_eq!(
                        c,
                        reference(&m.copy, bytes, region),
                        "copy {bytes} @ {region}"
                    );
                    assert_eq!(
                        r,
                        reference(&m.read, bytes, region),
                        "read {bytes} @ {region}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 2048, ..Default::default() })]

        #[test]
        fn compiled_curve_matches_the_f64_model(
            bytes in 0usize..=1 << 20,
            region in 0..REGIONS.len(),
            lx in proptest::prelude::any::<bool>(),
        ) {
            let [mut m, mut m_lx] = machines();
            let m = if lx { &mut m_lx } else { &mut m };
            let region = REGIONS[region];
            proptest::prop_assert_eq!(m.copy_cost(bytes, region), reference(&m.copy, bytes, region));
            proptest::prop_assert_eq!(m.read_cost(bytes, region), reference(&m.read, bytes, region));
        }
    }
}
