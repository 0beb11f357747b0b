//! Per-byte memory-system costs with cache locality.
//!
//! The paper measures per-byte costs by repeatedly copying/reading regions
//! whose size sets the cache locality (§7.3): a 1 MB copy region runs at
//! 350 Mbit/s, a 512 KB checksum read at 630 Mbit/s, and intermediate write
//! sizes (64 KB) show measurably better efficiency from cache reuse.
//!
//! We model effective bandwidth as a log-linear interpolation between a
//! fully-cached maximum (working set ≤ `cache_resident_at`) and a
//! no-locality minimum (working set ≥ `*_nolocality_at`).

use crate::config::MachineConfig;
use outboard_sim::Dur;

/// Bandwidth-based cost model for CPU data touching.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MachineConfig,
}

impl MemorySystem {
    /// A memory system with the machine's bandwidth curve.
    pub fn new(cfg: MachineConfig) -> MemorySystem {
        MemorySystem { cfg }
    }

    /// The underlying machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Log-linear interpolation of bandwidth against working-set size.
    fn bw_for(&self, working_set: usize, bw_max: f64, bw_min: f64, nolocality_at: usize) -> f64 {
        let lo = self.cfg.cache_resident_at.max(1) as f64;
        let hi = nolocality_at.max(self.cfg.cache_resident_at + 1) as f64;
        let ws = (working_set.max(1) as f64).clamp(lo, hi);
        let frac = (ws.ln() - lo.ln()) / (hi.ln() - lo.ln());
        bw_max + (bw_min - bw_max) * frac
    }

    /// Effective memcpy bandwidth (Mbit/s) for a working set of `region`
    /// bytes.
    pub(crate) fn copy_bw_mbps(&self, region: usize) -> f64 {
        self.bw_for(
            region,
            self.cfg.copy_bw_max_mbps,
            self.cfg.copy_bw_min_mbps,
            self.cfg.copy_nolocality_at,
        )
    }

    /// Effective checksum-read bandwidth (Mbit/s).
    pub(crate) fn read_bw_mbps(&self, region: usize) -> f64 {
        self.bw_for(
            region,
            self.cfg.read_bw_max_mbps,
            self.cfg.read_bw_min_mbps,
            self.cfg.read_nolocality_at,
        )
    }

    /// CPU time to memory-copy `bytes`, with locality determined by the
    /// working set `region` (e.g. the TCP window on the unmodified transmit
    /// path, or the write size when data is re-used quickly).
    pub fn copy_cost(&self, bytes: usize, region: usize) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        Dur::for_bytes_at_bps(bytes as u64, self.copy_bw_mbps(region) * 1e6)
    }

    /// CPU time to read (checksum) `bytes` with working set `region`.
    pub fn read_cost(&self, bytes: usize, region: usize) -> Dur {
        if bytes == 0 {
            return Dur::ZERO;
        }
        Dur::for_bytes_at_bps(bytes as u64, self.read_bw_mbps(region) * 1e6)
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
        assert!((m.copy_bw_mbps(1024 * 1024) - 350.0).abs() < 1e-9);
        // 512 KB read region: exactly the paper's 630 Mbit/s.
        assert!((m.read_bw_mbps(512 * 1024) - 630.0).abs() < 1e-9);
    }

    #[test]
    fn locality_is_monotone() {
        let m = ms();
        let mut prev = f64::INFINITY;
        for sz in [16usize, 64, 128, 256, 512, 1024].map(|k| k * 1024) {
            let bw = m.read_bw_mbps(sz);
            assert!(bw <= prev + 1e-9, "bandwidth must not grow with region");
            prev = bw;
        }
        // Small regions enjoy the cached maximum.
        assert!((m.read_bw_mbps(4 * 1024) - 850.0).abs() < 1e-9);
        assert!((m.copy_bw_mbps(64 * 1024) - 450.0).abs() < 1e-9);
    }

    #[test]
    fn costs_scale_linearly_in_bytes() {
        let m = ms();
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
        let m = ms();
        let c = m.copy_cost(32 * 1024, 1024 * 1024);
        assert!((c.as_micros_f64() - 749.0).abs() < 1.0, "{c:?}");
        let r = m.read_cost(32 * 1024, 512 * 1024);
        assert!((r.as_micros_f64() - 416.1).abs() < 1.0, "{r:?}");
    }
}
