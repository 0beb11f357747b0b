//! Adaptor-side fault injection.
//!
//! The links already fail (`netsim::fault`); this module makes the CAB
//! itself a fault domain. A seeded [`FaultInjector`] can fail SDMA/MDMA
//! transfers, wedge an engine (stuck until the driver resets the board),
//! miscompute the outboard checksum, and force network-memory allocation
//! failures. It mirrors the netsim injector's shape: probabilistic knobs
//! (a probability of 1 makes a fault certain) plus `force_*_wedge_next`
//! queues that wedge an engine on its next transfer (chaos schedules and
//! tests).
//!
//! Like the link injector, every draw comes from a private seeded
//! [`Pcg32`], and the RNG is only consulted when a probability is nonzero,
//! so a transparent injector perturbs nothing. Each knob is a [`Chance`],
//! compiled once to the integer threshold a draw is compared with.

use outboard_sim::obs::Scope;
use outboard_sim::{check_probability, Chance, FaultConfigError, Pcg32};
use std::collections::VecDeque;

/// How an injected transfer fault manifests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TransferFault {
    /// The transfer fails with a transient, retryable error.
    Error,
    /// The engine wedges: this request and all later ones are stuck until
    /// the driver resets the board.
    Wedge,
}

/// What the injector has done so far, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// SDMA requests presented to the injector.
    pub sdma_offered: u64,
    /// SDMA requests failed transiently.
    pub sdma_failed: u64,
    /// MDMA requests presented to the injector.
    pub mdma_offered: u64,
    /// MDMA requests failed transiently.
    pub mdma_failed: u64,
    /// Engine wedges injected.
    pub wedges: u64,
    /// Outboard checksums miscomputed.
    pub csum_miscomputed: u64,
    /// Network-memory allocations forced to fail.
    pub alloc_failed: u64,
}

/// Seeded, deterministic fault injector for one CAB.
#[derive(Debug)]
pub struct FaultInjector {
    /// Probability an SDMA transfer fails transiently.
    pub sdma_fail_p: Chance,
    /// Probability an MDMA transfer fails transiently.
    pub mdma_fail_p: Chance,
    /// Probability a transfer wedges its engine instead of completing.
    pub wedge_p: Chance,
    /// Probability the outboard checksum engine miscomputes (the inserted
    /// checksum is wrong; the receiver's verification catches it).
    pub csum_error_p: Chance,
    /// Probability a network-memory allocation fails even when pages are
    /// free.
    pub alloc_fail_p: Chance,
    rng: Pcg32,
    forced_sdma: VecDeque<TransferFault>,
    forced_mdma: VecDeque<TransferFault>,
    /// Cumulative injection counts.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// A transparent injector (no faults).
    pub fn none(seed: u64) -> FaultInjector {
        FaultInjector {
            sdma_fail_p: Chance::NEVER,
            mdma_fail_p: Chance::NEVER,
            wedge_p: Chance::NEVER,
            csum_error_p: Chance::NEVER,
            alloc_fail_p: Chance::NEVER,
            rng: Pcg32::new(seed),
            forced_sdma: VecDeque::new(),
            forced_mdma: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// An injector with the given transfer-failure and allocation-failure
    /// probabilities.
    ///
    /// Rejects probabilities outside `[0, 1]` — a misconfigured knob would
    /// otherwise compile to a [`Chance`] that silently always or never
    /// fires.
    pub fn flaky(
        seed: u64,
        dma_fail_p: f64,
        alloc_fail_p: f64,
    ) -> Result<FaultInjector, FaultConfigError> {
        check_probability("dma_fail_p", dma_fail_p)?;
        check_probability("alloc_fail_p", alloc_fail_p)?;
        let mut f = FaultInjector::none(seed);
        f.sdma_fail_p = Chance::new(dma_fail_p);
        f.mdma_fail_p = Chance::new(dma_fail_p);
        f.alloc_fail_p = Chance::new(alloc_fail_p);
        Ok(f)
    }

    /// Validate every probability knob currently configured on this injector
    /// (the fields are public, so post-construction edits can still smuggle
    /// in a bad value; callers that accept external config should re-check).
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        check_probability("sdma_fail_p", self.sdma_fail_p.p())?;
        check_probability("mdma_fail_p", self.mdma_fail_p.p())?;
        check_probability("wedge_p", self.wedge_p.p())?;
        check_probability("csum_error_p", self.csum_error_p.p())?;
        check_probability("alloc_fail_p", self.alloc_fail_p.p())?;
        Ok(())
    }

    /// Force the next SDMA transfer to wedge the engine.
    pub fn force_sdma_wedge_next(&mut self) {
        self.forced_sdma.push_back(TransferFault::Wedge);
    }

    /// Force the next MDMA transfer to wedge the engine.
    pub fn force_mdma_wedge_next(&mut self) {
        self.forced_mdma.push_back(TransferFault::Wedge);
    }

    /// Draw the fate of one SDMA transfer.
    pub(crate) fn sdma_fate(&mut self) -> Option<TransferFault> {
        self.stats.sdma_offered += 1;
        if let Some(forced) = self.forced_sdma.pop_front() {
            return Some(self.count_transfer(forced, true));
        }
        if self.wedge_p.possible() && self.rng.chance(self.wedge_p) {
            return Some(self.count_transfer(TransferFault::Wedge, true));
        }
        if self.sdma_fail_p.possible() && self.rng.chance(self.sdma_fail_p) {
            return Some(self.count_transfer(TransferFault::Error, true));
        }
        None
    }

    /// Draw the fate of one MDMA transfer.
    pub(crate) fn mdma_fate(&mut self) -> Option<TransferFault> {
        self.stats.mdma_offered += 1;
        if let Some(forced) = self.forced_mdma.pop_front() {
            return Some(self.count_transfer(forced, false));
        }
        if self.wedge_p.possible() && self.rng.chance(self.wedge_p) {
            return Some(self.count_transfer(TransferFault::Wedge, false));
        }
        if self.mdma_fail_p.possible() && self.rng.chance(self.mdma_fail_p) {
            return Some(self.count_transfer(TransferFault::Error, false));
        }
        None
    }

    fn count_transfer(&mut self, fault: TransferFault, sdma: bool) -> TransferFault {
        match fault {
            TransferFault::Error if sdma => self.stats.sdma_failed += 1,
            TransferFault::Error => self.stats.mdma_failed += 1,
            TransferFault::Wedge => self.stats.wedges += 1,
        }
        fault
    }

    /// Should this checksum insertion be miscomputed?
    pub(crate) fn csum_miscomputes(&mut self) -> bool {
        if self.csum_error_p.possible() && self.rng.chance(self.csum_error_p) {
            self.stats.csum_miscomputed += 1;
            return true;
        }
        false
    }

    /// Should this network-memory allocation fail?
    pub(crate) fn alloc_fails(&mut self) -> bool {
        if self.alloc_fail_p.possible() && self.rng.chance(self.alloc_fail_p) {
            self.stats.alloc_failed += 1;
            return true;
        }
        false
    }

    /// Publish cumulative injection counters into a registry scope.
    pub fn publish_metrics(&self, s: &mut Scope<'_>) {
        let f = &self.stats;
        s.counter("faults.sdma_offered", f.sdma_offered);
        s.counter("faults.sdma_failed", f.sdma_failed);
        s.counter("faults.mdma_offered", f.mdma_offered);
        s.counter("faults.mdma_failed", f.mdma_failed);
        s.counter("faults.wedges", f.wedges);
        s.counter("faults.csum_miscomputed", f.csum_miscomputed);
        s.counter("faults.alloc_failed", f.alloc_failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_injector_injects_nothing() {
        let mut f = FaultInjector::none(1);
        for _ in 0..1000 {
            assert_eq!(f.sdma_fate(), None);
            assert_eq!(f.mdma_fate(), None);
            assert!(!f.csum_miscomputes());
            assert!(!f.alloc_fails());
        }
        assert_eq!(
            f.stats,
            FaultStats {
                sdma_offered: 1000,
                mdma_offered: 1000,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn forced_faults_win_then_clear() {
        // A forced wedge wins over a certain transient error, once.
        let mut f = FaultInjector::none(2);
        (f.sdma_fail_p, f.mdma_fail_p) = (Chance::new(1.0), Chance::new(1.0));
        f.force_sdma_wedge_next();
        f.force_mdma_wedge_next();
        assert_eq!(f.sdma_fate(), Some(TransferFault::Wedge));
        assert_eq!(f.sdma_fate(), Some(TransferFault::Error));
        assert_eq!(f.mdma_fate(), Some(TransferFault::Wedge));
        assert_eq!(f.mdma_fate(), Some(TransferFault::Error));
        (f.csum_error_p, f.alloc_fail_p) = (Chance::new(1.0), Chance::new(1.0));
        assert!(f.csum_miscomputes());
        assert!(f.alloc_fails());
        assert_eq!(f.stats.wedges, 2);
        assert_eq!(f.stats.sdma_failed, 1);
        assert_eq!(f.stats.mdma_failed, 1);
        assert_eq!(f.stats.csum_miscomputed, 1);
        assert_eq!(f.stats.alloc_failed, 1);
    }

    #[test]
    fn probabilities_roughly_honored() {
        let mut f = FaultInjector::flaky(3, 0.25, 0.1).unwrap();
        let mut sdma_fails = 0;
        let mut alloc_fails = 0;
        for _ in 0..10_000 {
            if f.sdma_fate() == Some(TransferFault::Error) {
                sdma_fails += 1;
            }
            if f.alloc_fails() {
                alloc_fails += 1;
            }
        }
        let sdma_rate = sdma_fails as f64 / 10_000.0;
        let alloc_rate = alloc_fails as f64 / 10_000.0;
        assert!((0.22..0.28).contains(&sdma_rate), "sdma rate {sdma_rate}");
        assert!(
            (0.08..0.12).contains(&alloc_rate),
            "alloc rate {alloc_rate}"
        );
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert_eq!(
            FaultInjector::flaky(1, 1.01, 0.0).unwrap_err().knob,
            "dma_fail_p"
        );
        assert_eq!(
            FaultInjector::flaky(1, 0.0, -0.5).unwrap_err().knob,
            "alloc_fail_p"
        );
        assert!(FaultInjector::flaky(1, f64::INFINITY, 0.0).is_err());
        let mut f = FaultInjector::none(1);
        f.wedge_p = Chance::new(7.0);
        assert_eq!(f.validate().unwrap_err().knob, "wedge_p");
        f.wedge_p = Chance::NEVER;
        assert!(f.validate().is_ok());
    }

    #[test]
    fn deterministic_stream() {
        let run = |seed| {
            let mut f = FaultInjector::flaky(seed, 0.5, 0.5).unwrap();
            (0..64)
                .map(|_| (f.sdma_fate().is_some(), f.alloc_fails()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }
}
