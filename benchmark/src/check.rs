//! Output checks and failure accounting. Every pass — warm-up, timed and
//! traced — goes through [`Checker::check`]; `fail_share` is
//! `failed / attempted`.

use crate::workloads::PassOut;
use outboard_testbed::oracle::conservation_violations;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Counts attempted and failed passes and remembers, per input slot, the
/// digest of the first pass that ran on it.
#[derive(Default)]
pub struct Checker {
    reference: BTreeMap<u64, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Checker {
    /// Check one pass that ran on input `slot`. `verified` says the
    /// receivers checked the payload pattern, so `verify_errors` counts.
    /// A pass fails if a transfer is incomplete, byte counts disagree, a
    /// conservation identity is broken, verification found bad bytes, or its
    /// digest differs from the first pass on the same slot — which covers
    /// the run's one `run_ttcp` call against the stepwise passes, the
    /// `verify = true` reference pass against the timed passes, the serial
    /// `figure_point` loop against `compute_figure`, and traced against
    /// untraced passes.
    pub fn check(&mut self, slot: u64, verified: bool, pass: &PassOut) -> bool {
        self.attempted += 1;
        let mut why = Vec::new();
        for (i, run) in pass.runs.iter().enumerate() {
            if !run.completed {
                why.push(format!("run {i}: transfer incomplete"));
            }
            if run.bytes != run.expected_bytes {
                why.push(format!(
                    "run {i}: delivered {} of {} bytes",
                    run.bytes, run.expected_bytes
                ));
            }
            if verified && run.verify_errors > 0 {
                why.push(format!(
                    "run {i}: {} bytes failed verification",
                    run.verify_errors
                ));
            }
            why.extend(conservation_violations(&run.stats, 2));
        }
        let digest = digest(pass);
        let first = *self.reference.entry(slot).or_insert(digest);
        if first != digest {
            why.push(format!(
                "digest {digest:016x} differs from the first pass on slot {slot} ({first:016x})"
            ));
        }
        if why.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons
                .push(format!("pass {}: {}", self.attempted, why.join("; ")));
        }
        false
    }
}

/// Digest of everything a pass reports in sim time: per transfer
/// `(elapsed, bytes, events_dispatched, stats.to_json())`, plus the raw-HIPPI
/// value where there is one. `DefaultHasher::new()` uses fixed keys, so the
/// digest is stable across processes.
fn digest(pass: &PassOut) -> u64 {
    let mut h = DefaultHasher::new();
    for run in &pass.runs {
        run.sim_elapsed.as_nanos().hash(&mut h);
        run.bytes.hash(&mut h);
        run.events.hash(&mut h);
        run.stats.to_json().hash(&mut h);
    }
    pass.raw_mbps.map(f64::to_bits).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::RunOut;
    use outboard_sim::{Dur, MetricsRegistry};

    fn pass(bytes: u64, events: u64) -> PassOut {
        PassOut {
            chunks: vec![1],
            runs: vec![RunOut {
                completed: bytes == 1000,
                expected_bytes: 1000,
                bytes,
                sim_elapsed: Dur::millis(5),
                events,
                verify_errors: 0,
                goodput_mbps: 1.0,
                sender_util: 0.5,
                sender_eff_mbps: 2.0,
                stats: MetricsRegistry::new(Dur::millis(5)),
            }],
            raw_mbps: None,
        }
    }

    #[test]
    fn a_truncated_transfer_raises_fail_share() {
        let mut c = Checker::default();
        assert!(c.check(0, false, &pass(1000, 7)));
        assert!(c.check(0, false, &pass(1000, 7)));
        assert_eq!((c.attempted, c.failed), (2, 0));
        assert!(!c.check(1, false, &pass(600, 7)));
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert!(c.reasons[0].contains("delivered 600 of 1000 bytes"));
        assert!(c.reasons[0].contains("transfer incomplete"));
    }

    #[test]
    fn a_mismatching_digest_raises_fail_share() {
        let mut c = Checker::default();
        assert!(c.check(0, false, &pass(1000, 7)));
        // Same slot, same bytes, one more event dispatched: not the same run.
        assert!(!c.check(0, false, &pass(1000, 8)));
        // Another slot starts its own reference.
        assert!(c.check(1, false, &pass(1000, 8)));
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert!(c.reasons[0].contains("differs from the first pass on slot 0"));
    }

    #[test]
    fn verification_errors_count_only_when_verifying() {
        let mut bad = pass(1000, 7);
        bad.runs[0].verify_errors = 3;
        let mut c = Checker::default();
        assert!(c.check(0, false, &bad));
        assert!(!c.check(0, true, &bad));
    }
}
