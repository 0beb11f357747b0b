//! Chaos tooling over fault plans: random plans of the faults the stack is
//! supposed to survive, and a delta-debugging shrinker that cuts any
//! failing plan — a generated one, or the log of a failing soak run — down
//! to a locally minimal repro.

use crate::fault::{Action, Fault, FaultPlan, Point, Target, Trigger};
use crate::rng::{Chance, Pcg32};
use crate::time::{Dur, Time};

impl FaultPlan {
    /// A random plan of `n` `At` entries across `hosts` hosts from `seed`.
    /// Stealth corruption (the planted bug) is never drawn: every generated
    /// plan describes faults the stack is supposed to survive, so a clean
    /// implementation passes the oracle on every seed. Times land in
    /// `[5ms, 400ms)`; windows stay well below the retransmit backoff
    /// ceiling.
    pub fn generate(seed: u64, n: usize, hosts: usize) -> FaultPlan {
        assert!(hosts > 0, "a fault plan needs at least one host");
        let mut rng = Pcg32::new(seed ^ 0xc4a0_5c4a_05c4_a05c);
        let us = |rng: &mut Pcg32, lo: u64, span: u32| Dur::micros(lo + rng.below(span) as u64);
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let at = Time::ZERO + us(&mut rng, 5_000, 395_000);
            let host = rng.below(hosts as u32) as usize;
            let on = Target::Host(host);
            let (target, action) = match rng.below(7) {
                0 => (on, Action::LinkDown(us(&mut rng, 20_000, 180_000))),
                1 => (
                    Target::All,
                    Action::Partition(us(&mut rng, 20_000, 130_000)),
                ),
                2 => {
                    let extra = us(&mut rng, 100, 900);
                    let dur = us(&mut rng, 5_000, 45_000);
                    (on, Action::DelaySpike { extra, dur })
                }
                3 => {
                    let mdma = rng.chance(Chance::new(0.5));
                    let point = if mdma { Point::Mdma } else { Point::Sdma };
                    (Target::Point(host, point), Action::Wedge)
                }
                4 => (on, Action::BoardCrash),
                5 => {
                    let dur = us(&mut rng, 20_000, 280_000);
                    (
                        on,
                        Action::NetmemSqueeze {
                            permille: 1000,
                            dur,
                        },
                    )
                }
                _ => (on, Action::HostPause(us(&mut rng, 5_000, 45_000))),
            };
            faults.push(Fault::at(at, target, action));
        }
        faults.sort_by_key(Fault::time);
        FaultPlan { seed, faults }
    }

    /// The time by which every `At` entry has fired and every window has
    /// closed (zero without `At` entries).
    pub fn quiesce_at(&self) -> Time {
        let at = self
            .faults
            .iter()
            .filter(|f| matches!(f.trigger, Trigger::At(_)));
        let ends = at.map(|f| f.time() + f.action.window().unwrap_or(Dur::ZERO));
        ends.max().unwrap_or(Time::ZERO)
    }
}

/// Outcome of a [`shrink`] run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The locally minimal failing plan.
    pub plan: FaultPlan,
    /// Number of candidate plans the predicate was run against.
    pub runs: usize,
}

/// Delta-debug `failing` against `still_fails` until locally minimal.
///
/// `still_fails` must be deterministic (the testbed's worlds are seeded,
/// so it is). Shrinking removes chunks of entries of halving size (the
/// classic ddmin shape), then single entries until a whole pass removes
/// none (a pass may unlock earlier removals), and then halves each
/// surviving window, down to 1 ms, while the plan still fails.
pub fn shrink(
    failing: &FaultPlan,
    mut still_fails: impl FnMut(&FaultPlan) -> bool,
) -> ShrinkResult {
    let mut runs = 0usize;
    let mut cur = failing.clone();
    let mut chunk = cur.faults.len().div_ceil(2);
    let mut single_passes = 0;
    while chunk >= 1 {
        let mut removed = false;
        let mut i = 0;
        while i < cur.faults.len() && cur.faults.len() > 1 {
            let hi = (i + chunk).min(cur.faults.len());
            let mut candidate = cur.clone();
            candidate.faults.drain(i..hi);
            if candidate.faults.is_empty() {
                i = hi;
                continue;
            }
            runs += 1;
            if still_fails(&candidate) {
                (cur, removed) = (candidate, true); // retry the same index
            } else {
                i = hi;
            }
        }
        if chunk > 1 {
            chunk = chunk.div_ceil(2);
        } else if removed || single_passes == 0 {
            single_passes += 1;
        } else {
            break;
        }
    }
    for i in 0..cur.faults.len() {
        while let Some(d) = cur.faults[i].action.window() {
            let half = Dur::nanos(d.as_nanos() / 2);
            if half < Dur::millis(1) {
                break;
            }
            let mut candidate = cur.clone();
            candidate.faults[i].action = candidate.faults[i].action.with_window(half);
            runs += 1;
            if !still_fails(&candidate) {
                break;
            }
            cur = candidate;
        }
    }
    ShrinkResult { plan: cur, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::sample_plan;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let a = FaultPlan::generate(7, 12, 2);
        assert_eq!(a, FaultPlan::generate(7, 12, 2));
        assert_ne!(a, FaultPlan::generate(8, 12, 2), "seeds should differ");
        assert_eq!(a.faults.len(), 12);
        assert!(a.faults.iter().all(|f| matches!(f.trigger, Trigger::At(_))));
        assert!(a.faults.windows(2).all(|w| w[0].time() <= w[1].time()));
    }

    #[test]
    fn generate_never_emits_stealth_corrupt() {
        for seed in 0..64 {
            let p = FaultPlan::generate(seed, 20, 2);
            assert!(
                p.faults.iter().all(|f| f.action != Action::StealthCorrupt),
                "seed {seed} planted the bug"
            );
        }
    }

    #[test]
    fn quiesce_covers_durable_windows() {
        // Squeeze at 50 ms for 80 ms ends at 130 ms, the latest window end;
        // the `Crossing` and `Chance` entries have no time.
        assert_eq!(sample_plan().quiesce_at(), Time::ZERO + Dur::millis(130));
        assert_eq!(FaultPlan::default().quiesce_at(), Time::ZERO);
    }

    fn has(p: &FaultPlan, action: &str) -> bool {
        p.faults.iter().any(|f| f.action.name() == action)
    }

    #[test]
    fn shrink_minimizes_to_culprit_events() {
        // Fails iff both the board crash and the partition survive (a
        // two-entry interaction bug).
        let full = sample_plan();
        let fails = |p: &FaultPlan| has(p, "board_crash") && has(p, "partition");
        assert!(fails(&full));
        let out = shrink(&full, fails);
        assert_eq!(out.plan.faults.len(), 2);
        assert!(fails(&out.plan));
        // Window narrowing halves the partition down to the 1 ms floor.
        let part = out.plan.faults.iter().find_map(|f| match f.action {
            Action::Partition(d) => Some(d),
            _ => None,
        });
        let part = part.expect("partition survives");
        assert!(part < Dur::millis(2), "window not narrowed: {part:?}");
    }

    #[test]
    fn shrink_keeps_single_event_failures() {
        let out = shrink(&sample_plan(), |p| has(p, "stealth_corrupt"));
        assert_eq!(out.plan.faults.len(), 1);
        assert_eq!(out.plan.faults[0].action, Action::StealthCorrupt);
    }
}
