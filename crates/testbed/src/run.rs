//! The one loop that runs a world until its apps finish, and how it ends.

use crate::world::World;
use outboard_sim::{Dur, Time};
use std::fmt;

/// Virtual-time progress budget after all faults heal. Must exceed TCP's
/// maximum retransmit backoff (64 s): a partition healed just after a fully
/// backed-off rexmt timer re-arms legitimately stays silent that long.
/// Loss that never heals can stay silent for two backoffs (DESIGN.md §11).
pub(crate) const DEFAULT_LIVENESS_BUDGET: Dur = Dur::secs(70);

/// Watchdog granularity of the run loop.
const CHUNK: Dur = Dur::millis(10);

/// How a run of [`World::run_apps`] ended. `Display` renders the three
/// unfinished endings as the chaos oracle's `liveness:` violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every app finished.
    Completed,
    /// The deadline passed with an app unfinished.
    Deadline {
        /// The caller's deadline.
        deadline: Time,
        /// End of the last chunk that moved an application byte (the run's
        /// start when none did).
        last_progress: Time,
    },
    /// The event queue drained with an app unfinished (a deadlock).
    Drained {
        /// The last event's time.
        at: Time,
    },
    /// No application byte moved for the liveness budget after every
    /// fault healed (a livelock).
    Stalled {
        /// Start of the silence: the later of the last progress and the
        /// chaos schedule's quiesce time.
        since: Time,
    },
}

impl RunOutcome {
    /// The one-word name: `completed`, `deadline`, `drained` or `stalled`.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Deadline { .. } => "deadline",
            RunOutcome::Drained { .. } => "drained",
            RunOutcome::Stalled { .. } => "stalled",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::Deadline {
                deadline,
                last_progress,
            } => write!(
                f,
                "liveness: transfer unfinished at deadline {deadline} (started stalling at {last_progress})"
            ),
            RunOutcome::Drained { at } => write!(
                f,
                "liveness: event queue drained at {at} with the transfer unfinished (deadlock)"
            ),
            RunOutcome::Stalled { since } => write!(
                f,
                "liveness: no progress since {since} with all faults healed (budget {DEFAULT_LIVENESS_BUDGET})"
            ),
        }
    }
}

impl World {
    /// Run until every app has finished, checked between events so the
    /// run stops at the finishing event. Virtual time is swept in
    /// [`CHUNK`]s; after each, a watchdog ends the run as stalled once no
    /// application byte has moved for [`DEFAULT_LIVENESS_BUDGET`] and
    /// every chaos window has closed (at once without a schedule). The
    /// deadline is the caller's: `run_ttcp` and `run_chaos` each keep
    /// their own.
    pub fn run_apps(&mut self, deadline: Time) -> RunOutcome {
        let quiesce = self.chaos_quiesce_at().unwrap_or(Time::ZERO);
        // The virtual time swept so far; `now()` lags it when a chunk
        // holds no event.
        let mut target = self.now();
        let mut moved = self.app_bytes_moved();
        let mut last_progress = target;
        loop {
            if self.every_app_finished() {
                return RunOutcome::Completed;
            }
            if self.pending_events() == 0 {
                return RunOutcome::Drained { at: self.now() };
            }
            if target >= deadline {
                return RunOutcome::Deadline {
                    deadline,
                    last_progress,
                };
            }
            target = (target + CHUNK).min(deadline);
            self.run_while(target, |w| !w.every_app_finished());
            let m = self.app_bytes_moved();
            if m != moved {
                moved = m;
                last_progress = target;
            } else if target >= quiesce {
                let since = last_progress.max(quiesce);
                if target.since(since) > DEFAULT_LIVENESS_BUDGET {
                    return RunOutcome::Stalled { since };
                }
            }
        }
    }

    /// Every app on every host has finished.
    pub fn every_app_finished(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.apps.iter().flatten().all(|a| a.finished()))
    }

    fn app_bytes_moved(&self) -> u64 {
        self.hosts
            .iter()
            .flat_map(|h| h.apps.iter().flatten())
            .map(|a| a.bytes_moved())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::TtcpReceiver;
    use crate::chaos::run_chaos;
    use crate::experiment::{run_ttcp, ExperimentConfig};
    use outboard_host::{MachineConfig, TaskId};
    use outboard_sim::chaos::ChaosSchedule;
    use outboard_stack::StackConfig;

    fn mb(drop_p: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            MachineConfig::alpha_3000_400(),
            StackConfig::single_copy(),
            64 * 1024,
        );
        cfg.total_bytes = 1024 * 1024;
        cfg.drop_p = drop_p;
        cfg
    }

    fn receiver_alone() -> RunOutcome {
        let machine = MachineConfig::alpha_3000_400();
        let mut w = World::new();
        let h = w.add_host("receiver", machine, StackConfig::single_copy());
        let rx = TtcpReceiver::new(TaskId(2), 5001, 64 * 1024);
        w.add_app(h, Box::new(rx), true);
        w.run_apps(Time::ZERO + Dur::secs(30))
    }

    /// One row per ending, with the `liveness:` line the chaos oracle
    /// reports for it. A link that drops every frame never connects, so no
    /// application byte moves: `run_ttcp`'s 30 s deadline for 1 MB comes
    /// before the 70 s budget, while `run_chaos`'s deadline leaves room
    /// for the budget to run out.
    #[test]
    fn every_ending_has_its_outcome() {
        let secs = |s| Time::ZERO + Dur::secs(s);
        let rows: [(&str, RunOutcome, RunOutcome, &str); 4] = [
            (
                "fault-free 1 MB",
                run_ttcp(&mb(0.0)).outcome,
                RunOutcome::Completed,
                "completed",
            ),
            (
                "run_ttcp, every frame dropped",
                run_ttcp(&mb(1.0)).outcome,
                RunOutcome::Deadline {
                    deadline: secs(30),
                    last_progress: Time::ZERO,
                },
                "liveness: transfer unfinished at deadline 30.000000s \
                 (started stalling at 0.000000s)",
            ),
            (
                "a receiver with no sender",
                receiver_alone(),
                RunOutcome::Drained { at: Time::ZERO },
                "liveness: event queue drained at 0.000000s with the transfer \
                 unfinished (deadlock)",
            ),
            (
                "run_chaos, every frame dropped",
                run_chaos(&mb(1.0), &ChaosSchedule::default())
                    .outcome
                    .expect("a valid config"),
                RunOutcome::Stalled { since: Time::ZERO },
                "liveness: no progress since 0.000000s with all faults healed \
                 (budget 70.000s)",
            ),
        ];
        for (name, got, want, line) in rows {
            assert_eq!(got, want, "{name}");
            assert_eq!(got.to_string(), line, "{name}");
        }
    }
}
