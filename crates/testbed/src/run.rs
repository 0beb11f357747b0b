//! The one loop that runs a world until its apps finish, and how it ends.

use crate::world::World;
use outboard_sim::Time;
use std::fmt;

/// How a run of [`World::run_apps`] ended. `Display` renders the two
/// unfinished endings as the chaos oracle's `liveness:` violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every app finished.
    Completed,
    /// The deadline passed with an app unfinished.
    Deadline {
        /// The caller's deadline.
        deadline: Time,
        /// The latest `App::last_progress` of any app (the run's start
        /// when none has one).
        last_progress: Time,
    },
    /// The event queue drained with an app unfinished (a deadlock).
    Drained {
        /// The last event's time.
        at: Time,
    },
}

impl RunOutcome {
    /// The one-word name: `completed`, `deadline` or `drained`.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Deadline { .. } => "deadline",
            RunOutcome::Drained { .. } => "drained",
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
        }
    }
}

impl World {
    /// Run until every app has finished, checked between events so the
    /// run stops at the finishing event, or until `deadline`. Silence is
    /// not judged here: a connection with unacknowledged data always has a
    /// retransmit timer that sends when it fires (checked in debug builds
    /// by the stack, DESIGN.md §11), so an unfinished run is slow, and the
    /// deadline is the caller's to choose.
    pub fn run_apps(&mut self, deadline: Time) -> RunOutcome {
        let start = self.now();
        if self.run_while(deadline, |w| !w.every_app_finished()) {
            return RunOutcome::Completed;
        }
        if self.pending_events() == 0 {
            return RunOutcome::Drained { at: self.now() };
        }
        let last_progress = self
            .hosts
            .iter()
            .flat_map(|h| h.apps.iter().flatten())
            .filter_map(|a| a.last_progress())
            .max()
            .unwrap_or(start);
        RunOutcome::Deadline {
            deadline,
            last_progress,
        }
    }

    /// Every app on every host has finished.
    pub fn every_app_finished(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.apps.iter().flatten().all(|a| a.finished()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::TtcpReceiver;
    use crate::experiment::{run_ttcp, ExperimentConfig};
    use outboard_host::{MachineConfig, TaskId};
    use outboard_sim::Dur;
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
    /// application byte moves before `run_ttcp`'s 30 s deadline for 1 MB.
    #[test]
    fn every_ending_has_its_outcome() {
        let rows: [(&str, RunOutcome, RunOutcome, &str); 3] = [
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
                    deadline: Time::ZERO + Dur::secs(30),
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
        ];
        for (name, got, want, line) in rows {
            assert_eq!(got, want, "{name}");
            assert_eq!(got.to_string(), line, "{name}");
        }
    }
}
