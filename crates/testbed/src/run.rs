//! The one loop that runs a world until its apps finish, and how it ends.

use crate::world::World;
use outboard_sim::{Dur, Time};
use outboard_stack::StackError;
use std::fmt;

/// Sim time a [`World::run_apps`] call may take: a backstop, not a
/// deadline. Every connection ends by the protocol well within it: with
/// data unacknowledged, a connection progresses or is dropped within
/// `MAX_BACKOFF + 1` timeout intervals of silence (at most 13 × 64 s =
/// 832 s), and an app whose connection drops gives up.
const RUNAWAY: Dur = Dur::secs(3600);

/// How a run of [`World::run_apps`] ended. `Display` renders the two
/// unfinished endings as the chaos oracle's `liveness:` violations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every app finished.
    Completed,
    /// An app gave up on a syscall error, and the run stopped there.
    GaveUp {
        /// The host the app runs on.
        host: usize,
        /// When the app gave up.
        at: Time,
        /// The error it gave up on.
        error: StackError,
    },
    /// The event queue drained with an app unfinished (a deadlock).
    Drained {
        /// The last event's time.
        at: Time,
    },
}

impl RunOutcome {
    /// The one-word name: `completed`, `gave_up` or `drained`.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::GaveUp { .. } => "gave_up",
            RunOutcome::Drained { .. } => "drained",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::GaveUp { host, at, error } => write!(
                f,
                "liveness: host {host}'s transfer gave up at {at} on {error}"
            ),
            RunOutcome::Drained { at } => write!(
                f,
                "liveness: event queue drained at {at} with the transfer unfinished (deadlock)"
            ),
        }
    }
}

/// A run still going an hour of sim time after it started, with an app
/// unfinished and events queued: a model fault, since the protocol ends
/// every run well before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The run was still going at the bound.
    Runaway {
        /// The bound's time.
        at: Time,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Runaway { at } => write!(
                f,
                "liveness: transfer still running at the runaway bound {at}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl World {
    /// Run until every app has finished or the first one gives up, checked
    /// between events so the run stops at the event that decides it, or
    /// until the event queue drains. No caller picks a deadline: a
    /// connection with unacknowledged data always has a retransmit timer
    /// that sends when it fires (checked in debug builds by the stack,
    /// DESIGN.md §11), and gets dropped after `MAX_BACKOFF` + 1 silent
    /// timeouts, so a run ends by the protocol; a one-hour runaway bound
    /// only backs that up.
    pub fn run_apps(&mut self) -> Result<RunOutcome, RunError> {
        let bound = self.now() + RUNAWAY;
        if !self.run_while(bound, |w| w.gave_up.is_none() && !w.every_app_finished()) {
            if self.pending_events() == 0 {
                return Ok(RunOutcome::Drained { at: self.now() });
            }
            return Err(RunError::Runaway { at: bound });
        }
        Ok(match self.gave_up {
            Some((host, at, error)) => RunOutcome::GaveUp { host, at, error },
            None => RunOutcome::Completed,
        })
    }

    /// Every app on every host has finished: a count the app quanta keep,
    /// so the check between events costs the same for 2 apps or 512.
    pub fn every_app_finished(&self) -> bool {
        debug_assert_eq!(
            self.unfinished_apps,
            self.hosts
                .iter()
                .flat_map(|h| h.apps.iter().flatten())
                .filter(|a| !a.finished())
                .count(),
            "unfinished-app count"
        );
        self.unfinished_apps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::TtcpReceiver;
    use crate::experiment::{run_ttcp, ExperimentConfig};
    use outboard_host::{MachineConfig, PacketCosts, TaskId};
    use outboard_stack::{StackConfig, MAX_BACKOFF, RTO_INITIAL, RTO_MAX};

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

    fn receiver_alone() -> Result<RunOutcome, RunError> {
        let machine = MachineConfig::alpha_3000_400();
        let mut w = World::new();
        let h = w.add_host("receiver", machine, StackConfig::single_copy());
        let rx = TtcpReceiver::new(TaskId(2), 5001, 64 * 1024);
        w.add_app(h, Box::new(rx), true);
        w.run_apps()
    }

    /// The backed-off retransmit ladder: `MAX_BACKOFF` + 1 timeouts from
    /// `RTO_INITIAL`, each twice the last up to `RTO_MAX`.
    fn give_up_after() -> Dur {
        let mut rto = RTO_INITIAL;
        let mut sum = Dur::ZERO;
        for _ in 0..=MAX_BACKOFF {
            sum += rto;
            rto = (rto * 2).min(RTO_MAX);
        }
        sum
    }

    /// One row per ending, with the `liveness:` line the chaos oracle
    /// reports for it. A link that drops every frame never connects: the
    /// SYN, sent at 0, follows the retransmit ladder until its 13th
    /// timeout drops the connection, and the sender, woken by the drop's
    /// interrupt, gives up on its next call.
    #[test]
    fn every_ending_has_its_outcome() {
        assert_eq!(give_up_after(), Dur::secs(511));
        let costs = PacketCosts::compile(&MachineConfig::alpha_3000_400());
        let woken = costs.interrupt.unwrap_or_default() + costs.wakeup.unwrap_or_default();
        let gave_up = Time::ZERO + give_up_after() + woken;
        let rows: [(&str, Result<RunOutcome, RunError>, RunOutcome, &str); 3] = [
            (
                "fault-free 1 MB",
                run_ttcp(&mb(0.0)).outcome,
                RunOutcome::Completed,
                "completed",
            ),
            (
                "run_ttcp, every frame dropped",
                run_ttcp(&mb(1.0)).outcome,
                RunOutcome::GaveUp {
                    host: 0,
                    at: gave_up,
                    error: StackError::TimedOut,
                },
                "liveness: host 0's transfer gave up at 511.000060s on TimedOut",
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
            assert_eq!(got, Ok(want), "{name}");
            assert_eq!(want.to_string(), line, "{name}");
        }
    }

    /// A peer's RST wakes the reader blocked on the connection, whose next
    /// `read` fails with `ECONNRESET`, as in Net/2. A 4 MB transfer loses
    /// its ACK path after 256 KB: the sender gives up with `ETIMEDOUT`
    /// after its 13th timeout, and the one RST that drop sends reaches the
    /// receiver, blocked in `read` with everything read, which gives up
    /// with `ECONNRESET`.
    #[test]
    fn a_peer_reset_ends_the_blocked_reader_with_econnreset() {
        use crate::experiment::build_ttcp_world;
        use outboard_sim::fault::{Action, Point, Target};
        use outboard_sim::{Fault, FaultPlan};
        let mut cfg = mb(0.0);
        cfg.total_bytes = 4 * 1024 * 1024;
        let mut w = build_ttcp_world(&cfg);
        let read = |w: &World| {
            let rx = w.hosts[1].apps[0].as_ref().expect("receiver app");
            let rx = rx.as_any().downcast_ref::<TtcpReceiver>();
            rx.expect("receiver").bytes_read
        };
        let cut = w.run_while(Time::ZERO + Dur::secs(10), |w| read(w) < 256 * 1024);
        assert!(cut, "256 KB arrive");
        let ack_path = Target::Point(1, Point::Frame);
        let drop = Fault::chance("drop_p", 1.0, ack_path, Action::Drop).expect("a probability");
        w.install_faults(&FaultPlan {
            seed: cfg.seed,
            faults: vec![drop],
        });
        // Each side gives up once. The receiver's comes first: the RST
        // leaves with the drop, while the sender's writer wakes only after
        // the drop has unpinned the write's queued pages.
        let mut gave_up = Vec::new();
        for _ in 0..2 {
            match w.run_apps() {
                Ok(RunOutcome::GaveUp { host, error, .. }) => gave_up.push((host, error)),
                other => panic!("{other:?}"),
            }
            // Run on past the first give-up.
            w.gave_up = None;
        }
        let both = [(1, StackError::ConnReset), (0, StackError::TimedOut)];
        assert_eq!(gave_up, both);
        assert_eq!(w.hosts[0].kernel.stats.rst_sent, 1);
    }
}
