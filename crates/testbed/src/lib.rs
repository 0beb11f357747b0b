//! Whole-system testbed: simulated hosts wired through a HIPPI fabric (and
//! optionally an Ethernet segment), applications driving the socket API,
//! and the experiment harness that reproduces the paper's measurements.
//!
//! * `world` — the discrete-event `World`: hosts (kernel + CPU + user
//!   memory + apps), links, and the event dispatch loop that interprets
//!   kernel [`outboard_stack::Effect`]s,
//! * `run` — [`World::run_apps`], the one loop that runs a world until its
//!   apps finish or give up, and the [`RunOutcome`] (or [`RunError`]) it
//!   ends in,
//! * [`apps`] — `ttcp`-style sender/receiver processes and in-kernel
//!   applications (file server) with the share-semantics interface,
//! * [`experiment`] — the §7.1 methodology: run a transfer, account CPU per
//!   the ttcp/util formula, report throughput / utilization / efficiency;
//!   plus the raw-HIPPI bound and the §7.3 analytic model.

#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod analysis;
pub mod apps;
pub mod chaos;
pub mod experiment;
pub mod oracle;
mod run;
mod timers;
mod world;

pub use chaos::{run_chaos, shrink_failure};
pub use experiment::{raw_hippi_throughput, run_ttcp, ExperimentConfig, Metrics};
pub use run::{RunError, RunOutcome};
pub use world::{App, Step, SysCtx, World};
