//! The repo benchmark: seven workloads over the outboard simulator, timed in
//! host time and checked in sim time, with an outside-in per-layer ledger.
//! See README.md for the metric glossary and how to compare two commits.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod json;
pub mod probes;
pub mod quiet;
pub mod run;
pub mod summary;
pub mod trace;
pub mod workloads;
