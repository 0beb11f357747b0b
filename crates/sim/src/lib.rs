//! Deterministic discrete-event simulation core for the `outboard` workspace.
//!
//! Everything in the reproduction — the CAB adaptor engines, the host CPU,
//! the network links — advances on a single virtual clock driven by a stable
//! event queue. Determinism is a design requirement (the paper's experiments
//! must be exactly reproducible), so this crate provides:
//!
//! * [`Time`] / [`Dur`] — nanosecond-resolution virtual time,
//! * [`EventEngine`] — the scheduler every world runs on: a priority queue
//!   with FIFO tie-breaking, so same-time events run in insertion order on
//!   every platform; one binary heap below 512 pending events, a
//!   hierarchical timing wheel with O(1) schedule/expire above,
//! * [`BufPool`] — slab/freelist pools behind the wire frame and
//!   packet-buffer hot paths (steady-state transfers recycle buffers
//!   instead of allocating per frame); model code owns pooled storage
//!   through [`PooledBuf`], which returns it when dropped or frozen,
//! * [`IdTable`] — directly indexed tables for the ids the simulator issues
//!   in sequence (sockets, packet buffers, DMA tokens): no keyed-map search
//!   per event, ascending-id iteration for free,
//! * [`DetMap`] — keyed lookup for everything else (demux tables, ARP,
//!   pinned pages): a fixed-key hash and no iteration API, so hash order
//!   cannot reach a run,
//! * [`Pcg32`] — a small, seedable PRNG with a stable stream (we deliberately
//!   do not depend on an external RNG crate whose stream could change across
//!   versions),
//! * [`stats`] — the least-squares fit used to regenerate Table 2 and the
//!   bytes-over-time → Mbit/s conversion,
//! * [`span`] — per-packet causal tracing: one bounded span store per
//!   world, which every host kernel and the fabric record into through a
//!   [`SpanSink`] handle under a trace pid of its own, with
//!   Chrome-trace/Perfetto export and critical-path attribution,
//! * [`obs`] — the workspace-wide metrics registry (busy fractions, queue
//!   high-water marks, netstat-style counters) behind every run report;
//!   with the span store it is the one event log (a counter says how
//!   often, a span says when and for which flow),
//! * [`fault`] — the one fault plan: every injected fault is a (trigger,
//!   target, action) entry — a sim time, the k-th crossing of a link's or
//!   CAB's injection point, or a seeded per-crossing chance; every fault
//!   that fires lands in one run log, whose text replays the run,
//! * [`chaos`] — random plans of survivable faults and the
//!   delta-debugging shrinker that cuts any failing plan to a minimal
//!   repro,
//! * [`json`] — the small JSON reader behind the stats, timeline and
//!   trace artifacts' tests,
//! * [`Timeline`] — windowed time-series telemetry: bounded rings of
//!   per-window counter deltas and gauge levels with exact conservation,
//!   exported as Perfetto counter tracks, JSON/CSV, and sparklines.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]

pub mod chaos;
mod detmap;
pub mod fault;
mod idtable;
pub mod json;
pub mod obs;
mod pool;
mod rng;
pub mod span;
pub mod stats;
mod time;
mod timeline;
mod wheel;

pub use detmap::DetMap;
pub use fault::{Fault, FaultPlan};
pub use idtable::IdTable;
pub use obs::{BusyTracker, MetricsRegistry};
pub use pool::{BufPool, PoolStats, PooledBuf, Ticket};
pub use rng::{check_probability, Chance, FaultConfigError, Pcg32};
pub use span::{FlowId, Span, SpanSink, Stage};
pub use time::{Dur, Rate, Time};
pub use timeline::{SeriesKind, Timeline};
pub use wheel::{EngineKind, EventEngine};

#[cfg(test)]
mod queue;
#[cfg(test)]
mod wheel_equivalence;
