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
//! * [`EventQueue`] — the plain binary-heap reference the engine's
//!   differential tests hold it against,
//! * [`BufPool`] — generation-tagged slab/freelist pools behind the wire
//!   frame and packet-buffer hot paths (steady-state transfers recycle
//!   buffers instead of allocating per frame),
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
//! * [`span`] — per-packet causal tracing: bounded span timelines with
//!   Chrome-trace/Perfetto export and critical-path attribution,
//! * [`obs`] — the workspace-wide metrics registry (busy fractions, queue
//!   high-water marks, netstat-style counters) behind every run report;
//!   with the span rings it is the one event log (a counter says how
//!   often, a span says when and for which flow),
//! * [`chaos`] — deterministic, replayable fault schedules with a
//!   delta-debugging shrinker for minimal failure repros,
//! * [`timeline`] — windowed time-series telemetry: bounded rings of
//!   per-window counter deltas and gauge levels with exact conservation,
//!   exported as Perfetto counter tracks, JSON/CSV, and sparklines.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod chaos;
pub mod detmap;
pub mod idtable;
pub mod obs;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod wheel;

pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
pub use detmap::DetMap;
pub use idtable::IdTable;
pub use obs::{BusyTracker, Metric, MetricsRegistry};
pub use pool::{pooled_copy, BufPool, PoolStats, PooledBuf, Ticket};
pub use queue::EventQueue;
pub use rng::{check_probability, FaultConfigError, Pcg32};
pub use span::{FlowId, Span, SpanSink, Stage};
pub use time::{Dur, Time};
pub use timeline::{SeriesId, SeriesKind, Timeline};
pub use wheel::{EngineKind, EventEngine};
