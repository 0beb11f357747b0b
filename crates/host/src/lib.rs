//! Host machine model.
//!
//! The paper's evaluation runs on two DEC Alpha workstations; this crate
//! substitutes a calibrated cost model for the real silicon (see DESIGN.md,
//! substitution table):
//!
//! * `config` — [`MachineConfig`] presets for the Alpha 3000/400 and the
//!   Alpha 3000/300LX, carrying every constant §7 of the paper reports
//!   (copy bandwidth 350 Mbit/s, checksum-read bandwidth 630 Mbit/s,
//!   300 µs per-packet overhead, Table 2 VM costs, 8 KB pages),
//! * `memsys` — per-byte cost functions with the cache-locality effect the
//!   paper observes at intermediate write sizes,
//! * `vm` — pinning / unpinning / mapping of user pages with Table 2's
//!   linear cost model, plus the lazy-unpin optimization of §4.4.1,
//! * `cpu` — CPU serialization and the paper's §7.1 accounting methodology
//!   (ttcp/util time buckets, interrupt-charging artifact, unaccounted
//!   background share),
//! * `mem` — simulated user address spaces holding real bytes, and the
//!   [`UserMemory`] trait the CAB's SDMA engine uses to move them,
//! * `cost` — the per-packet costs compiled to [`outboard_sim::Dur`]s.
//!
//! Every cost is compiled from its f64 configuration once, when the kernel
//! is built (per-packet costs, Table 2 rows, locality-curve rates); no event
//! does float arithmetic, which `clippy::float_arithmetic` enforces outside
//! the compilers and the report functions.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod config;
mod cost;
mod cpu;
mod mem;
mod memsys;
mod vm;

pub use config::MachineConfig;
pub use cost::{PacketCost, PacketCosts};
pub use cpu::{Charge, Cpu};
pub use mem::{HostMem, MemFault, UserMemory};
pub use memsys::MemorySystem;
pub use vm::VmSystem;

pub use outboard_mbuf::TaskId;
