//! The Gigabit Nectar CAB (Communication Acceleration Board) model.
//!
//! §2 of the paper, reproduced as a deterministic device model:
//!
//! * `netmem` — the outboard **network memory**: a page-granular pool in
//!   which every packet starts on a page boundary and all but the last page
//!   are full (the rule that forces fully-formed packets and symbolic
//!   packetization in the host stack),
//! * `engine` — the three concurrent DMA timelines: one **SDMA** engine
//!   (host ↔ network memory, scatter/gather) and two **MDMA** engines
//!   (network memory ↔ media),
//! * `cab` — the register-file-level interface the driver programs:
//!   transmit SDMA with **outboard checksum insertion** (seed + skip-words +
//!   saved body checksum for retransmission), receive processing with
//!   **auto-DMA buffers** and hardware receive checksums, packet
//!   alloc/free commands, and interrupt raising,
//! * `mac` — media access control: FIFO versus **logical channels**
//!   (§2.1), used by the head-of-line-blocking experiment,
//!
//! The CAB is a fault domain too: its SDMA, MDMA, allocation and checksum
//! insertion are injection points of the fault plan (`outboard_sim::fault`),
//! where transient failures, engine wedges, miscomputed checksums and
//! allocation failures exercise the driver's "transient out-of-resources"
//! recovery paths.
//!
//! The model moves real bytes (checksums are computed over actual packet
//! contents) while engine occupancy advances virtual time according to the
//! Turbochannel/microcode throughput limits §7.1 describes.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod cab;
mod config;
mod cost;
mod engine;
mod mac;
mod netmem;
mod ownership;

pub use cab::{Cab, CabError, CabEvent, ChecksumSpec, SdmaDst, SdmaRx, SdmaTx, SgEntry};
pub use config::CabConfig;
pub use mac::{HolSim, MacMode};
pub use netmem::{NetworkMemory, PacketId};
pub use ownership::{DmaEngine, ViolationKind};
