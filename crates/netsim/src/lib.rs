//! Network model: links with serialization/latency and fault injection.
//!
//! The testbed connects two hosts back-to-back through a HIPPI fabric (the
//! CAB's MDMA engines pace the media, so the HIPPI link is modelled as pure
//! propagation latency) and optionally through a conventional 10 Mbit/s
//! Ethernet (whose link does its own serialization). Each link crosses
//! one fault point per frame (`outboard_sim::fault`), where a plan's entries
//! drop, corrupt, delay or duplicate it — corrupting a frame is how we
//! prove the outboard receive checksum actually rejects bad data end to
//! end.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_macros, reason = "tests use vec!"))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]

mod capture;
mod link;

pub use capture::{Capture, Framing};
pub use link::{Link, FAULT_KEYS};
