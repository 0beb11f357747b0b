//! Network model: links with serialization/latency and fault injection.
//!
//! The testbed connects two hosts back-to-back through a HIPPI fabric (the
//! CAB's MDMA engines pace the media, so the HIPPI link is modelled as pure
//! propagation latency) and optionally through a conventional 10 Mbit/s
//! Ethernet (whose link does its own serialization). The [`FaultInjector`]
//! lets tests and examples exercise loss, corruption, reordering and
//! duplication — corrupting a frame is how we prove the outboard receive
//! checksum actually rejects bad data end to end.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_macros, reason = "tests use vec!"))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod capture;
pub mod fault;
pub mod link;

pub use capture::{Capture, CapturedFrame, Framing};
pub use fault::{Fate, FaultConfigError, FaultInjector, FaultStats};
pub use link::{Deliveries, Delivery, Link};

use bytes::Bytes;

/// A frame in flight between two adaptors.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Fabric address of the sender.
    pub src: u32,
    /// Fabric address of the destination.
    pub dst: u32,
    /// Logical channel tag (HIPPI MAC, §2.1); 0 for Ethernet.
    pub channel: u16,
    /// Frame contents (framing header + IP datagram).
    pub payload: Bytes,
}

impl Frame {
    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True for a zero-length frame.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}
