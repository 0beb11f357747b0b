//! `outboard-stack`: a single-copy BSD protocol stack with outboard
//! buffering and checksumming — the paper's primary contribution.
//!
//! The stack is *sans-IO*: a [`Kernel`] per simulated host owns the sockets,
//! TCP/UDP/IP state, interfaces and their devices (the CAB model, a
//! conventional Ethernet, a loopback). Every entry point — syscalls, frame
//! arrivals, DMA completions, timers — mutates protocol state immediately
//! and returns a list of [`Effect`]s (CPU time to charge, device events to
//! schedule, frames to put on links, processes to wake, timers to arm) that
//! the harness in `outboard-testbed` interprets against the simulation
//! clock. This keeps the whole stack unit-testable without a harness.
//!
//! Layer map (paper section in parentheses):
//!
//! * `socket` + `sockbuf` — sockets with copy semantics, the
//!   UIO-vs-regular fast-path decision (§4.4.3), write/read blocking on
//!   outstanding DMA via UIO counters (§4.4.2), word-alignment fallback
//!   (§4.5);
//! * `tcp` — the transport: window scaling, MSS, delayed ACKs, RTO and
//!   fast retransmit, with the transmit queue *search routine* that
//!   assembles a packet's worth of data from mixed regular/`M_UIO`/`M_WCAB`
//!   mbufs (§4.2), and retransmission *from outboard memory* (§4.3);
//! * `udp` — datagrams, with fragmented datagrams falling back to the
//!   traditional path (fragment checksums cannot be inserted by the CAB);
//! * `ip` — output/input, header checksum, fragmentation/reassembly,
//!   ICMP echo as a resident in-kernel application;
//! * [`driver`] — the CAB driver implementing copy-in/copy-out (§3),
//!   checksum plans → SDMA requests, UIO→WCAB conversion on DMA completion,
//!   header-only retransmit; plus the conventional Ethernet driver with the
//!   thin `M_UIO`→regular conversion layer at its entry (§5), and loopback;
//! * [`kernel`] — the façade tying it together, including the in-kernel
//!   application interface with share semantics and the ordered
//!   `M_WCAB`→regular conversion queue (§5).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![deny(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::float_arithmetic))]
#![cfg_attr(not(test), deny(clippy::too_many_lines))]

mod claims;
pub mod driver;
mod ip;
pub mod kernel;
mod route;
mod sockbuf;
mod socket;
mod tcp;
mod types;
mod udp;

pub use claims::{ClaimHolder, UserViolation, UserViolationKind};
pub use kernel::{Kernel, CAB_PROBE_INTERVAL, TIME_WAIT};
pub use tcp::{MAX_BACKOFF, RTO_INITIAL, RTO_MAX};
pub use types::{
    Effect, IfaceId, Proto, ReadResult, SockAddr, SockId, StackConfig, StackError, StackMode,
    TimerKind, WriteResult, MIN_SOCK_BUF,
};
