//! # outboard
//!
//! A reproduction of *Kleinpaste, Steenkiste & Zill, "Software Support for
//! Outboard Buffering and Checksumming" (SIGCOMM 1995)* as a deterministic,
//! fully-simulated system: a single-copy BSD protocol stack over a model of
//! the Gigabit Nectar CAB network adaptor.
//!
//! This crate is a façade that re-exports the workspace:
//!
//! * [`sim`] — discrete-event core (time, queue, RNG, the metrics registry,
//!   causal spans and the windowed timeline),
//! * [`wire`] — Internet checksum algebra and protocol headers,
//! * [`mbuf`] — the mbuf framework with `M_UIO` / `M_WCAB` descriptors,
//! * [`cab`] — the CAB adaptor model (network memory, SDMA/MDMA engines,
//!   outboard checksumming, logical channels),
//! * [`host`] — machine cost models (Alpha 3000/400 and 3000/300LX), CPU
//!   accounting, VM pin/map costs (Table 2),
//! * [`netsim`] — links and fault injection,
//! * [`stack`] — the paper's contribution: the single-copy protocol stack,
//! * [`taxonomy`] — the host-interface taxonomy (Table 1),
//! * [`testbed`] — two-host worlds, ttcp apps, and the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use outboard::host::MachineConfig;
//! use outboard::stack::StackConfig;
//! use outboard::testbed::{run_ttcp, ExperimentConfig};
//!
//! let mut cfg = ExperimentConfig::new(
//!     MachineConfig::alpha_3000_400(),
//!     StackConfig::single_copy(),
//!     64 * 1024, // write size
//! );
//! cfg.total_bytes = 1024 * 1024;
//! let metrics = run_ttcp(&cfg);
//! assert!(metrics.completed);
//! assert_eq!(metrics.verify_errors, 0);
//! ```

pub use outboard_cab as cab;
pub use outboard_host as host;
pub use outboard_mbuf as mbuf;
pub use outboard_netsim as netsim;
pub use outboard_sim as sim;
pub use outboard_stack as stack;
pub use outboard_taxonomy as taxonomy;
pub use outboard_testbed as testbed;
pub use outboard_wire as wire;
