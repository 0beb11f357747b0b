//! System-level property tests: for arbitrary (but bounded) combinations
//! of write size, alignment, socket buffer size, stack mode, loss rate and
//! seed, a transfer must complete with byte-exact delivery. These catch
//! interaction bugs no single-scenario test would.
//!
//! `cargo test --release --test prop_system -- --ignored` runs the same
//! property over 4 096 cases.

use outboard::host::MachineConfig;
use outboard::stack::{StackConfig, StackMode};
use outboard::testbed::{run_ttcp, ExperimentConfig};
use proptest::prelude::*;

/// One transfer. The socket buffer is the presets' 512 KB or any size
/// from 4 KB to 256 KB, most of them no multiple of a word or of the MSS.
fn any_transfer() -> impl Strategy<Value = ExperimentConfig> {
    let buffer = (0u8..4, 4096usize..256 * 1024).prop_map(|(pick, b)| match pick {
        0 => 512 * 1024,
        _ => b,
    });
    let sizes = (1usize..129, 0u64..4, buffer);
    let stack = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    let faults = (0u32..3, 1u64..1_000_000);
    (sizes, stack, faults).prop_map(|(sizes, stack_flags, (drop_pct, seed))| {
        let (write_kb, misalign, sock_buf) = sizes;
        let (single_copy, force, lazy, align_split) = stack_flags;
        let mut stack = if single_copy {
            StackConfig::single_copy()
        } else {
            StackConfig::unmodified()
        };
        stack.force_single_copy = force && stack.mode == StackMode::SingleCopy;
        stack.lazy_vm = lazy;
        stack.align_split = align_split;
        stack.sock_buf = sock_buf;
        let mut cfg =
            ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, write_kb * 1024);
        cfg.total_bytes = 768 * 1024;
        cfg.sender_misalign = misalign;
        cfg.drop_p = drop_pct as f64 / 100.0;
        cfg.seed = seed;
        cfg
    })
}

fn completes_and_verifies(cfg: &ExperimentConfig) -> Result<(), String> {
    let m = run_ttcp(cfg);
    prop_assert!(m.completed, "stalled: {m:?}");
    prop_assert_eq!(m.bytes, 768 * 1024);
    prop_assert_eq!(m.verify_errors, 0, "corruption: {:?}", m);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, // each case is a whole-system run
        .. ProptestConfig::default()
    })]

    #[test]
    fn any_transfer_completes_and_verifies(cfg in any_transfer()) {
        completes_and_verifies(&cfg)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4096,
        .. ProptestConfig::default()
    })]

    #[test]
    #[ignore = "release only: cargo test --release --test prop_system -- --ignored"]
    fn any_transfer_completes_and_verifies_at_length(cfg in any_transfer()) {
        completes_and_verifies(&cfg)?;
    }
}
