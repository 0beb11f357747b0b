//! What the serial-vs-threaded sweep tests still have to say now that every
//! sweep is one loop: the same grid run twice renders the same bytes, in one
//! process and across two. File and test names are the old ones because the
//! pipeline's test floor lists them; nothing here is parallel.

use outboard_host::MachineConfig;
use outboard_stack::StackConfig;
use outboard_testbed::{run_ttcp, ExperimentConfig, Metrics};

fn experiment(
    machine: &MachineConfig,
    single_copy: bool,
    write_size: usize,
    seed: u64,
) -> ExperimentConfig {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, write_size);
    cfg.total_bytes = 256 * 1024;
    cfg.verify = false;
    cfg.seed = seed;
    cfg
}

/// Render every externally-visible result of a run: the full Metrics plus
/// the report and JSON the bench binaries print/persist.
fn canon(m: &Metrics) -> String {
    format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        m.completed,
        m.elapsed,
        m.bytes,
        m.throughput_mbps,
        m.sender_utilization,
        m.receiver_utilization,
        m.sender_efficiency_mbps,
        m.receiver_efficiency_mbps,
        m.retransmits,
        m.verify_errors,
        m.writes,
        m.header_only_retransmits,
        m.hw_checksums,
        m.sw_checksums,
        m.events_dispatched,
        m.stats.report(),
        m.stats.to_json()
    )
}

/// fig5/fig6-style grid: two passes over the same (machine, size, stack,
/// seed) points agree on every rendered byte.
#[test]
fn figure_sweeps_match_serial() {
    let machines = [
        MachineConfig::alpha_3000_400(),
        MachineConfig::alpha_3000_300lx(),
    ];
    for machine in &machines {
        for seed in [1u64, 42] {
            let pass = || -> Vec<String> {
                [(1024, false), (1024, true), (8192, false), (8192, true)]
                    .iter()
                    .map(|&(size, sc)| canon(&run_ttcp(&experiment(machine, sc, size, seed))))
                    .collect()
            };
            assert_eq!(
                pass(),
                pass(),
                "second pass diverged from the first ({}, seed {seed})",
                machine.name
            );
        }
    }
}

/// The same for crossover-style variants (misalignment + window size).
#[test]
fn crossover_sweep_matches_serial() {
    let machine = MachineConfig::alpha_3000_400();
    let pass = || -> Vec<String> {
        [(0u64, 64usize), (1, 64), (2, 128), (0, 512)]
            .iter()
            .map(|&(mis, sock_kb)| {
                let mut cfg = experiment(&machine, true, 32 * 1024, 42);
                cfg.sender_misalign = mis;
                cfg.stack.sock_buf = sock_kb * 1024;
                canon(&run_ttcp(&cfg))
            })
            .collect()
    };
    assert_eq!(pass(), pass());
}

/// Two process executions of a sweep print the same bytes (per-process
/// state — hash seeds, addresses — reaches no output). The chaos smoke is
/// the sweep that `stdout_golden.rs` does not already pin.
#[test]
fn parallel_sweep_is_stable_across_executions() {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/chaos-repros");
    let execution = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chaos"))
            .args(["--smoke", "--seeds", "4", "--out", out_dir])
            .output()
            .expect("cannot start chaos");
        assert!(out.status.success(), "chaos smoke exited {}", out.status);
        out.stdout
    };
    let (a, b) = (execution(), execution());
    assert!(!a.is_empty());
    assert_eq!(a, b);
}
