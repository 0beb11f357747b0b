//! Ablations: §4.4.3 size-based path choice and §4.5 alignment fallback.

use outboard_host::MachineConfig;
use outboard_stack::StackConfig;
use outboard_testbed::{run_ttcp, ExperimentConfig};

fn run(
    machine: &MachineConfig,
    stack: StackConfig,
    ws: usize,
    misalign: u64,
) -> outboard_testbed::Metrics {
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, ws);
    cfg.total_bytes = (ws * 64).clamp(2 * 1024 * 1024, 8 * 1024 * 1024);
    cfg.verify = false;
    cfg.sender_misalign = misalign;
    run_ttcp(&cfg)
}

/// The single-copy stack with the §4.4.3 size check overridden.
fn forced_single_copy() -> StackConfig {
    let mut forced = StackConfig::single_copy();
    forced.force_single_copy = true;
    forced
}

fn main() {
    let m = MachineConfig::alpha_3000_400();
    println!("== ablation 1 (§4.4.3): forced single-copy vs adaptive path choice ==\n");
    println!(
        "{:>8} | {:>10} {:>10} {:>10}",
        "size_KB", "forced_eff", "adapt_eff", "unmod_eff"
    );
    for k in [1usize, 4, 8, 16, 64] {
        let f = run(&m, forced_single_copy(), k * 1024, 0);
        let a = run(&m, StackConfig::single_copy(), k * 1024, 0); // adaptive, 16 KB threshold
        let u = run(&m, StackConfig::unmodified(), k * 1024, 0);
        println!(
            "{:>8} | {:>10.0} {:>10.0} {:>10.0}",
            k, f.sender_efficiency_mbps, a.sender_efficiency_mbps, u.sender_efficiency_mbps
        );
    }
    println!("\nadaptive == unmodified below the 16 KB threshold, == forced above it.");

    println!("\n== ablation 2 (§4.5): word-aligned vs misaligned user buffers ==\n");
    println!(
        "{:>10} {:>11} | {:>9} {:>8} {:>9}",
        "misalign_B", "align_split", "thr_Mbps", "util", "eff_Mbps"
    );
    for (mis, split) in [(0u64, false), (1, false), (2, false), (2, true)] {
        let mut forced = forced_single_copy();
        forced.align_split = split;
        let r = run(&m, forced, 256 * 1024, mis);
        println!(
            "{:>10} {:>11} | {:>9.1} {:>8.2} {:>9.0}",
            mis, split, r.throughput_mbps, r.sender_utilization, r.sender_efficiency_mbps
        );
    }
    println!("\nmisaligned buffers fall back to the traditional copy path; the");
    println!("align-split extension (the paper's unimplemented idea) recovers");
    println!("most of the single-copy win by sending one short copied packet.");

    println!("\n== ablation 3 (§4.4.1): lazy unpinning with buffer reuse ==\n");
    println!(
        "{:>6} | {:>9} {:>8} {:>9}",
        "lazy", "thr_Mbps", "util", "eff_Mbps"
    );
    for lazy in [false, true] {
        let mut stack = forced_single_copy();
        stack.lazy_vm = lazy;
        let r = run(&m, stack, 64 * 1024, 0);
        println!(
            "{:>6} | {:>9.1} {:>8.2} {:>9.0}",
            lazy, r.throughput_mbps, r.sender_utilization, r.sender_efficiency_mbps
        );
    }
    println!("\nttcp reuses one buffer, so lazy unpinning eliminates most VM cost.");

    println!("\n== ablation 4 (§7.2): TCP window size vs unmodified-stack efficiency ==\n");
    println!(
        "{:>9} | {:>9} {:>8} {:>9}",
        "window_KB", "thr_Mbps", "util", "eff_Mbps"
    );
    for wk in [64usize, 128, 256, 512] {
        let mut stack = StackConfig::unmodified();
        stack.sock_buf = wk * 1024;
        let mut cfg = ExperimentConfig::new(m.clone(), stack, 256 * 1024);
        cfg.total_bytes = 8 * 1024 * 1024;
        cfg.verify = false;
        let r = run_ttcp(&cfg);
        println!(
            "{:>9} | {:>9.1} {:>8.2} {:>9.0}",
            wk, r.throughput_mbps, r.sender_utilization, r.sender_efficiency_mbps
        );
    }
    println!("\npaper: 'reducing the TCP window increases efficiency slightly,");
    println!("even though the throughput is lower' (a cache effect).");
    if outboard_bench::stats_requested() {
        outboard_bench::emit_stats("crossover", &m);
    }
    outboard_bench::emit_trace(&m);
}
