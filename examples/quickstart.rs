//! Quickstart: move a megabyte between two simulated Alphas over the CAB
//! with the single-copy stack, and show what the offload machinery did.
//!
//! Run with: `cargo run --example quickstart`

use outboard::host::MachineConfig;
use outboard::stack::StackConfig;
use outboard::testbed::{run_ttcp, ExperimentConfig};

fn main() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = 1024 * 1024;

    let metrics = run_ttcp(&cfg);
    println!("== single-copy transfer, 1 MB in 64 KB writes ==");
    println!("completed         : {}", metrics.completed);
    println!("bytes delivered   : {}", metrics.bytes);
    println!("payload verified  : {} errors", metrics.verify_errors);
    println!("throughput        : {:7.1} Mbit/s", metrics.throughput_mbps);
    println!(
        "sender CPU        : {:7.1} %",
        metrics.sender_utilization * 100.0
    );
    println!(
        "sender efficiency : {:7.0} Mbit/s at full CPU",
        metrics.sender_efficiency_mbps
    );
    // Every counter of the run is in its registry, host0 the sender's.
    let count = |key: &str| metrics.stats.counter_value(&format!("host0.{key}"));
    println!("outboard checksums: {}", count("csum.hw"));
    println!("software checksums: {}", count("csum.sw"));

    println!("\n== sender kernel counters ==");
    println!("packets out            : {}", count("ip.tx_packets"));
    println!("M_UIO -> M_WCAB        : {}", count("mbuf.uio_to_wcab"));
    println!("VM ops (pin/map calls) : {}", count("vm.pin_calls"));
    println!(
        "header-only retransmits: {}",
        count("tcp.retransmit_header_only")
    );
}
