//! §2.1: FIFO head-of-line blocking vs logical channels on a saturated
//! input-queued switch (the Hluchyj-Karol 58.6 % limit).

use outboard_cab::{HolSim, MacMode};

fn main() {
    println!("== HOL blocking: saturated uniform random traffic ==\n");
    println!("{:>6} {:>10} {:>12}", "nodes", "FIFO", "16 channels");
    for nodes in [4usize, 8, 16, 32] {
        let fifo = HolSim::new(nodes, MacMode::Fifo, 42).run(20_000);
        let lc = HolSim::new(nodes, MacMode::LogicalChannels { channels: 16 }, 42).run(20_000);
        println!(
            "{:>6} {:>9.1}% {:>11.1}%",
            nodes,
            fifo.utilization * 100.0,
            lc.utilization * 100.0
        );
    }
    println!("\nchannel sweep at 16 nodes:");
    for ch in [1usize, 2, 4, 8, 16] {
        let r = HolSim::new(16, MacMode::LogicalChannels { channels: ch }, 7).run(20_000);
        println!("  {ch:>2} channels: {:5.1}%", r.utilization * 100.0);
    }
    println!("\nfinite-load stability at 16 nodes (mean backlog after 20k slots):");
    println!("{:>6} {:>12} {:>14}", "load", "FIFO", "16 channels");
    for load in [0.40, 0.50, 0.55, 0.60, 0.70, 0.80] {
        let f = HolSim::new(16, MacMode::Fifo, 5).run_with_load(20_000, load);
        let l = HolSim::new(16, MacMode::LogicalChannels { channels: 16 }, 5)
            .run_with_load(20_000, load);
        println!(
            "{:>6.2} {:>12.1} {:>14.1}",
            load, f.mean_backlog, l.mean_backlog
        );
    }
    println!("\npaper/Hluchyj-Karol anchor: FIFO caps near 58.6 %; queues blow");
    println!("up just past it while logical channels stay stable.");
    outboard_bench::observe("hol", &outboard_host::MachineConfig::alpha_3000_400());
}
