//! §7.3: analytic efficiency estimates vs full-simulation measurements.

use outboard_bench::figure_point;
use outboard_host::MachineConfig;
use outboard_testbed::analysis::{
    per_packet_overhead_us, single_copy_estimate, unmodified_estimate,
};

fn main() {
    let m = MachineConfig::alpha_3000_400();
    println!("== Section 7.3 analysis, Alpha 3000/400, 32 KB packets ==\n");
    println!(
        "per-packet protocol overhead: {:.0} us (paper: ~300 us)\n",
        per_packet_overhead_us(&m)
    );
    let un = unmodified_estimate(&m, 32 * 1024);
    let sc = single_copy_estimate(&m, 32 * 1024);
    println!("analytic:");
    println!(
        "  unmodified : {:6.0} Mbit/s  per-byte share {:4.0} %  (paper: ~180, 80 %)",
        un.efficiency_mbps,
        un.per_byte_share * 100.0
    );
    println!(
        "  single-copy: {:6.0} Mbit/s  per-byte share {:4.0} %  (paper: ~490, 43 %)",
        sc.efficiency_mbps,
        sc.per_byte_share * 100.0
    );
    println!(
        "  ratio      : {:6.2}x                         (paper: 'almost three times')",
        sc.efficiency_mbps / un.efficiency_mbps
    );
    println!("\nsimulated (512 KB writes, 32 KB MTU):");
    let mu = figure_point(&m, false, 512 * 1024);
    let ms = figure_point(&m, true, 512 * 1024);
    println!(
        "  unmodified : {:6.0} Mbit/s at {:4.2} utilization",
        mu.sender_efficiency_mbps, mu.sender_utilization
    );
    println!(
        "  single-copy: {:6.0} Mbit/s at {:4.2} utilization",
        ms.sender_efficiency_mbps, ms.sender_utilization
    );
    println!(
        "  ratio      : {:6.2}x",
        ms.sender_efficiency_mbps / mu.sender_efficiency_mbps
    );
    outboard_bench::emit_trace(&m);
}
