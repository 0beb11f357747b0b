//! Figure 6: throughput, utilization and efficiency on the Alpha
//! 3000/300LX (125 MHz, half-speed Turbochannel).

use outboard_host::MachineConfig;

fn main() {
    println!("== Figure 6: Alpha 3000/300LX ==\n");
    outboard_bench::print_figure(&MachineConfig::alpha_3000_300lx());
    println!("paper anchor: on this slower machine the more efficient");
    println!("single-copy stack yields *higher* throughput at large sizes.");
    outboard_bench::observe("fig6", &MachineConfig::alpha_3000_300lx());
}
