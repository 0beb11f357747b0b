//! Figure 5: throughput, utilization and efficiency as a function of
//! read/write size on the Alpha 3000/400.

use outboard_host::MachineConfig;

fn main() {
    println!("== Figure 5: Alpha 3000/400, TCP over CAB, 512 KB window, 32 KB MTU ==\n");
    outboard_bench::print_figure(&MachineConfig::alpha_3000_400());
    println!("paper anchors: modified ~3x more efficient for large writes;");
    println!("efficiency crossover near 8-16 KB; raw HIPPI ~140 Mbit/s;");
    println!("similar throughput for both stacks at large sizes.");
    outboard_bench::observe("fig5", &MachineConfig::alpha_3000_400());
}
