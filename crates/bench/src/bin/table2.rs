//! Table 2: cost of virtual memory operations as a function of the number
//! of pages. The simulated VM system is timed for n = 1..64 pages and a
//! least-squares fit recovers the linear model; the coefficients are then
//! compared with the paper's (which are also the model inputs — this
//! binary demonstrates the measurement pipeline is faithful end to end).

use outboard_host::{MachineConfig, TaskId, VmSystem};
use outboard_sim::stats::linreg;

fn main() {
    let machine = MachineConfig::alpha_3000_400();
    println!("== Table 2: VM operation cost (us) as a function of pages n ==\n");
    let ns: Vec<f64> = (1..=64).map(|n| n as f64).collect();
    // Each page count measures on its own VmSystem.
    let (mut pin_y, mut unpin_y, mut map_y) = (Vec::new(), Vec::new(), Vec::new());
    for &nf in &ns {
        let mut vm = VmSystem::new(machine.clone(), false);
        let n = nf as usize;
        let len = n * machine.page_size;
        // prepare = pin + map in one call; measure the pieces separately
        // through the cost functions the same call path uses.
        let pin = vm.pin_cost(n).as_micros_f64();
        let map = vm.map_cost(n).as_micros_f64();
        let unpin = vm.unpin_cost(n).as_micros_f64();
        // Cross-check against the full prepare/release path.
        let prep = vm.prepare(TaskId(1), 0, len).as_micros_f64();
        let rel = vm.release(TaskId(1), 0, len).as_micros_f64();
        assert!((prep - (pin + map)).abs() < 1e-6);
        assert!((rel - unpin).abs() < 1e-6);
        pin_y.push(pin);
        unpin_y.push(unpin);
        map_y.push(map);
    }
    let rows = [
        ("Pin", linreg(&ns, &pin_y), (35.0, 29.0)),
        ("Unpin", linreg(&ns, &unpin_y), (48.0, 3.9)),
        ("Map", linreg(&ns, &map_y), (6.0, 4.5)),
    ];
    println!(
        "{:>9} | {:>22} | {:>22} | {:>6}",
        "Operation", "measured (us)", "paper Table 2 (us)", "r^2"
    );
    for (name, fit, (b, m)) in rows {
        println!(
            "{:>9} | {:>9.1} + {:>5.1} * n | {:>9.1} + {:>5.1} * n | {:>6.4}",
            name, fit.intercept, fit.slope, b, m, fit.r2
        );
        assert!((fit.intercept - b).abs() < 0.2 && (fit.slope - m).abs() < 0.05);
    }
    println!("\nLazy-unpin ablation (32 KB buffer reused 64 times):");
    for lazy in [false, true] {
        let mut vm = VmSystem::new(machine.clone(), lazy);
        let mut total = 0.0;
        for _ in 0..64 {
            total += vm.prepare(TaskId(1), 0, 32 * 1024).as_micros_f64();
            total += vm.release(TaskId(1), 0, 32 * 1024).as_micros_f64();
        }
        println!("  lazy={lazy}: {:8.1} us total VM time", total);
    }
    outboard_bench::emit_trace(&machine);
}
