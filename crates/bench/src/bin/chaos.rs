//! Deterministic chaos sweep: N seeded fault plans against the ttcp
//! testbed, each judged by the end-to-end oracle (stream integrity,
//! conservation, liveness). Failing plans are delta-debugged to a locally
//! minimal repro and written out as `repro_<seed>.faults`: the run's shape
//! (`total` and `write` lines), then one fault line per entry, the form of
//! a run's fault log. `--replay` runs such a file again, byte-identically
//! and traced.
//!
//! ```text
//! chaos [--seeds N] [--start-seed S] [--events K] [--smoke] [--out DIR]
//!       [--plant-bug] [--replay FILE] [--stats]
//! ```
//!
//! * `--seeds N`      plans to sweep (default 32, smoke default 8)
//! * `--start-seed S` first seed (default 1)
//! * `--events K`     entries per generated plan (default 6)
//! * `--smoke`        sweep 2 MB transfers, for CI (default 8 MB)
//! * `--out DIR`      where repro files go (default `.`)
//! * `--plant-bug`    add a checksum-preserving corruption entry to every
//!   plan — the oracle must catch it (exits 1)
//! * `--replay FILE`  run one `repro_*.faults` (or any run's fault log:
//!   without shape lines it runs 8 MB in 64 KB writes) as an observed run
//!   (spans and the timeline on), report, and write its Perfetto trace
//!   beside it as `<FILE minus .faults>.trace.json`
//! * `--stats`        with `--replay`: also print the metrics registry and
//!   write `stats_chaos.*` and `timeline_chaos.*`, as the figure binaries do
//!
//! Exit status: 0 all seeds clean, 1 oracle violation, 2 usage error (or
//! a replay whose configuration is rejected: it runs nothing and writes no
//! trace).

use outboard_bench::{arg_value, observed, write_artifacts};
use outboard_host::MachineConfig;
use outboard_sim::fault::{Action, Point, Target};
use outboard_sim::{Dur, Fault, FaultPlan, Time};
use outboard_stack::StackConfig;
use outboard_testbed::chaos::{parse_repro, render_repro, run_chaos, shrink_failure};
use outboard_testbed::ExperimentConfig;

/// Transfer size of a sweep without `--smoke`, and of a replayed plan
/// that names no run shape.
const FULL: usize = 8 * 1024 * 1024;

fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn parse_num(name: &str, val: &str) -> u64 {
    match val.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("{name} needs an unsigned integer, got {val:?}");
            std::process::exit(2);
        }
    }
}

fn base_cfg(seed: u64, total: usize) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = total;
    cfg.seed = seed;
    // The integrity oracle needs pattern verification.
    cfg.verify = true;
    cfg
}

/// One seed's verdict: its report line, and the repro of a failure.
struct SeedReport {
    line: String,
    repro: Option<String>,
}

fn sweep_seed(seed: u64, events: usize, total: usize, plant_bug: bool) -> SeedReport {
    let cfg = base_cfg(seed, total);
    let mut plan = FaultPlan::generate(seed, events, 2);
    if plant_bug {
        // A corruption the checksum cannot see — exactly what the oracle
        // exists to catch.
        let at = Time::ZERO + Dur::millis(8);
        let link = Target::Point(0, Point::Frame);
        plan.faults
            .push(Fault::at(at, link, Action::StealthCorrupt));
        plan.faults.sort_by_key(Fault::time);
    }
    let outcome = run_chaos(&cfg, &plan);
    if let Some(m) = outcome.metrics.as_ref().filter(|_| outcome.passed()) {
        let chaos = |key: &str| m.stats.counter_value(&format!("world.chaos.{key}"));
        return SeedReport {
            line: format!(
                "seed {seed:>5}  PASS  {} events applied, {} heals, {} deferred, {} in {}",
                chaos("events_applied"),
                chaos("heals_applied"),
                chaos("deferred_events"),
                m.bytes,
                m.elapsed,
            ),
            repro: None,
        };
    }
    let first = &outcome.violations[0];
    let (runs, shrunk) = match shrink_failure(&cfg, &plan) {
        Some(r) => (r.runs, r.plan),
        None => (0, plan),
    };
    SeedReport {
        line: format!(
            "seed {seed:>5}  FAIL  {first}  (shrunk to {} events in {runs} runs)",
            shrunk.faults.len()
        ),
        repro: Some(render_repro(&cfg, &shrunk)),
    }
}

/// Run the repro at `path` observed and write its artifacts: the trace
/// beside it, and with `stats` the stats and timeline files.
fn replay(path: &str, stats: bool) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let (mut cfg, plan) = match parse_repro(&text, &base_cfg(0, FULL)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 2;
        }
    };
    observed(&mut cfg);
    println!(
        "replaying {path} ({} entries):\n{}",
        plan.faults.len(),
        render_repro(&cfg, &plan)
    );
    let outcome = run_chaos(&cfg, &plan);
    for v in &outcome.violations {
        println!("VIOLATION: {v}");
    }
    let Some(m) = &outcome.metrics else {
        return 2;
    };
    let code = if outcome.passed() {
        println!(
            "PASS: {} bytes in {}, {} faults fired",
            m.bytes,
            m.elapsed,
            outcome.log.faults.len()
        );
        0
    } else {
        1
    };
    let trace = format!(
        "{}.trace.json",
        path.strip_suffix(".faults").unwrap_or(path)
    );
    write_artifacts(m, stats.then_some("chaos"), Some(&trace));
    code
}

fn main() {
    let smoke = flag_present("--smoke");
    let total = if smoke { 2 * 1024 * 1024 } else { FULL };

    if let Some(path) = arg_value("--replay") {
        std::process::exit(replay(&path, flag_present("--stats")));
    }

    let seeds = arg_value("--seeds")
        .map(|v| parse_num("--seeds", &v))
        .unwrap_or(if smoke { 8 } else { 32 });
    let start = arg_value("--start-seed")
        .map(|v| parse_num("--start-seed", &v))
        .unwrap_or(1);
    let events = arg_value("--events")
        .map(|v| parse_num("--events", &v) as usize)
        .unwrap_or(6);
    let out_dir = arg_value("--out").unwrap_or_else(|| ".".to_string());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create --out dir {out_dir}: {e}");
        std::process::exit(2);
    }
    let plant_bug = flag_present("--plant-bug");

    println!(
        "== chaos sweep: {seeds} seeds from {start}, {events} events each, {} MB transfers{} ==",
        total / (1024 * 1024),
        if plant_bug { ", planted bug" } else { "" }
    );

    let mut failures = 0u64;
    for seed in start..start + seeds {
        let r = sweep_seed(seed, events, total, plant_bug);
        println!("{}", r.line);
        if let Some(repro) = &r.repro {
            failures += 1;
            let path = format!("{out_dir}/repro_{seed}.faults");
            match std::fs::write(&path, repro) {
                Ok(()) => println!("          repro written to {path}"),
                Err(e) => eprintln!("          cannot write {path}: {e}"),
            }
        }
    }
    println!("{}/{seeds} seeds clean", seeds - failures);
    if failures > 0 {
        std::process::exit(1);
    }
}
