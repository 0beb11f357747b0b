//! Deterministic chaos sweep: N seeded fault plans against the ttcp
//! testbed, each judged by the end-to-end oracle (stream integrity,
//! conservation, liveness). Failing plans are delta-debugged to a locally
//! minimal repro and written out as `repro_<seed>.faults` (one fault line
//! per entry, the form of a run's fault log), replayable byte-identically
//! with `--replay`.
//!
//! ```text
//! chaos [--seeds N] [--start-seed S] [--events K] [--smoke] [--out DIR]
//!       [--plant-bug] [--replay FILE] [--stats]
//! ```
//!
//! * `--seeds N`      plans to sweep (default 32, smoke default 8)
//! * `--start-seed S` first seed (default 1)
//! * `--events K`     entries per generated plan (default 6)
//! * `--smoke`        small transfers for CI
//! * `--out DIR`      where repro files go (default `.`)
//! * `--plant-bug`    add a checksum-preserving corruption entry to every
//!   plan — the oracle must catch it (exits 1)
//! * `--replay FILE`  run one `repro_*.faults` plan (or any run's fault
//!   log) and report
//! * `--stats`        print the full metrics registry after a replay
//!
//! Exit status: 0 all seeds clean, 1 oracle violation, 2 usage error.

use outboard_bench::arg_value;
use outboard_host::MachineConfig;
use outboard_sim::fault::{Action, Point, Target};
use outboard_sim::{Dur, Fault, FaultPlan, Time};
use outboard_stack::StackConfig;
use outboard_testbed::chaos::{run_chaos, shrink_failure};
use outboard_testbed::ExperimentConfig;

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
    // Flight recorder: chaos runs always sample a timeline so an oracle
    // failure can dump its last windows as flight_<seed>.json. Export
    // strings are not rendered (the flight dump reads the world directly).
    cfg.timeline_enabled = true;
    cfg.timeline_export = false;
    outboard_bench::timeline_args().apply(&mut cfg);
    cfg
}

/// One seed's verdict.
struct SeedReport {
    line: String,
    failed: bool,
    repro: Option<String>,
    /// Flight-recorder dump of the original (unshrunk) failure: the last
    /// timeline windows plus the span-ring tail at the moment the oracle
    /// reported violations.
    flight_json: Option<String>,
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
    if outcome.passed() {
        let chaos = |key: &str| outcome.stats.counter_value(&format!("world.chaos.{key}"));
        return SeedReport {
            line: format!(
                "seed {seed:>5}  PASS  {} events applied, {} heals, {} deferred, {} in {}",
                chaos("events_applied"),
                chaos("heals_applied"),
                chaos("deferred_events"),
                outcome.bytes_read,
                outcome.elapsed,
            ),
            failed: false,
            repro: None,
            flight_json: None,
        };
    }
    let first = outcome.violations[0].clone();
    let (events_left, runs, repro) = match shrink_failure(&cfg, &plan) {
        Some(r) => (r.plan.faults.len(), r.runs, r.plan.render()),
        None => (plan.faults.len(), 0, plan.render()),
    };
    SeedReport {
        line: format!(
            "seed {seed:>5}  FAIL  {first}  (shrunk to {events_left} events in {runs} runs)"
        ),
        failed: true,
        repro: Some(repro),
        flight_json: outcome.flight_json,
    }
}

fn replay(path: &str, total: usize, stats: bool) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let plan = match FaultPlan::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 2;
        }
    };
    println!(
        "replaying {path} ({} entries):\n{}",
        plan.faults.len(),
        plan.render()
    );
    let cfg = base_cfg(plan.seed, total);
    let outcome = run_chaos(&cfg, &plan);
    if stats {
        print!("{}", outcome.stats.report());
    }
    if outcome.passed() {
        println!(
            "PASS: {} bytes in {}, {} faults fired",
            outcome.bytes_read,
            outcome.elapsed,
            outcome.log.faults.len()
        );
        0
    } else {
        for v in &outcome.violations {
            println!("VIOLATION: {v}");
        }
        if let Some(flight) = &outcome.flight_json {
            let fpath = format!("flight_{}.json", plan.seed);
            match std::fs::write(&fpath, flight) {
                Ok(()) => println!("flight recorder written to {fpath}"),
                Err(e) => eprintln!("cannot write {fpath}: {e}"),
            }
        }
        1
    }
}

fn main() {
    let smoke = flag_present("--smoke");
    let total = if smoke {
        2 * 1024 * 1024
    } else {
        8 * 1024 * 1024
    };

    if let Some(path) = arg_value("--replay") {
        std::process::exit(replay(&path, total, flag_present("--stats")));
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
        if r.failed {
            failures += 1;
            if let Some(repro) = &r.repro {
                let path = format!("{out_dir}/repro_{seed}.faults");
                match std::fs::write(&path, repro) {
                    Ok(()) => println!("          repro written to {path}"),
                    Err(e) => eprintln!("          cannot write {path}: {e}"),
                }
            }
            if let Some(flight) = &r.flight_json {
                let path = format!("{out_dir}/flight_{seed}.json");
                match std::fs::write(&path, flight) {
                    Ok(()) => println!("          flight recorder written to {path}"),
                    Err(e) => eprintln!("          cannot write {path}: {e}"),
                }
            }
        }
    }
    println!("{}/{seeds} seeds clean", seeds - failures);
    if failures > 0 {
        std::process::exit(1);
    }
}
