//! Command line of both binaries. With `--workload` it runs that workload
//! once (the `BENCHMARK.json` contract); without, it runs every workload in
//! a child process of its own — untraced first, then traced — and prints
//! every metric by name. `run.sh` is the front door: it builds, picks the
//! binary that matches `--trace`, and starts it from the repo root.
//!
//! Only these flags exist, and none of them collides with the `--jobs`,
//! `--fault-*` and `--timeline*` flags that `figure_point` re-parses from
//! the process's own argv.

use crate::json::Json;
use crate::run::{self, RunArgs, RUN_SECONDS};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR] [--check-repeat]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--check-repeat" {
            a.check_repeat = true;
            continue;
        }
        let val = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&val).ok_or_else(bad)?),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Entry point of both binaries; `counting` says whether this one installed
/// the counting allocator (the traced binary).
pub fn main(counting: bool) -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The simulator reads these; the benchmark fixes the engine and lets the
    // sweep use every core, whatever the caller's environment says.
    std::env::remove_var("OUTBOARD_JOBS");
    std::env::remove_var("OUTBOARD_ENGINE");

    let Some(workload) = args.workload else {
        return all_workloads(&args);
    };
    if args.trace != counting {
        eprintln!(
            "--trace {} needs the other binary; start through run.sh",
            args.trace as u8
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "{}: seed {} seconds {} trace {} | nproc {} sweep workers {} engine {} rev {}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        outboard_bench::sweep::jobs(),
        outboard_sim::EngineKind::default().name(),
        std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    );
    // The result line carries `correct`; a run that produced one exits 0.
    run::run(&RunArgs {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        out: args.out,
    });
    ExitCode::SUCCESS
}

/// Run one workload in a child process of its own, so that peak memory and
/// allocator state are that workload's alone. Returns its result line.
fn child(args: &Args, w: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let name = if trace {
        "outboard-benchmark-traced"
    } else {
        "outboard-benchmark"
    };
    let out = Command::new(exe.with_file_name(name))
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} --workload {} exited with {}",
            w.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    Json::parse(line).map_err(|e| format!("bad result line: {e}"))
}

/// `name → value` of a result line's metrics.
fn metric_values(result: &Json) -> Vec<(String, f64, String)> {
    let metrics = result.get("metrics").map_or(&[][..], Json::members);
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn all_workloads(args: &Args) -> ExitCode {
    if args.check_repeat {
        return check_repeat(args);
    }
    let mut ok = true;
    let mut results = String::from("[\n");
    for trace in [false, true] {
        for w in Workload::ALL {
            let result = match child(args, w, trace) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (attempted, failed) = (num("attempted"), num("failed"));
            ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
            println!(
                "{:<13} {:<38} {:>16} passes ({failed} failed)",
                w.name(),
                if trace {
                    "attempted.traced"
                } else {
                    "attempted"
                },
                attempted
            );
            if !trace {
                println!(
                    "{:<13} {:<38} {:>16.6} share",
                    w.name(),
                    "fail_share",
                    failed / attempted
                );
            }
            let _ = write!(
                results,
                "{}{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"metrics\": {{",
                if results.len() > 2 { ",\n" } else { "" },
                w.name(),
                trace as u8,
                args.seed
            );
            for (i, (name, value, unit)) in metric_values(&result).iter().enumerate() {
                println!("{:<13} {name:<38} {value:>16.6} {unit}", w.name());
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(results, "{sep}\"{name}\": {value}");
            }
            results.push_str("}}");
        }
    }
    results.push_str("\n]\n");
    let path = args.out.join("results.json");
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, results))
    {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a check failed");
        ExitCode::FAILURE
    }
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let list = doc.get("end_to_end").ok_or("no end_to_end")?.items();
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Run the untraced set of the gated workloads twice, interleaved in rounds
/// so that slow drift of the box hits all of them equally, and hold the
/// difference of each end-to-end metric against its bound.
fn check_repeat(args: &Args) -> ExitCode {
    let bounds = match bounds(Path::new("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rounds = Vec::new();
    for round in 0..2 {
        let mut set = Vec::new();
        for w in Workload::gated() {
            match child(args, w, false) {
                Ok(r) if r.get("correct").and_then(Json::as_bool) == Some(true) => set.push(r),
                Ok(_) => {
                    eprintln!("{} (round {round}): a check failed", w.name());
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{} (round {round}): {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        rounds.push(set);
    }
    let mut ok = true;
    println!(
        "{:<13} {:<18} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, w) in Workload::gated().enumerate() {
        let (first, second) = (metric_values(&rounds[0][i]), metric_values(&rounds[1][i]));
        for ((name, a, _), (_, b, _)) in first.iter().zip(&second) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, b)| *b);
            let diff = (b - a).abs() / a;
            let verdict = if diff <= bound { "" } else { "  PAST BOUND" };
            ok &= diff <= bound;
            println!(
                "{:<13} {name:<18} {a:>12.4} {b:>12.4} {:>7.2}% {:>7.2}%{verdict}",
                w.name(),
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
