//! `fig5`, `fig6` and `crossover` print, with no arguments, exactly the
//! bytes under `tests/golden/`: the "figure stdout unchanged" check every
//! simulator PR otherwise does by hand against a build of its parent.
//!
//! The goldens are the stdout of the PR 20 binaries (ae95726). After an
//! *intended* change of a simulated value, run
//! `cargo test -p outboard-bench --test stdout_golden -- --ignored regenerate_goldens`,
//! list the moved points in EXPERIMENTS.md and commit `tests/golden/`.
//!
//! Two binaries' output files are checked here too: the files of `fig5`'s
//! observed run (its Perfetto trace, stats and timeline), and the repro of
//! a `chaos` sweep with a planted bug and the trace its replay writes.

use outboard_sim::json::{self, Value};
use std::process::Command;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn stdout_of(name: &str) -> String {
    let exe = match name {
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        _ => env!("CARGO_BIN_EXE_crossover"),
    };
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {name}: {e}"));
    assert!(out.status.success(), "{name} exited {}", out.status);
    String::from_utf8(out.stdout).expect("figure stdout is UTF-8")
}

fn assert_matches_golden(name: &str) {
    let path = format!("{GOLDEN_DIR}/{name}.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = stdout_of(name);
    for (i, (got, golden)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, golden, "{name} stdout left {path} at line {}", i + 1);
    }
    assert_eq!(got, golden, "{name} stdout and {path} differ in length");
}

#[test]
fn fig5_stdout_matches_golden() {
    assert_matches_golden("fig5");
}

#[test]
fn fig6_stdout_matches_golden() {
    assert_matches_golden("fig6");
}

#[test]
fn crossover_stdout_matches_golden() {
    assert_matches_golden("crossover");
}

#[test]
#[ignore = "rewrites crates/bench/tests/golden; see the file header"]
fn regenerate_goldens() {
    for name in ["fig5", "fig6", "crossover"] {
        std::fs::write(format!("{GOLDEN_DIR}/{name}.txt"), stdout_of(name)).unwrap();
    }
}

/// `key` of a JSON object, `None` when `v` is not an object or lacks it.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    json::get(v.as_object()?, key)
}

/// `fig5 --trace-out FILE` alone writes one Perfetto file that parses, is
/// byte-identical across two processes, and carries span slices, flow
/// arrows and, because the observed run always samples, counter tracks on
/// the span pids. (Within one process the same holds by
/// `tests/span_trace.rs` and `tests/timeline.rs`; this is the binary's own
/// file.)
#[test]
fn fig5_timeline_trace_file_parses_and_is_byte_identical() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let write_trace = |run: u32| {
        let path = format!("{dir}/fig5_timeline_trace_{run}.json");
        let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
            .args(["--trace-out", &path])
            .current_dir(dir)
            .output()
            .unwrap_or_else(|e| panic!("cannot start fig5: {e}"));
        assert!(out.status.success(), "fig5 exited {}", out.status);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let trace = write_trace(0);
    // Not `assert_eq!`: a failure would print two multi-megabyte files.
    assert!(
        trace == write_trace(1),
        "two fig5 processes wrote different traces"
    );

    assert_perfetto_trace(&trace);
}

/// The files of `fig5 --stats --trace-out fig5.trace.json`, run in a
/// directory of its own, by name.
fn fig5_observed_files(run: u32) -> Vec<(String, String)> {
    let dir = format!("{}/fig5_observed_{run}", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--stats", "--trace-out", "fig5.trace.json"])
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot start fig5: {e}"));
    assert!(out.status.success(), "fig5 exited {}", out.status);
    let read = |name: String| {
        let text = std::fs::read_to_string(format!("{dir}/{name}"));
        let text = text.unwrap_or_else(|e| panic!("{dir}/{name}: {e}"));
        (name, text)
    };
    files_in(&dir).into_iter().map(read).collect()
}

/// `fig5 --stats --trace-out F` writes all five files from its one observed
/// run: the trace, the stats and the timeline parse, the timeline has its
/// 10 series, the registry counts the windows the timeline holds, and two
/// processes write byte-identical files.
#[test]
fn fig5_observed_run_writes_every_file_from_one_run() {
    let files = fig5_observed_files(0);
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig5.trace.json",
            "stats_fig5.csv",
            "stats_fig5.json",
            "timeline_fig5.csv",
            "timeline_fig5.json"
        ]
    );
    let text = |name: &str| &files[names.iter().position(|n| *n == name).unwrap()].1;
    assert_perfetto_trace(text("fig5.trace.json"));
    let stats = json::parse(text("stats_fig5.json")).expect("the stats file is JSON");
    let timeline = json::parse(text("timeline_fig5.json")).expect("the timeline file is JSON");
    let series = field(&timeline, "series").and_then(Value::as_array);
    assert_eq!(series.map(<[Value]>::len), Some(10), "timeline series");
    let windows = field(&timeline, "windows").and_then(Value::as_u64);
    let counted = field(&stats, "metrics")
        .and_then(|m| field(m, "world.timeline.windows"))
        .and_then(|w| field(w, "value"))
        .and_then(Value::as_u64);
    assert!(windows.is_some_and(|n| n > 0), "timeline windows");
    assert_eq!(
        counted, windows,
        "the registry counts the timeline's windows"
    );
    // Not `assert_eq!`: a failure would print two multi-megabyte traces.
    assert!(
        files == fig5_observed_files(1),
        "two fig5 processes wrote different files"
    );
}

/// `trace` parses and carries span slices, flow arrows and at least six
/// counter tracks, every counter on a span pid.
fn assert_perfetto_trace(trace: &str) {
    use std::collections::BTreeSet;

    let doc = json::parse(trace).expect("the trace file is JSON");
    let events = field(&doc, "traceEvents").and_then(Value::as_array);
    let events = events.expect("a traceEvents array");
    let of_ph = |ph: &str| -> Vec<&Value> {
        let is = |e: &&Value| field(e, "ph").and_then(Value::as_str) == Some(ph);
        events.iter().filter(is).collect()
    };

    let slices = of_ph("X");
    assert!(!slices.is_empty(), "no span slices");
    for e in &slices {
        for key in ["pid", "tid", "ts", "dur", "name"] {
            assert!(field(e, key).is_some(), "slice without {key}: {e:?}");
        }
    }
    assert!(!of_ph("s").is_empty(), "no flow arrows");

    let pid = |e: &Value| field(e, "pid").and_then(Value::as_u64);
    let span_pids: BTreeSet<u64> = slices.iter().filter_map(|e| pid(e)).collect();
    let mut tracks = BTreeSet::new();
    for e in of_ph("C") {
        assert!(
            pid(e).is_some_and(|p| span_pids.contains(&p)),
            "counter off the span pids: {e:?}"
        );
        let args = field(e, "args")
            .and_then(Value::as_object)
            .unwrap_or_default();
        assert!(
            args.len() == 1 && args[0].1.as_f64().is_some(),
            "counter args: {e:?}"
        );
        tracks.extend(field(e, "name").and_then(Value::as_str));
    }
    assert!(tracks.len() >= 6, "counter tracks: {tracks:?}");
}

/// `chaos` exit code and stdout, run in the test's scratch directory.
fn chaos(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("cannot start chaos: {e}"));
    let stdout = String::from_utf8(out.stdout).expect("chaos stdout is UTF-8");
    (out.status.code(), stdout)
}

/// The files `dir` holds, by name.
fn files_in(dir: &str) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
    let mut names: Vec<String> = entries
        .map(|e| e.expect("directory entry").file_name())
        .map(|n| n.to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `chaos --smoke --seeds 1 --plant-bug` catches the planted
/// checksum-preserving corruption (exit 1) and writes only its repro, which
/// names the 2 MB run it was shrunk under. `chaos --replay` of that file
/// alone, without `--smoke`, runs that run again: the same `integrity:`
/// violation, and a trace beside the repro with span slices, flow arrows
/// and counter tracks.
#[test]
fn planted_bug_fails_the_chaos_smoke_and_its_repro_replays_traced() {
    let out_dir = format!("{}/plant_smoke", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let sweep = ["--smoke", "--seeds", "1", "--plant-bug", "--out", &out_dir];
    let (code, stdout) = chaos(&sweep);
    assert_eq!(code, Some(1), "the planted bug went uncaught:\n{stdout}");
    assert_eq!(files_in(&out_dir), ["repro_1.faults"]);
    let repro = format!("{out_dir}/repro_1.faults");
    let text = std::fs::read_to_string(&repro).expect("the repro is readable");
    assert!(
        text.starts_with("total 2097152\nwrite 65536\nseed 1\n"),
        "{text}"
    );
    let violation = stdout
        .lines()
        .find_map(|l| l.split_once("FAIL  ")?.1.split("  (").next())
        .expect("a FAIL line");
    assert!(violation.starts_with("integrity: "), "{stdout}");

    let (code, replay) = chaos(&["--replay", &repro]);
    assert_eq!(code, Some(1), "the replay passed:\n{replay}");
    assert!(
        replay.contains(&format!("VIOLATION: {violation}\n")),
        "{replay}"
    );
    assert_eq!(files_in(&out_dir), ["repro_1.faults", "repro_1.trace.json"]);
    let trace = std::fs::read_to_string(format!("{out_dir}/repro_1.trace.json"));
    assert_perfetto_trace(&trace.expect("the trace is readable"));
}

/// A seed whose run passes the oracle writes nothing.
#[test]
fn a_passing_chaos_seed_writes_no_file() {
    let out_dir = format!("{}/clean_smoke", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let (code, stdout) = chaos(&["--smoke", "--seeds", "1", "--out", &out_dir]);
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(files_in(&out_dir), Vec::<String>::new());
}
