//! `fig5`, `fig6` and `crossover` print, with no arguments, exactly the
//! bytes under `tests/golden/`: the "figure stdout unchanged" check every
//! simulator PR otherwise does by hand against a build of its parent.
//!
//! The goldens are the stdout of the PR 20 binaries (ae95726). After an
//! *intended* change of a simulated value, run
//! `cargo test -p outboard-bench --test stdout_golden -- --ignored regenerate_goldens`,
//! list the moved points in EXPERIMENTS.md and commit `tests/golden/`.
//!
//! Two binaries' output files are checked here too: `fig5`'s Perfetto
//! trace and the flight recording of a `chaos` sweep with a planted bug.

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

/// `fig5 --timeline --trace-out FILE` writes one Perfetto file that parses,
/// is byte-identical across two processes, and carries span slices, flow
/// arrows and counter tracks on the span pids. (Within one process the
/// same holds by `tests/span_trace.rs` and `tests/timeline.rs`; this is
/// the binary's own file.)
#[test]
fn fig5_timeline_trace_file_parses_and_is_byte_identical() {
    use std::collections::BTreeSet;

    let dir = env!("CARGO_TARGET_TMPDIR");
    let write_trace = |run: u32| {
        let path = format!("{dir}/fig5_timeline_trace_{run}.json");
        let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
            .args(["--timeline", "--trace-out", &path])
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

    let doc = json::parse(&trace).expect("the trace file is JSON");
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

/// The flight-recorder smoke: `chaos --smoke --seeds 1 --plant-bug` must
/// catch the planted checksum-preserving corruption (exit 1) and dump one
/// `flight_<seed>.json` whose violations are listed, whose counter series
/// conserve (`base + Σ samples == final`) and which carries a span tail.
#[test]
fn planted_bug_fails_the_chaos_smoke_and_dumps_a_flight_recording() {
    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        field(v, key).unwrap_or_else(|| panic!("no {key}"))
    }

    let out_dir = format!("{}/flight_smoke", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--smoke", "--seeds", "1", "--plant-bug", "--out", &out_dir])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("cannot start chaos: {e}"));
    assert_eq!(out.status.code(), Some(1), "the planted bug went uncaught");

    let flights: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap_or_else(|e| panic!("{out_dir}: {e}"))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("flight_") && name.ends_with(".json")
        })
        .collect();
    assert_eq!(flights.len(), 1, "flight files: {flights:?}");
    let text = std::fs::read_to_string(&flights[0]).expect("flight file is readable");
    let doc = json::parse(&text).expect("the flight file is JSON");

    assert_eq!(get(&doc, "schema").as_str(), Some("outboard-flight-v1"));
    let violations = get(&doc, "violations")
        .as_array()
        .expect("violations array");
    assert!(
        !violations.is_empty(),
        "flight recording without violations"
    );
    let series = get(get(&doc, "timeline"), "series").as_array();
    let series = series.expect("timeline series array");
    assert!(!series.is_empty());
    for s in series {
        if get(s, "kind").as_str() != Some("counter") {
            continue;
        }
        let int = |key: &str| get(s, key).as_f64().expect("a number") as i64;
        let samples = get(s, "samples").as_array().expect("samples array");
        let sum: i64 = samples
            .iter()
            .map(|v| v.as_f64().expect("a number") as i64)
            .sum();
        assert_eq!(int("base") + sum, int("final"), "{:?}", get(s, "name"));
    }
    assert!(get(get(&doc, "spans"), "tail").as_array().is_some());
}
