//! `fig5`, `fig6` and `crossover` print, with no arguments, exactly the
//! bytes under `tests/golden/`: the "figure stdout unchanged" check every
//! simulator PR otherwise does by hand against a build of its parent.
//!
//! The goldens are the stdout of the PR 20 binaries (ae95726). After an
//! *intended* change of a simulated value, run
//! `cargo test -p outboard-bench --test stdout_golden -- --ignored regenerate_goldens`,
//! list the moved points in EXPERIMENTS.md and commit `tests/golden/`.

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
