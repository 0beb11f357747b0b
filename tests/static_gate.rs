//! The static gate (DESIGN.md §9). What the model crates promise at compile
//! time — no panic outside tests, no hash order, no wall clock or
//! environment read, no thread-safe sharing or lock (the simulator is
//! single-threaded), no payload allocation in `netsim` / `mbuf`, no
//! exception without a reason — is held by clippy: crate-level `deny` lines
//! plus three `clippy.toml` files. This keeps that gate honest in tier-1:
//! clippy must report every planted line of `tests/planted/` and nothing
//! else there, and nothing at all in the seven crates. Where the `clippy`
//! component is missing the test says so and passes; CI's `Clippy` step
//! installs it and is the hard gate.

use outboard::sim::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// The crates an event crosses: directory under `crates/`, package name.
const MODEL_CRATES: [(&str, &str); 7] = [
    ("core", "outboard-stack"),
    ("cab", "outboard-cab"),
    ("mbuf", "outboard-mbuf"),
    ("host", "outboard-host"),
    ("netsim", "outboard-netsim"),
    ("sim", "outboard-sim"),
    ("wire", "outboard-wire"),
];

/// `("file:line", lint)` pairs.
type Findings = BTreeSet<(String, String)>;

fn read(path: &str) -> String {
    std::fs::read_to_string(format!("{ROOT}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    json::get(v.as_object()?, key)
}

fn cargo_clippy(dir: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(format!("{ROOT}/{dir}")).arg("clippy");
    cmd
}

/// `cargo clippy --offline --message-format=json ARGS` in `dir`: cargo's
/// verdict and `("file:line", lint)` of every diagnostic that carries a
/// code, from its primary span. `None` where there is no clippy to run.
fn clippy(dir: &str, conf_dir: Option<&str>, args: &[&str]) -> Option<(bool, Findings)> {
    let probe = cargo_clippy(dir).arg("--version").output();
    if !probe.is_ok_and(|o| o.status.success()) {
        eprintln!("static_gate: no clippy component here; CI's Clippy step is the gate");
        return None;
    }
    let mut cmd = cargo_clippy(dir);
    cmd.args(["--offline", "--message-format=json", "--target-dir"])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .args(args)
        .env_remove("CLIPPY_CONF_DIR");
    if let Some(conf) = conf_dir {
        cmd.env("CLIPPY_CONF_DIR", format!("{ROOT}/{conf}"));
    }
    let out = cmd.output().expect("cargo starts");
    let mut found = Findings::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("cargo printed {line:?}: {e:?}"));
        let Some(msg) = field(&doc, "message") else {
            continue;
        };
        let Some(lint) = field(msg, "code").and_then(|c| field(c, "code")?.as_str()) else {
            continue;
        };
        let spans = field(msg, "spans").and_then(Value::as_array).unwrap_or(&[]);
        let primary = spans
            .iter()
            .find(|s| field(s, "is_primary").and_then(Value::as_bool) == Some(true));
        let file = primary.and_then(|s| field(s, "file_name")?.as_str());
        let line = primary.and_then(|s| field(s, "line_start")?.as_u64());
        let at = format!("{}:{}", file.unwrap_or("?"), line.unwrap_or(0));
        found.insert((at, lint.to_string()));
    }
    Some((out.status.success(), found))
}

/// Every `//~ lint` marker of the planted file; the `//~payload lint` ones
/// only when the payload configuration is in force.
fn planted_markers(payload: bool) -> Findings {
    let src = read("tests/planted/src/lib.rs");
    let marker = |(i, text): (usize, &str)| {
        let (_, marker) = text.split_once("//~")?;
        let lint = match marker.strip_prefix("payload") {
            Some(lint) if payload => lint,
            Some(_) => return None,
            None => marker,
        };
        Some((format!("src/lib.rs:{}", i + 1), lint.trim().to_string()))
    };
    src.lines().enumerate().filter_map(marker).collect()
}

#[test]
fn every_planted_bug_is_reported_and_nothing_else() {
    for (conf_dir, payload) in [(None, false), (Some("crates/netsim"), true)] {
        let Some((accepted, found)) = clippy("tests/planted", conf_dir, &[]) else {
            return;
        };
        assert!(!accepted, "clippy accepted the planted package");
        assert_eq!(
            found,
            planted_markers(payload),
            "CLIPPY_CONF_DIR {conf_dir:?}"
        );
    }
}

#[test]
fn model_crates_are_clean() {
    let mut args = vec!["--lib"];
    for (_, package) in MODEL_CRATES {
        args.extend(["-p", package]);
    }
    args.extend(["--", "-D", "warnings"]);
    if let Some((accepted, found)) = clippy(".", None, &args) {
        assert!(accepted && found.is_empty(), "clippy findings: {found:#?}");
    }
}

/// Clean means nothing unless the gate is armed: every model crate carries
/// the planted package's deny lines verbatim (all but `sim` the float one
/// too), and the payload crates' `clippy.toml` (a nearer file *replaces*
/// the root one) repeat every root entry.
#[test]
fn every_model_crate_is_under_the_same_rules() {
    let planted = read("tests/planted/src/lib.rs");
    let float = "\n#![cfg_attr(not(test), deny(clippy::float_arithmetic))]\n";
    assert!(planted.contains(float));
    let deny: Vec<_> = planted
        .lines()
        .filter(|l| l.starts_with("#![cfg_attr(not(test), deny(") && !float.contains(l))
        .collect();
    assert_eq!(deny.len(), 4);
    let surface = "\n#![deny(unreachable_pub)]\n";
    assert!(planted.contains(surface));
    for (dir, _) in MODEL_CRATES {
        let lib = read(&format!("crates/{dir}/src/lib.rs"));
        assert!(
            lib.contains(&deny.join("\n")),
            "crates/{dir}/src/lib.rs lacks the deny lines"
        );
        assert!(
            lib.contains(surface),
            "crates/{dir}/src/lib.rs lacks the unreachable_pub line"
        );
        // Sim owns the f64 reference models (`Dur::for_bytes_at_bps`) and
        // the compilers of `Rate` and `Chance`; the crates an event's cost
        // is charged in carry the deny.
        assert_eq!(
            lib.contains(float),
            dir != "sim",
            "crates/{dir}/src/lib.rs and the float_arithmetic line"
        );
    }
    // The driver's functions stay short: `core` denies long ones at
    // clippy's default of 100 lines, with a reasoned `#[expect]` each on
    // the few protocol procedures kept whole.
    let long = "\n#![cfg_attr(not(test), deny(clippy::too_many_lines))]\n";
    assert!(
        read("crates/core/src/lib.rs").contains(long),
        "crates/core/src/lib.rs lacks the too_many_lines line"
    );
    let netsim = read("crates/netsim/clippy.toml");
    assert_eq!(netsim, read("crates/mbuf/clippy.toml"));
    let root = read("clippy.toml");
    let entries: Vec<_> = root.lines().filter(|l| l.contains("path =")).collect();
    assert_eq!(entries.len(), 9);
    for entry in entries {
        assert!(
            netsim.contains(entry),
            "crates/netsim/clippy.toml lacks {entry}"
        );
    }
}
