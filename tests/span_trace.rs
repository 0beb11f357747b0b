//! Causal-tracing integration tests: trace determinism, span conservation
//! (with and without the fault matrix), critical-path exactness, the
//! completeness of the per-packet causal chain, and cross-binary goldens.
//!
//! The goldens under `tests/golden/` were written by the binary of the
//! commit *before* the exporters were rewritten (PR 12, 73d7c24), so they
//! prove the trace file and the critical-path table did not change across
//! the rewrite, not merely that the exporter agrees with itself. (The two
//! trace files were rewritten twice since: when frames began to share
//! network-memory storage, only the `args.bufs` of four
//! `world.pool_in_use` counter events each changed; when the receiver's
//! first SYN-ACK stopped counting as a retransmission, each lost that
//! segment's zero-length `retransmit` span and its flow step, and its
//! `host1.retransmits` series starts at 0 instead of 1.) To regenerate after
//! an intended format change, run
//! `cargo test --test span_trace -- --ignored regenerate_goldens` on the
//! commit whose output is the new reference (copy this file into a checkout
//! of it if it predates the test) and commit `tests/golden/`.

use outboard::host::MachineConfig;
use outboard::stack::StackConfig;
use outboard::testbed::{run_ttcp, ExperimentConfig, Metrics};

const TOTAL: usize = 1024 * 1024;
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn traced(seed: u64, faults: bool) -> Metrics {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    traced_on(stack, seed, faults)
}

fn traced_on(stack: StackConfig, seed: u64, faults: bool) -> Metrics {
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = seed;
    cfg.trace_spans = true;
    if faults {
        cfg.drop_p = 0.01;
        cfg.cab_alloc_fail_p = 0.02;
        cfg.cab_sdma_fail_p = 0.01;
        cfg.cab_mdma_fail_p = 0.01;
        cfg.cab_wedge_p = 0.05;
    }
    run_ttcp(&cfg)
}

/// The conservation identity the sink maintains: every span that was
/// opened either closed or was explicitly dropped by run teardown.
fn assert_conserved(m: &Metrics) {
    let opened = m.stats.counter_value("world.spans.opened");
    let closed = m.stats.counter_value("world.spans.closed");
    let dropped = m.stats.counter_value("world.spans.dropped");
    assert!(opened > 0, "a traced run must record spans");
    assert_eq!(
        opened,
        closed + dropped,
        "span leak: opened {opened} != closed {closed} + dropped {dropped}"
    );
    // Span counts are booked once, world-wide: no per-host copy.
    let per_host: Vec<&str> = m
        .stats
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("host") && name.contains(".spans."))
        .collect();
    assert!(
        per_host.is_empty(),
        "span counts booked per host too: {per_host:?}"
    );
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced(7, false);
    let b = traced(7, false);
    let (ta, tb) = (a.trace_json.unwrap(), b.trace_json.unwrap());
    assert!(!ta.is_empty() && ta.contains("\"traceEvents\""));
    assert_eq!(ta, tb, "same seed must produce byte-identical traces");
    // And the stats fold must agree too.
    assert_eq!(a.stats.to_json(), b.stats.to_json());
}

#[test]
fn different_seeds_still_trace_complete_chains() {
    // The complete single-copy causal chain of the acceptance criterion:
    // syscall → kernel output → SDMA → checksum → MDMA → wire → MDMA-rx →
    // demux → sockbuf dwell → sys_recv.
    let m = traced(11, false);
    assert!(m.completed);
    let t = m.trace_json.as_ref().unwrap();
    for stage in [
        "syscall",
        "kernel_output",
        "sdma",
        "checksum",
        "mdma_tx",
        "wire",
        "mdma_rx",
        "demux",
        "sockbuf",
        "sys_recv",
        "ack",
    ] {
        assert!(
            t.contains(&format!("\"name\":\"{stage}\"")),
            "trace is missing stage {stage}"
        );
    }
    // Chrome trace-event schema essentials.
    assert!(t.contains("\"displayTimeUnit\":\"ns\""));
    assert!(t.contains("\"ph\":\"X\"") && t.contains("\"pid\":"));
    assert!(t.contains("\"ph\":\"s\"") && t.contains("\"ph\":\"f\""));
    assert_conserved(&m);
}

/// A `span_open` whose close never runs surfaces as `dropped` at teardown.
/// Without faults every open has its close, on either stack.
#[test]
fn clean_runs_drop_no_spans_on_either_stack() {
    for stack in [StackConfig::single_copy(), StackConfig::unmodified()] {
        let m = traced_on(stack, 7, false);
        assert!(m.completed);
        assert_conserved(&m);
        assert_eq!(
            m.stats.counter_value("world.spans.dropped"),
            0,
            "a span was opened and never closed"
        );
    }
}

#[test]
fn span_conservation_holds_under_fault_matrix() {
    let m = traced(23, true);
    assert_conserved(&m);
    // Fault detours must themselves be visible as spans.
    let t = m.trace_json.as_ref().unwrap();
    assert!(
        t.contains("\"name\":\"retry_dwell\"") || m.stats.counter_value("world.faults.dropped") > 0,
        "faulty run shows neither retry dwell spans nor link drops"
    );
}

#[test]
fn critical_path_attributes_all_latency_to_named_stages() {
    let m = traced(7, false);
    let cp = m.critical_path.expect("traced run yields a critical path");
    let total: u64 = cp.shares.iter().map(|s| s.ns).sum();
    assert_eq!(
        total, cp.total_ns,
        "stage shares must sum exactly to the end-to-end latency"
    );
    assert_eq!(cp.total_ns, cp.end.nanos() - cp.start.nanos());
    assert!(!cp.shares.is_empty());
    let dominant = cp.dominant();
    assert_eq!(
        dominant, cp.shares[0].stage,
        "dominant stage must be the largest share"
    );
    assert!(cp.shares.iter().all(|s| s.ns <= cp.shares[0].ns));
    // 100% of latency lands on named stages (idle gaps are named too).
    assert!(cp.shares.iter().all(|s| !s.stage.is_empty()));
}

#[test]
fn untraced_runs_publish_no_span_metrics() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    let m = run_ttcp(&cfg);
    assert!(m.trace_json.is_none());
    assert!(m.critical_path.is_none());
    assert_eq!(m.stats.counter_value("world.spans.opened"), 0);
    assert!(!m.stats.to_json().contains("world.spans."));
    // The spans and the registry are the one event log: there is no
    // mechanism-trace ring left to report on.
    let trace_keys: Vec<&str> = m
        .stats
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.contains(".trace."))
        .collect();
    assert!(
        trace_keys.is_empty(),
        "trace-ring keys published: {trace_keys:?}"
    );
}

/// The golden runs: 64 KB single-copy in 8 KB writes, seed 7, spans and
/// the 1 ms timeline on (so the trace carries counter tracks too), clean
/// and under the `fault_soak` matrix. Returns `(file name, contents)`.
fn golden_outputs() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (faults, trace_name, cp_name) in [
        (false, "trace_small.json", "critical_path_small.txt"),
        (
            true,
            "trace_small_faults.json",
            "critical_path_small_faults.txt",
        ),
    ] {
        let mut stack = StackConfig::single_copy();
        stack.force_single_copy = true;
        let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 8 * 1024);
        cfg.total_bytes = 64 * 1024;
        cfg.seed = 7;
        cfg.trace_spans = true;
        cfg.timeline_enabled = true;
        if faults {
            cfg.drop_p = 0.05;
            cfg.corrupt_p = 0.01;
            cfg.dup_p = 0.01;
            cfg.cab_alloc_fail_p = 0.05;
        }
        let m = run_ttcp(&cfg);
        assert!(m.completed);
        out.push((trace_name, m.trace_json.expect("traced run")));
        out.push((cp_name, m.critical_path.expect("traced run").render()));
    }
    out
}

#[test]
fn trace_and_critical_path_match_the_parent_binarys_goldens() {
    for (name, got) in golden_outputs() {
        let want = std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(got == want, "{name} differs from tests/golden/{name}");
    }
}

#[test]
#[ignore = "writes tests/golden/; see the file header"]
fn regenerate_goldens() {
    std::fs::create_dir_all(GOLDEN_DIR).unwrap();
    for (name, got) in golden_outputs() {
        std::fs::write(format!("{GOLDEN_DIR}/{name}"), got).unwrap();
    }
}
