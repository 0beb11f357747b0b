//! Windowed-telemetry integration tests: timeline determinism (same seed),
//! exact conservation against the final registry
//! counters under the fault matrix, counter-track merging into the span
//! trace, flight-recorder dumps on chaos failures, and silence (no
//! `world.timeline.*` keys, byte-identical outputs) when disabled.

use outboard::host::MachineConfig;
use outboard::sim::chaos::json;
use outboard::sim::chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
use outboard::sim::Dur;
use outboard::stack::StackConfig;
use outboard::testbed::chaos::{run_chaos, DEFAULT_LIVENESS_BUDGET};
use outboard::testbed::{run_ttcp, ExperimentConfig, Metrics};

const TOTAL: usize = 1024 * 1024;

fn sampled(seed: u64, faults: bool, trace: bool) -> Metrics {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = seed;
    cfg.timeline_enabled = true;
    cfg.trace_spans = trace;
    if faults {
        cfg.drop_p = 0.01;
        cfg.cab_alloc_fail_p = 0.02;
        cfg.cab_sdma_fail_p = 0.01;
        cfg.cab_mdma_fail_p = 0.01;
        cfg.cab_wedge_p = 0.05;
    }
    run_ttcp(&cfg)
}

/// Pull `(name, kind, base, final, sum)` for every series out of a
/// timeline JSON document.
fn series_facts(tl_json: &str) -> Vec<(String, String, i64, i64, i64)> {
    let doc = json::parse(tl_json).expect("timeline JSON must parse");
    let obj = doc.as_object().expect("timeline is an object");
    assert_eq!(
        json::get(obj, "schema").and_then(|v| v.as_str()),
        Some("outboard-timeline-v1")
    );
    let series = json::get(obj, "series")
        .and_then(|v| v.as_array())
        .expect("series array");
    series
        .iter()
        .map(|s| {
            let f = s.as_object().expect("series object");
            let int = |key: &str| {
                json::get(f, key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("series missing {key}")) as i64
            };
            (
                json::get(f, "name")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
                json::get(f, "kind")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string(),
                int("base"),
                int("final"),
                int("sum"),
            )
        })
        .collect()
}

#[test]
fn same_seed_timelines_are_byte_identical() {
    let a = sampled(7, true, false);
    let b = sampled(7, true, false);
    let (ta, tb) = (a.timeline_json.unwrap(), b.timeline_json.unwrap());
    assert!(ta.contains("outboard-timeline-v1"));
    assert_eq!(ta, tb, "same seed must produce byte-identical timelines");
    assert_eq!(a.timeline_csv.unwrap(), b.timeline_csv.unwrap());
    assert_eq!(a.stats.to_json(), b.stats.to_json());
}

#[test]
fn window_delta_sums_equal_final_registry_counters_under_faults() {
    let m = sampled(17, true, false);
    let facts = series_facts(m.timeline_json.as_ref().unwrap());
    assert!(facts.len() >= 10, "expected 10 series, got {}", facts.len());
    for (name, kind, base, final_v, sum) in &facts {
        if kind == "counter" {
            assert_eq!(
                base + sum,
                *final_v,
                "conservation broken for {name}: base {base} + sum {sum} != final {final_v}"
            );
        }
    }
    // Cross-check the timeline's final values against the registry's own
    // end-of-run counters: the same quantities through a different path.
    let find = |n: &str| {
        facts
            .iter()
            .find(|(name, ..)| name == n)
            .unwrap_or_else(|| panic!("missing series {n}"))
    };
    let retrans = find("host0.retransmits");
    assert_eq!(
        retrans.3 as u64,
        m.stats.counter_value("host0.tcp.retransmit_segs"),
        "timeline final must equal the registry's retransmit counter"
    );
    assert_eq!(
        retrans.3 as u64, m.retransmits,
        "and the Metrics-level retransmit count"
    );
    let faults = find("world.faults");
    let reg_faults = m.stats.counter_value("world.faults.dropped")
        + m.stats.counter_value("world.faults.corrupted")
        + m.stats.counter_value("world.faults.reordered")
        + m.stats.counter_value("world.faults.duplicated")
        + m.stats.counter_value("world.faults.stealth_corrupted")
        + m.stats.counter_value("world.chaos.down_drops");
    assert_eq!(
        faults.3 as u64, reg_faults,
        "timeline world.faults must match the registry's fault totals"
    );
    assert!(faults.3 > 0, "the fault matrix must actually inject faults");
    // The registry publishes the sampler's own accounting while enabled.
    assert!(m.stats.counter_value("world.timeline.windows") > 0);
    assert_eq!(m.stats.counter_value("world.timeline.series"), 10);
    assert_eq!(m.stats.counter_value("world.timeline.window_ns"), 1_000_000);
}

#[test]
fn counter_tracks_merge_into_the_span_trace() {
    let m = sampled(7, false, true);
    let trace = m.trace_json.as_ref().expect("traced run exports JSON");
    let c_events = trace.matches("\"ph\":\"C\"").count();
    assert!(
        c_events >= 6,
        "expected counter-track events in the merged trace, got {c_events}"
    );
    for name in [
        "host0.tx_bytes",
        "host0.netmem_pages",
        "host0.retransmits",
        "host0.engine_busy_ns",
        "host1.tx_bytes",
        "world.pool_in_use",
        "world.faults",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "trace missing counter track {name}"
        );
    }
    // Counter events share the span pid space: world-wide tracks sit on
    // the fabric pid (2 in the two-host world).
    assert!(trace.contains("\"ph\":\"C\",\"pid\":2"));
    // And span slices are still there alongside.
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"ph\":\"M\""));
}

#[test]
fn disabled_timeline_is_silent_and_byte_identical() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = 7;
    cfg.trace_spans = true;
    let off = run_ttcp(&cfg);
    assert!(off.timeline_json.is_none());
    assert!(off.timeline_csv.is_none());
    assert!(off.timeline_summary.is_none());
    assert!(
        !off.stats.to_json().contains("world.timeline"),
        "disabled runs must not publish world.timeline.* keys"
    );
    assert!(
        !off.trace_json.as_ref().unwrap().contains("\"ph\":\"C\""),
        "disabled runs must not emit counter tracks"
    );
    // Enabling the sampler must not perturb the simulation itself: the
    // event stream, counters, and span trace stay byte-identical; only
    // the gated world.timeline.* keys are added.
    let on = sampled(7, false, true);
    assert_eq!(off.events_dispatched, on.events_dispatched);
    assert_eq!(off.retransmits, on.retransmits);
    assert_eq!(off.elapsed, on.elapsed);
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("world.timeline."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    // CSV, not JSON: one line per metric and no separator that depends on
    // which key sorts last.
    assert_eq!(
        strip(&off.stats.to_csv()),
        strip(&on.stats.to_csv()),
        "sampling must not change any non-timeline metric"
    );
}

#[test]
fn sparklines_summarize_every_series() {
    let m = sampled(7, false, false);
    let s = m.timeline_summary.unwrap();
    assert!(s.starts_with("timeline:"));
    // Header plus one row per series.
    assert_eq!(s.lines().count(), 11, "summary:\n{s}");
    assert!(s.contains("host0.tx_bytes"));
    assert!(s.contains("world.pool_in_use"));
}

#[test]
fn chaos_failure_dumps_a_consistent_flight_recorder() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = 5;
    cfg.verify = true;
    cfg.timeline_enabled = true;
    cfg.timeline_export = false;
    // A checksum-preserving corruption the oracle must catch.
    let schedule = ChaosSchedule {
        seed: 5,
        events: vec![ChaosEvent {
            at: Dur::millis(8),
            action: ChaosAction::StealthCorrupt { host: 0 },
        }],
    };
    let outcome = run_chaos(&cfg, &schedule, DEFAULT_LIVENESS_BUDGET);
    assert!(!outcome.passed(), "the planted bug must be caught");
    let flight = outcome
        .flight_json
        .as_ref()
        .expect("failed chaos runs dump a flight recorder");
    let doc = json::parse(flight).expect("flight JSON must parse");
    let obj = doc.as_object().unwrap();
    assert_eq!(
        json::get(obj, "schema").and_then(|v| v.as_str()),
        Some("outboard-flight-v1")
    );
    assert_eq!(json::get(obj, "seed").and_then(|v| v.as_u64()), Some(5));
    let violations = json::get(obj, "violations")
        .and_then(|v| v.as_array())
        .unwrap();
    assert_eq!(violations.len(), outcome.violations.len());
    assert!(violations[0].as_str().unwrap().starts_with("integrity"));
    // The embedded timeline fragment conserves and its last-window state
    // is consistent with the violation: the stealth corruption surfaces
    // in the world.faults series.
    let tl = json::get(obj, "timeline")
        .and_then(|v| v.as_object())
        .unwrap();
    let series = json::get(tl, "series").and_then(|v| v.as_array()).unwrap();
    let mut saw_faults = false;
    for s in series {
        let f = s.as_object().unwrap();
        let name = json::get(f, "name").and_then(|v| v.as_str()).unwrap();
        let kind = json::get(f, "kind").and_then(|v| v.as_str()).unwrap();
        let base = json::get(f, "base").and_then(|v| v.as_f64()).unwrap() as i64;
        let final_v = json::get(f, "final").and_then(|v| v.as_f64()).unwrap() as i64;
        let sum = json::get(f, "sum").and_then(|v| v.as_f64()).unwrap() as i64;
        if kind == "counter" {
            assert_eq!(base + sum, final_v, "flight fragment conservation: {name}");
        }
        if name == "world.faults" {
            saw_faults = true;
            assert!(
                final_v >= 1,
                "the stealth corruption must appear in world.faults"
            );
        }
    }
    assert!(saw_faults);
    // The span tail rides along (empty here — spans were not enabled —
    // but structurally present).
    let spans = json::get(obj, "spans").and_then(|v| v.as_object()).unwrap();
    assert!(json::get(spans, "recorded").is_some());
    assert!(json::get(spans, "tail").is_some());
    // Passing runs stay flight-free.
    let clean = run_chaos(
        &cfg,
        &ChaosSchedule {
            seed: 6,
            events: vec![],
        },
        DEFAULT_LIVENESS_BUDGET,
    );
    assert!(clean.passed(), "{:?}", clean.violations);
    assert!(clean.flight_json.is_none());
}
