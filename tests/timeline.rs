//! Windowed-telemetry integration tests: timeline determinism (same seed),
//! exact conservation against the final registry
//! counters under the fault matrix, counter-track merging into the span
//! trace, a chaos failure's traced replay from its repro, and silence (no
//! `world.timeline.*` keys, byte-identical outputs) when disabled.

use outboard::host::MachineConfig;
use outboard::sim::fault::{Action, Point, Target};
use outboard::sim::{json, Dur, Fault, FaultPlan, Time};
use outboard::stack::StackConfig;
use outboard::testbed::chaos::{parse_repro, render_repro, run_chaos};
use outboard::testbed::experiment::{build_ttcp_world, run_ttcp_in};
use outboard::testbed::{run_ttcp, ExperimentConfig, Metrics, World};

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

/// A closed run records nothing more: the `traced_small` configuration
/// (1 KB writes, 512 KB, spans and the 1 ms timeline on), run on for 5 s
/// of virtual time past its close-out, samples no window and records no
/// span, and its exports are what they were at the close.
#[test]
fn a_world_run_on_past_its_close_out_records_nothing() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 1024);
    cfg.total_bytes = 512 * 1024;
    cfg.seed = 7;
    cfg.verify = false;
    cfg.trace_spans = true;
    cfg.timeline_enabled = true;
    let mut w = build_ttcp_world(&cfg);
    let m = run_ttcp_in(&mut w, &cfg);
    let record = |w: &World| {
        let reg = w.metrics(m.elapsed);
        let count = |key: &str| reg.counter_value(key);
        let timeline = w.timeline().map(|tl| tl.to_json());
        (
            count("world.timeline.windows"),
            count("world.spans.opened"),
            w.export_trace(cfg.trace_flows),
            timeline.expect("a sampled run"),
        )
    };
    let at_close = record(&w);
    assert_eq!(
        (at_close.0, at_close.1),
        (255, m.stats.counter_value("world.spans.opened"))
    );
    assert!(
        Some(&at_close.2) == m.trace_json.as_ref() && Some(&at_close.3) == m.timeline_json.as_ref()
    );
    let events = w.events_dispatched;
    w.run_until(w.now() + Dur::secs(5));
    assert!(
        w.events_dispatched > events,
        "nothing ran past the close-out"
    );
    let after = record(&w);
    assert_eq!((after.0, after.1), (at_close.0, at_close.1));
    // Not `assert_eq!`: a failure would print two large files.
    assert!(after.2 == at_close.2, "the trace moved after the close-out");
    assert!(
        after.3 == at_close.3,
        "the timeline moved after the close-out"
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

/// A chaos failure's repro — the run's shape and fault log — replays the
/// run traced from the text alone: the planted bug is caught again, the
/// trace parses, its counter tracks sum to the registry's final counters,
/// and the stealth corruption shows in `world.faults`.
#[test]
fn a_chaos_failure_replays_traced_from_its_repro() {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = 5;
    cfg.verify = true;
    // A checksum-preserving corruption the oracle must catch.
    let at = Time::ZERO + Dur::millis(8);
    let stealth = Fault::at(at, Target::Point(0, Point::Frame), Action::StealthCorrupt);
    let plan = FaultPlan {
        seed: 5,
        faults: vec![stealth],
    };
    let failed = run_chaos(&cfg, &plan);
    assert!(!failed.passed(), "the planted bug must be caught");
    let failed_run = failed.metrics.as_ref().expect("the run ran");
    assert!(
        failed_run.trace_json.is_none(),
        "an untraced run renders none"
    );

    // Another shape and seed in the base: the repro's own must win.
    let mut base = cfg.clone();
    (base.total_bytes, base.write_size, base.seed) = (8 * TOTAL, 4096, 0);
    let repro = render_repro(&cfg, &failed.log);
    let (mut traced, log) = parse_repro(&repro, &base).expect("a repro parses");
    assert_eq!(
        (traced.total_bytes, traced.write_size, traced.seed),
        (TOTAL, 64 * 1024, 5)
    );
    traced.trace_spans = true;
    traced.timeline_enabled = true;
    traced.timeline_export = false;
    let replay = run_chaos(&traced, &log);
    assert_eq!(replay.violations, failed.violations);
    assert!(replay.violations[0].starts_with("integrity"));
    assert_eq!(replay.log.render(), failed.log.render());
    let replay = replay.metrics.expect("the replay ran");
    assert_eq!(replay.elapsed, failed_run.elapsed);

    let trace = replay
        .trace_json
        .expect("a traced replay renders its trace");
    let doc = json::parse(&trace).expect("the trace must parse");
    let events = json::get(doc.as_object().unwrap(), "traceEvents")
        .and_then(|v| v.as_array())
        .expect("a traceEvents array");
    // Every counter series starts at zero, so its window deltas sum to the
    // final value the registry holds.
    let sum_of = |track: &str| -> i64 {
        let counter = |e: &&json::Value| {
            let e = e.as_object().unwrap();
            let name = json::get(e, "name").and_then(|v| v.as_str());
            json::get(e, "ph").and_then(|v| v.as_str()) == Some("C") && name == Some(track)
        };
        let value = |e: &json::Value| {
            let args = json::get(e.as_object().unwrap(), "args").and_then(|v| v.as_object());
            args.unwrap()[0].1.as_f64().unwrap() as i64
        };
        events.iter().filter(counter).map(value).sum()
    };
    let reg = |key: &str| replay.stats.counter_value(key) as i64;
    assert_eq!(sum_of("host0.tx_bytes"), reg("host0.ip.tx_bytes"));
    assert_eq!(
        sum_of("host0.retransmits"),
        reg("host0.tcp.retransmit_segs")
    );
    let faults = sum_of("world.faults");
    let fates = [
        "dropped",
        "corrupted",
        "reordered",
        "duplicated",
        "stealth_corrupted",
    ];
    let reg_faults = fates
        .iter()
        .map(|k| reg(&format!("world.faults.{k}")))
        .sum::<i64>()
        + reg("world.chaos.down_drops");
    assert_eq!(faults, reg_faults, "world.faults must conserve");
    assert!(
        faults >= 1,
        "the stealth corruption must appear in world.faults"
    );
    assert!(trace.contains("\"ph\":\"X\""), "no span slices");
}
