//! Chaos runner: execute a ttcp transfer under a fault plan, judge the run
//! with the [`crate::oracle`], and delta-debug failing plans down to
//! minimal replayable repros.
//!
//! The transfer runs under [`World::run_apps`] until it completes, gives
//! up or deadlocks: `completed`, `gave_up` or `drained`. Any ending but
//! [`RunOutcome::Completed`] is the run's `liveness:` violation. Because
//! the world is a deterministic discrete-event simulation, the same
//! config + plan always produces the same [`ChaosOutcome`], which is what
//! makes [`shrink_failure`] sound, and the run's log replays it.

use crate::apps::TtcpReceiver;
use crate::experiment::{ttcp_world, ExperimentConfig};
use crate::oracle;
use crate::run::{RunError, RunOutcome};
use crate::world::World;
use outboard_sim::chaos::{shrink, ShrinkResult};
use outboard_sim::{Dur, FaultPlan, MetricsRegistry, Time};
use outboard_stack::CAB_PROBE_INTERVAL;

/// Sim-time allowance after quiesce for heal probes and watchdog resets to
/// land before the end-state oracle runs: ten recovery-probe periods.
const SETTLE: Dur = Dur::nanos(10 * CAB_PROBE_INTERVAL.as_nanos());

/// The verdict on one chaos run.
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// Oracle violations, run-phase (liveness) first; empty = clean run.
    pub violations: Vec<String>,
    /// How the run loop ended (`None` when the config was rejected).
    pub outcome: Option<Result<RunOutcome, RunError>>,
    /// The transfer finished and the receiver read every byte.
    pub completed: bool,
    /// Virtual time consumed: [`World::now`] once the settle window has
    /// run, the last event popped before it closed.
    pub elapsed: Dur,
    /// Bytes the receiver read.
    pub bytes_read: usize,
    /// Every fault that fired, in firing order: a plan that replays the
    /// run with no `Chance` left.
    pub log: FaultPlan,
    /// Full metrics snapshot (byte-identical per seed — the determinism
    /// contract the repro files rely on).
    pub stats: MetricsRegistry,
    /// Flight-recorder dump (`outboard-flight-v1`): the last windows of the
    /// run's timeline plus the tail of the span ring, rendered only when
    /// the oracle found violations and the world had a timeline installed.
    /// Written beside the `repro_<seed>.faults` so every shrunk repro ships
    /// with the telemetry of its own crash.
    pub flight_json: Option<String>,
}

impl ChaosOutcome {
    /// True when the oracle found nothing wrong.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Stable category token of the first violation (`"integrity"`,
    /// `"liveness"`, ...) — the shrinker's notion of "the same failure".
    pub fn category(&self) -> Option<String> {
        self.violations
            .first()
            .map(|v| oracle::violation_category(v).to_string())
    }
}

/// Run one ttcp transfer under `plan` and judge it with the oracle. The
/// plan is all the run's faults: the configuration's probabilities enter
/// only through [`ExperimentConfig::fault_plan`].
pub fn run_chaos(cfg: &ExperimentConfig, plan: &FaultPlan) -> ChaosOutcome {
    if let Err(e) = cfg.fault_plan() {
        let violations = vec![format!("config: {e}")];
        return ChaosOutcome {
            violations,
            ..ChaosOutcome::default()
        };
    }
    let mut w = ttcp_world(cfg, plan);
    let quiesce = w.faults_quiesce_at();
    let outcome = w.run_apps();
    let mut violations: Vec<String> = Vec::new();
    match outcome {
        Ok(RunOutcome::Completed) => {}
        Ok(o) => violations.push(o.to_string()),
        Err(e) => violations.push(e.to_string()),
    }

    // Let remaining heals, probes, and watchdogs land before judging the
    // end state (every `At` entry sits at or before `quiesce`).
    let settle = quiesce.max(w.now()) + SETTLE;
    w.run_until(settle);

    if w.span_tracing_on() {
        w.finish_spans(w.now());
    }
    if w.timeline_on() {
        w.finish_timeline(w.now());
    }
    let elapsed = w.now().since(Time::ZERO);
    let stats = w.metrics(elapsed);
    let bytes_read = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|app| app.as_any().downcast_ref::<TtcpReceiver>())
        .map_or(0, |rx| rx.bytes_read);

    violations.extend(oracle::integrity_violations(&w, cfg.total_bytes));
    violations.extend(oracle::conservation_violations(&stats, w.hosts.len()));
    violations.extend(oracle::endstate_violations(&w));
    violations.extend(oracle::copy_violations(&w));

    let flight_json = if violations.is_empty() {
        None
    } else {
        flight_json(&w, cfg.seed, &violations)
    };

    ChaosOutcome {
        outcome: Some(outcome),
        completed: outcome == Ok(RunOutcome::Completed) && bytes_read >= cfg.total_bytes,
        elapsed,
        bytes_read,
        log: w.fault_log().plan(cfg.seed),
        stats,
        violations,
        flight_json,
    }
}

/// Windows of timeline history a flight dump retains.
const FLIGHT_WINDOWS: usize = 64;
/// Span-ring tail entries a flight dump retains.
const FLIGHT_SPANS: usize = 64;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the flight-recorder dump (`outboard-flight-v1`): the violation
/// list, the last [`FLIGHT_WINDOWS`] windows of the timeline (base-refolded
/// so conservation holds within the fragment), and the tail of the merged
/// span ring. `None` when the world has no timeline installed.
fn flight_json(w: &World, seed: u64, violations: &[String]) -> Option<String> {
    use std::fmt::Write as _;
    let tl = w.timeline()?;
    let mut out = String::from("{\n  \"schema\": \"outboard-flight-v1\",\n");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"end_ns\": {},", w.now().nanos());
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\"", json_escape(v));
    }
    out.push_str("\n  ],\n");
    // The timeline fragment is itself a complete `outboard-timeline-v1`
    // object; embed it verbatim (indentation is cosmetic only).
    let _ = write!(out, "  \"timeline\": {}", tl.tail_json(FLIGHT_WINDOWS));
    out.truncate(out.trim_end().len());
    out.push_str(",\n  \"spans\": {");
    let spans = w.merged_spans();
    let tail_from = spans.len().saturating_sub(FLIGHT_SPANS);
    let _ = write!(out, "\n    \"recorded\": {},", spans.len());
    let _ = write!(out, "\n    \"tail_from\": {tail_from},");
    out.push_str("\n    \"tail\": [");
    for (i, s) in spans[tail_from..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"stage\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"bytes\": {}, \"flow\": \"{:08x}\", \"seq_lo\": {}, \"fate\": \"{}\"}}",
            s.stage.name(),
            s.start.nanos(),
            s.end.nanos(),
            s.bytes,
            s.flow.group(),
            s.flow.seq_lo(),
            if s.dropped { "dropped" } else { "ok" },
        );
    }
    out.push_str("\n    ]\n  }\n}\n");
    Some(out)
}

/// Delta-debug a failing plan to local minimality, preserving the failure
/// *category* (so a shrunk liveness repro cannot silently morph into, say,
/// a conservation repro). Returns `None` when the plan does not actually
/// fail under `cfg`.
pub fn shrink_failure(cfg: &ExperimentConfig, failing: &FaultPlan) -> Option<ShrinkResult> {
    let baseline = run_chaos(cfg, failing).category()?;
    Some(shrink(failing, |cand| {
        run_chaos(cfg, cand).category().as_deref() == Some(baseline.as_str())
    }))
}
