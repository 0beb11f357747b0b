//! Chaos runner: execute a ttcp transfer under a scripted fault schedule,
//! judge the run with the [`crate::oracle`], and delta-debug failing
//! schedules down to minimal replayable repros.
//!
//! The runner steps the world in fixed sim-time chunks with a progress
//! watchdog: once every scheduled fault has healed
//! (`World::chaos_quiesce_at`), a run that makes no application-level
//! progress for the liveness budget is declared livelocked; a drained event
//! queue with the transfer unfinished is a deadlock. Because the world is a
//! deterministic discrete-event simulation, the same config + schedule
//! always produces the same [`ChaosOutcome`], which is what makes
//! [`shrink_failure`] sound.

use crate::experiment::{build_ttcp_world, ExperimentConfig};
use crate::oracle;
use crate::world::{ChaosStats, World};
use outboard_sim::chaos::{shrink, ChaosSchedule, ShrinkResult};
use outboard_sim::{Dur, MetricsRegistry, Time};

/// Default sim-time progress budget after all faults heal. Must exceed TCP's
/// maximum retransmit backoff (64 s): a partition healed just after a fully
/// backed-off rexmt timer re-arms legitimately stays silent that long.
pub const DEFAULT_LIVENESS_BUDGET: Dur = Dur::secs(70);

/// Watchdog polling granularity for the chunked run loop.
const CHUNK: Dur = Dur::millis(10);

/// Sim-time allowance after quiesce for heal probes and watchdog resets to
/// land before the end-state oracle runs (probe period is 10 ms).
const SETTLE: Dur = Dur::millis(100);

/// The verdict on one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Oracle violations, run-phase (liveness) first; empty = clean run.
    pub violations: Vec<String>,
    /// The transfer finished and the receiver read every byte.
    pub completed: bool,
    /// Virtual time consumed: [`World::now`] once the settle window has
    /// run, the last event popped before it closed.
    pub elapsed: Dur,
    /// Bytes the receiver read.
    pub bytes_read: usize,
    /// What the chaos driver actually applied.
    pub chaos: ChaosStats,
    /// Full metrics snapshot (byte-identical per seed — the determinism
    /// contract the repro files rely on).
    pub stats: MetricsRegistry,
    /// Flight-recorder dump (`outboard-flight-v1`): the last windows of the
    /// run's timeline plus the tail of the span ring, rendered only when
    /// the oracle found violations and the world had a timeline installed.
    /// Written beside the `repro_<seed>.json` so every shrunk repro ships
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

fn app_progress(w: &World) -> u64 {
    use crate::apps::{TtcpReceiver, TtcpSender};
    let sent = w.hosts[0].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpSender>())
        .map(|s| s.bytes_written)
        .unwrap_or(0);
    let read = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
        .map(|r| r.bytes_read)
        .unwrap_or(0);
    (sent + read) as u64
}

fn apps_finished(w: &World) -> bool {
    w.hosts
        .iter()
        .all(|h| h.apps[0].as_ref().map(|a| a.finished()).unwrap_or(false))
}

/// Run one ttcp transfer under `schedule` and judge it with the oracle.
pub fn run_chaos(
    cfg: &ExperimentConfig,
    schedule: &ChaosSchedule,
    liveness_budget: Dur,
) -> ChaosOutcome {
    if let Err(e) = cfg.validate() {
        return ChaosOutcome {
            violations: vec![format!("config: {e}")],
            completed: false,
            elapsed: Dur::ZERO,
            bytes_read: 0,
            chaos: ChaosStats::default(),
            stats: MetricsRegistry::default(),
            flight_json: None,
        };
    }
    let mut w = build_ttcp_world(cfg);
    w.install_chaos(schedule);
    let quiesce = w.chaos_quiesce_at().unwrap_or(Time::ZERO);

    // Hard ceiling: a generous bandwidth floor or the schedule's active
    // window plus the liveness budget, whichever is later.
    let floor = Time::ZERO + Dur::from_secs_f64((cfg.total_bytes as f64 * 8.0 / 1e6).max(30.0));
    let deadline = floor.max(quiesce + liveness_budget) + Dur::secs(5);

    let mut violations: Vec<String> = Vec::new();
    // `target` is wall sim-time swept by the watchdog; `w.now()` can lag it
    // when the queue has no events in a chunk.
    let mut target = w.now();
    let mut last_progress = app_progress(&w);
    let mut last_progress_at = target;
    loop {
        if apps_finished(&w) {
            break;
        }
        if w.pending_events() == 0 {
            violations.push(format!(
                "liveness: event queue drained at {} with the transfer unfinished (deadlock)",
                w.now()
            ));
            break;
        }
        if target >= deadline {
            violations.push(format!(
                "liveness: transfer unfinished at deadline {deadline} (started stalling at {last_progress_at})"
            ));
            break;
        }
        target += CHUNK;
        w.run_until(target);
        let p = app_progress(&w);
        if p != last_progress {
            last_progress = p;
            last_progress_at = target;
        } else if target >= quiesce {
            // All faults healed: silence beyond the budget is a livelock.
            let anchor = last_progress_at.max(quiesce);
            if target.since(anchor) > liveness_budget {
                violations.push(format!(
                    "liveness: no progress since {anchor} with all faults healed (budget {liveness_budget})"
                ));
                break;
            }
        }
    }

    // Let remaining heals, probes, and watchdogs land before judging the
    // end state (all chaos events sit at or before `quiesce`).
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
    let bytes_read = {
        use crate::apps::TtcpReceiver;
        w.hosts[1].apps[0]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
            .map(|r| r.bytes_read)
            .unwrap_or(0)
    };

    violations.extend(oracle::integrity_violations(&w, cfg.total_bytes));
    violations.extend(oracle::conservation_violations(&stats, w.hosts.len()));
    violations.extend(oracle::endstate_violations(&w));

    let flight_json = if violations.is_empty() {
        None
    } else {
        flight_json(&w, cfg.seed, &violations)
    };

    ChaosOutcome {
        completed: apps_finished(&w) && bytes_read >= cfg.total_bytes,
        elapsed,
        bytes_read,
        chaos: w.chaos_stats().unwrap_or_default(),
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

/// Delta-debug a failing schedule to local minimality, preserving the
/// failure *category* (so a shrunk liveness repro cannot silently morph
/// into, say, a conservation repro). Returns `None` when the schedule does
/// not actually fail under `cfg`.
pub fn shrink_failure(
    cfg: &ExperimentConfig,
    failing: &ChaosSchedule,
    liveness_budget: Dur,
) -> Option<ShrinkResult> {
    let baseline = run_chaos(cfg, failing, liveness_budget).category()?;
    Some(shrink(failing, |cand| {
        run_chaos(cfg, cand, liveness_budget).category().as_deref() == Some(baseline.as_str())
    }))
}
