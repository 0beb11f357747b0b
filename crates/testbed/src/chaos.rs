//! Chaos runner: execute a ttcp transfer under a fault plan, judge the run
//! with the [`crate::oracle`], and delta-debug failing plans down to
//! minimal replayable repros.
//!
//! The transfer runs under [`World::run_apps`] until it completes, gives
//! up or deadlocks: `completed`, `gave_up` or `drained`. Any ending but
//! [`RunOutcome::Completed`] is the run's `liveness:` violation. Because
//! the world is a deterministic discrete-event simulation, the same
//! config + plan always produces the same [`ChaosOutcome`], which is what
//! makes [`shrink_failure`] sound, and the run's log replays it:
//! [`render_repro`] writes a failure as a file, shape and log, and
//! `chaos --replay` runs that file again, traced.

use crate::experiment::{finish_ttcp, ttcp_world, ExperimentConfig, Metrics};
use crate::oracle;
use crate::run::RunOutcome;
use outboard_sim::chaos::{shrink, ShrinkResult};
use outboard_sim::{Dur, FaultPlan};
use outboard_stack::CAB_PROBE_INTERVAL;

/// Sim-time allowance after quiesce for heal probes and watchdog resets to
/// land before the end-state oracle runs: ten recovery-probe periods.
const SETTLE: Dur = Dur::nanos(10 * CAB_PROBE_INTERVAL.as_nanos());

/// The verdict on one chaos run: the oracle's findings and the fault log
/// beside the run's own record, its [`Metrics`].
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// Oracle violations, run-phase (liveness) first; empty = clean run.
    pub violations: Vec<String>,
    /// Every fault that fired, in firing order: a plan that replays the
    /// run with no `Chance` left.
    pub log: FaultPlan,
    /// The run's record, closed out once the settle window has run (so its
    /// `elapsed` is [`World::now`](crate::World::now) then, and its `stats`
    /// are byte-identical per seed, the determinism contract the repro
    /// files rely on). `None` when the configuration was rejected.
    pub metrics: Option<Metrics>,
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
    let m = finish_ttcp(&mut w, cfg, outcome);

    violations.extend(oracle::integrity_violations(&w, cfg.total_bytes));
    violations.extend(oracle::conservation_violations(&m.stats, w.hosts.len()));
    violations.extend(oracle::endstate_violations(&w));
    violations.extend(oracle::copy_violations(&w));

    ChaosOutcome {
        violations,
        log: w.fault_log().plan(cfg.seed),
        metrics: Some(m),
    }
}

/// A failing run as a file: its shape (`total` bytes in `write`-byte
/// writes), then its plan. [`parse_repro`] reads it back.
pub fn render_repro(cfg: &ExperimentConfig, plan: &FaultPlan) -> String {
    let (total, write) = (cfg.total_bytes, cfg.write_size);
    format!("total {total}\nwrite {write}\n{}", plan.render())
}

/// Read [`render_repro`]'s text: its plan, and `base` with the file's run
/// shape and the plan's seed. A plan without shape lines (any run's fault
/// log) keeps `base`'s shape.
pub fn parse_repro(
    text: &str,
    base: &ExperimentConfig,
) -> Result<(ExperimentConfig, FaultPlan), String> {
    let mut cfg = base.clone();
    let mut plan_text = String::new();
    for (i, line) in text.lines().enumerate() {
        let size = match line.trim().split_once(' ') {
            Some(("total", n)) => Some((&mut cfg.total_bytes, n)),
            Some(("write", n)) => Some((&mut cfg.write_size, n)),
            _ => None,
        };
        // A shape line leaves a blank one, so plan errors keep their line.
        match size {
            Some((field, n)) => match n.trim().parse() {
                Ok(n) if n > 0 => *field = n,
                _ => return Err(format!("line {}: bad size {n:?}", i + 1)),
            },
            None => plan_text.push_str(line),
        }
        plan_text.push('\n');
    }
    let plan = FaultPlan::parse(&plan_text).map_err(|e| e.to_string())?;
    cfg.seed = plan.seed;
    Ok((cfg, plan))
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
