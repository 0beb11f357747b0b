//! Every fault a 64 KB transfer can meet, one at a time: each action at
//! every crossing of every injection point — both hosts' outbound links
//! and CABs — judged by the chaos runner's oracle. The crossings are those
//! of the fault-free transfer, counted by the devices themselves.
//!
//! Ordered pairs, the second fault within four crossings of the first,
//! are too many for a debug build; the release CI step runs them:
//! `cargo test --release --test fault_plan`.

use outboard::host::MachineConfig;
use outboard::sim::fault::{Action, Point};
use outboard::sim::{Dur, Fault, FaultPlan};
use outboard::stack::StackConfig;
use outboard::testbed::chaos::run_chaos;
use outboard::testbed::experiment::build_ttcp_world;
use outboard::testbed::{oracle, ExperimentConfig, RunOutcome};

const TOTAL: usize = 64 * 1024;

fn cfg() -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.seed = 1;
    cfg.verify = true;
    cfg
}

/// What can happen at `point`.
fn actions(point: Point) -> Vec<Action> {
    match point {
        Point::Frame => vec![
            Action::Drop,
            Action::Corrupt(None),
            Action::Duplicate,
            Action::Delay(Dur::millis(1)),
        ],
        Point::Sdma | Point::Mdma => vec![Action::Fail, Action::Wedge],
        Point::Alloc => vec![Action::Fail],
        Point::Csum => vec![Action::Miscompute],
    }
}

/// Every (host, point, action, crossing) of the fault-free transfer, the
/// crossings counted through the transfer and a 5 s settle after it.
fn single_faults(cfg: &ExperimentConfig) -> Vec<(Fault, u64)> {
    let mut w = build_ttcp_world(cfg);
    assert_eq!(w.run_apps(), Ok(RunOutcome::Completed));
    let settled = w.now() + Dur::secs(5);
    w.run_until(settled);
    let mut faults = Vec::new();
    for host in 0..2 {
        let link = &w.links[&(host, outboard::stack::IfaceId(0))];
        let cab = &w.hosts[host].kernel.ifaces[0].cab_ref().expect("CAB").cab;
        for point in [
            Point::Frame,
            Point::Sdma,
            Point::Mdma,
            Point::Alloc,
            Point::Csum,
        ] {
            let device = if point == Point::Frame {
                &link.faults
            } else {
                &cab.faults
            };
            let n = device.counts().crossed(point);
            assert!(n > 0, "host{host} never crosses {point:?}");
            for action in actions(point) {
                faults.extend((1..=n).map(|k| (Fault::crossing(k, host, point, action), n)));
            }
        }
    }
    faults
}

/// How a run under a fault plan ended.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Completed, no violation.
    Clean,
    /// Completed, but the sender still held outboard pages when the
    /// runner's 100 ms settle closed — its last segments, unacknowledged,
    /// wait for their retransmission — and a 5 s settle clears them.
    Late,
    /// Anything else: the line and what went wrong.
    Failed(String),
}

/// Run `faults` under the chaos runner and judge the run; a run whose only
/// violations are outboard pages held at the end runs again with a 5 s
/// settle, which must clear them.
fn judge(cfg: &ExperimentConfig, faults: Vec<Fault>) -> Verdict {
    let plan = FaultPlan {
        seed: cfg.seed,
        faults,
    };
    let o = run_chaos(cfg, &plan);
    if o.completed && o.passed() {
        return Verdict::Clean;
    }
    let held = |v: &String| v.starts_with("endstate: ") && v.ends_with(" netmem pages");
    if o.completed && o.violations.iter().all(held) {
        let mut w = build_ttcp_world(cfg);
        w.install_faults(&plan);
        assert_eq!(w.run_apps(), Ok(RunOutcome::Completed));
        let settled = w.now() + Dur::secs(5);
        w.run_until(settled);
        if oracle::endstate_violations(&w).is_empty() {
            return Verdict::Late;
        }
    }
    let line: Vec<String> = plan.faults.iter().map(Fault::to_string).collect();
    Verdict::Failed(format!(
        "{}: {:?}: {:?}",
        line.join(" + "),
        o.outcome,
        o.violations
    ))
}

/// The single faults that end [`Verdict::Late`]: the receiver's engine
/// wedges on its last transfer, the watchdog resets it, and the sender's
/// last segment keeps its page until its retransmission at 0.50 s.
const LATE_SINGLES: [&str; 2] = ["crossing 5 host1.sdma wedge", "crossing 3 host1.mdma wedge"];

/// Ordered pairs that end [`Verdict::Late`], each with a receiver wedge
/// or a lost final acknowledgement.
const LATE_PAIRS: usize = 220;

#[test]
fn every_single_fault_of_a_64k_transfer_is_survived() {
    let cfg = cfg();
    let singles = single_faults(&cfg);
    let (mut late, mut failed) = (Vec::new(), Vec::new());
    for &(fault, _) in &singles {
        match judge(&cfg, vec![fault]) {
            Verdict::Clean => {}
            Verdict::Late => late.push(fault.to_string()),
            Verdict::Failed(why) => failed.push(why),
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {} single faults failed:\n{}",
        failed.len(),
        singles.len(),
        failed.join("\n")
    );
    assert_eq!(singles.len(), 125);
    assert_eq!(late, LATE_SINGLES);
}

/// Every ordered pair of single faults whose second lands within four
/// crossings of its point after the first's crossing.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release --test fault_plan"
)]
fn every_close_pair_of_faults_of_a_64k_transfer_is_survived() {
    let cfg = cfg();
    let singles = single_faults(&cfg);
    let (mut runs, mut late) = (0usize, 0usize);
    let mut failed = Vec::new();
    for &(first, _) in &singles {
        let outboard::sim::fault::Trigger::Crossing(k) = first.trigger else {
            unreachable!("single faults are crossing entries")
        };
        for &(second, n) in &singles {
            let outboard::sim::fault::Trigger::Crossing(j) = second.trigger else {
                unreachable!("single faults are crossing entries")
            };
            if j < k || j > (k + 4).min(n) || second == first {
                continue;
            }
            runs += 1;
            match judge(&cfg, vec![first, second]) {
                Verdict::Clean => {}
                Verdict::Late => late += 1,
                Verdict::Failed(why) => failed.push(why),
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {runs} fault pairs failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
    assert_eq!((runs, late), (7347, LATE_PAIRS));
}
