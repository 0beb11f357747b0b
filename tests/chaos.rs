//! Chaos-engine end-to-end tests: deterministic fault plans against the
//! ttcp testbed, judged by the oracle and delta-debugged on failure.
//!
//! Covers the acceptance criteria: (1) a seeded chaos run is byte-identical
//! per seed; (2) a planted oracle violation — a checksum-preserving
//! corruption the transport cannot see — is caught, shrunk to a handful of
//! entries, and replays the same failure from its serialized repro; plus the
//! degrade/recover flap soak and the partition-heal liveness scenarios.

use outboard::host::MachineConfig;
use outboard::sim::fault::{Action, Point, Target, Trigger};
use outboard::sim::{Dur, Fault, FaultPlan, Time};
use outboard::stack::StackConfig;
use outboard::testbed::chaos::{run_chaos, shrink_failure, ChaosOutcome};
use outboard::testbed::oracle::violation_category;
use outboard::testbed::{ExperimentConfig, Metrics};

fn base_cfg(total: usize, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = total;
    cfg.seed = seed;
    cfg.verify = true;
    cfg
}

/// An `At` entry `ms` milliseconds into the run.
fn at_ms(ms: u64, target: Target, action: Action) -> Fault {
    Fault::at(Time::ZERO + Dur::millis(ms), target, action)
}

/// The run's record (its configuration was accepted).
fn record(o: &ChaosOutcome) -> &Metrics {
    o.metrics.as_ref().expect("an accepted configuration runs")
}

/// A `world.chaos.*` counter of the run.
fn chaos(o: &ChaosOutcome, key: &str) -> u64 {
    record(o).stats.counter_value(&format!("world.chaos.{key}"))
}

#[test]
fn chaos_runs_are_byte_identical_per_seed() {
    const TOTAL: usize = 1024 * 1024;
    let cfg = base_cfg(TOTAL, 77);
    let plan = FaultPlan::generate(77, 5, 2);

    let a = run_chaos(&cfg, &plan);
    let b = run_chaos(&cfg, &plan);
    assert!(a.passed(), "generated plan must pass: {:?}", a.violations);
    assert_eq!(
        record(&a).elapsed,
        record(&b).elapsed,
        "same seed must take identical sim time"
    );
    assert_eq!(
        record(&a).stats.report(),
        record(&b).stats.report(),
        "same seed + plan must snapshot a byte-identical registry"
    );
    assert_eq!(a.log, b.log, "same seed + plan must log the same faults");

    let other = run_chaos(&base_cfg(TOTAL, 78), &FaultPlan::generate(78, 5, 2));
    assert_ne!(
        record(&a).stats.report(),
        record(&other).stats.report(),
        "different seeds should not collide"
    );
}

#[test]
fn planted_stealth_bug_is_caught_shrunk_and_replayed() {
    const TOTAL: usize = 1024 * 1024;
    let cfg = base_cfg(TOTAL, 1995);

    // Benign background chaos plus the planted bug: a two-byte corruption
    // engineered to preserve the Internet checksum, so only the end-to-end
    // pattern oracle can see it.
    let mut plan = FaultPlan::generate(1995, 5, 2);
    let bug = at_ms(8, Target::Point(0, Point::Frame), Action::StealthCorrupt);
    plan.faults.push(bug);
    plan.faults.sort_by_key(Fault::time);

    let outcome = run_chaos(&cfg, &plan);
    assert!(!outcome.passed(), "the oracle must catch the planted bug");
    assert_eq!(
        outcome.category().as_deref(),
        Some("integrity"),
        "stealth corruption must surface as a stream-integrity violation: {:?}",
        outcome.violations
    );

    // Delta-debug to local minimality: the repro must be tiny.
    let shrunk = shrink_failure(&cfg, &plan).expect("plan fails, so it must shrink");
    assert!(
        shrunk.plan.faults.len() <= 3,
        "shrunk to {} entries, wanted <= 3:\n{}",
        shrunk.plan.faults.len(),
        shrunk.plan.render()
    );
    assert!(
        shrunk.plan.faults.contains(&bug),
        "the culprit entry must survive shrinking"
    );

    // The serialized repro replays the same failure category.
    let text = shrunk.plan.render();
    let reparsed = FaultPlan::parse(&text).expect("repro round-trips");
    assert_eq!(reparsed, shrunk.plan);
    let replay = run_chaos(&cfg, &reparsed);
    assert_eq!(
        replay.category().as_deref(),
        Some("integrity"),
        "replayed repro must reproduce the failure: {:?}",
        replay.violations
    );
    assert_eq!(
        replay.violations.first().map(|v| violation_category(v)),
        Some("integrity")
    );
}

#[test]
fn netmem_flap_soak_degrades_and_recovers_every_cycle() {
    const TOTAL: usize = 2 * 1024 * 1024;
    let cfg = base_cfg(TOTAL, 31);

    // Four squeeze/release cycles: reserve all of network memory for
    // 100 ms (long enough to ride out the 2 ms-base retry ladder and force
    // the traditional path) every 150 ms, driving repeated degraded-mode
    // entries and probe-driven recoveries.
    let squeeze = Action::NetmemSqueeze {
        permille: 1000,
        dur: Dur::millis(100),
    };
    let faults = (0..4u64)
        .map(|k| at_ms(10 + 150 * k, Target::Host(0), squeeze))
        .collect();
    let plan = FaultPlan { seed: 31, faults };

    let outcome = run_chaos(&cfg, &plan);
    assert!(
        outcome.passed(),
        "flap soak failed: {:?}",
        outcome.violations
    );
    assert!(record(&outcome).completed);
    assert_eq!(chaos(&outcome, "netmem_squeezes"), 4);
    assert_eq!(chaos(&outcome, "heals_applied"), 4);

    // The flapping actually exercised degraded mode, and every entry has a
    // matching exit after the final heal (also enforced by the oracle's
    // end-state pass — re-checked here for the counters' sake).
    let entries = record(&outcome)
        .stats
        .counter_value("host0.cab0.drv.degraded_entries");
    let exits = record(&outcome)
        .stats
        .counter_value("host0.cab0.drv.degraded_exits");
    assert!(entries > 0, "squeezes never forced the traditional path");
    assert_eq!(entries, exits, "unbalanced degraded transitions");
}

#[test]
fn partition_heals_after_backoff_ceiling_and_completes() {
    const TOTAL: usize = 512 * 1024;
    let cfg = base_cfg(TOTAL, 5);

    // Partition the fabric mid-transfer and keep it down for 130 s of sim
    // time — long enough for TCP's retransmit backoff to hit its 64 s
    // ceiling — then heal and require the transfer to finish on its own.
    let plan = FaultPlan {
        seed: 5,
        faults: vec![at_ms(30, Target::All, Action::Partition(Dur::secs(130)))],
    };

    let outcome = run_chaos(&cfg, &plan);
    assert!(
        outcome.passed(),
        "partition-heal run failed: {:?}",
        outcome.violations
    );
    assert!(
        record(&outcome).completed,
        "transfer did not finish after the heal"
    );
    assert_eq!(chaos(&outcome, "partitions"), 1);
    assert!(
        record(&outcome)
            .stats
            .counter_value("host0.tcp.retransmit_segs")
            > 0,
        "a 130 s partition must force retransmissions"
    );
    assert!(
        record(&outcome)
            .stats
            .counter_value("world.chaos.down_drops")
            > 0,
        "frames offered during the outage must be counted as down_drops"
    );
}

#[test]
fn every_chaos_action_kind_applies_cleanly() {
    const TOTAL: usize = 2 * 1024 * 1024;
    let cfg = base_cfg(TOTAL, 11);

    let plan = FaultPlan {
        seed: 11,
        faults: vec![
            at_ms(
                5,
                Target::Host(0),
                Action::DelaySpike {
                    extra: Dur::micros(400),
                    dur: Dur::millis(20),
                },
            ),
            at_ms(10, Target::Host(1), Action::LinkDown(Dur::millis(25))),
            at_ms(40, Target::Point(0, Point::Sdma), Action::Wedge),
            at_ms(55, Target::Host(1), Action::HostPause(Dur::millis(10))),
            at_ms(
                70,
                Target::Host(0),
                Action::NetmemSqueeze {
                    permille: 800,
                    dur: Dur::millis(20),
                },
            ),
            at_ms(100, Target::Host(0), Action::BoardCrash),
            at_ms(120, Target::All, Action::Partition(Dur::millis(30))),
        ],
    };

    let outcome = run_chaos(&cfg, &plan);
    assert!(
        outcome.passed(),
        "all-kinds run failed: {:?}",
        outcome.violations
    );
    assert_eq!(chaos(&outcome, "events_applied"), 7);
    for key in [
        "link_downs",
        "partitions",
        "delay_spikes",
        "cab_wedges",
        "board_crashes",
        "netmem_squeezes",
        "host_pauses",
    ] {
        assert_eq!(chaos(&outcome, key), 1, "{key}");
    }
    // The world's entries are logged as written, when they apply; the
    // wedge as the SDMA crossing that fired it.
    let (wedge, world): (Vec<Fault>, Vec<Fault>) =
        outcome.log.faults.iter().partition(|f| f.action.on_point());
    let planned: Vec<Fault> = plan
        .faults
        .iter()
        .filter(|f| !f.action.on_point())
        .copied()
        .collect();
    assert_eq!(world, planned);
    assert!(
        matches!(
            wedge[..],
            [Fault {
                trigger: Trigger::Crossing(_),
                target: Target::Point(0, Point::Sdma),
                action: Action::Wedge,
            }]
        ),
        "{wedge:?}"
    );
    assert_eq!(
        record(&outcome)
            .stats
            .counter_value("host0.cab0.drv.board_crashes"),
        1,
        "the board crash must reach the driver's counter"
    );
}

#[test]
fn invalid_fault_probabilities_are_rejected_not_run() {
    let mut cfg = base_cfg(64 * 1024, 1);
    cfg.drop_p = 1.5;
    let err = cfg.fault_plan().expect_err("p > 1 must be rejected");
    assert_eq!(err.knob, "drop_p");

    let outcome = run_chaos(&cfg, &FaultPlan::default());
    assert_eq!(outcome.category().as_deref(), Some("config"));
    assert!(
        outcome.metrics.is_none(),
        "a rejected configuration never runs"
    );

    cfg.drop_p = 0.01;
    cfg.cab_wedge_p = -0.25;
    assert_eq!(
        cfg.fault_plan()
            .expect_err("negative p must be rejected")
            .knob,
        "cab_wedge_p"
    );
}

#[test]
fn receiver_mdma_wedge_reset_drops_stale_rx_instead_of_corrupting() {
    // Found by the chaos sweep (seed 9, shrunk to this one event): the
    // receiver's MDMA-tx engine wedges while an ACK is outbound, the
    // watchdog board-resets 20 ms later, and the reset lands while a data
    // frame sits between media arrival and its receive interrupt. The stale
    // interrupt names a buffer that died with the reset, so the driver must
    // discard it rather than queue a descriptor whose copy-out reads freed
    // memory — which surfaced as ~32 KB of zeros at the application under
    // a checksum that had verified.
    //
    // The timed run logs the wedge as the MDMA crossing it landed on; that
    // line, as a plan, is the same run.
    let cfg = base_cfg(8 * 1024 * 1024, 9);
    let mdma = Target::Point(1, Point::Mdma);
    let timed = Fault::at(Time(73_950_000), mdma, Action::Wedge);
    let crossing = Fault::crossing(WEDGE_CROSSING, 1, Point::Mdma, Action::Wedge);
    let mut runs = Vec::new();
    for fault in [timed, crossing] {
        let plan = FaultPlan {
            seed: 9,
            faults: vec![fault],
        };
        let outcome = run_chaos(&cfg, &plan);
        assert!(
            outcome.passed(),
            "receiver wedge-reset run failed: {:?}",
            outcome.violations
        );
        assert!(
            record(&outcome).completed,
            "transfer must finish after the reset"
        );
        assert_eq!(
            record(&outcome)
                .stats
                .counter_value("host1.cab0.drv.watchdog_resets"),
            1,
            "the wedge must trigger exactly one watchdog reset"
        );
        assert_eq!(
            record(&outcome)
                .stats
                .counter_value("host1.cab0.drv.stale_rx_drops"),
            1,
            "the reset-crossing frame must be discarded as stale, not delivered"
        );
        assert_eq!(
            record(&outcome)
                .stats
                .counter_value("host1.cab0.faults.wedges"),
            1
        );
        runs.push(outcome);
    }
    assert_eq!(runs[0].log.faults, [crossing]);
    assert_eq!(runs[1].log.faults, [crossing]);
    // The timed run dispatches one event more: its `At` entry's.
    let events = |o: &ChaosOutcome| record(o).stats.counter_value("world.events_dispatched");
    assert_eq!(
        (
            record(&runs[0]).elapsed,
            record(&runs[0]).bytes,
            events(&runs[0])
        ),
        (
            record(&runs[1]).elapsed,
            record(&runs[1]).bytes,
            events(&runs[1]) + 1
        )
    );
}

/// The MDMA crossing of host 1's CAB the 73.95 ms wedge lands on.
const WEDGE_CROSSING: u64 = 39;
