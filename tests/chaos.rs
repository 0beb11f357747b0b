//! Chaos-engine end-to-end tests: deterministic fault schedules against the
//! ttcp testbed, judged by the oracle and delta-debugged on failure.
//!
//! Covers the acceptance criteria: (1) a seeded chaos run is byte-identical
//! per seed; (2) a planted oracle violation — a checksum-preserving
//! corruption the transport cannot see — is caught, shrunk to a handful of
//! events, and replays the same failure from its serialized repro; plus the
//! degrade/recover flap soak and the partition-heal liveness scenarios.

use outboard::host::MachineConfig;
use outboard::sim::chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
use outboard::sim::Dur;
use outboard::stack::StackConfig;
use outboard::testbed::chaos::{run_chaos, shrink_failure};
use outboard::testbed::oracle::violation_category;
use outboard::testbed::ExperimentConfig;

fn base_cfg(total: usize, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = total;
    cfg.seed = seed;
    cfg.verify = true;
    cfg
}

#[test]
fn chaos_runs_are_byte_identical_per_seed() {
    const TOTAL: usize = 1024 * 1024;
    let cfg = base_cfg(TOTAL, 77);
    let schedule = ChaosSchedule::generate(77, 5, 2);

    let a = run_chaos(&cfg, &schedule);
    let b = run_chaos(&cfg, &schedule);
    assert!(
        a.passed(),
        "generated schedule must pass: {:?}",
        a.violations
    );
    assert_eq!(
        a.elapsed, b.elapsed,
        "same seed must take identical sim time"
    );
    assert_eq!(
        a.stats.report(),
        b.stats.report(),
        "same seed + schedule must snapshot a byte-identical registry"
    );

    let other = run_chaos(&base_cfg(TOTAL, 78), &ChaosSchedule::generate(78, 5, 2));
    assert_ne!(
        a.stats.report(),
        other.stats.report(),
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
    let mut schedule = ChaosSchedule::generate(1995, 5, 2);
    schedule.events.push(ChaosEvent {
        at: Dur::millis(8),
        action: ChaosAction::StealthCorrupt { host: 0 },
    });
    schedule.events.sort_by_key(|e| e.at);

    let outcome = run_chaos(&cfg, &schedule);
    assert!(!outcome.passed(), "the oracle must catch the planted bug");
    assert_eq!(
        outcome.category().as_deref(),
        Some("integrity"),
        "stealth corruption must surface as a stream-integrity violation: {:?}",
        outcome.violations
    );

    // Delta-debug to local minimality: the repro must be tiny.
    let shrunk = shrink_failure(&cfg, &schedule).expect("schedule fails, so it must shrink");
    assert!(
        shrunk.schedule.events.len() <= 3,
        "shrunk to {} events, wanted <= 3:\n{}",
        shrunk.schedule.events.len(),
        shrunk.schedule.render()
    );
    assert!(
        shrunk
            .schedule
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::StealthCorrupt { .. })),
        "the culprit event must survive shrinking"
    );

    // The serialized repro replays the same failure category.
    let json = shrunk.schedule.to_json();
    let reparsed = ChaosSchedule::from_json(&json).expect("repro round-trips");
    assert_eq!(reparsed, shrunk.schedule);
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
    let mut events = Vec::new();
    for k in 0..4u64 {
        events.push(ChaosEvent {
            at: Dur::millis(10 + 150 * k),
            action: ChaosAction::NetmemSqueeze {
                host: 0,
                permille: 1000,
                dur: Dur::millis(100),
            },
        });
    }
    let schedule = ChaosSchedule { seed: 31, events };

    let outcome = run_chaos(&cfg, &schedule);
    assert!(
        outcome.passed(),
        "flap soak failed: {:?}",
        outcome.violations
    );
    assert!(outcome.completed);
    assert_eq!(outcome.chaos.netmem_squeezes, 4);
    assert_eq!(outcome.chaos.heals_applied, 4);

    // The flapping actually exercised degraded mode, and every entry has a
    // matching exit after the final heal (also enforced by the oracle's
    // end-state pass — re-checked here for the counters' sake).
    let entries = outcome
        .stats
        .counter_value("host0.cab0.drv.degraded_entries");
    let exits = outcome.stats.counter_value("host0.cab0.drv.degraded_exits");
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
    let schedule = ChaosSchedule {
        seed: 5,
        events: vec![ChaosEvent {
            at: Dur::millis(30),
            action: ChaosAction::Partition {
                dur: Dur::secs(130),
            },
        }],
    };

    let outcome = run_chaos(&cfg, &schedule);
    assert!(
        outcome.passed(),
        "partition-heal run failed: {:?}",
        outcome.violations
    );
    assert!(outcome.completed, "transfer did not finish after the heal");
    assert_eq!(outcome.chaos.partitions, 1);
    assert!(
        outcome.stats.counter_value("host0.tcp.retransmit_segs") > 0,
        "a 130 s partition must force retransmissions"
    );
    assert!(
        outcome.stats.counter_value("world.chaos.down_drops") > 0,
        "frames offered during the outage must be counted as down_drops"
    );
}

#[test]
fn every_chaos_action_kind_applies_cleanly() {
    const TOTAL: usize = 2 * 1024 * 1024;
    let cfg = base_cfg(TOTAL, 11);

    let schedule = ChaosSchedule {
        seed: 11,
        events: vec![
            ChaosEvent {
                at: Dur::millis(5),
                action: ChaosAction::DelaySpike {
                    host: 0,
                    extra: Dur::micros(400),
                    dur: Dur::millis(20),
                },
            },
            ChaosEvent {
                at: Dur::millis(10),
                action: ChaosAction::LinkDown {
                    host: 1,
                    dur: Dur::millis(25),
                },
            },
            ChaosEvent {
                at: Dur::millis(40),
                action: ChaosAction::CabWedge {
                    host: 0,
                    mdma: false,
                },
            },
            ChaosEvent {
                at: Dur::millis(55),
                action: ChaosAction::HostPause {
                    host: 1,
                    dur: Dur::millis(10),
                },
            },
            ChaosEvent {
                at: Dur::millis(70),
                action: ChaosAction::NetmemSqueeze {
                    host: 0,
                    permille: 800,
                    dur: Dur::millis(20),
                },
            },
            ChaosEvent {
                at: Dur::millis(100),
                action: ChaosAction::BoardCrash { host: 0 },
            },
            ChaosEvent {
                at: Dur::millis(120),
                action: ChaosAction::Partition {
                    dur: Dur::millis(30),
                },
            },
        ],
    };

    let outcome = run_chaos(&cfg, &schedule);
    assert!(
        outcome.passed(),
        "all-kinds run failed: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.chaos.events_applied, 7);
    assert_eq!(outcome.chaos.link_downs, 1);
    assert_eq!(outcome.chaos.partitions, 1);
    assert_eq!(outcome.chaos.delay_spikes, 1);
    assert_eq!(outcome.chaos.cab_wedges, 1);
    assert_eq!(outcome.chaos.board_crashes, 1);
    assert_eq!(outcome.chaos.netmem_squeezes, 1);
    assert_eq!(outcome.chaos.host_pauses, 1);
    assert_eq!(
        outcome.stats.counter_value("host0.cab0.drv.board_crashes"),
        1,
        "the board crash must reach the driver's counter"
    );
}

#[test]
fn invalid_fault_probabilities_are_rejected_not_run() {
    let mut cfg = base_cfg(64 * 1024, 1);
    cfg.drop_p = 1.5;
    let err = cfg.validate().expect_err("p > 1 must be rejected");
    assert_eq!(err.knob, "drop_p");

    let outcome = run_chaos(&cfg, &ChaosSchedule::default());
    assert_eq!(outcome.category().as_deref(), Some("config"));
    assert!(!outcome.completed);

    cfg.drop_p = 0.01;
    cfg.cab_wedge_p = -0.25;
    assert_eq!(
        cfg.validate()
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
    let cfg = base_cfg(8 * 1024 * 1024, 9);
    let schedule = ChaosSchedule {
        seed: 9,
        events: vec![ChaosEvent {
            at: Dur::nanos(73_950_000),
            action: ChaosAction::CabWedge {
                host: 1,
                mdma: true,
            },
        }],
    };

    let outcome = run_chaos(&cfg, &schedule);
    assert!(
        outcome.passed(),
        "receiver wedge-reset run failed: {:?}",
        outcome.violations
    );
    assert!(outcome.completed, "transfer must finish after the reset");
    assert_eq!(
        outcome
            .stats
            .counter_value("host1.cab0.drv.watchdog_resets"),
        1,
        "the wedge must trigger exactly one watchdog reset"
    );
    assert_eq!(
        outcome.stats.counter_value("host1.cab0.drv.stale_rx_drops"),
        1,
        "the reset-crossing frame must be discarded as stale, not delivered"
    );
}
