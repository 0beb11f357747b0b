//! Fault-injection integration tests: the outboard retransmission story
//! (§4.3) and the hardware receive checksum as an actual error detector.

use outboard::host::MachineConfig;
use outboard::sim::fault::{Action, Point, Target};
use outboard::sim::{Dur, Fault, FaultPlan, Time};
use outboard::stack::StackConfig;
use outboard::testbed::experiment::build_ttcp_world;
use outboard::testbed::{run_ttcp, ExperimentConfig, RunOutcome};

fn lossy(drop_pct: f64, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = 4 * 1024 * 1024;
    cfg.drop_p = drop_pct / 100.0;
    cfg.seed = seed;
    cfg
}

/// A fault-free transfer retransmits nothing on either host: the receiver's
/// one SYN-ACK is a first transmission.
#[test]
fn a_fault_free_run_retransmits_nothing() {
    let m = run_ttcp(&lossy(0.0, 7));
    assert!(m.completed);
    for h in 0..2 {
        let key = format!("host{h}.tcp.retransmit_segs");
        assert_eq!(m.stats.counter_value(&key), 0, "{key}");
    }
}

#[test]
fn loss_recovers_with_intact_data() {
    for (pct, seed) in [(2.0, 7), (5.0, 11), (10.0, 13)] {
        let m = run_ttcp(&lossy(pct, seed));
        assert!(m.completed, "{pct}% loss: transfer stalled: {m:?}");
        assert_eq!(m.bytes, 4 * 1024 * 1024);
        assert_eq!(m.verify_errors, 0, "{pct}% loss corrupted the stream");
        let retransmits = m.stats.counter_value("host0.tcp.retransmit_segs");
        assert!(retransmits > 0, "{pct}% loss should retransmit");
    }
}

#[test]
fn retransmission_reuses_outboard_data() {
    // With loss, full-segment retransmissions take the header-only path:
    // only a fresh header crosses the host bus; the saved body checksum is
    // folded in by the hardware (§4.3).
    let cfg = lossy(5.0, 11);
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert!(
        m.stats.counter_value("host0.tcp.retransmit_header_only") > 0,
        "no header-only retransmissions happened: {m:?}"
    );

    // Device-level confirmation: the CAB counted body-checksum reuses.
    let mut w = build_ttcp_world(&cfg);
    w.run_until(Time::ZERO + Dur::secs(60));
    if let outboard::stack::driver::IfaceKind::Cab(cab) = &w.hosts[0].kernel.ifaces[0].kind {
        assert!(
            cab.cab.stats.body_csum_reuses > 0,
            "hardware never reused a saved body checksum"
        );
    } else {
        panic!("expected CAB");
    }
}

#[test]
fn corruption_is_caught_by_the_hardware_checksum() {
    let mut cfg = lossy(0.0, 3);
    cfg.total_bytes = 2 * 1024 * 1024;
    // Corrupt a handful of frames on the forward link.
    cfg.corrupt_p = 0.02;
    let mut w = build_ttcp_world(&cfg);
    let outcome = w.run_apps();
    assert_eq!(
        outcome,
        Ok(RunOutcome::Completed),
        "stalled under corruption"
    );
    let rx_stats = &w.hosts[1].kernel.stats;
    assert!(
        rx_stats.csum_errors > 0,
        "corrupted frames must be rejected by checksum"
    );
    // And the application data still verified: the receiver app checks
    // every byte against the pattern.
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<outboard::testbed::apps::TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.verify_errors, 0);
    assert_eq!(rx.bytes_read, 2 * 1024 * 1024);
}

#[test]
fn duplication_and_reordering_are_tolerated() {
    let mut cfg = lossy(0.0, 17);
    cfg.total_bytes = 2 * 1024 * 1024;
    let mut w = build_ttcp_world(&cfg);
    let link = Target::Point(0, Point::Frame);
    let faults = [Action::Delay(Dur::millis(2)), Action::Duplicate]
        .map(|action| Fault::chance("p", 0.05, link, action).unwrap())
        .to_vec();
    w.install_faults(&FaultPlan { seed: 17, faults });
    let outcome = w.run_apps();
    assert_eq!(
        outcome,
        Ok(RunOutcome::Completed),
        "stalled under dup/reorder"
    );
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<outboard::testbed::apps::TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.verify_errors, 0);
    assert_eq!(rx.bytes_read, 2 * 1024 * 1024);
}

#[test]
fn unmodified_stack_survives_loss_too() {
    let mut cfg = lossy(5.0, 23);
    cfg.stack = StackConfig::unmodified();
    cfg.total_bytes = 2 * 1024 * 1024;
    let m = run_ttcp(&cfg);
    assert!(m.completed);
    assert_eq!(m.verify_errors, 0);
    // Traditional path: no outboard buffers exist, so retransmissions
    // always re-DMA from kernel mbufs (never header-only).
    assert_eq!(m.stats.counter_value("host0.tcp.retransmit_header_only"), 0);
}

#[test]
fn heavy_loss_eventually_progresses() {
    // 20 % loss is brutal (RTO backoff territory) but must not deadlock.
    let mut cfg = lossy(20.0, 29);
    cfg.total_bytes = 256 * 1024;
    let m = run_ttcp(&cfg);
    assert!(m.completed, "{m:?}");
    assert_eq!(m.verify_errors, 0);
}

/// The traditional path's software checksum also rejects corruption — the
/// defense does not depend on the CAB.
#[test]
fn unmodified_stack_detects_corruption_too() {
    let mut cfg = lossy(0.0, 31);
    cfg.stack = StackConfig::unmodified();
    cfg.total_bytes = 1024 * 1024;
    cfg.corrupt_p = 0.02;
    let mut w = build_ttcp_world(&cfg);
    let outcome = w.run_apps();
    assert_eq!(
        outcome,
        Ok(RunOutcome::Completed),
        "unmodified stack stalled"
    );
    assert!(w.hosts[1].kernel.stats.csum_errors > 0);
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .unwrap()
        .as_any()
        .downcast_ref::<outboard::testbed::apps::TtcpReceiver>()
        .unwrap();
    assert_eq!(rx.verify_errors, 0);
    assert_eq!(rx.bytes_read, 1024 * 1024);
}
