//! Fault-matrix soak and recovery tests: the driver's "transient
//! out-of-resources" philosophy (§4.4.3) under sustained abuse.
//!
//! Three scenarios: (1) a soak with simultaneous link faults (drop, corrupt,
//! duplicate) and CAB allocation failures — the transfer must complete
//! byte-identical with conservation invariants intact and be deterministic
//! per seed; (2) network-memory starvation mid-transfer — the interface must
//! degrade to the traditional path, keep moving bytes, and recover when
//! memory returns; (3) a wedged SDMA engine — the watchdog must reset the
//! CAB, rescue outboard socket-buffer bytes, and rebuild transmission with
//! no data loss.

use outboard::cab::CabFaultInjector;
use outboard::host::MachineConfig;
use outboard::sim::{Chance, Dur, Time};
use outboard::stack::{SockId, StackConfig};
use outboard::testbed::apps::TtcpReceiver;
use outboard::testbed::experiment::build_ttcp_world;
use outboard::testbed::oracle;
use outboard::testbed::{run_ttcp, ExperimentConfig, Metrics, World};

fn base_cfg(total: usize, seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = total;
    cfg.seed = seed;
    cfg
}

/// The fault matrix: link drop, corruption and duplication plus CAB
/// allocation failures.
fn soak_cfg(total: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = base_cfg(total, seed);
    cfg.drop_p = 0.05;
    cfg.corrupt_p = 0.01;
    cfg.dup_p = 0.01;
    cfg.cab_alloc_fail_p = 0.05;
    cfg
}

/// The invariants that must survive any fault mix. Deliberately does NOT
/// require `ip.errors == 0`: fault recovery may tear down routes mid-RST.
/// The identities themselves live in `testbed::oracle` and are shared with
/// the chaos engine.
fn assert_conserved_under_faults(m: &Metrics, total: usize) {
    assert!(m.completed, "transfer stalled: {m:?}");
    assert_eq!(m.bytes, total, "receiver did not read the whole transfer");
    assert_eq!(m.verify_errors, 0, "payload corrupted end-to-end");
    let violations = oracle::conservation_violations(&m.stats, 2);
    assert!(
        violations.is_empty(),
        "conservation broken: {violations:#?}"
    );
}

#[test]
fn fault_matrix_soak_survives_and_verifies() {
    const TOTAL: usize = 4 * 1024 * 1024;
    let cfg = soak_cfg(TOTAL, 1995);

    let m = run_ttcp(&cfg);
    assert_conserved_under_faults(&m, TOTAL);

    // The matrix actually fired: every configured fate occurred, and the
    // driver retried failed allocations rather than panicking or stalling.
    let r = &m.stats;
    assert!(
        r.counter_value("world.faults.dropped") > 0,
        "no drops drawn"
    );
    assert!(
        r.counter_value("world.faults.corrupted") > 0,
        "no corruption drawn"
    );
    assert!(
        r.counter_value("world.faults.duplicated") > 0,
        "no duplication drawn"
    );
    assert!(
        r.counter_value("host0.cab0.drv.tx_retries") > 0,
        "alloc failures never exercised the retry path"
    );
    assert!(m.retransmits > 0, "link loss should force retransmissions");

    // Determinism: an identically-seeded soak reproduces byte-identically.
    let m2 = run_ttcp(&cfg);
    assert_eq!(
        m.stats.report(),
        m2.stats.report(),
        "identically-seeded soaks diverged"
    );

    // And a different seed draws a different fault history.
    let mut other = cfg.clone();
    other.seed = 2025;
    let m3 = run_ttcp(&other);
    assert_conserved_under_faults(&m3, TOTAL);
    assert_ne!(
        m.stats.report(),
        m3.stats.report(),
        "different seeds should not collide"
    );
}

fn receiver_bytes(w: &World) -> usize {
    w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
        .map(|r| r.bytes_read)
        .unwrap_or(0)
}

fn both_finished(w: &World) -> bool {
    w.hosts
        .iter()
        .all(|h| h.apps[0].as_ref().map(|a| a.finished()).unwrap_or(false))
}

/// A re-ACK sent from TIME_WAIT (the peer retransmitted its FIN) must not
/// cancel the TIME_WAIT expiry. On these soak-matrix seeds the sender
/// re-ACKs such a FIN; five expiry periods after the transfer only the
/// receiver's listener is left.
#[test]
fn time_wait_expires_after_re_acking_a_retransmitted_fin() {
    for seed in [116, 218] {
        let cfg = soak_cfg(1024 * 1024, seed);
        let mut w = build_ttcp_world(&cfg);
        let done = w.run_while(Time::ZERO + Dur::secs(30), |w| !both_finished(w));
        assert!(done, "seed {seed}: transfer did not finish");
        let settled = w.now() + cfg.stack.time_wait * 5;
        w.run_until(settled);
        // Socket ids are small: issued in sequence.
        let open = |h: usize| {
            let k = &w.hosts[h].kernel;
            (0..64)
                .filter(|&i| k.socket_ref(SockId(i)).is_some())
                .count()
        };
        assert_eq!(
            [open(0), open(1)],
            [0, 1],
            "seed {seed}: a socket outlived TIME_WAIT"
        );
    }
}

#[test]
fn netmem_starvation_degrades_then_recovers() {
    const TOTAL: usize = 2 * 1024 * 1024;
    let cfg = base_cfg(TOTAL, 9);
    let mut w = build_ttcp_world(&cfg);
    let deadline = Time::ZERO + Dur::secs(30);

    // Let the transfer reach steady state first.
    let warmed = w.run_while(deadline, |w| receiver_bytes(w) < 256 * 1024);
    assert!(warmed, "transfer never got going");

    // Squeeze every page of the sender CAB's network memory: allocation
    // failures are now persistent, not transient.
    let pages = {
        let ci = w.hosts[0].kernel.ifaces[0].cab().expect("sender CAB");
        let p = ci.cab.netmem().pages_total();
        ci.cab.squeeze_netmem(p);
        p
    };
    assert!(pages > 0);

    // Ride out the retry ladder (base 2 ms doubling, 5 rounds) plus slack:
    // the driver must give up and fall back to the traditional path.
    let blackout_end = w.now() + Dur::millis(100);
    w.run_until(blackout_end);
    {
        let ci = w.hosts[0].kernel.ifaces[0].cab().expect("sender CAB");
        assert!(
            ci.health.stats.degraded_entries >= 1,
            "starvation never entered degraded mode: {:?}",
            ci.health.stats
        );
        assert!(
            ci.health.degraded,
            "interface should still be degraded while starved"
        );
        ci.cab.squeeze_netmem(0);
    }

    // With memory back, the health probe must re-enable the single-copy
    // path and the transfer must finish intact.
    let done = w.run_while(deadline, |w| !both_finished(w));
    assert!(done, "transfer did not finish after memory returned");
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
        .expect("receiver app");
    assert_eq!(rx.bytes_read, TOTAL, "data lost across degradation");
    assert_eq!(rx.verify_errors, 0, "data corrupted across degradation");

    let elapsed = w.now() - Time::ZERO;
    let r = w.metrics(elapsed);
    assert!(r.counter_value("host0.cab0.drv.degraded_entries") >= 1);
    assert!(
        r.counter_value("host0.cab0.drv.degraded_exits") >= 1,
        "probe never recovered the interface"
    );
    assert!(
        r.counter_value("host0.cab0.drv.fallback_bytes") > 0,
        "degraded mode moved no bytes over the traditional path"
    );
    assert_eq!(
        r.counter_value("host0.cab0.drv.degraded"),
        0,
        "interface still degraded at the end of the run"
    );
}

#[test]
fn wedged_sdma_engine_is_reset_by_watchdog_without_data_loss() {
    const TOTAL: usize = 2 * 1024 * 1024;
    let cfg = base_cfg(TOTAL, 31);
    let mut w = build_ttcp_world(&cfg);
    let deadline = Time::ZERO + Dur::secs(30);

    let warmed = w.run_while(deadline, |w| receiver_bytes(w) < 256 * 1024);
    assert!(warmed, "transfer never got going");

    // Wedge the sender's SDMA engine on its next transfer. The engine stays
    // wedged until a reset: only the watchdog can get things moving again.
    w.hosts[0].kernel.ifaces[0]
        .cab()
        .expect("sender CAB")
        .cab
        .faults
        .force_sdma_wedge_next();

    let done = w.run_while(deadline, |w| !both_finished(w));
    assert!(done, "transfer did not finish after the wedge");
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
        .expect("receiver app");
    assert_eq!(rx.bytes_read, TOTAL, "data lost across the watchdog reset");
    assert_eq!(rx.verify_errors, 0, "data corrupted across the reset");

    let elapsed = w.now() - Time::ZERO;
    let r = w.metrics(elapsed);
    assert!(
        r.counter_value("host0.cab0.drv.watchdog_resets") >= 1,
        "watchdog never fired"
    );
    assert_eq!(
        r.counter_value("host0.cab0.drv.degraded"),
        0,
        "interface should have recovered after the reset"
    );
    // The engine is demonstrably unwedged: the transfer kept using it.
    let ci = w.hosts[0].kernel.ifaces[0].cab().expect("sender CAB");
    assert!(!ci.cab.any_engine_wedged());
}

/// Run a ttcp world to completion and let it settle for 5 s of virtual
/// time. The transfer must finish intact, with the
/// sender's driver having relaunched something from its retry queue, and
/// neither adaptor may hold a network-memory page once it has settled.
fn run_settled_without_leaks(mut w: World, total: usize, what: &str) {
    let done = w.run_while(Time::ZERO + Dur::secs(30), |w| !both_finished(w));
    assert!(done, "{what}: transfer did not finish");
    let settled = w.now() + Dur::secs(5);
    w.run_until(settled);
    let rx = w.hosts[1].apps[0]
        .as_ref()
        .and_then(|a| a.as_any().downcast_ref::<TtcpReceiver>())
        .expect("receiver app");
    assert_eq!(rx.bytes_read, total, "{what}: data lost");
    assert_eq!(rx.verify_errors, 0, "{what}: data corrupted");
    let r = w.metrics(w.now() - Time::ZERO);
    assert!(
        r.counter_value("host0.cab0.drv.tx_retries") > 0,
        "{what}: the retry queue never relaunched anything"
    );
    for host in 0..2 {
        let ci = w.hosts[host].kernel.ifaces[0].cab().expect("CAB");
        let violations = ci.cab.ownership_violations();
        assert!(violations.is_empty(), "{what}: host {host}: {violations:?}");
        let key = format!("host{host}.cab0.netmem.pages_used");
        assert!(r.get(&key).is_some(), "{key} is not published");
        assert_eq!(
            r.gauge_value(&key).0,
            0,
            "{what}: host {host} leaks network memory"
        );
    }
}

/// Every arm of the CAB transmit path — first launch, header-only
/// retransmit, and the retry queue's relaunch of a refused copy-in, a
/// refused media transfer and an exhausted allocation — end to end: 1 MB
/// in 64 KB writes over a few seeds, each run complete and leaving no
/// outboard buffer allocated. A parked media transfer relaunched before
/// its copy-in is done is an ownership violation the debug journal
/// refuses; the relaunch waits for the copy-in instead.
#[test]
fn every_transmit_arm_completes_without_leaking_netmem() {
    const TOTAL: usize = 1024 * 1024;
    // Seeds whose fault draws reach the sender's retry queue.
    for seed in 1..=3 {
        // (a) Single-copy, SDMA and MDMA failures on both adaptors.
        let mut cfg = base_cfg(TOTAL, seed);
        cfg.cab_sdma_fail_p = 0.02;
        cfg.cab_mdma_fail_p = 0.02;
        let w = build_ttcp_world(&cfg);
        run_settled_without_leaks(w, TOTAL, &format!("single-copy seed {seed}"));

        // (b) The unmodified stack, allocation failures on both adaptors
        // and the DMA failures on the sender's only.
        let mut cfg = base_cfg(TOTAL, seed);
        cfg.stack = StackConfig::unmodified();
        cfg.cab_alloc_fail_p = 0.05;
        cfg.cab_sdma_fail_p = 0.02;
        cfg.cab_mdma_fail_p = 0.02;
        let mut w = build_ttcp_world(&cfg);
        let mut rx_faults = CabFaultInjector::none(seed);
        rx_faults.alloc_fail_p = Chance::new(0.05);
        w.hosts[1].kernel.ifaces[0]
            .cab()
            .expect("receiver CAB")
            .cab
            .faults = rx_faults;
        run_settled_without_leaks(w, TOTAL, &format!("unmodified seed {seed}"));
    }
}
