//! Conservation invariants and determinism of the metrics registry.
//!
//! The registry is only trustworthy if independent counters agree with each
//! other: bytes the sender's TCP pushed (minus retransmitted bytes) must be
//! the bytes the receiver read, every transmitted segment must have been
//! checksummed exactly once (in hardware or in software), and the per-link
//! byte counters must sum to the fabric total. These hold with and without
//! fault injection — and two identically-seeded runs must produce
//! byte-identical reports.

use outboard::host::MachineConfig;
use outboard::sim::MetricsRegistry;
use outboard::stack::StackConfig;
use outboard::testbed::{run_ttcp, ExperimentConfig, Metrics};

const TOTAL: usize = 2 * 1024 * 1024;

fn run(single_copy: bool, drop_p: f64, seed: u64) -> Metrics {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, 64 * 1024);
    cfg.total_bytes = TOTAL;
    cfg.drop_p = drop_p;
    cfg.seed = seed;
    run_ttcp(&cfg)
}

/// Every conservation law the registry must satisfy for one finished run.
fn assert_conserved(m: &Metrics) {
    assert!(m.completed, "transfer stalled");
    let r = &m.stats;

    // Data conservation: unique TCP payload bytes the sender emitted are
    // exactly the bytes the receiving application read.
    let sent = r.counter_value("host0.tcp.bytes_sent");
    let retx = r.counter_value("host0.tcp.bytes_retx");
    assert_eq!(
        sent - retx,
        m.bytes as u64,
        "bytes on wire minus retransmitted bytes != bytes delivered (sent {sent}, retx {retx})"
    );
    assert_eq!(m.bytes, TOTAL, "receiver did not read the whole transfer");

    // Checksum conservation, per host: every transport packet emitted on a
    // non-loopback interface was checksummed exactly once, outboard or in
    // software. RSTs ride the same path but are not counted as segments.
    for h in 0..2 {
        let hw = r.counter_value(&format!("host{h}.csum.hw"));
        let sw = r.counter_value(&format!("host{h}.csum.sw"));
        let segs = r.counter_value(&format!("host{h}.tcp.segs_out"));
        let rsts = r.counter_value(&format!("host{h}.tcp.rst_sent"));
        let udp = r.counter_value(&format!("host{h}.udp.datagrams_out"));
        assert_eq!(
            hw + sw,
            segs + rsts + udp,
            "host{h}: hw {hw} + sw {sw} checksums != {segs} segments + {rsts} rsts + {udp} datagrams"
        );
        assert_eq!(
            r.counter_value(&format!("host{h}.ip.errors")),
            0,
            "host{h}: unroutable packets would void the checksum invariant"
        );
    }

    // Fabric conservation: what each link admitted sums to the world total,
    // and each link's admissions split into deliveries plus fault fates.
    let link_bytes: u64 = r
        .iter()
        .filter(|(name, _)| name.starts_with("link.") && name.ends_with(".bytes_in"))
        .map(|(name, _)| r.counter_value(name))
        .sum();
    assert_eq!(
        link_bytes,
        r.counter_value("world.bytes_on_fabric"),
        "per-link byte counters do not sum to the fabric total"
    );
    let frames_in: u64 = r
        .iter()
        .filter(|(name, _)| name.starts_with("link.") && name.ends_with(".frames_in"))
        .map(|(name, _)| r.counter_value(name))
        .sum();
    assert_eq!(frames_in, r.counter_value("world.frames_on_fabric"));
}

#[test]
fn clean_run_conserves_bytes_checksums_and_frames() {
    let m = run(true, 0.0, 42);
    assert_conserved(&m);
    assert_eq!(
        m.stats.counter_value("host0.tcp.retransmit_segs"),
        0,
        "clean link must not retransmit"
    );
    assert!(
        m.stats.counter_value("host0.csum.hw") > 0,
        "single-copy run never used the outboard engine"
    );
}

#[test]
fn unmodified_stack_conserves_too() {
    let m = run(false, 0.0, 42);
    assert_conserved(&m);
    assert_eq!(m.stats.counter_value("host0.csum.hw"), 0);
}

#[test]
fn lossy_run_conserves_despite_retransmissions() {
    let m = run(true, 0.02, 7);
    assert_conserved(&m);
    assert!(
        m.stats.counter_value("host0.tcp.retransmit_segs") > 0,
        "2% drop must force retransmissions"
    );
    // Dropped frames were admitted (bytes_in counts them) but not delivered.
    let dropped: u64 = m
        .stats
        .iter()
        .filter(|(name, _)| name.starts_with("link.") && name.ends_with(".faults.dropped"))
        .map(|(name, _)| m.stats.counter_value(name))
        .sum();
    assert!(dropped > 0, "fault injection never fired");
}

#[test]
fn identical_seeds_produce_byte_identical_reports() {
    let a = run(true, 0.01, 1234);
    let b = run(true, 0.01, 1234);
    assert_eq!(a.stats, b.stats, "registries diverged between runs");
    assert_eq!(a.stats.report(), b.stats.report());
    assert_eq!(a.stats.to_json(), b.stats.to_json());
    assert_eq!(a.stats.to_csv(), b.stats.to_csv());
    // And a different seed actually changes something (the reports are not
    // trivially constant).
    let c = run(true, 0.01, 4321);
    assert_ne!(
        a.stats.report(),
        c.stats.report(),
        "reports insensitive to the seed"
    );
}

#[test]
fn report_names_the_acceptance_metrics() {
    let m = run(true, 0.0, 42);
    let report = m.stats.report();
    for needle in [
        "host0.cab0.sdma.busy_frac",
        "host0.cab0.mdma_tx.busy_frac",
        "host0.cab0.netmem.pages_used",
        "host0.cpu.user_share",
        "host0.cpu.sys_share",
        "host0.tcp.segs_out",
        "host0.tcp.retransmits",
        "host0.vm.cache_hit_rate",
        "world.bytes_on_fabric",
    ] {
        assert!(report.contains(needle), "report lacks {needle}:\n{report}");
    }
    let _ = MetricsRegistry::default(); // the registry is constructible empty
}
