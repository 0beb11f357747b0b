//! The behaviour ledger: one line per simulated run of a fixed corpus, held
//! byte for byte against `tests/golden/behaviour.tsv`. It is the "nothing
//! simulated moved" check for every run the figure goldens do not reach:
//! the gated benchmark workloads, fault soaks, DMA and wedge faults, the
//! unmodified stack under faults, and the chaos smoke sweep.
//!
//! Each line holds the run's name, how its run loop ended (`completed`,
//! `gave_up` or `drained`, the `RunOutcome`; `runaway` for a `RunError`),
//! its elapsed virtual nanoseconds, the bytes the receivers read, the events dispatched,
//! a 64-bit FNV-1a digest over the stats JSON, trace, timeline and critical
//! path, and — after the world has run on for 5 s of virtual time past the
//! transfer — the open sockets on each host and the network-memory pages in
//! use on each CAB (`-` for chaos runs, whose world the runner keeps).
//!
//! The file is a change detector, not an oracle: it records what the
//! simulator does, leaks and stalls included. Two oracle checks ride along:
//! no run may break copy semantics (`oracle::copy_violations`, recorded in
//! debug builds only), and no host may hold a user page once a ttcp run has
//! settled (`oracle::held_page_violations`). After an *intended* change of
//! simulated behaviour, rewrite it with
//! `cargo test --test behaviour -- --ignored regenerate_behaviour_ledger`,
//! list every moved line in CHANGES.md and commit `tests/golden/`. Debug and
//! release builds write the same file; CI checks both.

use outboard::host::{MachineConfig, TaskId};
use outboard::sim::{Dur, FaultPlan, MetricsRegistry, Time};
use outboard::stack::{SockAddr, SockId, StackConfig};
use outboard::testbed::apps::{TtcpReceiver, TtcpSender};
use outboard::testbed::chaos::run_chaos;
use outboard::testbed::experiment::{build_ttcp_world, run_ttcp_in, RECEIVER_IP, SENDER_IP};
use outboard::testbed::oracle::{copy_violations, held_page_violations};
use outboard::testbed::{ExperimentConfig, RunError, RunOutcome, World};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/behaviour.tsv");
const HEADER: &str = "run\toutcome\telapsed_ns\tbytes\tevents\tdigest\tsockets\tnetmem_pages";
const KB: usize = 1024;
const MB: usize = 1024 * 1024;
/// Virtual time a world runs on past its transfer before it is inspected.
const SETTLE: Dur = Dur::secs(5);
/// Socket ids are issued in sequence from 1; no corpus world opens more.
const MAX_SOCKETS: u32 = 2048;
/// Concurrent pairs of the `many_flows` workload, 64 KB each.
const FLOWS: usize = 256;
/// Link seeds of the soak-matrix runs.
const SOAK_SEEDS: u64 = 150;

/// One run of the corpus.
enum Run {
    Ttcp(ExperimentConfig),
    ManyFlows(ExperimentConfig),
    Chaos(u64),
}

fn ttcp(single_copy: bool, write: usize, total: usize, seed: u64) -> ExperimentConfig {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(MachineConfig::alpha_3000_400(), stack, write);
    cfg.total_bytes = total;
    cfg.seed = seed;
    cfg.verify = false;
    cfg
}

/// The fault soak's shape: 1 MB (4 MB for `lossy`) in 64 KB single-copy
/// writes, verified at the receiver.
fn soak(total: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ttcp(true, 64 * KB, total, seed);
    cfg.verify = true;
    cfg
}

fn matrix(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.drop_p = 0.05;
    cfg.corrupt_p = 0.01;
    cfg.dup_p = 0.01;
    cfg.cab_alloc_fail_p = 0.05;
    cfg
}

/// The corpus, in ledger order.
fn corpus() -> Vec<(String, Run)> {
    let mut runs = Vec::new();
    let mut add = |name: String, run: Run| runs.push((name, run));
    // The gated benchmark workloads, seed 7.
    add(
        "bulk_sc".into(),
        Run::Ttcp(ttcp(true, 256 * KB, 16 * MB, 7)),
    );
    add(
        "bulk_unmod".into(),
        Run::Ttcp(ttcp(false, 256 * KB, 16 * MB, 7)),
    );
    add("small_writes".into(), Run::Ttcp(ttcp(true, KB, 2 * MB, 7)));
    add(
        "many_flows".into(),
        Run::ManyFlows(ttcp(true, 4 * KB, FLOWS * 64 * KB, 7)),
    );
    let mut traced = ttcp(true, KB, 512 * KB, 7);
    traced.trace_spans = true;
    traced.timeline_enabled = true;
    traced.timeline_window = Dur::millis(1);
    add("traced_small".into(), Run::Ttcp(traced));
    for seed in 42..=45 {
        add(
            format!("lossy_{seed}"),
            Run::Ttcp(matrix(soak(4 * MB, seed))),
        );
    }
    for seed in 0..SOAK_SEEDS {
        add(format!("soak_{seed}"), Run::Ttcp(matrix(soak(MB, seed))));
    }
    // One fault kind at a time.
    for seed in 1..=40 {
        let mut cfg = soak(MB, seed);
        cfg.drop_p = 0.05;
        add(format!("drop_{seed}"), Run::Ttcp(cfg));
        let mut cfg = soak(MB, seed);
        cfg.corrupt_p = 0.01;
        add(format!("corrupt_{seed}"), Run::Ttcp(cfg));
        let mut cfg = soak(MB, seed);
        cfg.dup_p = 0.01;
        add(format!("dup_{seed}"), Run::Ttcp(cfg));
        let mut cfg = soak(MB, seed);
        cfg.cab_alloc_fail_p = 0.05;
        add(format!("alloc_fail_{seed}"), Run::Ttcp(cfg));
    }
    // Copy-in and media-transfer failures, then the same with one failure
    // in ten wedging its engine.
    for wedge_p in [0.0, 0.1] {
        for seed in 1..=20 {
            let mut cfg = soak(MB, seed);
            cfg.cab_sdma_fail_p = 0.02;
            cfg.cab_mdma_fail_p = 0.02;
            cfg.cab_wedge_p = wedge_p;
            let kind = if wedge_p > 0.0 { "dma_wedge" } else { "dma" };
            add(format!("{kind}_{seed}"), Run::Ttcp(cfg));
        }
    }
    // The unmodified stack over a faulty CAB.
    for seed in 1..=40 {
        let mut cfg = soak(MB, seed);
        cfg.stack = StackConfig::unmodified();
        cfg.cab_alloc_fail_p = 0.05;
        cfg.cab_sdma_fail_p = 0.02;
        cfg.cab_mdma_fail_p = 0.02;
        add(format!("unmod_faults_{seed}"), Run::Ttcp(cfg));
    }
    // `chaos --smoke --seeds 8`.
    for seed in 1..=8 {
        add(format!("chaos_{seed}"), Run::Chaos(seed));
    }
    runs
}

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over `parts`, each closed by a 0xff byte (which UTF-8 never
/// holds), so no two part lists share a digest by moving a boundary.
fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        fnv1a(fnv1a(h, p.as_bytes()), &[0xff])
    })
}

/// Open sockets per host and network-memory pages per CAB, after `w` has
/// run on for [`SETTLE`], by when no host may hold a user page.
fn settled(name: &str, w: &mut World) -> String {
    let end = w.now() + SETTLE;
    w.run_until(end);
    let held = held_page_violations(w);
    assert!(held.is_empty(), "{name}: {held:?}");
    let sockets: Vec<String> = w
        .hosts
        .iter()
        .map(|h| {
            let open = (0..MAX_SOCKETS).filter(|&i| h.kernel.socket_ref(SockId(i)).is_some());
            open.count().to_string()
        })
        .collect();
    let pages: Vec<String> = w
        .hosts
        .iter()
        .flat_map(|h| h.kernel.ifaces.iter().filter_map(|i| i.cab_ref()))
        .map(|c| (c.cab.netmem().pages_total() - c.cab.netmem().pages_free()).to_string())
        .collect();
    format!("{}\t{}", sockets.join(","), pages.join(","))
}

fn many_flows_world(cfg: &ExperimentConfig) -> World {
    let mut w = World::new();
    let a = w.add_host("sender", cfg.machine.clone(), cfg.stack.clone());
    let b = w.add_host("receiver", cfg.machine.clone(), cfg.stack.clone());
    w.connect_cab(a, SENDER_IP, b, RECEIVER_IP, Dur::micros(5), cfg.seed);
    let port = |i: usize| 5001 + i as u16;
    for i in 0..FLOWS {
        let mut rx = TtcpReceiver::new(TaskId(2000 + i as u32), port(i), cfg.write_size);
        rx.verify = cfg.verify;
        w.add_app(b, Box::new(rx), i == 0);
    }
    for i in 0..FLOWS {
        let dst = SockAddr::new(RECEIVER_IP, port(i));
        let mut tx = TtcpSender::new(TaskId(1000 + i as u32), dst, cfg.write_size, 64 * KB);
        tx.buf_vaddr += i as u64 * 0x1_0000;
        w.add_app(a, Box::new(tx), i == 0);
    }
    w
}

/// No application wrote a buffer the stack still claimed, and no `write` or
/// `read` completed early, over the whole run and its settle.
fn assert_copy_semantics(name: &str, violations: &[String]) {
    assert!(violations.is_empty(), "{name}: {violations:#?}");
}

/// The `world.chaos.*` counters in the form the digest has always taken
/// them: the `Debug` text of the struct that once held them.
fn chaos_counts(stats: &MetricsRegistry) -> String {
    const KEYS: [&str; 11] = [
        "events_applied",
        "heals_applied",
        "link_downs",
        "partitions",
        "delay_spikes",
        "cab_wedges",
        "board_crashes",
        "netmem_squeezes",
        "host_pauses",
        "stealth_corrupts",
        "deferred_events",
    ];
    let fields: Vec<String> = KEYS
        .iter()
        .map(|k| format!("{k}: {}", stats.counter_value(&format!("world.chaos.{k}"))))
        .collect();
    format!("ChaosStats {{ {} }}", fields.join(", "))
}

/// The outcome column: the `RunOutcome`'s name, or `runaway`.
fn outcome_name(outcome: Result<RunOutcome, RunError>) -> &'static str {
    outcome.map_or("runaway", |o| o.name())
}

/// One ledger line (without the trailing newline).
fn line(name: &str, run: &Run) -> String {
    match run {
        Run::Ttcp(cfg) => {
            let mut w = build_ttcp_world(cfg);
            let m = run_ttcp_in(&mut w, cfg);
            let stats = m.stats.to_json();
            let path = m.critical_path.as_ref().map(|c| c.render());
            let parts = [
                stats.as_str(),
                m.trace_json.as_deref().unwrap_or(""),
                m.timeline_json.as_deref().unwrap_or(""),
                path.as_deref().unwrap_or(""),
            ];
            let tail = settled(name, &mut w);
            assert_copy_semantics(name, &copy_violations(&w));
            format!(
                "{name}\t{}\t{}\t{}\t{}\t{:016x}\t{tail}",
                outcome_name(m.outcome),
                m.elapsed.as_nanos(),
                m.bytes,
                m.events_dispatched,
                digest(parts)
            )
        }
        Run::ManyFlows(cfg) => {
            let mut w = many_flows_world(cfg);
            let outcome = w.run_apps();
            let elapsed = w.now() - Time::ZERO;
            let bytes: usize = w.hosts[1]
                .apps
                .iter()
                .flatten()
                .filter_map(|a| a.as_any().downcast_ref::<TtcpReceiver>())
                .map(|r| r.bytes_read)
                .sum();
            let stats = w.metrics(elapsed).to_json();
            let events = w.events_dispatched;
            let tail = settled(name, &mut w);
            assert_copy_semantics(name, &copy_violations(&w));
            format!(
                "{name}\t{}\t{}\t{bytes}\t{events}\t{:016x}\t{tail}",
                outcome_name(outcome),
                elapsed.as_nanos(),
                digest([stats.as_str()])
            )
        }
        Run::Chaos(seed) => {
            // The `chaos` binary's sweep: 2 MB in 64 KB single-copy writes,
            // verified; sampled, because the digest covers `world.timeline.*`.
            let mut cfg = soak(2 * MB, *seed);
            cfg.timeline_enabled = true;
            cfg.timeline_export = false;
            let plan = FaultPlan::generate(*seed, 6, 2);
            let o = run_chaos(&cfg, &plan);
            let copy: Vec<String> = o
                .violations
                .iter()
                .filter(|v| v.starts_with("copy:"))
                .cloned()
                .collect();
            assert_copy_semantics(name, &copy);
            let m = o.metrics.as_ref().expect("the sweep's configuration runs");
            let stats = m.stats.to_json();
            let chaos = chaos_counts(&m.stats);
            let mut parts = vec![stats.as_str(), chaos.as_str()];
            parts.extend(o.violations.iter().map(String::as_str));
            format!(
                "{name}\t{}\t{}\t{}\t{}\t{:016x}\t-\t-",
                outcome_name(m.outcome),
                m.elapsed.as_nanos(),
                m.bytes,
                m.stats.counter_value("world.events_dispatched"),
                digest(parts)
            )
        }
    }
}

/// The whole ledger, the corpus split over two worker threads.
fn ledger() -> String {
    let runs = corpus();
    let next = AtomicUsize::new(0);
    let mut lines: Vec<(usize, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, run)) = runs.get(i) else {
                            return out;
                        };
                        out.push((i, line(name, run)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("ledger worker panicked"))
            .collect()
    });
    lines.sort_by_key(|(i, _)| *i);
    let mut out = format!("{HEADER}\n");
    for (_, l) in lines {
        let _ = writeln!(out, "{l}");
    }
    out
}

#[test]
fn behaviour_ledger_matches_golden() {
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let got = ledger();
    let moved: Vec<String> = got
        .lines()
        .zip(golden.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  was {w}\n  now {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} runs moved against {GOLDEN}:\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "the corpus and {GOLDEN} differ in length"
    );
}

#[test]
#[ignore = "rewrites tests/golden/behaviour.tsv; see the file header"]
fn regenerate_behaviour_ledger() {
    std::fs::write(GOLDEN, ledger()).unwrap();
}
