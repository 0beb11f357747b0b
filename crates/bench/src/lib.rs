//! Shared helpers for the benchmark harness.
//!
//! Each paper table/figure has a binary in `src/bin/`:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig5` | Figure 5: throughput / utilization / efficiency vs size, Alpha 3000/400 |
//! | `fig6` | Figure 6: the same on the Alpha 3000/300LX |
//! | `table1` | Table 1: host-interface taxonomy |
//! | `table2` | Table 2: VM operation costs (measured + least-squares fit) |
//! | `analysis` | §7.3: analytic efficiency estimates vs simulation |
//! | `hol` | §2.1: FIFO head-of-line blocking vs logical channels |
//! | `crossover` | §4.4.3/§4.5 ablations: path choice and alignment fallback |
//!
//! Criterion micro-benches live in `benches/`.

#![deny(unreachable_pub)]
use outboard_host::MachineConfig;
use outboard_sim::Dur;
use outboard_stack::StackConfig;
use outboard_testbed::{run_ttcp, ExperimentConfig, Metrics};

pub mod sweep;

/// The read/write sizes of Figures 5 and 6 (1 KB .. 512 KB).
pub fn figure_sizes() -> Vec<usize> {
    (0..10).map(|i| 1024usize << i).collect()
}

/// Transfer enough bytes for steady state without wasting wall time.
pub fn total_for(write_size: usize) -> usize {
    (write_size * 64).clamp(2 * 1024 * 1024, 16 * 1024 * 1024)
}

/// One figure point for a given stack flavor.
pub fn figure_point(machine: &MachineConfig, single_copy: bool, write_size: usize) -> Metrics {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        // §7.2: "the measurements for the modified stack always use the
        // single-copy path".
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, write_size);
    cfg.total_bytes = total_for(write_size);
    cfg.verify = false; // checked extensively in tests; keep benches honest
    apply_fault_flags(&mut cfg);
    timeline_args().apply(&mut cfg);
    run_ttcp(&cfg)
}

/// One rendered row of Figure 5/6: both stacks plus the raw-HIPPI bound
/// at a single write size.
pub struct FigureRow {
    /// Read/write size in bytes.
    pub size: usize,
    /// Unmodified-stack run.
    pub un: Metrics,
    /// Single-copy-stack run.
    pub sc: Metrics,
    /// Raw HIPPI throughput bound, Mbit/s.
    pub raw_mbps: f64,
}

/// Compute every point of one figure: for each size the unmodified run,
/// the single-copy run, then the closed-form raw-HIPPI bound.
pub fn compute_figure(machine: &MachineConfig) -> Vec<FigureRow> {
    figure_sizes()
        .into_iter()
        .map(|size| FigureRow {
            size,
            un: figure_point(machine, false, size),
            sc: figure_point(machine, true, size),
            raw_mbps: outboard_testbed::raw_hippi_throughput(machine, size.min(32 * 1024), 200),
        })
        .collect()
}

/// Render one figure (three panels) as aligned text plus CSV.
pub fn print_figure(machine: &MachineConfig) {
    println!("# {}", machine.name);
    let mut cfg = ExperimentConfig::new(machine.clone(), StackConfig::single_copy(), 0);
    apply_fault_flags(&mut cfg);
    let plan = cfg.fault_plan().map(|p| p.faults).unwrap_or_default();
    if !plan.is_empty() {
        println!("# fault injection active:");
        for fault in plan {
            println!("#   {fault}");
        }
    }
    println!("# series: unmodified stack, modified (single-copy) stack, raw HIPPI");
    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "size_KB",
        "un_Mbps",
        "sc_Mbps",
        "raw_Mbps",
        "un_util",
        "sc_util",
        "un_eff",
        "sc_eff",
        "un_eff_rx",
        "sc_eff_rx"
    );
    let mut csv = String::from(
        "size_kb,unmodified_mbps,singlecopy_mbps,raw_mbps,unmodified_util,singlecopy_util,unmodified_eff,singlecopy_eff\n",
    );
    for row in compute_figure(machine) {
        let FigureRow {
            size,
            un,
            sc,
            raw_mbps: raw,
        } = row;
        // The paper: "The utilization results are for the sender, but the
        // results on the receiver are similar" — report both.
        println!(
            "{:>8} | {:>9.1} {:>9.1} {:>9.1} | {:>8.2} {:>8.2} | {:>9.0} {:>9.0} | {:>9.0} {:>9.0}",
            size / 1024,
            un.throughput_mbps,
            sc.throughput_mbps,
            raw,
            un.sender_utilization,
            sc.sender_utilization,
            un.sender_efficiency_mbps,
            sc.sender_efficiency_mbps,
            un.receiver_efficiency_mbps,
            sc.receiver_efficiency_mbps
        );
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.3},{:.3},{:.0},{:.0}\n",
            size / 1024,
            un.throughput_mbps,
            sc.throughput_mbps,
            raw,
            un.sender_utilization,
            sc.sender_utilization,
            un.sender_efficiency_mbps,
            sc.sender_efficiency_mbps
        ));
    }
    println!("\n-- CSV --\n{csv}");
}

/// Did the user pass the shared `--stats` flag?
pub fn stats_requested() -> bool {
    std::env::args().any(|a| a == "--stats")
}

/// Value of `name` in `argv`, spelled `--flag VAL` or `--flag=VAL` (a
/// value may itself contain `=`); the first occurrence wins. A flag that
/// ends `argv` yields `Some("")`, which no caller accepts as a value, so a
/// forgotten value aborts instead of reading as "flag absent".
pub(crate) fn arg_value_in(argv: &[String], name: &str) -> Option<String> {
    argv.iter()
        .enumerate()
        .find_map(|(i, arg)| match arg.split_once('=') {
            Some((flag, val)) => (flag == name).then(|| val.to_string()),
            None => (arg == name).then(|| argv.get(i + 1).cloned().unwrap_or_default()),
        })
}

/// `arg_value_in` over this process's arguments.
pub fn arg_value(name: &str) -> Option<String> {
    let argv: Vec<String> = std::env::args().collect();
    arg_value_in(&argv, name)
}

/// Apply the shared `--fault-*` flags (`--fault-drop 0.05` or
/// `--fault-drop=0.05`) to `cfg`, so any figure can be re-run under loss,
/// corruption, or adaptor faults to watch the recovery machinery's cost.
/// Each flag sets one probability, which [`ExperimentConfig::fault_plan`]
/// turns into a `Chance` entry. Unknown flags are left for the binary; a
/// malformed or out-of-range probability aborts with a message rather than
/// silently running fault-free.
pub(crate) fn apply_fault_flags(cfg: &mut ExperimentConfig) {
    let argv: Vec<String> = std::env::args().collect();
    let flags: [(&str, &mut f64); 9] = [
        ("--fault-drop", &mut cfg.drop_p),
        ("--fault-corrupt", &mut cfg.corrupt_p),
        ("--fault-reorder", &mut cfg.reorder_p),
        ("--fault-dup", &mut cfg.dup_p),
        ("--fault-cab-alloc", &mut cfg.cab_alloc_fail_p),
        ("--fault-cab-sdma", &mut cfg.cab_sdma_fail_p),
        ("--fault-cab-mdma", &mut cfg.cab_mdma_fail_p),
        ("--fault-cab-wedge", &mut cfg.cab_wedge_p),
        ("--fault-cab-csum", &mut cfg.cab_csum_error_p),
    ];
    for (flag, p) in flags {
        let Some(val) = arg_value_in(&argv, flag) else {
            continue;
        };
        match val.parse::<f64>() {
            Ok(v) => *p = v,
            Err(_) => {
                eprintln!("{flag} needs a probability in [0, 1], got {val:?}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = cfg.fault_plan() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// Causal-trace knobs shared by every benchmark binary.
///
/// `--trace-out FILE` asks the binary to run one representative traced
/// experiment and write a Chrome trace-event / Perfetto JSON timeline to
/// `FILE`; `--trace-flows N` caps how many flows get flow arrows (0 = all).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct TraceArgs {
    /// `--trace-out`: destination file for the Perfetto JSON trace.
    pub out: Option<String>,
    /// `--trace-flows`: flow-arrow cap (`None` = the experiment default).
    pub flows: Option<Option<usize>>,
}

/// Parse the shared `--trace-*` flags (`--trace-out trace.json` or
/// `--trace-out=trace.json`). A missing filename or malformed flow count
/// aborts rather than silently running untraced.
pub(crate) fn trace_args() -> TraceArgs {
    let mut t = TraceArgs::default();
    if let Some(val) = arg_value("--trace-out") {
        if val.is_empty() || val.starts_with("--") {
            eprintln!("--trace-out needs a filename, got {val:?}");
            std::process::exit(2);
        }
        t.out = Some(val);
    }
    if let Some(val) = arg_value("--trace-flows") {
        match val.parse::<usize>() {
            Ok(0) => t.flows = Some(None),
            Ok(n) => t.flows = Some(Some(n)),
            Err(_) => {
                eprintln!("--trace-flows needs a count (0 = all), got {val:?}");
                std::process::exit(2);
            }
        }
    }
    t
}

/// Windowed-telemetry knobs shared by every benchmark binary.
///
/// `--timeline` turns the sampler on for every experiment the binary runs;
/// `--timeline-window-us N` overrides the sampling window (default 1000 µs
/// of virtual time). Timelines surface three ways: counter tracks merged
/// into any `--trace-out` Perfetto file, `timeline_<tag>.json/.csv`
/// snapshots next to the `stats_*` files under `--stats`, and an ASCII
/// sparkline summary on stdout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineArgs {
    /// `--timeline`: enable windowed sampling.
    pub enabled: bool,
    /// `--timeline-window-us`: sampling window override, microseconds.
    pub window_us: Option<u64>,
}

impl TimelineArgs {
    /// Copy the knobs into an experiment configuration.
    pub fn apply(&self, cfg: &mut ExperimentConfig) {
        if self.enabled {
            cfg.timeline_enabled = true;
        }
        if let Some(us) = self.window_us {
            cfg.timeline_window = Dur::micros(us);
        }
    }
}

/// Parse the shared `--timeline*` flags (`--timeline`,
/// `--timeline-window-us 500` or `--timeline-window-us=500`). A malformed
/// window aborts rather than silently sampling on the default.
pub fn timeline_args() -> TimelineArgs {
    let mut t = TimelineArgs {
        enabled: std::env::args().any(|a| a == "--timeline"),
        window_us: None,
    };
    if let Some(val) = arg_value("--timeline-window-us") {
        match val.parse::<u64>() {
            Ok(us) if us > 0 => {
                t.enabled = true;
                t.window_us = Some(us);
            }
            _ => {
                eprintln!("--timeline-window-us needs a positive count, got {val:?}");
                std::process::exit(2);
            }
        }
    }
    t
}

/// Honor `--trace-out`: re-run one representative point (single-copy stack,
/// 64 KB writes, any `--fault-*` flags still applied) with span tracing
/// enabled, write the Perfetto/chrome-trace JSON, and print the
/// critical-path attribution for the busiest flow. A no-op when the flag
/// was not passed, so every binary can call this unconditionally.
pub fn emit_trace(machine: &MachineConfig) {
    let t = trace_args();
    let Some(path) = t.out else { return };
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, 64 * 1024);
    cfg.total_bytes = total_for(64 * 1024);
    cfg.verify = false;
    apply_fault_flags(&mut cfg);
    timeline_args().apply(&mut cfg);
    cfg.trace_spans = true;
    if let Some(flows) = t.flows {
        cfg.trace_flows = flows;
    }
    let m = run_ttcp(&cfg);
    println!("\n== causal trace (single-copy stack, 64 KB writes) ==\n");
    let opened = m.stats.counter_value("world.spans.opened");
    let evicted = m.stats.counter_value("world.spans.evicted");
    println!("spans recorded: {opened} (evicted: {evicted})");
    if m.stats.get("world.timeline.windows").is_some() {
        println!(
            "timeline windows: {} ({} series; counter tracks merged into the trace)",
            m.stats.counter_value("world.timeline.windows"),
            m.stats.counter_value("world.timeline.series"),
        );
    }
    if let Some(cp) = &m.critical_path {
        print!("{}", cp.render());
    }
    match std::fs::write(&path, m.trace_json.as_deref().unwrap_or_default()) {
        Ok(()) => println!("wrote {path} (open in https://ui.perfetto.dev or chrome://tracing)"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Render and persist a full metrics snapshot for one representative run.
///
/// Runs a single-copy 64 KB-write transfer on `machine`, prints the
/// deterministic [`MetricsRegistry::report`] (SDMA/MDMA busy fractions,
/// page-pool high-water marks, CPU shares, netstat-style TCP counters, link
/// and fabric totals), and writes machine-readable `stats_<tag>.json` and
/// `stats_<tag>.csv` snapshots into the current directory.
///
/// [`MetricsRegistry::report`]: outboard_sim::MetricsRegistry::report
pub fn emit_stats(tag: &str, machine: &MachineConfig) {
    let m = figure_point(machine, true, 64 * 1024);
    println!("\n== per-run stats (single-copy stack, 64 KB writes) ==\n");
    print!("{}", m.stats.report());
    let json = format!("stats_{tag}.json");
    let csv = format!("stats_{tag}.csv");
    match std::fs::write(&json, m.stats.to_json())
        .and_then(|()| std::fs::write(&csv, m.stats.to_csv()))
    {
        Ok(()) => println!("\nwrote {json} and {csv}"),
        Err(e) => eprintln!("\nfailed to write stats snapshots: {e}"),
    }
    // Timeline artifacts ride along when `--timeline` was passed: the
    // sparkline summary on stdout, JSON/CSV next to the stats files.
    if let (Some(tj), Some(tc), Some(ts)) = (&m.timeline_json, &m.timeline_csv, &m.timeline_summary)
    {
        println!("\n== timeline (single-copy stack, 64 KB writes) ==\n");
        print!("{ts}");
        let tjson = format!("timeline_{tag}.json");
        let tcsv = format!("timeline_{tag}.csv");
        match std::fs::write(&tjson, tj).and_then(|()| std::fs::write(&tcsv, tc)) {
            Ok(()) => println!("\nwrote {tjson} and {tcsv}"),
            Err(e) => eprintln!("\nfailed to write timeline snapshots: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::arg_value_in;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arg_value_reads_both_spellings() {
        let a = argv(&["fig5", "--seeds", "8", "--out=dir", "--stats"]);
        assert_eq!(arg_value_in(&a, "--seeds").as_deref(), Some("8"));
        assert_eq!(arg_value_in(&a, "--out").as_deref(), Some("dir"));
    }

    #[test]
    fn arg_value_of_absent_flag_is_none() {
        // A longer flag is not a match in either spelling.
        let a = argv(&["fig5", "--outdir=x", "--outer", "y"]);
        assert_eq!(arg_value_in(&a, "--out"), None);
        assert_eq!(arg_value_in(&[], "--out"), None);
    }

    #[test]
    fn arg_value_of_trailing_flag_is_empty() {
        let a = argv(&["fig5", "--trace-out"]);
        assert_eq!(arg_value_in(&a, "--trace-out").as_deref(), Some(""));
    }

    #[test]
    fn arg_value_keeps_equals_signs_in_the_value() {
        let a = argv(&["chaos", "--out=a=b", "--replay", "k=v.json"]);
        assert_eq!(arg_value_in(&a, "--out").as_deref(), Some("a=b"));
        assert_eq!(arg_value_in(&a, "--replay").as_deref(), Some("k=v.json"));
    }

    #[test]
    fn arg_value_takes_the_first_occurrence() {
        let a = argv(&["chaos", "--seeds=1", "--seeds", "2"]);
        assert_eq!(arg_value_in(&a, "--seeds").as_deref(), Some("1"));
    }
}
