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
//! | `chaos` | seeded fault plans judged by the end-to-end oracle, and `--replay` |
//!
//! Every figure and table binary ends in [`observe`]: with `--stats` or
//! `--trace-out FILE` it makes one observed run (single-copy, 64 KB
//! writes, `--fault-*` applied, spans and the 1 ms timeline on), and
//! [`write_artifacts`] writes every file from that one [`Metrics`]:
//! `stats_<name>.{json,csv}`, `timeline_<name>.{json,csv}` and the
//! Perfetto trace. `chaos --replay` writes a failure's replay through the
//! same function. The figure runs themselves are never observed, so their
//! numbers and registries do not depend on `--stats` or `--trace-out`.
//!
//! Criterion micro-benches live in `benches/`.

#![deny(unreachable_pub)]
use outboard_host::MachineConfig;
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
    run_ttcp(&figure_config(machine, single_copy, write_size))
}

/// The configuration of a figure point, with any `--fault-*` flags applied.
fn figure_config(
    machine: &MachineConfig,
    single_copy: bool,
    write_size: usize,
) -> ExperimentConfig {
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
    cfg
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

/// Honor `--stats` and `--trace-out FILE`, the observability flags of
/// every figure and table binary: with either, make one observed run on
/// `machine` (the single-copy stack, 64 KB writes, any `--fault-*` flags
/// applied, spans and the 1 ms timeline on) and write its artifacts with
/// [`write_artifacts`], the stats ones under `tag`; `--trace-flows N` caps
/// the trace's flow arrows (0 = every flow). A no-op without `--stats` or
/// `--trace-out`, so every such binary calls it last, unconditionally; a
/// malformed flag value exits 2 either way.
pub fn observe(tag: &str, machine: &MachineConfig) {
    let stats = std::env::args().any(|a| a == "--stats");
    let trace = arg_value("--trace-out");
    if let Some(path) = trace
        .as_deref()
        .filter(|p| p.is_empty() || p.starts_with("--"))
    {
        eprintln!("--trace-out needs a filename, got {path:?}");
        std::process::exit(2);
    }
    let flows = arg_value("--trace-flows").map(|val| match val.parse::<usize>() {
        Ok(n) => (n > 0).then_some(n),
        Err(_) => {
            eprintln!("--trace-flows needs a count (0 = all), got {val:?}");
            std::process::exit(2);
        }
    });
    if !stats && trace.is_none() {
        return;
    }
    let mut cfg = figure_config(machine, true, 64 * 1024);
    observed(&mut cfg);
    if let Some(flows) = flows {
        cfg.trace_flows = flows;
    }
    println!("\n== observed run (single-copy stack, 64 KB writes) ==");
    write_artifacts(&run_ttcp(&cfg), stats.then_some(tag), trace.as_deref());
}

/// Make `cfg` an observed run: spans and the timeline on.
pub fn observed(cfg: &mut ExperimentConfig) {
    cfg.trace_spans = true;
    cfg.timeline_enabled = true;
}

/// Write every artifact of an observed run `m`, the one writer of them all.
///
/// With `stats_tag`: the registry report ([`MetricsRegistry::report`]: SDMA/
/// MDMA busy fractions, page-pool high-water marks, CPU shares,
/// netstat-style TCP counters, link and fabric totals) and the timeline's
/// sparklines on stdout, and `stats_<tag>.{json,csv}` and
/// `timeline_<tag>.{json,csv}` in the current directory. With `trace`: the
/// span counts and the busiest flow's critical path on stdout, and the
/// Perfetto trace (spans plus the timeline's counter tracks) at that path.
/// A file that cannot be written ends the process with status 1.
///
/// [`MetricsRegistry::report`]: outboard_sim::MetricsRegistry::report
pub fn write_artifacts(m: &Metrics, stats_tag: Option<&str>, trace: Option<&str>) {
    fn write(path: &str, text: &str) {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(tag) = stats_tag {
        println!("\n== per-run stats ==\n");
        print!("{}", m.stats.report());
        let (json, csv) = (format!("stats_{tag}.json"), format!("stats_{tag}.csv"));
        write(&json, &m.stats.to_json());
        write(&csv, &m.stats.to_csv());
        println!("\nwrote {json} and {csv}");
        if let (Some(tj), Some(tc), Some(ts)) =
            (&m.timeline_json, &m.timeline_csv, &m.timeline_summary)
        {
            println!("\n== timeline ==\n");
            print!("{ts}");
            let (json, csv) = (
                format!("timeline_{tag}.json"),
                format!("timeline_{tag}.csv"),
            );
            write(&json, tj);
            write(&csv, tc);
            println!("\nwrote {json} and {csv}");
        }
    }
    if let Some(path) = trace {
        println!("\n== causal trace ==\n");
        let count = |key: &str| m.stats.counter_value(key);
        let (opened, evicted) = (count("world.spans.opened"), count("world.spans.evicted"));
        println!("spans recorded: {opened} (evicted: {evicted})");
        println!(
            "timeline windows: {} ({} series; counter tracks merged into the trace)",
            count("world.timeline.windows"),
            count("world.timeline.series"),
        );
        if let Some(cp) = &m.critical_path {
            print!("{}", cp.render());
        }
        write(path, m.trace_json.as_deref().unwrap_or_default());
        println!("wrote {path} (open in https://ui.perfetto.dev or chrome://tracing)");
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
