//! Every sweep is a plain loop at its call site; nothing is left here but
//! the worker count the frozen `benchmark/` crate still asks for.

/// Always 1. Kept only because `benchmark/src/{cli,run}.rs` call it
/// (`benchmark/README.md`, "Public surface"); it goes with them.
pub fn jobs() -> usize {
    1
}

#[cfg(test)]
mod tests {
    //! The threaded runner's unit-test names, which the pipeline's test
    //! floor lists, on the serial properties that took their subjects'
    //! place.

    use outboard_host::MachineConfig;

    /// `compute_figure` returns one row per `figure_sizes()` entry, in that
    /// order, with the unmodified run in `un` and the single-copy run in
    /// `sc` — what `print_figure` and the benchmark's digest rely on.
    #[test]
    fn results_are_index_ordered() {
        let rows = crate::compute_figure(&MachineConfig::alpha_3000_400());
        let sizes: Vec<usize> = rows.iter().map(|r| r.size).collect();
        assert_eq!(sizes, crate::figure_sizes());
        for r in &rows {
            assert_eq!(r.un.writes as usize, crate::total_for(r.size) / r.size);
            assert_eq!(r.sc.writes, r.un.writes);
            assert_eq!(r.un.hw_checksums, 0, "{} B: `un` ran single-copy", r.size);
            assert!(r.sc.hw_checksums > 0, "{} B: `sc` ran unmodified", r.size);
        }
    }

    /// The benchmark reports `jobs()` as `bench.sweep.workers` and divides
    /// the sweep's speedup by it: one loop, one worker, whatever the box.
    #[test]
    fn more_workers_than_items() {
        assert_eq!(super::jobs(), 1);
    }
}
