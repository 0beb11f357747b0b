//! Observability: a workspace-wide metrics registry.
//!
//! The paper's whole argument is quantitative (§7.1 utilization accounting,
//! per-byte vs per-packet cost splits, DMA-engine concurrency), so every
//! component of the simulation exposes its counters through one uniform
//! layer. This module provides:
//!
//! * instrument types — value [`ValueHist`]ograms and a time-weighted
//!   [`BusyTracker`] for busy-fraction/occupancy accounting over *virtual*
//!   time (plain counts and levels are fields of the component that owns
//!   them);
//! * [`MetricsRegistry`] — a flat, deterministically-ordered name → value
//!   map that components publish snapshots into (via [`Scope`] prefixes);
//! * renderers — a human-readable [`MetricsRegistry::report`], plus
//!   [`MetricsRegistry::to_json`] / [`MetricsRegistry::to_csv`] for
//!   machine-readable run snapshots.
//!
//! Determinism is a hard requirement: two identical seeded runs must produce
//! byte-identical reports. The registry therefore stores metrics in a
//! `BTreeMap` and formats floating-point values with fixed precision.

use crate::time::{Dur, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A streaming summary of observed values (count / sum / min / max), with a
/// fixed set of power-of-two buckets for deterministic quantile estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueHist {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-power-of-two bucket counts: bucket `i` holds values whose
    /// floor(log2) is `i` (values 0 and 1 share bucket 0).
    buckets: [u32; 64],
}

impl Default for ValueHist {
    fn default() -> ValueHist {
        ValueHist {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl ValueHist {
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// A deterministic quantile estimate: the upper bound of the
    /// power-of-two bucket holding the `q`-th ranked value, clamped to the
    /// observed `[min, max]`. Exact when all values share a bucket;
    /// within 2× otherwise. `q` is clamped to `[0, 1]`; returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += u64::from(*n);
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A busy-until occupancy timeline over virtual time.
///
/// This is the CAB's engine model: work submitted at `now` starts when the
/// resource frees up and occupies it for a duration; cumulative busy time
/// over an elapsed window gives the busy fraction. Each of the CAB's DMA
/// engines serializes on one of these; the host CPU does not
/// (`host::Cpu::run` keeps its own `busy_until` beside its per-charge
/// accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusyTracker {
    busy_until: Time,
    total: Dur,
}

impl BusyTracker {
    /// An idle resource at time zero.
    pub fn new() -> BusyTracker {
        BusyTracker::default()
    }

    /// When the current backlog drains.
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Occupy the resource for `dur`, starting no earlier than `now` and no
    /// earlier than the end of previously queued work. Returns completion.
    pub fn occupy(&mut self, now: Time, dur: Dur) -> Time {
        let start = now.max(self.busy_until);
        self.busy_until = start + dur;
        self.total += dur;
        self.busy_until
    }

    /// Cumulative busy time.
    pub fn total_busy(&self) -> Dur {
        self.total
    }

    /// Busy fraction over an elapsed window (0.0 for an empty window).
    pub fn busy_fraction(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.total.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// One published metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// A monotonic count.
    Counter(u64),
    /// A level + its high-water mark.
    Gauge {
        /// Current level.
        value: i64,
        /// Highest level observed.
        hwm: i64,
    },
    /// A dimensionless fraction (utilization, hit rate), 0.0–1.0-ish.
    Frac(f64),
    /// A value-distribution summary.
    Hist {
        /// Values recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Smallest recorded value.
        min: u64,
        /// Largest recorded value.
        max: u64,
    },
}

/// Lowercase dotted snake_case with no empty segment
/// (`host0.cab0.channel.0.frames_tx`, `world.spans.opened`).
fn valid_metric_name(name: &str) -> bool {
    name.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
    })
}

/// A flat, deterministically ordered snapshot of every published metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
    elapsed: Dur,
}

impl MetricsRegistry {
    /// An empty registry covering an elapsed virtual-time window (used to
    /// turn busy times into fractions).
    pub fn new(elapsed: Dur) -> MetricsRegistry {
        MetricsRegistry {
            metrics: BTreeMap::new(),
            elapsed,
        }
    }

    /// The elapsed window this snapshot covers.
    pub fn elapsed(&self) -> Dur {
        self.elapsed
    }

    /// A scope that prefixes every published name with `prefix.`.
    pub fn scope(&mut self, prefix: &str) -> Scope<'_> {
        Scope {
            reg: self,
            prefix: prefix.to_string(),
        }
    }

    /// The one way a name gets in, so the taxonomy is checked here: names
    /// are formatted by now, whichever variable or scope built them.
    fn insert(&mut self, name: String, m: Metric) {
        debug_assert!(
            valid_metric_name(&name),
            "metric name {name:?} is off the taxonomy (lowercase dotted snake_case)"
        );
        self.metrics.insert(name, m);
    }

    /// Publish a counter at the top level.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.insert(name.to_string(), Metric::Counter(v));
    }

    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// A counter's value (0 when absent or of another type).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A fraction's value (0.0 when absent or of another type).
    pub fn frac_value(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(Metric::Frac(v)) => *v,
            _ => 0.0,
        }
    }

    /// A gauge's (value, high-water mark), (0, 0) when absent.
    pub fn gauge_value(&self, name: &str) -> (i64, i64) {
        match self.metrics.get(name) {
            Some(Metric::Gauge { value, hwm }) => (*value, *hwm),
            _ => (0, 0),
        }
    }

    /// Number of published metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Deterministic human-readable report, one metric per line, sorted by
    /// name, values in fixed-precision formats.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# metrics over {} (virtual)", self.elapsed);
        let width = self.metrics.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v}");
                }
                Metric::Gauge { value, hwm } => {
                    let _ = writeln!(out, "{name:<width$}  {value} (hwm {hwm})");
                }
                Metric::Frac(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v:.6}");
                }
                Metric::Hist {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    let _ = writeln!(
                        out,
                        "{name:<width$}  n={count} mean={mean:.1} min={min} max={max}"
                    );
                }
            }
        }
        out
    }

    /// Machine-readable JSON snapshot (hand-rolled; metric names are plain
    /// dotted identifiers, values fixed-precision).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"elapsed_ns\": {},", self.elapsed.as_nanos());
        out.push_str("  \"metrics\": {\n");
        let n = self.metrics.len();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "    \"{name}\": {{\"type\": \"counter\", \"value\": {v}}}{comma}"
                    );
                }
                Metric::Gauge { value, hwm } => {
                    let _ = writeln!(
                        out,
                        "    \"{name}\": {{\"type\": \"gauge\", \"value\": {value}, \"hwm\": {hwm}}}{comma}"
                    );
                }
                Metric::Frac(v) => {
                    let _ = writeln!(
                        out,
                        "    \"{name}\": {{\"type\": \"frac\", \"value\": {v:.6}}}{comma}"
                    );
                }
                Metric::Hist {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let _ = writeln!(
                        out,
                        "    \"{name}\": {{\"type\": \"hist\", \"count\": {count}, \"sum\": {sum}, \"min\": {min}, \"max\": {max}}}{comma}"
                    );
                }
            }
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Machine-readable CSV snapshot: `name,type,value,extra`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,type,value,extra\n");
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v},");
                }
                Metric::Gauge { value, hwm } => {
                    let _ = writeln!(out, "{name},gauge,{value},{hwm}");
                }
                Metric::Frac(v) => {
                    let _ = writeln!(out, "{name},frac,{v:.6},");
                }
                Metric::Hist {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let _ = writeln!(out, "{name},hist,{count},{sum};{min};{max}");
                }
            }
        }
        out
    }
}

/// A name-prefixing view into a [`MetricsRegistry`].
pub struct Scope<'a> {
    reg: &'a mut MetricsRegistry,
    prefix: String,
}

impl Scope<'_> {
    /// A nested scope: `prefix.sub.`.
    pub fn sub(&mut self, sub: &str) -> Scope<'_> {
        Scope {
            prefix: format!("{}.{sub}", self.prefix),
            reg: self.reg,
        }
    }

    /// The elapsed window of the underlying registry.
    pub fn elapsed(&self) -> Dur {
        self.reg.elapsed
    }

    fn name(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// Publish a counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.reg.insert(self.name(name), Metric::Counter(v));
    }

    /// Publish a gauge + high-water mark.
    pub fn gauge(&mut self, name: &str, value: i64, hwm: i64) {
        self.reg
            .insert(self.name(name), Metric::Gauge { value, hwm });
    }

    /// Publish a fraction.
    pub fn frac(&mut self, name: &str, v: f64) {
        self.reg.insert(self.name(name), Metric::Frac(v));
    }

    /// Publish a busy fraction from a [`BusyTracker`] over the registry's
    /// elapsed window.
    pub fn busy_frac(&mut self, name: &str, t: &BusyTracker) {
        let f = t.busy_fraction(self.reg.elapsed);
        self.frac(name, f);
    }

    /// Publish a value-distribution summary.
    pub fn hist(&mut self, name: &str, h: &ValueHist) {
        self.reg.insert(
            self.name(name),
            Metric::Hist {
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_taxonomy() {
        for ok in [
            "tcp.segs_out",
            "host0.cab0.channel.0.frames_tx",
            "world.spans.opened",
            "world.spans.mdma_rx.p99_ns",
            "world.chaos.down_drops",
            "world.timeline.window_ns",
            "host1.engine_busy_ns",
            "world.pool_in_use",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "Bad Name",
            "world.chaos.Bad-Kind",
            "world.timeline.Window NS",
            "",
            "tcp..segs_out",
            "tcp.segs_out.",
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off the taxonomy")]
    fn publishing_a_bad_name_panics_in_debug_builds() {
        MetricsRegistry::new(Dur::ZERO).counter("Bad.Name", 1);
    }

    #[test]
    fn hist_summary() {
        let mut h = ValueHist::default();
        assert_eq!((h.count, h.quantile(0.5)), (0, 0));
        for v in [10, 2, 6] {
            h.record(v);
        }
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18, 2, 10));
        assert_eq!(h.quantile(0.5), 7, "upper bound of 6's bucket [4, 7]");
    }

    #[test]
    fn busy_tracker_serializes_and_fractions() {
        let mut b = BusyTracker::new();
        let t1 = b.occupy(Time::ZERO, Dur::micros(100));
        assert_eq!(t1, Time(100_000));
        // Arrives while busy: queued behind.
        let t2 = b.occupy(Time(50_000), Dur::micros(100));
        assert_eq!(t2, Time(200_000));
        assert_eq!(b.total_busy(), Dur::micros(200));
        assert!((b.busy_fraction(Dur::millis(1)) - 0.2).abs() < 1e-12);
        assert_eq!(b.busy_fraction(Dur::ZERO), 0.0);
    }

    #[test]
    fn registry_is_sorted_and_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new(Dur::millis(10));
            r.counter("zzz.last", 1);
            let mut s = r.scope("host0");
            s.counter("tcp.segs_out", 42);
            s.frac("cpu.user_share", 0.25);
            s.gauge("netmem.pages", 3, 9);
            let mut sub = s.sub("cab0");
            sub.counter("frames", 7);
            r
        };
        let a = build();
        let b = build();
        assert_eq!(a.report(), b.report());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        // Sorted: host0.* before zzz.*.
        let names: Vec<_> = a.iter().map(|(n, _)| n.to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(a.counter_value("host0.cab0.frames"), 7);
        assert_eq!(a.gauge_value("host0.netmem.pages"), (3, 9));
        assert!((a.frac_value("host0.cpu.user_share") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn renderers_cover_every_metric_type() {
        let mut r = MetricsRegistry::new(Dur::secs(1));
        r.counter("c", 3);
        let mut s = r.scope("x");
        s.gauge("g", 2, 5);
        s.frac("f", 0.5);
        let mut h = ValueHist::default();
        h.record(4);
        s.hist("h", &h);
        let rep = r.report();
        assert!(rep.contains("c") && rep.contains("2 (hwm 5)"));
        let json = r.to_json();
        assert!(json.contains("\"x.g\": {\"type\": \"gauge\", \"value\": 2, \"hwm\": 5}"));
        assert!(json.contains("\"elapsed_ns\": 1000000000"));
        let csv = r.to_csv();
        assert!(csv.contains("x.h,hist,1,4;4;4"));
    }
}
