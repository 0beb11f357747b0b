//! Windowed time-series telemetry: the time dimension of observability.
//!
//! [`MetricsRegistry`](crate::obs::MetricsRegistry) snapshots counters at
//! end-of-run; spans ([`crate::span`]) explain single packets. Neither can
//! answer "what did netmem occupancy and the retransmit rate look like
//! *during* the 130 ms squeeze?". A [`Timeline`] does: a declared set of
//! counters and gauges is sampled on a fixed virtual-time window (1 ms by
//! default), and each window stores the counter *delta* (equivalently the
//! per-window rate) or the gauge *level* in a bounded ring.
//!
//! Determinism and exactness are design requirements, matching the rest of
//! the crate:
//!
//! * Sampling is driven by virtual time only — the caller samples when the
//!   event clock reaches [`Timeline::next_boundary`], so two runs with the
//!   same seed produce byte-identical timelines.
//! * Conservation is exact: for every counter series,
//!   `base + sum(window deltas) == final value`. Ring eviction folds the
//!   evicted window's delta into `base`, so the identity survives bounded
//!   memory. [`Timeline::conserves`] checks it.
//! * All arithmetic is integral; JSON/CSV renderings use exact decimal
//!   formatting (no floats), so exports are byte-stable.
//!
//! Exports: [`Timeline::to_json`] / [`Timeline::to_csv`] for artifacts,
//! Perfetto counter tracks written straight into the span trace by
//! [`crate::SpanSink::export_chrome_trace`] (`ph:"C"` events sharing the
//! span pid space),
//! and [`Timeline::sparklines`] for a terminal summary.

use crate::span::{push_event_head, push_sep, push_u64};
use crate::time::{Dur, Time};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// What a declared series measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// A monotone (or at least cumulative) counter: each window stores the
    /// delta over the window, and `base + sum(deltas) == final` exactly.
    Counter,
    /// An instantaneous level: each window stores the level observed at
    /// the window's closing boundary.
    Gauge,
}

impl SeriesKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

struct Series {
    name: String,
    kind: SeriesKind,
    unit: &'static str,
    pid: u32,
    /// Value folded out of evicted windows (counters); the declared-time
    /// starting value otherwise. Conservation: `base + sum == last`.
    base: i64,
    /// Last absolute value sampled.
    last: i64,
    /// High-water mark of window samples: the peak per-window delta
    /// (counters, i.e. the peak rate) or peak level (gauges).
    hwm: i64,
    /// Per-window deltas (counters) or closing levels (gauges), one entry
    /// per retained window, oldest first.
    samples: VecDeque<i64>,
}

/// A bounded, windowed, deterministic time-series recorder.
///
/// Usage: [`declare`](Timeline::declare) every series up front, then call
/// [`record`](Timeline::record) with the absolute values of every series,
/// in declaration order, each time the caller's clock reaches
/// [`next_boundary`](Timeline::next_boundary). [`close`](Timeline::close)
/// ends the run with a final, possibly partial window.
pub struct Timeline {
    window: Dur,
    capacity: usize,
    series: Vec<Series>,
    /// Total windows recorded, including evicted ones.
    windows: u64,
    /// Windows evicted from the front of the rings.
    evicted: u64,
    /// Virtual end of the last recorded window (ns). Equals
    /// `windows * window` except after a partial final window.
    end_ns: u64,
}

impl Timeline {
    /// A new timeline sampling on `window` (must be non-zero), retaining at
    /// most `capacity` windows (clamped to at least 1).
    pub fn new(window: Dur, capacity: usize) -> Timeline {
        assert!(!window.is_zero(), "timeline window must be non-zero");
        Timeline {
            window,
            capacity: capacity.max(1),
            series: Vec::new(),
            windows: 0,
            evicted: 0,
            end_ns: 0,
        }
    }

    /// The sampling window.
    pub fn window(&self) -> Dur {
        self.window
    }

    /// Total windows recorded, including evicted ones.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Windows evicted from the rings (0 until `capacity` is exceeded).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Virtual end of the last recorded window, in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }

    /// Number of declared series.
    pub fn series_len(&self) -> usize {
        self.series.len()
    }

    /// Declare a series. `initial` is the series' absolute value at
    /// declaration time (normally 0); deltas for the first window are
    /// relative to it. Declare everything before the first
    /// [`record`](Timeline::record), whose values follow declaration order.
    pub fn declare(
        &mut self,
        name: &str,
        kind: SeriesKind,
        unit: &'static str,
        pid: u32,
        initial: i64,
    ) {
        assert_eq!(self.windows, 0, "declare all series before recording");
        self.series.push(Series {
            name: name.to_string(),
            kind,
            unit,
            pid,
            base: initial,
            last: initial,
            // The hwm covers window samples: a counter's peak rate starts
            // at zero, a gauge's peak level at the declared level.
            hwm: match kind {
                SeriesKind::Counter => 0,
                SeriesKind::Gauge => initial,
            },
            samples: VecDeque::new(),
        });
    }

    /// The boundary that closes the next window: `(windows + 1) × window`.
    pub fn next_boundary(&self) -> Time {
        Time((self.windows + 1) * self.window.as_nanos())
    }

    /// Close one full window with the absolute values of every series, in
    /// declaration order. The window covers
    /// `[windows * window, next_boundary)`.
    pub fn record(&mut self, values: &[i64]) {
        let end = self.next_boundary().nanos();
        self.record_at(end, values);
    }

    /// End the run at `now`, every boundary up to it recorded: a final
    /// partial window from the last boundary to `now`, unless `now` is it.
    pub fn close(&mut self, now: Time, values: &[i64]) {
        debug_assert!(now < self.next_boundary(), "record every boundary first");
        if now.nanos() > self.end_ns {
            self.record_at(now.nanos(), values);
        }
    }

    fn record_at(&mut self, end_ns: u64, values: &[i64]) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "record() values must match declared series"
        );
        for (s, &v) in self.series.iter_mut().zip(values) {
            let sample = match s.kind {
                SeriesKind::Counter => v - s.last,
                SeriesKind::Gauge => v,
            };
            s.samples.push_back(sample);
            s.last = v;
            if sample > s.hwm {
                s.hwm = sample;
            }
        }
        self.windows += 1;
        self.end_ns = end_ns;
        if self.series.first().map(|s| s.samples.len()).unwrap_or(0) > self.capacity {
            for s in &mut self.series {
                if let Some(old) = s.samples.pop_front() {
                    // Fold the evicted delta into the base so conservation
                    // (`base + sum == last`) survives bounded memory. For
                    // gauges the base tracks the level entering the ring.
                    match s.kind {
                        SeriesKind::Counter => s.base += old,
                        SeriesKind::Gauge => s.base = old,
                    }
                }
            }
            self.evicted += 1;
        }
    }

    /// Exact conservation check: every counter series satisfies
    /// `base + sum(retained deltas) == final value`.
    pub fn conserves(&self) -> bool {
        self.series.iter().all(|s| match s.kind {
            SeriesKind::Counter => s.base + s.samples.iter().sum::<i64>() == s.last,
            SeriesKind::Gauge => true,
        })
    }

    /// Start of retained window `k` (ns).
    fn window_start_ns(&self, k: u64) -> u64 {
        k * self.window.as_nanos()
    }

    /// End of retained window `k` (ns): the next boundary, except the last
    /// window which may be partial.
    fn window_end_ns(&self, k: u64) -> u64 {
        if k + 1 == self.windows {
            self.end_ns
        } else {
            (k + 1) * self.window.as_nanos()
        }
    }

    /// Render the timeline as `outboard-timeline-v1` JSON. Integral and
    /// byte-deterministic; conservation is visible in the artifact
    /// (`base + sum == final` per counter series).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"outboard-timeline-v1\",\n");
        let _ = writeln!(out, "  \"window_ns\": {},", self.window.as_nanos());
        let _ = writeln!(out, "  \"windows\": {},", self.windows);
        let _ = writeln!(out, "  \"evicted\": {},", self.evicted);
        let _ = writeln!(out, "  \"first_retained\": {},", self.evicted);
        let _ = writeln!(out, "  \"end_ns\": {},", self.end_ns);
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            let sum: i64 = s.samples.iter().sum();
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \
                 \"pid\": {}, \"base\": {}, \"final\": {}, \"sum\": {}, \
                 \"hwm\": {}, \"samples\": [",
                s.name,
                s.kind.name(),
                s.unit,
                s.pid,
                s.base,
                s.last,
                sum,
                s.hwm,
            );
            for (j, v) in s.samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("]}");
            if i + 1 < self.series.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render the retained windows as CSV: one row per window, one column
    /// per series (counter columns are per-window deltas, gauge columns
    /// closing levels).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window,start_ns,end_ns");
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        out.push('\n');
        let retained = self.series.first().map(|s| s.samples.len()).unwrap_or(0);
        for i in 0..retained {
            let k = self.evicted + i as u64;
            let _ = write!(
                out,
                "{},{},{}",
                k,
                self.window_start_ns(k),
                self.window_end_ns(k)
            );
            for s in &self.series {
                let _ = write!(out, ",{}", s.samples[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Write the Chrome trace-event counter events (`ph:"C"`) into a
    /// trace being exported: one per series per retained window, in
    /// ascending-timestamp order. Each event's `pid` is the series'
    /// declared pid, so the tracks merge into the span exporter's process
    /// space; the `args` key is the unit label.
    pub(crate) fn push_chrome_counters(&self, out: &mut String) {
        let retained = self.series.first().map(|s| s.samples.len()).unwrap_or(0);
        for i in 0..retained {
            let ts_ns = self.window_start_ns(self.evicted + i as u64);
            for s in &self.series {
                push_sep(out);
                push_event_head(out, 'C', s.pid, 0, ts_ns, &s.name);
                out.push_str(",\"cat\":\"timeline\",\"args\":{\"");
                out.push_str(s.unit);
                out.push_str("\":");
                if s.samples[i] < 0 {
                    out.push('-');
                }
                push_u64(out, s.samples[i].unsigned_abs());
                out.push_str("}}");
            }
        }
    }

    /// ASCII sparkline summary of every series (last windows, downsampled
    /// to at most 64 columns by per-chunk maximum).
    pub fn sparklines(&self) -> String {
        const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        const COLS: usize = 64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {} windows x {} ({} evicted)",
            self.windows, self.window, self.evicted
        );
        for s in &self.series {
            let n = s.samples.len();
            let chunk = n.div_ceil(COLS).max(1);
            let mut cells: Vec<i64> = Vec::new();
            let mut i = 0;
            while i < n {
                let end = (i + chunk).min(n);
                cells.push((i..end).map(|j| s.samples[j].max(0)).max().unwrap_or(0));
                i = end;
            }
            let peak = cells.iter().copied().max().unwrap_or(0).max(1);
            let mut spark = String::new();
            for c in &cells {
                let idx = ((*c * (BLOCKS.len() as i64 - 1)) + peak - 1) / peak;
                spark.push(BLOCKS[(idx.clamp(0, BLOCKS.len() as i64 - 1)) as usize]);
            }
            let _ = writeln!(
                out,
                "  {:<26} {:<cols$} final={} hwm={}",
                s.name,
                spark,
                s.last,
                s.hwm,
                cols = COLS.min(cells.len().max(1)),
            );
        }
        out
    }
}

/// Read-only view of one series' window state.
#[cfg(test)]
pub(crate) struct SeriesView<'a> {
    /// Value folded out of evicted windows.
    pub(crate) base: i64,
    /// Last absolute value sampled.
    pub(crate) final_value: i64,
    /// High-water mark of window samples: the peak per-window delta
    /// (counters, i.e. the peak rate) or peak level (gauges).
    pub(crate) hwm: i64,
    /// Retained per-window samples, oldest first.
    pub(crate) samples: &'a VecDeque<i64>,
    /// Series name, unit label and trace pid, as declared.
    pub(crate) name: &'a str,
    pub(crate) unit: &'static str,
    pub(crate) pid: u32,
}

#[cfg(test)]
impl Timeline {
    /// Read-only view of series `idx` (declaration order).
    pub(crate) fn series_view(&self, idx: usize) -> SeriesView<'_> {
        let s = &self.series[idx];
        SeriesView {
            base: s.base,
            final_value: s.last,
            hwm: s.hwm,
            samples: &s.samples,
            name: &s.name,
            unit: s.unit,
            pid: s.pid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Dur {
        Dur::millis(n)
    }

    #[test]
    fn counter_deltas_and_conservation() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("world.bytes", SeriesKind::Counter, "bytes", 0, 0);
        tl.record(&[100]);
        tl.record(&[100]);
        tl.record(&[350]);
        let v = tl.series_view(0);
        assert_eq!(v.samples.iter().copied().collect::<Vec<_>>(), [100, 0, 250]);
        assert_eq!(v.final_value, 350);
        assert_eq!(v.hwm, 250, "counter hwm is the peak per-window delta");
        assert!(tl.conserves());
        assert_eq!(tl.windows(), 3);
        assert_eq!(tl.end_ns(), 3_000_000);
    }

    #[test]
    fn gauge_records_levels_and_hwm() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("world.pool_in_use", SeriesKind::Gauge, "bufs", 0, 0);
        tl.record(&[5]);
        tl.record(&[12]);
        tl.record(&[3]);
        let v = tl.series_view(0);
        assert_eq!(v.samples.iter().copied().collect::<Vec<_>>(), [5, 12, 3]);
        assert_eq!(v.hwm, 12);
        assert!(tl.conserves());
    }

    #[test]
    fn eviction_folds_into_base_and_preserves_conservation() {
        let mut tl = Timeline::new(ms(1), 4);
        tl.declare("c", SeriesKind::Counter, "n", 0, 0);
        for i in 1..=10i64 {
            tl.record(&[i * 10]);
        }
        assert_eq!(tl.windows(), 10);
        assert_eq!(tl.evicted(), 6);
        let v = tl.series_view(0);
        assert_eq!(v.samples.len(), 4);
        assert_eq!(v.base, 60); // six evicted windows of +10 each
        assert_eq!(v.final_value, 100);
        assert!(tl.conserves());
    }

    #[test]
    fn partial_final_window_keeps_conservation() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("c", SeriesKind::Counter, "n", 0, 0);
        tl.record(&[7]);
        tl.close(Time(1_400_000), &[9]);
        assert_eq!(tl.end_ns(), 1_400_000);
        assert!(tl.conserves());
        let csv = tl.to_csv();
        let last = csv.lines().last().unwrap();
        assert_eq!(last, "1,1000000,1400000,2");
    }

    #[test]
    fn json_exposes_schema_and_conservation() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("host0.tx_bytes", SeriesKind::Counter, "bytes", 0, 0);
        tl.record(&[64]);
        tl.record(&[128]);
        let j = tl.to_json();
        assert!(j.contains("\"schema\": \"outboard-timeline-v1\""));
        assert!(j.contains("\"window_ns\": 1000000"));
        assert!(j.contains("\"base\": 0, \"final\": 128, \"sum\": 128"));
        assert!(j.contains("\"samples\": [64,64]"));
    }

    #[test]
    fn chrome_counter_events_are_c_phase_in_pid_space() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("host0.tx_bytes", SeriesKind::Counter, "bytes", 0, 0);
        tl.declare("world.faults", SeriesKind::Counter, "events", 2, 0);
        tl.record(&[10, 1]);
        tl.record(&[30, 1]);
        let trace = crate::SpanSink::default().export_chrome_trace(&[], None, Some(&tl));
        let evs: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"ph\":\"C\""))
            .collect();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs[0],
            "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"host0.tx_bytes\",\
             \"cat\":\"timeline\",\"args\":{\"bytes\":10}},"
        );
        assert!(evs[1].contains("\"pid\":2"));
        // Second window starts at 1 ms.
        assert!(evs[2].contains("\"ts\":1000.000"));
    }

    #[test]
    fn sparklines_render_one_row_per_series() {
        let mut tl = Timeline::new(ms(1), 1024);
        tl.declare("a", SeriesKind::Counter, "n", 0, 0);
        tl.declare("b", SeriesKind::Gauge, "n", 0, 0);
        for i in 0..100i64 {
            tl.record(&[i, i % 7]);
        }
        let s = tl.sparklines();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("100 windows"));
        assert!(s.contains('█'));
    }

    #[test]
    fn declaration_initial_value_seeds_base() {
        let mut tl = Timeline::new(ms(1), 8);
        tl.declare("c", SeriesKind::Counter, "n", 0, 40);
        tl.record(&[42]);
        let v = tl.series_view(0);
        assert_eq!(v.samples[0], 2);
        assert_eq!(v.base, 40);
        assert!(tl.conserves());
    }

    /// One run driven two ways: by the boundary cursor a caller once kept
    /// beside the timeline (the reference), and by the timeline's own
    /// `next_boundary`. `events` are (time, counter value) pairs; the run
    /// ends at `end`. Both must record the same windows, end and samples.
    fn both_ways(events: &[(u64, i64)], end: u64) -> [(u64, u64, Vec<i64>, bool); 2] {
        let fresh = || {
            let mut tl = Timeline::new(ms(1), 1024);
            tl.declare("c", SeriesKind::Counter, "n", 0, 0);
            tl
        };
        let summary = |tl: &Timeline| {
            let v = tl.series_view(0);
            let samples = v.samples.iter().copied().collect();
            (tl.windows(), tl.end_ns(), samples, tl.conserves())
        };
        // The reference: a cursor from `window`, advanced by one window per
        // record; a partial window unless the run ended on a boundary.
        let (mut cursor_tl, mut derived) = (fresh(), fresh());
        let window = ms(1).as_nanos();
        let mut cursor = window;
        let mut value = 0;
        for &(at, v) in events {
            while at >= cursor {
                cursor_tl.record(&[value]);
                cursor += window;
            }
            while Time(at) >= derived.next_boundary() {
                derived.record(&[value]);
            }
            value = v;
        }
        while cursor <= end {
            cursor_tl.record(&[value]);
            cursor += window;
        }
        if end + window > cursor {
            cursor_tl.record_at(end, &[value]);
        }
        while Time(end) >= derived.next_boundary() {
            derived.record(&[value]);
        }
        derived.close(Time(end), &[value]);
        [summary(&cursor_tl), summary(&derived)]
    }

    #[test]
    fn the_derived_boundary_records_what_the_cursor_did() {
        let ms1 = 1_000_000;
        // An event exactly on a boundary is after it: its window is the next.
        let [cursor, derived] = both_ways(&[(500, 1), (ms1, 2), (ms1 + 10, 3)], 1_500_000);
        assert_eq!(cursor, derived);
        assert_eq!(derived.2, [1, 2]);
        // A gap of several empty windows.
        let [cursor, derived] = both_ways(&[(100, 4), (4 * ms1 + 7, 9)], 5 * ms1 + 300);
        assert_eq!(cursor, derived);
        assert_eq!(
            (derived.0, derived.2.as_slice()),
            (6, &[4, 0, 0, 0, 5, 0][..])
        );
        // The run ends exactly on a boundary: no partial window.
        let [cursor, derived] = both_ways(&[(100, 4), (ms1 + 5, 6)], 2 * ms1);
        assert_eq!(cursor, derived);
        assert_eq!((derived.0, derived.1), (2, 2 * ms1));
        // The run ends mid-window: one partial window up to its end.
        let [cursor, derived] = both_ways(&[(100, 4), (ms1 + 5, 6)], 2 * ms1 + 250);
        assert_eq!(cursor, derived);
        assert_eq!((derived.0, derived.1, derived.3), (3, 2 * ms1 + 250, true));
    }
}
