//! Host-time spans recorded from the benchmark's own code around each call
//! into a layer. Spans are kept in memory and written out (Chrome
//! trace-event JSON) when the run ends; a span's self time is its duration
//! minus the part its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The pass this span belongs to (spans of one pass share it).
    pub pass: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder. A disabled tracer records nothing, so the untraced
/// passes run the same code without the bookkeeping.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start numbering spans under the next pass id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[idx].start_ns = self.t0.elapsed().as_nanos() as u64;
        SpanId(Some(idx))
    }

    /// Close a span; spans must close innermost-first.
    pub fn close(&mut self, id: SpanId) {
        let now = self.t0.elapsed().as_nanos() as u64;
        let Some(idx) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name: duration minus direct children, summed.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRec::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Summed duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond clock).
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"pass\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.pass
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.next_pass();
        let root = t.open("pass");
        let a = t.open("build");
        t.close(a);
        let b = t.open("run");
        let c = t.open("inner");
        t.close(c);
        t.close(b);
        t.close(root);
        let total: u64 = t.self_times().values().sum();
        assert_eq!(total, t.root_ns());
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[1].pass, 1);
        let json = crate::json::Json::parse(&t.to_chrome_json("w")).unwrap();
        assert_eq!(json.get("traceEvents").unwrap().items().len(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("pass");
        t.close(s);
        assert!(t.spans().is_empty());
    }
}
