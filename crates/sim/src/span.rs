//! Per-packet causal tracing: span timelines over virtual time.
//!
//! The metrics registry ([`crate::obs`]) aggregates counters; it cannot show
//! *where a particular packet's time went* as it moves host memory → CAB
//! network memory → wire → network memory → host. This module follows each
//! packet through those stages:
//!
//! * [`FlowId`] — a deterministic identity for a unit of transfer, derived
//!   from the wire-visible 4-tuple (and, where known, the TCP sequence of
//!   the segment), so the sender, the fabric, and the receiver all compute
//!   the *same* id without any wire-format change;
//! * [`Stage`] — the closed taxonomy of lifecycle stages (syscall entry,
//!   kernel output, SDMA, checksum engine, MDMA, wire transit, demux,
//!   socket-buffer dwell, …, plus fault detours);
//! * [`SpanSink`] — a handle on a world's one span store: a bounded ring of
//!   closed [`Span`]s, the table of open ones, the per-stage statistics and
//!   the open/close/drop conservation counters. Each host kernel and the
//!   fabric hold a handle, each recording as its own trace process (pid);
//!   a disabled handle does nothing and allocates nothing, so the hot path
//!   stays on the allocation diet.
//! * exporters — [`SpanSink::export_chrome_trace`] renders Chrome
//!   trace-event / Perfetto JSON (one process per pid, one track per engine
//!   lane, flow arrows following a [`FlowId`] across hosts), and
//!   [`critical_path`] attributes a flow's end-to-end latency to stages
//!   exactly (the shares sum to the total).
//!
//! Determinism is a hard requirement: spans are stamped with virtual time,
//! their pid and that pid's emission sequence, ordered with a stable sort,
//! and all timestamps render as exact decimal nanoseconds — identical seeds
//! produce byte-identical trace files.

use crate::obs::{Scope, ValueHist};
use crate::time::Time;
use crate::timeline::Timeline;
use std::cell::{Ref, RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Number of distinct [`Stage`]s.
pub(crate) const STAGE_COUNT: usize = 16;

/// A lifecycle stage a traced unit of transfer passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// `sys_write` entry: user data enters the kernel.
    Syscall,
    /// TCP/UDP output: a segment is materialized from the send queue.
    KernelOutput,
    /// SDMA copy-in: host (user) memory → CAB network memory.
    Sdma,
    /// The outboard checksum engine covering the data (runs with SDMA).
    Checksum,
    /// MDMA transmit: network memory → media.
    MdmaTx,
    /// Wire transit on the fabric (includes fault fates).
    Wire,
    /// MDMA receive: media → network memory (+ auto-DMA prefix to host).
    MdmaRx,
    /// Receive interrupt, IP input and transport demux.
    Demux,
    /// Data dwelling in the receiving socket buffer.
    Sockbuf,
    /// `sys_read` copy-out toward the user (blocking DMA window included).
    SysRecv,
    /// An ACK advancing the sender's window (causality link).
    Ack,
    /// A retransmitted segment (causality link to recovery).
    Retransmit,
    /// A transmission parked in the retry queue (backoff dwell).
    RetryDwell,
    /// The interface running degraded on the traditional path.
    Degraded,
    /// A watchdog board reset.
    WatchdogReset,
    /// A receive copy-out finished by programmed I/O after a DMA error.
    PioFallback,
}

impl Stage {
    /// Every stage, in taxonomy order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Syscall,
        Stage::KernelOutput,
        Stage::Sdma,
        Stage::Checksum,
        Stage::MdmaTx,
        Stage::Wire,
        Stage::MdmaRx,
        Stage::Demux,
        Stage::Sockbuf,
        Stage::SysRecv,
        Stage::Ack,
        Stage::Retransmit,
        Stage::RetryDwell,
        Stage::Degraded,
        Stage::WatchdogReset,
        Stage::PioFallback,
    ];

    /// Stable index into per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stage's stable name (used in trace files and metric names, so it
    /// is part of the artifact format).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Syscall => "syscall",
            Stage::KernelOutput => "kernel_output",
            Stage::Sdma => "sdma",
            Stage::Checksum => "checksum",
            Stage::MdmaTx => "mdma_tx",
            Stage::Wire => "wire",
            Stage::MdmaRx => "mdma_rx",
            Stage::Demux => "demux",
            Stage::Sockbuf => "sockbuf",
            Stage::SysRecv => "sys_recv",
            Stage::Ack => "ack",
            Stage::Retransmit => "retransmit",
            Stage::RetryDwell => "retry_dwell",
            Stage::Degraded => "degraded",
            Stage::WatchdogReset => "watchdog_reset",
            Stage::PioFallback => "pio_fallback",
        }
    }

    /// The engine/CPU lane (Perfetto track) the stage renders on.
    pub fn lane(self) -> &'static str {
        match self {
            Stage::Syscall => "app.syscall",
            Stage::KernelOutput | Stage::Retransmit => "kern.output",
            Stage::Sdma => "cab.sdma",
            Stage::Checksum => "cab.csum",
            Stage::MdmaTx => "cab.mdma_tx",
            Stage::Wire => "fabric",
            Stage::MdmaRx => "cab.mdma_rx",
            Stage::Demux | Stage::Ack => "kern.input",
            Stage::Sockbuf => "sock.rcv",
            Stage::SysRecv => "app.recv",
            Stage::RetryDwell | Stage::Degraded | Stage::WatchdogReset | Stage::PioFallback => {
                "kern.detour"
            }
        }
    }
}

/// Deterministic identity for a traced unit of transfer.
///
/// The high 32 bits are a hash of the wire-visible 4-tuple *in data
/// direction* (source-of-data → destination-of-data), so every layer on
/// either host computes the same group for one connection. The low 32 bits
/// carry the TCP sequence of the specific segment where the emitting layer
/// knows it, and zero where only the connection is known (socket-buffer
/// dwell, ACK processing, reads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl FlowId {
    /// The "no flow" id used by host-level detour spans.
    pub const NONE: FlowId = FlowId(0);

    /// Hash a data-direction 4-tuple into a flow group.
    ///
    /// FNV-1a over the octets; never returns zero (zero means "no flow").
    pub fn group_of(src_ip: [u8; 4], src_port: u16, dst_ip: [u8; 4], dst_port: u16) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        let mut eat = |b: u8| {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        };
        for b in src_ip {
            eat(b);
        }
        eat((src_port >> 8) as u8);
        eat(src_port as u8);
        for b in dst_ip {
            eat(b);
        }
        eat((dst_port >> 8) as u8);
        eat(dst_port as u8);
        if h == 0 {
            1
        } else {
            h
        }
    }

    /// A flow id for a specific segment of a group.
    #[inline]
    pub fn from_parts(group: u32, seq_lo: u32) -> FlowId {
        FlowId((u64::from(group) << 32) | u64::from(seq_lo))
    }

    /// A group-level flow id (segment unknown).
    #[inline]
    pub fn group_only(group: u32) -> FlowId {
        FlowId::from_parts(group, 0)
    }

    /// The connection-level group this flow belongs to.
    #[inline]
    pub fn group(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The segment sequence (zero when only the group is known).
    #[inline]
    pub fn seq_lo(self) -> u32 {
        self.0 as u32
    }

    /// True for the "no flow" id.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One closed span: a stage a flow occupied over `[start, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The traced unit this span belongs to.
    pub flow: FlowId,
    /// Which lifecycle stage.
    pub stage: Stage,
    /// Virtual time the stage began.
    pub start: Time,
    /// Virtual time the stage ended (`>= start`).
    pub end: Time,
    /// Bytes moved/held by the stage (0 where not meaningful).
    pub bytes: u64,
    /// True when the span ended by explicit drop (fault fate, run teardown)
    /// rather than a normal close.
    pub dropped: bool,
    /// The trace process that emitted it: a host, or the fabric.
    pub pid: u32,
    /// The emission sequence of `pid`, for stable ordering.
    pub seq: u64,
}

#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    pid: u32,
    key: u64,
    stage: Stage,
    flow: FlowId,
    start: Time,
    bytes: u64,
}

/// One world's spans, behind every [`SpanSink`] handle on it: the closed
/// spans of every pid in one ring, the open ones in one table (an open is
/// found by `(pid, key, stage)`), each pid's emission sequence, and the
/// statistics, which count every span. Eviction: a span closing into a full
/// ring (`capacity`) evicts the oldest, whichever pid emitted it; an open
/// into a full table (`capacity`) force-drops the oldest open. A finished
/// store records nothing more through any handle.
#[derive(Debug, Default)]
struct Store {
    capacity: usize,
    /// Set by [`SpanSink::finish`]: the run is over.
    finished: bool,
    ring: VecDeque<Span>,
    open: VecDeque<OpenSpan>,
    /// The next emission sequence of each pid, indexed by pid.
    seq: Vec<u64>,
    evicted: u64,
    opened: u64,
    closed: u64,
    dropped: u64,
    stage_ns: [ValueHist; STAGE_COUNT],
    stage_bytes: [u64; STAGE_COUNT],
}

impl Store {
    /// Record `o` as a span ending at `end`, counted closed or dropped and
    /// next in its pid's sequence.
    fn emit(&mut self, o: OpenSpan, end: Time, dropped: bool) {
        if dropped {
            self.dropped += 1;
        } else {
            self.closed += 1;
        }
        let i = o.stage.index();
        self.stage_ns[i].record(end.since(o.start).as_nanos());
        self.stage_bytes[i] += o.bytes;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        let p = o.pid as usize;
        if p >= self.seq.len() {
            self.seq.resize(p + 1, 0);
        }
        let seq = self.seq[p];
        self.seq[p] += 1;
        self.ring.push_back(Span {
            flow: o.flow,
            stage: o.stage,
            start: o.start,
            end,
            bytes: o.bytes,
            dropped,
            pid: o.pid,
            seq,
        });
    }

    /// Where the oldest open of `pid` matching `key` + `stage` sits.
    fn find(&self, pid: u32, key: u64, stage: Stage) -> Option<usize> {
        let mut open = self.open.iter();
        open.position(|o| o.pid == pid && o.key == key && o.stage == stage)
    }
}

/// A handle on one world's span store, recording as one trace process.
///
/// Handles are shared the way [`crate::BufPool`] is: [`SpanSink::enabled`]
/// makes a store and its pid-0 handle, [`SpanSink::for_pid`] another
/// handle on the same store. A disabled handle (the default) returns from
/// every method at once and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SpanSink {
    store: Option<Rc<RefCell<Store>>>,
    pid: u32,
}

impl SpanSink {
    /// A handle, recording as pid 0, on a new store of at most `capacity`
    /// closed spans (and as many open ones).
    pub fn enabled(capacity: usize) -> SpanSink {
        assert!(capacity > 0);
        let store = Store {
            capacity,
            ..Store::default()
        };
        SpanSink {
            store: Some(Rc::new(RefCell::new(store))),
            pid: 0,
        }
    }

    /// Another handle on this store, recording as `pid` (disabled when this
    /// one is).
    pub fn for_pid(&self, pid: u32) -> SpanSink {
        let store = self.store.clone();
        SpanSink { store, pid }
    }

    /// The trace process this handle records as.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Whether the handle is on a store (which records nothing once
    /// [`finish`](SpanSink::finish)ed). Callers doing non-trivial work to
    /// *compute* a span (frame parsing, say) must guard on this.
    #[inline]
    pub fn on(&self) -> bool {
        self.store.is_some()
    }

    /// The store to record into, unless there is none or it is finished.
    #[inline]
    fn store(&self) -> Option<RefMut<'_, Store>> {
        let st = self.store.as_ref()?.borrow_mut();
        (!st.finished).then_some(st)
    }

    fn read(&self) -> Option<Ref<'_, Store>> {
        self.store.as_ref().map(|s| s.borrow())
    }

    /// This pid's open of `stage` under `key`.
    fn open(&self, key: u64, flow: FlowId, stage: Stage, start: Time, bytes: u64) -> OpenSpan {
        OpenSpan {
            pid: self.pid,
            key,
            stage,
            flow,
            start,
            bytes,
        }
    }

    /// Record a complete span in one call (open + close).
    #[inline]
    pub fn span(&mut self, flow: FlowId, stage: Stage, start: Time, end: Time, bytes: u64) {
        if let Some(mut st) = self.store() {
            st.opened += 1;
            st.emit(self.open(0, flow, stage, start, bytes), end, false);
        }
    }

    /// Open a span to be closed later by `key` + stage (FIFO per key).
    pub fn span_open(&mut self, key: u64, flow: FlowId, stage: Stage, start: Time, bytes: u64) {
        let Some(mut st) = self.store() else {
            return;
        };
        if st.open.len() == st.capacity {
            // The open table is bounded like the ring: force-close the
            // oldest entry as dropped rather than growing without limit.
            if let Some(o) = st.open.pop_front() {
                st.emit(o, start, true);
            }
        }
        st.opened += 1;
        st.open.push_back(self.open(key, flow, stage, start, bytes));
    }

    /// End this pid's oldest open span matching `key` + `stage` at `end`,
    /// closed or dropped. Returns whether a matching open existed.
    fn end_open(&mut self, key: u64, stage: Stage, end: Time, dropped: bool) -> bool {
        let Some(mut st) = self.store() else {
            return false;
        };
        let pos = st.find(self.pid, key, stage);
        let Some(o) = pos.and_then(|pos| st.open.remove(pos)) else {
            return false;
        };
        st.emit(o, end, dropped);
        true
    }

    /// Close this pid's oldest open span matching `key` + `stage`. Returns
    /// whether a matching open existed.
    pub fn span_close(&mut self, key: u64, stage: Stage, end: Time) -> bool {
        self.end_open(key, stage, end, false)
    }

    /// Close this pid's open spans matching `key` + `stage` FIFO until
    /// `bytes` are consumed; a partially consumed open is split (the
    /// consumed part is emitted, the remainder stays open and counts as a
    /// fresh open).
    pub fn span_close_bytes(&mut self, key: u64, stage: Stage, end: Time, mut bytes: u64) {
        let Some(mut st) = self.store() else {
            return;
        };
        while bytes > 0 {
            let Some(pos) = st.find(self.pid, key, stage) else {
                return;
            };
            let o = st.open[pos];
            if o.bytes > bytes {
                st.open[pos].bytes -= bytes;
                // The remainder is bookkept as a fresh open so the
                // conservation identity opened == closed + dropped holds.
                st.opened += 1;
                st.emit(OpenSpan { bytes, ..o }, end, false);
                return;
            }
            bytes -= o.bytes;
            st.open.remove(pos);
            st.emit(o, end, false);
        }
    }

    /// Drop this pid's oldest open span matching `key` + `stage` (fault
    /// fate).
    pub fn span_drop(&mut self, key: u64, stage: Stage, end: Time) -> bool {
        self.end_open(key, stage, end, true)
    }

    /// End the run (teardown): drop every still-open span of every pid,
    /// stamping `end`, and finish the store, so that no handle on it
    /// records anything more. A second call is a no-op.
    pub fn finish(&mut self, end: Time) {
        let Some(mut st) = self.store() else {
            return;
        };
        while let Some(o) = st.open.pop_front() {
            st.emit(o, end.max(o.start), true);
        }
        st.finished = true;
    }

    /// Publish the store's counts into `s`: `opened`, `closed`, `dropped`
    /// and `evicted` (conservation: `opened == closed + dropped` once every
    /// open is resolved), and for each stage that saw a span its duration
    /// histogram `ns` with `p50_ns`, `p99_ns`, `max_ns` and its `bytes`,
    /// complete across evictions. Nothing when disabled.
    pub fn publish(&self, s: &mut Scope<'_>) {
        let Some(st) = self.read() else {
            return;
        };
        s.counter("opened", st.opened);
        s.counter("closed", st.closed);
        s.counter("dropped", st.dropped);
        s.counter("evicted", st.evicted);
        for stage in Stage::ALL {
            let hist = &st.stage_ns[stage.index()];
            if hist.count == 0 {
                continue;
            }
            let mut ss = s.sub(stage.name());
            ss.hist("ns", hist);
            ss.counter("p50_ns", hist.quantile(0.5));
            ss.counter("p99_ns", hist.quantile(0.99));
            ss.counter("max_ns", hist.max);
            ss.counter("bytes", st.stage_bytes[stage.index()]);
        }
    }

    /// Export the store as Chrome trace-event / Perfetto JSON.
    ///
    /// `names` names one process per pid (its index), in pid order. Within
    /// a process, each engine lane gets its own thread track. Flow arrows
    /// (`s`/`t`/`f` events) follow each flow group across processes;
    /// `flow_limit` bounds how many groups get arrows (`None` = all),
    /// selected in order of first appearance. A `timeline`'s counter
    /// tracks (`ph:"C"`, sharing the span pid space) are appended after the
    /// slices and arrows, so one Perfetto file carries both.
    ///
    /// The output is byte-deterministic for identical inputs.
    pub fn export_chrome_trace(
        &self,
        names: &[String],
        flow_limit: Option<usize>,
        timeline: Option<&Timeline>,
    ) -> String {
        let store = self.read();
        // Every span in one stable order: (start, pid, seq).
        let mut all: Vec<&Span> = store.iter().flat_map(|st| st.ring.iter()).collect();
        all.sort_by_key(|s| (s.start, s.pid, s.seq));
        let mut out = String::from(TRACE_HEAD);

        // Stage → tid per process, deterministic: a process's lanes in
        // sorted name order, numbered from 0.
        let mut seen = vec![[false; STAGE_COUNT]; names.len()];
        for s in &all {
            if let Some(seen) = seen.get_mut(s.pid as usize) {
                seen[s.stage.index()] = true;
            }
        }
        let mut tids: Vec<[u32; STAGE_COUNT]> = Vec::with_capacity(names.len());
        for (pid, (pname, seen)) in names.iter().zip(&seen).enumerate() {
            let used = Stage::ALL.iter().filter(|st| seen[st.index()]);
            let mut lanes: Vec<&'static str> = used.map(|st| st.lane()).collect();
            lanes.sort_unstable();
            lanes.dedup();
            push_sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{pname}\"}}}}"
            );
            for (tid, lane) in lanes.iter().enumerate() {
                push_sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{lane}\"}}}}"
                );
            }
            tids.push(Stage::ALL.map(|st| {
                let tid = lanes.iter().position(|l| *l == st.lane());
                tid.unwrap_or(0) as u32
            }));
        }
        let tid = |s: &Span| tids.get(s.pid as usize).map_or(0, |t| t[s.stage.index()]);

        for s in &all {
            push_sep(&mut out);
            push_event_head(
                &mut out,
                'X',
                s.pid,
                tid(s),
                s.start.nanos(),
                s.stage.name(),
            );
            out.push_str(",\"cat\":\"span\",\"dur\":");
            push_ts_us(&mut out, s.end.since(s.start).as_nanos());
            out.push_str(",\"args\":{\"flow\":\"");
            push_hex8(&mut out, s.flow.group());
            out.push_str("\",\"seq_lo\":");
            push_u64(&mut out, u64::from(s.flow.seq_lo()));
            out.push_str(",\"bytes\":");
            push_u64(&mut out, s.bytes);
            out.push_str(if s.dropped {
                ",\"fate\":\"dropped\"}}"
            } else {
                ",\"fate\":\"ok\"}}"
            });
        }

        // Flow arrows, per group, in order of first appearance: one pass gives
        // each group a chain (none past `flow_limit`) of its spans' indices.
        let limit = flow_limit.unwrap_or(usize::MAX);
        let mut slots: BTreeMap<u32, Option<usize>> = BTreeMap::new();
        let mut chains: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, s) in all.iter().enumerate() {
            let g = s.flow.group();
            if g == 0 {
                continue;
            }
            let slot = *slots.entry(g).or_insert_with(|| {
                (chains.len() < limit).then(|| {
                    chains.push((g, Vec::new()));
                    chains.len() - 1
                })
            });
            if let Some(slot) = slot {
                chains[slot].1.push(i);
            }
        }
        for (g, chain) in &chains {
            let n = chain.len();
            if n < 2 {
                continue;
            }
            for (i, &at) in chain.iter().enumerate() {
                let s = all[at];
                let ph = if i == 0 {
                    's'
                } else if i + 1 == n {
                    'f'
                } else {
                    't'
                };
                push_sep(&mut out);
                push_event_head(&mut out, ph, s.pid, tid(s), s.start.nanos(), "flow");
                out.push_str(",\"cat\":\"flow\",\"id\":\"");
                push_hex8(&mut out, *g);
                out.push_str(if ph == 'f' { "\",\"bp\":\"e\"}" } else { "\"}" });
            }
        }

        if let Some(tl) = timeline {
            tl.push_chrome_counters(&mut out);
        }

        out.push_str("\n]}\n");
        out
    }

    /// Critical-path attribution for the busiest flow group (most spans;
    /// ties break toward the smallest group id). A group with a single
    /// span still yields a path; `None` only when no recorded span carries
    /// a flow group.
    pub fn busiest_path(&self) -> Option<CriticalPath> {
        let st = self.read()?;
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for s in st.ring.iter().filter(|s| s.flow.group() != 0) {
            *counts.entry(s.flow.group()).or_insert(0) += 1;
        }
        let group = counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(g, _)| *g)?;
        critical_path(st.ring.iter(), group)
    }
}

/// Append `v` in decimal. The exporters append every number digit-wise
/// into the one output buffer: no `format!`, no per-event `String`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

/// Append one nanosecond value as the trace-event microsecond field
/// (`µs.nnn`: exact decimal, no floating point — determinism).
fn push_ts_us(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let frac = ns % 1_000;
    out.push('.');
    for d in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + d as u8));
    }
}

/// Append a flow group as its 8-digit lower-case hex id.
fn push_hex8(out: &mut String, v: u32) {
    for shift in (0..8).rev() {
        out.push(char::from(
            b"0123456789abcdef"[(v >> (shift * 4)) as usize & 0xf],
        ));
    }
}

/// Append the fields every trace event starts with, leaving the object
/// open: `{"ph":"P","pid":N,"tid":N,"ts":µs.nnn,"name":"NAME"`. Shared with
/// the timeline module so counter tracks and span slices agree
/// byte-for-byte on field order and timestamp rendering.
pub(crate) fn push_event_head(out: &mut String, ph: char, pid: u32, tid: u32, ns: u64, name: &str) {
    out.push_str("{\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"pid\":");
    push_u64(out, u64::from(pid));
    out.push_str(",\"tid\":");
    push_u64(out, u64::from(tid));
    out.push_str(",\"ts\":");
    push_ts_us(out, ns);
    out.push_str(",\"name\":\"");
    out.push_str(name);
    out.push('"');
}

const TRACE_HEAD: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

/// Separate trace events: nothing before the first, `,\n` before the rest.
pub(crate) fn push_sep(out: &mut String) {
    if out.len() > TRACE_HEAD.len() {
        out.push_str(",\n");
    }
}

/// One stage's share of a flow's end-to-end latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageShare {
    /// Stage name (`"idle"` for gaps no span covers).
    pub stage: &'static str,
    /// Nanoseconds attributed to the stage.
    pub ns: u64,
}

/// A flow's end-to-end latency attributed to stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The flow group analyzed.
    pub group: u32,
    /// First span start.
    pub start: Time,
    /// Last span end.
    pub end: Time,
    /// End-to-end nanoseconds (`end - start`); the shares sum to exactly
    /// this value.
    pub total_ns: u64,
    /// Per-stage attribution, largest first (ties break by name).
    pub shares: Vec<StageShare>,
}

impl CriticalPath {
    /// The stage holding the largest share.
    pub fn dominant(&self) -> &'static str {
        self.shares.first().map(|s| s.stage).unwrap_or("idle")
    }

    /// Human-readable attribution table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path for flow {:08x}: {} ns end-to-end",
            self.group, self.total_ns
        );
        for s in &self.shares {
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                s.ns as f64 * 100.0 / self.total_ns as f64
            };
            let _ = writeln!(out, "  {:<16} {:>12} ns  {:>6.2}%", s.stage, s.ns, pct);
        }
        let _ = writeln!(out, "  dominant stage: {}", self.dominant());
        out
    }
}

/// Attribute a flow group's end-to-end latency to stages.
///
/// Each instant between the group's first span start and last span end is
/// attributed to the *most recently started* span active at that instant
/// (latest start wins; ties break toward the span emitted last, and equal
/// `(start, seq)` from different pids toward the higher pid), or to
/// `"idle"` when none covers it. Shares therefore sum to the end-to-end
/// total exactly. Returns `None` when the group has no spans.
///
/// One sort plus one sweep: spans are pushed in `(start, seq, pid)` order,
/// so the active set is a stack whose top owns the current instant, and
/// expired tops are popped lazily.
pub fn critical_path<'a>(
    spans: impl Iterator<Item = &'a Span>,
    group: u32,
) -> Option<CriticalPath> {
    const IDLE: usize = STAGE_COUNT;
    let mut flow: Vec<&Span> = spans.filter(|s| s.flow.group() == group).collect();
    flow.sort_by_key(|s| (s.start, s.seq, s.pid));
    let start = flow.first()?.start;
    let mut ns = [0u64; STAGE_COUNT + 1];
    let mut active: Vec<&Span> = Vec::new();
    let (mut t, mut next) = (start, 0);
    loop {
        while let Some(s) = flow.get(next).filter(|s| s.start <= t) {
            active.push(s);
            next += 1;
        }
        // Zero-length spans expire the instant they start: they own nothing.
        while active.last().is_some_and(|s| s.end <= t) {
            active.pop();
        }
        // The owner holds until it ends or a later span starts.
        let next_start = flow.get(next).map(|s| s.start);
        let (owner, until) = match (active.last(), next_start) {
            (Some(s), Some(n)) => (s.stage.index(), s.end.min(n)),
            (Some(s), None) => (s.stage.index(), s.end),
            (None, Some(n)) => (IDLE, n),
            (None, None) => break,
        };
        ns[owner] += until.since(t).as_nanos();
        t = until;
    }
    let name = |i: usize| Stage::ALL.get(i).map_or("idle", |st| st.name());
    let mut shares: Vec<StageShare> = (0..=STAGE_COUNT)
        .filter(|&i| ns[i] > 0)
        .map(|i| StageShare {
            stage: name(i),
            ns: ns[i],
        })
        .collect();
    shares.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.stage.cmp(b.stage)));
    Some(CriticalPath {
        group,
        start,
        end: t,
        total_ns: t.since(start).as_nanos(),
        shares,
    })
}

#[cfg(test)]
impl SpanSink {
    /// The store behind an enabled handle.
    fn st(&self) -> Ref<'_, Store> {
        self.read().expect("an enabled sink")
    }
}

/// The pre-sweep implementations, kept verbatim as the oracle the property
/// tests hold the linear-time versions to (byte-for-byte, share-for-share).
#[cfg(test)]
mod reference {
    use super::*;

    fn ts_us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn push_event(
        out: &mut String,
        ph: char,
        pid: u32,
        tid: u32,
        ns: u64,
        name: &str,
        extra: &str,
    ) {
        let _ = write!(
            out,
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\"{extra}}}",
            ts_us(ns)
        );
    }

    pub(super) fn export_chrome_trace_with(
        tracks: &[(u32, String, Vec<Span>)],
        flow_limit: Option<usize>,
        extra_events: &[String],
    ) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !out.is_empty() {
                if first {
                    first = false;
                } else {
                    out.push_str(",\n");
                }
            }
        };

        // Lane → tid assignment, deterministic per process: sorted lane names.
        let mut tids: BTreeMap<(u32, &'static str), u32> = BTreeMap::new();
        for (pid, pname, sink) in tracks {
            let mut lanes: Vec<&'static str> = sink.iter().map(|s| s.stage.lane()).collect();
            lanes.sort_unstable();
            lanes.dedup();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{pname}\"}}}}"
            );
            for (i, lane) in lanes.iter().enumerate() {
                let tid = i as u32;
                tids.insert((*pid, lane), tid);
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{lane}\"}}}}"
                );
            }
        }

        // Merge every span with a stable order: (start, pid, seq).
        let mut all: Vec<(u32, &Span)> = Vec::new();
        for (pid, _, sink) in tracks {
            all.extend(sink.iter().map(|s| (*pid, s)));
        }
        all.sort_by_key(|(pid, s)| (s.start, *pid, s.seq));

        for (pid, s) in &all {
            let tid = tids[&(*pid, s.stage.lane())];
            let dur = s.end.since(s.start).as_nanos();
            sep(&mut out);
            let extra = format!(
                ",\"cat\":\"span\",\"dur\":{},\"args\":{{\"flow\":\"{:08x}\",\"seq_lo\":{},\"bytes\":{},\"fate\":\"{}\"}}",
                ts_us(dur),
                s.flow.group(),
                s.flow.seq_lo(),
                s.bytes,
                if s.dropped { "dropped" } else { "ok" },
            );
            push_event(
                &mut out,
                'X',
                *pid,
                tid,
                s.start.nanos(),
                s.stage.name(),
                &extra,
            );
        }

        // Flow arrows, per group, in order of first appearance.
        let mut groups: Vec<u32> = Vec::new();
        for (_, s) in &all {
            let g = s.flow.group();
            if g != 0 && !groups.contains(&g) {
                groups.push(g);
            }
        }
        if let Some(limit) = flow_limit {
            groups.truncate(limit);
        }
        for g in groups {
            let chain: Vec<&(u32, &Span)> =
                all.iter().filter(|(_, s)| s.flow.group() == g).collect();
            let n = chain.len();
            if n < 2 {
                continue;
            }
            for (i, (pid, s)) in chain.iter().enumerate() {
                let tid = tids[&(*pid, s.stage.lane())];
                let ph = if i == 0 {
                    's'
                } else if i + 1 == n {
                    'f'
                } else {
                    't'
                };
                sep(&mut out);
                let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
                let extra = format!(",\"cat\":\"flow\",\"id\":\"{g:08x}\"{bp}");
                push_event(&mut out, ph, *pid, tid, s.start.nanos(), "flow", &extra);
            }
        }

        for ev in extra_events {
            sep(&mut out);
            out.push_str(ev);
        }

        out.push_str("\n]}\n");
        out
    }

    /// The timeline's counter events as the exporter once took them: one
    /// pre-rendered string per series per retained window.
    pub(super) fn counter_events(tl: &Timeline) -> Vec<String> {
        let views: Vec<_> = (0..tl.series_len()).map(|i| tl.series_view(i)).collect();
        let retained = views.first().map(|v| v.samples.len()).unwrap_or(0);
        let mut out = Vec::new();
        for i in 0..retained {
            let ns = (tl.evicted() + i as u64) * tl.window().as_nanos();
            for v in &views {
                let mut ev = String::new();
                let extra = format!(
                    ",\"cat\":\"timeline\",\"args\":{{\"{}\":{}}}",
                    v.unit, v.samples[i]
                );
                push_event(&mut ev, 'C', v.pid, 0, ns, v.name, &extra);
                out.push(ev);
            }
        }
        out
    }

    pub(super) fn critical_path<'a>(
        spans: impl Iterator<Item = &'a Span>,
        group: u32,
    ) -> Option<CriticalPath> {
        let mut flow: Vec<&Span> = spans.filter(|s| s.flow.group() == group).collect();
        if flow.is_empty() {
            return None;
        }
        flow.sort_by_key(|s| (s.start, s.seq));
        let start = flow.iter().map(|s| s.start).min().unwrap();
        let end = flow.iter().map(|s| s.end).max().unwrap();
        let mut bounds: Vec<u64> = flow
            .iter()
            .flat_map(|s| [s.start.nanos(), s.end.nanos()])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut shares: BTreeMap<&'static str, u64> = BTreeMap::new();
        for w in bounds.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            // Active spans cover [start, end) of the segment; the most recently
            // started one owns it.
            let owner = flow
                .iter()
                .filter(|s| s.start.nanos() <= t0 && s.end.nanos() >= t1 && s.start != s.end)
                .max_by_key(|s| (s.start, s.seq))
                .map(|s| s.stage.name())
                .unwrap_or("idle");
            *shares.entry(owner).or_insert(0) += t1 - t0;
        }
        let mut shares: Vec<StageShare> = shares
            .into_iter()
            .map(|(stage, ns)| StageShare { stage, ns })
            .collect();
        shares.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.stage.cmp(b.stage)));
        Some(CriticalPath {
            group,
            start,
            end,
            total_ns: end.since(start).as_nanos(),
            shares,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dur, MetricsRegistry};

    fn t(us: u64) -> Time {
        Time(us * 1_000)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = SpanSink::default();
        s.span(FlowId::NONE, Stage::Sdma, t(0), t(1), 10);
        s.span_open(1, FlowId::NONE, Stage::Sockbuf, t(0), 10);
        assert!(!s.on() && !s.for_pid(3).on());
        assert!(s.busiest_path().is_none());
        let mut reg = MetricsRegistry::new(Dur::ZERO);
        s.publish(&mut reg.scope("world.spans"));
        assert_eq!(reg.iter().count(), 0);
    }

    #[test]
    fn open_close_conservation() {
        let mut s = SpanSink::enabled(16);
        let f = FlowId::from_parts(7, 100);
        s.span(f, Stage::Sdma, t(0), t(2), 64);
        s.span_open(1, f, Stage::Sockbuf, t(2), 64);
        assert!(s.span_close(1, Stage::Sockbuf, t(5)));
        assert!(!s.span_close(1, Stage::Sockbuf, t(6)), "no double close");
        s.span_open(2, f, Stage::SysRecv, t(5), 64);
        assert!(s.span_drop(2, Stage::SysRecv, t(9)));
        let st = s.st();
        assert_eq!(st.opened, st.closed + st.dropped);
        assert_eq!(st.open.len(), 0);
        assert_eq!(st.ring.len(), 3);
    }

    #[test]
    fn close_bytes_splits_fifo() {
        let mut s = SpanSink::enabled(16);
        let f = FlowId::group_only(9);
        s.span_open(1, f, Stage::Sockbuf, t(0), 100);
        s.span_open(1, f, Stage::Sockbuf, t(1), 50);
        // Consume 120: the first open closes whole, the second splits.
        s.span_close_bytes(1, Stage::Sockbuf, t(4), 120);
        {
            let st = s.st();
            assert_eq!(st.open.len(), 1);
            assert_eq!(st.opened, st.closed + st.dropped + 1);
        }
        s.finish(t(5));
        let st = s.st();
        assert_eq!(st.opened, st.closed + st.dropped);
        let bytes: Vec<u64> = st.ring.iter().map(|x| x.bytes).collect();
        assert_eq!(bytes, vec![100, 20, 30]);
    }

    /// After `finish`, no handle on the store records: not the one that
    /// finished it, nor another pid's.
    #[test]
    fn a_finished_store_records_nothing_more() {
        let mut s = SpanSink::enabled(16);
        let mut other = s.for_pid(1);
        let f = FlowId::group_only(3);
        s.span(f, Stage::Sdma, t(0), t(1), 10);
        other.span_open(1, f, Stage::Sockbuf, t(1), 10);
        s.finish(t(2));
        let counts = |s: &SpanSink| {
            let st = s.st();
            (
                st.opened,
                st.closed,
                st.dropped,
                st.ring.len(),
                st.open.len(),
            )
        };
        let at_finish = counts(&s);
        assert_eq!(at_finish, (2, 1, 1, 2, 0));
        other.span(f, Stage::Wire, t(3), t(4), 10);
        other.span_open(2, f, Stage::Sockbuf, t(3), 10);
        s.span_open(2, f, Stage::Sockbuf, t(3), 10);
        assert!(!s.span_close(2, Stage::Sockbuf, t(4)));
        s.finish(t(5));
        assert_eq!(counts(&s), at_finish);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut s = SpanSink::enabled(4);
        for i in 0..10u64 {
            s.span(FlowId::NONE, Stage::Wire, t(i), t(i + 1), 1);
        }
        let st = s.st();
        assert_eq!(st.ring.len(), 4);
        assert_eq!(st.evicted, 6);
        // Stats stay complete across evictions.
        assert_eq!(st.stage_ns[Stage::Wire.index()].count, 10);
        assert_eq!(st.stage_bytes[Stage::Wire.index()], 10);
    }

    /// Two handles of one store open the same `(key, stage)`: each close
    /// and drop finds its own pid's open, never the other's older one.
    #[test]
    fn open_keys_are_scoped_by_pid() {
        let mut a = SpanSink::enabled(16);
        let mut b = a.for_pid(1);
        let f = FlowId::group_only(3);
        a.span_open(7, f, Stage::Sockbuf, t(0), 10);
        b.span_open(7, f, Stage::Sockbuf, t(1), 20);
        a.span_open(8, f, Stage::SysRecv, t(2), 5);
        b.span_open(8, f, Stage::SysRecv, t(3), 6);
        assert!(b.span_close(7, Stage::Sockbuf, t(5)));
        assert!(
            !b.span_close(7, Stage::Sockbuf, t(6)),
            "pid 1 has no open left"
        );
        assert!(b.span_drop(8, Stage::SysRecv, t(6)));
        assert!(a.span_close(7, Stage::Sockbuf, t(8)));
        assert!(a.span_drop(8, Stage::SysRecv, t(9)));
        let st = a.st();
        let spans: Vec<_> = st
            .ring
            .iter()
            .map(|s| (s.pid, s.seq, s.start, s.end, s.bytes, s.dropped))
            .collect();
        assert_eq!(
            spans,
            [
                (1, 0, t(1), t(5), 20, false),
                (1, 1, t(3), t(6), 6, true),
                (0, 0, t(0), t(8), 10, false),
                (0, 1, t(2), t(9), 5, true),
            ]
        );
        assert_eq!((st.opened, st.closed, st.dropped), (4, 2, 2));
        assert_eq!(st.opened, st.closed + st.dropped);
        assert!(st.open.is_empty());
        let sockbuf = &st.stage_ns[Stage::Sockbuf.index()];
        assert_eq!((sockbuf.count, sockbuf.sum), (2, 12_000), "4 µs + 8 µs");
        assert_eq!(st.stage_bytes[Stage::Sockbuf.index()], 30);
        assert_eq!(st.stage_ns[Stage::SysRecv.index()].count, 2);
    }

    /// The eviction rule: `capacity` closed spans world-wide, the oldest
    /// evicted whichever pid emitted it; `capacity` opens, the oldest
    /// force-dropped at the next open's start.
    #[test]
    fn the_store_evicts_its_oldest_span_of_any_pid() {
        let mut a = SpanSink::enabled(4);
        let mut b = a.for_pid(1);
        for i in 0..3u64 {
            a.span(FlowId::NONE, Stage::Sdma, t(i), t(i + 1), 1);
        }
        for i in 3..10u64 {
            b.span(FlowId::NONE, Stage::Wire, t(i), t(i + 1), 1);
        }
        {
            let st = a.st();
            let kept: Vec<(u32, u64)> = st.ring.iter().map(|s| (s.pid, s.seq)).collect();
            assert_eq!(kept, [(1, 3), (1, 4), (1, 5), (1, 6)]);
            assert_eq!(st.evicted, 6);
            // Stats stay complete across evictions.
            assert_eq!(st.stage_ns[Stage::Sdma.index()].count, 3);
            assert_eq!(st.stage_bytes[Stage::Wire.index()], 7);
        }
        for k in 0..4u64 {
            a.span_open(k, FlowId::NONE, Stage::Degraded, t(20 + k), 0);
        }
        b.span_open(0, FlowId::NONE, Stage::RetryDwell, t(30), 0);
        let st = a.st();
        assert_eq!((st.open.len(), st.dropped, st.evicted), (4, 1, 7));
        let last = st
            .ring
            .back()
            .map(|s| (s.pid, s.stage, s.start, s.end, s.dropped));
        assert_eq!(last, Some((0, Stage::Degraded, t(20), t(30), true)));
    }

    #[test]
    fn export_is_deterministic_and_schema_shaped() {
        let build = || {
            let mut a = SpanSink::enabled(16);
            let mut b = a.for_pid(1);
            let f = FlowId::from_parts(0xAB, 1);
            a.span(f, Stage::Syscall, t(0), t(1), 64);
            b.span(f, Stage::Demux, t(4), t(5), 64);
            a.span(f, Stage::Sdma, t(1), t(3), 64);
            let names = ["host0".to_string(), "host1".to_string()];
            a.export_chrome_trace(&names, None, None)
        };
        let x = build();
        assert_eq!(x, build());
        assert!(x.starts_with("{\"displayTimeUnit\":\"ns\""));
        assert!(x.contains("\"ph\":\"X\""));
        assert!(x.contains("\"ph\":\"M\""));
        assert!(x.contains("\"ph\":\"s\"") && x.contains("\"ph\":\"f\""));
        assert!(x.contains("\"name\":\"sdma\""));
        assert!(x.contains("\"ts\":1.000"), "exact microsecond rendering");
    }

    #[test]
    fn critical_path_sums_exactly() {
        let mut s = SpanSink::enabled(16);
        let f = FlowId::from_parts(5, 0);
        s.span(f, Stage::Syscall, t(0), t(2), 0);
        s.span(f, Stage::Sdma, t(2), t(6), 0);
        // Overlap: checksum runs inside the SDMA window but starts later,
        // so it owns its interval.
        s.span(f, Stage::Checksum, t(3), t(5), 0);
        // Gap 6..8, then the wire.
        s.span(f, Stage::Wire, t(8), t(10), 0);
        let cp = critical_path(s.st().ring.iter(), 5).unwrap();
        assert_eq!(cp.total_ns, 10_000);
        let sum: u64 = cp.shares.iter().map(|x| x.ns).sum();
        assert_eq!(sum, cp.total_ns);
        let get = |n: &str| cp.shares.iter().find(|x| x.stage == n).map(|x| x.ns);
        assert_eq!(get("syscall"), Some(2_000));
        assert_eq!(get("sdma"), Some(2_000));
        assert_eq!(get("checksum"), Some(2_000));
        assert_eq!(get("idle"), Some(2_000));
        assert_eq!(get("wire"), Some(2_000));
        assert_eq!(cp.dominant(), "checksum", "ties break by name");
    }

    #[test]
    fn flow_ids_are_stable_and_orientation_sensitive() {
        let a = FlowId::group_of([10, 0, 0, 1], 5000, [10, 0, 0, 2], 7000);
        let b = FlowId::group_of([10, 0, 0, 1], 5000, [10, 0, 0, 2], 7000);
        let c = FlowId::group_of([10, 0, 0, 2], 7000, [10, 0, 0, 1], 5000);
        assert_eq!(a, b);
        assert_ne!(a, c, "direction is part of the identity");
        let f = FlowId::from_parts(a, 42);
        assert_eq!(f.group(), a);
        assert_eq!(f.seq_lo(), 42);
        assert!(!f.is_none());
        assert!(FlowId::NONE.is_none());
    }

    #[test]
    fn number_rendering_matches_format() {
        for v in [0, 7, 10, 999, 1_000, 1_001, 123_456_789, u64::MAX] {
            let (mut a, mut b) = (String::new(), String::new());
            push_u64(&mut a, v);
            push_ts_us(&mut b, v);
            assert_eq!(a, v.to_string());
            assert_eq!(b, format!("{}.{:03}", v / 1_000, v % 1_000));
        }
        for v in [0, 1, 0xAB, 0xdead_beef, u32::MAX] {
            let mut h = String::new();
            push_hex8(&mut h, v);
            assert_eq!(h, format!("{v:08x}"));
        }
    }

    #[test]
    fn critical_path_of_a_single_span_group() {
        let mut s = SpanSink::enabled(4);
        s.span(FlowId::from_parts(9, 0), Stage::Wire, t(3), t(5), 0);
        s.span(FlowId::NONE, Stage::Degraded, t(0), t(9), 0);
        let cp = critical_path(s.st().ring.iter(), 9).unwrap();
        assert_eq!((cp.start, cp.end, cp.total_ns), (t(3), t(5), 2_000));
        assert_eq!(
            cp.shares,
            vec![StageShare {
                stage: "wire",
                ns: 2_000
            }]
        );
        assert!(critical_path(s.st().ring.iter(), 8).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const GROUPS: [u32; 4] = [0, 1, 0xAB, 0xdead_beef];
    const NAMES: [&str; 3] = ["host0", "host1", "fabric"];

    /// ((group pick, seq_lo, stage), (start step, length step, bytes, dropped)).
    type Raw = ((usize, u32, usize), (u64, u64, u32, bool));

    fn raw_spans(max: usize) -> impl Strategy<Value = Vec<Raw>> {
        let one = (
            (0..GROUPS.len(), any::<u32>(), 0..STAGE_COUNT),
            (0u64..16, 0u64..12, any::<u32>(), any::<bool>()),
        );
        proptest::collection::vec(one, 0..max)
    }

    /// One store, the three lists emitted round-robin as pids 0, 1 and 2.
    /// Few distinct starts, lengths from zero up: overlaps, nesting,
    /// zero-length spans and equal `(start, seq)` across pids (`seq` is the
    /// pid's emission index) all come up at these sizes; group 0 is
    /// `FlowId::NONE`, and a pid may emit nothing.
    fn store(raw: [&[Raw]; 3]) -> SpanSink {
        let sink = SpanSink::enabled(64);
        let longest = raw.iter().map(|r| r.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (pid, list) in raw.iter().enumerate() {
                let Some(&((g, seq_lo, stage), (start, len, bytes, dropped))) = list.get(i) else {
                    continue;
                };
                let flow = FlowId::from_parts(GROUPS[g], if GROUPS[g] == 0 { 0 } else { seq_lo });
                let (start, stage) = (Time(start * 250), Stage::ALL[stage]);
                let end = Time(start.nanos() + len * 125);
                let o = OpenSpan {
                    pid: pid as u32,
                    key: 0,
                    stage,
                    flow,
                    start,
                    bytes: u64::from(bytes),
                };
                sink.store().unwrap().emit(o, end, dropped);
            }
        }
        sink
    }

    /// Each pid's spans in emission order: the sink it once had alone.
    fn tracks(sink: &SpanSink) -> Vec<(u32, String, Vec<Span>)> {
        let st = sink.st();
        let of = |pid: u32| st.ring.iter().filter(|s| s.pid == pid).copied().collect();
        (0..3)
            .map(|pid| (pid, NAMES[pid as usize].to_string(), of(pid)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn export_matches_reference(
            a in raw_spans(24), b in raw_spans(24), c in raw_spans(8),
            limit in 0usize..4,
            windows in proptest::option::of(proptest::collection::vec((0i64..40, -20i64..20), 0..6)),
        ) {
            let sink = store([&a, &b, &c]);
            let names = NAMES.map(String::from);
            let limit = [None, Some(0), Some(1), Some(GROUPS.len())][limit];
            // A counter and a gauge (negative levels included) in a ring
            // small enough to evict.
            let tl = windows.map(|w| {
                let mut tl = Timeline::new(crate::time::Dur::micros(250), 4);
                tl.declare("host0.tx", crate::SeriesKind::Counter, "bytes", 0, 0);
                tl.declare("world.level", crate::SeriesKind::Gauge, "n", 2, 0);
                let mut total = 0;
                for (delta, level) in w {
                    total += delta;
                    tl.record(&[total, level]);
                }
                tl
            });
            let extra = tl.as_ref().map(reference::counter_events).unwrap_or_default();
            prop_assert_eq!(
                sink.export_chrome_trace(&names, limit, tl.as_ref()),
                reference::export_chrome_trace_with(&tracks(&sink), limit, &extra)
            );
        }

        /// The sweep over the one store's ring (pids interleaved) against
        /// the reference over the `(start, pid, seq)`-merged vector, which
        /// is what `World::critical_path` used to hand over.
        #[test]
        fn critical_path_matches_reference(
            a in raw_spans(24), b in raw_spans(24), c in raw_spans(8),
        ) {
            let sink = store([&a, &b, &c]);
            let mut merged: Vec<Span> = sink.st().ring.iter().copied().collect();
            merged.sort_by_key(|s| (s.start, s.pid, s.seq));
            for g in GROUPS.into_iter().chain([77]) {
                prop_assert_eq!(
                    critical_path(sink.st().ring.iter(), g),
                    reference::critical_path(merged.iter(), g)
                );
            }
        }
    }
}
