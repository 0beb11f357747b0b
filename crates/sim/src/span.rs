//! Per-packet causal tracing: span timelines over virtual time.
//!
//! The metrics registry ([`crate::obs`]) aggregates counters; it cannot show
//! *where a particular packet's time went* as it moves host memory → CAB
//! network memory → wire → network memory → host. This module provides the
//! missing flight recorder:
//!
//! * [`FlowId`] — a deterministic identity for a unit of transfer, derived
//!   from the wire-visible 4-tuple (and, where known, the TCP sequence of
//!   the segment), so the sender, the fabric, and the receiver all compute
//!   the *same* id without any wire-format change;
//! * [`Stage`] — the closed taxonomy of lifecycle stages (syscall entry,
//!   kernel output, SDMA, checksum engine, MDMA, wire transit, demux,
//!   socket-buffer dwell, …, plus fault detours);
//! * [`SpanSink`] — a bounded, ring-buffered store of closed [`Span`]s with
//!   open/close/drop conservation counters. Disabled sinks do nothing and
//!   allocate nothing: the hot path stays on the allocation diet.
//! * exporters — [`export_chrome_trace_with`] renders Chrome trace-event /
//!   Perfetto JSON (one track per engine lane, flow arrows following a
//!   [`FlowId`] across hosts), and [`critical_path`] attributes a flow's
//!   end-to-end latency to stages exactly (the shares sum to the total).
//!
//! Determinism is a hard requirement: spans are stamped with virtual time
//! and a per-sink emission sequence, merged with a stable sort, and all
//! timestamps render as exact decimal nanoseconds — identical seeds produce
//! byte-identical trace files.

use crate::obs::ValueHist;
use crate::time::Time;
use crate::timeline::Timeline;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

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
    /// Per-sink emission sequence, for stable merge ordering.
    pub seq: u64,
}

#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    key: u64,
    stage: Stage,
    flow: FlowId,
    start: Time,
    bytes: u64,
}

/// A bounded, deterministic store of spans.
///
/// Disabled (the default) every method returns immediately without
/// allocating. Enabled, closed spans land in a ring of fixed capacity
/// (oldest evicted, counted); per-stage duration histograms and the
/// open/close/drop conservation counters are fed on every emission, so the
/// aggregate statistics stay complete even when the ring wraps.
#[derive(Clone, Debug, Default)]
pub struct SpanSink {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<Span>,
    open: VecDeque<OpenSpan>,
    seq: u64,
    evicted: u64,
    opened: u64,
    closed: u64,
    dropped: u64,
    stage_ns: [ValueHist; STAGE_COUNT],
    stage_bytes: [u64; STAGE_COUNT],
}

impl SpanSink {
    /// A disabled sink (records nothing, allocates nothing).
    pub fn disabled() -> SpanSink {
        SpanSink::default()
    }

    /// An enabled sink holding at most `capacity` closed spans.
    pub fn enabled(capacity: usize) -> SpanSink {
        let mut s = SpanSink::default();
        s.enable(capacity);
        s
    }

    /// Enable recording with the given ring capacity.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0);
        self.enabled = true;
        self.capacity = capacity;
    }

    /// Whether the sink records anything. Callers doing non-trivial work to
    /// *compute* a span (frame parsing, say) must guard on this.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    fn emit(&mut self, flow: FlowId, stage: Stage, start: Time, end: Time, bytes: u64, drop: bool) {
        let i = stage.index();
        self.stage_ns[i].record(end.since(start).as_nanos());
        self.stage_bytes[i] += bytes;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.ring.push_back(Span {
            flow,
            stage,
            start,
            end,
            bytes,
            dropped: drop,
            seq,
        });
    }

    /// Record a complete span in one call (open + close).
    #[inline]
    pub fn span(&mut self, flow: FlowId, stage: Stage, start: Time, end: Time, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.opened += 1;
        self.closed += 1;
        self.emit(flow, stage, start, end, bytes, false);
    }

    /// Open a span to be closed later by `key` + stage (FIFO per key).
    pub fn span_open(&mut self, key: u64, flow: FlowId, stage: Stage, start: Time, bytes: u64) {
        if !self.enabled {
            return;
        }
        if self.open.len() == self.capacity {
            // The open table is bounded like the ring: force-close the
            // oldest entry as dropped rather than growing without limit.
            if let Some(o) = self.open.pop_front() {
                self.dropped += 1;
                self.emit(o.flow, o.stage, o.start, start, o.bytes, true);
            }
        }
        self.opened += 1;
        self.open.push_back(OpenSpan {
            key,
            stage,
            flow,
            start,
            bytes,
        });
    }

    /// Close the oldest open span matching `key` + `stage`. Returns whether
    /// a matching open existed.
    pub fn span_close(&mut self, key: u64, stage: Stage, end: Time) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(pos) = self
            .open
            .iter()
            .position(|o| o.key == key && o.stage == stage)
        else {
            return false;
        };
        let Some(o) = self.open.remove(pos) else {
            return false;
        };
        self.closed += 1;
        self.emit(o.flow, o.stage, o.start, end, o.bytes, false);
        true
    }

    /// Close open spans matching `key` + `stage` FIFO until `bytes` are
    /// consumed; a partially consumed open is split (the consumed part is
    /// emitted, the remainder stays open and counts as a fresh open).
    pub fn span_close_bytes(&mut self, key: u64, stage: Stage, end: Time, mut bytes: u64) {
        if !self.enabled {
            return;
        }
        while bytes > 0 {
            let Some(pos) = self
                .open
                .iter()
                .position(|o| o.key == key && o.stage == stage)
            else {
                return;
            };
            if self.open[pos].bytes > bytes {
                let o = self.open[pos];
                self.open[pos].bytes -= bytes;
                // The remainder is bookkept as a fresh open so the
                // conservation identity opened == closed + dropped holds.
                self.opened += 1;
                self.closed += 1;
                self.emit(o.flow, o.stage, o.start, end, bytes, false);
                return;
            }
            let Some(o) = self.open.remove(pos) else {
                return;
            };
            bytes -= o.bytes;
            self.closed += 1;
            self.emit(o.flow, o.stage, o.start, end, o.bytes, false);
        }
    }

    /// Drop the oldest open span matching `key` + `stage` (fault fate).
    pub fn span_drop(&mut self, key: u64, stage: Stage, end: Time) -> bool {
        if !self.enabled {
            return false;
        }
        let Some(pos) = self
            .open
            .iter()
            .position(|o| o.key == key && o.stage == stage)
        else {
            return false;
        };
        let Some(o) = self.open.remove(pos) else {
            return false;
        };
        self.dropped += 1;
        self.emit(o.flow, o.stage, o.start, end, o.bytes, true);
        true
    }

    /// Drop every still-open span (run teardown), stamping `end`.
    pub fn drop_all_open(&mut self, end: Time) {
        if !self.enabled {
            return;
        }
        while let Some(o) = self.open.pop_front() {
            self.dropped += 1;
            self.emit(o.flow, o.stage, o.start, end.max(o.start), o.bytes, true);
        }
    }

    /// Closed spans currently held, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Spans evicted from the ring due to capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Spans opened (conservation: `opened() == closed() + dropped()` once
    /// every open is resolved).
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Spans closed normally.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Spans ended by explicit drop.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-stage duration histogram (nanoseconds), complete across
    /// evictions.
    pub fn stage_hist(&self, stage: Stage) -> &ValueHist {
        &self.stage_ns[stage.index()]
    }

    /// Per-stage cumulative bytes.
    pub fn stage_bytes(&self, stage: Stage) -> u64 {
        self.stage_bytes[stage.index()]
    }

    /// Fold another sink's per-stage statistics and conservation counters
    /// into this one (used by the world-level aggregation).
    pub fn absorb_stats(&mut self, other: &SpanSink) {
        for (mine, theirs) in self.stage_ns.iter_mut().zip(&other.stage_ns) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.stage_bytes.iter_mut().zip(&other.stage_bytes) {
            *mine += theirs;
        }
        self.opened += other.opened;
        self.closed += other.closed;
        self.dropped += other.dropped;
        self.evicted += other.evicted;
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

/// Export a set of sinks as Chrome trace-event / Perfetto JSON.
///
/// `tracks` pairs each sink with a process id (distinct per track) and a
/// process name (one process per host, plus one for the fabric). Within a
/// process, each engine lane gets its own thread track. Flow arrows
/// (`s`/`t`/`f` events) follow each flow group across processes;
/// `flow_limit` bounds how many groups get arrows (`None` = all), selected
/// in order of first appearance. A `timeline`'s counter tracks
/// (`ph:"C"`, sharing the span pid space) are appended after the slices
/// and arrows, so one Perfetto file carries both.
///
/// The output is byte-deterministic for identical inputs.
pub fn export_chrome_trace_with(
    tracks: &[(u32, String, &SpanSink)],
    flow_limit: Option<usize>,
    timeline: Option<&Timeline>,
) -> String {
    let mut out = String::from(TRACE_HEAD);

    // Stage → tid per track, deterministic: a track's lanes in sorted name
    // order, numbered from 0.
    let mut tids: Vec<[u32; STAGE_COUNT]> = Vec::with_capacity(tracks.len());
    for (pid, pname, sink) in tracks {
        let mut seen = [false; STAGE_COUNT];
        for s in sink.spans() {
            seen[s.stage.index()] = true;
        }
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

    // Merge every span with a stable order: (start, pid, seq).
    let mut all: Vec<(usize, &Span)> = Vec::new();
    for (track, (_, _, sink)) in tracks.iter().enumerate() {
        all.extend(sink.spans().map(|s| (track, s)));
    }
    all.sort_by_key(|(track, s)| (s.start, tracks[*track].0, s.seq));

    for (track, s) in &all {
        push_sep(&mut out);
        let (pid, tid) = (tracks[*track].0, tids[*track][s.stage.index()]);
        push_event_head(&mut out, 'X', pid, tid, s.start.nanos(), s.stage.name());
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
    for (i, (_, s)) in all.iter().enumerate() {
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
            let (track, s) = all[at];
            let (pid, tid) = (tracks[track].0, tids[track][s.stage.index()]);
            let ph = if i == 0 {
                's'
            } else if i + 1 == n {
                'f'
            } else {
                't'
            };
            push_sep(&mut out);
            push_event_head(&mut out, ph, pid, tid, s.start.nanos(), "flow");
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
/// `(start, seq)` from different sinks toward the one later in `spans`), or
/// to `"idle"` when none covers it. Shares therefore sum to the end-to-end
/// total exactly. Returns `None` when the group has no spans.
///
/// One sort plus one sweep: spans are pushed in `(start, seq)` order, so
/// the active set is a stack whose top owns the current instant, and
/// expired tops are popped lazily.
pub fn critical_path<'a>(
    spans: impl Iterator<Item = &'a Span>,
    group: u32,
) -> Option<CriticalPath> {
    const IDLE: usize = STAGE_COUNT;
    let mut flow: Vec<&Span> = spans.filter(|s| s.flow.group() == group).collect();
    flow.sort_by_key(|s| (s.start, s.seq));
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

/// The pre-sweep implementations, kept verbatim as the oracle the property
/// tests hold the linear-time versions to (byte-for-byte, share-for-share).
#[cfg(test)]
impl SpanSink {
    /// Spans still open.
    pub(crate) fn open_count(&self) -> usize {
        self.open.len()
    }
}

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
        tracks: &[(u32, String, &SpanSink)],
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
            let mut lanes: Vec<&'static str> = sink.spans().map(|s| s.stage.lane()).collect();
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
            all.extend(sink.spans().map(|s| (*pid, s)));
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

    fn t(us: u64) -> Time {
        Time(us * 1_000)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = SpanSink::disabled();
        s.span(FlowId::NONE, Stage::Sdma, t(0), t(1), 10);
        s.span_open(1, FlowId::NONE, Stage::Sockbuf, t(0), 10);
        assert!(!s.on());
        assert_eq!(s.spans().count(), 0);
        assert_eq!((s.opened(), s.closed(), s.dropped()), (0, 0, 0));
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
        assert_eq!(s.opened(), s.closed() + s.dropped());
        assert_eq!(s.open_count(), 0);
        assert_eq!(s.spans().count(), 3);
    }

    #[test]
    fn close_bytes_splits_fifo() {
        let mut s = SpanSink::enabled(16);
        let f = FlowId::group_only(9);
        s.span_open(1, f, Stage::Sockbuf, t(0), 100);
        s.span_open(1, f, Stage::Sockbuf, t(1), 50);
        // Consume 120: the first open closes whole, the second splits.
        s.span_close_bytes(1, Stage::Sockbuf, t(4), 120);
        assert_eq!(s.open_count(), 1);
        assert_eq!(s.opened(), s.closed() + s.dropped() + 1);
        s.drop_all_open(t(5));
        assert_eq!(s.opened(), s.closed() + s.dropped());
        let bytes: Vec<u64> = s.spans().map(|x| x.bytes).collect();
        assert_eq!(bytes, vec![100, 20, 30]);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut s = SpanSink::enabled(4);
        for i in 0..10u64 {
            s.span(FlowId::NONE, Stage::Wire, t(i), t(i + 1), 1);
        }
        assert_eq!(s.spans().count(), 4);
        assert_eq!(s.evicted(), 6);
        // Stats stay complete across evictions.
        assert_eq!(s.stage_hist(Stage::Wire).count, 10);
        assert_eq!(s.stage_bytes(Stage::Wire), 10);
    }

    #[test]
    fn export_is_deterministic_and_schema_shaped() {
        let build = || {
            let mut a = SpanSink::enabled(16);
            let f = FlowId::from_parts(0xAB, 1);
            a.span(f, Stage::Syscall, t(0), t(1), 64);
            a.span(f, Stage::Sdma, t(1), t(3), 64);
            let mut b = SpanSink::enabled(16);
            b.span(f, Stage::Demux, t(4), t(5), 64);
            let tracks = [(1, "host0".into(), &a), (2, "host1".into(), &b)];
            export_chrome_trace_with(&tracks, None, None)
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
        let cp = critical_path(s.spans(), 5).unwrap();
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
        let cp = critical_path(s.spans(), 9).unwrap();
        assert_eq!((cp.start, cp.end, cp.total_ns), (t(3), t(5), 2_000));
        assert_eq!(
            cp.shares,
            vec![StageShare {
                stage: "wire",
                ns: 2_000
            }]
        );
        assert!(critical_path(s.spans(), 8).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const GROUPS: [u32; 4] = [0, 1, 0xAB, 0xdead_beef];

    /// ((group pick, seq_lo, stage), (start step, length step, bytes, dropped)).
    type Raw = ((usize, u32, usize), (u64, u64, u32, bool));

    fn raw_spans(max: usize) -> impl Strategy<Value = Vec<Raw>> {
        let one = (
            (0..GROUPS.len(), any::<u32>(), 0..STAGE_COUNT),
            (0u64..16, 0u64..12, any::<u32>(), any::<bool>()),
        );
        proptest::collection::vec(one, 0..max)
    }

    /// Few distinct starts, lengths from zero up: overlaps, nesting,
    /// zero-length spans and equal `(start, seq)` across sinks (`seq` is
    /// the per-sink emission index) all come up at these sizes; group 0 is
    /// `FlowId::NONE`, and sinks may be empty.
    fn sink(raw: &[Raw]) -> SpanSink {
        let mut s = SpanSink::enabled(64);
        for &((g, seq_lo, stage), (start, len, bytes, dropped)) in raw {
            let flow = FlowId::from_parts(GROUPS[g], if GROUPS[g] == 0 { 0 } else { seq_lo });
            let (start, stage) = (Time(start * 250), Stage::ALL[stage]);
            let end = Time(start.nanos() + len * 125);
            s.emit(flow, stage, start, end, u64::from(bytes), dropped);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn export_matches_reference(
            a in raw_spans(24), b in raw_spans(24), c in raw_spans(8),
            limit in 0usize..4,
            windows in proptest::option::of(proptest::collection::vec((0i64..40, -20i64..20), 0..6)),
        ) {
            let (a, b, c) = (sink(&a), sink(&b), sink(&c));
            let tracks = [(0, "host0".to_string(), &a), (1, "host1".to_string(), &b),
                          (2, "fabric".to_string(), &c)];
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
                export_chrome_trace_with(&tracks, limit, tl.as_ref()),
                reference::export_chrome_trace_with(&tracks, limit, &extra)
            );
        }

        /// The sweep over the sinks chained in pid order against the
        /// reference over the `(start, pid, seq)`-merged vector, which is
        /// what `World::critical_path` used to hand over.
        #[test]
        fn critical_path_matches_reference(
            a in raw_spans(24), b in raw_spans(24), c in raw_spans(8),
        ) {
            let sinks = [sink(&a), sink(&b), sink(&c)];
            let mut merged: Vec<(u32, Span)> = Vec::new();
            for (pid, s) in sinks.iter().enumerate() {
                merged.extend(s.spans().map(|x| (pid as u32, *x)));
            }
            merged.sort_by_key(|(pid, s)| (s.start, *pid, s.seq));
            for g in GROUPS.into_iter().chain([77]) {
                prop_assert_eq!(
                    critical_path(sinks.iter().flat_map(|s| s.spans()), g),
                    reference::critical_path(merged.iter().map(|(_, s)| s), g)
                );
            }
        }
    }
}
