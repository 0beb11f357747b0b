//! TCP: connection state machine, windows, retransmission.
//!
//! The feature set mirrors what the paper's OSF/1 v2.0 stack needed for the
//! experiments: RFC 1323 window scaling (a 512 KB window does not fit the
//! bare 16-bit field), MSS negotiation (HIPPI's 32 KB MTU), delayed ACKs,
//! RTO estimation with exponential backoff, fast retransmit, and Reno-style
//! congestion control. The [`Tcb`] is *storage-agnostic*: it never touches
//! payload bytes. It tells the kernel which `[offset, len)` window of the
//! transmit queue to packetize — and the kernel's `copy_range` then walks a
//! queue that may hold regular, `M_UIO`, or `M_WCAB` mbufs (§4.2), which is
//! how retransmission from outboard memory falls out for free.

use crate::types::StackConfig;
use outboard_mbuf::Chain;
use outboard_sim::{Dur, Time};
use outboard_wire::tcp::{seq, TcpFlags, TcpHeader};
use std::collections::BTreeMap;

/// Connection states (RFC 793).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs, reason = "the RFC 793 state names are the documentation")]
pub(crate) enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
}

impl TcpState {
    /// May the application still send data?
    pub(crate) fn can_send(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// Has the connection finished the handshake?
    pub(crate) fn is_synchronized(self) -> bool {
        !matches!(
            self,
            TcpState::Closed | TcpState::Listen | TcpState::SynSent
        )
    }
}

/// How urgently an ACK must be emitted after segment input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AckMode {
    /// No acknowledgment owed.
    #[default]
    None,
    /// Defer to the delayed-ACK timer (BSD fast timer).
    Delayed,
    /// Emit immediately (every 2nd segment, out-of-order data, window probe).
    Now,
}

/// A segment the TCB wants transmitted. The kernel materializes the payload
/// with `so_snd.copy_range(data_off, data_len)` and builds the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Window field value, already scaled down.
    pub window: u16,
    /// Payload range relative to `snd_una` (the front of `so_snd`).
    pub data_off: usize,
    /// Payload length in bytes.
    pub data_len: usize,
    /// MSS option to carry (SYN segments).
    pub mss_opt: Option<u16>,
    /// Window-scale option to carry (SYN segments).
    pub ws_opt: Option<u8>,
    /// True when this (re)covers previously-sent sequence space — the
    /// driver takes the header-only outboard retransmission path (§4.3).
    pub retransmit: bool,
}

/// Everything segment input tells the kernel to do.
#[derive(Debug, Default)]
pub struct InputResult {
    /// In-order payload to append to `so_rcv` (after reassembly).
    pub deliver: Vec<Chain>,
    /// Bytes newly acknowledged: drop from the front of `so_snd` and free
    /// the corresponding outboard buffers.
    pub acked_bytes: usize,
    /// How urgently to acknowledge the segment.
    pub ack: AckMode,
    /// Peer's FIN became in-order: readers see EOF after draining.
    pub fin_reached: bool,
    /// Handshake completed on this segment (wake a blocked connector, or
    /// make the accepting socket ready).
    pub connected: bool,
    /// Connection reached `Closed` (reset or final ACK).
    pub closed: bool,
    /// Connection entered `TimeWait` on this segment: arm the expiry.
    pub time_wait: bool,
    /// Emit an immediate RST with these (seq, ack, flags).
    pub rst_out: Option<(u32, u32, TcpFlags)>,
    /// Run output again (window opened, retransmit needed, FIN to send...).
    pub need_output: bool,
    /// ACK processing freed send-buffer space (writers may continue).
    pub writer_space_freed: bool,
}

/// The TCP control block.
#[derive(Debug)]
pub struct Tcb {
    /// Connection state.
    pub(crate) state: TcpState,
    // --- send sequence space ---
    /// Initial send sequence number.
    pub(crate) iss: u32,
    /// Oldest unacknowledged sequence.
    pub(crate) snd_una: u32,
    /// Next sequence to send.
    pub(crate) snd_nxt: u32,
    /// Highest sequence ever sent (retransmission does not lower it).
    pub(crate) snd_max: u32,
    /// Peer-advertised window (already scaled up).
    pub(crate) snd_wnd: usize,
    /// Segment sequence of the last window update (RFC 793 SND.WL1).
    pub(crate) snd_wl1: u32,
    /// Segment ack of the last window update (RFC 793 SND.WL2).
    pub(crate) snd_wl2: u32,
    // --- congestion ---
    /// Congestion window, bytes (Reno).
    pub(crate) cwnd: usize,
    /// Slow-start threshold, bytes.
    pub(crate) ssthresh: usize,
    /// Consecutive duplicate ACKs seen.
    pub(crate) dupacks: u32,
    // --- receive sequence space ---
    /// Next sequence expected in order.
    pub(crate) rcv_nxt: u32,
    /// Last window edge we advertised (for update decisions).
    pub(crate) rcv_adv: u32,
    // --- options ---
    /// Negotiated maximum segment size, bytes.
    pub(crate) mss: usize,
    /// Scale shift applied to windows the peer advertises.
    pub(crate) snd_scale: u8,
    /// Scale shift we advertise for our windows.
    pub(crate) rcv_scale: u8,
    request_ws: bool,
    // --- timers/RTT ---
    /// Smoothed round-trip time, once sampled.
    pub(crate) srtt: Option<Dur>,
    /// RTT variance estimate.
    pub(crate) rttvar: Dur,
    /// Current retransmission timeout.
    pub(crate) rto: Dur,
    rtt_seq: Option<u32>,
    rtt_start: Option<Time>,
    /// Consecutive timeouts (exponential backoff level).
    pub(crate) rexmt_backoff: u32,
    /// An acknowledgment is owed on the delayed-ACK timer.
    pub(crate) delack_pending: bool,
    segs_since_ack: u32,
    // --- flags ---
    /// Our FIN has been transmitted (at `snd_max - 1`).
    pub(crate) fin_sent: bool,
    /// `close(2)` was called; send FIN after the queued data.
    pub(crate) fin_pending: bool,
    /// Received FIN sequence (once rcv side saw it).
    fin_seq: Option<u32>,
    /// Coalesce sub-MSS segments while data is outstanding.
    pub(crate) nagle: bool,
    /// Reassembly queue: out-of-order segments keyed by sequence.
    reass: BTreeMap<u32, Chain>,
    // --- stats ---
    /// Segments retransmitted.
    pub(crate) retransmits: u64,
    /// Fast-retransmit events (3 duplicate ACKs).
    pub(crate) fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub(crate) rto_events: u64,
    /// Segments delivered to this connection's input processing.
    pub(crate) segs_in: u64,
    /// Duplicate ACKs received.
    pub(crate) dup_acks_rcvd: u64,
    /// Times output stalled with data queued but zero usable send window.
    pub(crate) window_stalls: u64,
    /// Payload bytes placed on the wire (first transmissions and
    /// retransmissions both count; FIN sequence slots do not).
    pub(crate) bytes_sent: u64,
    /// Payload bytes re-sent (already covered by an earlier transmission).
    pub(crate) bytes_retx: u64,
    /// ACKs released by the delayed-ACK timer.
    pub(crate) delayed_acks: u64,
    cfg_delack_every: u32,
    cfg_rto_min: Dur,
}

/// Maximum reassembly queue entries (smoltcp-style bounded gaps).
const MAX_REASS_SEGS: usize = 64;

impl Tcb {
    /// Sequence keys of the out-of-order reassembly queue. The watchdog's
    /// board-reset rescue walks these: reassembly chains can hold outboard
    /// (`M_WCAB`) descriptors whose bytes die with the reset, and they are
    /// delivered to the application later with no checksum left to object.
    pub(crate) fn reass_keys(&self) -> Vec<u32> {
        self.reass.keys().copied().collect()
    }

    /// The reassembly chain queued at sequence `seq`, if any.
    pub(crate) fn reass_chain(&self, seq: u32) -> Option<&Chain> {
        self.reass.get(&seq)
    }

    /// Mutable access to the reassembly chain queued at sequence `seq`.
    pub(crate) fn reass_chain_mut(&mut self, seq: u32) -> Option<&mut Chain> {
        self.reass.get_mut(&seq)
    }

    /// A closed control block with initial send sequence `iss`.
    pub fn new(cfg: &StackConfig, iss: u32, nagle: bool) -> Tcb {
        Tcb {
            state: TcpState::Closed,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_max: iss,
            snd_wnd: 0,
            snd_wl1: 0,
            snd_wl2: 0,
            cwnd: 0,
            ssthresh: usize::MAX / 2,
            dupacks: 0,
            rcv_nxt: 0,
            rcv_adv: 0,
            mss: 536,
            snd_scale: 0,
            rcv_scale: 0,
            request_ws: true,
            srtt: None,
            rttvar: Dur::ZERO,
            rto: cfg.rto_initial,
            rtt_seq: None,
            rtt_start: None,
            rexmt_backoff: 0,
            delack_pending: false,
            segs_since_ack: 0,
            fin_sent: false,
            fin_pending: false,
            fin_seq: None,
            nagle,
            reass: BTreeMap::new(),
            retransmits: 0,
            fast_retransmits: 0,
            rto_events: 0,
            segs_in: 0,
            dup_acks_rcvd: 0,
            window_stalls: 0,
            bytes_sent: 0,
            bytes_retx: 0,
            delayed_acks: 0,
            cfg_delack_every: cfg.delack_every,
            cfg_rto_min: cfg.rto_min,
        }
    }

    /// The window-scale shift needed to advertise `buf` bytes.
    pub(crate) fn scale_for(buf: usize) -> u8 {
        let mut s = 0u8;
        while s < 14 && (buf >> s) > 0xFFFF {
            s += 1;
        }
        s
    }

    /// Begin an active open.
    pub fn connect(&mut self, mss: usize, rcv_buf: usize) {
        assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::SynSent;
        self.mss = mss;
        self.cwnd = mss;
        self.rcv_scale = Self::scale_for(rcv_buf);
        self.request_ws = true;
    }

    /// Begin a passive open. `mss` is the interface-derived maximum segment
    /// we will advertise; `rcv_buf` sizes the window-scale request.
    pub fn listen(&mut self, mss: usize, rcv_buf: usize) {
        assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::Listen;
        self.mss = mss;
        self.rcv_scale = Self::scale_for(rcv_buf);
        self.request_ws = true;
    }

    /// Application close: send FIN after queued data.
    pub fn close(&mut self) {
        match self.state {
            TcpState::Established => {
                self.fin_pending = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_pending = true;
                self.state = TcpState::LastAck;
            }
            TcpState::SynSent | TcpState::Listen | TcpState::Closed => {
                self.state = TcpState::Closed;
            }
            _ => {}
        }
    }

    /// Bytes in flight.
    pub(crate) fn flight_size(&self) -> usize {
        seq::diff(self.snd_max, self.snd_una) as usize
    }

    /// Effective send window (peer window ∧ congestion window).
    fn send_window(&self) -> usize {
        self.snd_wnd.min(self.cwnd)
    }

    /// The window field (scaled) to advertise for `rcv_space` free bytes.
    fn window_field(&self, rcv_space: usize) -> u16 {
        ((rcv_space >> self.rcv_scale).min(0xFFFF)) as u16
    }

    /// Decide what to transmit. `snd_q_len` is the length of `so_snd`
    /// (bytes from `snd_una` onward); `rcv_space` is free receive-buffer
    /// space; `force_ack` requests a pure ACK (delayed-ACK timer fired or
    /// window update). The plans are appended to `plans` — an empty list
    /// whose storage the caller recycles from call to call — and returned.
    #[expect(
        clippy::too_many_lines,
        reason = "BSD tcp_output's send decision, kept as one pass in its published order"
    )]
    pub fn output(
        &mut self,
        snd_q_len: usize,
        rcv_space: usize,
        force_ack: bool,
        now: Time,
        mut plans: Vec<SegmentPlan>,
    ) -> Vec<SegmentPlan> {
        let win = self.window_field(rcv_space);
        match self.state {
            TcpState::SynSent => {
                // (Re)send SYN.
                if self.snd_max == self.iss {
                    self.snd_nxt = self.iss;
                }
                plans.push(SegmentPlan {
                    seq: self.iss,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: (rcv_space.min(0xFFFF)) as u16, // no scaling on SYN
                    data_off: 0,
                    data_len: 0,
                    mss_opt: Some(self.mss as u16),
                    ws_opt: self.request_ws.then_some(self.rcv_scale),
                    retransmit: self.snd_max != self.iss,
                });
                self.snd_nxt = self.iss.wrapping_add(1);
                self.snd_max = self.snd_max.max_seq(self.snd_nxt);
                return plans;
            }
            TcpState::SynRcvd => {
                plans.push(SegmentPlan {
                    seq: self.iss,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::SYN | TcpFlags::ACK,
                    window: (rcv_space.min(0xFFFF)) as u16,
                    data_off: 0,
                    data_len: 0,
                    mss_opt: Some(self.mss as u16),
                    ws_opt: self.request_ws.then_some(self.rcv_scale),
                    retransmit: self.snd_max != self.iss.wrapping_add(1),
                });
                self.snd_nxt = self.iss.wrapping_add(1);
                self.snd_max = self.snd_max.max_seq(self.snd_nxt);
                return plans;
            }
            TcpState::Closed | TcpState::Listen => return plans,
            _ => {}
        }

        // Data transmission (ESTABLISHED and the closing states that may
        // still carry data/FIN).
        let mut sent_anything = false;
        loop {
            let offset = seq::diff(self.snd_nxt, self.snd_una) as usize;
            let avail = snd_q_len.saturating_sub(offset);
            let window = self.send_window();
            let usable = window.saturating_sub(offset);
            let mut len = avail.min(usable).min(self.mss);
            // Keep window-limited segments word-aligned so the *next*
            // segment's user data still starts on a word boundary (§4.5:
            // the CAB DMAs only from word-aligned host addresses). The
            // stream tail may be ragged; everything before it may not.
            if len < avail && !len.is_multiple_of(4) {
                len &= !3;
            }

            // FIN goes with/after the last queued data.
            let send_fin = self.fin_pending && !self.fin_sent && avail == len;
            // Nagle: hold sub-MSS data while anything is outstanding.
            let nagle_blocks = self.nagle
                && len > 0
                && len < self.mss
                && self.snd_nxt != self.snd_una
                && !send_fin
                && avail == len; // only the tail sub-MSS piece is held
            if len == 0 || nagle_blocks {
                // Data is queued but the (scaled, congestion-clamped) window
                // has no room: a sender-side window stall.
                if len == 0 && avail > 0 && usable == 0 {
                    self.window_stalls += 1;
                }
                // Maybe a pure FIN still needs to go.
                if self.fin_pending && !self.fin_sent && avail == 0 {
                    plans.push(SegmentPlan {
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        flags: TcpFlags::FIN | TcpFlags::ACK,
                        window: win,
                        data_off: 0,
                        data_len: 0,
                        mss_opt: None,
                        ws_opt: None,
                        retransmit: false,
                    });
                    self.fin_sent = true;
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.snd_max = self.snd_max.max_seq(self.snd_nxt);
                    sent_anything = true;
                }
                break;
            }

            let retransmit = seq::lt(self.snd_nxt, self.snd_max);
            let mut flags = TcpFlags::ACK;
            if send_fin {
                flags = flags | TcpFlags::FIN;
            }
            if len == avail {
                flags = flags | TcpFlags::PSH;
            }
            plans.push(SegmentPlan {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags,
                window: win,
                data_off: offset,
                data_len: len,
                mss_opt: None,
                ws_opt: None,
                retransmit,
            });
            if retransmit {
                self.retransmits += 1;
                // Bytes below snd_max are re-sent; a segment straddling
                // snd_max (or carrying the FIN slot) is only partially old.
                let old = (seq::diff(self.snd_max, self.snd_nxt) as usize).min(len);
                self.bytes_retx += old as u64;
            }
            self.bytes_sent += len as u64;
            // RTT sampling: time one segment per window (Karn: never a
            // retransmitted one).
            if self.rtt_seq.is_none() && !retransmit {
                self.rtt_seq = Some(self.snd_nxt);
                self.rtt_start = Some(now);
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
            if send_fin {
                self.fin_sent = true;
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
            }
            self.snd_max = self.snd_max.max_seq(self.snd_nxt);
            sent_anything = true;
        }

        // Pure ACK / window update when nothing else went out.
        if !sent_anything && force_ack && self.state.is_synchronized() {
            plans.push(SegmentPlan {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags::ACK,
                window: win,
                data_off: 0,
                data_len: 0,
                mss_opt: None,
                ws_opt: None,
                retransmit: false,
            });
        }
        if !plans.is_empty() {
            self.delack_pending = false;
            self.segs_since_ack = 0;
            let adv = self.rcv_nxt.wrapping_add((rcv_space) as u32);
            self.rcv_adv = self.rcv_adv.max_seq(adv);
        }
        plans
    }

    /// Should the retransmission timer be (re)armed after output/input?
    pub(crate) fn wants_rexmt_timer(&self) -> bool {
        seq::lt(self.snd_una, self.snd_max)
            && !matches!(self.state, TcpState::TimeWait | TcpState::Closed)
    }

    /// Retransmission timer fired: shrink to one segment and go again.
    pub(crate) fn on_rexmt_timeout(&mut self) {
        self.rto_events += 1;
        self.rexmt_backoff = (self.rexmt_backoff + 1).min(12);
        self.rto =
            Dur::nanos((self.rto.as_nanos().saturating_mul(2)).min(Dur::secs(64).as_nanos()));
        // Reno: collapse cwnd, halve ssthresh.
        let flight = self.flight_size().max(self.mss);
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.snd_nxt = self.snd_una;
        // A lost FIN must be re-emitted along with the rolled-back data.
        if self.fin_sent && seq::lt(self.snd_nxt, self.snd_max) {
            self.fin_sent = false;
        }
        self.rtt_seq = None; // Karn: no sampling across retransmit
        self.dupacks = 0;
    }

    /// Roll the send pointer back to the first unacknowledged byte without
    /// the congestion penalty of a timeout. Used by the driver's watchdog
    /// after a board reset: the data itself was never lost (it is retained
    /// in the send queue), only the adaptor's copy of it, so the next
    /// output pass re-emits everything from `snd_una`.
    pub(crate) fn rewind_for_rebuild(&mut self) {
        self.snd_nxt = self.snd_una;
        if self.fin_sent && seq::lt(self.snd_nxt, self.snd_max) {
            self.fin_sent = false;
        }
        self.rtt_seq = None;
        self.dupacks = 0;
    }

    fn update_rtt(&mut self, sample: Dur) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                // RFC 6298 with alpha=1/8, beta=1/4 in integer arithmetic.
                let delta = sample.as_nanos().abs_diff(srtt.as_nanos());
                self.rttvar = Dur::nanos((self.rttvar.as_nanos() * 3 + delta) / 4);
                Dur::nanos((srtt.as_nanos() * 7 + sample.as_nanos()) / 8)
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + self.rttvar * 4).max(self.cfg_rto_min);
        self.rexmt_backoff = 0;
    }

    /// Process one inbound segment. `data` is the payload (already trimmed
    /// to the header's claims by the caller); the TCB trims it further to
    /// the receive window and handles reassembly.
    #[expect(
        clippy::too_many_lines,
        reason = "RFC 793's segment-arrival procedure, kept as one pass in its published step order"
    )]
    pub fn input(
        &mut self,
        hdr: &TcpHeader,
        mut data: Chain,
        rcv_space: usize,
        now: Time,
    ) -> InputResult {
        let mut r = InputResult::default();
        self.segs_in += 1;
        let orig_data_len = data.len() as u32;

        match self.state {
            TcpState::Closed => {
                r.rst_out = Some(rst_for(hdr, data.len()));
                return r;
            }
            TcpState::Listen => {
                if hdr.flags.rst() {
                    return r;
                }
                if hdr.flags.ack() {
                    r.rst_out = Some((hdr.ack, 0, TcpFlags::RST));
                    return r;
                }
                if hdr.flags.syn() {
                    self.rcv_nxt = hdr.seq.wrapping_add(1);
                    self.state = TcpState::SynRcvd;
                    if let Some(peer_mss) = hdr.mss {
                        self.mss = self.mss.min(peer_mss as usize);
                    }
                    match hdr.window_scale {
                        Some(ws) => self.snd_scale = ws.min(14),
                        None => {
                            // Peer doesn't scale: neither do we.
                            self.rcv_scale = 0;
                            self.request_ws = false;
                        }
                    }
                    // Windows carried on SYN segments are never scaled.
                    self.snd_wnd = hdr.window as usize;
                    self.snd_wl1 = hdr.seq;
                    self.snd_wl2 = hdr.ack;
                    self.cwnd = self.mss;
                    r.need_output = true; // emit SYN|ACK
                }
                return r;
            }
            TcpState::SynSent => {
                if hdr.flags.ack()
                    && (seq::leq(hdr.ack, self.iss) || seq::gt(hdr.ack, self.snd_max))
                {
                    if !hdr.flags.rst() {
                        r.rst_out = Some((hdr.ack, 0, TcpFlags::RST));
                    }
                    return r;
                }
                if hdr.flags.rst() {
                    if hdr.flags.ack() {
                        self.state = TcpState::Closed;
                        r.closed = true;
                    }
                    return r;
                }
                if hdr.flags.syn() {
                    self.rcv_nxt = hdr.seq.wrapping_add(1);
                    if let Some(peer_mss) = hdr.mss {
                        self.mss = self.mss.min(peer_mss as usize);
                    }
                    match hdr.window_scale {
                        Some(ws) => self.snd_scale = ws.min(14),
                        None => {
                            self.rcv_scale = 0;
                            self.request_ws = false;
                        }
                    }
                    // Windows carried on SYN segments are never scaled.
                    self.snd_wnd = hdr.window as usize;
                    self.snd_wl1 = hdr.seq;
                    self.snd_wl2 = hdr.ack;
                    if hdr.flags.ack() && seq::gt(hdr.ack, self.snd_una) {
                        self.snd_una = hdr.ack;
                        self.state = TcpState::Established;
                        self.cwnd = 2 * self.mss;
                        r.connected = true;
                        r.ack = AckMode::Now;
                    } else {
                        // Simultaneous open.
                        self.state = TcpState::SynRcvd;
                        r.need_output = true;
                    }
                }
                return r;
            }
            _ => {}
        }

        // --- synchronized states ---

        // Duplicate SYN (retransmitted handshake), handled before the
        // window check (BSD trims the old SYN and continues). In SYN_RCVD
        // the segment may be the peer's SYN|ACK of a *simultaneous open*:
        // its ACK completes our handshake even though its SYN is old.
        if hdr.flags.syn() && seq::lt(hdr.seq, self.rcv_nxt) {
            if self.state == TcpState::SynRcvd
                && hdr.flags.ack()
                && seq::gt(hdr.ack, self.snd_una)
                && seq::leq(hdr.ack, self.snd_max)
            {
                self.state = TcpState::Established;
                self.cwnd = 2 * self.mss;
                self.snd_una = hdr.ack;
                r.connected = true;
            }
            r.ack = AckMode::Now;
            return r;
        }

        // Segment acceptability (RFC 793 p.69, simplified window check).
        let seg_len = data.len() as u32 + u32::from(hdr.flags.syn()) + u32::from(hdr.flags.fin());
        let rcv_wnd = rcv_space as u32;
        let acceptable = if seg_len == 0 && rcv_wnd == 0 {
            hdr.seq == self.rcv_nxt
        } else if seg_len == 0 {
            seq::geq(hdr.seq, self.rcv_nxt.wrapping_sub(1))
                && seq::lt(hdr.seq, self.rcv_nxt.wrapping_add(rcv_wnd))
                || hdr.seq == self.rcv_nxt
        } else {
            // Any overlap with the window.
            let seg_end = hdr.seq.wrapping_add(seg_len);
            seq::lt(hdr.seq, self.rcv_nxt.wrapping_add(rcv_wnd.max(1)))
                && seq::gt(seg_end, self.rcv_nxt)
        };
        if !acceptable && !hdr.flags.rst() {
            r.ack = AckMode::Now; // resynchronizing ACK
            return r;
        }

        if hdr.flags.rst() {
            self.state = TcpState::Closed;
            r.closed = true;
            return r;
        }

        // ACK processing.
        if hdr.flags.ack() {
            let ack = hdr.ack;
            if self.state == TcpState::SynRcvd {
                if seq::gt(ack, self.snd_una) && seq::leq(ack, self.snd_max) {
                    self.state = TcpState::Established;
                    self.cwnd = 2 * self.mss;
                    r.connected = true;
                } else {
                    r.rst_out = Some((ack, 0, TcpFlags::RST));
                    return r;
                }
            }
            if seq::gt(ack, self.snd_max) {
                // Acks data we never sent.
                r.ack = AckMode::Now;
                return r;
            }
            if seq::gt(ack, self.snd_una) {
                // New data acknowledged.
                let mut newly = seq::diff(ack, self.snd_una) as usize;
                // Account the FIN's phantom byte.
                if self.fin_sent && ack == self.snd_max && newly > 0 {
                    newly -= 1;
                }
                // SYN phantom byte.
                if seq::leq(self.snd_una, self.iss) {
                    newly = newly.saturating_sub(1);
                }
                r.acked_bytes = newly;
                r.writer_space_freed = newly > 0;
                self.dupacks = 0;
                // RTT sample (Karn-compliant: only untransmitted-once seqs).
                if let (Some(rs), Some(start)) = (self.rtt_seq, self.rtt_start) {
                    if seq::geq(ack, rs) {
                        self.update_rtt(now.since(start));
                        self.rtt_seq = None;
                        self.rtt_start = None;
                    }
                }
                // Reno congestion window growth (capped well above any
                // window this simulation uses).
                if self.cwnd < self.ssthresh {
                    self.cwnd += self.mss;
                } else {
                    self.cwnd += (self.mss * self.mss / self.cwnd.max(1)).max(1);
                }
                self.cwnd = self.cwnd.min(16 * 1024 * 1024);
                self.snd_una = ack;
                if seq::lt(self.snd_nxt, self.snd_una) {
                    self.snd_nxt = self.snd_una;
                }
                r.need_output = true;

                // FIN acknowledged?
                let fin_acked = self.fin_sent && ack == self.snd_max;
                match (self.state, fin_acked) {
                    (TcpState::FinWait1, true) => self.state = TcpState::FinWait2,
                    (TcpState::Closing, true) => {
                        self.state = TcpState::TimeWait;
                        r.time_wait = true;
                    }
                    (TcpState::LastAck, true) => {
                        self.state = TcpState::Closed;
                        r.closed = true;
                        return r;
                    }
                    _ => {}
                }
            } else if ack == self.snd_una
                && data.is_empty()
                && !hdr.flags.syn()
                && !hdr.flags.fin()
                && seq::lt(self.snd_una, self.snd_max)
                && (hdr.window as usize) << self.snd_scale == self.snd_wnd
            {
                // Duplicate ACK.
                self.dupacks += 1;
                self.dup_acks_rcvd += 1;
                if self.dupacks == 3 {
                    // Fast retransmit.
                    self.fast_retransmits += 1;
                    let flight = self.flight_size().max(self.mss);
                    self.ssthresh = (flight / 2).max(2 * self.mss);
                    self.cwnd = self.ssthresh;
                    self.snd_nxt = self.snd_una;
                    self.rtt_seq = None;
                    r.need_output = true;
                }
            }
            // Window update (RFC 793 SND.WL1/WL2 rules).
            if seq::lt(self.snd_wl1, hdr.seq)
                || (self.snd_wl1 == hdr.seq && seq::leq(self.snd_wl2, ack))
            {
                let new_wnd = (hdr.window as usize) << self.snd_scale;
                if new_wnd > self.snd_wnd {
                    r.need_output = true;
                }
                self.snd_wnd = new_wnd;
                self.snd_wl1 = hdr.seq;
                self.snd_wl2 = ack;
            }
        }

        // Payload processing.
        if !data.is_empty()
            && matches!(
                self.state,
                TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
            )
        {
            let mut seg_seq = hdr.seq;
            // Trim data already received.
            if seq::lt(seg_seq, self.rcv_nxt) {
                let dup = seq::diff(self.rcv_nxt, seg_seq) as usize;
                if dup >= data.len() {
                    data.truncate(0);
                } else {
                    data.drop_front(dup);
                }
                seg_seq = self.rcv_nxt;
            }
            // Trim beyond the window.
            let max_take = rcv_space.saturating_sub(seq::diff(seg_seq, self.rcv_nxt) as usize);
            if data.len() > max_take {
                data.truncate(max_take);
            }
            if !data.is_empty() {
                if seg_seq == self.rcv_nxt {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
                    r.deliver.push(data);
                    // Pull contiguous reassembled segments.
                    while let Some((s, mut c)) = self.reass.pop_first() {
                        if seq::gt(s, self.rcv_nxt) {
                            // Not contiguous yet; keep it queued.
                            self.reass.insert(s, c);
                            break;
                        }
                        let dup = seq::diff(self.rcv_nxt, s) as usize;
                        if dup >= c.len() {
                            continue;
                        }
                        if dup > 0 {
                            c.drop_front(dup);
                        }
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(c.len() as u32);
                        r.deliver.push(c);
                    }
                    self.segs_since_ack += 1;
                    r.ack = if self.segs_since_ack >= self.cfg_delack_every {
                        self.segs_since_ack = 0;
                        AckMode::Now
                    } else {
                        self.delack_pending = true;
                        AckMode::Delayed
                    };
                } else {
                    // Out of order: queue and ACK immediately (dupack trigger
                    // for the sender's fast retransmit).
                    if self.reass.len() < MAX_REASS_SEGS {
                        self.reass.entry(seg_seq).or_insert(data);
                    }
                    r.ack = AckMode::Now;
                }
            }
        }

        // FIN processing.
        if hdr.flags.fin() {
            let fin_seq = hdr.seq.wrapping_add(orig_data_len);
            if self.fin_seq.is_none() {
                self.fin_seq = Some(fin_seq);
            }
            if fin_seq == self.rcv_nxt && self.reass.is_empty() {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                r.fin_reached = true;
                r.ack = AckMode::Now;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        // Our FIN not yet acked: simultaneous close.
                        self.state = TcpState::Closing;
                    }
                    TcpState::FinWait2 => {
                        self.state = TcpState::TimeWait;
                        r.time_wait = true;
                    }
                    _ => {}
                }
            }
        }

        r
    }

    /// TIME_WAIT expired.
    pub(crate) fn on_time_wait_expired(&mut self) -> bool {
        if self.state == TcpState::TimeWait {
            self.state = TcpState::Closed;
            true
        } else {
            false
        }
    }

    /// Pull the delayed-ACK flag (delack timer fired).
    pub(crate) fn take_delack(&mut self) -> bool {
        let fired = std::mem::take(&mut self.delack_pending);
        if fired {
            self.delayed_acks += 1;
        }
        fired
    }
}

/// Netstat-style aggregate of per-connection TCP counters. The kernel folds
/// a connection's counters in here on socket teardown and sums the live
/// control blocks on demand, so reports survive connection close.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments delivered to connection input processing.
    pub segs_in: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Fast-retransmit events (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub rto_events: u64,
    /// Duplicate ACKs received.
    pub dup_acks_rcvd: u64,
    /// Sender stalls on a zero usable window.
    pub window_stalls: u64,
    /// Payload bytes placed on the wire.
    pub bytes_sent: u64,
    /// Payload bytes re-sent.
    pub bytes_retx: u64,
    /// ACKs released by the delayed-ACK timer.
    pub delayed_acks: u64,
}

impl TcpStats {
    /// Fold one control block's counters into this aggregate.
    pub fn absorb(&mut self, tcb: &Tcb) {
        self.segs_in += tcb.segs_in;
        self.retransmits += tcb.retransmits;
        self.fast_retransmits += tcb.fast_retransmits;
        self.rto_events += tcb.rto_events;
        self.dup_acks_rcvd += tcb.dup_acks_rcvd;
        self.window_stalls += tcb.window_stalls;
        self.bytes_sent += tcb.bytes_sent;
        self.bytes_retx += tcb.bytes_retx;
        self.delayed_acks += tcb.delayed_acks;
    }

    /// Elementwise sum of two aggregates.
    pub fn merged(mut self, other: TcpStats) -> TcpStats {
        self.segs_in += other.segs_in;
        self.retransmits += other.retransmits;
        self.fast_retransmits += other.fast_retransmits;
        self.rto_events += other.rto_events;
        self.dup_acks_rcvd += other.dup_acks_rcvd;
        self.window_stalls += other.window_stalls;
        self.bytes_sent += other.bytes_sent;
        self.bytes_retx += other.bytes_retx;
        self.delayed_acks += other.delayed_acks;
        self
    }
}

/// Helper extension: sequence-space max.
trait SeqMax {
    fn max_seq(self, other: u32) -> u32;
}

impl SeqMax for u32 {
    fn max_seq(self, other: u32) -> u32 {
        if seq::geq(self, other) {
            self
        } else {
            other
        }
    }
}

/// RST reply fields for a segment arriving on a closed connection.
fn rst_for(hdr: &TcpHeader, data_len: usize) -> (u32, u32, TcpFlags) {
    if hdr.flags.ack() {
        (hdr.ack, 0, TcpFlags::RST)
    } else {
        (
            0,
            hdr.seq
                .wrapping_add(data_len as u32)
                .wrapping_add(u32::from(hdr.flags.syn())),
            TcpFlags::RST | TcpFlags::ACK,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StackConfig;

    const MSS: usize = 32 * 1024 - 40;
    const BUF: usize = 512 * 1024;

    /// A minimal in-test endpoint: a TCB plus byte queues standing in for
    /// the socket buffers.
    struct Ep {
        tcb: Tcb,
        /// Unacknowledged + unsent bytes, front == snd_una.
        snd_q: Vec<u8>,
        /// Delivered in-order payload.
        rcv: Vec<u8>,
        now: Time,
    }

    impl Ep {
        fn new(iss: u32) -> Ep {
            let cfg = StackConfig::single_copy();
            Ep {
                tcb: Tcb::new(&cfg, iss, false),
                snd_q: Vec::new(),
                rcv: Vec::new(),
                now: Time::ZERO,
            }
        }

        fn rcv_space(&self) -> usize {
            BUF
        }

        fn plans(&mut self, force_ack: bool) -> Vec<SegmentPlan> {
            self.tcb.output(
                self.snd_q.len(),
                self.rcv_space(),
                force_ack,
                self.now,
                Vec::new(),
            )
        }

        fn emit(&mut self, force_ack: bool) -> Vec<(TcpHeader, Chain)> {
            let plans = self.plans(force_ack);
            plans
                .into_iter()
                .map(|p| {
                    let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
                    h.window = p.window;
                    h.mss = p.mss_opt;
                    h.window_scale = p.ws_opt;
                    let data = Chain::from_slice(&self.snd_q[p.data_off..p.data_off + p.data_len]);
                    (h, data)
                })
                .collect()
        }

        fn input(&mut self, hdr: &TcpHeader, data: Chain) -> InputResult {
            let space = self.rcv_space();
            let r = self.tcb.input(hdr, data, space, self.now);
            for c in &r.deliver {
                self.rcv.extend_from_slice(&c.flatten_kernel().unwrap());
            }
            if r.acked_bytes > 0 {
                self.snd_q.drain(..r.acked_bytes);
            }
            r
        }
    }

    /// Run segments back and forth until both sides go quiet.
    fn converge(a: &mut Ep, b: &mut Ep) {
        for _ in 0..200 {
            let mut moved = false;
            let plans_a = a.emit(false);
            for (h, d) in plans_a {
                moved = true;
                let r = b.input(&h, d);
                if r.ack == AckMode::Now || r.need_output {
                    for (h2, d2) in b.emit(r.ack == AckMode::Now) {
                        a.input(&h2, d2);
                    }
                }
            }
            let plans_b = b.emit(false);
            for (h, d) in plans_b {
                moved = true;
                let r = a.input(&h, d);
                if r.ack == AckMode::Now || r.need_output {
                    for (h2, d2) in a.emit(r.ack == AckMode::Now) {
                        b.input(&h2, d2);
                    }
                }
            }
            // Stand-in for the 200 ms delayed-ACK timer.
            if a.tcb.take_delack() {
                for (h, d) in a.emit(true) {
                    moved = true;
                    b.input(&h, d);
                }
            }
            if b.tcb.take_delack() {
                for (h, d) in b.emit(true) {
                    moved = true;
                    a.input(&h, d);
                }
            }
            if !moved {
                break;
            }
        }
    }

    fn establish() -> (Ep, Ep) {
        let mut a = Ep::new(1000);
        let mut b = Ep::new(9000);
        a.tcb.connect(MSS, BUF);
        b.tcb.listen(MSS, BUF);
        converge(&mut a, &mut b);
        assert_eq!(a.tcb.state, TcpState::Established);
        assert_eq!(b.tcb.state, TcpState::Established);
        (a, b)
    }

    #[test]
    fn handshake_negotiates_mss_and_scaling() {
        let (a, b) = establish();
        assert_eq!(a.tcb.mss, MSS);
        assert_eq!(b.tcb.mss, MSS);
        // 512 KB needs a shift of 4 (0xFFFF << 3 is 8 bytes short).
        assert_eq!(a.tcb.rcv_scale, 4);
        assert_eq!(a.tcb.snd_scale, 4);
        assert_eq!(b.tcb.snd_scale, 4);
    }

    #[test]
    fn bulk_transfer_in_order() {
        let (mut a, mut b) = establish();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7) as u8).collect();
        a.snd_q = data.clone();
        converge(&mut a, &mut b);
        assert_eq!(b.rcv, data);
        assert!(a.snd_q.is_empty(), "everything acked");
        assert_eq!(a.tcb.snd_una, a.tcb.snd_max);
    }

    #[test]
    fn window_scaling_allows_large_flight() {
        let (mut a, _b) = establish();
        // Peer advertised 512 KB (scaled); cwnd grows past 64 KB quickly.
        a.tcb.cwnd = BUF;
        a.tcb.snd_wnd = BUF;
        a.snd_q = vec![0u8; 300_000];
        let plans = a.plans(false);
        let sent: usize = plans.iter().map(|p| p.data_len).sum();
        assert!(
            sent > 64 * 1024,
            "only {sent} bytes sent; scaling not applied"
        );
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut a, mut b) = establish();
        a.snd_q = vec![1, 2, 3];
        a.tcb.close();
        converge(&mut a, &mut b);
        assert_eq!(b.rcv, vec![1, 2, 3]);
        assert_eq!(b.tcb.state, TcpState::CloseWait);
        assert_eq!(a.tcb.state, TcpState::FinWait2);
        b.tcb.close();
        converge(&mut a, &mut b);
        assert_eq!(b.tcb.state, TcpState::Closed);
        assert_eq!(a.tcb.state, TcpState::TimeWait);
        assert!(a.tcb.on_time_wait_expired());
        assert_eq!(a.tcb.state, TcpState::Closed);
    }

    #[test]
    fn lost_segment_recovered_by_rto() {
        let (mut a, mut b) = establish();
        a.tcb.cwnd = BUF;
        a.tcb.snd_wnd = BUF;
        let data: Vec<u8> = (0..80_000u32).map(|i| i as u8).collect();
        a.snd_q = data.clone();
        let plans = a.plans(false);
        assert!(plans.len() >= 2);
        // Drop the first data segment, deliver the rest (out of order).
        for (i, p) in plans.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
            h.window = p.window;
            let d = Chain::from_slice(&data[p.data_off..p.data_off + p.data_len]);
            let r = b.input(&h, d);
            assert_eq!(r.ack, AckMode::Now, "out-of-order data acks immediately");
        }
        assert!(b.rcv.is_empty(), "nothing in order yet");
        // RTO fires on the sender.
        assert!(a.tcb.wants_rexmt_timer());
        a.tcb.on_rexmt_timeout();
        assert_eq!(a.tcb.snd_nxt, a.tcb.snd_una);
        converge(&mut a, &mut b);
        assert_eq!(b.rcv, data, "reassembly completed after retransmit");
        assert!(a.tcb.retransmits > 0);
        assert_eq!(a.tcb.rto_events, 1);
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let (mut a, mut b) = establish();
        a.tcb.cwnd = BUF;
        a.tcb.snd_wnd = BUF;
        let data: Vec<u8> = vec![0xAB; 5 * MSS];
        a.snd_q = data.clone();
        let plans = a.plans(false);
        assert!(plans.len() >= 4, "{} segments", plans.len());
        // Drop segment 0; deliver 1..4 → three immediate dupacks.
        let mut dupacks = Vec::new();
        for p in plans.iter().skip(1) {
            let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
            h.window = p.window;
            let d = Chain::from_slice(&data[p.data_off..p.data_off + p.data_len]);
            b.input(&h, d);
            let acks = b.emit(true);
            dupacks.extend(acks);
        }
        assert!(dupacks.len() >= 3);
        for (h, d) in dupacks {
            a.input(&h, d);
        }
        assert!(a.tcb.fast_retransmits >= 1, "fast retransmit triggered");
        converge(&mut a, &mut b);
        assert_eq!(b.rcv, data);
    }

    #[test]
    fn nagle_holds_sub_mss_tail() {
        let (mut a, _b) = establish();
        a.tcb.nagle = true;
        a.tcb.cwnd = BUF;
        a.snd_q = vec![0u8; 100];
        // First small write goes out (nothing outstanding).
        let p1 = a.plans(false);
        assert_eq!(p1.len(), 1);
        assert_eq!(p1[0].data_len, 100);
        // More small data while un-ACKed: held back.
        a.snd_q.extend_from_slice(&[0u8; 100]);
        let p2 = a.plans(false);
        assert!(p2.is_empty(), "Nagle must hold the tail: {p2:?}");
        // Without Nagle it would go.
        a.tcb.nagle = false;
        let p3 = a.plans(false);
        assert_eq!(p3.len(), 1);
    }

    #[test]
    fn rst_for_segment_to_closed_port() {
        let cfg = StackConfig::single_copy();
        let mut closed = Tcb::new(&cfg, 1, false);
        let mut h = TcpHeader::new(5, 6, 777, 0, TcpFlags::SYN);
        h.window = 100;
        let r = closed.input(&h, Chain::new(), BUF, Time::ZERO);
        let (_seq, ack, flags) = r.rst_out.expect("RST for closed port");
        assert!(flags.rst() && flags.ack());
        assert_eq!(ack, 778, "acks the SYN");
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let (mut a, mut b) = establish();
        a.tcb.cwnd = BUF;
        a.now = Time(0);
        a.snd_q = vec![0u8; 1000];
        let plans = a.plans(false);
        assert_eq!(plans.len(), 1);
        let p = &plans[0];
        let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
        h.window = p.window;
        b.input(&h, Chain::from_slice(&a.snd_q[..1000]));
        let acks = b.emit(true);
        // ACK arrives 2 ms later.
        a.now = Time::ZERO + Dur::millis(2);
        for (h, d) in acks {
            a.input(&h, d);
        }
        let srtt = a.tcb.srtt.expect("rtt sampled");
        assert_eq!(srtt, Dur::millis(2));
        assert_eq!(a.tcb.rto, Dur::millis(500), "clamped to rto_min");
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let (mut a, mut b) = establish();
        a.tcb.cwnd = BUF;
        a.tcb.snd_wnd = BUF;
        a.snd_q = vec![0u8; 3 * MSS];
        let plans = a.plans(false);
        let mut modes = Vec::new();
        for p in &plans {
            let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
            h.window = p.window;
            let d = Chain::from_slice(&a.snd_q[p.data_off..p.data_off + p.data_len]);
            let r = b.input(&h, d);
            modes.push(r.ack);
        }
        assert_eq!(
            modes,
            vec![AckMode::Delayed, AckMode::Now, AckMode::Delayed],
            "BSD acks every 2nd in-order segment"
        );
        assert!(
            b.tcb.delack_pending,
            "third segment leaves a pending delack"
        );
        assert!(b.tcb.take_delack());
        assert!(!b.tcb.delack_pending);
    }

    #[test]
    fn zero_window_stops_sender() {
        let (mut a, _b) = establish();
        a.tcb.cwnd = BUF;
        a.tcb.snd_wnd = 0;
        a.snd_q = vec![0u8; 1000];
        let plans = a.plans(false);
        assert!(plans.is_empty(), "no data into a zero window: {plans:?}");
    }

    #[test]
    fn duplicate_data_is_trimmed() {
        let (mut a, mut b) = establish();
        a.tcb.cwnd = BUF;
        a.snd_q = (0..1000u32).map(|i| i as u8).collect();
        let plans = a.plans(false);
        let p = &plans[0];
        let mut h = TcpHeader::new(1, 2, p.seq, p.ack, p.flags);
        h.window = p.window;
        let d = Chain::from_slice(&a.snd_q[..1000]);
        b.input(&h, d.clone());
        // Same segment again (retransmission of delivered data).
        let r = b.input(&h, d);
        assert!(r.deliver.is_empty(), "duplicate fully trimmed");
        assert_eq!(r.ack, AckMode::Now, "duplicate re-ACKed for sender sync");
        assert_eq!(b.rcv.len(), 1000);
    }

    #[test]
    fn scale_for_computes_minimal_shift() {
        assert_eq!(Tcb::scale_for(0xFFFF), 0);
        assert_eq!(Tcb::scale_for(0x10000), 1);
        assert_eq!(Tcb::scale_for(0xFFFF << 3), 3);
        assert_eq!(Tcb::scale_for(512 * 1024), 4);
        assert_eq!(Tcb::scale_for(1 << 30), 14);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::types::StackConfig;
    use outboard_wire::tcp::{TcpFlags, TcpHeader};

    const BUF: usize = 512 * 1024;

    fn hdr(seq: u32, ack: u32, flags: TcpFlags, window: u16) -> TcpHeader {
        let mut h = TcpHeader::new(1, 2, seq, ack, flags);
        h.window = window;
        h
    }

    /// Simultaneous open: both sides send SYN before seeing the other's.
    #[test]
    fn simultaneous_open_reaches_established() {
        let cfg = StackConfig::single_copy();
        let mut a = Tcb::new(&cfg, 1000, false);
        let mut b = Tcb::new(&cfg, 9000, false);
        a.connect(1460, BUF);
        b.connect(1460, BUF);
        let pa = a.output(0, BUF, false, Time::ZERO, Vec::new());
        let pb = b.output(0, BUF, false, Time::ZERO, Vec::new());
        assert!(pa[0].flags.syn() && pb[0].flags.syn());
        // Cross-deliver the SYNs.
        let mut ha = hdr(pa[0].seq, 0, TcpFlags::SYN, pa[0].window);
        ha.mss = pa[0].mss_opt;
        ha.window_scale = pa[0].ws_opt;
        let mut hb = hdr(pb[0].seq, 0, TcpFlags::SYN, pb[0].window);
        hb.mss = pb[0].mss_opt;
        hb.window_scale = pb[0].ws_opt;
        let ra = a.input(&hb, Chain::new(), BUF, Time::ZERO);
        let rb = b.input(&ha, Chain::new(), BUF, Time::ZERO);
        assert!(ra.need_output && rb.need_output, "both emit SYN|ACK");
        assert_eq!(a.state, TcpState::SynRcvd);
        assert_eq!(b.state, TcpState::SynRcvd);
        // Cross-deliver the SYN|ACKs.
        let pa2 = a.output(0, BUF, false, Time::ZERO, Vec::new());
        let pb2 = b.output(0, BUF, false, Time::ZERO, Vec::new());
        let ha2 = {
            let mut h = hdr(pa2[0].seq, pa2[0].ack, pa2[0].flags, pa2[0].window);
            h.mss = pa2[0].mss_opt;
            h.window_scale = pa2[0].ws_opt;
            h
        };
        let hb2 = {
            let mut h = hdr(pb2[0].seq, pb2[0].ack, pb2[0].flags, pb2[0].window);
            h.mss = pb2[0].mss_opt;
            h.window_scale = pb2[0].ws_opt;
            h
        };
        let ra2 = a.input(&hb2, Chain::new(), BUF, Time::ZERO);
        let rb2 = b.input(&ha2, Chain::new(), BUF, Time::ZERO);
        assert!(ra2.connected || a.state == TcpState::Established);
        assert!(rb2.connected || b.state == TcpState::Established);
    }

    /// Simultaneous close: both FINs in flight at once → Closing →
    /// TIME_WAIT on both sides.
    #[test]
    fn simultaneous_close() {
        let cfg = StackConfig::single_copy();
        let mut a = Tcb::new(&cfg, 1000, false);
        let mut b = Tcb::new(&cfg, 9000, false);
        // Hand-establish.
        a.connect(1460, BUF);
        b.listen(1460, BUF);
        let pa = a.output(0, BUF, false, Time::ZERO, Vec::new());
        let mut syn = hdr(pa[0].seq, 0, TcpFlags::SYN, pa[0].window);
        syn.mss = pa[0].mss_opt;
        syn.window_scale = pa[0].ws_opt;
        b.input(&syn, Chain::new(), BUF, Time::ZERO);
        let pb = b.output(0, BUF, false, Time::ZERO, Vec::new());
        let mut synack = hdr(pb[0].seq, pb[0].ack, pb[0].flags, pb[0].window);
        synack.mss = pb[0].mss_opt;
        synack.window_scale = pb[0].ws_opt;
        a.input(&synack, Chain::new(), BUF, Time::ZERO);
        let pa2 = a.output(0, BUF, true, Time::ZERO, Vec::new());
        b.input(
            &hdr(pa2[0].seq, pa2[0].ack, pa2[0].flags, pa2[0].window),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        assert_eq!(a.state, TcpState::Established);
        assert_eq!(b.state, TcpState::Established);

        // Both close; FINs cross.
        a.close();
        b.close();
        let fa = a.output(0, BUF, false, Time::ZERO, Vec::new());
        let fb = b.output(0, BUF, false, Time::ZERO, Vec::new());
        assert!(fa[0].flags.fin() && fb[0].flags.fin());
        a.input(
            &hdr(fb[0].seq, fb[0].ack, fb[0].flags, fb[0].window),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        b.input(
            &hdr(fa[0].seq, fa[0].ack, fa[0].flags, fa[0].window),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        assert_eq!(a.state, TcpState::Closing);
        assert_eq!(b.state, TcpState::Closing);
        // Exchange the final ACKs.
        let aa = a.output(0, BUF, true, Time::ZERO, Vec::new());
        let ab = b.output(0, BUF, true, Time::ZERO, Vec::new());
        a.input(
            &hdr(ab[0].seq, ab[0].ack, ab[0].flags, ab[0].window),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        b.input(
            &hdr(aa[0].seq, aa[0].ack, aa[0].flags, aa[0].window),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        assert_eq!(a.state, TcpState::TimeWait);
        assert_eq!(b.state, TcpState::TimeWait);
    }

    /// A duplicate (retransmitted) SYN on an established connection only
    /// provokes a re-ACK, never a state change.
    #[test]
    fn duplicate_syn_is_reacked() {
        let cfg = StackConfig::single_copy();
        let mut b = Tcb::new(&cfg, 9000, false);
        b.listen(1460, BUF);
        let syn = {
            let mut h = hdr(5000, 0, TcpFlags::SYN, 1000);
            h.mss = Some(1460);
            h
        };
        b.input(&syn, Chain::new(), BUF, Time::ZERO);
        b.output(0, BUF, false, Time::ZERO, Vec::new()); // SYN|ACK out
                                                         // Complete handshake.
        b.input(
            &hdr(5001, b.snd_nxt, TcpFlags::ACK, 1000),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        assert_eq!(b.state, TcpState::Established);
        // The duplicate SYN arrives (client never saw the SYN|ACK).
        let r = b.input(&syn, Chain::new(), BUF, Time::ZERO);
        assert_eq!(b.state, TcpState::Established, "no state regression");
        assert_eq!(r.ack, AckMode::Now, "resynchronizing ACK");
    }

    /// Data arriving in TIME_WAIT / after close is not delivered.
    #[test]
    fn no_delivery_after_fin_consumed() {
        let cfg = StackConfig::single_copy();
        let mut b = Tcb::new(&cfg, 9000, false);
        b.listen(1460, BUF);
        let mut syn = hdr(5000, 0, TcpFlags::SYN, 1000);
        syn.mss = Some(1460);
        b.input(&syn, Chain::new(), BUF, Time::ZERO);
        b.output(0, BUF, false, Time::ZERO, Vec::new());
        b.input(
            &hdr(5001, b.snd_nxt, TcpFlags::ACK, 1000),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        // Peer sends FIN.
        let r = b.input(
            &hdr(5001, b.snd_nxt, TcpFlags::FIN | TcpFlags::ACK, 1000),
            Chain::new(),
            BUF,
            Time::ZERO,
        );
        assert!(r.fin_reached);
        assert_eq!(b.state, TcpState::CloseWait);
        // Late data beyond the FIN: not deliverable.
        let r = b.input(
            &hdr(5002, b.snd_nxt, TcpFlags::ACK, 1000),
            Chain::from_slice(&[1, 2, 3]),
            BUF,
            Time::ZERO,
        );
        assert!(r.deliver.is_empty(), "no data after FIN");
    }
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use crate::types::StackConfig;

    #[test]
    fn rto_collapses_cwnd_and_backs_off() {
        let cfg = StackConfig::single_copy();
        let mut t = Tcb::new(&cfg, 1000, false);
        t.connect(1460, 512 * 1024);
        t.state = TcpState::Established;
        t.snd_una = 1001;
        t.snd_nxt = 1001 + 20 * 1460;
        t.snd_max = t.snd_nxt;
        t.cwnd = 20 * 1460;
        t.ssthresh = usize::MAX / 2;
        let rto0 = t.rto;
        t.on_rexmt_timeout();
        assert_eq!(t.cwnd, t.mss, "cwnd collapses to one segment");
        assert_eq!(t.ssthresh, 10 * 1460, "ssthresh = flight/2");
        assert_eq!(t.snd_nxt, t.snd_una, "go-back-N");
        assert_eq!(t.rto, rto0 * 2, "exponential backoff");
        t.on_rexmt_timeout();
        assert_eq!(t.rto, rto0 * 4);
    }

    #[test]
    fn slow_start_then_congestion_avoidance() {
        let cfg = StackConfig::single_copy();
        let mut t = Tcb::new(&cfg, 1000, false);
        t.connect(1000, 512 * 1024);
        t.state = TcpState::Established;
        t.snd_una = 1001;
        t.snd_wl1 = 1;
        t.snd_wl2 = 1;
        t.cwnd = 1000;
        t.ssthresh = 4000;
        // ACK 1000 new bytes: slow start adds a full MSS.
        t.snd_nxt = t.snd_una.wrapping_add(8000);
        t.snd_max = t.snd_nxt;
        let h = {
            let mut h = outboard_wire::tcp::TcpHeader::new(
                2,
                1,
                5,
                t.snd_una.wrapping_add(1000),
                outboard_wire::tcp::TcpFlags::ACK,
            );
            h.window = 0xFFFF;
            h
        };
        t.input(&h, Chain::new(), 512 * 1024, Time::ZERO);
        assert_eq!(t.cwnd, 2000, "slow start: +mss per ACK");
        // Push cwnd past ssthresh: growth becomes ~mss^2/cwnd.
        t.cwnd = 5000;
        let h2 = {
            let mut h = outboard_wire::tcp::TcpHeader::new(
                2,
                1,
                6,
                t.snd_una.wrapping_add(1000),
                outboard_wire::tcp::TcpFlags::ACK,
            );
            h.window = 0xFFFF;
            h
        };
        t.input(&h2, Chain::new(), 512 * 1024, Time::ZERO);
        assert_eq!(t.cwnd, 5000 + 1000 * 1000 / 5000, "congestion avoidance");
    }

    #[test]
    fn fast_retransmit_halves_to_ssthresh() {
        let cfg = StackConfig::single_copy();
        let mut t = Tcb::new(&cfg, 1000, false);
        t.connect(1460, 512 * 1024);
        t.state = TcpState::Established;
        t.snd_una = 1001;
        t.snd_wl1 = 1;
        t.snd_wl2 = 1;
        t.snd_nxt = 1001 + 10 * 1460;
        t.snd_max = t.snd_nxt;
        t.cwnd = 10 * 1460;
        t.snd_wnd = 10 * 1460;
        let dup = {
            let mut h = outboard_wire::tcp::TcpHeader::new(
                2,
                1,
                5,
                1001,
                outboard_wire::tcp::TcpFlags::ACK,
            );
            h.window = (10 * 1460u32) as u16;
            h
        };
        for _ in 0..3 {
            t.input(&dup, Chain::new(), 512 * 1024, Time::ZERO);
        }
        assert_eq!(t.fast_retransmits, 1);
        assert_eq!(t.ssthresh, 5 * 1460);
        assert_eq!(t.cwnd, t.ssthresh, "Reno: cwnd = ssthresh");
        assert_eq!(t.snd_nxt, t.snd_una, "retransmit from the hole");
    }
}
