//! Holds on user memory: §4.4.1-4.4.2's "the stack may still touch this
//! user byte", kept in one place. A hold pins the pages of its bytes
//! (`Kernel::vm`, which counts held bytes per page, so a range released in
//! other pieces than it was pinned in still balances), claims the range in
//! the copy-semantics journal (`claims`, debug builds) and counts toward
//! the operation it belongs to. Each kind begins in one function here and
//! ends in one, and no other part of the kernel pins, unpins, claims or
//! counts a gather:
//!
//! * **queued `M_UIO` bytes**: [`Kernel::hold_queued`] when the socket
//!   layer queues a write's chunk or a datagram (pin + map, Table 2);
//!   [`Kernel::end_queued`] when a copy consumes them (the SDMA conversion,
//!   a legacy driver's conversion, a datagram's copy-in) or their queue
//!   drops them (`tcp_drop`, `teardown`);
//! * **a gathering frame**: [`Kernel::begin_gather`] at `cab_output`'s
//!   gather; [`Kernel::end_gather`] at its copy-in's completion or when the
//!   driver abandons it (`rebuild_transmit`). Its bytes are queued, so it
//!   holds their pages further without a Table 2 call, and no page is
//!   unpinned under its DMA; it counts in its socket's `gathers`;
//! * **a read's copy-outs**: [`Kernel::begin_copyout`] per `M_WCAB`
//!   descriptor a `read` copies out, pinning the aligned ones;
//!   [`Kernel::end_copyout`] per completion, the last of which ends the
//!   read and unpins what its copy-outs pinned in one call.
//!
//! A write ends ([`Kernel::settle_write`]) once its bytes are appended,
//! its UIO counter has drained and no frame gathers from its socket.

use super::Kernel;
use crate::claims::ClaimHolder;
use crate::driver::TxSegment;
use crate::tcp::TcpState;
use crate::types::SockId;
use outboard_host::{Charge, TaskId};
use outboard_mbuf::{Chain, Mbuf, MbufData, UioCounterId, UioDesc};
use outboard_sim::{Dur, Time};

/// How queued bytes end.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Consumed {
    /// A copy took them: their write's counter is credited.
    Copied,
    /// Their queue dropped them and nothing will copy them: the dropped
    /// write's counter, if any, is cancelled.
    Dropped(Option<UioCounterId>),
}

/// The `M_UIO` descriptors of `chain`.
pub(crate) fn uio_descs(chain: &Chain) -> impl Iterator<Item = UioDesc> + Clone + '_ {
    chain.iter().filter_map(|m| match m.data() {
        MbufData::Uio(d) => Some(*d),
        _ => None,
    })
}

impl Kernel {
    /// Queued bytes begin: pin and map `desc`'s pages in the caller's
    /// context (§4.4.1), count its bytes outstanding on its write's
    /// counter, and claim them. Returns the `M_UIO` mbuf to queue.
    pub(crate) fn hold_queued(&mut self, desc: UioDesc, charge: Charge) -> Mbuf {
        let cost = self.vm.prepare(desc.region.task, desc.vaddr(), desc.len);
        self.cpu_dur(cost, charge);
        if let Some(c) = desc.counter {
            self.uio_issue(c, desc.len);
        }
        self.claims.claim_descriptor(&desc);
        Mbuf::uio(desc)
    }

    /// Queued bytes end: `descs` were copied or dropped. Their claims end,
    /// copied bytes are credited to their write's counter (which may end
    /// the write and wake its writer), and then, after any wake, their
    /// pages are released in one call.
    pub(crate) fn end_queued(
        &mut self,
        descs: impl Iterator<Item = UioDesc> + Clone,
        how: Consumed,
        charge: Charge,
        now: Time,
    ) {
        for d in descs.clone() {
            self.claims.release_descriptor(&d);
            if let (Consumed::Copied, Some(c)) = (how, d.counter) {
                self.credit_write(c, d.len, charge, now);
            }
        }
        if let Consumed::Dropped(Some(c)) = how {
            self.uio.cancel(c);
        }
        let ranges = descs.map(|d| (d.region.task, d.vaddr(), d.len));
        let cost = self.vm.release_ranges(ranges);
        self.cpu_dur(cost, charge);
    }

    /// A gathering frame of `sock` begins to read `pinned` in place.
    pub(crate) fn begin_gather(&mut self, sock: SockId, pinned: (TaskId, u64, usize)) {
        let (task, vaddr, len) = pinned;
        self.vm.hold(task, vaddr, len);
        self.claims.claim(ClaimHolder::Gather, task, vaddr, len);
        if let Some(s) = self.sockets.get_mut(sock) {
            s.gathers += 1;
        }
    }

    /// A gathering frame ends: its copy-in completed or the driver
    /// abandoned it. Returns the unpin cost of the pages nothing else
    /// holds, for the caller to charge after any wake the completion
    /// causes.
    #[must_use]
    pub(crate) fn end_gather(&mut self, seg: &TxSegment) -> Dur {
        let Some((task, vaddr, len)) = seg.pinned else {
            return Dur::ZERO;
        };
        self.claims.release(ClaimHolder::Gather, task, vaddr, len);
        if let Some(s) = self.sockets.get_mut(seg.sock) {
            s.gathers = s.gathers.saturating_sub(1);
        }
        self.vm.release(task, vaddr, len)
    }

    /// A read's copy-out of `len` bytes into `task`'s `vaddr` begins: it
    /// claims the range and, when the DMA lands there (an aligned
    /// destination; the unaligned fallback lands in kernel memory), pins
    /// and maps its pages, adding the range to the read's `pins`.
    pub(crate) fn begin_copyout(
        &mut self,
        pins: &mut Vec<(u64, usize)>,
        (task, vaddr): (TaskId, u64),
        len: usize,
        aligned: bool,
    ) {
        self.claims.claim(ClaimHolder::CopyOut, task, vaddr, len);
        if !aligned {
            return;
        }
        let cost = self.vm.prepare(task, vaddr, len);
        self.cpu_dur(cost, Charge::Syscall);
        match pins.last_mut() {
            Some((v, l)) if *v + *l as u64 == vaddr => *l += len,
            _ => pins.push((vaddr, len)),
        }
    }

    /// A read's copy-out of `bytes` into `task`'s `vaddr` completed: its
    /// claim ends and its bytes are credited to `sock`'s read. The last
    /// ends the read: its pins are released in one call, and its reader is
    /// returned to wake.
    pub(crate) fn end_copyout(
        &mut self,
        sock: SockId,
        (task, vaddr): (TaskId, u64),
        bytes: usize,
        now: Time,
    ) -> Option<TaskId> {
        self.claims
            .release(ClaimHolder::CopyOut, task, vaddr, bytes);
        let counter = self.sockets.get(sock)?.blocked_read.as_ref()?.counter;
        self.uio.complete(counter, bytes)?;
        let br = self.sockets.get_mut(sock)?.blocked_read.take()?;
        self.claims.check_read_done(br.task, br.vaddr, br.len, now);
        let cost = (self.vm).release_ranges(br.pins.iter().map(|&(v, l)| (br.task, v, l)));
        self.cpu_dur(cost, Charge::Interrupt);
        Some(br.task)
    }

    /// `bytes` of a write's descriptors have been copied: credit its UIO
    /// counter, and once it drains settle the write and wake its writer.
    fn credit_write(&mut self, counter: UioCounterId, bytes: usize, charge: Charge, now: Time) {
        let Some(done) = self.uio.complete(counter, bytes) else {
            return;
        };
        if let Some(task) = self.settle_write(done.sock, now) {
            self.wake(task, done.sock, charge);
        }
    }

    /// §4.4.2's copy-semantics rule, the one place a write ends. `sock`'s
    /// write is over once every byte is appended, its UIO counter (if it
    /// made one) has drained, and no frame still gathers from its buffer:
    /// one parked for a retry, or with its copy-in in flight. A dropped
    /// connection appends and credits nothing more, so its write waits for
    /// those frames alone. The write is cleared, in debug builds no claim
    /// on its buffer may still be open (`claims`), and its writer is
    /// returned for a caller on an event path to wake. `write(2)` puts a
    /// write on its socket only after the call's own send, and returns
    /// `Done` instead when the rule ends it there: it never wakes itself.
    pub(crate) fn settle_write(&mut self, sock: SockId, now: Time) -> Option<TaskId> {
        let s = self.sockets.get(sock)?;
        let bw = s.blocked_write?;
        let dropped = s.tcb.as_ref().is_some_and(|t| t.state == TcpState::Closed);
        let live = |c| self.uio.get(c).is_some();
        let copying = !dropped && (bw.appended < bw.total || bw.counter.is_some_and(live));
        if copying || s.gathers > 0 {
            return None;
        }
        self.sock_mut(sock).blocked_write = None;
        let r = bw.region;
        self.claims.check_write_done(r.task, r.base, bw.total, now);
        Some(bw.task)
    }
}
