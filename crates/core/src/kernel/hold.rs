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
//!   drops them (`tcp_drop`, `teardown`). They count in the socket's
//!   `uio_queued`, the write's UIO counter of §4.4.2, which a descriptor's
//!   `counter` names by its socket;
//! * **a gathering frame**: [`Kernel::begin_gather`] at `cab_output`'s
//!   gather; [`Kernel::end_gather`] at its copy-in's completion or when the
//!   driver abandons it (`rebuild_transmit`). Its bytes are queued, so it
//!   holds their pages further without a Table 2 call, and no page is
//!   unpinned under its DMA; it counts in its socket's `gathers`;
//! * **a read's copy-outs**: [`Kernel::begin_copyout`] per `M_WCAB`
//!   descriptor a `read` copies out, pinning the aligned ones and counting
//!   its bytes in the read's `outstanding`; [`Kernel::end_copyout`] per
//!   completion, the last of which ends the read and unpins what its
//!   copy-outs pinned in one call.
//!
//! A write ends ([`Kernel::settle_write`]) once its bytes are appended,
//! none of them is still queued as `M_UIO` and no frame gathers from its
//! socket.

use super::Kernel;
use crate::claims::ClaimHolder;
use crate::driver::TxSegment;
use crate::socket::BlockedRead;
use crate::tcp::TcpState;
use crate::types::SockId;
use outboard_host::{Charge, TaskId};
use outboard_mbuf::{Chain, Mbuf, MbufData, UioCounterId, UioDesc};
use outboard_sim::{Dur, Time};

/// How queued bytes end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Consumed {
    /// A copy took them: their write may end.
    Copied,
    /// Their queue dropped them and nothing will copy them.
    Dropped,
}

/// The counter of `sock`'s write: a queued descriptor names the socket
/// whose `uio_queued` counts its bytes.
pub(crate) fn write_counter(sock: SockId) -> UioCounterId {
    UioCounterId(u64::from(sock))
}

/// The socket whose write counts `desc`'s bytes, if any.
fn counting_sock(desc: &UioDesc) -> Option<SockId> {
    let c = desc.counter?;
    u32::try_from(c.0).ok().map(SockId)
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
    /// context (§4.4.1), count its bytes on the socket its `counter`
    /// names, and claim them. Returns the `M_UIO` mbuf to queue.
    pub(crate) fn hold_queued(&mut self, desc: UioDesc, charge: Charge) -> Mbuf {
        let cost = self.vm.prepare(desc.region.task, desc.vaddr(), desc.len);
        self.cpu_dur(cost, charge);
        if let Some(s) = counting_sock(&desc).and_then(|sock| self.sockets.get_mut(sock)) {
            s.uio_queued += desc.len;
        }
        self.claims.claim_descriptor(&desc);
        Mbuf::uio(desc)
    }

    /// Queued bytes end: `descs` were copied or dropped. Their claims end
    /// and their bytes leave their socket's count; a copy that empties it
    /// may end the write and wake its writer. Then, after any wake, their
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
            let Some(sock) = counting_sock(&d) else {
                continue;
            };
            let Some(s) = self.sockets.get_mut(sock) else {
                continue;
            };
            let queued = s.uio_queued;
            s.uio_queued = queued.saturating_sub(d.len);
            if how == Consumed::Copied && queued > 0 && s.uio_queued == 0 {
                if let Some(task) = self.settle_write(sock, now) {
                    self.wake(task, sock, charge);
                }
            }
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

    /// A copy-out of `len` bytes into `read`'s buffer at `vaddr` begins:
    /// it counts in the read's `outstanding`, claims the range and, when
    /// the DMA lands there (an aligned destination; the unaligned fallback
    /// lands in kernel memory), pins and maps its pages, adding the range
    /// to the read's `pins`.
    pub(crate) fn begin_copyout(
        &mut self,
        read: &mut BlockedRead,
        vaddr: u64,
        len: usize,
        aligned: bool,
    ) {
        read.outstanding += len;
        self.claims
            .claim(ClaimHolder::CopyOut, read.task, vaddr, len);
        if !aligned {
            return;
        }
        let cost = self.vm.prepare(read.task, vaddr, len);
        self.cpu_dur(cost, Charge::Syscall);
        match read.pins.last_mut() {
            Some((v, l)) if *v + *l as u64 == vaddr => *l += len,
            _ => read.pins.push((vaddr, len)),
        }
    }

    /// A read's copy-out of `bytes` into `task`'s `vaddr` completed: its
    /// claim ends and its bytes leave `sock`'s read's `outstanding`. The
    /// last ends the read: its pins are released in one call, and its
    /// reader is returned to wake.
    pub(crate) fn end_copyout(
        &mut self,
        sock: SockId,
        (task, vaddr): (TaskId, u64),
        bytes: usize,
        now: Time,
    ) -> Option<TaskId> {
        self.claims
            .release(ClaimHolder::CopyOut, task, vaddr, bytes);
        let s = self.sockets.get_mut(sock)?;
        let read = s.blocked_read.as_mut()?;
        read.outstanding = read.outstanding.saturating_sub(bytes);
        if read.outstanding > 0 {
            return None;
        }
        let br = s.blocked_read.take()?;
        self.claims.check_read_done(br.task, br.vaddr, br.len, now);
        let cost = (self.vm).release_ranges(br.pins.iter().map(|&(v, l)| (br.task, v, l)));
        self.cpu_dur(cost, Charge::Interrupt);
        Some(br.task)
    }

    /// §4.4.2's copy-semantics rule, the one place a write ends. `sock`'s
    /// write is over once every byte is appended, none is still queued as
    /// `M_UIO` (`uio_queued`), and no frame still gathers from its buffer:
    /// one parked for a retry, or with its copy-in in flight. A dropped
    /// connection appends and copies nothing more, so its write waits for
    /// those frames alone. The write is cleared, in debug builds no claim
    /// on its buffer may still be open (`claims`), and its writer is
    /// returned for a caller on an event path to wake. `write(2)` puts a
    /// write on its socket only after the call's own send, and returns
    /// `Done` instead when the rule ends it there: it never wakes itself.
    pub(crate) fn settle_write(&mut self, sock: SockId, now: Time) -> Option<TaskId> {
        let s = self.sockets.get(sock)?;
        let bw = s.blocked_write?;
        let dropped = s.tcb.as_ref().is_some_and(|t| t.state == TcpState::Closed);
        let copying = !dropped && (bw.appended < bw.total || s.uio_queued > 0);
        if copying || s.gathers > 0 {
            return None;
        }
        self.sock_mut(sock).blocked_write = None;
        let r = bw.region;
        self.claims.check_write_done(r.task, r.base, bw.total, now);
        Some(bw.task)
    }
}
