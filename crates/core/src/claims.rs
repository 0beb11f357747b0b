//! Copy semantics, checked: the user-memory side of the DMA ownership
//! journal, armed in debug builds.
//!
//! The single-copy path is legal only because a `write` does not return,
//! and its blocked writer is not woken, until every byte has left the user
//! buffer; and a `read` does not complete until every DMA into its buffer
//! has (§4.4.2). The UIO counters (a socket's `uio_queued`, a read's
//! `BlockedRead::outstanding`) implement that rule. The CAB's journal (`outboard_cab::ownership`) checks the engines
//! against network-memory packets; this one checks the stack against user
//! memory, independently of the counters, so a counter bug cannot hide
//! itself. Three holders claim a user range, each begun and ended by
//! `kernel::hold` together with its pins and counts:
//!
//! * [`ClaimHolder::Queued`] — an `M_UIO` descriptor, from the `write` that
//!   builds it until the copy that consumes it: the SDMA completion that
//!   turns its send-queue range into `M_WCAB`, or the legacy conversion
//!   copy. A queue that drops it (connection dropped or torn down) ends
//!   the claim too: nothing will copy those bytes any more.
//! * [`ClaimHolder::Gather`] — a transmit frame that gathers the range in
//!   place, from the gather until its SDMA completes or the driver
//!   abandons the frame (retries exhausted, board reset). A parked frame
//!   keeps its claim: its relaunch reads the buffer again.
//! * [`ClaimHolder::CopyOut`] — a receive copy-out into a reader's buffer,
//!   from its issue until its completion is handled (DMA, PIO fallback, or
//!   the unaligned fallback's CPU copy).
//!
//! Checked, each a [`UserViolation`]:
//!
//! * [`UserViolationKind::UserWriteWhileDma`] — the application writes a
//!   claimed range (`SysCtx::user_slice_mut` in the testbed is the check
//!   point);
//! * [`UserViolationKind::EarlyWake`] — a writer is woken, or `write`
//!   returns `Done`, while a `Queued` or `Gather` claim on its buffer is
//!   open; or a `read` completes while a `CopyOut` into its buffer is open.
//!
//! The journal only records: it never refuses or alters an operation, so
//! armed and unarmed builds run one program. Lazy unpinning (§4.4.1) leaves
//! pages pinned but unclaimed. In a release build every call returns at
//! once and nothing is stored.

use outboard_host::TaskId;
use outboard_mbuf::UioDesc;
use outboard_sim::Time;

/// The journal checks and records only in debug builds.
const ARMED: bool = cfg!(debug_assertions);

/// What holds a claim on a user range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimHolder {
    /// An `M_UIO` descriptor not yet consumed by a copy.
    Queued,
    /// A transmit frame that gathers the range in place.
    Gather,
    /// A receive copy-out into the range.
    CopyOut,
}

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UserViolationKind {
    /// The application wrote a range the stack or an engine still claims.
    UserWriteWhileDma,
    /// A `write` or `read` completed (returned or woke its caller) while
    /// a claim on its buffer was open.
    EarlyWake,
}

/// A copy-semantics violation on user memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserViolation {
    /// Which rule broke.
    pub kind: UserViolationKind,
    /// The process whose buffer it is.
    pub task: TaskId,
    /// Start of the range the application wrote, or of the completed
    /// operation's buffer.
    pub vaddr: u64,
    /// Length of that range.
    pub len: usize,
    /// The open claim it ran into.
    pub holder: ClaimHolder,
    /// Simulated time of the write or the completion.
    pub at: Time,
}

impl std::fmt::Display for UserViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            UserViolationKind::UserWriteWhileDma => "user write while DMA",
            UserViolationKind::EarlyWake => "early wake",
        };
        write!(
            f,
            "{what}: task {:?} range {:#x}+{} meets an open {:?} claim at {:?}",
            self.task, self.vaddr, self.len, self.holder, self.at
        )
    }
}

/// One open claim: `[lo, hi)` of `task`'s address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Claim {
    holder: ClaimHolder,
    task: TaskId,
    lo: u64,
    hi: u64,
}

impl Claim {
    fn meets(&self, task: TaskId, lo: u64, hi: u64) -> bool {
        self.task == task && self.lo < hi && lo < self.hi
    }
}

/// Open claims on one host's user memory, plus the violations seen so far.
#[derive(Debug, Default)]
pub(crate) struct UserClaims {
    open: Vec<Claim>,
    violations: Vec<UserViolation>,
}

impl UserClaims {
    /// `holder` claims `[vaddr, vaddr + len)` of `task`.
    pub(crate) fn claim(&mut self, holder: ClaimHolder, task: TaskId, vaddr: u64, len: usize) {
        if !ARMED || len == 0 {
            return;
        }
        self.open.push(Claim {
            holder,
            task,
            lo: vaddr,
            hi: vaddr + len as u64,
        });
    }

    /// An `M_UIO` descriptor's range is claimed until a copy consumes it.
    pub(crate) fn claim_descriptor(&mut self, d: &UioDesc) {
        self.claim(ClaimHolder::Queued, d.region.task, d.vaddr(), d.len);
    }

    /// End one claim recorded with exactly these bounds: a `Gather` or a
    /// `CopyOut`. Two frames gathering one range hold one claim each.
    pub(crate) fn release(&mut self, holder: ClaimHolder, task: TaskId, vaddr: u64, len: usize) {
        if !ARMED || len == 0 {
            return;
        }
        let c = Claim {
            holder,
            task,
            lo: vaddr,
            hi: vaddr + len as u64,
        };
        if let Some(i) = self.open.iter().position(|o| *o == c) {
            self.open.swap_remove(i);
        }
    }

    /// The `M_UIO` descriptor `d` has been consumed (copied) or dropped:
    /// its bytes leave the `Queued` claims. A descriptor may be a piece of
    /// the one that claimed, so the range is cut out.
    pub(crate) fn release_descriptor(&mut self, d: &UioDesc) {
        if !ARMED || self.open.is_empty() {
            return;
        }
        let (task, lo, hi) = (d.region.task, d.vaddr(), d.vaddr() + d.len as u64);
        let mut i = 0;
        while i < self.open.len() {
            let c = self.open[i];
            if c.holder != ClaimHolder::Queued || !c.meets(task, lo, hi) {
                i += 1;
                continue;
            }
            self.open.swap_remove(i);
            for (l, h) in [(c.lo, lo), (hi, c.hi)] {
                if l < h {
                    self.open.push(Claim { lo: l, hi: h, ..c });
                }
            }
        }
    }

    /// The application writes `[vaddr, vaddr + len)`.
    pub(crate) fn check_user_write(&mut self, task: TaskId, vaddr: u64, len: usize, at: Time) {
        self.check(
            UserViolationKind::UserWriteWhileDma,
            |_| true,
            (task, vaddr, len),
            at,
        );
    }

    /// A write of `[vaddr, vaddr + len)` completes: its caller is woken or
    /// `write` returns.
    pub(crate) fn check_write_done(&mut self, task: TaskId, vaddr: u64, len: usize, at: Time) {
        self.check(
            UserViolationKind::EarlyWake,
            |h| h != ClaimHolder::CopyOut,
            (task, vaddr, len),
            at,
        );
    }

    /// A read into `[vaddr, vaddr + len)` completes.
    pub(crate) fn check_read_done(&mut self, task: TaskId, vaddr: u64, len: usize, at: Time) {
        self.check(
            UserViolationKind::EarlyWake,
            |h| h == ClaimHolder::CopyOut,
            (task, vaddr, len),
            at,
        );
    }

    fn check(
        &mut self,
        kind: UserViolationKind,
        holds: impl Fn(ClaimHolder) -> bool,
        (task, vaddr, len): (TaskId, u64, usize),
        at: Time,
    ) {
        if !ARMED || self.open.is_empty() {
            return;
        }
        let hi = vaddr + len as u64;
        let open = self
            .open
            .iter()
            .find(|c| holds(c.holder) && c.meets(task, vaddr, hi));
        if let Some(c) = open {
            self.violations.push(UserViolation {
                kind,
                task,
                vaddr,
                len,
                holder: c.holder,
                at,
            });
        }
    }

    /// Violations recorded so far.
    pub(crate) fn violations(&self) -> &[UserViolation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_mbuf::UioRegion;

    const T: TaskId = TaskId(1);

    fn desc(off: u64, len: usize) -> UioDesc {
        UioDesc {
            region: UioRegion {
                task: T,
                base: 0x1000,
            },
            off,
            len,
            counter: None,
        }
    }

    #[test]
    fn a_consumed_piece_leaves_the_rest_claimed() {
        let mut j = UserClaims::default();
        j.claim(ClaimHolder::Queued, T, 0x1000, 300);
        // The middle 100 bytes are copied out.
        j.release_descriptor(&desc(100, 100));
        j.check_user_write(T, 0x1000 + 100, 100, Time::ZERO);
        assert!(j.violations().is_empty(), "the copied piece is free");
        j.check_write_done(T, 0x1000, 300, Time::ZERO);
        j.release_descriptor(&desc(0, 100));
        j.release_descriptor(&desc(200, 100));
        j.check_write_done(T, 0x1000, 300, Time::ZERO);
        let kinds: Vec<_> = j.violations().iter().map(|v| v.kind).collect();
        if ARMED {
            assert_eq!(kinds, [UserViolationKind::EarlyWake], "one wake was early");
        }
    }

    #[test]
    fn each_gather_holds_its_own_claim() {
        let mut j = UserClaims::default();
        j.claim(ClaimHolder::Gather, T, 0x1000, 64);
        j.claim(ClaimHolder::Gather, T, 0x1000, 64);
        j.release(ClaimHolder::Gather, T, 0x1000, 64);
        j.check_user_write(T, 0x1000 + 63, 1, Time::ZERO);
        let first = j.violations().first().map(|v| (v.kind, v.holder));
        j.release(ClaimHolder::Gather, T, 0x1000, 64);
        j.check_write_done(T, 0x1000, 64, Time::ZERO);
        if ARMED {
            let write_while_gather = (UserViolationKind::UserWriteWhileDma, ClaimHolder::Gather);
            assert_eq!(first, Some(write_while_gather));
            assert_eq!(j.violations().len(), 1);
        }
    }

    #[test]
    fn reads_and_writes_see_their_own_holders() {
        let mut j = UserClaims::default();
        j.claim(ClaimHolder::CopyOut, T, 0x1000, 64);
        // A write completing over a buffer that a read copy-out fills is
        // not the write's business; the read completing is.
        j.check_write_done(T, 0x1000, 64, Time::ZERO);
        assert!(j.violations().is_empty());
        j.check_read_done(TaskId(2), 0x1000, 64, Time::ZERO);
        assert!(j.violations().is_empty(), "another task's address space");
        j.check_read_done(T, 0x1000, 64, Time::ZERO);
        if ARMED {
            assert_eq!(j.violations()[0].holder, ClaimHolder::CopyOut);
        }
    }
}
