//! DMA ownership checking, armed in debug builds.
//!
//! The paper's single-copy path is safe only because ownership of every
//! outboard byte is unambiguous: the host, the SDMA engine, and the two
//! MDMA engines never touch a packet buffer concurrently, and the
//! `uiowcabhdr` DMA counters (§4.4.2, our socket's `uio_queued`) exist
//! precisely so the host never frees or reuses a buffer an engine is still
//! working on. On real hardware a violation is silent corruption on the
//! wire; here it becomes a typed error.
//!
//! The journal models each engine's claim on a packet as a transfer
//! *window* `[start, end)` in simulated time (a wedged engine holds an
//! open-ended window until board reset). Each packet keeps one claim per
//! engine: a later window of the same engine extends it, and a wedge
//! outlasts any close time. Checked invariants:
//!
//! * **Overlap** — two different engines may not hold windows on the same
//!   packet at the same time. The one sanctioned concurrency of §4.3 is
//!   whitelisted: the checksum engine computes *during* the SDMA gather
//!   (transmit) and during MDMA inflow (receive).
//! * **Use-after-free** — a transfer naming a packet that was once live
//!   and has been freed is a dangling DMA, distinct from a plain unknown
//!   id (packet ids are never reused, so the two are distinguishable).
//! * **Free-while-DMA** — the host freeing a packet inside an engine's
//!   open window is exactly the hazard the DMA counters guard against;
//!   the free is refused and the violation recorded.
//!
//! Every build compiles the journal and calls it on every transition (so
//! `CabError::Ownership` always exists and drivers can match on it). It is
//! armed by `debug_assertions` alone, so every debug test checks the
//! handshake; in a release build each call returns at once and nothing is
//! stored.

use crate::netmem::PacketId;
use outboard_sim::{IdTable, Time};

/// The journal checks and records only in debug builds.
const ARMED: bool = cfg!(debug_assertions);

/// An agent that can claim a packet buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DmaEngine {
    /// The host CPU (PIO and buffer lifetime management).
    Host,
    /// The host-bus SDMA engine (gather on transmit, copy-out on receive).
    Sdma,
    /// The media-side transmit MDMA engine.
    MdmaTx,
    /// The media-side receive MDMA engine.
    MdmaRx,
    /// The outboard checksum engine (runs concurrently with SDMA gather
    /// and MDMA inflow by design, §4.3).
    ChecksumEngine,
}

impl DmaEngine {
    /// Every engine, in the order of its claim slot.
    const ALL: [DmaEngine; 5] = [
        DmaEngine::Host,
        DmaEngine::Sdma,
        DmaEngine::MdmaTx,
        DmaEngine::MdmaRx,
        DmaEngine::ChecksumEngine,
    ];

    fn name(self) -> &'static str {
        match self {
            DmaEngine::Host => "host",
            DmaEngine::Sdma => "sdma",
            DmaEngine::MdmaTx => "mdma_tx",
            DmaEngine::MdmaRx => "mdma_rx",
            DmaEngine::ChecksumEngine => "csum",
        }
    }
}

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A second engine touched a packet inside another engine's window.
    OverlappingDma,
    /// A transfer named a packet that was live once and has been freed.
    UseAfterFree,
    /// The host freed a packet inside an engine's open window.
    FreeWhileDma,
}

/// A checked-invariant failure, surfaced as [`crate::CabError::Ownership`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaOwnershipViolation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The packet involved.
    pub packet: PacketId,
    /// The agent whose access tripped the check.
    pub actor: DmaEngine,
    /// The agent holding the conflicting claim (for use-after-free, the
    /// last engine known to have held the buffer, or `Host`).
    pub holder: DmaEngine,
    /// Simulated time of the offending access.
    pub at: Time,
}

impl std::fmt::Display for DmaOwnershipViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            ViolationKind::OverlappingDma => "overlapping DMA",
            ViolationKind::UseAfterFree => "use after free",
            ViolationKind::FreeWhileDma => "free while DMA active",
        };
        write!(
            f,
            "{what} on packet {:?}: {} vs holder {} at {:?}",
            self.packet,
            self.actor.name(),
            self.holder.name(),
            self.at
        )
    }
}

/// May these two engines hold windows on one packet concurrently?
fn sanctioned_pair(a: DmaEngine, b: DmaEngine) -> bool {
    matches!(
        (a, b),
        (DmaEngine::Sdma, DmaEngine::ChecksumEngine)
            | (DmaEngine::ChecksumEngine, DmaEngine::Sdma)
            | (DmaEngine::MdmaRx, DmaEngine::ChecksumEngine)
            | (DmaEngine::ChecksumEngine, DmaEngine::MdmaRx)
    )
}

/// The end of one engine's window. The order is the one `record` keeps:
/// a later close time wins, and a wedge wins over any close time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum End {
    At(Time),
    /// The engine wedged mid-transfer and holds the buffer until board
    /// reset.
    Wedged,
}

/// One packet's claims, one slot per engine.
#[derive(Clone, Copy, Debug, Default)]
struct Claims {
    /// Indexed by `DmaEngine as usize`.
    ends: [Option<End>; 5],
    /// The engine that recorded last (use-after-free attribution).
    last: Option<DmaEngine>,
}

impl Claims {
    /// Engines whose window is still open at `now`, in slot order.
    fn open_at(&self, now: Time) -> impl Iterator<Item = DmaEngine> + '_ {
        DmaEngine::ALL
            .into_iter()
            .zip(self.ends)
            .filter_map(move |(engine, end)| match end? {
                End::At(t) if t <= now => None,
                _ => Some(engine),
            })
    }
}

/// Per-packet claims plus the violations seen so far.
///
/// A packet's claims outlive its free, so a dangling transfer can name the
/// engine that held the buffer last; board reset drops them all. Recording
/// overwrites a fixed-size slot, so a transition allocates nothing beyond
/// the table's amortised growth.
#[derive(Debug, Default)]
pub(crate) struct OwnershipJournal {
    claims: IdTable<Claims>,
    violations: Vec<DmaOwnershipViolation>,
    transitions: u64,
}

impl OwnershipJournal {
    /// Would `engine` starting a transfer on live packet `id` at `now`
    /// conflict with an open window? Record and return the violation if so.
    pub(crate) fn check_transfer(
        &mut self,
        id: PacketId,
        engine: DmaEngine,
        now: Time,
    ) -> Result<(), DmaOwnershipViolation> {
        if !ARMED {
            return Ok(());
        }
        let holder = self.claims.get(id).and_then(|c| {
            c.open_at(now)
                .find(|&h| h != engine && !sanctioned_pair(h, engine))
        });
        match holder {
            Some(holder) => {
                Err(self.violate(ViolationKind::OverlappingDma, id, engine, holder, now))
            }
            None => Ok(()),
        }
    }

    /// A transfer on a packet that no longer exists: if it ever existed
    /// this is a dangling DMA. Records and returns the violation, or
    /// `None` when the id was never allocated (plain unknown packet).
    pub(crate) fn check_use_after_free(
        &mut self,
        id: PacketId,
        engine: DmaEngine,
        now: Time,
        ever_allocated: bool,
    ) -> Option<DmaOwnershipViolation> {
        if !ARMED || !ever_allocated {
            return None;
        }
        let holder = self
            .claims
            .get(id)
            .and_then(|c| c.last)
            .unwrap_or(DmaEngine::Host);
        Some(self.violate(ViolationKind::UseAfterFree, id, engine, holder, now))
    }

    /// Record a transfer window. `end == None` marks a wedged engine
    /// seizing the buffer until reset.
    pub(crate) fn record(&mut self, id: PacketId, engine: DmaEngine, end: Option<Time>) {
        if !ARMED {
            return;
        }
        self.transitions += 1;
        let mut c = self.claims.get(id).copied().unwrap_or_default();
        let end = Some(end.map_or(End::Wedged, End::At));
        let slot = &mut c.ends[engine as usize];
        *slot = (*slot).max(end);
        c.last = Some(engine);
        self.claims.insert(id, c);
    }

    /// Host free: refuse (and record) when any engine window is open.
    pub(crate) fn check_host_free(
        &mut self,
        id: PacketId,
        now: Time,
    ) -> Result<(), DmaOwnershipViolation> {
        if !ARMED {
            return Ok(());
        }
        match self.claims.get(id).and_then(|c| c.open_at(now).next()) {
            Some(holder) => Err(self.violate(
                ViolationKind::FreeWhileDma,
                id,
                DmaEngine::Host,
                holder,
                now,
            )),
            None => Ok(()),
        }
    }

    /// Board reset: every claim dies with the outboard state.
    pub(crate) fn release_all(&mut self) {
        self.claims.clear();
    }

    fn violate(
        &mut self,
        kind: ViolationKind,
        packet: PacketId,
        actor: DmaEngine,
        holder: DmaEngine,
        at: Time,
    ) -> DmaOwnershipViolation {
        let v = DmaOwnershipViolation {
            kind,
            packet,
            actor,
            holder,
            at,
        };
        self.violations.push(v);
        v
    }

    /// Violations recorded so far (accumulates across resets).
    pub(crate) fn violations(&self) -> &[DmaOwnershipViolation] {
        &self.violations
    }

    /// Total windows recorded (journal activity check for tests).
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_sim::Dur;

    fn t(us: u64) -> Time {
        Time::ZERO + Dur::from_micros_f64(us as f64)
    }

    #[test]
    fn sequential_windows_do_not_conflict() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(1);
        j.check_transfer(id, DmaEngine::Sdma, t(0)).unwrap();
        j.record(id, DmaEngine::Sdma, Some(t(10)));
        // MDMA starts exactly when SDMA finishes: half-open windows, clean.
        j.check_transfer(id, DmaEngine::MdmaTx, t(10)).unwrap();
        j.record(id, DmaEngine::MdmaTx, Some(t(20)));
        assert!(j.violations().is_empty());
    }

    #[test]
    fn concurrent_engines_conflict() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(2);
        j.record(id, DmaEngine::Sdma, Some(t(10)));
        let r = j.check_transfer(id, DmaEngine::MdmaTx, t(5));
        if ARMED {
            let v = r.unwrap_err();
            assert_eq!(v.kind, ViolationKind::OverlappingDma);
            assert_eq!(v.holder, DmaEngine::Sdma);
            assert_eq!(j.violations().len(), 1);
        }
    }

    #[test]
    fn checksum_engine_is_sanctioned_with_sdma() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(3);
        j.record(id, DmaEngine::Sdma, Some(t(10)));
        j.check_transfer(id, DmaEngine::ChecksumEngine, t(5))
            .unwrap();
        assert!(j.violations().is_empty());
    }

    #[test]
    fn wedged_window_holds_until_release_all() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(4);
        j.record(id, DmaEngine::Sdma, None);
        // Long after, still held.
        let r = j.check_host_free(id, t(1_000_000));
        if ARMED {
            assert_eq!(r.unwrap_err().kind, ViolationKind::FreeWhileDma);
        }
        j.release_all();
        j.check_host_free(id, t(1_000_001)).unwrap();
    }

    #[test]
    fn host_free_after_window_closes_is_clean() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(5);
        j.record(id, DmaEngine::Sdma, Some(t(10)));
        j.check_host_free(id, t(10)).unwrap();
    }

    #[test]
    fn same_engine_re_record_keeps_the_later_end() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(6);
        j.record(id, DmaEngine::Sdma, Some(t(20)));
        // An earlier close recorded afterwards does not shorten the claim.
        j.record(id, DmaEngine::Sdma, Some(t(10)));
        let early = j.check_transfer(id, DmaEngine::MdmaTx, t(15));
        // A later one extends it.
        j.record(id, DmaEngine::Sdma, Some(t(30)));
        let inside = j.check_transfer(id, DmaEngine::MdmaTx, t(25));
        j.check_transfer(id, DmaEngine::MdmaTx, t(30)).unwrap();
        if ARMED {
            assert_eq!(early.unwrap_err().holder, DmaEngine::Sdma);
            inside.unwrap_err();
            assert_eq!(j.violations().len(), 2);
            assert_eq!(j.transitions(), 3);
        }
    }

    #[test]
    fn wedge_after_a_closed_window_stays_open_until_release_all() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(7);
        j.record(id, DmaEngine::MdmaTx, Some(t(10)));
        j.record(id, DmaEngine::MdmaTx, None);
        // A close recorded after the wedge does not end it either.
        j.record(id, DmaEngine::MdmaTx, Some(t(20)));
        let r = j.check_transfer(id, DmaEngine::Sdma, t(1_000_000));
        if ARMED {
            assert_eq!(r.unwrap_err().holder, DmaEngine::MdmaTx);
        }
        j.release_all();
        j.check_transfer(id, DmaEngine::Sdma, t(1_000_001)).unwrap();
    }

    #[test]
    fn host_free_names_the_open_holder() {
        let mut j = OwnershipJournal::default();
        let id = PacketId(8);
        // Inflow with the checksum engine alongside has closed; the
        // auto-DMA to the host is still running.
        j.record(id, DmaEngine::MdmaRx, Some(t(10)));
        j.record(id, DmaEngine::ChecksumEngine, Some(t(10)));
        j.record(id, DmaEngine::Sdma, Some(t(20)));
        let r = j.check_host_free(id, t(15));
        if ARMED {
            let v = r.unwrap_err();
            let free_while_sdma = (
                ViolationKind::FreeWhileDma,
                DmaEngine::Host,
                DmaEngine::Sdma,
            );
            assert_eq!((v.kind, v.actor, v.holder), free_while_sdma);
        }
        j.check_host_free(id, t(20)).unwrap();
    }
}
