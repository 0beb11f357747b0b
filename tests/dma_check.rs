//! The DMA ownership journal catches the hazards the paper's
//! DMA-counter handshake (§4.4.2) exists to prevent: a host free or a
//! second engine touching a packet while a DMA engine still owns it, and
//! dangling transfers on freed buffers. These tests provoke each violation
//! at the device interface and check the typed error surfaces. The journal
//! is armed in debug builds, so a plain `cargo test` runs them; a release
//! build compiles it out and checks only what the device does without it.

use bytes::Bytes;
use outboard::cab::{Cab, CabConfig, CabError, DmaEngine, SdmaTx, SgEntry, ViolationKind};
use outboard::host::HostMem;
use outboard::sim::fault::{Action, Point};
use outboard::sim::{Fault, Time};

const LEN: usize = 4096;

/// The journal checks and records only in debug builds.
const ARMED: bool = cfg!(debug_assertions);

/// Gather `LEN` inline bytes into a fresh packet, returning the id and the
/// SDMA completion time.
fn gather(cab: &mut Cab, now: Time) -> (outboard::cab::PacketId, Time) {
    let hm = HostMem::new();
    let id = cab.alloc_packet(LEN).expect("netmem");
    let ev = cab
        .sdma_tx(
            SdmaTx {
                packet: id,
                sg: vec![SgEntry::Inline(Bytes::from(vec![0xa5u8; LEN]))],
                csum: None,
                reuse_body_csum: false,
                interrupt_on_complete: false,
                token: 0,
            },
            now,
            &hm,
        )
        .expect("sdma");
    (id, ev.at())
}

#[test]
fn mdma_during_sdma_window_is_overlapping_dma() {
    let mut cab = Cab::new(1, CabConfig::default());
    let (id, done) = gather(&mut cab, Time::ZERO);
    assert!(done > Time::ZERO, "gather must occupy the engine");
    // Starting the media transfer at issue time — inside the gather window
    // — is exactly the overlap the journal must reject.
    let r = cab.mdma_tx(id, 2, 0, Time::ZERO, false);
    if ARMED {
        let Err(CabError::Ownership(v)) = r else {
            panic!("expected ownership violation, got {r:?}");
        };
        assert_eq!(v.kind, ViolationKind::OverlappingDma);
        assert_eq!(v.actor, DmaEngine::MdmaTx);
        assert_eq!(v.holder, DmaEngine::Sdma);
        assert_eq!(cab.ownership_violations().len(), 1);
    }
    // At the gather's completion time the window has closed.
    cab.mdma_tx(id, 2, 0, done, false).expect("sequential mdma");
}

#[test]
fn wedged_sdma_seizes_the_buffer_until_reset() {
    let mut cab = Cab::new(1, CabConfig::default());
    let (id, done) = gather(&mut cab, Time::ZERO);
    // Wedge the engine mid-transfer on a second gather into the same
    // buffer (the driver's header-refresh retransmit shape): its SDMA
    // crossing is the second.
    cab.faults
        .add(Fault::crossing(2, 0, Point::Sdma, Action::Wedge));
    let hm = HostMem::new();
    let err = cab
        .sdma_tx(
            SdmaTx {
                packet: id,
                sg: vec![SgEntry::Inline(Bytes::from(vec![0x5au8; LEN]))],
                csum: None,
                reuse_body_csum: false,
                interrupt_on_complete: false,
                token: 1,
            },
            done,
            &hm,
        )
        .unwrap_err();
    assert!(matches!(err, CabError::EngineWedged(_)), "got {err:?}");
    // The wedged engine holds an open-ended window: the media engine may
    // not touch the packet no matter how much time passes…
    let much_later = done + outboard::sim::Dur::from_secs_f64(1.0);
    let r = cab.mdma_tx(id, 2, 0, much_later, false);
    if ARMED {
        let Err(CabError::Ownership(v)) = r else {
            panic!("expected ownership violation, got {r:?}");
        };
        assert_eq!(v.kind, ViolationKind::OverlappingDma);
        assert_eq!(v.holder, DmaEngine::Sdma);
    }
    // …and the host may not free it: the free is refused and recorded.
    let violations_before = cab.ownership_violations().len();
    let freed = cab.free_packet(id, much_later);
    let reclaimed = cab.reset();
    if ARMED {
        assert!(!freed, "free must be refused");
        let vs = cab.ownership_violations();
        assert_eq!(vs.len(), violations_before + 1);
        let v = vs.last().unwrap();
        assert_eq!(v.kind, ViolationKind::FreeWhileDma);
        assert_eq!(v.actor, DmaEngine::Host);
        assert_eq!(v.holder, DmaEngine::Sdma);
        // The buffer is only reclaimed by the watchdog's board reset, which
        // clears every window along with the outboard state.
        assert_eq!(reclaimed, 1, "reset reclaims the seized packet");
    }
}

#[test]
fn transfer_on_freed_packet_is_use_after_free() {
    let mut cab = Cab::new(1, CabConfig::default());
    let (id, done) = gather(&mut cab, Time::ZERO);
    assert!(cab.free_packet(id, done), "free at window close is clean");
    let err = cab.mdma_tx(id, 2, 0, done, false).unwrap_err();
    if ARMED {
        let CabError::Ownership(v) = err else {
            panic!("expected ownership violation, got {err:?}");
        };
        assert_eq!(v.kind, ViolationKind::UseAfterFree);
        assert_eq!(v.actor, DmaEngine::MdmaTx);
        // The id was never reused, so the journal knows who held it last.
        assert_eq!(v.holder, DmaEngine::Sdma);
    }
}

#[test]
fn never_allocated_id_is_a_plain_unknown_packet() {
    let mut cab = Cab::new(1, CabConfig::default());
    let err = cab
        .mdma_tx(outboard::cab::PacketId(999), 2, 0, Time::ZERO, false)
        .unwrap_err();
    assert!(
        matches!(err, CabError::UnknownPacket(_)),
        "a typo'd id is not a dangling DMA: {err:?}"
    );
    assert!(cab.ownership_violations().is_empty());
}

#[test]
fn clean_traffic_records_windows_and_no_violations() {
    let mut cab = Cab::new(1, CabConfig::default());
    let mut now = Time::ZERO;
    for _ in 0..8 {
        let (id, done) = gather(&mut cab, now);
        let ev = cab.mdma_tx(id, 2, 0, done, false).expect("mdma");
        now = ev.at();
        assert!(cab.free_packet(id, now), "free after media transfer");
    }
    assert!(cab.ownership_violations().is_empty());
    if ARMED {
        assert!(
            cab.ownership_transitions() >= 16,
            "journal must have observed the traffic"
        );
    }
}
