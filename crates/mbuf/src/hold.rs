//! Counted handles on outboard packets.
//!
//! An outboard packet lives as long as something refers to it (§4.2,
//! §4.4): a transmit buffer until its data is acknowledged, a receive
//! buffer until its last byte is copied out. Every holder — each `M_WCAB`
//! descriptor covering the packet, and each driver request or DMA job
//! naming it — owns one [`PacketRef`]. Cloning a handle adds a holder and
//! dropping one removes it; when the last goes, the packet id is put on its
//! CAB's release list, which the host drains with the time of the event it
//! is handling (`Drop` has no clock). Nothing else frees a packet on the
//! host's side, so a drop path cannot leak one.
//!
//! The holder counts live in one table per CAB ([`PacketHolds`]), indexed by
//! packet id, so a handle is a table pointer and an id and a packet costs no
//! allocation of its own.

use outboard_sim::IdTable;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The holders of one CAB's live outboard packets and the packets whose
/// last holder has gone.
#[derive(Debug, Default)]
pub struct PacketHolds(RefCell<Holds>);

#[derive(Debug, Default)]
struct Holds {
    live: IdTable<Hold>,
    /// Packets whose last holder went, until the host frees them.
    released: Vec<u64>,
}

#[derive(Debug)]
struct Hold {
    holders: u32,
    /// Whether the packet goes on the release list when its last holder
    /// goes; cleared when that claim passes to the hardware.
    release: bool,
    /// Framing and protocol header bytes in front of a transmit packet's
    /// data, for a header-only retransmission (§4.3).
    hdr_len: usize,
}

impl PacketHolds {
    /// An empty table.
    pub fn new() -> Rc<PacketHolds> {
        Rc::default()
    }

    /// The first handle on packet `id`, whose data starts `hdr_len` bytes in.
    pub fn adopt(self: &Rc<Self>, id: u64, hdr_len: usize) -> PacketRef {
        self.0.borrow_mut().live.insert(
            id,
            Hold {
                holders: 1,
                release: true,
                hdr_len,
            },
        );
        PacketRef {
            holds: Rc::clone(self),
            id,
        }
    }

    /// The next packet whose last holder has gone, for the host to free.
    pub fn pop_released(&self) -> Option<u64> {
        self.0.borrow_mut().released.pop()
    }
}

/// One holder's claim on an outboard packet (see the module docs).
pub struct PacketRef {
    holds: Rc<PacketHolds>,
    id: u64,
}

impl PacketRef {
    /// The packet's id on its CAB.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Header bytes in front of the packet's data (0 for a received one).
    pub fn hdr_len(&self) -> usize {
        let holds = self.holds.0.borrow();
        holds.live.get(self.id).map_or(0, |h| h.hdr_len)
    }

    /// True when no other handle on the packet exists.
    pub fn is_last(&self) -> bool {
        let holds = self.holds.0.borrow();
        holds.live.get(self.id).is_some_and(|h| h.holders == 1)
    }

    /// End this claim without releasing the packet should it be the last:
    /// an engine frees it when its transfer ends (the request's free flag),
    /// or a wedged engine has seized it and the board reset frees it.
    pub fn disown(self) {
        let mut holds = self.holds.0.borrow_mut();
        if let Some(h) = holds.live.get_mut(self.id).filter(|h| h.holders == 1) {
            h.release = false;
        }
    }
}

impl Clone for PacketRef {
    fn clone(&self) -> PacketRef {
        if let Some(h) = self.holds.0.borrow_mut().live.get_mut(self.id) {
            h.holders += 1;
        }
        PacketRef {
            holds: Rc::clone(&self.holds),
            id: self.id,
        }
    }
}

impl Drop for PacketRef {
    fn drop(&mut self) {
        // No borrow of the table outlives a method of this module, and none
        // of them drops a handle while it borrows, so this cannot fail.
        let mut holds = self.holds.0.borrow_mut();
        let Some(h) = holds.live.get_mut(self.id) else {
            return;
        };
        h.holders -= 1;
        if h.holders == 0 && holds.live.remove(self.id).is_some_and(|h| h.release) {
            holds.released.push(self.id);
        }
    }
}

impl PartialEq for PacketRef {
    fn eq(&self, other: &PacketRef) -> bool {
        self.id == other.id && Rc::ptr_eq(&self.holds, &other.holds)
    }
}

impl Eq for PacketRef {}

impl fmt::Debug for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PacketRef").field(&self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_drop_releases_the_packet() {
        let holds = PacketHolds::new();
        let a = holds.adopt(7, 40);
        let b = a.clone();
        assert!(!a.is_last());
        assert_eq!(b.hdr_len(), 40);
        drop(a);
        assert!(b.is_last());
        assert_eq!(holds.pop_released(), None);
        drop(b);
        assert_eq!(holds.pop_released(), Some(7));
        assert!(holds.0.borrow().live.is_empty());
    }

    #[test]
    fn a_disowned_last_claim_is_not_released() {
        let holds = PacketHolds::new();
        let a = holds.adopt(3, 0);
        let b = a.clone();
        b.disown();
        assert!(a.is_last(), "disowning a shared claim only drops it");
        a.disown();
        assert_eq!(holds.pop_released(), None);
        assert!(holds.0.borrow().live.is_empty());
    }
}
