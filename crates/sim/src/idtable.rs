//! Tables keyed by ids the simulator itself hands out in sequence.
//!
//! Sockets, outboard packet buffers, SDMA tokens and UIO counters are all
//! named by a counter that only goes up and never reuses a value, and the
//! live ones cluster just below the counter. [`IdTable`] stores them in a
//! deque of slots addressed by `id - base`: lookup, insert and remove are an
//! index computation instead of a tree search or a hash, and iteration is in
//! ascending id order by construction — the order a `BTreeMap` gave the
//! sweeps (`free_all`, watchdog rescue, stats rollup) that feed the event
//! stream.
//!
//! Contract: when the table is non-empty its first slot is occupied —
//! removal trims freed slots off the front, and clears the table when its
//! last entry goes — so it holds one slot per id between the lowest live id
//! and the highest id inserted since the table was last empty. Freed slots
//! at the tail stay: the newest id is often freed at once (a packet buffer
//! per ACK frame), and trimming the run of freed slots under it only for
//! the next insert to pad them back cost eight slot writes an insert. Ids
//! may be inserted in any order; an id the table never held, or no longer
//! holds, reads as `None`. There is deliberately no `Index` impl: every
//! caller decides what a missing id means.

use std::collections::VecDeque;

/// A map from sequentially issued ids to `T` (see the module docs).
#[derive(Debug)]
pub struct IdTable<T> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
    /// Empty slots `insert` has written to bridge a gap below a new id.
    #[cfg(test)]
    padded: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub const fn new() -> IdTable<T> {
        IdTable {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
            #[cfg(test)]
            padded: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn slot_of(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The entry for `id`, if live.
    #[inline]
    pub fn get(&self, id: impl Into<u64>) -> Option<&T> {
        self.slots.get(self.slot_of(id.into())?)?.as_ref()
    }

    /// Mutable access to the entry for `id`, if live.
    #[inline]
    pub fn get_mut(&mut self, id: impl Into<u64>) -> Option<&mut T> {
        let slot = self.slot_of(id.into())?;
        self.slots.get_mut(slot)?.as_mut()
    }

    /// True when `id` is live.
    pub fn contains(&self, id: impl Into<u64>) -> bool {
        self.get(id).is_some()
    }

    /// Store `value` under `id`; returns the entry it replaces.
    pub fn insert(&mut self, id: impl Into<u64>, value: T) -> Option<T> {
        let id = id.into();
        if self.slots.is_empty() {
            self.base = id;
        }
        // Below the first live id (an id issued earlier, registered late).
        while id < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let slot = (id - self.base) as usize;
        // Past the last slot: pad the gap (ids registered elsewhere), then
        // the common case — the next id in sequence — is one push.
        if slot >= self.slots.len() {
            #[cfg(test)]
            {
                self.padded += slot - self.slots.len();
            }
            self.slots.resize_with(slot, || None);
            self.slots.push_back(Some(value));
            self.live += 1;
            return None;
        }
        let old = self.slots.get_mut(slot).and_then(|s| s.replace(value));
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Remove and return the entry for `id`, trimming freed slots off the
    /// front; the table is cleared when its last entry goes.
    pub fn remove(&mut self, id: impl Into<u64>) -> Option<T> {
        let slot = self.slot_of(id.into())?;
        let old = self.slots.get_mut(slot)?.take()?;
        self.live -= 1;
        if self.live == 0 {
            self.slots.clear();
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(old)
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, s)| Some((id, s.as_ref()?)))
    }

    /// Live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Empty the table, yielding its entries in ascending id order.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + use<T> {
        self.live = 0;
        (self.base..)
            .zip(std::mem::take(&mut self.slots))
            .filter_map(|(id, s)| Some((id, s?)))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memory contract: the slots start exactly at the lowest live id
    /// and run to the highest id inserted since the table was last empty.
    #[test]
    fn slots_span_exactly_the_live_ids() {
        let mut t = IdTable::new();
        for id in 1u64..=100 {
            t.insert(id, id);
        }
        assert_eq!((t.base, t.slots.len()), (1, 100));
        for id in 1u64..=40 {
            t.remove(id);
        }
        assert_eq!((t.base, t.slots.len()), (41, 60), "front trimmed");
        for id in 90u64..=100 {
            t.remove(id);
        }
        assert_eq!((t.base, t.slots.len()), (41, 60), "tail kept");
        t.remove(60u64);
        assert_eq!((t.base, t.slots.len(), t.len()), (41, 60, 48), "holes stay");
        // A freed tail slot is reused in place; the next id is one push.
        t.insert(95u64, 95);
        t.insert(101u64, 101);
        assert_eq!((t.base, t.slots.len(), t.len()), (41, 61, 50));
        // Removing the lowest id trims up to the next live one.
        t.remove(41u64);
        assert_eq!((t.base, t.slots.len()), (42, 60));
        // An id issued earlier, registered late, grows the front.
        t.insert(38u64, 38);
        assert_eq!((t.base, t.slots.len(), t.len()), (38, 64, 50));
        // The last entry to go clears the table, tail and all.
        for id in 38u64..=101 {
            t.remove(id);
        }
        assert!(t.is_empty() && t.slots.is_empty());
        assert_eq!(t.padded, 0, "no insert here left a gap");
        // An empty table restarts wherever the next id lands.
        t.insert(5000u64, 0);
        assert_eq!((t.base, t.slots.len()), (5000, 1));
        // Only an id past the next in sequence pads.
        t.insert(5004u64, 0);
        assert_eq!((t.slots.len(), t.padded), (5, 3));
    }

    /// The shape `many_flows` produces: a band of long-lived ids (data
    /// packets awaiting their ACK) under a newest id that is allocated and
    /// freed at once (one packet buffer per ACK frame). Each round must be
    /// one push and one `take` — no padding — and the table must not
    /// outgrow the ids issued since its lowest live one.
    #[test]
    fn churn_of_the_newest_id_never_pads() {
        let mut t = IdTable::new();
        for id in 1u64..=64 {
            t.insert(id, id);
        }
        let mut lowest = 1u64;
        for round in 0..10_000u64 {
            let newest = 65 + round;
            assert_eq!(t.insert(newest, newest), None);
            assert_eq!(t.remove(newest), Some(newest));
            assert_eq!(t.get(newest), None);
            if round == 5_000 {
                assert_eq!(t.remove(32u64), Some(32));
            }
            if round == 7_500 {
                // The band's lower half completes: the front follows it.
                for id in 1u64..=40 {
                    t.remove(id);
                }
                lowest = 41;
            }
            assert_eq!(t.base, lowest);
            assert!(t.slots.len() as u64 <= newest - lowest + 1);
        }
        assert_eq!(t.padded, 0, "an id next in sequence is one push_back");
        assert_eq!(t.len(), 24);
        assert_eq!(
            t.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            (41u64..=64).collect::<Vec<_>>()
        );
    }
}
