//! Slab/freelist buffer pools for the simulator's per-frame hot paths.
//!
//! Every frame that crosses the simulated fabric used to allocate a fresh
//! `Vec<u8>` (netsim wire frames, CAB packet buffers, mbuf clusters). A
//! [`BufPool`] recycles that storage: `acquire` hands out a zero-filled
//! buffer (`acquire_empty` an empty one with the capacity, for callers that
//! write every byte) from a power-of-two size-class freelist (or the
//! allocator on a miss), and the buffer comes back either explicitly via
//! `release` or automatically when the last [`Bytes`] view of a `freeze`d
//! buffer drops (through the vendored `bytes` crate's [`StorageHook`]).
//!
//! Every acquisition is tagged with a generation-tagged [`Ticket`]
//! (`slot << 32 | generation`): releasing a stale or already-released
//! ticket is counted in `ticket_errors` instead of corrupting the freelist,
//! so recycled-handle aliasing (the bug class the CAB's DMA ownership
//! journal exists for) is detected rather than silent.
//!
//! Determinism: the pool affects only *where* buffer storage comes from,
//! never its contents (`acquire` zeroes, exactly like the `vec![0; len]`
//! call sites it replaces; `acquire_empty` exposes no recycled byte) and
//! never simulation order. Stats are plain counters, identical across
//! repeated runs of the same seed.

use bytes::{Bytes, StorageHook};
use std::cell::{RefCell, RefMut};
use std::rc::Rc;

/// Smallest pooled size class, bytes (log2).
const MIN_CLASS: u32 = 10; // 1 KiB
/// Largest pooled size class, bytes (log2). Larger requests fall through to
/// the allocator and are dropped on release.
const MAX_CLASS: u32 = 20; // 1 MiB
/// Retained buffers per size class; beyond this, released storage is freed
/// (`discards`) so a burst can't pin memory forever.
const CLASS_DEPTH: usize = 64;

/// Proof-of-acquisition for one pooled buffer: `slot << 32 | generation`.
///
/// The slot is reused after release, but with a bumped generation, so a
/// double release or a release of a stale handle never matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket(pub u64);

impl Ticket {
    #[inline]
    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }
    #[inline]
    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// Counters for one pool, all monotone except `high_water`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub acquires: u64,
    /// Buffers returned (explicitly or via the `Bytes` drop hook).
    pub releases: u64,
    /// Acquisitions served from a freelist (no allocation).
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Returned buffers freed because their class freelist was full (or the
    /// buffer was larger than the largest pooled class).
    pub discards: u64,
    /// Maximum simultaneously-outstanding buffers.
    pub high_water: u64,
    /// Releases with a stale, reused, or foreign ticket (should be zero).
    pub ticket_errors: u64,
}

struct Slot {
    gen: u32,
    live: bool,
}

struct PoolInner {
    /// One freelist per power-of-two class in `MIN_CLASS..=MAX_CLASS`.
    classes: Vec<Vec<Vec<u8>>>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    outstanding: u64,
    stats: PoolStats,
}

/// The pool's state, shared by every handle and every hooked [`Bytes`]:
/// the last view of a frozen buffer hands its storage back through here.
struct Shared(RefCell<PoolInner>);

/// A generation-tagged slab/freelist pool for frame and packet storage.
///
/// A cheap handle: clones share one pool. The simulator is single-threaded
/// (DESIGN.md §3), so the state sits in a `RefCell` behind an `Rc`, and no
/// pool operation re-enters another (releasing storage drops a `Vec`, never
/// a hooked `Bytes`).
#[derive(Clone)]
pub struct BufPool {
    inner: Rc<Shared>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

fn class_of(len: usize) -> Option<usize> {
    let want = len.max(1).next_power_of_two().max(1 << MIN_CLASS);
    let log = want.trailing_zeros();
    if log > MAX_CLASS {
        None
    } else {
        Some((log - MIN_CLASS) as usize)
    }
}

impl PoolInner {
    fn acquire_empty(&mut self, cap: usize) -> (Vec<u8>, Ticket) {
        let class = class_of(cap);
        let buf = match class.and_then(|c| self.classes[c].pop()) {
            Some(mut b) => {
                self.stats.hits += 1;
                b.clear();
                b
            }
            None => {
                self.stats.misses += 1;
                // Allocate the whole class so the capacity recycles.
                Vec::with_capacity(class.map_or(cap, |c| 1usize << (c as u32 + MIN_CLASS)))
            }
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize].live = true;
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, live: true });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.stats.acquires += 1;
        self.outstanding += 1;
        self.stats.high_water = self.stats.high_water.max(self.outstanding);
        (buf, Ticket(((slot as u64) << 32) | gen as u64))
    }

    fn release(&mut self, buf: Vec<u8>, ticket: Ticket) {
        let slot = ticket.slot();
        let valid = self
            .slots
            .get(slot)
            .map(|s| s.live && s.gen == ticket.gen())
            .unwrap_or(false);
        if !valid {
            self.stats.ticket_errors += 1;
            return;
        }
        self.slots[slot].live = false;
        self.slots[slot].gen = self.slots[slot].gen.wrapping_add(1);
        self.free_slots.push(slot as u32);
        self.stats.releases += 1;
        self.outstanding -= 1;
        match class_of(buf.capacity()) {
            Some(c) if self.classes[c].len() < CLASS_DEPTH && buf.capacity().is_power_of_two() => {
                self.classes[c].push(buf)
            }
            _ => self.stats.discards += 1,
        }
    }
}

impl StorageHook for Shared {
    fn reclaim(&self, buf: Vec<u8>, ticket: u64) {
        self.0.borrow_mut().release(buf, Ticket(ticket));
    }
}

impl BufPool {
    fn state(&self) -> RefMut<'_, PoolInner> {
        self.inner.0.borrow_mut()
    }

    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool {
            inner: Rc::new(Shared(RefCell::new(PoolInner {
                classes: (0..=(MAX_CLASS - MIN_CLASS) as usize)
                    .map(|_| Vec::new())
                    .collect(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                outstanding: 0,
                stats: PoolStats::default(),
            }))),
        }
    }

    /// Hand out a zero-filled buffer of exactly `len` bytes plus the ticket
    /// that must accompany its return.
    pub fn acquire(&self, len: usize) -> (Vec<u8>, Ticket) {
        // Same contents contract as the `vec![0; len]` sites this replaces:
        // all zero, exact length.
        let (mut buf, ticket) = self.acquire_empty(len);
        buf.resize(len, 0);
        (buf, ticket)
    }

    /// Hand out an *empty* buffer with room for at least `cap` bytes, for
    /// callers that write every byte themselves (`extend_from_slice`): the
    /// recycled storage is neither zeroed nor readable until written.
    pub fn acquire_empty(&self, cap: usize) -> (Vec<u8>, Ticket) {
        self.state().acquire_empty(cap)
    }

    /// Return a buffer. Invalid tickets (double release, stale generation)
    /// are counted in `ticket_errors` and the storage is freed, not pooled.
    pub fn release(&self, buf: Vec<u8>, ticket: Ticket) {
        self.state().release(buf, ticket);
    }

    /// Freeze an acquired buffer into [`Bytes`] that returns its storage to
    /// this pool automatically when the last view drops.
    pub fn freeze(&self, buf: Vec<u8>, ticket: Ticket) -> Bytes {
        Bytes::with_hook(buf, Rc::clone(&self.inner) as Rc<dyn StorageHook>, ticket.0)
    }

    /// Acquire, fill with `src`, and freeze in one step — the pooled
    /// equivalent of `Bytes::copy_from_slice`.
    pub fn copy_from_slice(&self, src: &[u8]) -> Bytes {
        let (mut buf, ticket) = self.acquire_empty(src.len());
        buf.extend_from_slice(src);
        self.freeze(buf, ticket)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        self.state().stats
    }

    /// `acquires == releases` (nothing outstanding) and no ticket errors —
    /// the teardown conservation check.
    pub fn balanced(&self) -> bool {
        let g = self.state();
        g.outstanding == 0 && g.stats.ticket_errors == 0
    }
}

/// A copy of `src` in pooled storage when there is a pool, in plain
/// storage otherwise (pool-less unit-test devices).
pub fn pooled_copy(pool: &Option<BufPool>, src: &[u8]) -> Bytes {
    match pool {
        Some(p) => p.copy_from_slice(src),
        None => Bytes::copy_from_slice(src),
    }
}

/// Writable storage on its way to becoming a frozen [`Bytes`]: pooled when
/// there is a pool, plain otherwise. Dropped unfrozen (an error path), the
/// storage goes straight back, so a builder can return early at any point.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    home: Option<(BufPool, Ticket)>,
}

impl PooledBuf {
    /// An empty buffer with room for at least `cap` bytes.
    pub fn with_capacity(pool: &Option<BufPool>, cap: usize) -> PooledBuf {
        match pool {
            Some(p) => {
                let (buf, ticket) = p.acquire_empty(cap);
                PooledBuf {
                    buf,
                    home: Some((p.clone(), ticket)),
                }
            }
            None => PooledBuf {
                buf: Vec::with_capacity(cap),
                home: None,
            },
        }
    }

    /// Freeze into an immutable [`Bytes`]; pooled storage returns to the
    /// pool when the last view drops.
    pub fn freeze(mut self) -> Bytes {
        let buf = std::mem::take(&mut self.buf);
        match self.home.take() {
            Some((pool, ticket)) => pool.freeze(buf, ticket),
            None => Bytes::from(buf),
        }
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some((pool, ticket)) = self.home.take() {
            pool.release(std::mem::take(&mut self.buf), ticket);
        }
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_and_exact_len() {
        let p = BufPool::new();
        let (buf, t) = p.acquire(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&b| b == 0));
        p.release(buf, t);
        // Recycled buffer must come back zeroed even after being dirtied.
        let (mut buf, t) = p.acquire(50);
        buf.iter_mut().for_each(|b| *b = 0xff);
        p.release(buf, t);
        let (buf, _t) = p.acquire(200);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn steady_state_hits_after_warmup() {
        let p = BufPool::new();
        for _ in 0..100 {
            let (buf, t) = p.acquire(2048);
            p.release(buf, t);
        }
        let s = p.stats();
        assert_eq!(s.acquires, 100);
        assert_eq!(s.releases, 100);
        assert_eq!(s.misses, 1, "only the first acquire allocates");
        assert_eq!(s.hits, 99);
        assert_eq!(s.high_water, 1);
        assert!(p.balanced());
    }

    #[test]
    fn double_release_is_counted_not_corrupting() {
        let p = BufPool::new();
        let (buf, t) = p.acquire(64);
        p.release(buf, t);
        p.release(vec![0; 64], t); // stale ticket
        let s = p.stats();
        assert_eq!(s.releases, 1);
        assert_eq!(s.ticket_errors, 1);
        assert!(!p.balanced());
    }

    #[test]
    fn generation_prevents_slot_aliasing() {
        let p = BufPool::new();
        let (b1, t1) = p.acquire(64);
        p.release(b1, t1);
        // Slot is reused with a new generation.
        let (b2, t2) = p.acquire(64);
        assert_eq!(t1.slot(), t2.slot());
        assert_ne!(t1.gen(), t2.gen());
        p.release(vec![0; 64], t1); // the OLD ticket must not free the NEW buffer
        assert_eq!(p.stats().ticket_errors, 1);
        p.release(b2, t2);
        assert_eq!(p.stats().releases, 2);
    }

    #[test]
    fn freeze_returns_storage_when_views_drop() {
        let p = BufPool::new();
        let (mut buf, t) = p.acquire(1024);
        buf[0] = 42;
        let b = p.freeze(buf, t);
        let view = b.slice(..10);
        drop(b);
        assert_eq!(p.stats().releases, 0, "a view is still alive");
        assert_eq!(view[0], 42);
        drop(view);
        assert_eq!(p.stats().releases, 1);
        assert!(p.balanced());
        // And the storage actually recycles.
        let (_buf, _t) = p.acquire(1024);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn clones_share_one_pool_and_frames_outlive_every_handle() {
        let p = BufPool::new();
        let observer = p.clone();
        let frame = p.copy_from_slice(b"outlives its world");
        let view = frame.slice(..8);
        assert_eq!(observer.stats().acquires, 1, "clones see one pool");
        drop(p);
        drop(frame);
        assert_eq!(observer.stats().releases, 0, "a view is still alive");
        // The hook holds the pool's state, so the storage still finds its
        // way home after the world's handle is gone, exactly once.
        let hook = Rc::clone(&observer.inner);
        drop(observer);
        drop(view);
        let g = hook.0.borrow();
        assert_eq!((g.stats.releases, g.stats.ticket_errors), (1, 0));
        assert_eq!(g.outstanding, 0);
    }

    #[test]
    fn oversized_requests_fall_through() {
        let p = BufPool::new();
        let (buf, t) = p.acquire(2 * 1024 * 1024);
        assert_eq!(buf.len(), 2 * 1024 * 1024);
        p.release(buf, t);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.discards, 1, "oversized storage is freed, not pooled");
        assert!(p.balanced());
    }

    #[test]
    fn class_depth_bounds_retention() {
        let p = BufPool::new();
        let handles: Vec<_> = (0..CLASS_DEPTH + 10).map(|_| p.acquire(4096)).collect();
        assert_eq!(p.stats().high_water, (CLASS_DEPTH + 10) as u64);
        for (b, t) in handles {
            p.release(b, t);
        }
        let s = p.stats();
        assert_eq!(s.discards, 10);
        assert!(p.balanced());
    }

    #[test]
    fn pooled_buf_freezes_or_returns_its_storage() {
        let pool = Some(BufPool::new());
        let mut kept = PooledBuf::with_capacity(&pool, 2000);
        kept.extend_from_slice(b"kept");
        let abandoned = PooledBuf::with_capacity(&pool, 2000);
        drop(abandoned);
        let p = pool.as_ref().unwrap();
        assert_eq!((p.stats().acquires, p.stats().releases), (2, 1));
        let frozen = kept.freeze();
        assert_eq!(&frozen[..], b"kept");
        assert_eq!(p.stats().releases, 1, "frozen storage is still out");
        drop(frozen);
        assert!(p.balanced());
        // No pool: plain storage, same contents contract.
        let mut plain = PooledBuf::with_capacity(&None, 16);
        plain.extend_from_slice(b"plain");
        assert_eq!(&plain.freeze()[..], b"plain");
    }

    #[test]
    fn copy_from_slice_matches_contents() {
        let p = BufPool::new();
        let b = p.copy_from_slice(b"frame payload");
        assert_eq!(&b[..], b"frame payload");
        drop(b);
        assert!(p.balanced());
    }
}
