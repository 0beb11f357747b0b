//! Slab/freelist buffer pools for the simulator's per-frame hot paths.
//!
//! Every frame that crosses the simulated fabric used to allocate a fresh
//! `Vec<u8>` (netsim wire frames, CAB packet buffers, mbuf clusters). A
//! [`BufPool`] recycles that storage from a size-class freelist (or the
//! allocator on a miss). The classes are four to an octave from 1 KiB to
//! 1 MiB (1, 1.25, 1.5, 1.75, 2 KiB, ...), so a buffer rounds up by at most
//! a quarter of what it holds: a 4 176-byte frame takes 5 KiB.
//!
//! Pooled storage is owned, never promised back. Model code fills it
//! through a [`PooledBuf`], which returns the storage when it drops or
//! freezes it into a [`Bytes`] whose last view returns it (through the
//! vendored `bytes` crate's [`StorageHook`]). The frozen `acquire`/`freeze`
//! pair carries a [`Ticket`] that `freeze` consumes. Each buffer therefore
//! goes back exactly once, to the pool that issued it, and the pool keeps
//! no table of who holds what. A leak (a view kept alive, a ticket dropped
//! unfrozen) stays counted as outstanding, which [`BufPool::balanced`]
//! reports.
//!
//! Determinism: the pool affects only *where* buffer storage comes from,
//! never its contents (`acquire` and [`PooledBuf::zeroed`] zero, exactly
//! like the `vec![0; len]` call sites they replace;
//! [`PooledBuf::with_capacity`] exposes no recycled byte) and never
//! simulation order. Stats are plain counters, identical across repeated
//! runs of the same seed.

use bytes::{Bytes, StorageHook};
use std::cell::{RefCell, RefMut};
use std::rc::Rc;

/// Smallest pooled size class, bytes (log2).
const MIN_CLASS: u32 = 10; // 1 KiB
/// Largest pooled size class, bytes (log2). Larger requests fall through to
/// the allocator and are dropped on release.
const MAX_CLASS: u32 = 20; // 1 MiB
/// Size classes per octave (log2): the class sizes of octave `2^k` are
/// `2^k * (4 + i) / 4` for `i` in `0..4`.
const STEPS_LOG: u32 = 2;
/// Size classes, `1 KiB ..= 1 MiB`: four per octave and the 1 MiB class.
const CLASSES: usize = (((MAX_CLASS - MIN_CLASS) << STEPS_LOG) + 1) as usize;
/// Retained buffers per size class; beyond this, released storage is freed
/// (`discards`) so a burst can't pin memory forever.
const CLASS_DEPTH: usize = 64;

/// Proof of one [`BufPool::acquire`], consumed by [`BufPool::freeze`].
///
/// It names the pool that issued it, so the storage goes home to that pool
/// whichever handle freezes it. It cannot be used twice:
///
/// ```compile_fail
/// let pool = outboard_sim::BufPool::new();
/// let (buf, ticket) = pool.acquire(64);
/// let first = pool.freeze(buf.clone(), ticket);
/// let second = pool.freeze(buf, ticket); // `ticket` was moved
/// ```
///
/// ```compile_fail
/// let pool = outboard_sim::BufPool::new();
/// let (buf, ticket) = pool.acquire(64);
/// let spare = ticket.clone(); // no `Clone`
/// ```
///
/// and it cannot be made outside `sim`:
///
/// ```compile_fail
/// let pool = outboard_sim::BufPool::new();
/// let forged = outboard_sim::Ticket {}; // private fields
/// let frame = pool.freeze(vec![0; 64], forged);
/// ```
pub struct Ticket {
    home: Rc<Shared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

/// Counters for one pool, all monotone except `high_water`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub acquires: u64,
    /// Buffers returned (a [`PooledBuf`] dropped or a frozen buffer's last
    /// view dropped).
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
}

struct PoolInner {
    /// One freelist per size class, inline, so a device's own pool costs
    /// one allocation.
    classes: [Vec<Vec<u8>>; CLASSES],
    outstanding: u64,
    stats: PoolStats,
}

/// The pool's state, shared by every handle, ticket and hooked [`Bytes`].
/// Storage comes back only through its [`StorageHook`]: from the last view
/// of a frozen buffer, or from a [`PooledBuf`] dropped unfrozen.
struct Shared(RefCell<PoolInner>);

/// A slab/freelist pool for frame and packet storage.
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

/// The smallest class that holds `len` bytes, or `None` above 1 MiB.
fn class_of(len: usize) -> Option<usize> {
    let steps = 1 << STEPS_LOG;
    // With `m = len - 1` in `[2^lg, 2^(lg+1))` and `s = 2^(lg - STEPS_LOG)`,
    // `q = m / s` is in `steps..2 * steps` and `q * s <= m < (q + 1) * s`,
    // so the smallest class holding `len` is `(q + 1) * s`. Counting
    // `steps` classes per octave, the 1 KiB class (`q + 1 = 2 * steps` at
    // `lg = MIN_CLASS - 1`) is number 0.
    let m = len.max(1 << MIN_CLASS) - 1;
    let lg = m.ilog2();
    let q = m >> (lg - STEPS_LOG);
    let class = (lg + 1 - MIN_CLASS) as usize * steps + q + 1 - 2 * steps;
    (class < CLASSES).then_some(class)
}

/// The capacity of class `class`'s buffers.
fn class_size(class: usize) -> usize {
    let steps = 1 << STEPS_LOG;
    let octave = MIN_CLASS - STEPS_LOG + (class >> STEPS_LOG) as u32;
    (steps + class % steps) << octave
}

impl PoolInner {
    /// An empty buffer with room for at least `cap` bytes: the recycled
    /// storage is neither zeroed nor readable until written.
    fn acquire_empty(&mut self, cap: usize) -> Vec<u8> {
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
                Vec::with_capacity(class.map_or(cap, class_size))
            }
        };
        self.stats.acquires += 1;
        self.outstanding += 1;
        self.stats.high_water = self.stats.high_water.max(self.outstanding);
        buf
    }

    fn release(&mut self, buf: Vec<u8>) {
        self.stats.releases += 1;
        self.outstanding -= 1;
        // Only storage of exactly a class's size recycles, into that class:
        // anything else (grown past its class, or oversized) is freed.
        match class_of(buf.capacity()) {
            Some(c) if class_size(c) == buf.capacity() && self.classes[c].len() < CLASS_DEPTH => {
                self.classes[c].push(buf)
            }
            _ => self.stats.discards += 1,
        }
    }
}

impl StorageHook for Shared {
    fn reclaim(&self, buf: Vec<u8>) {
        self.0.borrow_mut().release(buf);
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
                classes: std::array::from_fn(|_| Vec::new()),
                outstanding: 0,
                stats: PoolStats::default(),
            }))),
        }
    }

    /// Hand out a zero-filled buffer of exactly `len` bytes plus the ticket
    /// [`BufPool::freeze`] consumes.
    pub fn acquire(&self, len: usize) -> (Vec<u8>, Ticket) {
        // Same contents contract as the `vec![0; len]` sites this replaces:
        // all zero, exact length.
        let mut buf = self.state().acquire_empty(len);
        buf.resize(len, 0);
        let ticket = Ticket {
            home: Rc::clone(&self.inner),
        };
        (buf, ticket)
    }

    /// Freeze an acquired buffer into [`Bytes`] that returns its storage to
    /// the pool that issued `ticket` when the last view drops.
    pub fn freeze(&self, buf: Vec<u8>, ticket: Ticket) -> Bytes {
        // A buffer with its ticket is a `PooledBuf`.
        PooledBuf {
            buf,
            ticket: Some(ticket),
        }
        .freeze()
    }

    /// A pooled copy of `src`: the pooled equivalent of
    /// `Bytes::copy_from_slice`.
    pub fn copy_from_slice(&self, src: &[u8]) -> Bytes {
        let mut buf = PooledBuf::with_capacity(self, src.len());
        buf.extend_from_slice(src);
        buf.freeze()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        self.state().stats
    }

    /// `acquires == releases`: nothing outstanding, the teardown
    /// conservation check.
    pub fn balanced(&self) -> bool {
        self.state().outstanding == 0
    }
}

/// Writable pool storage on its way to becoming a frozen [`Bytes`].
/// Dropped unfrozen (an error path), the storage goes straight back, so a
/// builder can return early at any point.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    /// Taken only by [`PooledBuf::freeze`], which hands the storage on.
    ticket: Option<Ticket>,
}

impl PooledBuf {
    /// An empty buffer with room for at least `cap` bytes.
    pub fn with_capacity(pool: &BufPool, cap: usize) -> PooledBuf {
        PooledBuf {
            buf: pool.state().acquire_empty(cap),
            ticket: Some(Ticket {
                home: Rc::clone(&pool.inner),
            }),
        }
    }

    /// A zero-filled buffer of exactly `len` bytes.
    pub fn zeroed(pool: &BufPool, len: usize) -> PooledBuf {
        let mut buf = PooledBuf::with_capacity(pool, len);
        buf.resize(len, 0);
        buf
    }

    /// Freeze into an immutable [`Bytes`]; the storage returns to the pool
    /// when the last view drops.
    pub fn freeze(mut self) -> Bytes {
        let buf = std::mem::take(&mut self.buf);
        // `Some` until this call, which consumes `self`.
        self.ticket
            .take()
            .map_or_else(Bytes::new, |t| Bytes::with_hook(buf, t.home))
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
        if let Some(ticket) = self.ticket.take() {
            ticket.home.reclaim(std::mem::take(&mut self.buf));
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
        drop(p.freeze(buf, t));
        // Recycled storage must come back zeroed even after being dirtied.
        let mut dirty = PooledBuf::zeroed(&p, 50);
        dirty.iter_mut().for_each(|b| *b = 0xff);
        drop(dirty);
        let (buf, t) = p.acquire(200);
        assert!(buf.iter().all(|&b| b == 0));
        drop(p.freeze(buf, t));
        assert!(PooledBuf::zeroed(&p, 300).iter().all(|&b| b == 0));
        assert_eq!(p.stats().hits, 3, "every acquire after the first recycled");
    }

    #[test]
    fn steady_state_hits_after_warmup() {
        let p = BufPool::new();
        for _ in 0..100 {
            drop(PooledBuf::zeroed(&p, 2048));
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
        // A buffer returns exactly once, when its owner lets go: a frozen
        // buffer and every view of it count one release, not one per view,
        // and the `Ticket` doctests show a second freeze does not compile.
        let p = BufPool::new();
        let mut buf = PooledBuf::with_capacity(&p, 64);
        buf.extend_from_slice(b"once");
        let frame = buf.freeze();
        let views = [frame.clone(), frame.slice(1..), frame.slice(..2)];
        drop(frame);
        drop(views);
        let s = p.stats();
        assert_eq!((s.acquires, s.releases), (1, 1));
        assert!(p.balanced());
    }

    #[test]
    fn generation_prevents_slot_aliasing() {
        // Storage recycles only once its last owner is gone: while a view
        // of the old frame lives, a new acquire gets other storage and the
        // old bytes stay as they were.
        let p = BufPool::new();
        let old = p.copy_from_slice(&[7; 64]);
        let view = old.slice(..8);
        drop(old);
        let mut fresh = PooledBuf::zeroed(&p, 64);
        fresh.fill(0xee);
        assert_ne!(fresh.as_ptr(), view.as_ptr());
        assert_eq!(&view[..], &[7; 8]);
        assert_eq!(p.stats().hits, 0, "live storage is not handed out");
        drop(fresh);
        drop(view);
        // Both are home now: the next two acquires recycle them.
        let (_a, _b) = (PooledBuf::zeroed(&p, 64), PooledBuf::zeroed(&p, 64));
        assert_eq!(p.stats().hits, 2);
    }

    #[test]
    fn ticket_goes_home_to_the_pool_that_issued_it() {
        let a = BufPool::new();
        let b = BufPool::new();
        let (buf, ticket) = a.acquire(128);
        let frame = b.freeze(buf, ticket);
        drop(frame);
        assert!(a.balanced());
        assert_eq!((a.stats().acquires, a.stats().releases), (1, 1));
        assert_eq!(b.stats(), PoolStats::default(), "pool B saw nothing");
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
        assert_eq!(g.stats.releases, 1);
        assert_eq!(g.outstanding, 0);
    }

    #[test]
    fn oversized_requests_fall_through() {
        let p = BufPool::new();
        let buf = PooledBuf::zeroed(&p, 2 * 1024 * 1024);
        assert_eq!(buf.len(), 2 * 1024 * 1024);
        drop(buf);
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.discards, 1, "oversized storage is freed, not pooled");
        assert!(p.balanced());
    }

    #[test]
    fn class_depth_bounds_retention() {
        let p = BufPool::new();
        let held: Vec<_> = (0..CLASS_DEPTH + 10)
            .map(|_| PooledBuf::zeroed(&p, 4096))
            .collect();
        assert_eq!(p.stats().high_water, (CLASS_DEPTH + 10) as u64);
        drop(held);
        let s = p.stats();
        assert_eq!(s.discards, 10);
        assert!(p.balanced());
    }

    #[test]
    fn pooled_buf_freezes_or_returns_its_storage() {
        // Dropped, a `PooledBuf` returns its storage; frozen, it passes it
        // on to the `Bytes`, whose last view returns it.
        let pool = BufPool::new();
        let mut kept = PooledBuf::with_capacity(&pool, 2000);
        kept.extend_from_slice(b"kept");
        let abandoned = PooledBuf::with_capacity(&pool, 2000);
        drop(abandoned);
        assert_eq!((pool.stats().acquires, pool.stats().releases), (2, 1));
        let frozen = kept.freeze();
        assert_eq!(&frozen[..], b"kept");
        assert_eq!(pool.stats().releases, 1, "frozen storage is still out");
        drop(frozen);
        assert!(pool.balanced());
    }

    #[test]
    fn classes_round_up_by_at_most_a_quarter() {
        for n in 1..=1 << MAX_CLASS {
            let Some(c) = class_of(n) else {
                panic!("{n} bytes have no class");
            };
            let size = class_size(c);
            assert!(size >= n, "{n} bytes in a {size}-byte class");
            assert!(
                4 * size <= 5 * n || size == 1 << MIN_CLASS,
                "{n} bytes in a {size}-byte class"
            );
            if c > 0 {
                assert!(class_size(c - 1) < n, "{n} bytes fit class {}", c - 1);
            }
        }
        assert_eq!(class_of((1 << MAX_CLASS) + 1), None);
        assert_eq!(class_size(CLASSES - 1), 1 << MAX_CLASS);
        for c in 0..CLASSES {
            assert_eq!(class_of(class_size(c)), Some(c));
        }
    }

    #[test]
    fn storage_of_a_foreign_capacity_is_discarded() {
        // A 4 176-byte frame takes the 5 KiB class; storage whose capacity
        // is no class size (here it grew past its class) is not recycled.
        let p = BufPool::new();
        let frame = PooledBuf::zeroed(&p, 4176);
        assert_eq!(frame.capacity(), 5 * 1024);
        drop(frame);
        let mut grown = PooledBuf::zeroed(&p, 4176);
        let room = 5 * 1024 + 1 - grown.len();
        grown.reserve_exact(room);
        assert_eq!(class_of(grown.capacity()).map(class_size), Some(6 * 1024));
        assert_ne!(grown.capacity(), 6 * 1024);
        drop(grown);
        let s = p.stats();
        assert_eq!((s.misses, s.hits, s.discards), (1, 1, 1));
        assert!(p.balanced());
        // Nothing was kept: the next acquire allocates again.
        drop(PooledBuf::zeroed(&p, 4176));
        assert_eq!(p.stats().misses, 2);
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
