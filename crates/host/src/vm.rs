//! VM operations on user pages: pin, unpin, map.
//!
//! §4.4.1 of the paper: DMA directly to/from user space requires pinning the
//! pages and making them addressable from the kernel. In DEC OSF/1 these
//! operations can only run in the application's context, so the *socket
//! layer* performs them incrementally as data is handed to the transport
//! layer. Their costs (Table 2) dominate the single-copy path's per-byte
//! budget, replacing the copy and checksum of the traditional path.
//!
//! The paper also describes the key optimization: "for applications that
//! reuse the same set of buffers repeatedly, this overhead can be avoided by
//! keeping the buffers pinned and mapped ... buffers can be unpinned lazily,
//! thus limiting the number of pages that an application can have pinned at
//! one time." [`VmSystem`] implements both the eager and the lazy policy.
//!
//! A pinned page counts the bytes of it that outstanding operations hold,
//! not the calls that pinned it: a range released in other pieces than it
//! was prepared in still balances, and the page is unpinned when its last
//! held byte is released. The Table 2 costs stay per call.

use crate::config::MachineConfig;
use crate::TaskId;
use outboard_sim::obs::Scope;
use outboard_sim::{DetMap, Dur};
use std::collections::VecDeque;

/// Statistics over VM activity, for tests and the crossover experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Pin system calls issued.
    pub pin_calls: u64,
    /// Pages newly pinned.
    pub pages_pinned: u64,
    /// Unpin system calls issued.
    pub unpin_calls: u64,
    /// Pages actually unpinned.
    pub pages_unpinned: u64,
    /// Kernel-map calls issued.
    pub map_calls: u64,
    /// Pages newly mapped.
    pub pages_mapped: u64,
    /// Pages found already pinned (lazy-unpin reuse).
    pub cache_hits: u64,
    /// Cached pages evicted to honour the pinned limit.
    pub evictions: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PageState {
    /// Pinned and mapped, `bytes` of it held by outstanding operations.
    Active { bytes: usize },
    /// Lazily released: still pinned+mapped, reusable at cache-hit cost.
    Cached,
}

/// Largest Table 2 kept, in rows.
const MAX_TABLE2_ROWS: usize = 8192;

/// Table 2's three costs for one page count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PageCosts {
    pin: Dur,
    unpin: Dur,
    map: Dur,
}

/// Per-host VM system tracking pinned user pages.
#[derive(Debug)]
pub struct VmSystem {
    cfg: MachineConfig,
    /// Table 2 compiled per page count (row `n` = one call on `n` pages),
    /// up to the pinned-page limit at construction and further on first
    /// use.
    table2: Vec<PageCosts>,
    /// `pin_cache_hit_us`, compiled.
    cache_hit: Dur,
    lazy: bool,
    pages: DetMap<(TaskId, u64), PageState>,
    /// LRU order of `Cached` pages (front = oldest).
    cached_lru: VecDeque<(TaskId, u64)>,
    stats: VmStats,
}

impl VmSystem {
    /// A VM system; `lazy_unpin` enables the §4.4.1 optimization.
    pub fn new(cfg: MachineConfig, lazy_unpin: bool) -> VmSystem {
        let mut vm = VmSystem {
            cache_hit: Dur::from_micros_f64(cfg.pin_cache_hit_us),
            table2: Vec::new(),
            cfg,
            lazy: lazy_unpin,
            pages: DetMap::new(),
            cached_lru: VecDeque::new(),
            stats: VmStats::default(),
        };
        vm.compile_table2(vm.cfg.pinned_page_limit.min(MAX_TABLE2_ROWS - 1));
        vm
    }

    /// Table 2 for one call on `n` pages, by the paper's linear formula.
    #[expect(
        clippy::float_arithmetic,
        reason = "the table compiler: each page count once, at construction or on the first call that needs it"
    )]
    fn row(&self, n: usize) -> PageCosts {
        if n == 0 {
            return PageCosts::default();
        }
        let (c, pages) = (&self.cfg, n as f64);
        PageCosts {
            pin: Dur::from_micros_f64(c.pin_base_us + c.pin_per_page_us * pages),
            unpin: Dur::from_micros_f64(c.unpin_base_us + c.unpin_per_page_us * pages),
            map: Dur::from_micros_f64(c.map_base_us + c.map_per_page_us * pages),
        }
    }

    /// Extend the table through `n` pages.
    fn compile_table2(&mut self, n: usize) {
        while self.table2.len() <= n {
            let row = self.row(self.table2.len());
            self.table2.push(row);
        }
    }

    /// Row `n`: from the table, grown to it up to `MAX_TABLE2_ROWS`, past
    /// which (a call on more than 64 MB of 8 KB pages) it is evaluated on
    /// its own.
    fn costs(&mut self, n: usize) -> PageCosts {
        if n >= MAX_TABLE2_ROWS {
            return self.row(n);
        }
        self.compile_table2(n);
        self.table2[n]
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Whether lazy unpinning is enabled.
    pub fn lazy(&self) -> bool {
        self.lazy
    }

    /// Maximum pages an application may keep pinned (config passthrough).
    pub(crate) fn page_limit(&self) -> usize {
        self.cfg.pinned_page_limit
    }

    /// Table 2: cost of pinning `n` pages in one call.
    pub fn pin_cost(&mut self, n: usize) -> Dur {
        self.costs(n).pin
    }

    /// Table 2: cost of unpinning `n` pages in one call.
    pub fn unpin_cost(&mut self, n: usize) -> Dur {
        self.costs(n).unpin
    }

    /// Table 2: cost of mapping `n` pages into kernel space in one call.
    pub fn map_cost(&mut self, n: usize) -> Dur {
        self.costs(n).map
    }

    /// The pages backing `[vaddr, vaddr+len)`, each with the bytes of the
    /// range that fall in it.
    fn spans(&self, vaddr: u64, len: usize) -> impl Iterator<Item = (u64, usize)> {
        let ps = self.cfg.page_size as u64;
        let end = vaddr + len as u64;
        let vpns = if len == 0 {
            0..0
        } else {
            (vaddr / ps)..((end - 1) / ps + 1)
        };
        vpns.map(move |vpn| {
            let lo = vaddr.max(vpn * ps);
            let hi = end.min((vpn + 1) * ps);
            (vpn, (hi - lo) as usize)
        })
    }

    /// Number of pages currently pinned (active + cached).
    pub fn pinned_page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages an outstanding operation still holds: every pinned page but
    /// the lazily cached ones.
    pub fn held_page_count(&self) -> usize {
        self.pages.len() - self.cached_lru.len()
    }

    /// Hold `[vaddr, vaddr+len)` of `task`: returns the pages newly pinned
    /// and those found pinned already.
    fn hold_bytes(&mut self, task: TaskId, vaddr: u64, len: usize) -> (usize, usize) {
        let (mut new_pages, mut hits) = (0usize, 0usize);
        for (vpn, n) in self.spans(vaddr, len) {
            match self.pages.get_mut(&(task, vpn)) {
                Some(PageState::Active { bytes }) => {
                    *bytes += n;
                    hits += 1;
                }
                Some(state @ PageState::Cached) => {
                    *state = PageState::Active { bytes: n };
                    self.cached_lru.retain(|k| k != &(task, vpn));
                    hits += 1;
                }
                None => {
                    self.pages
                        .insert((task, vpn), PageState::Active { bytes: n });
                    new_pages += 1;
                }
            }
        }
        (new_pages, hits)
    }

    /// Hold `[vaddr, vaddr+len)` for one more operation on pages a
    /// [`VmSystem::prepare`] has pinned: no Table 2 call, and the pages
    /// stay pinned until this hold is released too.
    pub fn hold(&mut self, task: TaskId, vaddr: u64, len: usize) {
        self.hold_bytes(task, vaddr, len);
    }

    /// Pin and map the pages backing `[vaddr, vaddr+len)` for a DMA
    /// operation, returning the CPU cost. With lazy unpinning, pages still
    /// cached from a previous operation cost only a lookup.
    pub fn prepare(&mut self, task: TaskId, vaddr: u64, len: usize) -> Dur {
        let (new_pages, hits) = self.hold_bytes(task, vaddr, len);
        let mut cost = Dur::ZERO;
        if new_pages > 0 {
            self.stats.pin_calls += 1;
            self.stats.map_calls += 1;
            self.stats.pages_pinned += new_pages as u64;
            self.stats.pages_mapped += new_pages as u64;
            let row = self.costs(new_pages);
            cost += row.pin + row.map;
        }
        if hits > 0 {
            self.stats.cache_hits += hits as u64;
            cost += self.cache_hit;
        }
        cost += self.enforce_limit_cost();
        cost
    }

    /// Release the held bytes `[vaddr, vaddr+len)` after the DMA
    /// completes; a page whose last held byte goes is released. Eager mode
    /// unpins immediately (Table 2 cost); lazy mode parks the pages in the
    /// cache for free and only pays when the pinned limit forces eviction.
    pub fn release(&mut self, task: TaskId, vaddr: u64, len: usize) -> Dur {
        self.release_ranges([(task, vaddr, len)])
    }

    /// [`VmSystem::release`] over several ranges in one call: the pages
    /// they free are unpinned together, at one Table 2 cost.
    pub fn release_ranges(
        &mut self,
        ranges: impl IntoIterator<Item = (TaskId, u64, usize)>,
    ) -> Dur {
        let mut released = 0usize;
        for (task, vaddr, len) in ranges {
            for (vpn, n) in self.spans(vaddr, len) {
                let Some(state) = self.pages.get_mut(&(task, vpn)) else {
                    continue;
                };
                let PageState::Active { bytes } = state else {
                    continue;
                };
                *bytes = bytes.saturating_sub(n);
                if *bytes > 0 {
                    continue;
                }
                if self.lazy {
                    *state = PageState::Cached;
                    self.cached_lru.push_back((task, vpn));
                } else {
                    self.pages.remove(&(task, vpn));
                }
                released += 1;
            }
        }
        let mut cost = Dur::ZERO;
        if released > 0 && !self.lazy {
            self.stats.unpin_calls += 1;
            self.stats.pages_unpinned += released as u64;
            cost += self.unpin_cost(released);
        }
        cost += self.enforce_limit_cost();
        cost
    }

    /// Evict cached pages beyond the pinned-page limit (LRU order).
    fn enforce_limit_cost(&mut self) -> Dur {
        let mut evicted = 0usize;
        while self.pages.len() > self.cfg.pinned_page_limit {
            let Some(victim) = self.cached_lru.pop_front() else {
                // Every page is actively referenced; nothing evictable.
                break;
            };
            self.pages.remove(&victim);
            evicted += 1;
        }
        if evicted > 0 {
            self.stats.evictions += evicted as u64;
            self.stats.unpin_calls += 1;
            self.stats.pages_unpinned += evicted as u64;
            self.unpin_cost(evicted)
        } else {
            Dur::ZERO
        }
    }

    /// Publish VM activity into a registry scope: pin/unpin/map call and
    /// page counts, the pinned-page cache hit rate (hits per page-prepare,
    /// the §4.4.1 reuse payoff), and current pinned pages against the limit.
    #[expect(clippy::float_arithmetic, reason = "report: the hit-rate ratio")]
    pub fn publish_metrics(&self, s: &mut Scope<'_>) {
        let st = &self.stats;
        s.counter("pin_calls", st.pin_calls);
        s.counter("pages_pinned", st.pages_pinned);
        s.counter("unpin_calls", st.unpin_calls);
        s.counter("pages_unpinned", st.pages_unpinned);
        s.counter("map_calls", st.map_calls);
        s.counter("pages_mapped", st.pages_mapped);
        s.counter("cache_hits", st.cache_hits);
        s.counter("evictions", st.evictions);
        let prepared = st.pages_pinned + st.cache_hits;
        let hit_rate = if prepared == 0 {
            0.0
        } else {
            st.cache_hits as f64 / prepared as f64
        };
        s.frac("cache_hit_rate", hit_rate);
        s.counter("pinned_pages", self.pinned_page_count() as u64);
        s.counter("pinned_page_limit", self.page_limit() as u64);
    }
}

#[cfg(test)]
impl VmSystem {
    /// Forget all pinned pages for a task (process exit).
    pub(crate) fn release_task(&mut self, task: TaskId) -> Dur {
        let before = self.pages.len();
        self.pages.retain(|(t, _), _| *t != task);
        self.cached_lru.retain(|(t, _)| *t != task);
        let n = before - self.pages.len();
        if n > 0 {
            self.stats.unpin_calls += 1;
            self.stats.pages_unpinned += n as u64;
            self.unpin_cost(n)
        } else {
            Dur::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(lazy: bool) -> VmSystem {
        VmSystem::new(MachineConfig::alpha_3000_400(), lazy)
    }

    /// Table 2 as the event path evaluated it per call, before the rows
    /// were compiled.
    fn reference(base_us: f64, per_page_us: f64, n: usize) -> Dur {
        if n == 0 {
            return Dur::ZERO;
        }
        Dur::from_micros_f64(base_us + per_page_us * n as f64)
    }

    /// Every page count a call can name up to 64 MB of 8 KB pages, on both
    /// machines, against the formula: the rows built at construction, the
    /// ones grown on first use, and counts past the table.
    #[test]
    fn table2_rows_match_the_formula_exhaustively() {
        for m in [
            MachineConfig::alpha_3000_400(),
            MachineConfig::alpha_3000_300lx(),
        ] {
            let mut v = VmSystem::new(m.clone(), false);
            assert_eq!(v.table2.len(), m.pinned_page_limit + 1);
            for n in (0..=8200).chain([100_000]) {
                assert_eq!(
                    v.pin_cost(n),
                    reference(m.pin_base_us, m.pin_per_page_us, n)
                );
                assert_eq!(
                    v.unpin_cost(n),
                    reference(m.unpin_base_us, m.unpin_per_page_us, n)
                );
                assert_eq!(
                    v.map_cost(n),
                    reference(m.map_base_us, m.map_per_page_us, n)
                );
            }
            assert_eq!(v.cache_hit, Dur::from_micros_f64(m.pin_cache_hit_us));
        }
    }

    #[test]
    fn table2_costs() {
        let mut v = sys(false);
        // Table 2 with n = 4 pages (one 32 KB aligned packet).
        assert!((v.pin_cost(4).as_micros_f64() - (35.0 + 29.0 * 4.0)).abs() < 1e-6);
        assert!((v.unpin_cost(4).as_micros_f64() - (48.0 + 3.9 * 4.0)).abs() < 1e-6);
        assert!((v.map_cost(4).as_micros_f64() - (6.0 + 4.5 * 4.0)).abs() < 1e-6);
        assert_eq!(v.pin_cost(0), Dur::ZERO);
    }

    #[test]
    fn eager_pin_release_cycle() {
        let mut v = sys(false);
        let t = TaskId(1);
        // 32 KB aligned at page 0: 4 pages.
        let prep = v.prepare(t, 0, 32 * 1024);
        let expect = v.pin_cost(4) + v.map_cost(4);
        assert_eq!(prep, expect);
        assert_eq!(v.pinned_page_count(), 4);
        let rel = v.release(t, 0, 32 * 1024);
        assert_eq!(rel, v.unpin_cost(4));
        assert_eq!(v.pinned_page_count(), 0);
        // Repeat: same full cost (no caching in eager mode).
        assert_eq!(v.prepare(t, 0, 32 * 1024), expect);
    }

    #[test]
    fn lazy_reuse_is_nearly_free() {
        let mut v = sys(true);
        let t = TaskId(1);
        let first = v.prepare(t, 0, 32 * 1024);
        assert_eq!(v.release(t, 0, 32 * 1024), Dur::ZERO, "lazy release free");
        let second = v.prepare(t, 0, 32 * 1024);
        assert!(
            second < first / 10,
            "cache hit {second:?} vs cold {first:?}"
        );
        assert_eq!(v.stats().cache_hits, 4);
        assert_eq!(v.stats().pages_unpinned, 0);
    }

    #[test]
    fn overlapping_ranges_refcount() {
        let mut v = sys(false);
        let t = TaskId(1);
        v.prepare(t, 0, 16 * 1024); // pages 0,1
        v.prepare(t, 8 * 1024, 16 * 1024); // pages 1,2: page1 refcounted
        assert_eq!(v.pinned_page_count(), 3);
        v.release(t, 0, 16 * 1024);
        // Page 1 still held by the second range.
        assert_eq!(v.pinned_page_count(), 2);
        v.release(t, 8 * 1024, 16 * 1024);
        assert_eq!(v.pinned_page_count(), 0);
    }

    /// A page counts held bytes, not calls: two chunks sharing a page
    /// and released as one range leave nothing pinned, a page released in
    /// halves stays pinned until the second, and a `hold` is free but
    /// keeps the page pinned past the release of what `prepare` pinned.
    #[test]
    fn holds_balance_under_any_partition() {
        let mut v = sys(false);
        let t = TaskId(1);
        v.prepare(t, 0, 5000);
        v.prepare(t, 5000, 5000);
        assert_eq!(v.release(t, 0, 10_000), v.unpin_cost(2));
        assert_eq!(v.held_page_count(), 0);
        v.prepare(t, 0, 8192);
        assert_eq!(v.release(t, 0, 4096), Dur::ZERO);
        assert_eq!(v.held_page_count(), 1, "half the page is still held");
        assert_eq!(v.release(t, 4096, 4096), v.unpin_cost(1));
        let pinned = v.stats();
        v.prepare(t, 0, 100);
        v.hold(t, 0, 100);
        assert_eq!(
            v.stats().pin_calls,
            pinned.pin_calls + 1,
            "a hold pins nothing"
        );
        assert_eq!(v.release(t, 0, 100), Dur::ZERO);
        assert_eq!(v.held_page_count(), 1);
        assert_eq!(v.release(t, 0, 100), v.unpin_cost(1));
        let ranges = [(t, 0, 100), (t, 3 * 8192, 100)];
        v.prepare(t, 0, 100);
        v.prepare(t, 3 * 8192, 100);
        assert_eq!(v.release_ranges(ranges), v.unpin_cost(2), "one call");
    }

    #[test]
    fn lazy_limit_evicts_lru() {
        let mut cfg = MachineConfig::alpha_3000_400();
        cfg.pinned_page_limit = 8;
        let mut v = VmSystem::new(cfg, true);
        let t = TaskId(1);
        // Touch 16 distinct pages one at a time; cache cannot exceed 8.
        for i in 0..16u64 {
            v.prepare(t, i * 8192, 8192);
            v.release(t, i * 8192, 8192);
            assert!(v.pinned_page_count() <= 8);
        }
        assert_eq!(v.stats().evictions, 8);
        // Oldest pages were evicted: re-preparing page 0 is a cold pin,
        // which also forces one LRU eviction to stay within the limit.
        let cold = v.prepare(t, 0, 8192);
        assert_eq!(cold, v.pin_cost(1) + v.map_cost(1) + v.unpin_cost(1));
        // Most recent page is still cached.
        let hot = v.prepare(t, 15 * 8192, 8192);
        assert!(hot < cold);
    }

    #[test]
    fn active_pages_are_never_evicted() {
        let mut cfg = MachineConfig::alpha_3000_400();
        cfg.pinned_page_limit = 2;
        let mut v = VmSystem::new(cfg, true);
        let t = TaskId(1);
        // Pin 4 pages actively (DMA outstanding on all of them).
        v.prepare(t, 0, 32 * 1024);
        assert_eq!(v.pinned_page_count(), 4, "limit cannot evict active pages");
        v.release(t, 0, 32 * 1024);
        assert!(
            v.pinned_page_count() <= 2,
            "released pages trimmed to limit"
        );
    }

    #[test]
    fn release_task_cleans_up() {
        let mut v = sys(true);
        let t = TaskId(1);
        v.prepare(t, 0, 64 * 1024);
        v.release(t, 0, 64 * 1024);
        assert!(v.pinned_page_count() > 0);
        v.release_task(t);
        assert_eq!(v.pinned_page_count(), 0);
    }

    #[test]
    fn empty_range_is_free() {
        let mut v = sys(false);
        assert_eq!(v.prepare(TaskId(1), 123, 0), Dur::ZERO);
        assert_eq!(v.release(TaskId(1), 123, 0), Dur::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Matched prepare/release sequences always drain active pages, and
        /// the pinned count never exceeds limit + active pages.
        #[test]
        fn refcounts_balance(ops in proptest::collection::vec((0u64..32, 1usize..65536), 1..40),
                             lazy in any::<bool>()) {
            let mut v = VmSystem::new(MachineConfig::alpha_3000_400(), lazy);
            let t = TaskId(1);
            for &(page, len) in &ops {
                v.prepare(t, page * 8192, len);
            }
            for &(page, len) in &ops {
                v.release(t, page * 8192, len);
            }
            if lazy {
                prop_assert!(v.pinned_page_count() <= v.page_limit());
            } else {
                prop_assert_eq!(v.pinned_page_count(), 0);
            }
        }
    }
}
