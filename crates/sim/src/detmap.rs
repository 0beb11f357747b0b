//! Keyed lookup tables for keys the simulation itself configures.
//!
//! Demux tables, ARP caches, per-task regions and pinned-page state are all
//! reached by key on every event and never walked in an order that could
//! feed the event stream. [`DetMap`] makes that a property of the type: it
//! wraps a `HashMap` and exposes lookup, insert, remove and an
//! order-blind `retain` — **no** `iter` / `keys` / `values` / `drain` /
//! `IntoIterator` — so hash order cannot leak into a run however the map
//! is used.
//!
//! With iteration gone the hasher needs no per-process seed, and with keys
//! that come from the simulation's own configuration (addresses, ports,
//! task ids, page numbers) it needs no resistance to crafted collisions
//! either: the hasher is a fixed-key, word-at-a-time
//! rotate-xor-multiply, a few cycles per key where SipHash spends dozens.
//! Do not put keys from outside the program in one.

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Odd multiplier (FxHash's, from the digits of pi): a multiply by it
/// carries every input bit into the bits above it.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The fixed-key hasher behind [`DetMap`] (see the module docs).
#[derive(Clone, Copy, Default)]
struct DetHasher(u64);

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    /// A multiply moves entropy upwards only, so keys that differ in high
    /// bits alone — or by an aligned stride, like the page numbers of
    /// buffers spaced 64 KB apart — agree in the low bits of the state, and
    /// the low bits are where the table takes its bucket from. Fold the
    /// high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for w in words {
            self.mix(u64::from_le_bytes(*w));
        }
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "DetMap exposes no iteration and `retain` takes an `Fn`, so hash order cannot leak"
)]
type Table<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// A hash map with keyed access only (see the module docs).
pub struct DetMap<K, V> {
    map: Table<K, V>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K, V> fmt::Debug for DetMap<K, V> {
    /// The length only: entries would print in hash order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetMap")
            .field("len", &self.map.len())
            .finish()
    }
}

impl<K, V> DetMap<K, V> {
    /// An empty map.
    pub fn new() -> DetMap<K, V> {
        DetMap {
            map: Table::default(),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<K: Eq + Hash, V> DetMap<K, V> {
    /// The value for `key`, if any.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Mutable access to the value for `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// True when `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Store `value` under `key`; returns the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Remove and return the value for `key`.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key)
    }

    /// The value for `key`, made by `make` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(make)
    }

    /// Keep the entries `keep` accepts. It is an `Fn` over shared
    /// references: it can carry no state from one entry to the next, so the
    /// result does not depend on the order the entries are visited in.
    pub fn retain(&mut self, keep: impl Fn(&K, &V) -> bool) {
        self.map.retain(|k, v| keep(k, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg32;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt::Debug;
    use std::hash::BuildHasher;

    fn hash_of<T: Hash>(key: &T) -> u64 {
        let mut h = DetHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Distinct bucket indices (the low 12 bits a 4 096-bucket table reads)
    /// the keys fall into.
    fn buckets<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.map(|k| hash_of(&k) & 4095)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Structured keys must spread over a table's buckets about as well as
    /// random ones do. Without the fold in `finish`, page numbers that are
    /// multiples of 8 reach 512 of 4 096 buckets and keys that differ only
    /// above bit 32 reach one.
    #[test]
    fn aligned_and_high_bit_keys_spread_like_random_ones() {
        let mut rng = Pcg32::new(7);
        let random = buckets((0..4096).map(|_| (rng.next_u32(), rng.next_u64())));
        let floor = random * 9 / 10;

        let pages = buckets((0..4096u64).map(|i| ((i % 16) as u32, (i / 16) * 8)));
        assert!(pages >= floor, "(task, vpn) stride 8: {pages} < {floor}");
        let one_task = buckets((0..4096u64).map(|i| (3u32, i * 8)));
        assert!(
            one_task >= floor,
            "one task, stride 8: {one_task} < {floor}"
        );
        let high = buckets((0..4096u64).map(|i| i << 32));
        assert!(high >= floor, "bits above 32 only: {high} < {floor}");
    }

    /// No per-process or per-map seed: the same key hashes to the same value
    /// in every map, so two maps built the same way are laid out the same.
    #[test]
    fn hashing_has_no_seed() {
        let a: DetMap<(u32, u64), u32> = DetMap::new();
        let b: DetMap<(u32, u64), u32> = DetMap::new();
        for key in [(0u32, 0u64), (1, 8), (u32::MAX, u64::MAX), (7, 1 << 40)] {
            assert_eq!(a.map.hasher().hash_one(key), b.map.hasher().hash_one(key));
            assert_eq!(a.map.hasher().hash_one(key), hash_of(&key));
        }
        // Pinned values: a change of algorithm is a deliberate act.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), K ^ (K >> 32));
        // Byte strings hash by 8-byte little-endian words, the tail
        // zero-padded.
        let mut by_bytes = DetHasher::default();
        by_bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]);
        let mut by_words = DetHasher::default();
        by_words.write_u64(1);
        by_words.write_u64(2);
        assert_eq!(by_bytes.finish(), by_words.finish());
    }

    #[test]
    fn debug_prints_the_length_only() {
        let mut m = DetMap::new();
        m.insert(5u64, "five");
        m.insert(6u64, "six");
        assert_eq!(format!("{m:?}"), "DetMap { len: 2 }");
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Proto {
        Tcp,
        Udp,
        Raw,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Addr {
        ip: [u8; 4],
        port: u16,
    }

    /// The `(Proto, SockAddr, SockAddr)` shape of the connection table.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct ConnKey {
        proto: Proto,
        local: Addr,
        remote: Addr,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Probe(u64),
        GetOrInsert(u64, u32),
        /// Keep entries whose value is not a multiple of the divisor.
        Retain(u32),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op =
            (any::<u8>(), any::<u64>(), any::<u32>()).prop_map(|(kind, k, v)| match kind % 16 {
                0..=4 => Op::Insert(k, v),
                5..=7 => Op::Remove(k),
                8..=11 => Op::Probe(k),
                12..=14 => Op::GetOrInsert(k, v),
                _ => Op::Retain(v % 5 + 2),
            });
        proptest::collection::vec(op, 1..300)
    }

    /// Run `ops` against a `DetMap` and a `BTreeMap`, keys drawn from a
    /// small set (`key_of` folds the raw draw) so that operations collide.
    fn differential<K: Copy + Debug + Ord + Hash>(ops: Vec<Op>, key_of: impl Fn(u64) -> K) {
        let mut map: DetMap<K, u32> = DetMap::new();
        let mut model: BTreeMap<K, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let k = key_of(k);
                    assert_eq!(map.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    let k = key_of(k);
                    assert_eq!(map.remove(&k), model.remove(&k));
                }
                Op::Probe(k) => {
                    let k = key_of(k);
                    assert_eq!(map.get(&k), model.get(&k));
                    assert_eq!(map.contains_key(&k), model.contains_key(&k));
                    if let Some(v) = map.get_mut(&k) {
                        *v = v.wrapping_add(1);
                    }
                    if let Some(v) = model.get_mut(&k) {
                        *v = v.wrapping_add(1);
                    }
                    assert_eq!(map.get(&k), model.get(&k));
                }
                Op::GetOrInsert(k, v) => {
                    let k = key_of(k);
                    let got = map.get_or_insert_with(k, || v);
                    let want = model.entry(k).or_insert(v);
                    assert_eq!(got, want);
                    *got ^= 1;
                    *want ^= 1;
                }
                Op::Retain(d) => {
                    map.retain(|_, v| v % d != 0);
                    model.retain(|_, v| *v % d != 0);
                }
            }
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
        }
        // No iteration API: compare by probing every key the model holds
        // (the lengths already agree).
        for (k, v) in &model {
            assert_eq!(map.get(k), Some(v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn detmap_matches_btreemap_u64(ops in ops()) {
            // Sixty-four keys, 2^32 apart and 8-aligned: the shapes the fold
            // exists for.
            differential(ops, |k| ((k % 64) << 32) | ((k % 64) * 8));
        }

        #[test]
        fn detmap_matches_btreemap_task_page(ops in ops()) {
            differential(ops, |k| ((k % 4) as u32, (k >> 8) % 16 * 8));
        }

        #[test]
        fn detmap_matches_btreemap_conn_key(ops in ops()) {
            differential(ops, |k| ConnKey {
                proto: [Proto::Tcp, Proto::Udp, Proto::Raw][(k % 3) as usize],
                local: Addr { ip: [10, 0, 0, (k >> 8) as u8 % 4], port: 5001 },
                remote: Addr { ip: [10, 0, 1, 1], port: 1024 + ((k >> 16) % 8) as u16 },
            });
        }
    }
}
