//! Differential property test: [`IdTable`] must be observationally
//! identical to a `BTreeMap<u64, T>` under arbitrary interleavings of
//! insert / remove / get / get_mut / drain — same answers, same length, same
//! ascending-id iteration order after every step.
//!
//! Ids are drawn the way the simulator issues them (a counter that only
//! goes up), plus the shapes where a slot table could plausibly go wrong:
//! ids registered late (below the first live id), ids that leave a gap,
//! stale ids below the trimmed front, ids past the end, a long-lived low id
//! that pins the front while everything above it churns, and a long-lived
//! id in the middle of a live band under a newest id that is inserted and
//! removed at once (the freed tail the table keeps).

use outboard_sim::IdTable;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert under the next id in sequence.
    Issue,
    /// Insert under the next id in sequence and remove it at once.
    Churn,
    /// Insert under an id picked relative to the live range (overwrites,
    /// gaps, ids below the front).
    InsertNear(u64),
    /// Remove the `n`-th live id (mod len).
    RemoveLive(u64),
    /// Remove an id picked relative to the live range (mostly dead ids).
    RemoveNear(u64),
    /// Look an id up both ways; `get_mut` bumps the value on both sides.
    Probe(u64),
    /// Drain and compare the whole sequence.
    Drain,
    /// Drop everything.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u64>()).prop_map(|(kind, raw)| match kind % 16 {
        0..=4 => Op::Issue,
        5 => Op::InsertNear(raw),
        6..=9 => Op::RemoveLive(raw),
        10 => Op::RemoveNear(raw),
        11..=13 => Op::Probe(raw),
        14 => Op::Drain,
        _ => Op::Clear,
    })
}

/// Mostly insert-newest / remove-newest rounds, with enough other traffic
/// to move the front and reuse freed tail slots.
fn churn_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u64>()).prop_map(|(kind, raw)| match kind % 16 {
        0..=8 => Op::Churn,
        9 => Op::Issue,
        10..=11 => Op::RemoveLive(raw),
        12 => Op::InsertNear(raw),
        13 => Op::RemoveNear(raw),
        _ => Op::Probe(raw),
    })
}

/// An id within 8 of the model's live range on either side (or of `next`
/// when nothing is live): covers stale ids below the front, gaps inside,
/// and ids past the end.
fn near(model: &BTreeMap<u64, u32>, next: u64, raw: u64) -> u64 {
    let lo = model.keys().next().copied().unwrap_or(next);
    let hi = model.keys().next_back().copied().unwrap_or(next);
    let span = hi - lo + 17;
    (lo + raw % span).saturating_sub(8)
}

fn check_same(table: &IdTable<u32>, model: &BTreeMap<u64, u32>) {
    assert_eq!(table.len(), model.len());
    assert_eq!(table.is_empty(), model.is_empty());
    let got: Vec<(u64, u32)> = table.iter().map(|(k, v)| (k, *v)).collect();
    let want: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "iteration order and contents");
    let vals: Vec<u32> = table.values().copied().collect();
    assert_eq!(vals, model.values().copied().collect::<Vec<_>>());
}

/// Run `ops` against both maps. Ids `1..=band` are inserted first, and the
/// random removes never take `pinned`: the front cannot trim past it.
fn run_differential(ops: Vec<Op>, band: u64, pinned: Option<u64>) {
    let mut table: IdTable<u32> = IdTable::new();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let mut next = 1u64;
    let mut stamp = 0u32;
    while next <= band {
        assert_eq!(table.insert(next, 7), None);
        model.insert(next, 7);
        next += 1;
    }
    let keep = |id: u64| pinned == Some(id);
    for op in ops {
        stamp += 1;
        match op {
            Op::Issue => {
                assert_eq!(table.insert(next, stamp), model.insert(next, stamp));
                next += 1;
            }
            Op::Churn => {
                assert_eq!(table.insert(next, stamp), None);
                assert_eq!(table.get(next), Some(&stamp));
                assert_eq!(table.remove(next), Some(stamp));
                next += 1;
            }
            Op::InsertNear(raw) => {
                let id = near(&model, next, raw);
                assert_eq!(table.insert(id, stamp), model.insert(id, stamp));
                next = next.max(id + 1);
            }
            Op::RemoveLive(raw) => {
                if !model.is_empty() {
                    let id = *model
                        .keys()
                        .nth((raw % model.len() as u64) as usize)
                        .unwrap();
                    if !keep(id) {
                        assert_eq!(table.remove(id), model.remove(&id));
                    }
                }
            }
            Op::RemoveNear(raw) => {
                let id = near(&model, next, raw);
                if !keep(id) {
                    assert_eq!(table.remove(id), model.remove(&id));
                }
            }
            Op::Probe(raw) => {
                let id = near(&model, next, raw);
                assert_eq!(table.get(id), model.get(&id));
                assert_eq!(table.contains(id), model.contains_key(&id));
                if let Some(v) = table.get_mut(id) {
                    *v += 1;
                }
                if let Some(v) = model.get_mut(&id) {
                    *v += 1;
                }
                assert_eq!(table.get(id), model.get(&id));
            }
            Op::Drain => {
                let got: Vec<(u64, u32)> = table.drain().collect();
                let want: Vec<(u64, u32)> = std::mem::take(&mut model).into_iter().collect();
                assert_eq!(got, want, "drain is in ascending id order");
            }
            Op::Clear => {
                table.clear();
                model.clear();
            }
        }
        check_same(&table, &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn idtable_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_differential(ops, 0, None);
    }

    #[test]
    fn idtable_matches_btreemap_with_pinned_low_id(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_differential(ops, 1, Some(1));
    }

    #[test]
    fn idtable_matches_btreemap_under_newest_id_churn(ops in proptest::collection::vec(churn_strategy(), 1..300)) {
        run_differential(ops, 64, Some(32));
    }
}

/// The ids the kernel actually feeds it: `From` conversions of newtype ids,
/// dead ids on both sides reading as `None`.
#[test]
fn stale_and_future_ids_read_as_none() {
    let mut t: IdTable<&str> = IdTable::new();
    for id in 10u64..20 {
        t.insert(id, "x");
    }
    for id in 10u64..15 {
        assert_eq!(t.remove(id), Some("x"));
    }
    // Below the trimmed front, past the end, and far past the end.
    for id in [0u64, 9, 12, 14, 20, 21, u64::MAX] {
        assert_eq!(t.get(id), None, "id {id}");
        assert_eq!(t.get_mut(id), None, "id {id}");
        assert_eq!(t.remove(id), None, "id {id}");
        assert!(!t.contains(id));
    }
    assert_eq!(t.len(), 5);
    assert_eq!(
        t.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        [15, 16, 17, 18, 19]
    );
    // A u32 newtype-style key converts through `Into<u64>`.
    assert_eq!(t.get(15u32), Some(&"x"));
}
