//! The widened checksum inner loop against the scalar reference: past 4 GB
//! of accumulated length and on arbitrary split boundaries. (The root
//! `Cargo.toml` keeps this crate at `opt-level = 2` under the dev profile,
//! so the gigabytes summed here take about a second.)

use outboard_wire::checksum::Accumulator;
use proptest::prelude::*;

/// Satellite regression: the lazy overflow fold must survive > 4 GB of
/// accumulated data (the old eager guard folded per call; the new one
/// folds only near the u64 boundary — and the 16-bit result must still
/// be exact). 0xFF bytes are the worst case: every lane adds the maximum.
#[test]
fn checksum_survives_4gb_accumulated_length() {
    let block = vec![0xFFu8; 8 * 1024 * 1024];
    let mut acc = Accumulator::new();
    let adds = 513; // 513 * 8 MiB = 4.008 GiB > 4 GiB
    for _ in 0..adds {
        acc.add_bytes(&block);
    }
    assert_eq!(acc.len(), adds * block.len());
    // All-ones data sums to the all-ones partial regardless of length.
    assert_eq!(acc.partial(), 0xFFFF);
}

/// The >4 GB path with mixed data and odd splits: wide and scalar agree.
#[test]
fn checksum_wide_matches_scalar_past_4gb() {
    let block: Vec<u8> = (0..(8 * 1024 * 1024 + 1))
        .map(|i| (i * 131 + 17) as u8)
        .collect();
    let mut wide = Accumulator::new();
    let mut scalar = Accumulator::new();
    for _ in 0..513 {
        wide.add_bytes(&block);
        scalar.add_bytes_scalar(&block);
    }
    assert_eq!(wide.len(), scalar.len());
    assert!(wide.len() > 4 * 1024 * 1024 * 1024usize);
    assert_eq!(wide.partial(), scalar.partial());
}

proptest! {
    /// Wide-lane checksum == scalar reference for arbitrary data fed as
    /// arbitrary split boundaries (odd-byte carries cross call edges).
    #[test]
    fn wide_equals_scalar_on_arbitrary_splits(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(0usize..2048, 0..8),
    ) {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        bounds.push(0);
        bounds.push(data.len());
        bounds.sort_unstable();
        let mut wide = Accumulator::new();
        let mut scalar = Accumulator::new();
        for w in bounds.windows(2) {
            wide.add_bytes(&data[w[0]..w[1]]);
            scalar.add_bytes_scalar(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(wide.partial(), scalar.partial());
        prop_assert_eq!(wide.len(), data.len());
        prop_assert_eq!(scalar.len(), data.len());
    }
}
