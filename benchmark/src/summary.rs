//! Sample summaries: medians and the high percentile the sample supports.

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of this ladder that still has at least ten
/// samples beyond it, and the sample value there. Falls back to the median
/// when the sample is too small for any higher one.
pub fn high_percentile(samples: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let n = samples.len() as f64;
    let pct = LADDER
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    if pct == 50.0 {
        return (pct, median(samples));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((pct / 100.0) * n).ceil() as usize;
    (pct, v[idx.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(high_percentile(&few).0, 50.0);
        let some: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(high_percentile(&some), (75.0, 30.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(high_percentile(&many), (99.0, 990.0));
    }
}
