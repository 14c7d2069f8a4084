//! Order statistics for call timings.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as resolved (choosing-metrics: "the highest percentile that
/// has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Median of a sample: the middle value, or the mean of the middle pair
/// when the count is even. `NaN` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `pct`
/// percent of the samples are at or below it (`pct` in 1..=100). `NaN`
/// for an empty sample.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!((1..=100).contains(&pct), "percentile must be in 1..=100");
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// Whether `n` samples resolve the `pct` percentile: at least
/// [`MIN_BEYOND`] samples lie beyond its nearest rank. For p99 that
/// needs `n >= 1000`.
pub fn resolves(n: usize, pct: usize) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 100), 1000.0);
        // Few samples: p99 falls on the largest one.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 99), 5.0);
        assert_eq!(percentile(&[7.0], 1), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(resolves(1000, 99));
        assert!(!resolves(999, 99));
        assert!(!resolves(4, 99));
        assert!(!resolves(0, 99));
        // The median resolves early.
        assert!(resolves(21, 50));
        assert!(!resolves(19, 50));
    }
}
