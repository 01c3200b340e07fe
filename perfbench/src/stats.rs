//! Order statistics for reported timings.
//!
//! A timing is reported as a median plus the highest percentile that has at
//! least [`MIN_BEYOND`] samples beyond it, together with its sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the rule picks from, highest first: the usual reporting
/// percentiles, plus p75 for classes with tens of samples.
const CANDIDATES: [f64; 5] = [0.999, 0.99, 0.9, 0.75, 0.5];

/// Sorts a copy of `samples` ascending (NaN sorts last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The nearest-rank `q` quantile of ascending `sorted` samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Quantile `q` of a cumulative histogram given as `(upper bound, count at
/// or below it)` pairs in ascending bound order, interpolated linearly inside
/// the bucket that holds it. `None` when the histogram is empty.
pub fn bucket_quantile(cumulative: &[(f64, u64)], q: f64) -> Option<f64> {
    let total = cumulative.last()?.1;
    if total == 0 {
        return None;
    }
    let want = q * total as f64;
    let mut prev = (0.0, 0u64);
    for &(le, count) in cumulative {
        if count as f64 >= want && count > prev.1 {
            let frac = (want - prev.1 as f64) / (count - prev.1) as f64;
            let hi = if le.is_finite() { le } else { prev.0 };
            return Some(prev.0 + frac.clamp(0.0, 1.0) * (hi - prev.0));
        }
        prev = (le, count);
    }
    Some(prev.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.75));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(100, 0.9), 10);
    }

    #[test]
    fn median_of_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let h = [(0.001, 0), (0.002, 50), (0.004, 100), (f64::INFINITY, 100)];
        assert!((bucket_quantile(&h, 0.5).unwrap() - 0.002).abs() < 1e-12);
        assert!((bucket_quantile(&h, 0.75).unwrap() - 0.003).abs() < 1e-12);
        assert_eq!(bucket_quantile(&[(0.1, 0)], 0.5), None);
    }
}
