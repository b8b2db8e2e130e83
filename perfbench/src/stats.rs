//! Exact order statistics over sorted samples.
//!
//! Tails are read from the samples themselves, never from a bucketed
//! histogram: a percentile is the nearest-rank sample, and a percentile
//! is "supported" only when at least [`MIN_BEYOND`] samples lie beyond
//! it, so every reported tail rests on at least that many observations.

/// Samples that must lie strictly beyond a percentile for it to count as
/// measured rather than extrapolated.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 7] = [0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.75];

/// Zero-based index of the nearest-rank `p` percentile of `n` samples
/// (`ceil(p·n)`-th smallest).
fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    // the epsilon keeps 0.95 · 100 from rounding up to rank 96
    let rank = ((p * n as f64) - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The nearest-rank `p` percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// The median (lower median for even counts, as nearest-rank gives it).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Does a sample of `n` have at least [`MIN_BEYOND`] values beyond its
/// `p` percentile?
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank_index(n, p) >= MIN_BEYOND
}

/// The highest [`LADDER`] percentile a sample of `n` supports.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| supports(n, p))
}

/// The tail a workload reports: its fixed `target` percentile when the
/// sample supports it, else the highest supported one, else the median.
/// Returns `(percentile used, value)`.
pub fn tail(sorted: &[f64], target: f64) -> (f64, f64) {
    let p = if supports(sorted.len(), target) {
        target
    } else {
        highest_supported(sorted.len())
            .filter(|&p| p < target)
            .unwrap_or(0.5)
    };
    (p, percentile(sorted, p))
}

/// Sorts a sample in place (ascending; samples are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of an unsorted sample; 0 for an empty one (a layer no
/// request reached).
pub fn median_or_zero(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(&sorted(v))
    }
}

/// [`tail`]'s value for an unsorted sample; 0 for an empty one.
pub fn tail_or_zero(v: Vec<f64>, target: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        tail(&sorted(v), target).1
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computation() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        // ceil(0.5 · 5) = 3rd smallest
        assert_eq!(median(&[1.0, 2.0, 7.0, 9.0, 30.0]), 7.0);
        // even count: the lower median
        assert_eq!(median(&[1.0, 2.0, 7.0, 9.0]), 2.0);
        assert_eq!(median(&[42.0]), 42.0);
        // ceil(0.9 · 7) = ceil(6.3) = 7th smallest
        assert_eq!(percentile(&one_to(7), 0.9), 7.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        // p90 of 100: rank 90, ten beyond
        assert!(supports(100, 0.9));
        // p95 of 100: rank 95, five beyond
        assert!(!supports(100, 0.95));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(2000), Some(0.995));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(9_999), Some(0.995));
        // p75 of 40: rank 30, ten beyond
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(39), None);
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn tail_falls_back_below_an_unsupported_target() {
        let s = one_to(1000);
        assert_eq!(tail(&s, 0.99), (0.99, 990.0));
        // p99.9 of 1000 has one sample beyond: fall back to p99
        assert_eq!(tail(&s, 0.999), (0.99, 990.0));
        // too few samples for any ladder rung: the median
        assert_eq!(tail(&one_to(20), 0.95), (0.5, 10.0));
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
