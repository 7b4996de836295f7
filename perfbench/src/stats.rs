//! Summary statistics for latency samples and replayed timings.

/// Percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank value at percentile `pct` (0–100) of ascending `sorted`.
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples; the
/// epsilon keeps `99.9 × 10 000 / 100` from rounding up past 9 990.
fn rank(n: usize, pct: f64) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The highest percentile of [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] samples strictly beyond its rank, and its value; `None`
/// when even the 90th has fewer (fewer than 100 samples).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let r = rank(n, pct);
        (r >= 1 && n - r >= MIN_BEYOND).then(|| (pct, sorted[r - 1]))
    })
}

/// Arithmetic mean (0 for no values).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 10 000 samples: 99.9 has exactly 10 beyond it.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9_990.0)));
        // 9 999 samples: 99.9's rank is 9 990, leaving only 9 beyond.
        assert_eq!(tail(&ramp(9_999)), Some((99.0, 9_900.0)));
        // 5 000 samples: 99.9 leaves 5, 99 leaves 50.
        assert_eq!(tail(&ramp(5_000)), Some((99.0, 4_950.0)));
        // 1 000 samples: 99 leaves exactly 10.
        assert_eq!(tail(&ramp(1_000)), Some((99.0, 990.0)));
        // 999 samples: 99 leaves 9, so the tail drops to 95.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 100 samples: only the 90th has 10 beyond it.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(4);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn sorted_orders_ascending() {
        assert_eq!(sorted([3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
