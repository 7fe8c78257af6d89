//! Order statistics: medians, the tail percentile a sample supports,
//! and the quartile spread the driver judges steadiness by.
//!
//! Percentiles themselves come from [`sitm_serve::percentile`]
//! (exact nearest-rank over sorted samples).

/// Median of `values`; the mean of the middle pair for an even count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&as_f64)
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at
/// least ten of `samples` beyond it; `None` below 20 samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| samples >= 10 * one_in)
    .map(|(p, _)| p)
}

/// The three cut points of `statistics.quantiles(values, n=4)` in
/// Python (its default, exclusive method), which is what the driver
/// computes.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
    let (n, ld) = (4usize, data.len());
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_segments_takes_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_u64(&[7]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30], n=4) extrapolates outward.
        assert_eq!(quartiles(&[30.0, 10.0]), [5.0, 20.0, 35.0]);
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
