//! Percentiles, medians and the quartile spread the noise table reports.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1). Empty
/// input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The small
/// slack keeps products such as 0.999 × 10 000, which are not exact in
/// binary, from rounding up to the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of the usual tail percentiles that still has
/// [`MIN_BEYOND`] samples beyond it (`None` below 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Sort ascending (total order; the harness never produces NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median; the mean of the middle pair for an even count. Empty reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 10 000 queries: exactly ten lie beyond p99.9, one beyond p99.99.
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(10_000, 0.9999), 1);
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        // 8 000: p99.9 has only eight beyond, so p99 is the honest tail.
        assert_eq!(samples_beyond(8_000, 0.999), 8);
        assert_eq!(highest_supported_percentile(8_000), Some(0.99));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // one slow repetition does not move the reported value
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.0, 55.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
