//! The statistics every reported number goes through.
//!
//! The sandbox this benchmark was sized on flips between a fast and a
//! slow phase for seconds at a time (neighbour interference slows a
//! segment, nothing ever speeds one up), so a mean or a median over
//! segments follows the machine rather than the program. Throughput is
//! therefore reported from the *fast* end of the segment distribution
//! ([`best_mean`]) and everything else as a median.

/// How many of the fastest segments [`best_mean`] averages.
pub const BEST: usize = 5;

/// Mean of the [`BEST`] largest values (of all of them when fewer).
/// `0.0` for an empty slice.
pub fn best_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.truncate(BEST);
    mean(&v)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the two middle values for an even count); `0.0` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so the spread printed here is the spread the acceptance
/// script measures. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        // Position k·(n+1)/4 in 1-based order statistics, clamped so
        // the interpolation stays inside the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; `0.0` when
/// it is undefined (fewer than two values or a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: u64 = 10;

/// Whether a distribution of `count` samples supports the percentile
/// `per_mille` (500 = median, 990 = p99): at least [`TAIL_SAMPLES`]
/// samples lie beyond it.
pub fn supports_percentile(count: u64, per_mille: u64) -> bool {
    count.saturating_mul(1000 - per_mille.min(1000)) >= TAIL_SAMPLES * 1000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_mean_takes_the_five_largest() {
        let v = [1.0, 9.0, 3.0, 8.0, 7.0, 2.0, 6.0, 5.0];
        assert_eq!(best_mean(&v), (9.0 + 8.0 + 7.0 + 6.0 + 5.0) / 5.0);
        assert_eq!(best_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(best_mean(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(supports_percentile(1000, 990));
        assert!(!supports_percentile(999, 990), "9.99 samples beyond");
        assert!(supports_percentile(100, 900) && !supports_percentile(99, 900));
        assert!(supports_percentile(20, 500) && !supports_percentile(19, 500));
    }
}
