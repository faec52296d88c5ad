//! Property tests for the log-linear histogram: quantile error bounds
//! against an exact sorted-vector oracle, and shard-merge equivalence.

use proptest::prelude::*;
use smartwatch_telemetry::{HistSnapshot, Histogram, QUANTILE_ERROR_BOUND};

/// Exact quantile by sorting (the oracle the histogram approximates).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn snapshot_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantiles_within_relative_error(
        values in prop::collection::vec(0u64..1_000_000_000, 1..400),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let approx = h.quantile(q);
        // The histogram reports a bucket upper bound clamped to the
        // observed range: never below the exact quantile's bucket low,
        // never more than one sub-bucket above the exact value.
        let upper = exact as f64 * (1.0 + QUANTILE_ERROR_BOUND) + 1.0;
        prop_assert!(
            (approx as f64) <= upper,
            "q={q} approx={approx} exact={exact} upper={upper}"
        );
        // Lower side: approx is >= the value one error-bound below exact.
        let lower = exact as f64 * (1.0 - QUANTILE_ERROR_BOUND) - 1.0;
        prop_assert!(
            (approx as f64) >= lower,
            "q={q} approx={approx} exact={exact} lower={lower}"
        );
    }

    #[test]
    fn count_sum_min_max_are_exact(
        values in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let s = snapshot_of(&values);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        prop_assert_eq!(s.min, *values.iter().min().unwrap());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
    }

    #[test]
    fn merge_equals_recording_everything(
        left in prop::collection::vec(0u64..1_000_000_000, 0..200),
        right in prop::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let a = Histogram::new();
        for &v in &left {
            a.record(v);
        }
        let b = Histogram::new();
        for &v in &right {
            b.record(v);
        }
        a.merge_from(&b);
        let mut all = left.clone();
        all.extend_from_slice(&right);
        prop_assert_eq!(a.snapshot(), snapshot_of(&all));
    }
}
