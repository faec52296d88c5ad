//! Log-linear (HDR-style) histogram with lock-free recording.
//!
//! Values are bucketed by a 5-bit mantissa under the leading one: the
//! first 32 buckets are exact (width 1), and every later power-of-two
//! range is split into 32 sub-buckets. A bucket at magnitude `2^e` has
//! width `2^(e-5)`, so any reported quantile overstates the true value by
//! at most a factor of `1/32` (= [`QUANTILE_ERROR_BOUND`]) — and is
//! additionally clamped to the observed min/max, which makes degenerate
//! distributions exact.
//!
//! Recording is a relaxed `fetch_add` on one bucket plus the count/sum
//! cells — safe from any number of threads, never blocking. Histograms
//! merge bucket-wise, so per-thread shards can be combined into one
//! distribution with no loss beyond the shared bucketing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32 sub-buckets per power of two
const GROUPS: usize = 64 - SUB_BITS as usize; // magnitudes 2^5 ..= 2^63
const BUCKETS: usize = SUB + GROUPS * SUB;

/// Worst-case relative overestimate of any quantile: one sub-bucket width.
pub const QUANTILE_ERROR_BOUND: f64 = 1.0 / SUB as f64;

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let g = (e - SUB_BITS) as usize;
        let s = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + g * SUB + s
    }
}

/// Largest value mapping to bucket `idx` (the reported representative).
fn bucket_high(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let g = (idx - SUB) / SUB;
        let s = ((idx - SUB) % SUB) as u64;
        let low = (SUB as u64 + s) << g;
        low + ((1u64 << g) - 1)
    }
}

struct Core {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Core {
    /// Widen `[min, max]` to cover `[lo, hi]`. The extremes rarely move,
    /// and an atomic min/max is a compare-exchange loop that costs its
    /// locked write even when it changes nothing — so look first.
    fn extremes(&self, lo: u64, hi: u64) {
        if lo < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(lo, Ordering::Relaxed);
        }
        if hi > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(hi, Ordering::Relaxed);
        }
    }
}

/// A shareable, lock-free latency/size distribution.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, p50={})",
            self.count(),
            self.quantile(0.5)
        )
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(Core {
                buckets: buckets.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.extremes(v, v);
    }

    /// Record a slice of values in one pass, amortizing the aggregate
    /// cells: count/sum/min/max are folded locally and touched with one
    /// atomic each, so `n` samples cost `n + 4` atomic adds instead of
    /// `5n`.
    pub fn record_all(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let c = &self.core;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &v in values {
            c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        c.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        c.sum.fetch_add(sum, Ordering::Relaxed);
        c.extremes(min, max);
    }

    /// Record a virtual-clock duration in nanoseconds.
    pub fn record_dur(&self, d: smartwatch_net::Dur) {
        self.record(d.as_nanos());
    }

    /// Fold every sample of `other` into `self` (bucket-wise; loses
    /// nothing beyond the shared bucketing).
    pub fn merge_from(&self, other: &Histogram) {
        let (a, b) = (&self.core, &other.core);
        for (dst, src) in a.buckets.iter().zip(b.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count
            .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum
            .fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min
            .fetch_min(b.min.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max
            .fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        let m = self.core.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The value at quantile `q` (in `[0, 1]`), overestimating by at most
    /// [`QUANTILE_ERROR_BOUND`] relative error and clamped to the
    /// observed min/max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-th value, 1-based; q=0 maps to the first value.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.core.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_high(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Immutable point-in-time summary (used by the exporters).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// Point-in-time histogram summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_bounds() {
        for v in (0..64).chain([100, 1000, 65_535, 1 << 20, u64::MAX / 3, u64::MAX]) {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "high {high} < v {v}");
            // Relative error bound: high <= v * (1 + 1/32) for v >= 32.
            if v >= SUB as u64 {
                let bound = v as f64 * (1.0 + QUANTILE_ERROR_BOUND);
                assert!(high as f64 <= bound, "v={v} high={high} bound={bound}");
            } else {
                assert_eq!(high, v, "linear region must be exact");
            }
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_in_linear_region() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.mean(), 5.5);
    }

    #[test]
    fn degenerate_distribution_is_exact() {
        let h = Histogram::new();
        h.record_all(&[123_456_789; 1000]);
        assert_eq!(h.quantile(0.5), 123_456_789);
        assert_eq!(h.quantile(0.999), 123_456_789);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn record_all_equals_repeated_record() {
        let bulk = Histogram::new();
        let scalar = Histogram::new();
        let values: Vec<u64> = (0..2000u64).map(|i| i * i % 7919).collect();
        for chunk in values.chunks(64) {
            bulk.record_all(chunk);
        }
        bulk.record_all(&[]);
        for &v in &values {
            scalar.record(v);
        }
        assert_eq!(bulk.snapshot(), scalar.snapshot());
    }

    #[test]
    fn merge_equals_record_all() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919 + 1;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }
}
