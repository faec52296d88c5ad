//! Bloom filter.
//!
//! Used by the forged-RST detector's fast path (§5.1.2): before scanning
//! the timing wheel for a duplicate buffered RST, a Bloom filter answers
//! "definitely not seen" in O(k) hashes — the paper reports 69.7% of RST
//! packets taking this 411 ns fast path.

use smartwatch_net::FlowHasher;

/// A classic Bloom filter over arbitrary byte keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: usize,
    hashers: Vec<FlowHasher>,
}

impl BloomFilter {
    /// Filter with `n_bits` bits and `k` hash functions.
    pub(crate) fn new(n_bits: usize, k: usize, seed: u64) -> BloomFilter {
        assert!(n_bits > 0 && k > 0);
        BloomFilter {
            bits: vec![0; n_bits.div_ceil(64)],
            n_bits,
            hashers: (0..k)
                .map(|i| FlowHasher::new(seed.wrapping_mul(6_364_136).wrapping_add(i as u64)))
                .collect(),
        }
    }

    /// Filter sized for `expected_items` at roughly the target false
    /// positive rate (standard m/k formulas).
    pub fn for_items(expected_items: usize, fp_rate: f64, seed: u64) -> BloomFilter {
        assert!(fp_rate > 0.0 && fp_rate < 1.0);
        let n = expected_items.max(1) as f64;
        let m = (-(n * fp_rate.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as usize;
        BloomFilter::new(m, k, seed)
    }

    /// Insert a u64 key.
    pub fn insert(&mut self, key: u64) {
        for h in &self.hashers {
            let bit = h.hash_u64(key).bucket(self.n_bits);
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// True if `key` *may* have been inserted; false means definitely not.
    pub fn contains(&self, key: u64) -> bool {
        self.hashers.iter().all(|h| {
            let bit = h.hash_u64(key).bucket(self.n_bits);
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::for_items(1_000, 0.01, 1);
        for i in 0..1_000u64 {
            b.insert(i);
        }
        for i in 0..1_000u64 {
            assert!(b.contains(i));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut b = BloomFilter::for_items(10_000, 0.01, 2);
        for i in 0..10_000u64 {
            b.insert(i);
        }
        let fps = (10_000..110_000u64).filter(|i| b.contains(*i)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let b = BloomFilter::new(1024, 4, 0);
        assert!(!b.contains(42));
        assert!(b.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn clear_resets() {
        let mut b = BloomFilter::new(1024, 4, 0);
        b.insert(42);
        assert!(b.contains(42));
        b.clear();
        assert!(!b.contains(42));
        assert!(b.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn sizing_formula_sane() {
        let b = BloomFilter::for_items(1_000, 0.01, 0);
        // ~9.6 bits/item for 1% ⇒ ~1.2 KB.
        assert!(
            b.memory_bytes() > 800 && b.memory_bytes() < 3_000,
            "{}",
            b.memory_bytes()
        );
    }
}
