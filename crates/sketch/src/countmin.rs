//! CountMin sketch (Cormode & Muthukrishnan).
//!
//! `d` rows of `w` counters; an update increments one counter per row, an
//! estimate takes the minimum across rows. Overestimates only — never
//! undercounts — which the paper's Fig. 11b uses as the low-throughput /
//! multi-hash baseline ("CountMIN Sketch throughput is low due to multiple
//! hash calculations per packet").

use crate::FlowCounter;
use smartwatch_net::{FlowHasher, FlowKey};

/// CountMin sketch over flow keys.
#[derive(Clone, Debug)]
pub struct CountMin {
    rows: Vec<Vec<u64>>,
    hashers: Vec<FlowHasher>,
    width: usize,
}

impl CountMin {
    /// `depth` rows × `width` counters, hashed with seeds derived from
    /// `seed`.
    pub fn new(depth: usize, width: usize, seed: u64) -> CountMin {
        assert!(depth > 0 && width > 0);
        CountMin {
            rows: vec![vec![0; width]; depth],
            hashers: (0..depth)
                .map(|i| FlowHasher::new(seed.wrapping_mul(1021).wrapping_add(i as u64)))
                .collect(),
            width,
        }
    }

    /// Sketch sized to a memory budget in bytes at the given depth.
    pub fn with_memory(bytes: usize, depth: usize, seed: u64) -> CountMin {
        let width = (bytes / (8 * depth)).max(1);
        CountMin::new(depth, width, seed)
    }
}

impl FlowCounter for CountMin {
    fn update(&mut self, key: &FlowKey, count: u64) {
        for (row, h) in self.rows.iter_mut().zip(&self.hashers) {
            let idx = h.hash_symmetric(key).bucket(self.width);
            row[idx] = row[idx].saturating_add(count);
        }
    }

    fn estimate(&self, key: &FlowKey) -> u64 {
        self.rows
            .iter()
            .zip(&self.hashers)
            .map(|(row, h)| row[h.hash_symmetric(key).bucket(self.width)])
            .min()
            .unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        self.rows.len() * self.width * 8
    }

    fn heavy_hitters(&self, _threshold: u64) -> Option<Vec<(FlowKey, u64)>> {
        None // not invertible
    }

    fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        )
    }

    #[test]
    fn never_undercounts() {
        let mut cm = CountMin::new(3, 64, 7); // deliberately tight
        let truth: Vec<(FlowKey, u64)> =
            (0..500).map(|i| (key(i), u64::from(i % 17 + 1))).collect();
        for (k, c) in &truth {
            cm.update(k, *c);
        }
        for (k, c) in &truth {
            assert!(cm.estimate(k) >= *c, "CountMin undercounted");
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cm = CountMin::new(4, 1 << 16, 7);
        for i in 0..100 {
            cm.update(&key(i), u64::from(i) + 1);
        }
        for i in 0..100 {
            assert_eq!(cm.estimate(&key(i)), u64::from(i) + 1);
        }
    }

    #[test]
    fn symmetric_keys_share_counters() {
        let mut cm = CountMin::new(4, 1 << 12, 7);
        let k = key(5);
        cm.update(&k, 3);
        cm.update(&k.reversed(), 4);
        assert_eq!(cm.estimate(&k), 7);
    }

    #[test]
    fn clear_resets() {
        let mut cm = CountMin::new(2, 128, 0);
        cm.update(&key(1), 10);
        cm.clear();
        assert_eq!(cm.estimate(&key(1)), 0);
    }

    #[test]
    fn memory_accounting() {
        let cm = CountMin::with_memory(64 * 1024, 4, 0);
        assert!(cm.memory_bytes() <= 64 * 1024);
        assert!(cm.memory_bytes() > 60 * 1024);
    }
}
