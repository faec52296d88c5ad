//! NitroSketch (Liu et al., SIGCOMM '19) — sampled sketch updates.
//!
//! NitroSketch's key idea: instead of updating every row of an underlying
//! sketch for every packet, update each row with probability `p` and add
//! `1/p` when an update fires, drawing geometric skip counts so the common
//! case touches *no* memory at all. Throughput rises by ~1/p at the cost
//! of added variance. The paper's Fig. 11b shows NitroSketch as the only
//! baseline out-throughputting SmartWatch — precisely because it samples,
//! which also makes it unable to support flow-state tracking (§2.3.2).
//!
//! This implementation layers geometric sampling over per-row CountMin
//! arrays and is deterministic under its seed.

use crate::FlowCounter;
use smartwatch_net::{FlowHasher, FlowKey};

/// A small deterministic xorshift PRNG so the sketch owns its sampling
/// stream (keeps `update` `&mut self`-only, no external RNG threading).
#[derive(Clone, Debug)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: seed | 1 }
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Geometric skip: number of further events until the next sample,
    /// for sampling probability `p`.
    fn geometric_skip(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64().max(1e-15);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

/// NitroSketch: geometric-sampled CountMin rows.
#[derive(Clone, Debug)]
pub struct NitroSketch {
    rows: Vec<Vec<f64>>,
    hashers: Vec<FlowHasher>,
    /// Per-row countdown until the next sampled update.
    skip: Vec<u64>,
    width: usize,
    p: f64,
    rng: XorShift64,
}

impl NitroSketch {
    /// `depth` rows × `width` counters with sampling probability `p`
    /// (NitroSketch's always-line-rate mode uses p ≈ 0.01–0.05).
    pub fn new(depth: usize, width: usize, p: f64, seed: u64) -> NitroSketch {
        assert!(depth > 0 && width > 0);
        assert!(p > 0.0 && p <= 1.0);
        let mut rng = XorShift64::new(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let skip = (0..depth).map(|_| rng.geometric_skip(p)).collect();
        NitroSketch {
            rows: vec![vec![0.0; width]; depth],
            hashers: (0..depth)
                .map(|i| FlowHasher::new(seed.wrapping_mul(7919).wrapping_add(i as u64)))
                .collect(),
            skip,
            width,
            p,
            rng,
        }
    }
}

impl FlowCounter for NitroSketch {
    fn update(&mut self, key: &FlowKey, count: u64) {
        // Each packet of `count` is one sampling opportunity per row.
        for r in 0..self.rows.len() {
            let mut remaining = count;
            while remaining > 0 {
                if self.skip[r] >= remaining {
                    self.skip[r] -= remaining;
                    remaining = 0;
                } else {
                    remaining -= self.skip[r] + 1;
                    let idx = self.hashers[r].hash_symmetric(key).bucket(self.width);
                    self.rows[r][idx] += 1.0 / self.p;
                    self.skip[r] = self.rng.geometric_skip(self.p);
                }
            }
        }
    }

    fn estimate(&self, key: &FlowKey) -> u64 {
        // Median across rows (NitroSketch's unbiased estimator), floored
        // at zero.
        let mut ests: Vec<f64> = self
            .rows
            .iter()
            .zip(&self.hashers)
            .map(|(row, h)| row[h.hash_symmetric(key).bucket(self.width)])
            .collect();
        ests.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let m = ests.len();
        let median = if m % 2 == 1 {
            ests[m / 2]
        } else {
            (ests[m / 2 - 1] + ests[m / 2]) / 2.0
        };
        median.max(0.0).round() as u64
    }

    fn memory_bytes(&self) -> usize {
        self.rows.len() * self.width * 8
    }

    fn heavy_hitters(&self, _threshold: u64) -> Option<Vec<(FlowKey, u64)>> {
        None // not invertible
    }

    fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(0.0);
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
    fn estimate_unbiased_for_elephants() {
        let mut ns = NitroSketch::new(5, 1 << 14, 0.05, 3);
        ns.update(&key(1), 100_000);
        let est = ns.estimate(&key(1)) as f64;
        assert!(
            (est - 100_000.0).abs() / 100_000.0 < 0.15,
            "sampled estimate should be near truth: {est}"
        );
    }

    #[test]
    fn small_flows_often_invisible() {
        // With p=0.01 a 5-packet flow usually triggers no updates at all —
        // the sampling property that rules out flow-state tracking.
        let mut ns = NitroSketch::new(4, 1 << 14, 0.01, 4);
        let mut zero = 0;
        for i in 0..100 {
            ns.update(&key(i), 5);
            if ns.estimate(&key(i)) == 0 {
                zero += 1;
            }
        }
        assert!(zero > 50, "most mice should be unseen: {zero}/100");
    }

    #[test]
    fn p_one_degenerates_to_exact_countmin_behaviour() {
        let mut ns = NitroSketch::new(4, 1 << 14, 1.0, 2);
        ns.update(&key(3), 1234);
        assert_eq!(ns.estimate(&key(3)), 1234);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut ns = NitroSketch::new(4, 1 << 12, 0.05, 9);
            for i in 0..50 {
                ns.update(&key(i), 1000);
            }
            (0..50).map(|i| ns.estimate(&key(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_resets() {
        let mut ns = NitroSketch::new(2, 64, 0.5, 1);
        ns.update(&key(1), 1000);
        ns.clear();
        assert_eq!(ns.estimate(&key(1)), 0);
    }
}
