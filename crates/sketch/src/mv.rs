//! MV-Sketch (Tang, Huang & Lee, INFOCOM '19).
//!
//! An invertible sketch for heavy-flow detection: each bucket keeps a total
//! count `v`, a candidate key `k`, and a majority-vote counter `c`
//! (Boyer–Moore). Updates add to `v` and run the majority vote on `c`;
//! the candidate key in a bucket converges to that bucket's heaviest flow.
//! Estimates use the standard MV-Sketch upper estimate; heavy hitters are
//! enumerated directly from the candidate keys.

use crate::FlowCounter;
use smartwatch_net::{FlowHasher, FlowKey};

#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    /// Total count of everything hashed here.
    v: u64,
    /// Current majority candidate.
    k: Option<FlowKey>,
    /// Boyer–Moore vote counter (may go "negative" conceptually; we flip
    /// the candidate when it would).
    c: i64,
}

/// MV-Sketch over flow keys.
#[derive(Clone, Debug)]
pub struct MvSketch {
    rows: Vec<Vec<Bucket>>,
    hashers: Vec<FlowHasher>,
    width: usize,
}

impl MvSketch {
    /// `depth` rows × `width` buckets.
    pub(crate) fn new(depth: usize, width: usize, seed: u64) -> MvSketch {
        assert!(depth > 0 && width > 0);
        MvSketch {
            rows: vec![vec![Bucket::default(); width]; depth],
            hashers: (0..depth)
                .map(|i| FlowHasher::new(seed.wrapping_mul(40_503).wrapping_add(i as u64)))
                .collect(),
            width,
        }
    }

    /// Sized to a byte budget at the given depth.
    pub fn with_memory(bytes: usize, depth: usize, seed: u64) -> MvSketch {
        let width = (bytes / (depth * std::mem::size_of::<Bucket>())).max(1);
        MvSketch::new(depth, width, seed)
    }
}

impl FlowCounter for MvSketch {
    fn update(&mut self, key: &FlowKey, count: u64) {
        let canon = key.canonical().0;
        for (row, h) in self.rows.iter_mut().zip(&self.hashers) {
            let b = &mut row[h.hash_symmetric(&canon).bucket(self.width)];
            b.v += count;
            match b.k {
                None => {
                    b.k = Some(canon);
                    b.c = count as i64;
                }
                Some(k) if k == canon => b.c += count as i64,
                Some(_) => {
                    b.c -= count as i64;
                    if b.c < 0 {
                        b.k = Some(canon);
                        b.c = -b.c;
                    }
                }
            }
        }
    }

    fn estimate(&self, key: &FlowKey) -> u64 {
        // Standard MV-Sketch point estimate: min over rows of the upper
        // bound (v + c)/2 if candidate matches, else (v - c)/2.
        let canon = key.canonical().0;
        self.rows
            .iter()
            .zip(&self.hashers)
            .map(|(row, h)| {
                let b = &row[h.hash_symmetric(&canon).bucket(self.width)];
                let (v, c) = (b.v as i64, b.c);
                let est = if b.k == Some(canon) {
                    (v + c) / 2
                } else {
                    (v - c) / 2
                };
                est.max(0) as u64
            })
            .min()
            .unwrap_or(0)
    }

    fn memory_bytes(&self) -> usize {
        self.rows.len() * self.width * std::mem::size_of::<Bucket>()
    }

    fn heavy_hitters(&self, threshold: u64) -> Option<Vec<(FlowKey, u64)>> {
        let mut out: Vec<(FlowKey, u64)> = Vec::new();
        for row in &self.rows {
            for b in row {
                if let Some(k) = b.k {
                    let est = self.estimate(&k);
                    if est >= threshold && !out.iter().any(|(ek, _)| *ek == k) {
                        out.push((k, est));
                    }
                }
            }
        }
        out.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        Some(out)
    }

    fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(Bucket::default());
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
    fn majority_flow_wins_its_buckets() {
        let mut mv = MvSketch::new(2, 64, 5);
        for i in 0..100 {
            mv.update(&key(i), 2);
        }
        for _ in 0..5_000 {
            mv.update(&key(7), 1);
        }
        let hh = mv.heavy_hitters(2_000).unwrap();
        assert!(hh.iter().any(|(k, _)| *k == key(7).canonical().0));
    }

    #[test]
    fn estimate_tracks_true_count_when_dominant() {
        let mut mv = MvSketch::new(3, 1024, 5);
        for _ in 0..1_000 {
            mv.update(&key(1), 1);
        }
        let est = mv.estimate(&key(1));
        assert!((900..=1_100).contains(&est), "estimate {est}");
    }

    #[test]
    fn light_flows_get_small_estimates() {
        let mut mv = MvSketch::new(3, 1024, 5);
        for _ in 0..10_000 {
            mv.update(&key(1), 1);
        }
        mv.update(&key(2), 3);
        // key(2) may collide with the elephant in some rows, but min over
        // rows should stay far below the elephant's count.
        assert!(mv.estimate(&key(2)) < 1_000);
    }

    #[test]
    fn heavy_hitters_deduplicated_across_rows() {
        let mut mv = MvSketch::new(4, 256, 5);
        for _ in 0..1_000 {
            mv.update(&key(1), 1);
        }
        let hh = mv.heavy_hitters(500).unwrap();
        assert_eq!(
            hh.iter()
                .filter(|(k, _)| *k == key(1).canonical().0)
                .count(),
            1
        );
    }

    #[test]
    fn clear_resets() {
        let mut mv = MvSketch::new(2, 64, 0);
        mv.update(&key(1), 100);
        mv.clear();
        assert_eq!(mv.estimate(&key(1)), 0);
    }
}
