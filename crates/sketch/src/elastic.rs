//! Elastic Sketch (Yang et al., SIGCOMM '18).
//!
//! Two parts: a *heavy* part — a hash table where each bucket keeps one
//! candidate heavy flow with a positive counter and a vote-against counter;
//! and a *light* part — a plain counter array absorbing evicted/mouse
//! traffic. When the vote-against/vote-for ratio passes a threshold
//! (λ = 8 in the paper) the resident flow is evicted to the light part and
//! the challenger takes the bucket.
//!
//! Invertible: heavy flows are sitting in the heavy part with their keys,
//! so heavy-hitter enumeration needs no candidate list. This is the paper's
//! strongest sketch baseline in Fig. 10.

use crate::FlowCounter;
use smartwatch_net::{FlowHasher, FlowKey};

const LAMBDA: u64 = 8;

#[derive(Clone, Copy, Debug, Default)]
struct HeavyBucket {
    key: Option<FlowKey>,
    /// Positive votes: packets of the resident flow.
    vote_for: u64,
    /// Negative votes: packets of other flows hashing here.
    vote_against: u64,
    /// True if part of the resident flow's count may live in the light
    /// part (it was ever evicted or arrived after an eviction).
    light_tainted: bool,
}

/// Elastic sketch over flow keys.
#[derive(Clone, Debug)]
pub struct ElasticSketch {
    heavy: Vec<HeavyBucket>,
    light: Vec<u32>,
    heavy_hasher: FlowHasher,
    light_hasher: FlowHasher,
}

impl ElasticSketch {
    /// `heavy_buckets` heavy-part entries plus `light_counters` 32-bit
    /// light-part counters.
    pub(crate) fn new(heavy_buckets: usize, light_counters: usize, seed: u64) -> ElasticSketch {
        assert!(heavy_buckets > 0 && light_counters > 0);
        ElasticSketch {
            heavy: vec![HeavyBucket::default(); heavy_buckets],
            light: vec![0; light_counters],
            heavy_hasher: FlowHasher::new(seed),
            light_hasher: FlowHasher::new(seed.wrapping_add(0x9E37)),
        }
    }

    /// Sized to a byte budget, split 1:3 heavy:light as in the paper's
    /// hardware configuration.
    pub fn with_memory(bytes: usize, seed: u64) -> ElasticSketch {
        let heavy_bytes = bytes / 4;
        let light_bytes = bytes - heavy_bytes;
        ElasticSketch::new(
            (heavy_bytes / std::mem::size_of::<HeavyBucket>()).max(1),
            (light_bytes / 4).max(1),
            seed,
        )
    }

    fn light_update(&mut self, key: &FlowKey, count: u64) {
        let idx = self
            .light_hasher
            .hash_symmetric(key)
            .bucket(self.light.len());
        self.light[idx] = self.light[idx].saturating_add(count.min(u64::from(u32::MAX)) as u32);
    }

    fn light_estimate(&self, key: &FlowKey) -> u64 {
        u64::from(
            self.light[self
                .light_hasher
                .hash_symmetric(key)
                .bucket(self.light.len())],
        )
    }
}

impl FlowCounter for ElasticSketch {
    fn update(&mut self, key: &FlowKey, count: u64) {
        let canon = key.canonical().0;
        let idx = self
            .heavy_hasher
            .hash_symmetric(&canon)
            .bucket(self.heavy.len());
        let b = &mut self.heavy[idx];
        match b.key {
            None => {
                b.key = Some(canon);
                b.vote_for = count;
                b.vote_against = 0;
                b.light_tainted = false;
            }
            Some(resident) if resident == canon => {
                b.vote_for += count;
            }
            Some(resident) => {
                b.vote_against += count;
                if b.vote_against >= LAMBDA * b.vote_for {
                    // Evict resident to the light part; challenger moves in.
                    let evicted_count = b.vote_for;
                    b.key = Some(canon);
                    b.vote_for = count;
                    b.vote_against = 0;
                    // The incoming flow may have history in the light part
                    // from before it won the bucket.
                    b.light_tainted = true;
                    self.light_update(&resident, evicted_count);
                } else {
                    self.light_update(&canon, count);
                }
            }
        }
    }

    fn estimate(&self, key: &FlowKey) -> u64 {
        let canon = key.canonical().0;
        let idx = self
            .heavy_hasher
            .hash_symmetric(&canon)
            .bucket(self.heavy.len());
        let b = &self.heavy[idx];
        if b.key == Some(canon) {
            if b.light_tainted {
                b.vote_for + self.light_estimate(&canon)
            } else {
                b.vote_for
            }
        } else {
            self.light_estimate(&canon)
        }
    }

    fn memory_bytes(&self) -> usize {
        self.heavy.len() * std::mem::size_of::<HeavyBucket>() + self.light.len() * 4
    }

    fn heavy_hitters(&self, threshold: u64) -> Option<Vec<(FlowKey, u64)>> {
        let mut out: Vec<(FlowKey, u64)> = self
            .heavy
            .iter()
            .filter_map(|b| {
                let k = b.key?;
                let est = if b.light_tainted {
                    b.vote_for + self.light_estimate(&k)
                } else {
                    b.vote_for
                };
                (est >= threshold).then_some((k, est))
            })
            .collect();
        out.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        Some(out)
    }

    fn clear(&mut self) {
        self.heavy.fill(HeavyBucket::default());
        self.light.fill(0);
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
    fn heavy_flows_tracked_exactly_when_uncontended() {
        let mut es = ElasticSketch::new(1 << 12, 1 << 14, 1);
        for _ in 0..1000 {
            es.update(&key(1), 1);
        }
        assert_eq!(es.estimate(&key(1)), 1000);
    }

    #[test]
    fn heavy_hitter_enumeration() {
        let mut es = ElasticSketch::new(1 << 12, 1 << 14, 1);
        for i in 0..200 {
            es.update(&key(i), 5); // mice
        }
        for _ in 0..10_000 {
            es.update(&key(999), 1); // elephant
        }
        let hh = es.heavy_hitters(1_000).unwrap();
        assert!(hh
            .iter()
            .any(|(k, c)| *k == key(999).canonical().0 && *c >= 10_000));
    }

    #[test]
    fn eviction_moves_old_resident_to_light() {
        // Force two flows into the same bucket by using a 1-bucket heavy part.
        let mut es = ElasticSketch::new(1, 1 << 12, 1);
        es.update(&key(1), 2);
        // Challenger overwhelms: vote_against >= 8 * vote_for.
        for _ in 0..16 {
            es.update(&key(2), 1);
        }
        // key(2) now resident; key(1) counted in light part.
        assert!(es.estimate(&key(2)) >= 1);
        assert!(
            es.estimate(&key(1)) >= 2,
            "evicted count must survive in light part"
        );
    }

    #[test]
    fn mice_absorbed_by_light_part() {
        let mut es = ElasticSketch::new(1, 1 << 12, 3);
        es.update(&key(1), 100); // resident elephant
        es.update(&key(2), 3); // mouse votes against, goes light
        assert_eq!(es.estimate(&key(1)), 100);
        assert!(es.estimate(&key(2)) >= 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut es = ElasticSketch::new(16, 64, 0);
        es.update(&key(1), 50);
        es.clear();
        assert_eq!(es.estimate(&key(1)), 0);
        assert!(es.heavy_hitters(1).unwrap().is_empty());
    }

    #[test]
    fn with_memory_respects_budget() {
        let es = ElasticSketch::with_memory(1 << 20, 0);
        assert!(es.memory_bytes() <= 1 << 20);
        assert!(es.memory_bytes() > (1 << 20) * 8 / 10);
    }
}
