//! Cuckoo-hash flow table — the design the paper *rejects* (§3.2).
//!
//! "Cuckoo hashing is not suitable for caching flow records in the sNIC
//! because it can often require multiple memory accesses… a hash collision
//! will cause a hash entry to be moved to its secondary location, causing
//! a write operation. [With FlowCache] while there may be multiple read
//! operations, there is just one write operation."
//!
//! This baseline exists to reproduce that ablation: the paper measures a
//! 2.43× higher 99.9th-percentile latency for Cuckoo (12 max relocations)
//! vs FlowCache (12 buckets) on a CAIDA DC trace. The bench harness costs
//! each access's reads/writes with the same hardware model as FlowCache.

use crate::record::FlowRecord;
use smartwatch_net::{FlowHasher, FlowKey, Packet};

/// Access cost of one cuckoo operation, in the same terms as
/// [`Access`](crate::flowcache::Access).
#[derive(Clone, Copy, Debug)]
pub struct CuckooAccess {
    /// True if the flow was already resident.
    pub hit: bool,
    /// Bucket reads.
    pub probes: u32,
    /// Bucket writes (1 for updates; 1 + relocations for inserts).
    pub writes: u32,
    /// True if the insert failed after the relocation budget (the record
    /// is evicted to the host, as Cuckoo tables must on insertion cycles).
    pub overflow: bool,
}

/// Two-choice cuckoo flow table with bounded relocation.
#[derive(Clone, Debug)]
pub struct CuckooTable {
    slots: Vec<Option<FlowRecord>>,
    h1: FlowHasher,
    h2: FlowHasher,
    capacity: usize,
    max_relocations: u32,
    /// Records displaced past the relocation budget.
    pub overflowed: u64,
}

impl CuckooTable {
    /// Table with `capacity` slots and the paper's relocation bound of 12.
    pub fn new(capacity: usize, seed: u64) -> CuckooTable {
        assert!(capacity >= 2);
        CuckooTable {
            slots: vec![None; capacity],
            h1: FlowHasher::new(seed),
            h2: FlowHasher::new(seed.wrapping_add(0xC0C0)),
            capacity,
            max_relocations: 12,
            overflowed: 0,
        }
    }

    fn positions(&self, key: &FlowKey) -> (usize, usize) {
        (
            self.h1.hash_symmetric(key).bucket(self.capacity),
            self.h2.hash_symmetric(key).bucket(self.capacity),
        )
    }

    /// Process one packet.
    pub fn process(&mut self, pkt: &Packet) -> CuckooAccess {
        let canon = pkt.key.canonical().0;
        let (p1, p2) = self.positions(&canon);
        let mut probes = 1;
        // Check both candidate positions.
        if matches!(&self.slots[p1], Some(r) if r.key == canon) {
            self.slots[p1]
                .as_mut()
                .expect("occupied")
                .update(pkt.ts, pkt.wire_len);
            return CuckooAccess {
                hit: true,
                probes,
                writes: 1,
                overflow: false,
            };
        }
        probes += 1;
        if matches!(&self.slots[p2], Some(r) if r.key == canon) {
            self.slots[p2]
                .as_mut()
                .expect("occupied")
                .update(pkt.ts, pkt.wire_len);
            return CuckooAccess {
                hit: true,
                probes,
                writes: 1,
                overflow: false,
            };
        }

        // Insert with displacement.
        let mut writes = 0;
        let mut homeless = FlowRecord::new(canon, pkt.ts, pkt.wire_len);
        let mut pos = if self.slots[p1].is_none() { p1 } else { p2 };
        for _ in 0..=self.max_relocations {
            probes += 1;
            match self.slots[pos].take() {
                None => {
                    self.slots[pos] = Some(homeless);
                    writes += 1;
                    return CuckooAccess {
                        hit: false,
                        probes,
                        writes,
                        overflow: false,
                    };
                }
                Some(displaced) => {
                    self.slots[pos] = Some(homeless);
                    writes += 1;
                    homeless = displaced;
                    // Move the displaced record to its alternate position.
                    let (a1, a2) = self.positions(&homeless.key);
                    pos = if pos == a1 { a2 } else { a1 };
                }
            }
        }
        // Relocation budget exhausted: the homeless record overflows.
        self.overflowed += 1;
        CuckooAccess {
            hit: false,
            probes,
            writes,
            overflow: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CuckooTable {
        /// Look up a flow.
        fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
            let canon = key.canonical().0;
            let (p1, p2) = self.positions(&canon);
            for p in [p1, p2] {
                if let Some(r) = &self.slots[p] {
                    if r.key == canon {
                        return Some(r);
                    }
                }
            }
            None
        }

        /// Occupied slot count.
        fn occupied(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }
    use smartwatch_net::{PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn pkt(i: u32, ts_us: u64) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1000,
            Ipv4Addr::from(0xAC100001u32),
            80,
        );
        PacketBuilder::new(key, Ts::from_micros(ts_us)).build()
    }

    #[test]
    fn update_after_insert_hits() {
        let mut t = CuckooTable::new(1024, 1);
        assert!(!t.process(&pkt(1, 1)).hit);
        let a = t.process(&pkt(1, 2));
        assert!(a.hit);
        assert_eq!(a.writes, 1);
        assert_eq!(t.get(&pkt(1, 0).key).unwrap().packets, 2);
    }

    #[test]
    fn displacement_costs_extra_writes() {
        // Tiny table forces relocations quickly.
        let mut t = CuckooTable::new(8, 1);
        let mut max_writes = 0;
        for i in 0..8 {
            let a = t.process(&pkt(i, u64::from(i)));
            max_writes = max_writes.max(a.writes);
        }
        assert!(
            max_writes > 1,
            "expected relocation writes, max={max_writes}"
        );
    }

    #[test]
    fn overflow_when_budget_exhausted() {
        let mut t = CuckooTable::new(4, 1);
        let mut overflow_seen = false;
        for i in 0..64 {
            if t.process(&pkt(i, u64::from(i))).overflow {
                overflow_seen = true;
            }
        }
        assert!(overflow_seen);
        assert!(t.overflowed > 0);
        assert!(t.occupied() <= 4);
    }

    #[test]
    fn counts_survive_displacement() {
        let mut t = CuckooTable::new(64, 3);
        for round in 0..5u64 {
            for i in 0..32 {
                t.process(&pkt(i, round * 100 + u64::from(i)));
            }
        }
        // Every still-resident flow must have an accurate count (5 each,
        // unless it overflowed out entirely).
        for i in 0..32 {
            if let Some(r) = t.get(&pkt(i, 0).key) {
                assert!(r.packets <= 5);
                assert!(r.packets >= 1);
            }
        }
    }
}
