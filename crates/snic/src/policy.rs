//! Eviction policies for the FlowCache buffers (paper §3.2, Fig. 5).
//!
//! The paper evaluates LRU, LPC (Least Packet Count) and FIFO, then settles
//! on the hybrid: LRU in the Primary buffer (catches packet trains) with
//! LPC in the Eviction buffer (keeps elephants resident). Policies are a
//! property of each buffer, so any (P-policy, E-policy) pairing can be
//! expressed; the four paper configurations are provided as constants.

use crate::record::FlowRecord;

/// Victim-selection policy within one buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Evict the least recently used record (oldest `last_ts`).
    Lru,
    /// Evict the record with the least packet count.
    Lpc,
    /// Evict the earliest-inserted record (oldest `inserted_ts`).
    Fifo,
}

impl Policy {
    /// Bucket of the victim among the `(bucket, record)` occupants of
    /// one buffer (non-pinned entries only; the first of equals goes).
    /// Returns `None` if every occupant is pinned or there is none.
    pub(crate) fn victim<'a>(
        self,
        occupants: impl Iterator<Item = (usize, &'a FlowRecord)>,
    ) -> Option<usize> {
        let candidates = occupants.filter(|(_, r)| !r.pinned);
        match self {
            Policy::Lru => candidates.min_by_key(|(_, r)| r.last_ts),
            Policy::Lpc => candidates.min_by_key(|(_, r)| (r.packets, r.last_ts)),
            Policy::Fifo => candidates.min_by_key(|(_, r)| r.inserted_ts),
        }
        .map(|(bucket, _)| bucket)
    }
}

/// A named FlowCache configuration from Fig. 5: (P buckets, E buckets) plus
/// the per-buffer policies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CachePolicy {
    /// Policy applied in the Primary buffer.
    pub primary: Policy,
    /// Policy applied in the Eviction buffer (ignored when E is empty).
    pub eviction: Policy,
}

impl Policy {
    /// Lowercase metric-label form.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Lpc => "lpc",
            Policy::Fifo => "fifo",
        }
    }
}

impl CachePolicy {
    /// Metric-label form: the shared name when both buffers agree
    /// (`lru`), otherwise `primary-eviction` (`lru-lpc`).
    pub fn label(&self) -> String {
        if self.primary == self.eviction {
            self.primary.label().to_string()
        } else {
            format!("{}-{}", self.primary.label(), self.eviction.label())
        }
    }

    /// Fig. 5's "LRU (12,0)": one flat LRU buffer.
    pub const LRU: CachePolicy = CachePolicy {
        primary: Policy::Lru,
        eviction: Policy::Lru,
    };
    /// Fig. 5's "LPC (12,0)".
    pub const LPC: CachePolicy = CachePolicy {
        primary: Policy::Lpc,
        eviction: Policy::Lpc,
    };
    /// Fig. 5's "FIFO (4,8)".
    pub const FIFO: CachePolicy = CachePolicy {
        primary: Policy::Fifo,
        eviction: Policy::Fifo,
    };
    /// The paper's winner: "LRU-LPC (4,8)" — LRU in P, LPC in E.
    pub const LRU_LPC: CachePolicy = CachePolicy {
        primary: Policy::Lru,
        eviction: Policy::Lpc,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, Ts};
    use std::net::Ipv4Addr;

    fn rec(i: u32, packets: u64, last_s: u64, inserted_s: u64) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        );
        let mut r = FlowRecord::new(key, Ts::from_secs(inserted_s), 64);
        r.packets = packets;
        r.last_ts = Ts::from_secs(last_s);
        r
    }

    /// The records as the occupants of buckets 0, 1, 2…
    fn victim(p: Policy, records: &[FlowRecord]) -> Option<usize> {
        p.victim(records.iter().enumerate())
    }

    #[test]
    fn lru_picks_stalest() {
        let a = rec(1, 100, 10, 1);
        let b = rec(2, 1, 5, 2);
        let c = rec(3, 50, 20, 3);
        assert_eq!(victim(Policy::Lru, &[a, b, c]), Some(1));
    }

    #[test]
    fn lpc_picks_smallest_flow() {
        let a = rec(1, 100, 10, 1);
        let b = rec(2, 1, 50, 2);
        let c = rec(3, 50, 20, 3);
        assert_eq!(victim(Policy::Lpc, &[a, b, c]), Some(1));
    }

    #[test]
    fn lpc_ties_break_on_recency() {
        let a = rec(1, 5, 30, 1);
        let b = rec(2, 5, 10, 2);
        assert_eq!(
            victim(Policy::Lpc, &[a, b]),
            Some(1),
            "older of equal counts goes"
        );
    }

    #[test]
    fn fifo_picks_earliest_inserted() {
        let a = rec(1, 1, 100, 9);
        let b = rec(2, 100, 1, 3);
        assert_eq!(victim(Policy::Fifo, &[a, b]), Some(1));
    }

    #[test]
    fn pinned_records_are_skipped() {
        let mut a = rec(1, 1, 1, 1); // would be every policy's victim
        a.pinned = true;
        let b = rec(2, 100, 100, 100);
        for p in [Policy::Lru, Policy::Lpc, Policy::Fifo] {
            assert_eq!(victim(p, &[a, b]), Some(1));
        }
    }

    #[test]
    fn all_pinned_yields_none() {
        let mut a = rec(1, 1, 1, 1);
        a.pinned = true;
        assert_eq!(victim(Policy::Lru, &[a]), None);
        assert_eq!(victim(Policy::Lru, &[]), None);
    }

    #[test]
    fn the_victim_is_named_by_bucket_and_ties_go_to_the_first() {
        // Occupants of buckets 4 and 9 (a sparse buffer), equally stale.
        let (a, b) = (rec(1, 1, 5, 5), rec(2, 1, 5, 5));
        for p in [Policy::Lru, Policy::Lpc, Policy::Fifo] {
            assert_eq!(p.victim([(4, &a), (9, &b)].into_iter()), Some(4));
        }
    }
}
