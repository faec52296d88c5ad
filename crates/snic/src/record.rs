//! Flow records: the unit the FlowCache caches and the sNIC exports.

use smartwatch_net::{FlowKey, Ts};

/// One cached flow's state.
///
/// The layout follows the paper's description (§2.1.2): 5-tuple, packet
/// and byte counts, timestamps and the pin flag — 56 bytes, which the
/// FlowCache pads to one 64-byte line per bucket, so 25 M entries fit
/// the sNIC's DRAM budget the paper quotes (768 MB). The
/// attack-specific state the paper also files here lives in the
/// detectors' own flow tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// Canonical (direction-free) 5-tuple.
    pub key: FlowKey,
    /// Packets observed.
    pub packets: u64,
    /// Bytes observed on the wire.
    pub bytes: u64,
    /// First packet timestamp.
    pub first_ts: Ts,
    /// Most recent packet timestamp (LRU metadata).
    pub last_ts: Ts,
    /// Insertion timestamp (FIFO metadata).
    pub inserted_ts: Ts,
    /// Pinned records are never evicted (per-packet state tracking for
    /// suspect flows, §3.2 "Pinning Flow Records").
    pub pinned: bool,
}

impl FlowRecord {
    /// Fresh record for a flow first seen at `ts`.
    pub fn new(key: FlowKey, ts: Ts, wire_len: u16) -> FlowRecord {
        FlowRecord {
            key,
            packets: 1,
            bytes: u64::from(wire_len),
            first_ts: ts,
            last_ts: ts,
            inserted_ts: ts,
            pinned: false,
        }
    }

    /// Full-key identity check, the slow half of a FlowCache probe.
    ///
    /// The cache's tag arrays filter probes down to buckets whose 8-bit
    /// digest tag matches, so this 13-byte compare runs only on a tag
    /// hit — i.e. almost always on the true match, ~1/255 of the time on
    /// a same-row tag collision.
    #[inline]
    pub(crate) fn matches(&self, key: &FlowKey) -> bool {
        self.key == *key
    }

    /// Fold one more packet into the record; its packet count after.
    pub(crate) fn update(&mut self, ts: Ts, wire_len: u16) -> u64 {
        self.packets += 1;
        self.bytes += u64::from(wire_len);
        self.last_ts = ts;
        self.packets
    }

    /// Merge another record for the same flow (host-side aggregation of
    /// repeated exports, §3.4).
    pub fn merge(&mut self, other: &FlowRecord) {
        debug_assert_eq!(self.key, other.key);
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.first_ts = self.first_ts.min(other.first_ts);
        self.last_ts = self.last_ts.max(other.last_ts);
    }

    /// Flow duration so far.
    pub fn duration(&self) -> smartwatch_net::Dur {
        self.last_ts - self.first_ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            9,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn update_accumulates() {
        let mut r = FlowRecord::new(key(), Ts::from_secs(1), 100);
        r.update(Ts::from_secs(2), 200);
        r.update(Ts::from_secs(3), 300);
        assert_eq!(r.packets, 3);
        assert_eq!(r.bytes, 600);
        assert_eq!(r.first_ts, Ts::from_secs(1));
        assert_eq!(r.last_ts, Ts::from_secs(3));
        assert_eq!(r.duration(), smartwatch_net::Dur::from_secs(2));
    }

    #[test]
    fn merge_is_order_insensitive_on_counts() {
        let mut a = FlowRecord::new(key(), Ts::from_secs(1), 100);
        a.update(Ts::from_secs(2), 50);
        let mut b = FlowRecord::new(key(), Ts::from_secs(5), 70);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab.packets, ba.packets);
        assert_eq!(ab.bytes, ba.bytes);
        assert_eq!(ab.first_ts, ba.first_ts);
        assert_eq!(ab.last_ts, ba.last_ts);
        b.update(Ts::from_secs(6), 1);
    }
}
