//! Eviction ring buffers (paper §3.2).
//!
//! The FlowCache dedicates 8 ring buffers of 64 Ki entries each; evicted
//! flow records land in a ring and are drained by the host's snapshot
//! thread. Eight rings exist to spread contention across the 80 PMEs; in
//! the deterministic simulator the ring index is derived from the row hash
//! so the distribution is reproducible.
//!
//! ## Who counts, who publishes
//!
//! A ring set counts its own events in plain integers — `pushed`,
//! `overflow_to_host`, a running `len` and its `peak` — and holds no
//! metric handle: whoever owns the cache publishes them, with the
//! cache's own tallies, through a [`crate::cache_publisher`] at a
//! boundary of its choosing. The tallies are **cumulative for the
//! object's life**: [`RingSet::reset`] empties the rings but does not
//! rewind `pushed`, `overflow_to_host` or `peak`, so a publisher's
//! cells never go backwards and a segment's share is the difference of
//! two reads. Nothing here is shared, which is why `Clone` is derived:
//! a clone is a second, independent set of books.

// No metric handle and no shared cell (`clippy.toml`).
#![deny(clippy::disallowed_types)]

use crate::record::FlowRecord;
use smartwatch_net::Resident;
use std::collections::VecDeque;

/// A set of fixed-capacity eviction rings.
#[derive(Clone, Debug)]
pub struct RingSet {
    rings: Vec<VecDeque<FlowRecord>>,
    /// Per ring, the most records it held since the last
    /// [`RingSet::reset`], as of the last drain (rings only shrink there).
    high_water: Vec<usize>,
    capacity: usize,
    /// Evictions that found their ring full and had to go straight to the
    /// host (an overload signal the reconfigurable cache reacts to).
    pub overflow_to_host: u64,
    /// Total records ever pushed.
    pub pushed: u64,
    /// Records buffered across all rings, kept live so neither
    /// [`RingSet::len`] nor a publisher re-sums the rings.
    len: usize,
    /// The most `len` has ever been.
    peak: usize,
}

impl RingSet {
    /// `n_rings` rings of at most `capacity` records each (paper:
    /// 8 × 65 536). The rings start unallocated, all alike: how much a
    /// ring needs is a property of the traffic, and the [`Resident`]
    /// rule in [`RingSet::reset`] is what sizes it — a guess made here
    /// would be shrunk away by the first reset of a quiet segment and
    /// outgrown within the first of a busy one, so it would only make
    /// the first segment's rings unlike every later segment's.
    pub(crate) fn new(n_rings: usize, capacity: usize) -> RingSet {
        assert!(n_rings > 0 && capacity > 0);
        RingSet {
            rings: vec![VecDeque::new(); n_rings],
            high_water: vec![0; n_rings],
            capacity,
            overflow_to_host: 0,
            pushed: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Empty the rings in place, buffers kept under the [`Resident`]
    /// shrink rule. The tallies are cumulative and stay.
    pub(crate) fn reset(&mut self) {
        self.note_high_water();
        for (ring, high) in self.rings.iter_mut().zip(&mut self.high_water) {
            ring.reset_to(std::mem::take(high));
        }
        self.len = 0;
    }

    /// Heap bytes the ring buffers hold.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.rings.iter().map(Resident::resident_bytes).sum()
    }

    fn note_high_water(&mut self) {
        for (ring, high) in self.rings.iter().zip(&mut self.high_water) {
            *high = (*high).max(ring.len());
        }
    }

    /// Push an evicted record; `row` selects the ring. Returns `false` if
    /// the ring was full (record counted as overflow-to-host).
    pub(crate) fn push(&mut self, row: usize, rec: FlowRecord) -> bool {
        self.pushed += 1;
        let n = self.rings.len();
        let ring = &mut self.rings[row % n];
        if ring.len() >= self.capacity {
            self.overflow_to_host += 1;
            return false;
        }
        ring.push_back(rec);
        self.len += 1;
        self.peak = self.peak.max(self.len);
        true
    }

    /// Records currently buffered across all rings.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The most records ever buffered at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Empty the rings for a reader that keeps no record, without
    /// allocating: the buffers and the cumulative tallies stay.
    pub fn clear(&mut self) {
        self.note_high_water();
        self.rings.iter_mut().for_each(VecDeque::clear);
        self.len = 0;
    }

    /// Drain everything (the host snapshot thread's read).
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        self.note_high_water();
        let mut out = Vec::with_capacity(self.len);
        for ring in &mut self.rings {
            out.extend(ring.drain(..));
        }
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, Ts};
    use std::net::Ipv4Addr;

    fn rec(i: u32) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        );
        FlowRecord::new(key, Ts::ZERO, 64)
    }

    #[test]
    fn push_and_drain_preserves_records() {
        let mut rs = RingSet::new(4, 100);
        for i in 0..50 {
            assert!(rs.push(i, rec(i as u32)));
        }
        assert_eq!(rs.len(), 50);
        let drained = rs.drain();
        assert_eq!(drained.len(), 50);
        assert_eq!(rs.len, 0);
    }

    #[test]
    fn clear_keeps_the_buffers_and_the_books() {
        let mut rs = RingSet::new(2, 100);
        for i in 0..40 {
            rs.push(i, rec(i as u32));
        }
        let caps: Vec<usize> = rs.rings.iter().map(VecDeque::capacity).collect();
        rs.clear();
        assert_eq!((rs.len(), rs.pushed, rs.peak()), (0, 40, 40));
        let kept: Vec<usize> = rs.rings.iter().map(VecDeque::capacity).collect();
        assert_eq!(kept, caps, "no buffer is given back or grown");
        assert!(rs.drain().is_empty());
    }

    #[test]
    fn overflow_counts_to_host() {
        let mut rs = RingSet::new(1, 3);
        for i in 0..5 {
            rs.push(0, rec(i));
        }
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.overflow_to_host, 2);
        assert_eq!(rs.pushed, 5);
    }

    #[test]
    fn rows_spread_over_rings() {
        let mut rs = RingSet::new(8, 10);
        for row in 0..8 {
            rs.push(row, rec(row as u32));
        }
        for ring in &rs.rings {
            assert_eq!(ring.len(), 1);
        }
    }

    /// `vec![VecDeque::with_capacity(n); k]` pre-sizes only the last
    /// ring (a cloned empty deque has capacity 0): every ring must be
    /// built — and grow, and be reset — like every other.
    #[test]
    fn the_rings_are_built_alike() {
        let caps =
            |rs: &RingSet| -> Vec<usize> { rs.rings.iter().map(VecDeque::capacity).collect() };
        let mut rs = RingSet::new(8, 65_536);
        assert_eq!(
            rs.resident_bytes(),
            0,
            "sized by the traffic, not by a guess"
        );
        assert_eq!(caps(&rs), [0; 8]);
        for i in 0..8 * 300 {
            rs.push(i, rec(i as u32));
        }
        let grown = caps(&rs);
        assert!(
            grown.iter().all(|&c| c == grown[0] && c >= 300),
            "{grown:?}"
        );
        rs.drain();
        rs.reset();
        assert_eq!(caps(&rs), grown, "a steady segment keeps all eight");
        assert_eq!((rs.len(), rs.peak()), (0, 2_400), "the peak is cumulative");
    }

    #[test]
    fn reset_empties_in_place_and_sizes_by_the_peak() {
        let mut rs = RingSet::new(2, 100_000);
        for i in 0..40_000 {
            rs.push(i, rec(i as u32));
        }
        let caps: Vec<usize> = rs.rings.iter().map(VecDeque::capacity).collect();
        // Drained before the reset: the peak, not the length, sizes it.
        rs.drain();
        rs.reset();
        assert_eq!(rs.len, 0);
        // One rule: the tallies are cumulative, a reset rewinds none.
        assert_eq!((rs.pushed, rs.overflow_to_host), (40_000, 0));
        let kept: Vec<usize> = rs.rings.iter().map(VecDeque::capacity).collect();
        assert_eq!(kept, caps, "a steady segment keeps its buffers");
        // A quiet segment after the flood gives the memory back.
        rs.push(0, rec(0));
        rs.reset();
        assert!(rs.resident_bytes() < 64 * std::mem::size_of::<FlowRecord>());
    }
}
