//! Eviction ring buffers (paper §3.2).
//!
//! The FlowCache dedicates 8 ring buffers of 64 Ki entries each; evicted
//! flow records land in a ring and are drained by the host's snapshot
//! thread. Eight rings exist to spread contention across the 80 PMEs; in
//! the deterministic simulator the ring index is derived from the row hash
//! so the distribution is reproducible.

use crate::record::FlowRecord;
use smartwatch_net::Resident;
use smartwatch_telemetry::{Counter, Gauge, Registry};
use std::collections::VecDeque;

/// Registry handles mirroring the ring set's public counters (present
/// only after [`RingSet::attach_telemetry`]).
#[derive(Debug)]
struct RingTelemetry {
    pushed: Counter,
    overflow: Counter,
    occupancy: Gauge,
    occupancy_peak: Gauge,
}

/// A set of fixed-capacity eviction rings.
#[derive(Debug)]
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
    telemetry: Option<RingTelemetry>,
}

impl Clone for RingSet {
    /// Clones keep the buffered records and counts but are detached from
    /// any registry: throughput probes clone whole caches, and their ring
    /// activity must not leak into the original's metrics.
    fn clone(&self) -> RingSet {
        RingSet {
            rings: self.rings.clone(),
            high_water: self.high_water.clone(),
            capacity: self.capacity,
            overflow_to_host: self.overflow_to_host,
            pushed: self.pushed,
            telemetry: None,
        }
    }
}

impl RingSet {
    /// `n_rings` rings of `capacity` records each (paper: 8 × 65 536).
    pub fn new(n_rings: usize, capacity: usize) -> RingSet {
        assert!(n_rings > 0 && capacity > 0);
        RingSet {
            rings: vec![VecDeque::with_capacity(capacity.min(1024)); n_rings],
            high_water: vec![0; n_rings],
            capacity,
            overflow_to_host: 0,
            pushed: 0,
            telemetry: None,
        }
    }

    /// Mirror this ring set's activity into `registry` as
    /// `snic.ring.{pushed,overflow_to_host,occupancy,occupancy_peak}`,
    /// carrying current values over.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let t = RingTelemetry {
            pushed: registry.counter("snic.ring.pushed", &[]),
            overflow: registry.counter("snic.ring.overflow_to_host", &[]),
            occupancy: registry.gauge("snic.ring.occupancy", &[]),
            occupancy_peak: registry.gauge("snic.ring.occupancy_peak", &[]),
        };
        t.pushed.add(self.pushed);
        t.overflow.add(self.overflow_to_host);
        let occ = self.len() as f64;
        t.occupancy.set(occ);
        t.occupancy_peak.set_max(occ);
        self.telemetry = Some(t);
    }

    fn note_occupancy(&self) {
        if let Some(t) = &self.telemetry {
            let occ = self.len() as f64;
            t.occupancy.set(occ);
            t.occupancy_peak.set_max(occ);
        }
    }

    /// Back to the state [`RingSet::new`] built, in place: rings empty,
    /// plain tallies zeroed (registry cells are cumulative and stay),
    /// ring buffers kept under the [`Resident`] shrink rule.
    pub fn reset(&mut self) {
        self.note_high_water();
        for (ring, high) in self.rings.iter_mut().zip(&mut self.high_water) {
            ring.reset_to(std::mem::take(high));
        }
        self.overflow_to_host = 0;
        self.pushed = 0;
        self.note_occupancy();
    }

    /// Heap bytes the ring buffers hold.
    pub fn resident_bytes(&self) -> usize {
        self.rings.iter().map(Resident::resident_bytes).sum()
    }

    fn note_high_water(&mut self) {
        for (ring, high) in self.rings.iter().zip(&mut self.high_water) {
            *high = (*high).max(ring.len());
        }
    }

    /// Paper configuration: 8 rings × 64 Ki entries.
    pub fn paper_default() -> RingSet {
        RingSet::new(8, 64 * 1024)
    }

    /// Number of rings.
    pub fn n_rings(&self) -> usize {
        self.rings.len()
    }

    /// Push an evicted record; `row` selects the ring. Returns `false` if
    /// the ring was full (record counted as overflow-to-host).
    pub fn push(&mut self, row: usize, rec: FlowRecord) -> bool {
        self.pushed += 1;
        let n = self.rings.len();
        let ring = &mut self.rings[row % n];
        let accepted = if ring.len() >= self.capacity {
            self.overflow_to_host += 1;
            false
        } else {
            ring.push_back(rec);
            true
        };
        if let Some(t) = &self.telemetry {
            t.pushed.inc();
            if !accepted {
                t.overflow.inc();
            }
        }
        self.note_occupancy();
        accepted
    }

    /// Records currently buffered across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// True if no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.is_empty())
    }

    /// Drain everything (the host snapshot thread's read).
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        self.note_high_water();
        let mut out = Vec::with_capacity(self.len());
        for ring in &mut self.rings {
            out.extend(ring.drain(..));
        }
        self.note_occupancy();
        out
    }

    /// Drain at most `max` records round-robin across rings (models a
    /// host thread with a bounded per-wakeup budget).
    pub fn drain_up_to(&mut self, max: usize) -> Vec<FlowRecord> {
        self.note_high_water();
        let mut out = Vec::new();
        'outer: loop {
            let mut any = false;
            for ring in &mut self.rings {
                if let Some(r) = ring.pop_front() {
                    out.push(r);
                    any = true;
                    if out.len() >= max {
                        break 'outer;
                    }
                }
            }
            if !any {
                break;
            }
        }
        self.note_occupancy();
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
        assert!(rs.is_empty());
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
        assert!(rs.is_empty());
        assert_eq!((rs.pushed, rs.overflow_to_host), (0, 0));
        let kept: Vec<usize> = rs.rings.iter().map(VecDeque::capacity).collect();
        assert_eq!(kept, caps, "a steady segment keeps its buffers");
        // A quiet segment after the flood gives the memory back.
        rs.push(0, rec(0));
        rs.reset();
        assert!(rs.resident_bytes() < 64 * std::mem::size_of::<FlowRecord>());
    }

    #[test]
    fn bounded_drain_respects_budget() {
        let mut rs = RingSet::new(2, 100);
        for i in 0..20 {
            rs.push(i, rec(i as u32));
        }
        let batch = rs.drain_up_to(7);
        assert_eq!(batch.len(), 7);
        assert_eq!(rs.len(), 13);
        let rest = rs.drain_up_to(1000);
        assert_eq!(rest.len(), 13);
    }
}
