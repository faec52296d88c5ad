//! Host-side flow aggregation (paper §3.4).
//!
//! The sNIC exports a flow's record several times — ring-buffer evictions,
//! periodic snapshots, ageing — and "the host is responsible to correctly
//! aggregate each flow's information". The aggregator is a large host hash
//! table (the paper sizes it 2³⁰ × 1; here it grows with the flows it
//! holds) that merges every export into one record per flow. The platform
//! keeps one for the whole run: the cumulative store that flow durations
//! exist in, which the interval detectors read in place.

use smartwatch_net::FlowKey;
use smartwatch_snic::FlowRecord;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Reads one metric's value out of an aggregator.
type Reading<T> = fn(&SnapshotAggregator) -> T;

/// The aggregator's counter family: the exports it consumed, for its
/// owner's publisher (which labels the aggregator `agg=…`).
pub const COUNTERS: [(&str, Reading<u64>); 1] = [("host.aggregate.exports_in", |a| a.exports_in)];

/// The aggregator's gauge: the flows it holds now.
pub const GAUGES: [(&str, Reading<f64>); 1] = [("host.aggregate.flows", |a| a.len() as f64)];

/// Heaviest first, equal counts by flow key: a total order over
/// distinct flows, so no ranking depends on the table's hash order.
fn rank(r: &FlowRecord) -> (Reverse<u64>, FlowKey) {
    (Reverse(r.packets), r.key)
}

/// Merges repeated sNIC exports into per-flow totals.
#[derive(Clone, Debug, Default)]
pub struct SnapshotAggregator {
    flows: HashMap<FlowKey, FlowRecord>,
    /// Exports consumed.
    exports_in: u64,
}

impl SnapshotAggregator {
    /// Empty aggregator.
    pub fn new() -> SnapshotAggregator {
        SnapshotAggregator::default()
    }

    /// Ingest one exported record.
    pub(crate) fn ingest(&mut self, rec: FlowRecord) {
        self.exports_in += 1;
        self.flows
            .entry(rec.key)
            .and_modify(|e| e.merge(&rec))
            .or_insert(rec);
    }

    /// Ingest a batch (one ring drain or snapshot).
    pub fn ingest_batch<I: IntoIterator<Item = FlowRecord>>(&mut self, batch: I) {
        for r in batch {
            self.ingest(r);
        }
    }

    /// Distinct flows aggregated so far.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    /// Iterate over aggregated flows.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.values()
    }

    /// The `k` heaviest flows, heaviest first (the top-k heavy *benign*
    /// flow selection the control loop whitelists), equal counts by flow
    /// key.
    pub fn top_k(&self, k: usize) -> Vec<FlowRecord> {
        let mut out: Vec<FlowRecord> = self.flows.values().copied().collect();
        if k < out.len() {
            out.select_nth_unstable_by_key(k, rank);
            out.truncate(k);
        }
        out.sort_unstable_by_key(rank);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::Ts;
    use std::net::Ipv4Addr;

    fn rec(i: u32, packets: u64, t0: u64, t1: u64) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        );
        let mut r = FlowRecord::new(key.canonical().0, Ts::from_secs(t0), 64);
        r.packets = packets;
        r.bytes = packets * 64;
        r.last_ts = Ts::from_secs(t1);
        r
    }

    #[test]
    fn repeated_exports_merge() {
        let mut agg = SnapshotAggregator::new();
        agg.ingest(rec(1, 10, 0, 5));
        agg.ingest(rec(1, 7, 6, 9));
        agg.ingest(rec(2, 3, 1, 2));
        assert_eq!(agg.len(), 2);
        let r = agg.flows[&rec(1, 0, 0, 0).key.canonical().0];
        assert_eq!(r.packets, 17);
        assert_eq!(r.first_ts, Ts::ZERO);
        assert_eq!(r.last_ts, Ts::from_secs(9));
    }

    #[test]
    fn order_insensitive() {
        let a = {
            let mut agg = SnapshotAggregator::new();
            agg.ingest(rec(1, 10, 0, 5));
            agg.ingest(rec(1, 7, 6, 9));
            agg.flows[&rec(1, 0, 0, 0).key.canonical().0]
        };
        let b = {
            let mut agg = SnapshotAggregator::new();
            agg.ingest(rec(1, 7, 6, 9));
            agg.ingest(rec(1, 10, 0, 5));
            agg.flows[&rec(1, 0, 0, 0).key.canonical().0]
        };
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.first_ts, b.first_ts);
        assert_eq!(a.last_ts, b.last_ts);
    }

    #[test]
    fn heavy_hitters_sorted_and_filtered() {
        let mut agg = SnapshotAggregator::new();
        for i in 0..10 {
            agg.ingest(rec(i, u64::from(i) * 10, 0, 1));
        }
        let hh: Vec<FlowRecord> = agg
            .top_k(10)
            .into_iter()
            .filter(|r| r.packets >= 50)
            .collect();
        assert_eq!(hh.len(), 5);
        assert!(hh.windows(2).all(|w| w[0].packets >= w[1].packets));
        assert_eq!(agg.top_k(3).len(), 3);
        assert_eq!(agg.top_k(3)[0].packets, 90);
    }

    #[test]
    fn tied_flows_rank_alike_whatever_the_ingest_order() {
        // Twelve flows, every pair tied on packets: a ranking broken by
        // the hash table's order would differ between the two tables.
        let recs: Vec<FlowRecord> = (0..12)
            .map(|i| rec(i, 10 + u64::from(i / 2), 0, 1))
            .collect();
        let mut forward = SnapshotAggregator::new();
        forward.ingest_batch(recs.iter().copied());
        let mut backward = SnapshotAggregator::new();
        backward.ingest_batch(recs.iter().rev().copied());
        let keys = |v: Vec<FlowRecord>| v.into_iter().map(|r| r.key).collect::<Vec<_>>();
        assert_eq!(keys(forward.top_k(5)), keys(backward.top_k(5)));
        assert_eq!(keys(forward.top_k(12)), keys(backward.top_k(12)));
        let top = forward.top_k(3);
        assert_eq!((top[0].packets, top[1].packets), (15, 15));
        assert!(top[0].key < top[1].key, "ties rank by key");
    }
}
