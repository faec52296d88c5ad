//! Flow-log datastore (paper §3.4): the Redis stand-in.
//!
//! Per measurement interval, the host cache flushes aggregated flow
//! records into a keyed store for offline analysis ("comprehensive
//! inspection of all flows offline"). The store is interval-indexed;
//! offline analyses read an interval's records from here.

use smartwatch_snic::FlowRecord;
use std::collections::BTreeMap;

/// Reads one metric's value out of the store.
type Reading<T> = fn(&FlowLogStore) -> T;

/// The store's counter families: each `host.flowlog.*` counter and the
/// count it carries, for its owner's publisher.
pub const COUNTERS: [(&str, Reading<u64>); 2] = [
    ("host.flowlog.flushes", |s| s.flushes),
    ("host.flowlog.records_in", |s| s.len() as u64),
];

/// The store's size gauges: records and intervals held.
pub const GAUGES: [(&str, Reading<f64>); 2] = [
    ("host.flowlog.records", |s| s.len() as f64),
    ("host.flowlog.intervals", |s| s.n_intervals() as f64),
];

/// Interval-keyed flow-log store.
#[derive(Clone, Debug, Default)]
pub struct FlowLogStore {
    intervals: BTreeMap<u64, Vec<FlowRecord>>,
    /// Batches stored.
    flushes: u64,
}

impl FlowLogStore {
    /// Empty store.
    pub fn new() -> FlowLogStore {
        FlowLogStore::default()
    }

    /// Append a flushed batch under measurement-interval `interval`.
    /// Repeated flushes into the same interval accumulate.
    pub fn store(&mut self, interval: u64, records: Vec<FlowRecord>) {
        self.intervals.entry(interval).or_default().extend(records);
        self.flushes += 1;
    }

    /// Number of intervals recorded.
    pub fn n_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Records of one interval.
    pub fn interval(&self, interval: u64) -> &[FlowRecord] {
        self.intervals
            .get(&interval)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total records stored.
    pub(crate) fn len(&self) -> usize {
        self.intervals.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, Ts};
    use std::net::Ipv4Addr;

    fn rec(i: u32, packets: u64) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1,
            Ipv4Addr::from(0xAC100001),
            80,
        );
        let mut r = FlowRecord::new(key.canonical().0, Ts::ZERO, 64);
        r.packets = packets;
        r
    }

    #[test]
    fn store_and_query_intervals() {
        let mut s = FlowLogStore::new();
        s.store(0, vec![rec(1, 5), rec(2, 50)]);
        s.store(0, vec![rec(1, 5)]); // second flush, same interval
        s.store(1, vec![rec(2, 10)]);
        assert_eq!(s.n_intervals(), 2);
        assert_eq!(s.len(), 4);
        let packets = |i| -> u64 {
            let key = rec(i, 0).key;
            s.interval(0)
                .iter()
                .filter(|r| r.key == key)
                .map(|r| r.packets)
                .sum()
        };
        assert_eq!(packets(1), 10, "repeated flushes accumulate");
        assert_eq!(packets(2), 50);
        assert_eq!(s.interval(1).len(), 1);
    }
}
