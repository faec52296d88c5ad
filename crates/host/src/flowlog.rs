//! Flow-log datastore (paper §3.4): the Redis stand-in.
//!
//! Per measurement interval, the host cache flushes aggregated flow
//! records into a keyed store for offline analysis ("comprehensive
//! inspection of all flows offline"). The store is interval-indexed; the
//! offline analyses (heavy hitters, Slowloris) read from here.

use smartwatch_net::FlowKey;
use smartwatch_snic::FlowRecord;
use std::cmp::Reverse;
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

    /// Iterate `(interval, records)` in interval order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[FlowRecord])> {
        self.intervals.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Total records stored.
    pub fn len(&self) -> usize {
        self.intervals.values().map(Vec::len).sum()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-flow packet totals within one interval (merging any duplicate
    /// records from multiple flushes).
    pub fn flow_counts(&self, interval: u64) -> std::collections::HashMap<FlowKey, u64> {
        let mut out = std::collections::HashMap::new();
        for r in self.interval(interval) {
            *out.entry(r.key).or_insert(0) += r.packets;
        }
        out
    }

    /// Exact heavy hitters of one interval: flows with ≥ `threshold`
    /// packets, heaviest first (equal counts by flow key).
    pub fn heavy_hitters(&self, interval: u64, threshold: u64) -> Vec<(FlowKey, u64)> {
        let mut v: Vec<(FlowKey, u64)> = self
            .flow_counts(interval)
            .into_iter()
            .filter(|(_, c)| *c >= threshold)
            .collect();
        v.sort_unstable_by_key(|&(k, c)| (Reverse(c), k));
        v
    }
}

/// Persistence: the Redis stand-in's dump/restore cycle for offline
/// forensics ("comprehensive inspection of all flows offline", §1).
impl FlowLogStore {
    /// Serialise the whole store as JSON.
    pub fn to_json(&self) -> String {
        let dump: Vec<(u64, &Vec<FlowRecord>)> =
            self.intervals.iter().map(|(k, v)| (*k, v)).collect();
        serde_json::to_string(&dump).expect("flow records serialise")
    }

    /// Restore a store from [`FlowLogStore::to_json`] output.
    pub fn from_json(json: &str) -> Result<FlowLogStore, serde_json::Error> {
        let dump: Vec<(u64, Vec<FlowRecord>)> = serde_json::from_str(json)?;
        Ok(FlowLogStore {
            intervals: dump.into_iter().collect(),
            ..FlowLogStore::default()
        })
    }

    /// Write the store to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a store from a file written by [`FlowLogStore::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<FlowLogStore> {
        let json = std::fs::read_to_string(path)?;
        FlowLogStore::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::Ts;
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
        let counts = s.flow_counts(0);
        assert_eq!(counts[&rec(1, 0).key], 10);
        assert_eq!(counts[&rec(2, 0).key], 50);
    }

    #[test]
    fn heavy_hitters_exact() {
        let mut s = FlowLogStore::new();
        s.store(0, (0..20).map(|i| rec(i, u64::from(i))).collect());
        let hh = s.heavy_hitters(0, 15);
        assert_eq!(hh.len(), 5);
        assert_eq!(hh[0].1, 19);
    }

    #[test]
    fn tied_flows_rank_alike_whatever_the_store_order() {
        let recs: Vec<FlowRecord> = (0..12).map(|i| rec(i, 10 + u64::from(i / 3))).collect();
        let mut forward = FlowLogStore::new();
        forward.store(0, recs.clone());
        let mut backward = FlowLogStore::new();
        backward.store(0, recs.into_iter().rev().collect());
        assert_eq!(forward.heavy_hitters(0, 11), backward.heavy_hitters(0, 11));
        let hh = forward.heavy_hitters(0, 13);
        assert_eq!(hh.len(), 3);
        assert!(hh.windows(2).all(|w| w[0].0 < w[1].0), "ties rank by key");
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use smartwatch_net::{FlowKey, Ts};
    use std::net::Ipv4Addr;

    fn store() -> FlowLogStore {
        let mut s = FlowLogStore::new();
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            5,
            Ipv4Addr::new(172, 16, 0, 1),
            80,
        )
        .canonical()
        .0;
        let mut r = FlowRecord::new(key, Ts::from_secs(3), 64);
        r.packets = 41;
        r.state_a = 7;
        s.store(0, vec![r]);
        s.store(2, vec![r, r]);
        s
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = store();
        let restored = FlowLogStore::from_json(&s.to_json()).unwrap();
        assert_eq!(restored.n_intervals(), s.n_intervals());
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.interval(0), s.interval(0));
        assert_eq!(restored.interval(2), s.interval(2));
        assert_eq!(restored.flow_counts(2), s.flow_counts(2));
    }

    #[test]
    fn file_round_trip() {
        let s = store();
        let dir = std::env::temp_dir().join("smartwatch-flowlog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        s.save(&path).unwrap();
        let restored = FlowLogStore::load(&path).unwrap();
        assert_eq!(restored.len(), s.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_json_rejected() {
        assert!(FlowLogStore::from_json("not json").is_err());
    }
}
