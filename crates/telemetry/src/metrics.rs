//! Metric registry: named, labeled counters, gauges, and histograms.
//!
//! Registration takes a short-lived lock on a `BTreeMap`; the returned
//! handles are `Arc`-shared atomics, so the hot path (`inc`, `set`,
//! `record`) never locks. Requesting the same `(name, labels)` twice
//! yields handles on the same underlying cell, which is what lets
//! separately-constructed components contribute to one logical metric.
//!
//! Snapshots iterate the `BTreeMap`s, so export order is always
//! `(name, labels)`-sorted — a prerequisite for byte-identical metric
//! dumps across same-seed runs.

use crate::export::Snapshot;
use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A metric's identity: name plus ordered `(key, value)` labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, dot-separated by convention (`snic.cache.hits`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// `name{k=v,...}` rendering used by the text and JSON exporters.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// A counter not attached to any registry (a null sink that still
    /// counts; useful for components instrumented before wiring).
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement (occupancy, rate, depth).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v`.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<MetricId, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<MetricId, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<MetricId, Histogram>>,
}

/// Shared metric registry; clones refer to the same store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut map = self.inner.counters.lock().unwrap();
        Counter(
            map.entry(id)
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone(),
        )
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut map = self.inner.gauges.lock().unwrap();
        Gauge(
            map.entry(id)
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone(),
        )
    }

    /// Get-or-create a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut map = self.inner.hists.lock().unwrap();
        map.entry(id).or_default().clone()
    }

    /// Deterministic point-in-time view of every registered metric,
    /// sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(id, c)| (id.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(id, g)| (id.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        let hists = self
            .inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(id, h)| (id.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            hists,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_shares_the_cell() {
        let r = Registry::new();
        let a = r.counter("hits", &[("policy", "lru")]);
        let b = r.counter("hits", &[("policy", "lru")]);
        let other = r.counter("hits", &[("policy", "fifo")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn gauge_roundtrips_floats() {
        let r = Registry::new();
        let g = r.gauge("rate", &[]);
        g.set(0.1625);
        assert_eq!(g.get(), 0.1625);
        g.set_max(0.05);
        assert_eq!(g.get(), 0.1625, "set_max must not lower");
        g.set_max(0.5);
        assert_eq!(g.get(), 0.5);
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = Registry::new();
        r.counter("zz", &[]).inc();
        r.counter("aa", &[("b", "2")]).inc();
        r.counter("aa", &[("b", "1")]).inc();
        let snap = r.snapshot();
        let names: Vec<String> = snap.counters.iter().map(|(id, _)| id.render()).collect();
        assert_eq!(names, vec!["aa{b=1}", "aa{b=2}", "zz"]);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Registry::new();
        let c = r.counter("n", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
