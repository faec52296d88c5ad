//! The FlowCache's publisher: the one place the cache's and its rings'
//! books meet a metric registry.
//!
//! A [`FlowCache`] counts in plain integers and holds no metric handle
//! (see its module doc); whoever owns the cache holds a
//! [`CachePublisher`] beside it and calls [`CachePublisher::publish`]
//! at a boundary it already has — an engine shard once per batch and at
//! its finish, the platform simulator at each interval end, an
//! experiment after its run. Live readers of `snic.cache.*` /
//! `snic.ring.*` are therefore at most one such boundary stale, and the
//! final values are exact.
//!
//! The publisher remembers what it has already added, so each publish
//! adds only what the cache counted since the last one; because the
//! books are cumulative for the cache's life, that difference is never
//! negative — not across [`FlowCache::reset`], not across segments —
//! and several caches publishing to the same cells (every shard of an
//! engine shares one policy label) simply sum. One publisher serves one
//! cache for its whole life.

use crate::flowcache::{CacheStats, FlowCache};
use crate::policy::CachePolicy;
use smartwatch_telemetry::{Counter, Gauge, Registry};

/// Reads one tally out of the cache's books.
type Tally = fn(&CacheStats) -> u64;

/// The name table: every `snic.cache.*{policy=…}` counter, and the
/// tally of the cache's books it carries.
const CACHE_CELLS: [(&str, Tally); 10] = [
    ("snic.cache.p_hits", |s| s.p_hits),
    ("snic.cache.e_hits", |s| s.e_hits),
    ("snic.cache.misses", |s| s.misses),
    ("snic.cache.to_host", |s| s.to_host),
    ("snic.cache.evictions", |s| s.evictions),
    ("snic.cache.rows_cleaned", |s| s.rows_cleaned),
    ("snic.cache.cleanup_evictions", |s| s.cleanup_evictions),
    ("snic.cache.pins", |s| s.pins),
    ("snic.cache.unpins", |s| s.unpins),
    ("snic.cache.mode_switches", |s| s.mode_switches),
];

/// Publishes one [`FlowCache`]'s books into a [`Registry`].
#[derive(Debug)]
pub struct CachePublisher {
    /// The `snic.cache.*` cells, in [`CACHE_CELLS`] order.
    cache: [Counter; CACHE_CELLS.len()],
    ring_pushed: Counter,
    ring_overflow: Counter,
    ring_occupancy: Gauge,
    ring_occupancy_peak: Gauge,
    /// The cache's books as of the last publish: what the cells have
    /// been given so far.
    published: CacheStats,
    /// Likewise for the rings: `(pushed, overflow_to_host)`.
    published_ring: (u64, u64),
}

impl CachePublisher {
    /// Cells for a cache running `policy`, registered in `registry`
    /// (shared with every other cache of the same policy there).
    /// Nothing is added until the first [`CachePublisher::publish`],
    /// which carries over whatever the cache has counted so far.
    pub fn new(registry: &Registry, policy: &CachePolicy) -> CachePublisher {
        let policy = policy.label();
        let labels = [("policy", policy.as_str())];
        CachePublisher {
            cache: CACHE_CELLS.map(|(name, _)| registry.counter(name, &labels)),
            ring_pushed: registry.counter("snic.ring.pushed", &[]),
            ring_overflow: registry.counter("snic.ring.overflow_to_host", &[]),
            ring_occupancy: registry.gauge("snic.ring.occupancy", &[]),
            ring_occupancy_peak: registry.gauge("snic.ring.occupancy_peak", &[]),
            published: CacheStats::default(),
            published_ring: (0, 0),
        }
    }

    /// Add what `cache` and its rings counted since the last publish,
    /// and set the two ring gauges. A tally or gauge that did not move
    /// costs no write to its (possibly shared) cell.
    pub fn publish(&mut self, cache: &FlowCache) {
        let add = |cell: &Counter, n: u64| {
            if n > 0 {
                cell.add(n);
            }
        };
        let now = cache.stats();
        let new = now - self.published;
        for ((_, tally), cell) in CACHE_CELLS.iter().zip(&self.cache) {
            add(cell, tally(&new));
        }
        self.published = now;

        let rings = cache.ring_books();
        let (pushed, overflow) = self.published_ring;
        add(&self.ring_pushed, rings.pushed - pushed);
        add(&self.ring_overflow, rings.overflow_to_host - overflow);
        self.published_ring = (rings.pushed, rings.overflow_to_host);
        let occupancy = rings.len() as f64;
        if self.ring_occupancy.get() != occupancy {
            self.ring_occupancy.set(occupancy);
        }
        self.ring_occupancy_peak.set_max(rings.peak() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowcache::{FlowCacheConfig, Mode};
    use smartwatch_net::{FlowKey, Packet, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A00_0000 + i),
            1000,
            Ipv4Addr::from(0xAC10_0001),
            80,
        )
    }

    fn pkt(i: u32, ts_us: u64) -> Packet {
        PacketBuilder::new(key(i), Ts::from_micros(ts_us)).build()
    }

    /// A 4-row (2,2) cache over 2-record rings: a short stream makes it
    /// evict, overflow its rings, pin, unpin, flip to Lite and clean.
    fn crowded() -> FlowCache {
        let mut cfg = FlowCacheConfig::split(2, 2, 2, CachePolicy::LRU_LPC);
        cfg.ring_capacity = 2;
        FlowCache::new(cfg)
    }

    /// One life's worth of every event the books have a tally for.
    fn churn(fc: &mut FlowCache, from: u32) {
        for i in from..from + 400 {
            fc.process(&pkt(i % 90, u64::from(i)));
            // Back to a flow from a few inserts ago: hits in P and in E.
            fc.process(&pkt((i + 84) % 90, u64::from(i)));
            if i % 50 == 0 {
                fc.pin(&key(i % 90));
            }
            if i % 70 == 0 {
                fc.unpin(&key((i + 70) % 90));
            }
            if i % 200 == 150 {
                fc.set_mode(Mode::Lite);
            }
        }
        fc.set_mode(Mode::General);
    }

    /// The registry's view of one policy's cache cells plus the two ring
    /// counters, in the books' own shape.
    fn cells(reg: &Registry, policy: &str) -> (CacheStats, (u64, u64)) {
        let snap = reg.snapshot();
        let cache = |name: &str| {
            snap.counter(&format!("snic.cache.{name}{{policy={policy}}}"))
                .expect("registered")
        };
        let stats = CacheStats {
            p_hits: cache("p_hits"),
            e_hits: cache("e_hits"),
            misses: cache("misses"),
            to_host: cache("to_host"),
            evictions: cache("evictions"),
            rows_cleaned: cache("rows_cleaned"),
            cleanup_evictions: cache("cleanup_evictions"),
            pins: cache("pins"),
            unpins: cache("unpins"),
            mode_switches: cache("mode_switches"),
        };
        let ring = |name: &str| {
            snap.counter(&format!("snic.ring.{name}"))
                .expect("registered")
        };
        (stats, (ring("pushed"), ring("overflow_to_host")))
    }

    #[test]
    fn publish_carries_every_tally_to_its_own_cell() {
        let reg = Registry::new();
        let mut fc = crowded();
        let mut books = CachePublisher::new(&reg, &fc.config().policy);
        churn(&mut fc, 0);
        let s = fc.stats();
        for (name, tally) in CACHE_CELLS {
            assert!(tally(&s) > 0, "the stream never exercised {name}");
        }
        assert!(fc.ring_overflow() > 0, "2-record rings must overflow");
        books.publish(&fc);
        assert_eq!(
            cells(&reg, "lru-lpc"),
            (s, (s.evictions, fc.ring_overflow()))
        );
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("snic.ring.occupancy"), Some(8.0), "8 rings × 2");
        assert_eq!(snap.gauge("snic.ring.occupancy_peak"), Some(8.0));
    }

    #[test]
    fn a_second_publish_with_nothing_new_adds_nothing() {
        let reg = Registry::new();
        let mut fc = crowded();
        let mut books = CachePublisher::new(&reg, &fc.config().policy);
        churn(&mut fc, 0);
        books.publish(&fc);
        let once = cells(&reg, "lru-lpc");
        books.publish(&fc);
        assert_eq!(cells(&reg, "lru-lpc"), once);
        // … and a publish after more work adds exactly that work.
        churn(&mut fc, 400);
        books.publish(&fc);
        assert_eq!(cells(&reg, "lru-lpc").0, fc.stats());
    }

    #[test]
    fn a_cloned_cache_never_reaches_the_originals_cells() {
        let reg = Registry::new();
        let mut fc = crowded();
        let mut books = CachePublisher::new(&reg, &fc.config().policy);
        churn(&mut fc, 0);
        books.publish(&fc);
        let published = cells(&reg, "lru-lpc");
        // A throughput-search probe: same table, same books, own life.
        let mut probe = fc.clone();
        assert_eq!(probe.stats(), fc.stats());
        churn(&mut probe, 400);
        assert!(probe.stats() != fc.stats());
        books.publish(&fc);
        assert_eq!(cells(&reg, "lru-lpc"), published, "the probe counted alone");
    }

    #[test]
    fn published_cells_never_go_backwards_across_reset() {
        let reg = Registry::new();
        let mut fc = crowded();
        let mut books = CachePublisher::new(&reg, &fc.config().policy);
        churn(&mut fc, 0);
        books.publish(&fc);
        let first = cells(&reg, "lru-lpc");
        let peak = reg.snapshot().gauge("snic.ring.occupancy_peak");

        fc.reset();
        assert_eq!(fc.stats(), first.0, "a reset rewinds no tally");
        books.publish(&fc);
        assert_eq!(cells(&reg, "lru-lpc"), first);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge("snic.ring.occupancy"),
            Some(0.0),
            "rings emptied"
        );
        assert_eq!(snap.gauge("snic.ring.occupancy_peak"), peak);

        // The second life lands on top of the first.
        churn(&mut fc, 0);
        books.publish(&fc);
        let (stats, (pushed, overflow)) = cells(&reg, "lru-lpc");
        let (first_stats, (first_pushed, first_overflow)) = first;
        assert_eq!(stats, fc.stats());
        assert!(stats.misses > first_stats.misses);
        assert!(pushed > first_pushed && overflow >= first_overflow);
    }
}
