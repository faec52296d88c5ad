//! The FlowCache's name table: the one place the cache's and its rings'
//! books are given metric names.
//!
//! A [`FlowCache`] counts in plain integers and holds no metric handle
//! (see its module doc); whoever owns the cache holds the
//! [`Publisher`] [`cache_publisher`] builds beside it and publishes at a
//! boundary it already has — an engine shard once per batch and at its
//! finish, the platform simulator at each interval end, an experiment
//! after its run. Live readers of `snic.cache.*` / `snic.ring.*` are
//! therefore at most one such boundary stale, and the final values are
//! exact.
//!
//! The books are cumulative for the cache's life — not rewound by
//! [`FlowCache::reset`], not by a new segment — so each publish adds
//! what the cache counted since the last one, and several caches
//! publishing to the same cells (every shard of an engine shares one
//! policy label) simply sum. One publisher serves one cache for its
//! whole life.

use crate::flowcache::FlowCache;
use crate::policy::CachePolicy;
use smartwatch_telemetry::{Level, Publisher, Registry, Tally};

/// Every `snic.cache.*{policy=…}` counter, and the tally of the cache's
/// books it carries.
const CACHE_COUNTERS: [(&str, Tally<FlowCache>); 10] = [
    ("snic.cache.p_hits", |c| c.stats().p_hits),
    ("snic.cache.e_hits", |c| c.stats().e_hits),
    ("snic.cache.misses", |c| c.stats().misses),
    ("snic.cache.to_host", |c| c.stats().to_host),
    ("snic.cache.evictions", |c| c.stats().evictions),
    ("snic.cache.rows_cleaned", |c| c.stats().rows_cleaned),
    ("snic.cache.cleanup_evictions", |c| {
        c.stats().cleanup_evictions
    }),
    ("snic.cache.pins", |c| c.stats().pins),
    ("snic.cache.unpins", |c| c.stats().unpins),
    ("snic.cache.mode_switches", |c| c.stats().mode_switches),
];

/// The eviction rings' counters (unlabelled: one family for every cache).
const RING_COUNTERS: [(&str, Tally<FlowCache>); 2] = [
    ("snic.ring.pushed", |c| c.ring_books().pushed),
    ("snic.ring.overflow_to_host", |c| {
        c.ring_books().overflow_to_host
    }),
];

/// Records the rings hold now.
const RING_GAUGES: [(&str, Level<FlowCache>); 1] =
    [("snic.ring.occupancy", |c| c.ring_books().len() as f64)];

/// The most the rings ever held — a peak every shard's publisher raises.
const RING_PEAKS: [(&str, Level<FlowCache>); 1] =
    [("snic.ring.occupancy_peak", |c| c.ring_books().peak() as f64)];

/// A publisher of one cache running `policy` into `registry` (its
/// `snic.cache.*` cells shared with every other cache of the same
/// policy there). The first publish carries over whatever the cache has
/// counted so far.
pub fn cache_publisher(registry: &Registry, policy: &CachePolicy) -> Publisher<FlowCache> {
    let policy = policy.label();
    Publisher::new(registry, &[("policy", policy.as_str())])
        .counters(&CACHE_COUNTERS)
        .join(
            Publisher::new(registry, &[])
                .counters(&RING_COUNTERS)
                .gauges(&RING_GAUGES)
                .peaks(&RING_PEAKS),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowcache::{CacheStats, FlowCacheConfig, Mode};
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
        let mut books = cache_publisher(&reg, &fc.config().policy);
        churn(&mut fc, 0);
        let s = fc.stats();
        for (name, tally) in CACHE_COUNTERS {
            assert!(tally(&fc) > 0, "the stream never exercised {name}");
        }
        assert!(
            fc.ring_books().overflow_to_host > 0,
            "2-record rings must overflow"
        );
        books.publish(&fc);
        assert_eq!(
            cells(&reg, "lru-lpc"),
            (s, (s.evictions, fc.ring_books().overflow_to_host))
        );
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("snic.ring.occupancy"), Some(8.0), "8 rings × 2");
        assert_eq!(snap.gauge("snic.ring.occupancy_peak"), Some(8.0));
    }

    #[test]
    fn a_second_publish_with_nothing_new_adds_nothing() {
        let reg = Registry::new();
        let mut fc = crowded();
        let mut books = cache_publisher(&reg, &fc.config().policy);
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
        let mut books = cache_publisher(&reg, &fc.config().policy);
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
        let mut books = cache_publisher(&reg, &fc.config().policy);
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
