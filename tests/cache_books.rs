//! The cache's books: a FlowCache counts each event once, in its own
//! plain integers, and its shard publishes them per batch. After a run
//! every view must tell the same story — the registry's `snic.cache.*`
//! / `snic.ring.*` cells, each shard's own `CacheStats` in the report,
//! the report's `flowcache` summary and the shard ledgers — per shard
//! and per segment, on both datapaths, with the cache reset in place
//! between segments.

use smartwatch::net::{Dur, FlowKey, Packet, PacketBuilder, Ts};
use smartwatch::runtime::books::Count;
use smartwatch::runtime::{
    AdminCmd, ControlConfig, DatapathMode, Engine, EngineConfig, EngineReport, Pace,
};
use smartwatch::snic::{CacheStats, Mode};
use smartwatch::trace::background::{preset_trace, Preset};
use std::net::Ipv4Addr;

/// Background flows, one SSH brute-forcer (escalations, pins, a
/// blacklist verdict and the drops it causes) and a scan of one-packet
/// flows — far more flows than the 2^4-row partitions hold, so rows
/// fill and evict.
fn trace() -> Vec<Packet> {
    let caida = preset_trace(Preset::Caida2018, 300, Dur::from_millis(500), 29).into_packets();
    let mut out = Vec::with_capacity(24_000);
    for (i, pkt) in caida.iter().cycle().take(8_000).enumerate() {
        let i = i as u32;
        out.push(*pkt);
        let ssh = FlowKey::tcp(
            Ipv4Addr::new(203, 0, 113, 9),
            40_000 + (i % 48) as u16,
            Ipv4Addr::new(10, 0, 0, 1),
            22,
        );
        out.push(PacketBuilder::new(ssh, pkt.ts).build());
        let scan = FlowKey::tcp(
            Ipv4Addr::from(0x0B00_0000 + i),
            1024 + (i % 60_000) as u16,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        out.push(PacketBuilder::new(scan, pkt.ts).build());
    }
    for (i, pkt) in out.iter_mut().enumerate() {
        pkt.ts = Ts::from_micros(i as u64);
    }
    out
}

/// Two shards over small partitions, inline triage, and a controller
/// that does nothing but relay the admin edit each segment queues.
fn engine(datapath: DatapathMode) -> Engine {
    let mut cfg = EngineConfig::new(2);
    cfg.datapath = datapath;
    cfg.cache_row_bits = 4;
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    Engine::new(cfg.with_control(ControlConfig {
        epoch_ms: 2,
        ..ControlConfig::default()
    }))
}

/// The registry's `snic.cache.*{policy=lru-lpc}` cells — cumulative,
/// summed over every shard that publishes there — in the books' shape.
fn registry_books(engine: &Engine) -> CacheStats {
    let cell = |name: &str| {
        let name = format!("snic.cache.{name}");
        engine
            .registry()
            .counter(&name, &[("policy", "lru-lpc")])
            .get()
    };
    CacheStats {
        p_hits: cell("p_hits"),
        e_hits: cell("e_hits"),
        misses: cell("misses"),
        to_host: cell("to_host"),
        evictions: cell("evictions"),
        rows_cleaned: cell("rows_cleaned"),
        cleanup_evictions: cell("cleanup_evictions"),
        pins: cell("pins"),
        unpins: cell("unpins"),
        mode_switches: cell("mode_switches"),
    }
}

fn ring_cell(engine: &Engine, name: &str) -> u64 {
    engine.registry().counter(name, &[]).get()
}

/// One paced segment with shard 0 forced into Lite mid-run: the edit is
/// queued once shard 0 has seen 2 000 packets — its 192 buckets filled
/// long before — so the flip finds crowded rows to clean, whatever the
/// scheduler does.
fn segment(engine: &Engine, packets: &[Packet]) -> EngineReport {
    let seen = engine
        .registry()
        .counter("runtime.shard.processed", &[("shard", "0")]);
    let warm = seen.get() + 2_000;
    let report = std::thread::scope(|scope| {
        let run = scope.spawn(|| engine.run(packets, Pace::RateMpps(0.2)));
        while seen.get() < warm {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(engine.admin(AdminCmd::ForceMode {
            shard: 0,
            mode: Some(Mode::Lite),
        }));
        run.join().expect("the run panicked")
    });
    assert!(
        report.conserved(),
        "books do not balance:\n{}",
        report.deterministic_summary()
    );
    report
}

/// Every view of one segment agrees. `published` is what the registry
/// gained over the segment.
fn check(label: &str, report: &EngineReport, published: CacheStats, ring_pushed: u64) {
    let [a, b] = [report.shards[0].cache, report.shards[1].cache];
    // Σ over the two shards, said with the one operator the books have.
    assert_eq!(published - a, b, "{label}: registry ≠ Σ shards");
    assert_eq!(ring_pushed, a.evictions + b.evictions, "{label}: ring");

    let fc = &report.flowcache;
    let accesses = fc.p_hits + fc.e_hits + fc.misses + fc.to_host;
    assert_eq!(
        [fc.p_hits, fc.e_hits, fc.misses, fc.to_host],
        [
            published.p_hits,
            published.e_hits,
            published.misses,
            published.to_host
        ],
        "{label}: report.flowcache ≠ Σ shards"
    );
    assert_eq!(
        fc.ring_pushes,
        published.evictions - published.cleanup_evictions,
        "{label}: ring_pushes"
    );
    assert_eq!(fc.probe_hist.iter().sum::<u64>(), accesses, "{label}");
    // A packet reaches the cache unless a verdict dropped it first.
    assert_eq!(
        accesses,
        report.processed() - report.total(Count::VerdictDropped),
        "{label}: cache accesses vs the shard ledgers"
    );
}

#[test]
fn every_view_of_the_caches_books_agrees_per_shard_and_per_segment() {
    let packets = trace();
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let label = format!("{datapath:?}");
        let engine = engine(datapath);

        let first = segment(&engine, &packets);
        let after_first = registry_books(&engine);
        let pushed_first = ring_cell(&engine, "snic.ring.pushed");
        check(
            &format!("{label}, segment 1"),
            &first,
            after_first,
            pushed_first,
        );

        // The trace did what it was built to do.
        let s = after_first;
        assert!(
            s.p_hits > 0 && s.misses > 0 && s.evictions > 0,
            "{label}: {s:?}"
        );
        assert!(
            s.pins > 0 && s.unpins > 0,
            "{label}: escalations pin: {s:?}"
        );
        assert!(first.total(Count::VerdictDropped) > 0, "{label}");
        assert!(
            s.mode_switches > 0 && s.rows_cleaned > 0 && s.cleanup_evictions > 0,
            "{label}: the forced Lite flip must reach shard 0's cache: {s:?}"
        );
        assert_eq!(
            first.shards[1].cache.rows_cleaned, 0,
            "{label}: shard 1 stayed General"
        );

        // `stats()` of shard i counts shard i only: the two shards
        // saw different flows, and neither holds the total.
        let [a, b] = [first.shards[0].cache, first.shards[1].cache];
        assert!(
            a.misses > 0 && b.misses > 0 && a != b,
            "{label}: {a:?} {b:?}"
        );

        // A second segment reports only its own share, while the
        // registry — and the caches — hold both.
        let second = segment(&engine, &packets);
        let after_second = registry_books(&engine);
        let pushed_second = ring_cell(&engine, "snic.ring.pushed");
        check(
            &format!("{label}, segment 2"),
            &second,
            after_second - after_first,
            pushed_second - pushed_first,
        );
        assert!(after_second.misses > after_first.misses, "{label}");
        // Fewer evictions per partition than one ring holds: none
        // can have overflowed.
        assert!(pushed_second < 65_536, "{label}");
        assert_eq!(
            ring_cell(&engine, "snic.ring.overflow_to_host"),
            0,
            "{label}"
        );
    }
}
