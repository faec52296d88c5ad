//! Run-to-completion datapath invariants: fusing dispatcher and shard
//! into one `sw-core-{i}` thread per partition must change the thread
//! topology and *nothing else*. Per-shard decision streams, the
//! FlowCache access mix, probe histograms and the two-axis conservation
//! identity are pinned byte-identical to the pipeline datapath for the
//! same seed across synthetic, compiled (v4 and v6) and pcap-sourced
//! replays. A paced RTC core must park until its next arrival is due
//! (counted as `idle_parks`), never busy-spin, and never drop at ingest
//! (no lane to overrun: the core self-backpressures).

use smartwatch_net::{
    pcap, shard_for_digest, Dur, FlowHasher, FlowKey, FrameStore, PacketBuilder, Ts,
};
use smartwatch_runtime::books::Count;
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use smartwatch_snic::{FlowCache, FlowCacheConfig};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::compile;
use smartwatch_trace::Trace;
use std::net::Ipv4Addr;

fn workload(flows: usize, seed: u64) -> Trace {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed)
}

/// CAIDA background plus an SSH brute-force sweep: enough escalations
/// and verdicts to exercise triage, blacklists and verdict drops.
fn hostile_workload(total: usize) -> Vec<smartwatch_net::Packet> {
    let base = workload(150, 0xD00D);
    let mut packets = Vec::with_capacity(total);
    for i in 0..total {
        if i % 7 == 0 {
            let key = FlowKey::tcp(
                Ipv4Addr::new(203, 0, 113, 9),
                40_000 + (i % 32) as u16,
                Ipv4Addr::new(10, 0, 0, 1),
                22,
            );
            packets.push(PacketBuilder::new(key, Ts::from_nanos(i as u64 * 1000)).build());
        } else {
            packets.push(base.packets()[i % base.len()]);
        }
    }
    packets
}

/// A pipeline run and an RTC run of the same config over the same
/// source: deterministic recipe (inline triage) so the summaries are
/// comparable byte-for-byte.
fn run_both(
    shards: usize,
    cache_burst: usize,
    run: impl Fn(&Engine) -> smartwatch_runtime::EngineReport,
) -> (
    smartwatch_runtime::EngineReport,
    smartwatch_runtime::EngineReport,
) {
    let mut cfg = EngineConfig::new(shards);
    cfg.host_workers = 0;
    cfg.cache_burst = cache_burst;
    let pipeline = run(&Engine::new(cfg.clone()));
    cfg.datapath = DatapathMode::Rtc;
    let rtc = run(&Engine::new(cfg));
    (pipeline, rtc)
}

fn assert_equivalent(
    pipeline: &smartwatch_runtime::EngineReport,
    rtc: &smartwatch_runtime::EngineReport,
    what: &str,
) {
    assert_eq!(
        pipeline.deterministic_summary(),
        rtc.deterministic_summary(),
        "RTC decision streams diverged from pipeline: {what}"
    );
    assert!(pipeline.conserved(), "pipeline conservation: {what}");
    assert!(rtc.conserved(), "RTC conservation: {what}");
    // The FlowCache books must agree access for access, not just in
    // the decision stream: hit mix, probe lengths, prefetch pipeline.
    let (p, r) = (&pipeline.flowcache, &rtc.flowcache);
    assert_eq!(p.p_hits, r.p_hits, "p_hits: {what}");
    assert_eq!(p.e_hits, r.e_hits, "e_hits: {what}");
    assert_eq!(p.misses, r.misses, "misses: {what}");
    assert_eq!(p.to_host, r.to_host, "to_host: {what}");
    assert_eq!(p.ring_pushes, r.ring_pushes, "ring_pushes: {what}");
    assert_eq!(p.probe_hist, r.probe_hist, "probe_hist: {what}");
    assert_eq!(p.bursts, r.bursts, "bursts: {what}");
    assert_eq!(p.burst_pkts, r.burst_pkts, "burst_pkts: {what}");
    assert_eq!(p.hinted_lines, r.hinted_lines, "hinted_lines: {what}");
}

#[test]
fn rtc_is_byte_identical_to_pipeline_on_synthetic_replay() {
    let trace = workload(300, 0xBEEF);
    for shards in [1usize, 2, 4] {
        for burst in [1usize, 8] {
            let (pipeline, rtc) =
                run_both(shards, burst, |e| e.run(trace.packets(), Pace::Flatout));
            assert_equivalent(
                &pipeline,
                &rtc,
                &format!("synthetic shards={shards} burst={burst}"),
            );
            assert_eq!(
                rtc.queues.len(),
                shards,
                "RTC ingest books are per-core (queues = cores)"
            );
        }
    }
}

#[test]
fn rtc_is_byte_identical_to_pipeline_on_compiled_wire_replay() {
    let trace = workload(300, 0xBEEF);
    let store = compile(&trace);
    for shards in [1usize, 2] {
        let (pipeline, rtc) = run_both(shards, 8, |e| {
            e.run_source(FrameSource::Wire(&store), Pace::Flatout)
        });
        assert_equivalent(&pipeline, &rtc, &format!("compiled-v4 shards={shards}"));
    }
    // The synthetic replay of the same trace agrees too — the fused
    // wire front end digests bit-identically to the packet path.
    let (synthetic, _) = run_both(2, 8, |e| e.run(trace.packets(), Pace::Flatout));
    let (_, wire_rtc) = run_both(2, 8, |e| {
        e.run_source(FrameSource::Wire(&store), Pace::Flatout)
    });
    assert_eq!(
        synthetic.deterministic_summary(),
        wire_rtc.deterministic_summary(),
        "RTC wire replay diverged from the synthetic pipeline run"
    );
}

#[test]
fn rtc_is_byte_identical_to_pipeline_on_v6_wire_replay() {
    // IPv6 framing of the same trace: the fused v6 parse-and-fold
    // ingest reconstructs the same flows, so RTC must equal pipeline
    // on the same v6 store (v6 is not compared against synthetic —
    // sideband wire lengths clamp to the 20-byte-longer v6 frames).
    let trace = workload(250, 0x6666);
    let store = FrameStore::from_packets_v6(trace.packets());
    for shards in [1usize, 2] {
        let (pipeline, rtc) = run_both(shards, 8, |e| {
            e.run_source(FrameSource::Wire(&store), Pace::Flatout)
        });
        assert_equivalent(&pipeline, &rtc, &format!("compiled-v6 shards={shards}"));
    }
}

#[test]
fn rtc_is_byte_identical_to_pipeline_on_pcap_replay() {
    let trace = workload(200, 99);
    let bytes = pcap::write(trace.packets());
    let store = FrameStore::from_pcap(&bytes).expect("own pcap output parses");
    for shards in [1usize, 2] {
        let (pipeline, rtc) = run_both(shards, 8, |e| {
            e.run_source(FrameSource::Wire(&store), Pace::Flatout)
        });
        assert_equivalent(&pipeline, &rtc, &format!("pcap shards={shards}"));
    }
}

/// Stage A's work count on an all-miss stream (every packet a new
/// flow), pinned to a count made without the engine: per shard, a
/// fresh FlowCache replays the shard's packets in order, and each
/// packet adds its tag line plus the slot lines its probe touches
/// ([`FlowCache::prefetch_probe`] just before it) — one for a miss
/// into a free P bucket, the P span and an E bucket for one that
/// demotes. At width 1 the engine hints exactly that; wider, a probe's
/// hint is read before the earlier probes of its chunk file into the
/// row, so it may differ by the few chunks with two flows in one row.
/// RTC and the pipeline hint the same lines at every width; the
/// demotions put the mean above the 2 lines of a row hint, and it stays
/// under 3, where a row hint and its P span were 6.
#[test]
fn an_all_miss_stream_hints_its_tag_line_and_the_lines_its_probe_touches() {
    let packets: Vec<smartwatch_net::Packet> = (0..16_000u32)
        .map(|i| {
            let key = FlowKey::tcp(
                Ipv4Addr::from(0x0A00_0000 + i),
                1_000,
                Ipv4Addr::new(10, 9, 9, 9),
                80,
            );
            PacketBuilder::new(key, Ts::from_nanos(u64::from(i) * 100)).build()
        })
        .collect();
    let shards = 2;
    let cfg = EngineConfig::new(shards);
    let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
    cache_cfg.hash_seed = cfg.hash_seed;
    let hasher = FlowHasher::new(cfg.hash_seed);
    let mut caches: Vec<FlowCache> = (0..shards)
        .map(|_| FlowCache::new(cache_cfg.clone()))
        .collect();
    let mut expected = 0u64;
    for p in &packets {
        let (canon, digest) = hasher.digest_symmetric(&p.key);
        let fc = &mut caches[shard_for_digest(digest, shards)];
        expected += 1 + u64::from(fc.prefetch_probe(digest));
        fc.process_digested(p, &canon, digest);
    }
    let n = packets.len() as u64;
    assert!(
        expected > 2 * n + n / 100,
        "the stream demotes: {expected} lines for {n} packets"
    );
    for burst in [1usize, 8, 16] {
        let (pipeline, rtc) = run_both(shards, burst, |e| e.run(&packets, Pace::Flatout));
        assert_equivalent(&pipeline, &rtc, &format!("all-miss burst={burst}"));
        let fc = &rtc.flowcache;
        assert_eq!(fc.misses, n, "every packet is a new flow");
        assert_eq!(fc.burst_pkts, n);
        if burst == 1 {
            assert_eq!(fc.hinted_lines, expected, "burst=1");
        } else {
            assert!(
                fc.hinted_lines.abs_diff(expected) <= expected / 1000,
                "burst={burst}: {} lines hinted, {expected} touched",
                fc.hinted_lines
            );
        }
        let per_pkt = fc.hinted_lines as f64 / n as f64;
        assert!(
            per_pkt > 2.0 && per_pkt < 3.0,
            "burst={burst}: {per_pkt:.3} lines per packet"
        );
    }
}

/// The hostile replay's inline-triage shape at `shards` shards.
fn hostile_cfg(shards: usize, datapath: DatapathMode) -> EngineConfig {
    let mut cfg = EngineConfig::new(shards);
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    cfg.datapath = datapath;
    cfg
}

#[test]
fn rtc_matches_pipeline_under_hostile_traffic_and_verdicts() {
    // Escalations, inline triage verdicts, blacklist enforcement: the
    // full prevention loop must be decision-identical when fused.
    let packets = hostile_workload(30_000);
    for shards in [1usize, 2] {
        let run = |datapath| {
            let r = Engine::new(hostile_cfg(shards, datapath)).run(&packets, Pace::Flatout);
            assert!(r.conserved());
            r
        };
        let pipeline = run(DatapathMode::Pipeline);
        let rtc = run(DatapathMode::Rtc);
        assert_equivalent(&pipeline, &rtc, &format!("hostile shards={shards}"));
        assert!(
            rtc.verdicts_published > 0,
            "the sweep must actually drive triage verdicts"
        );
        assert!(
            rtc.total(Count::VerdictDropped) > 0,
            "blacklist verdicts must drop packets in RTC mode too"
        );
    }
}

#[test]
fn a_verdict_applies_once_on_the_shard_that_owns_its_flow() {
    // Each flow's verdicts apply on the one shard that owns the flow, so
    // at four shards the shards' applied verdicts and blacklist entries
    // add up to what was published — not four times it.
    let packets = hostile_workload(30_000);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let r = Engine::new(hostile_cfg(4, datapath)).run(&packets, Pace::Flatout);
        assert!(r.conserved(), "{datapath:?}");
        let appliers = r.shards.iter().filter(|s| s.counts[Count::CtrlApplied] > 0);
        assert!(appliers.count() >= 2, "{datapath:?}: one shard's verdicts");
        let blacklisted: u64 = r.shards.iter().map(|s| s.blacklisted).sum();
        assert!(r.verdicts_published > 0, "{datapath:?}");
        assert_eq!(
            (blacklisted, r.total(Count::CtrlApplied)),
            (r.verdicts_published, r.verdicts_published),
            "{datapath:?}"
        );
    }
}

#[test]
fn repeated_four_core_runs_decide_alike_without_a_finish_line() {
    // A shard's inline triage is the only publisher of its flows'
    // verdicts, so its last log poll is complete the moment it reaches
    // end of stream: no sibling needs waiting for. Twenty fused
    // four-core runs are byte-identical, and equal to the pipeline.
    let packets = hostile_workload(30_000);
    let summary = |datapath| {
        let r = Engine::new(hostile_cfg(4, datapath)).run(&packets, Pace::Flatout);
        r.deterministic_summary()
    };
    let pipeline = summary(DatapathMode::Pipeline);
    for run in 0..20 {
        assert_eq!(summary(DatapathMode::Rtc), pipeline, "run {run}");
    }
}

#[test]
fn paced_rtc_core_parks_until_its_deadline_without_drops() {
    // At a low offered rate the fused core spends most of its time
    // waiting out arrival gaps. A gap that long parks until the next
    // block is due (observable as idle_parks — no busy-spin at zero
    // load), and the core must never drop at ingest: with no lane to
    // overrun, it self-backpressures.
    let packets = workload(100, 42).into_packets();
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0;
    cfg.datapath = DatapathMode::Rtc;
    let report = Engine::new(cfg).run(&packets, Pace::RateMpps(0.05));
    assert!(report.conserved());
    assert_eq!(report.ingest_dropped(), 0, "RTC never drops at ingest");
    assert_eq!(report.processed(), packets.len() as u64);
    assert!(
        report.idle_parks() > 0,
        "paced RTC waits must park until their deadline, not busy-spin \
         (idle_parks={})",
        report.idle_parks()
    );
}

#[test]
fn rtc_serve_segments_reuse_parked_pools() {
    // Garage semantics carry over: on back-to-back segments of one
    // engine a fused core has no lane and so never allocates a lane
    // buffer.
    let trace = workload(200, 0xCAFE);
    let store = compile(&trace);
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 0;
    cfg.datapath = DatapathMode::Rtc;
    let engine = Engine::new(cfg);
    let first = engine.run_source(FrameSource::Wire(&store), Pace::Flatout);
    assert!(first.conserved());
    let second = engine.run_source(FrameSource::Wire(&store), Pace::Flatout);
    assert!(second.conserved());
    assert_eq!(
        engine
            .registry()
            .counter("runtime.pool.allocated", &[])
            .get(),
        engine.config().lane_buffers() as u64,
        "a fused core has no lane: RTC allocates no lane buffers"
    );
}
