//! Hot-path equivalence and pooling invariants.
//!
//! The engine's batched hot path (pre-digested packets, identity-hashed
//! digest sets, per-batch counter flushes) is an *optimisation* — it must
//! be observationally identical to the per-packet walk of
//! [`reference::walk_shards`], at every burst width, on both sources and both
//! datapaths, in every pacing mode that drops nothing.
//!
//! The lane-buffer test pins the zero-alloc property: a lane allocates
//! its `queue_batches + 2` buffers on its ring's first lap and from then
//! on stages into what the shard left in the slot, so the allocation
//! count stops at that bound — independent of how many packets the run
//! offers and of how the threads were scheduled.

use smartwatch_net::{Dur, FlowKey, FrameStore, Packet, PacketBuilder};
use smartwatch_runtime::books::Count;
use smartwatch_runtime::shard::ShardStats;
use smartwatch_runtime::{
    reference, DatapathMode, Engine, EngineConfig, EngineReport, FrameSource, Pace,
};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::{preset_trace, Preset};
use std::net::Ipv4Addr;

/// CAIDA background with an SSH brute-force sweep woven in: one hostile
/// source cycling 32 connections to port 22, so the run exercises
/// escalation, triage verdicts, and enforced blacklist drops.
fn workload(total: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 300, Dur::from_millis(500), 17).into_packets();
    assert!(!base.is_empty());
    let mut out = Vec::with_capacity(total);
    let mut sweep = 0u32;
    for (i, pkt) in base.iter().cycle().enumerate() {
        if out.len() >= total {
            break;
        }
        out.push(*pkt);
        if i % 7 == 3 && out.len() < total {
            let sport = 40_000 + (sweep % 32) as u16;
            let key = FlowKey::tcp(
                Ipv4Addr::new(203, 0, 113, 9),
                sport,
                Ipv4Addr::new(10, 0, 0, 1),
                22,
            );
            out.push(PacketBuilder::new(key, pkt.ts).build());
            sweep += 1;
        }
    }
    out
}

/// The engine's report equals the oracle's walk of the same source:
/// the deterministic summary, and each shard's FlowCache books.
fn assert_oracle(report: &EngineReport, source: FrameSource<'_>, cfg: &EngineConfig, what: &str) {
    let oracle = reference::walk_shards(source, cfg).expect("a modelled config");
    assert_eq!(report.deterministic_summary(), oracle.summary, "{what}");
    let caches = |s: &[ShardStats]| s.iter().map(|s| s.cache).collect::<Vec<_>>();
    assert_eq!(caches(&report.shards), caches(&oracle.shards), "{what}");
}

fn deterministic_cfg(batch: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0; // inline triage: no thread-timing races
    cfg.batch = batch;
    // Queue capacity exceeds the whole workload so paced mode cannot
    // drop: exactness must hold in *every* pacing mode, which requires
    // the paced run to be drop-free by construction.
    cfg.queue_batches = 1024;
    cfg.triage_threshold = 8;
    cfg
}

#[test]
fn batched_counters_match_per_packet_ground_truth() {
    let packets = workload(12_000);
    for batch in [64usize, 17] {
        let cfg = deterministic_cfg(batch);
        let report = Engine::new(cfg.clone()).run(&packets, Pace::Flatout);
        assert!(report.conserved());
        assert_oracle(
            &report,
            FrameSource::Packets(&packets),
            &cfg,
            &format!("batch={batch}"),
        );
        // The workload must actually exercise the interesting paths,
        // otherwise this equality is vacuous.
        assert!(report.escalated() > 0, "SSH sweep must escalate");
        assert!(report.verdicts_published > 0, "triage must blacklist");
        assert!(
            report.total(Count::VerdictDropped) > 0,
            "enforcement must drop"
        );
    }
}

#[test]
fn paced_mode_matches_ground_truth_when_drop_free() {
    let packets = workload(12_000);
    let cfg = deterministic_cfg(64);
    let report = Engine::new(cfg.clone()).run(&packets, Pace::RateMpps(1.0));
    assert!(report.conserved());
    assert_eq!(
        report.ingest_dropped(),
        0,
        "queue sized above the workload: paced mode must not drop"
    );
    assert_oracle(&report, FrameSource::Packets(&packets), &cfg, "paced");
}

#[test]
fn every_burst_width_decides_what_the_oracle_decides() {
    // The memory-level-parallel cache path (burst prefetch, the
    // miss-gated stage A, staged probes) must change *nothing* about
    // decisions. The hostile workload drives escalation, pinning, triage
    // verdicts and enforced drops — the order-sensitive paths a batching
    // bug would perturb — through both sources, both datapaths and one,
    // two and four shards, at widths 1, 8 and 16.
    let packets = workload(6_000);
    let store = FrameStore::from_packets(&packets);
    for source in [FrameSource::Packets(&packets), FrameSource::Wire(&store)] {
        for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
            for (shards, burst) in [1, 2, 4]
                .into_iter()
                .flat_map(|s| [(s, 1), (s, 8), (s, 16)])
            {
                let mut cfg = deterministic_cfg(64);
                (cfg.datapath, cfg.shards, cfg.cache_burst) = (datapath, shards, burst);
                let report = Engine::new(cfg.clone()).run_source(source, Pace::Flatout);
                let what = format!("{datapath:?} shards={shards} burst={burst}");
                // Every shard applies verdicts, so an ownership bug on
                // any shard index shows in its books.
                let drops = |s: &ShardStats| s.counts[Count::VerdictDropped];
                assert!(report.shards.iter().all(|s| drops(s) > 0), "{what}");
                assert_oracle(&report, source, &cfg, &what);
            }
        }
    }
}

#[test]
fn flowcache_report_accounts_every_access() {
    // The report's flowcache section must balance: every processed
    // packet that reached the cache is exactly one outcome and exactly
    // one probe-length histogram slot, and the burst pipeline must have
    // covered all of them at the default width.
    let packets = workload(6_000);
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    let report = Engine::new(cfg).run(&packets, Pace::Flatout);
    let fc = &report.flowcache;
    let accesses = fc.p_hits + fc.e_hits + fc.misses + fc.to_host;
    let verdict_dropped = report.total(Count::VerdictDropped);
    assert_eq!(
        accesses,
        report.processed() - verdict_dropped,
        "every non-blacklisted packet takes exactly one cache access"
    );
    assert_eq!(fc.probe_hist.iter().sum::<u64>(), accesses);
    assert_eq!(
        fc.burst_pkts,
        report.processed(),
        "the burst pipeline covers every delivered packet (blacklist \
         drops included — their rows are prefetched before the verdict)"
    );
    assert!(fc.bursts > 0);
    assert!(fc.hit_rate() > 0.0, "cycled flows must re-hit");
}

#[test]
fn multi_shard_runs_conserve_across_pacing_modes() {
    // Several shards interleave their processing in wall-clock order, so
    // exact counter equality is out of scope — but conservation and full
    // processing must hold at every (topology, shards, pace) point.
    let packets = workload(12_000);
    let paces = [
        Pace::Flatout,
        Pace::RateMpps(2.0),
        Pace::Spike {
            base_mpps: 1.0,
            peak_mpps: 4.0,
            spike_start: 0.25,
            spike_end: 0.75,
        },
    ];
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for shards in [1usize, 2, 4] {
            for pace in paces {
                let mut cfg = EngineConfig::new(shards);
                cfg.datapath = datapath;
                cfg.queue_batches = 1024; // drop-free by construction
                let units = cfg.ingest_units();
                let report = Engine::new(cfg).run(&packets, pace);
                assert!(
                    report.conserved(),
                    "{datapath:?} shards={shards} {pace:?}:\n{}",
                    report.deterministic_summary()
                );
                assert_eq!(report.queues.len(), units);
                assert_eq!(report.processed(), report.offered);
            }
        }
    }
}

#[test]
fn buffer_pool_allocations_are_bounded_and_packet_independent() {
    // Runs 8× apart in offered packets, at two and four shards (one
    // lane each): every lane holds one buffer per ring slot plus one at
    // each end, so the short runs stay under that bound and the long
    // runs — every lane well past its first lap — sit exactly on it.
    for (shards, packets) in [
        (2usize, 25_000usize),
        (2, 200_000),
        (4, 25_000),
        (4, 200_000),
    ] {
        let reg = Registry::new();
        let cfg = EngineConfig::new(shards);
        let bound = cfg.lane_buffers() as u64;
        let report = Engine::with_registry(cfg, &reg).run(&workload(packets), Pace::Flatout);
        assert!(report.conserved());
        let allocs = reg.counter("runtime.pool.allocated", &[]).get();
        let recycles = reg.counter("runtime.pool.recycled", &[]).get();
        assert!(
            allocs <= bound,
            "shards={shards} {packets} pkts: {allocs} allocations exceed the lanes' {bound} buffers"
        );
        if packets > 100_000 {
            assert_eq!(
                allocs, bound,
                "shards={shards} {packets} pkts: past the first lap every lane holds all its buffers"
            );
            assert!(
                recycles > allocs,
                "shards={shards} {packets} pkts: steady state must be recycle-dominated \
                 ({recycles} recycled vs {allocs} allocated)"
            );
        }
    }
}
