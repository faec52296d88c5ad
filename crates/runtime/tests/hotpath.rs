//! Hot-path equivalence and pooling invariants.
//!
//! The engine's batched hot path (pre-digested packets, identity-hashed
//! digest sets, per-batch counter flushes) is an *optimisation* — it must
//! be observationally identical to the obvious scalar pipeline. The
//! reference model here processes one packet at a time with the plain
//! APIs (`FlowCache::process`, `HashSet<FlowKey>` verdict sets, inline
//! triage) and tallies ground truth per packet; the engine's per-batch
//! flushed counters must match it exactly, in every pacing mode.
//!
//! The lane-buffer test pins the zero-alloc property: a lane allocates
//! its `queue_batches + 2` buffers on its ring's first lap and from then
//! on stages into what the shard left in the slot, so the allocation
//! count stops at that bound — independent of how many packets the run
//! offers and of how the threads were scheduled.

use smartwatch_core::{DetectorSuite, HostNeed};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{Dur, FlowKey, Packet, PacketBuilder, Ts};
use smartwatch_runtime::{Count, DatapathMode, Engine, EngineConfig, EngineReport, Pace, TriageNf};
use smartwatch_snic::{FlowCache, FlowCacheConfig};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::{preset_trace, Preset};
use std::collections::HashSet;
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

/// Ground-truth tallies from the scalar reference pipeline.
#[derive(Debug, Default, PartialEq, Eq)]
struct GroundTruth {
    processed: u64,
    verdict_dropped: u64,
    fast_path: u64,
    escalated: u64,
    ctrl_applied: u64,
    alerts: u64,
    host_processed: u64,
    verdicts_published: u64,
    blacklisted: u64,
    whitelisted: u64,
    cache_resident: u64,
}

/// The scalar reference: same pipeline semantics as one engine shard in
/// inline-triage mode, but per-packet APIs, plain `HashSet<FlowKey>`
/// verdict sets, and per-packet counting — no batching tricks anywhere.
fn reference_run(packets: &[Packet], cfg: &EngineConfig) -> GroundTruth {
    assert_eq!(cfg.shards, 1, "reference models a single shard");
    assert_eq!(cfg.host_workers, 0, "reference models inline triage");

    let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
    cache_cfg.hash_seed = cfg.hash_seed;
    let mut cache = FlowCache::new(cache_cfg);
    let mut suite = DetectorSuite::new();
    let mut triage = TriageNf::new(cfg.triage_threshold);
    let mut log: Vec<Verdict> = Vec::new();
    let mut cursor = 0usize;
    let mut blacklist: HashSet<FlowKey> = HashSet::new();
    let mut whitelist: HashSet<FlowKey> = HashSet::new();
    let mut gt = GroundTruth::default();
    let mut last_ts = Ts::ZERO;

    let apply_control = |gt: &mut GroundTruth,
                         cache: &mut FlowCache,
                         blacklist: &mut HashSet<FlowKey>,
                         whitelist: &mut HashSet<FlowKey>,
                         log: &[Verdict],
                         cursor: &mut usize| {
        let tail = &log[*cursor..];
        gt.ctrl_applied += tail.len() as u64;
        for v in tail {
            match v {
                Verdict::Blacklist(k) => {
                    let canon = k.canonical().0;
                    cache.unpin(&canon);
                    blacklist.insert(canon);
                    // Blacklist wins: a host-flagged flow loses any
                    // standing whitelist fast-path entry.
                    whitelist.remove(&canon);
                }
                Verdict::Whitelist(k) => {
                    let canon = k.canonical().0;
                    cache.unpin(&canon);
                    whitelist.insert(canon);
                }
                Verdict::Alert(_) => gt.alerts += 1,
                Verdict::Drop => {}
            }
        }
        *cursor = log.len();
    };

    for chunk in packets.chunks(cfg.batch) {
        apply_control(
            &mut gt,
            &mut cache,
            &mut blacklist,
            &mut whitelist,
            &log,
            &mut cursor,
        );
        for pkt in chunk {
            last_ts = last_ts.max(pkt.ts);
            let canon = pkt.key.canonical().0;
            if cfg.enforce_verdicts && blacklist.contains(&canon) {
                gt.verdict_dropped += 1;
                gt.processed += 1;
                continue;
            }
            cache.process(pkt);
            if whitelist.contains(&canon) {
                gt.fast_path += 1;
                gt.processed += 1;
                continue;
            }
            let outcome = suite.on_packet(pkt);
            gt.alerts += outcome.alerts.len() as u64;
            // §3.2: pin while the host works on the flow, then let a
            // benign verdict on the same packet release it.
            if outcome.host == HostNeed::Host {
                cache.pin(&canon);
            }
            for flow in &outcome.whitelist {
                cache.unpin(flow);
                whitelist.insert(flow.canonical().0);
            }
            if outcome.host == HostNeed::Host {
                gt.escalated += 1;
                gt.host_processed += 1;
                log.extend(triage.on_packet(pkt));
            }
            gt.processed += 1;
        }
    }
    apply_control(
        &mut gt,
        &mut cache,
        &mut blacklist,
        &mut whitelist,
        &log,
        &mut cursor,
    );
    gt.alerts += suite.finish(last_ts).len() as u64;
    gt.verdicts_published = log.len() as u64;
    gt.blacklisted = blacklist.len() as u64;
    gt.whitelisted = whitelist.len() as u64;
    gt.cache_resident = cache.occupied() as u64;
    gt
}

/// Project an engine report (1 shard) onto the ground-truth shape.
fn observed(report: &EngineReport) -> GroundTruth {
    assert_eq!(report.shards.len(), 1);
    let s = &report.shards[0];
    GroundTruth {
        processed: s.counts[Count::Processed],
        verdict_dropped: s.counts[Count::VerdictDropped],
        fast_path: s.counts[Count::FastPath],
        escalated: s.counts[Count::Escalated],
        ctrl_applied: s.counts[Count::CtrlApplied],
        alerts: s.counts[Count::Alerts],
        host_processed: report.host_processed,
        verdicts_published: report.verdicts_published,
        blacklisted: s.blacklisted,
        whitelisted: s.whitelisted,
        cache_resident: s.cache_resident,
    }
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
        let truth = reference_run(&packets, &cfg);
        let report = Engine::new(cfg).run(&packets, Pace::Flatout);
        assert!(report.conserved());
        assert_eq!(
            observed(&report),
            truth,
            "batch={batch}: per-batch flushes diverged from scalar ground truth\n{}",
            report.deterministic_summary()
        );
        // The workload must actually exercise the interesting paths,
        // otherwise this equality is vacuous.
        assert!(truth.escalated > 0, "SSH sweep must escalate");
        assert!(truth.verdicts_published > 0, "triage must blacklist");
        assert!(truth.verdict_dropped > 0, "enforcement must drop");
    }
}

#[test]
fn paced_mode_matches_ground_truth_when_drop_free() {
    let packets = workload(12_000);
    let cfg = deterministic_cfg(64);
    let truth = reference_run(&packets, &cfg);
    let report = Engine::new(cfg).run(&packets, Pace::RateMpps(1.0));
    assert!(report.conserved());
    assert_eq!(
        report.ingest_dropped(),
        0,
        "queue sized above the workload: paced mode must not drop"
    );
    assert_eq!(
        observed(&report),
        truth,
        "paced dispatch changed counters that must be pace-independent\n{}",
        report.deterministic_summary()
    );
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
