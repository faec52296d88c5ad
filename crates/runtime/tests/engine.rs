//! Engine invariants: conservation under every shard count, topology
//! and pacing mode, bit-exact determinism in single-shard inline mode,
//! and the escalate → verdict → enforce round trip. That every
//! inline-triage run equals the per-packet oracle is `hotpath.rs`'s.

use smartwatch_net::Dur;
use smartwatch_runtime::books::Count;
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_trace::background::{preset_trace, Preset};

fn workload(flows: usize, seed: u64) -> Vec<smartwatch_net::Packet> {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed).into_packets()
}

#[test]
fn conservation_flatout_across_shard_counts() {
    let packets = workload(400, 7);
    assert!(packets.len() > 5_000, "workload is non-trivial");
    for shards in [1usize, 2, 4] {
        let mut cfg = EngineConfig::new(shards);
        cfg.host_workers = 1;
        let report = Engine::new(cfg).run(&packets, Pace::Flatout);
        assert!(
            report.conserved(),
            "conservation violated at {shards} shards:\n{}",
            report.deterministic_summary()
        );
        assert_eq!(report.offered, packets.len() as u64);
        assert_eq!(
            report.ingest_dropped(),
            0,
            "flat-out mode backpressures, never drops"
        );
        assert_eq!(report.processed(), report.offered);
    }
}

#[test]
fn conservation_holds_under_forced_drops() {
    let packets = workload(400, 11);
    // A 1-batch queue and an absurd offered rate force ingest overruns.
    let mut cfg = EngineConfig::new(2);
    cfg.queue_batches = 1;
    cfg.batch = 32;
    let report = Engine::new(cfg).run(&packets, Pace::RateMpps(10_000.0));
    assert!(
        report.conserved(),
        "dropped packets must still be accounted:\n{}",
        report.deterministic_summary()
    );
    assert!(
        report.ingest_dropped() > 0,
        "this configuration is sized to overrun"
    );
    assert!(report.drop_rate() > 0.0 && report.drop_rate() < 1.0);
    let per_queue_drops: u64 = report.queues.iter().map(|q| q[Count::IngestDropped]).sum();
    assert_eq!(per_queue_drops, report.ingest_dropped());
}

#[test]
fn single_shard_inline_mode_is_deterministic() {
    let packets = workload(300, 42);
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0; // inline triage: no thread-timing races
    let run = || Engine::new(cfg.clone()).run(&packets, Pace::Flatout);
    let a = run().deterministic_summary();
    let b = run().deterministic_summary();
    assert_eq!(a, b, "same seed + one shard must be byte-identical");
    assert!(a.contains("offered="), "summary is non-empty");
}

#[test]
fn conservation_flatout_on_every_ingest_unit() {
    // The pipeline's one dispatcher and each of RTC's fused cores keep
    // their own ingest books; the RSS split must feed every core.
    let packets = workload(400, 7);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for shards in [1usize, 2, 4] {
            let mut cfg = EngineConfig::new(shards);
            cfg.datapath = datapath;
            cfg.host_workers = 1;
            let units = cfg.ingest_units();
            let report = Engine::new(cfg).run(&packets, Pace::Flatout);
            assert!(
                report.conserved(),
                "conservation violated at {datapath:?} shards={shards}:\n{}",
                report.deterministic_summary()
            );
            assert_eq!(report.queues.len(), units);
            assert_eq!(report.offered, packets.len() as u64);
            assert_eq!(report.processed(), report.offered);
            let per_queue_offered: u64 = report.queues.iter().map(|q| q[Count::Offered]).sum();
            assert_eq!(per_queue_offered, report.offered);
            assert!(
                report.queues.iter().all(|q| q[Count::Offered] > 0),
                "the RSS split must feed every ingest unit"
            );
        }
    }
}

#[test]
fn escalation_round_trip_blacklists_hostile_sources() {
    // One source brute-forcing SSH across many connections: auth-port
    // traffic escalates to the host until classified, triage counts the
    // source past its threshold and blacklists each flow, and — with
    // verdicts enforced — follow-up packets of those flows are dropped.
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    let mut packets = Vec::new();
    let src = Ipv4Addr::new(203, 0, 113, 9);
    for round in 0..50u32 {
        for sport in 0..32u16 {
            let key = FlowKey::tcp(src, 40_000 + sport, Ipv4Addr::new(10, 0, 0, 1), 22);
            let ts = Ts::from_nanos(u64::from(round) * 1_000_000 + u64::from(sport));
            packets.push(PacketBuilder::new(key, ts).build());
        }
    }
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0;
    cfg.triage_threshold = 8;
    let report = Engine::new(cfg).run(&packets, Pace::Flatout);
    assert!(report.conserved());
    assert!(report.escalated() > 0, "SYN sweep must escalate");
    assert!(
        report.verdicts_published > 0,
        "triage must publish blacklist verdicts"
    );
    let dropped = report.total(Count::VerdictDropped);
    assert!(
        dropped > 0,
        "enforced blacklist must drop follow-up packets:\n{}",
        report.deterministic_summary()
    );
}
