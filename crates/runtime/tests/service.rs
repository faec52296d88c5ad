//! Service-mode invariants: a resident engine run back-to-back must
//! behave like a fresh one on every axis that matters — per-segment
//! conservation, pool-allocation counters that stop exactly at their
//! structural bound across the restart boundary (the
//! zero-steady-state-allocation claim the soak harness pins), graceful drain that quiesces exactly like end-of-trace,
//! parked FlowCaches that start every segment cold, and admin
//! steering edits that land at epoch boundaries and drop at dispatch.

use smartwatch_net::{Dur, FlowHasher, FlowKey, Packet, PacketBuilder};
use smartwatch_runtime::{
    AdminCmd, ControlConfig, Count, DatapathMode, Engine, EngineConfig, FrameSource, Pace,
};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::compile_cycled;

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed).into_packets()
}

/// Packets per segment of the pool tests: enough that each of two
/// shards' lanes goes round its 64-slot ring inside the first segment, so
/// `runtime.pool.allocated` sits exactly on
/// [`EngineConfig::lane_buffers`] after it — the lanes' structural
/// count, the same under every thread schedule — and nothing may be
/// allocated afterwards.
const LAP_PACKETS: usize = 60_000;

#[test]
fn back_to_back_segments_conserve_with_flat_pool_counters() {
    let packets: Vec<Packet> = workload(300, 29)
        .into_iter()
        .cycle()
        .take(LAP_PACKETS)
        .collect();
    let registry = Registry::new();
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 1;
    let bound = cfg.lane_buffers() as u64;
    let engine = Engine::with_registry(cfg, &registry);
    let allocated = registry.counter("runtime.pool.allocated", &[]);

    let first = engine.run(&packets, Pace::Flatout);
    assert!(first.conserved(), "segment 1 violates conservation");
    assert_eq!(first.offered, packets.len() as u64);
    assert_eq!(first.processed(), first.offered);
    assert_eq!(
        allocated.get(),
        bound,
        "segment 1 takes every lane round its ring: queue_batches + 2 buffers each"
    );

    let second = engine.run(&packets, Pace::Flatout);
    assert!(second.conserved(), "segment 2 violates conservation");
    assert_eq!(
        second.offered,
        packets.len() as u64,
        "a resident engine reports per-run numbers, not cumulative ones"
    );
    assert_eq!(second.processed(), second.offered);
    assert_eq!(
        allocated.get(),
        bound,
        "segment 2 allocated lane buffers — the garage must hand the lanes, \
         and the buffers in them, back across the restart boundary"
    );
}

#[test]
fn wire_segments_keep_the_lane_buffers_flat_across_restart() {
    let trace = preset_trace(Preset::Caida2018, 200, Dur::from_millis(500), 31);
    let store = compile_cycled(&trace, LAP_PACKETS);
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        let registry = Registry::new();
        let mut cfg = EngineConfig::new(2);
        cfg.datapath = datapath;
        let bound = cfg.lane_buffers() as u64;
        let engine = Engine::with_registry(cfg, &registry);
        let bufs = registry.counter("runtime.pool.allocated", &[]);

        let first = engine.run_source(FrameSource::Wire(&store), Pace::Flatout);
        assert!(
            first.conserved(),
            "{datapath:?}: wire segment 1 violates conservation"
        );
        assert_eq!(first.offered, LAP_PACKETS as u64);
        assert_eq!(
            bufs.get(),
            bound,
            "{datapath:?}: every lane once round its ring"
        );

        let second = engine.run_source(FrameSource::Wire(&store), Pace::Flatout);
        assert!(
            second.conserved(),
            "{datapath:?}: wire segment 2 violates conservation"
        );
        assert_eq!(second.offered, first.offered);
        assert_eq!(
            bufs.get(),
            bound,
            "{datapath:?}: lane buffers grew across the restart"
        );
    }
}

#[test]
fn drain_mid_run_quiesces_conserved_and_the_engine_restarts() {
    let packets = workload(300, 37);
    let total: usize = 200_000;
    let stream: Vec<Packet> = packets.iter().cycle().take(total).copied().collect();
    let engine = Engine::new(EngineConfig::new(2));

    // 0.2 Mpps over 200k packets is a ~1 s run; the drain lands well
    // inside it. (If a pathologically slow start means the drain beats
    // the first checkpoint, the run still stops interrupted+conserved —
    // the assertions below hold either way.)
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(60));
            engine.request_drain();
        });
        engine.run(&stream, Pace::RateMpps(0.2))
    });
    assert!(
        report.interrupted,
        "the drain request must cut the run short"
    );
    assert!(
        report.offered < total as u64,
        "a drained run reports what was actually offered"
    );
    assert!(
        report.conserved(),
        "a drained segment must quiesce exactly like end-of-trace:\n{}",
        report.deterministic_summary()
    );

    // The latch is sticky by design (operator intent survives the
    // segment boundary); clearing it restarts service cleanly.
    assert!(engine.drain_requested());
    engine.clear_drain();
    let next = engine.run(&stream, Pace::Flatout);
    assert!(!next.interrupted, "a cleared latch must not re-fire");
    assert_eq!(next.offered, total as u64);
    assert!(
        next.conserved(),
        "the post-drain segment violates conservation"
    );
}

#[test]
fn every_segment_starts_cold_and_repeats_the_first_segments_misses() {
    let packets = workload(300, 41);
    let mut cfg = EngineConfig::new(2);
    cfg.host_workers = 0; // inline triage: deterministic access mix
    let engine = Engine::new(cfg);
    let first = engine.run(&packets, Pace::Flatout);
    let second = engine.run(&packets, Pace::Flatout);
    assert!(first.conserved() && second.conserved());

    // The parked caches are reset in place: segment 2 starts cold and
    // pays the full new-flow insertion cost again.
    assert!(first.flowcache.misses > 0, "fresh caches must miss");
    assert_eq!(
        second.flowcache.misses, first.flowcache.misses,
        "segment 2 starts cold and repeats segment 1"
    );
}

#[test]
fn admin_blacklist_lands_at_an_epoch_boundary_and_drops_at_dispatch() {
    use std::net::Ipv4Addr;

    // CAIDA background interleaved with one persistent target flow so
    // the blacklist keeps seeing traffic after the edit applies.
    let base = workload(300, 43);
    let key = FlowKey::tcp(
        Ipv4Addr::new(203, 0, 113, 77),
        40_001,
        Ipv4Addr::new(10, 0, 0, 1),
        443,
    );
    let mut stream = Vec::with_capacity(60_000);
    for pkt in base.iter().cycle() {
        if stream.len() >= 60_000 {
            break;
        }
        stream.push(*pkt);
        stream.push(PacketBuilder::new(key, pkt.ts).build());
    }

    // Controller attached (steering snapshots need the epoch thread) but
    // with thresholds parked far above the drive: no shedding or mode
    // churn muddies the steering assertion.
    let ctrl = ControlConfig {
        epoch_ms: 2,
        shed_on_mpps: 1_000.0,
        shed_off_mpps: 100.0,
        ..ControlConfig::default()
    };
    let cfg = EngineConfig::new(2).with_control(ctrl);
    let digest = FlowHasher::new(cfg.hash_seed).digest_symmetric(&key).1;
    let engine = Engine::new(cfg);

    assert!(engine.admin(AdminCmd::BlacklistAdd(digest.0)));
    // 0.3 Mpps over 60k packets is a ~200 ms run — dozens of epoch
    // boundaries after the edit applies at the first one (~2 ms in).
    let report = engine.run(&stream, Pace::RateMpps(0.3));
    assert!(
        report.conserved(),
        "steer drops must stay inside the conservation identity:\n{}",
        report.deterministic_summary()
    );
    assert!(
        engine.admin_applied() >= 1,
        "the queued edit must drain at an epoch boundary"
    );
    assert!(
        report.steer_dropped() > 0,
        "the blacklisted flow must drop at dispatch, not at the shard"
    );
    let q_steer: u64 = report.queues.iter().map(|q| q[Count::SteerDropped]).sum();
    assert_eq!(
        q_steer,
        report.steer_dropped(),
        "steer drops are accounted on both conservation axes"
    );
}
