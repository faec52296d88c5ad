//! Wire data-plane invariants: replaying a compiled [`FrameStore`]
//! through the engine must be *indistinguishable* from replaying the
//! packets it was compiled from — byte-identical deterministic
//! summaries on both datapaths and at several shard counts — and the
//! pcap-sourced path must keep exact two-axis conservation. The frame
//! pool telemetry pins the zero-copy claim: steady state never
//! allocates past the per-ingest-unit warm-up burst.

use smartwatch_net::{pcap, Dur, FrameStore};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::compile::{compile, compile_cycled};
use smartwatch_trace::Trace;

fn workload(flows: usize, seed: u64) -> Trace {
    preset_trace(Preset::Caida2018, flows, Dur::from_millis(500), seed)
}

/// Both topologies at two shards: several lanes (pipeline) or several
/// ingest units (RTC).
const DATAPATHS: [DatapathMode; 2] = [DatapathMode::Pipeline, DatapathMode::Rtc];

/// The deterministic recipe (inline triage) at `shards` shards on
/// `datapath`.
fn deterministic(datapath: DatapathMode, shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig {
        host_workers: 0,
        ..EngineConfig::new(1)
    };
    cfg.shards = shards;
    cfg.datapath = datapath;
    cfg
}

/// Two shards on `datapath`, a host worker pool.
fn two_shards(datapath: DatapathMode) -> EngineConfig {
    let mut cfg = EngineConfig::new(2);
    cfg.datapath = datapath;
    cfg
}

#[test]
fn compiled_replay_summary_is_byte_identical_to_synthetic() {
    let trace = workload(300, 0xBEEF);
    let store = compile(&trace);
    for (datapath, shards) in DATAPATHS.iter().flat_map(|&d| [(d, 1), (d, 2)]) {
        let cfg = deterministic(datapath, shards);
        let synthetic = Engine::new(cfg.clone())
            .run(trace.packets(), Pace::Flatout)
            .deterministic_summary();
        let wire = Engine::new(cfg)
            .run_source(FrameSource::Wire(&store), Pace::Flatout)
            .deterministic_summary();
        assert_eq!(
            synthetic, wire,
            "compiled replay diverged from the synthetic run at {datapath:?} shards={shards}"
        );
    }
}

#[test]
fn cycled_compiled_replay_conserves_across_shapes() {
    let trace = workload(150, 7);
    let total = trace.len() * 3 + 11;
    let store = compile_cycled(&trace, total);
    for (datapath, shards) in DATAPATHS.iter().flat_map(|&d| [(d, 1), (d, 2), (d, 3)]) {
        let mut cfg = EngineConfig::new(shards);
        cfg.datapath = datapath;
        let report = Engine::new(cfg).run_source(FrameSource::Wire(&store), Pace::Flatout);
        assert_eq!(report.offered, total as u64);
        assert_eq!(report.processed(), total as u64, "flatout never drops");
        assert!(
            report.conserved(),
            "conservation violated at {datapath:?} shards={shards}"
        );
    }
}

#[test]
fn pcap_sourced_replay_matches_packet_replay_and_conserves() {
    // Round-trip the workload through the capture format: the engine
    // sees exactly what a monitor replaying the pcap would.
    let trace = workload(200, 99);
    let bytes = pcap::write(trace.packets());
    let store = FrameStore::from_pcap(&bytes).expect("own pcap output parses");
    assert_eq!(store.len(), trace.len());

    for datapath in DATAPATHS {
        let report =
            Engine::new(two_shards(datapath)).run_source(FrameSource::Wire(&store), Pace::Flatout);
        assert_eq!(report.offered, trace.len() as u64);
        assert_eq!(report.processed(), trace.len() as u64);
        assert!(report.conserved(), "{datapath:?}");

        // The pcap-built store must also replay deterministically
        // against *itself* (pcap drops labels/digests, so it is not
        // byte-identical to the synthetic run — but two same-seed wire
        // runs must be).
        let summary = || {
            Engine::new(deterministic(datapath, 2))
                .run_source(FrameSource::Wire(&store), Pace::Flatout)
                .deterministic_summary()
        };
        assert_eq!(summary(), summary(), "{datapath:?}");
    }
}

#[test]
fn paced_wire_replay_keeps_conservation_under_drops() {
    let trace = workload(150, 3);
    let store = compile_cycled(&trace, 60_000);
    for datapath in DATAPATHS {
        let mut cfg = two_shards(datapath);
        cfg.queue_batches = 2; // tiny lanes force overruns at a hot rate
        let report = Engine::new(cfg).run_source(FrameSource::Wire(&store), Pace::RateMpps(20.0));
        assert!(
            report.conserved(),
            "{datapath:?}: drops must stay exactly accounted"
        );
        assert_eq!(report.processed() + report.ingest_dropped(), report.offered);
    }
}
