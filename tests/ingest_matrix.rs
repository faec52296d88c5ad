//! The one ingest loop across everything it is generic over: both
//! thread topologies × both packet representations, on a trace whose
//! length is a multiple of neither the 8-frame wire burst nor the
//! 256-packet checkpoint, so every cell ends on a partial burst, a
//! partial block and a partial batch.
//!
//! Flat-out cells at 1, 2 and 4 shards must equal the per-packet
//! oracle ([`reference::walk_shards`]) byte for byte, so the decision stream
//! depends on neither topology nor representation; spiked cells — open loop
//! with the control plane shedding and steering — and cells drained
//! mid-run must balance the books on both axes, with `offered` equal to
//! what the ingest units say they offered.

use smartwatch::net::{Dur, FrameStore, Packet};
use smartwatch::runtime::books::Count;
use smartwatch::runtime::shard::ShardStats;
use smartwatch::runtime::{
    reference, ControlConfig, DatapathMode, Engine, EngineConfig, EngineReport, FrameSource, Pace,
};
use smartwatch::trace::background::{preset_trace, Preset};

const PACKETS: usize = 20_011;

fn trace() -> (Vec<Packet>, FrameStore) {
    let base = preset_trace(Preset::Caida2018, 2_000, Dur::from_secs(1), 0x1E)
        .truncated_64b()
        .into_packets();
    let packets: Vec<Packet> = base.iter().cycle().take(PACKETS).copied().collect();
    let store = FrameStore::from_packets(&packets);
    (packets, store)
}

/// Every (topology, representation) cell, as `(label, datapath, wire)`.
const CELLS: [(&str, DatapathMode, bool); 4] = [
    ("pipeline × packets", DatapathMode::Pipeline, false),
    ("pipeline × wire", DatapathMode::Pipeline, true),
    ("rtc × packets", DatapathMode::Rtc, false),
    ("rtc × wire", DatapathMode::Rtc, true),
];

fn source<'a>(wire: bool, packets: &'a [Packet], store: &'a FrameStore) -> FrameSource<'a> {
    if wire {
        FrameSource::Wire(store)
    } else {
        FrameSource::Packets(packets)
    }
}

fn assert_balanced(label: &str, report: &EngineReport) {
    assert!(
        report.conserved(),
        "{label}: books do not balance:\n{}",
        report.deterministic_summary()
    );
    let by_queue: u64 = report.queues.iter().map(|q| q[Count::Offered]).sum();
    assert_eq!(report.offered, by_queue, "{label}: offered vs queue axis");
}

#[test]
fn every_cell_of_the_ingest_matrix_holds() {
    let (packets, store) = trace();
    let caches = |s: &[ShardStats]| s.iter().map(|s| s.cache).collect::<Vec<_>>();
    for (label, datapath, wire) in CELLS {
        let source = source(wire, &packets, &store);
        // Flat-out. Inline triage is bit-deterministic at any shard
        // count: a shard's own triage publishes its flows' verdicts, so
        // its last poll needs no sibling.
        for shards in [1, 2, 4] {
            let mut cfg = EngineConfig {
                host_workers: 0,
                ..EngineConfig::new(1)
            };
            (cfg.datapath, cfg.shards) = (datapath, shards);
            let label = format!("{label}, {shards} shards");
            let report = Engine::new(cfg.clone()).run_source(source, Pace::Flatout);
            assert_balanced(&label, &report);
            assert_eq!(report.offered, PACKETS as u64, "{label}");
            assert_eq!(report.processed(), report.offered, "{label}: lossless");
            let oracle = reference::walk_shards(source, &cfg).expect("a modelled config");
            assert_eq!(report.deterministic_summary(), oracle.summary, "{label}");
            assert_eq!(caches(&report.shards), caches(&oracle.shards), "{label}");
        }

        // The other cells run two shards, so several lanes (pipeline) or
        // ingest units (RTC) park and un-park, and RTC's split is
        // exercised.
        let engine = |mut cfg: EngineConfig| {
            cfg.datapath = datapath;
            cfg.shards = 2;
            Engine::new(cfg)
        };

        // Spiked: open loop, two units, the control plane attached.
        let cfg = EngineConfig::new(2).with_control(ControlConfig::default());
        let pace = Pace::Spike {
            base_mpps: 1.0,
            peak_mpps: 40.0,
            spike_start: 0.3,
            spike_end: 0.7,
        };
        let report = engine(cfg).run_source(source, pace);
        assert_balanced(&format!("{label}, spiked"), &report);
        assert_eq!(report.offered, PACKETS as u64, "{label}: ran to the end");

        // Drained mid-run — by construction: the first checkpoint fold
        // makes `offered` visible, and at 0.1 Mpps the remaining
        // ~20 000 packets are ~200 ms away from finishing.
        let engine = engine(EngineConfig::new(2));
        let seen = engine
            .registry()
            .counter("runtime.queue.offered", &[("queue", "0")]);
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                while seen.get() == 0 {
                    std::thread::yield_now();
                }
                engine.request_drain();
            });
            engine.run_source(source, Pace::RateMpps(0.1))
        });
        assert!(report.interrupted, "{label}: the drain must cut the run");
        assert!(
            report.offered > 0 && report.offered < PACKETS as u64,
            "{label}: drained at {} of {PACKETS}",
            report.offered
        );
        assert_balanced(&format!("{label}, drained"), &report);
    }
}
