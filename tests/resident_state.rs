//! Resident flow state: an engine builds each shard's FlowCache and
//! detector tables once, on its first segment, and every later segment
//! runs on that same memory after an in-place reset. The reset must be
//! exact — segment N decides precisely what segment 1 decided, which is
//! what the committed golden says — in both thread topologies and both
//! packet representations, and what stays parked must neither exist
//! before the first segment nor grow after the second.

use smartwatch::net::{Dur, FrameStore, Packet};
use smartwatch::runtime::{DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use smartwatch::trace::background::{preset_trace, Preset};

const SEGMENTS: usize = 5;

/// The golden's shape (see `tests/engine_golden.rs`).
fn stress64(packets: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 25_000, Dur::from_secs(4), 0xE1)
        .truncated_64b()
        .into_packets();
    base.iter().cycle().take(packets).copied().collect()
}

#[test]
fn every_segment_of_a_resident_engine_repeats_the_first() {
    let packets = stress64(100_000);
    let store = FrameStore::from_packets(&packets);
    let golden = include_str!("../ci/golden_engine_summary.txt");
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for wire in [false, true] {
            let label = format!("{datapath:?}, wire {wire}");
            // One shard with inline triage is bit-deterministic.
            let mut cfg = EngineConfig::new(1);
            cfg.datapath = datapath;
            cfg.host_workers = 0;
            let engine = Engine::new(cfg);
            assert_eq!(
                engine.flowstate_resident_bytes(),
                0,
                "{label}: flow state is built by the first segment, not by Engine::new"
            );
            let mut parked = Vec::new();
            for segment in 1..=SEGMENTS {
                let source = if wire {
                    FrameSource::Wire(&store)
                } else {
                    FrameSource::Packets(&packets)
                };
                let report = engine.run_source(source, Pace::Flatout);
                assert!(
                    report.conserved(),
                    "{label}: segment {segment} lost packets"
                );
                assert_eq!(
                    report.deterministic_summary(),
                    golden,
                    "{label}: segment {segment} decided differently on reset state"
                );
                parked.push(engine.flowstate_resident_bytes());
            }
            assert_eq!(
                engine
                    .registry()
                    .counter("runtime.flowstate.resets", &[])
                    .get(),
                SEGMENTS as u64 - 1,
                "{label}: one build, then one reset per segment"
            );
            assert!(parked[0] > 0, "{label}: the garage holds the flow state");
            assert!(
                parked[1..].iter().all(|&b| b == parked[1]),
                "{label}: parked bytes moved after segment 2: {parked:?}"
            );
        }
    }
}

/// A flood leaves big tables behind; the segments after it must not keep
/// paying for them — and must still decide exactly as a fresh engine.
#[test]
fn a_flood_segment_does_not_pin_its_peak() {
    let quiet = stress64(20_000);
    // 60 000 one-packet flows: every table the suite keys by connection
    // grows to the flood's size.
    let flood: Vec<Packet> = (0..60_000u32)
        .map(|i| {
            let key = smartwatch::net::FlowKey::tcp(
                std::net::Ipv4Addr::from(0x0B00_0000 + i),
                40_000,
                std::net::Ipv4Addr::new(192, 168, 0, 1),
                443,
            );
            smartwatch::net::PacketBuilder::new(key, smartwatch::net::Ts::from_micros(u64::from(i)))
                .build()
        })
        .collect();
    let mut cfg = EngineConfig::new(1);
    cfg.datapath = DatapathMode::Rtc;
    cfg.host_workers = 0;
    let fresh = Engine::new(cfg.clone())
        .run(&quiet, Pace::Flatout)
        .deterministic_summary();

    let engine = Engine::new(cfg);
    engine.run(&quiet, Pace::Flatout);
    let before = engine.flowstate_resident_bytes();
    engine.run(&flood, Pace::Flatout);
    let flooded = engine.flowstate_resident_bytes();
    assert!(flooded > before + (1 << 20), "{before} -> {flooded}");
    // The segment right after the flood still holds the flood's tables
    // while it runs (they are the high-water of the segment just ended);
    // its own reset gives them back.
    engine.run(&quiet, Pace::Flatout);
    let report = engine.run(&quiet, Pace::Flatout);
    assert_eq!(report.deterministic_summary(), fresh);
    let settled = engine.flowstate_resident_bytes();
    assert!(
        settled < before + (flooded - before) / 8,
        "flood memory still parked: {before} quiet, {flooded} flooded, {settled} after"
    );
}
