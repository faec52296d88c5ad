//! The wall-clock engine's decision stream against the committed golden.
//!
//! `ci/golden_engine_summary.txt` is what CI diffs `repro engine
//! --shards 1 --host-workers 0 --packets 100000 --workload stress64
//! --summary-out …` against, on both datapaths: the thread topology
//! moves no decision. This test drives the same shape through both from
//! the tier-1 suite, so `cargo test -q` fails when a change moves one,
//! and holds the per-packet oracle ([`reference::walk_shards`]) to the same
//! golden.

use smartwatch::net::{Dur, Packet};
use smartwatch::runtime::{reference, DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use smartwatch::trace::background::{preset_trace, Preset};

/// `repro engine --workload stress64 --packets 100000` at the default
/// scale: the 64-byte CAIDA-2018 stand-in (`bench::workloads::caida_64b`
/// with `exp_engine`'s seed), cycled or cut to the packet count.
fn stress64(packets: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 25_000, Dur::from_secs(4), 0xE1)
        .truncated_64b()
        .into_packets();
    base.iter().cycle().take(packets).copied().collect()
}

#[test]
fn pipeline_and_rtc_reproduce_the_committed_goldens() {
    let pkts = stress64(100_000);
    let golden = include_str!("../ci/golden_engine_summary.txt");
    let oracle = reference::walk_shards(
        FrameSource::Packets(&pkts),
        &EngineConfig {
            host_workers: 0,
            ..EngineConfig::new(1)
        },
    );
    assert_eq!(
        oracle.expect("a modelled config").summary,
        golden,
        "the oracle"
    );
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        // One shard with inline triage is bit-deterministic.
        let mut cfg = EngineConfig::new(1);
        cfg.datapath = datapath;
        cfg.host_workers = 0;
        let report = Engine::new(cfg).run(&pkts, Pace::Flatout);
        assert!(report.conserved(), "{datapath:?} lost packets");
        assert_eq!(
            report.deterministic_summary(),
            golden,
            "{datapath:?} decisions moved off the committed golden"
        );
    }
}
