//! The wall-clock engine's decision stream against the committed goldens.
//!
//! `ci/golden_engine_summary.txt` (pipeline) and
//! `ci/golden_engine_summary_rtc.txt` (run-to-completion) are what CI
//! diffs `repro engine --shards 1 --host-workers 0 --packets 100000
//! --workload stress64 --summary-out …` against. This test drives the
//! same shape through both thread topologies from the tier-1 suite, so
//! `cargo test -q` fails when a change moves one decision.

use smartwatch::net::{Dur, Packet};
use smartwatch::runtime::{DatapathMode, Engine, EngineConfig, Pace};
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
    for (datapath, golden) in [
        (
            DatapathMode::Pipeline,
            include_str!("../ci/golden_engine_summary.txt"),
        ),
        (
            DatapathMode::Rtc,
            include_str!("../ci/golden_engine_summary_rtc.txt"),
        ),
    ] {
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
