//! The benchmark's four workload shapes against the per-packet oracle.
//!
//! `stress64_rtc`, `wire_pipeline`, `scattered_cold` and `mix_paced`
//! (`benchmark/src/workload.rs`) each at 20 000 packets: the same
//! generator, representation, datapath and table size, run flat-out
//! with inline triage and no controller — the oracle models none, so
//! `mix_paced`'s packets run unpaced — must equal [`reference::walk_shards`]
//! byte for byte, with each shard's FlowCache books.

use smartwatch_bench::workloads::{attack_mix, caida_64b, scattered_flows};
use smartwatch_net::Packet;
use smartwatch_runtime::shard::ShardStats;
use smartwatch_runtime::DatapathMode::{Pipeline, Rtc};
use smartwatch_runtime::FrameSource::{Packets, Wire};
use smartwatch_runtime::{reference, Engine, EngineConfig, Pace};
use smartwatch_trace::background::Preset;
use smartwatch_trace::compile::compile;
use smartwatch_trace::Trace;

const PACKETS: usize = 20_000;

#[test]
fn the_four_benchmark_shapes_decide_what_the_oracle_decides() {
    let cut = |trace: Trace| -> Vec<Packet> { trace.packets()[..PACKETS].to_vec() };
    let caida = cut(caida_64b(Preset::Caida2018, 1, 1));
    let store = compile(&Trace::from_packets(caida.clone()));
    let (mix, scattered) = (cut(attack_mix(1, 1)), scattered_flows(PACKETS, 1));
    let shapes = [
        ("stress64_rtc", Packets(&caida), Rtc, 12),
        ("wire_pipeline", Wire(&store), Pipeline, 12),
        ("scattered_cold", Packets(&scattered), Rtc, 16),
        ("mix_paced", Packets(&mix), Pipeline, 12),
    ];
    let caches = |s: &[ShardStats]| s.iter().map(|s| s.cache).collect::<Vec<_>>();
    for (name, source, datapath, row_bits) in shapes {
        let mut cfg = EngineConfig {
            host_workers: 0,
            ..EngineConfig::new(1)
        };
        (cfg.datapath, cfg.cache_row_bits) = (datapath, row_bits);
        let report = Engine::new(cfg.clone()).run_source(source, Pace::Flatout);
        assert!(report.conserved(), "{name}");
        let oracle = reference::walk_shards(source, &cfg).expect("a modelled config");
        assert_eq!(report.deterministic_summary(), oracle.summary, "{name}");
        assert_eq!(caches(&report.shards), caches(&oracle.shards), "{name}");
    }
}
