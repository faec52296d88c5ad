//! Cold flows through the miss-gated stage A.
//!
//! A shard whose last batch mostly missed the FlowCache prefetches
//! differently in its next stage A: the next chunk's tag lines and scan
//! table slot words, then the slot lines each probe of this chunk will
//! touch. Hints are all it adds, so a run that flips that gate on and off
//! must decide exactly what the per-packet oracle ([`reference::walk_shards`],
//! no stage A at all) decides, on both datapaths and at widths 8 and 1:
//! the same deterministic summary and the same FlowCache books per
//! shard — and every run probes the same lengths.

use smartwatch::net::hash::splitmix64;
use smartwatch::net::{FlowKey, Packet, PacketBuilder, TcpFlags, Ts};
use smartwatch::runtime::{reference, DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use std::net::Ipv4Addr;

/// Flow `i` of the `scattered_flows` shape: TCP to port 443 from a
/// hash-scattered source.
fn flow(i: u64) -> FlowKey {
    let r = splitmix64(i ^ 0xC01D);
    FlowKey::tcp(
        Ipv4Addr::from(0x0A00_0000 | ((r >> 40) as u32 & 0x00FF_FFFF)),
        ((r >> 24) as u16) | 1,
        Ipv4Addr::new(192, 168, (r >> 8) as u8, r as u8),
        443,
    )
}

/// Rounds of 2 048 first packets of new flows (a SYN each: all miss)
/// followed by 2 048 packets of 32 hot flows (all hit after their
/// first): the gate turns on in every cold phase and off in every hot
/// one. Over 2^6 rows the cold phases overflow every row, so misses
/// evict and the hot flows are evicted and re-inserted in turn.
fn cold_and_hot() -> Vec<Packet> {
    let mut out = Vec::new();
    let mut next = 1_000;
    for _ in 0..6 {
        for _ in 0..2_048 {
            next += 1;
            out.push((flow(next), TcpFlags::SYN));
        }
        for i in 0..2_048 {
            out.push((flow(i % 32), TcpFlags::ACK));
        }
        // Revisit part of the last cold phase: evicted or not.
        for i in 0..256 {
            out.push((flow(next - 2 * i), TcpFlags::ACK));
        }
    }
    out.iter()
        .enumerate()
        .map(|(t, &(key, flags))| {
            PacketBuilder::new(key, Ts::from_micros(t as u64))
                .flags(flags)
                .build()
        })
        .collect()
}

#[test]
fn cold_flows_decide_alike_with_and_without_the_gated_stage_a() {
    let packets = cold_and_hot();
    let mut cfg = EngineConfig {
        host_workers: 0,
        ..EngineConfig::new(1)
    };
    (cfg.shards, cfg.cache_row_bits) = (2, 6);
    let oracle =
        reference::walk_shards(FrameSource::Packets(&packets), &cfg).expect("a modelled config");
    let mut probes = Vec::new();
    for datapath in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for burst in [8, 1] {
            (cfg.datapath, cfg.cache_burst) = (datapath, burst);
            let report = Engine::new(cfg.clone()).run(&packets, Pace::Flatout);
            assert!(report.conserved(), "{datapath:?} burst {burst}");
            let fc = &report.flowcache;
            let hits = fc.p_hits + fc.e_hits;
            assert!(
                fc.misses > 10_000 && hits > 10_000 && fc.ring_pushes > 5_000,
                "{datapath:?} burst {burst}: both gate states and full rows: {fc:?}"
            );
            let what = format!("{datapath:?} burst {burst} against the oracle");
            assert_eq!(report.deterministic_summary(), oracle.summary, "{what}");
            for (got, want) in report.shards.iter().zip(&oracle.shards) {
                assert_eq!(got.cache, want.cache, "{what}");
            }
            probes.push(fc.probe_hist);
        }
    }
    assert!(probes.windows(2).all(|w| w[0] == w[1]), "{probes:?}");
}
