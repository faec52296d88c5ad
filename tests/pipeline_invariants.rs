//! Cross-crate invariants: lossless flow accounting, control-loop
//! behaviour, and wire-format/pipeline equivalence.

use smartwatch::core::platform::{standard_queries, PlatformConfig, SmartWatch};
use smartwatch::core::DeployMode;
use smartwatch::net::{wire, Dur, FlowKey, Packet};
use smartwatch::snic::{FlowCache, FlowCacheConfig};
use smartwatch::trace::attacks::portscan::{portscan, ScanConfig};
use smartwatch::trace::background::{preset_trace, Preset};
use smartwatch::trace::Trace;
use std::collections::HashMap;

/// Lossless flow logging through the *whole* platform: the per-flow packet
/// totals reconstructed from the flow logs equal what the sNIC tier
/// actually processed (the paper's core "lossless monitoring" claim).
#[test]
fn flow_logs_are_lossless_end_to_end() {
    let trace = preset_trace(Preset::Caida2018, 300, Dur::from_secs(3), 41);
    let rep =
        SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
    let mut logged: HashMap<FlowKey, u64> = HashMap::new();
    for i in 0.. {
        let counts = rep.flow_log.flow_counts(i);
        if counts.is_empty() && i >= rep.flow_log.n_intervals() as u64 {
            break;
        }
        for (k, c) in counts {
            *logged.entry(k).or_default() += c;
        }
    }
    let mut truth: HashMap<FlowKey, u64> = HashMap::new();
    for p in trace.iter() {
        *truth.entry(p.key.canonical().0).or_default() += 1;
    }
    let logged_total: u64 = logged.values().sum();
    let truth_total: u64 = truth.values().sum();
    assert_eq!(
        logged_total + rep.metrics.unlogged,
        truth_total,
        "packet conservation violated"
    );
    // Per-flow exactness for every flow that never hit a pinned-row edge.
    if rep.metrics.unlogged == 0 {
        assert_eq!(logged, truth, "per-flow counts must be exact");
    }
}

/// Whitelisting heavy benign flows reduces steered traffic (Fig. 2's
/// mechanism): run the same workload with and without whitelisting.
#[test]
fn whitelisting_reduces_steered_traffic() {
    let bg = preset_trace(Preset::Caida2018, 400, Dur::from_secs(4), 43);
    let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(40), 60, 43));
    // Make some background flows live inside the steered subset by
    // targeting the same /8: the scan rule steers 198/8 sources, so reuse
    // background directly (it steers dst-side rules from SSH/RST queries).
    let trace = Trace::merge([bg, scan]);

    let run = |top_k: usize| {
        let mut cfg = PlatformConfig::new(DeployMode::SmartWatch);
        cfg.whitelist_top_k = top_k;
        // Only steered flows reach the sNIC's long-term store, so the
        // whitelistable elephants here are steered-subset flows; their
        // counts sit well below the 200-packet global default.
        cfg.whitelist_min_packets = 50;
        SmartWatch::new(cfg, standard_queries()).run(trace.packets())
    };
    let without = run(0);
    let with = run(256);
    assert!(
        with.steered_bytes <= without.steered_bytes,
        "whitelisting must not increase steering: {} vs {}",
        with.steered_bytes,
        without.steered_bytes
    );
    assert!(with.whitelist_entries > 0);
}

/// The platform behaves identically whether packets arrive as metadata
/// records or as decoded wire frames (codec faithfulness).
#[test]
fn wire_roundtrip_preserves_platform_behaviour() {
    let trace = preset_trace(Preset::Caida2016, 120, Dur::from_secs(2), 47);
    let decoded: Vec<Packet> = trace
        .iter()
        .map(|p| {
            let frame = wire::encode(p);
            let mut q = wire::decode(&frame, p.ts).expect("round trip");
            // Wire format carries no digest/label; restore generator-side
            // metadata exactly as a capture pipeline would from context.
            q.payload_digest = p.payload_digest;
            q.label = p.label;
            q.wire_len = p.wire_len;
            q
        })
        .collect();
    let a = SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
    let b = SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(&decoded);
    assert_eq!(a.metrics.snic_processed, b.metrics.snic_processed);
    assert_eq!(a.metrics.host_processed, b.metrics.host_processed);
    assert_eq!(a.alerts.len(), b.alerts.len());
}

/// FlowCache conservation under the platform's own export cadence, for
/// every (policy, mode) combination.
#[test]
fn flowcache_conservation_across_configs() {
    use smartwatch::snic::{CachePolicy, Mode};
    let trace = preset_trace(Preset::Caida2019, 200, Dur::from_secs(2), 53).truncated_64b();
    for policy in [
        CachePolicy::LRU,
        CachePolicy::LPC,
        CachePolicy::FIFO,
        CachePolicy::LRU_LPC,
    ] {
        for mode in [Mode::General, Mode::Lite] {
            let mut fc = FlowCache::new(FlowCacheConfig::split(6, 4, 8, policy));
            fc.set_mode(mode);
            let mut processed = 0u64;
            let mut exported = 0u64;
            let mut snap = Vec::new();
            for (i, p) in trace.iter().enumerate() {
                let a = fc.process(p);
                if a.outcome != smartwatch::snic::Outcome::ToHost {
                    processed += 1;
                }
                if i % 1000 == 999 {
                    fc.snapshot_delta_into(&mut snap);
                    exported += snap.iter().map(|r| r.packets).sum::<u64>();
                    exported += fc.rings().drain().iter().map(|r| r.packets).sum::<u64>();
                }
            }
            exported += fc.rings().drain().iter().map(|r| r.packets).sum::<u64>();
            exported += fc.drain_all().iter().map(|r| r.packets).sum::<u64>();
            assert_eq!(
                exported, processed,
                "conservation violated for {policy:?} {mode:?}"
            );
        }
    }
}

/// Sonata's zoom really is slower to first detection than SmartWatch's
/// steer-on-first-interval (the Table 4 mechanism, observable in
/// interval counts).
#[test]
fn sonata_zoom_is_slower_than_steering() {
    let bg = preset_trace(Preset::Caida2018, 200, Dur::from_secs(6), 59);
    let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(25), 200, 59));
    let trace = Trace::merge([bg, scan]);

    let sonata = SmartWatch::new(
        PlatformConfig::new(DeployMode::SwitchHost),
        standard_queries(),
    )
    .run(trace.packets());
    // Sonata needs ≥3 intervals (8→16→32) to reach a terminal detection.
    if let Some(first) = sonata.sonata_detections.first() {
        assert!(
            first.ts >= smartwatch::net::Ts::from_secs(3),
            "terminal Sonata detection cannot precede the zoom: {}",
            first.ts
        );
    }
    let sw = SmartWatch::new(
        PlatformConfig::new(DeployMode::SmartWatch),
        standard_queries(),
    )
    .run(trace.packets());
    let first_alert = sw
        .alerts
        .iter()
        .map(|a| a.ts)
        .min()
        .expect("SmartWatch detects the scan");
    assert!(
        first_alert < smartwatch::net::Ts::from_secs(3),
        "SmartWatch should alert before Sonata can finish zooming: {first_alert}"
    );
}
