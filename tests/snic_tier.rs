//! The engine's sNIC tier is the platform's: one `core::SnicTier` step
//! behind both clocks. The virtual-time platform in `SnicHost` mode and
//! a one-shard engine with inline triage that never blacklists run the
//! same trace, and every book the tier keeps must come out the same —
//! each `CacheStats` field (pins and unpins among them), the escalations
//! and the per-packet alerts.
//!
//! The platform's snapshot interval is set past the trace's end: §3.4's
//! snapshot resets the records' packet counts, which LPC eviction reads,
//! and the engine takes no snapshot. Slowloris is the platform's
//! interval detector and has no engine counterpart, so its alerts are
//! left out. The one named divergence is the engine's whitelist fast
//! path: a flow the suite cleared skips the engine's suite from then on,
//! and only the engine's.

use smartwatch::core::platform::{PlatformConfig, SmartWatch};
use smartwatch::core::DeployMode;
use smartwatch::net::{AttackKind, Dur, Packet, Ts};
use smartwatch::runtime::books::{Count, Disposition};
use smartwatch::runtime::{Engine, EngineConfig, Pace};
use smartwatch::snic::{CacheStats, FlowCacheConfig};
use smartwatch::trace::attacks::auth::{bruteforce, BruteforceConfig};
use smartwatch::trace::attacks::portscan::{portscan, ScanConfig};
use smartwatch::trace::attacks::victim_ip;
use smartwatch::trace::background::{preset_trace, Preset};
use smartwatch::trace::Trace;

/// What one run's sNIC tier did.
#[derive(Debug, PartialEq, Eq)]
struct TierBooks {
    cache: CacheStats,
    /// Packets sent to the host: the engine's escalations, the
    /// platform's `host_processed`.
    escalated: u64,
    /// Alerts from the per-packet suite and its final sweep.
    alerts: u64,
}

fn platform(packets: &[Packet], bits: u32) -> (TierBooks, u64) {
    let mut cfg = PlatformConfig::new(DeployMode::SnicHost);
    cfg.cache = FlowCacheConfig::general(bits);
    cfg.interval = Dur::from_secs(3_600);
    let mut sw = SmartWatch::new(cfg, vec![]);
    for p in packets {
        sw.on_packet(p);
    }
    let cache = sw.tier.cache().stats();
    let inspected = sw.tier.suite.ops.total;
    let last = packets.last().map_or(Ts::ZERO, |p| p.ts);
    let report = sw.finish(last);
    let alerts = report
        .alerts
        .iter()
        .filter(|a| a.kind != AttackKind::Slowloris)
        .count() as u64;
    let books = TierBooks {
        cache,
        escalated: report.metrics.host_processed,
        alerts,
    };
    (books, inspected)
}

fn engine(packets: &[Packet], bits: u32) -> (TierBooks, u64, u64) {
    let mut cfg = EngineConfig::new(1);
    cfg.host_workers = 0;
    cfg.triage_threshold = u64::MAX;
    cfg.cache_row_bits = bits;
    let report = Engine::new(cfg).run(packets, Pace::Flatout);
    let shard = &report.shards[0];
    let counts = &shard.counts;
    assert_eq!(counts[Count::Processed], packets.len() as u64);
    assert_eq!(counts[Count::VerdictDropped], 0, "triage never blacklists");
    let books = TierBooks {
        cache: shard.cache,
        escalated: counts[Count::Escalated],
        alerts: counts[Count::Alerts],
    };
    (
        books,
        counts.fate(Disposition::Inspected),
        counts[Count::FastPath],
    )
}

/// Both tiers on `packets` at `2^bits` rows: the same books, and the
/// engine's suite saw every packet but its fast path's. Returns the
/// fast path's size.
fn same_tier(packets: &[Packet], bits: u32) -> u64 {
    let (theirs, platform_inspected) = platform(packets, bits);
    let (ours, inspected, fast_path) = engine(packets, bits);
    assert_eq!(ours, theirs, "2^{bits} rows: engine vs platform");
    assert_eq!(
        platform_inspected - fast_path,
        inspected,
        "2^{bits} rows: the suites part only on the engine's fast path"
    );
    fast_path
}

fn caida(flows: usize) -> Trace {
    preset_trace(Preset::Caida2018, flows, Dur::from_secs(4), 3)
}

/// CAIDA at 400 flows, a port scan, and an SSH brute force whose last
/// attempt logs in: a session the suite escalates and clears at once.
fn merged() -> Trace {
    let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(40), 80, 4));
    let mut auth = BruteforceConfig::ssh(victim_ip(0), Ts::ZERO, 11);
    auth.final_success = true;
    auth.attempt_gap = Dur::from_millis(200);
    Trace::merge([caida(400), scan, bruteforce(&auth)])
}

#[test]
fn the_engines_snic_tier_is_the_platforms_on_caida() {
    let trace = caida(2_000);
    for bits in [14, 7] {
        same_tier(trace.packets(), bits);
    }
}

#[test]
fn the_engines_snic_tier_is_the_platforms_on_a_scan_and_a_successful_login() {
    let trace = merged();
    for bits in [14, 5] {
        let fast_path = same_tier(trace.packets(), bits);
        assert!(
            fast_path > 0,
            "2^{bits} rows: the cleared session takes the fast path"
        );
    }
}
