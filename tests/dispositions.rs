//! One minimal scenario per [`Disposition`], on every datapath where
//! the fate is reachable: the run must actually end packets that way,
//! the four views of the books — the report's ledgers, `/stats.json`,
//! the registry counters and the flight ring — must agree on how many,
//! and Σ dispositions = offered.

// The second lint is the first one's blind spot: a `_` that stands for
// exactly one variant today.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use smartwatch::net::{Dur, FlowHasher, FlowKey, Packet, PacketBuilder, Ts};
use smartwatch::runtime::books::{Axis, Disposition, Ledger};
use smartwatch::runtime::{
    AdminCmd, ControlConfig, DatapathMode, Engine, EngineConfig, EngineReport, Pace,
};
use smartwatch::trace::attacks::auth::benign_logins;
use smartwatch::trace::background::{preset_trace, Preset};
use std::net::Ipv4Addr;

const BOTH: &[DatapathMode] = &[DatapathMode::Pipeline, DatapathMode::Rtc];

fn caida(seed: u64) -> Vec<Packet> {
    preset_trace(Preset::Caida2018, 300, Dur::from_millis(500), seed).into_packets()
}

/// One SSH flow the scenarios can aim a verdict or an admin edit at.
fn target() -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(203, 0, 113, 77),
        40_001,
        Ipv4Addr::new(10, 0, 0, 1),
        443,
    )
}

/// A controller that only relays admin edits: 2 ms epochs and the
/// default Lite threshold, far above any drive here, so nothing sheds
/// or switches mode unless a scenario forces it.
fn inert_control(cfg: EngineConfig) -> EngineConfig {
    cfg.with_control(ControlConfig {
        epoch_ms: 2,
        ..ControlConfig::default()
    })
}

/// ~20k packets at 0.3 Mpps: dozens of epochs after the queued admin
/// edit applies at the first one.
fn paced_with_admin(cfg: EngineConfig, cmd: AdminCmd) -> (Engine, EngineReport) {
    let mut stream = Vec::with_capacity(20_000);
    for pkt in caida(43).iter().cycle().take(10_000) {
        stream.push(*pkt);
        stream.push(PacketBuilder::new(target(), pkt.ts).build());
    }
    let engine = Engine::new(inert_control(cfg));
    assert!(engine.admin(cmd));
    let report = engine.run(&stream, Pace::RateMpps(0.3));
    (engine, report)
}

/// One run on an engine configured from the given base.
type Run = fn(EngineConfig) -> (Engine, EngineReport);

/// The datapaths a fate can occur on, and the smallest run that makes
/// it occur. Exhaustive: a new fate needs its scenario to compile.
fn scenario(fate: Disposition) -> (&'static [DatapathMode], Run) {
    match fate {
        // A 1-batch ring under an absurd offered rate overruns. A fused
        // core has no lane to overrun: pipeline only.
        Disposition::IngestDrop => (&[DatapathMode::Pipeline], |mut cfg| {
            cfg.queue_batches = 1;
            cfg.batch = 32;
            let engine = Engine::new(cfg);
            let report = engine.run(&caida(11), Pace::RateMpps(10_000.0));
            (engine, report)
        }),
        Disposition::Shed => (BOTH, |cfg| {
            paced_with_admin(cfg, AdminCmd::ForceShed(Some(true)))
        }),
        Disposition::SteerDrop => (BOTH, |cfg| {
            let digest = FlowHasher::new(cfg.hash_seed).digest_symmetric(&target()).1;
            paced_with_admin(cfg, AdminCmd::BlacklistAdd(digest.0))
        }),
        // One source brute-forcing SSH: inline triage blacklists its
        // flows, enforcement drops their follow-up packets on the shard.
        Disposition::VerdictDrop => (BOTH, |mut cfg| {
            cfg.triage_threshold = 8;
            let mut packets = Vec::new();
            for round in 0..50u64 {
                for sport in 0..32u16 {
                    let key = FlowKey::tcp(
                        Ipv4Addr::new(203, 0, 113, 9),
                        40_000 + sport,
                        Ipv4Addr::new(10, 0, 0, 1),
                        22,
                    );
                    let ts = Ts::from_nanos(round * 1_000_000 + u64::from(sport));
                    packets.push(PacketBuilder::new(key, ts).build());
                }
            }
            let engine = Engine::new(cfg);
            let report = engine.run(&packets, Pace::Flatout);
            (engine, report)
        }),
        // A successful SSH login is whitelisted by the suite; the rest
        // of the session skips the detectors.
        Disposition::FastPath => (BOTH, |cfg| {
            let logins = benign_logins(Ipv4Addr::new(10, 0, 0, 1), 22, 8, Ts::ZERO, 5);
            let engine = Engine::new(cfg);
            let report = engine.run(logins.packets(), Pace::Flatout);
            (engine, report)
        }),
        Disposition::Inspected => (BOTH, |cfg| {
            let engine = Engine::new(cfg);
            let report = engine.run(&caida(7), Pace::Flatout);
            (engine, report)
        }),
    }
}

/// The four views agree, and the law holds.
fn check(label: &str, fate: Disposition, engine: &Engine, report: &EngineReport) {
    assert!(
        report.conserved(),
        "{label}: books do not balance:\n{}",
        report.deterministic_summary()
    );
    let shard_books: Vec<Ledger> = report.shards.iter().map(|s| s.counts).collect();
    let accounted: u64 = shard_books.iter().map(Ledger::accounted).sum();
    assert_eq!(accounted, report.offered, "{label}: Σ dispositions");
    let ended: u64 = shard_books.iter().map(|b| b.fate(fate)).sum();
    assert!(
        ended > 0,
        "{label}: the scenario must end packets as {fate:?}"
    );

    // `/stats.json` and the registry: a fresh engine's cumulative
    // counters are this run's, count for count.
    let stats: serde_json::Value =
        serde_json::from_str(&engine.stats_json()).expect("stats.json parses");
    assert_eq!(stats.get("conserved").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        stats.get("offered").and_then(|v| v.as_u64()),
        Some(report.offered)
    );
    for (axis, key, books) in [
        (Axis::Shard, "shards", &shard_books),
        (Axis::Queue, "queues", &report.queues),
    ] {
        let rows = stats.get(key).and_then(|v| v.as_array()).expect(key);
        assert_eq!(rows.len(), books.len(), "{label}: {key}");
        for (i, (row, b)) in rows.iter().zip(books.iter()).enumerate() {
            for c in axis.row() {
                let json = row.get(c.name()).and_then(|v| v.as_u64());
                assert_eq!(json, Some(b[c]), "{label}: {key}[{i}].{}", c.name());
            }
            let idx = i.to_string();
            for c in axis.counts() {
                let metric = format!("runtime.{}.{}", axis.label(), c.name());
                let live = engine.registry().counter(&metric, &[(axis.label(), &idx)]);
                assert_eq!(live.get(), b[c], "{label}: {metric}{{{idx}}}");
            }
        }
    }

    // The black box: every loss has a flight kind, and its events'
    // count words add up to the books (nothing was overwritten).
    assert_eq!(engine.flight().total_dropped(), 0, "{label}: ring overrun");
    if let Some(kind) = fate.flight_kind() {
        let rings = engine.flight().snapshot();
        let noted: u64 = rings
            .iter()
            .flat_map(|(_, events)| events)
            .filter(|e| e.kind == kind)
            .map(|e| {
                if kind.arg_names()[0] == "count" {
                    e.a
                } else {
                    e.b
                }
            })
            .sum();
        assert_eq!(noted, ended, "{label}: {} events", kind.label());
    }
}

#[test]
fn every_disposition_is_reachable_and_every_view_agrees() {
    for fate in Disposition::ALL {
        let (datapaths, run) = scenario(fate);
        for &datapath in datapaths {
            // Inline triage: verdicts are published by the shards
            // themselves, so no host-pool timing decides a count.
            let mut cfg = EngineConfig::new(2);
            cfg.host_workers = 0;
            cfg.datapath = datapath;
            let (engine, report) = run(cfg);
            check(&format!("{fate:?}/{datapath:?}"), fate, &engine, &report);
        }
    }
}
