//! Control-plane integration: the engine with a controller attached
//! must keep exact accounting while the feedback loop flips live cache
//! modes and publishes steering snapshots, and while the operator's
//! pins shed load.
//!
//! These tests run on the wall clock, so they assert *invariants*
//! (conservation, timeline ordering, recovery) rather than exact
//! counter values. The rates are chosen so even a slow debug-profile
//! machine dispatches well above the spike threshold and well below the
//! recovery threshold.

use smartwatch_net::{Dur, FlowKey, Packet, PacketBuilder, Ts};
use smartwatch_runtime::books::Count;
use smartwatch_runtime::{
    AdminCmd, ControlConfig, ControlEvent, ControlReport, DatapathMode, Engine, EngineConfig,
    EngineReport, Pace,
};
use smartwatch_snic::Mode;
use smartwatch_telemetry::FlightKind;
use smartwatch_trace::background::{preset_trace, Preset};
use std::net::Ipv4Addr;

fn workload(total: usize) -> Vec<Packet> {
    let base = preset_trace(Preset::Caida2018, 400, Dur::from_millis(500), 23).into_packets();
    assert!(!base.is_empty());
    base.iter().cycle().take(total).copied().collect()
}

/// A controller tuned for test time-scales: 2 ms epochs, thresholds
/// bracketing a 0.2 Mpps base / 2.0 Mpps spike drive.
fn test_control() -> ControlConfig {
    ControlConfig {
        epoch_ms: 2,
        eta_lite_mpps: 0.5,     // per-shard; spike offers ~1.0 per shard
        eta_general_mpps: 0.15, // base offers ~0.1 per shard
        ..ControlConfig::default()
    }
}

fn spike() -> Pace {
    Pace::Spike {
        base_mpps: 0.2,
        peak_mpps: 2.0,
        spike_start: 0.2,
        spike_end: 0.8,
    }
}

#[test]
fn controlled_spike_conserves_and_recovers() {
    let cfg = EngineConfig::new(2).with_control(test_control());
    let report = Engine::new(cfg).run(&workload(100_000), spike());

    // Exact accounting survives steering: every offered packet is
    // processed or in a named drop counter.
    assert!(
        report.conserved(),
        "conservation violated:\n{:?}",
        report.shards
    );

    let ctrl = report.control.as_ref().expect("controller ran");
    assert!(ctrl.epochs > 10, "2 ms epochs over a ≥200 ms run");

    // The spike must drive Algorithm 4 into Lite on at least one shard,
    // and the calm tail must bring every shard back to General.
    let lite_switches = ctrl
        .timeline()
        .iter()
        .filter(|e| {
            matches!(
                e,
                smartwatch_runtime::ControlEvent::ModeSwitch {
                    mode: Mode::Lite,
                    ..
                }
            )
        })
        .count();
    assert!(
        lite_switches > 0,
        "spike must record a General→Lite switch in the timeline"
    );
    assert!(
        ctrl.mode_switches >= 2,
        "spike then recovery implies at least one flip each way, got {}",
        ctrl.mode_switches
    );
    assert!(
        ctrl.final_modes.iter().all(|&m| m == Mode::General),
        "calm tail must recover General, got {:?}",
        ctrl.final_modes
    );
    // Algorithm 4's flip is the one answer to the spike: nothing is
    // shed without the operator's pin.
    assert_eq!(
        (ctrl.shed_epochs, ctrl.shed_active, report.shed()),
        (0, false, 0),
        "an unpinned spike sheds nothing"
    );
    assert_eq!(ctrl.shed_packets, report.shed());
}

#[test]
fn controlled_spike_is_safe_on_every_ingest_topology() {
    // The same spike drive through the one dispatcher and through C
    // fused cores that each ingest their own flows: every core paces
    // its sub-stream against the *global* arrival schedule, so the
    // controller sees the same offered-rate shape and the safety
    // invariants must hold unchanged. (Whether a shard reaches Lite
    // depends on wall-clock scheduling headroom, so — unlike the test
    // above — this sweep asserts the invariants, not the overload
    // response itself.)
    let shapes = [
        (DatapathMode::Pipeline, 2usize),
        (DatapathMode::Rtc, 2),
        (DatapathMode::Rtc, 4),
    ];
    for (datapath, shards) in shapes {
        let mut cfg = EngineConfig::new(shards).with_control(test_control());
        cfg.datapath = datapath;
        let units = cfg.ingest_units();
        let at = format!("{datapath:?} shards={shards}");
        let report = Engine::new(cfg).run(&workload(100_000), spike());
        assert!(
            report.conserved(),
            "{at}: conservation violated:\n{:?}\n{:?}",
            report.shards,
            report.queues
        );
        assert_eq!(report.queues.len(), units);
        let ctrl = report.control.as_ref().expect("controller ran");
        assert!(ctrl.epochs > 10, "{at}: 2 ms epochs over a ≥200 ms run");
        assert!(
            ctrl.final_modes.iter().all(|&m| m == Mode::General),
            "{at}: calm tail must recover General, got {:?}",
            ctrl.final_modes
        );
        assert!(!ctrl.shed_active, "{at}: an unpinned spike sheds nothing");
        assert_eq!(
            ctrl.shed_packets,
            report.shed(),
            "{at}: controller's shed accounting must match the shards"
        );
        // Steering + shedding drops are enforced per ingest unit; their
        // per-queue tallies must sum to the report aggregates.
        let q_shed: u64 = report.queues.iter().map(|q| q[Count::Shed]).sum();
        let q_steer: u64 = report.queues.iter().map(|q| q[Count::SteerDropped]).sum();
        assert_eq!(q_shed, report.shed());
        assert_eq!(q_steer, report.steer_dropped());
    }
}

#[test]
fn live_mode_switches_touch_every_shard_cache_safely() {
    let cfg = EngineConfig::new(2).with_control(test_control());
    let engine = Engine::new(cfg);
    let report = engine.run(&workload(100_000), spike());
    let ctrl = report.control.expect("controller ran");
    assert!(ctrl.mode_switches > 0);

    // The shards applied the controller's decisions to their *live*
    // caches: the snic-side counter ticks once per applied set_mode.
    // (Registered per policy label; sum across all series.)
    let snap = engine.registry().snapshot();
    let applied: u64 = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "snic.cache.mode_switches")
        .map(|&(_, v)| v)
        .sum();
    assert!(applied > 0, "mode decisions must reach the live FlowCaches");
}

/// Every `mode_switch` the controller black-boxes names its epoch, and
/// that epoch's record in the decision audit agrees with it: the shard
/// runs the mode the event names, and ran the other one the epoch
/// before. The flight ring and the audit join on the epoch word.
#[test]
fn every_mode_switch_joins_its_decision_record_by_epoch() {
    let engine = Engine::new(EngineConfig::new(2).with_control(test_control()));
    let report = engine.run(&workload(100_000), spike());
    assert!(report.conserved());
    assert_eq!(engine.flight().total_dropped(), 0, "no flight ring wrapped");
    let ctrl = report.control.as_ref().expect("controller ran");
    let decisions = engine.decisions();
    assert_eq!(
        decisions.len() as u64,
        ctrl.epochs,
        "the audit holds every epoch"
    );

    let switches: Vec<(u64, u64, u64)> = engine
        .flight()
        .snapshot()
        .into_iter()
        .filter(|(name, _)| name == "sw-control")
        .flat_map(|(_, events)| events)
        .filter(|e| e.kind == FlightKind::ModeSwitch)
        .map(|e| (e.a, e.b, e.c))
        .collect();
    assert!(switches.len() >= 2, "the spike flips modes both ways");
    for &(shard, mode, epoch) in &switches {
        let record = decisions
            .iter()
            .find(|r| r.epoch == epoch)
            .unwrap_or_else(|| panic!("mode_switch names epoch {epoch}, the audit has none"));
        let decided = record.modes[shard as usize];
        assert_eq!(
            u64::from(decided.code()),
            mode,
            "epoch {epoch} shard {shard}"
        );
        if let Some(before) = decisions.iter().find(|r| r.epoch + 1 == epoch) {
            assert_ne!(
                before.modes[shard as usize], decided,
                "epoch {epoch} shard {shard}: a switch changes the mode"
            );
        }
    }
    let timeline: Vec<(u64, u64, u64)> = ctrl
        .timeline()
        .into_iter()
        .filter_map(|e| match e {
            ControlEvent::ModeSwitch { epoch, shard, mode } => {
                Some((shard as u64, u64::from(mode.code()), epoch))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        switches, timeline,
        "flight and timeline list the same switches"
    );
}

#[test]
fn engine_without_control_reports_none_and_zero_shed() {
    let cfg = EngineConfig::new(2);
    let report = Engine::new(cfg).run(&workload(20_000), Pace::Flatout);
    assert!(report.control.is_none());
    assert_eq!(report.shed(), 0);
    assert_eq!(report.steer_dropped(), 0);
    assert!(report.conserved());
}

/// A controller that only relays the operator: 2 ms epochs, Algorithm
/// 4's thresholds parked far above any drive here, so nothing sheds or
/// switches mode unless a row below pins it.
fn inert_control() -> ControlConfig {
    ControlConfig {
        epoch_ms: 2,
        eta_lite_mpps: 1_000.0,
        eta_general_mpps: 100.0,
        ..ControlConfig::default()
    }
}

/// `admin_edit` events in the engine's black box so far.
fn admin_edits(engine: &Engine) -> usize {
    let rings = engine.flight().snapshot();
    rings
        .iter()
        .flat_map(|(_, events)| events)
        .filter(|e| e.kind == FlightKind::AdminEdit)
        .count()
}

/// The shed pin is queued once and stands: segment 0 sheds from the
/// epoch that applies it, every later segment opens under it and sheds
/// all it is offered.
fn shed_pin_outlives_the_segment() {
    let engine = Engine::new(EngineConfig::new(2).with_control(inert_control()));
    let packets = workload(30_000);
    assert!(engine.admin(AdminCmd::ForceShed(true)));
    for segment in 0..3 {
        let report = engine.run(&packets, Pace::RateMpps(0.3));
        assert!(report.conserved(), "segment {segment}: {:?}", report.shards);
        if segment == 0 {
            assert!(report.shed() > 0, "the pin must shed once applied");
        } else {
            assert_eq!(
                (report.shed(), report.processed()),
                (report.offered, 0),
                "segment {segment} must open already shedding"
            );
        }
        let ctrl = report.control.expect("controller ran");
        assert!(ctrl.shed_active, "segment {segment}: pin still stands");
    }
    assert_eq!(admin_edits(&engine), 1, "queued once, applied once");
}

/// The mode pin lives beside the state it overrides: the report, the
/// audit, the gauge and the shard all say the pinned mode, in the
/// segment that applied it (queued before the first run, so from its
/// first epoch) and in the next, until the operator releases it.
fn mode_pin_is_what_every_view_reports() {
    let engine = Engine::new(EngineConfig::new(2).with_control(inert_control()));
    let packets = workload(30_000);
    let gauge = engine.registry().gauge("control.mode", &[("shard", "0")]);
    let timeline = |c: &ControlReport| -> Vec<String> {
        // `e12 shard0->lite` without the wall-clock-dependent epoch.
        let tail = |e: &ControlEvent| e.render().split(' ').nth(1).map(String::from);
        c.timeline().iter().filter_map(tail).collect()
    };

    assert!(engine.admin(AdminCmd::ForceMode {
        shard: 0,
        mode: Some(Mode::Lite),
    }));
    let first = engine.run(&packets, Pace::RateMpps(0.3));
    let ctrl = first.control.as_ref().expect("controller ran");
    assert_eq!(engine.admin_applied(), 1, "an edit queued before run lands");
    assert_eq!(ctrl.final_modes, [Mode::Lite, Mode::General]);
    assert_eq!(ctrl.mode_switches, 1);
    assert_eq!(timeline(ctrl), ["shard0->lite"]);
    assert!(!ctrl.decisions.is_empty());
    for d in &ctrl.decisions {
        assert_eq!(d.modes, [Mode::Lite, Mode::General], "epoch {}", d.epoch);
    }
    assert_eq!(gauge.get(), 1.0);
    assert_eq!(first.shards[0].cache.mode_switches, 1);

    // Nothing is queued for the second segment: shard 0's reset cache
    // goes Lite at its first batch boundary, before it holds a record a
    // cleanup could evict.
    let second = engine.run(&packets, Pace::RateMpps(0.3));
    let ctrl = second.control.as_ref().expect("controller ran");
    assert!(second.conserved());
    assert_eq!(admin_edits(&engine), 1, "no new admin_edit");
    assert_eq!(ctrl.final_modes, [Mode::Lite, Mode::General]);
    assert_eq!((ctrl.mode_switches, timeline(ctrl).len()), (1, 1));
    let cache = second.shards[0].cache;
    assert_eq!((cache.mode_switches, cache.cleanup_evictions), (1, 0));
    assert_eq!(second.shards[1].cache.mode_switches, 0);

    assert!(engine.admin(AdminCmd::ForceMode {
        shard: 0,
        mode: None,
    }));
    let third = engine.run(&packets, Pace::RateMpps(0.3));
    let ctrl = third.control.as_ref().expect("controller ran");
    assert_eq!(timeline(ctrl), ["shard0->lite", "shard0->general"]);
    assert_eq!(ctrl.final_modes, [Mode::General, Mode::General]);
    assert_eq!(gauge.get(), 0.0);
}

/// One controller serves every segment, so its report is one lifetime:
/// epochs run on across segments and match the engine's
/// `control.epochs` counter. That the first epoch of a segment measures
/// that epoch — not the registry's engine-lifetime counters — is pinned
/// without a clock by the controller's
/// `new_segment_forgets_the_traffic_and_keeps_the_engine`.
fn no_phantom_first_epoch() {
    let engine = Engine::new(EngineConfig::new(2).with_control(ControlConfig::default()));
    let packets = workload(100_000);
    let mut epochs = 0;
    for segment in 0..4 {
        let report = engine.run(&packets, Pace::RateMpps(0.25));
        let ctrl = report.control.expect("controller ran");
        assert!(ctrl.epochs > epochs, "segment {segment}: epochs run on");
        assert_eq!(
            ctrl.epochs,
            engine.registry().counter("control.epochs", &[]).get(),
            "segment {segment}: one controller, built once"
        );
        epochs = ctrl.epochs;
    }
}

/// A paced one-shard run where heavy-hitter promotion is all the
/// controller can reach: 0.2 Mpps against 5 ms epochs (1 000 packets an
/// epoch) and a threshold of 100 packets an epoch. With `elephant`,
/// every fourth packet is one benign web flow — 250 an epoch — and the
/// rest spread over 1 000 web mice, at most 40 packets each in the
/// whole run.
fn promotion_run(elephant: bool) -> EngineReport {
    let packets: Vec<Packet> = (0..40_000u32)
        .map(|i| {
            let port = if elephant && i % 4 == 0 {
                1
            } else {
                1_000 + (i % 1_000) as u16
            };
            let key = FlowKey::tcp(
                Ipv4Addr::new(192, 0, 2, 1),
                port,
                Ipv4Addr::new(198, 51, 100, 1),
                443,
            );
            PacketBuilder::new(key, Ts::from_micros(5 * u64::from(i))).build()
        })
        .collect();
    let ctrl = ControlConfig {
        epoch_ms: 5,
        promote_pkts_per_epoch: 100,
        ..inert_control()
    };
    let report =
        Engine::new(EngineConfig::new(1).with_control(ctrl)).run(&packets, Pace::RateMpps(0.2));
    assert!(report.conserved(), "{:?}", report.shards);
    report
}

#[test]
fn a_benign_elephant_is_promoted_and_mice_are_not() {
    // Its FlowCache record crosses the heavy-hitter quantum ~15 times an
    // epoch, so the controller sees ~250 packets in every epoch: two
    // epochs in, the flow is whitelisted and its packets skip the
    // detectors. Expected fast-path share ≈ 9 000 of its 10 000; a
    // quarter is asserted.
    let report = promotion_run(true);
    let ctrl = report.control.as_ref().expect("controller ran");
    assert!(
        ctrl.whitelist_promotions >= 1,
        "no promotion in {} epochs",
        ctrl.epochs
    );
    let fast = report.total(Count::FastPath);
    assert!(
        (2_500..=10_000).contains(&fast),
        "{fast} fast-path packets of the elephant's 10 000"
    );

    let mice = promotion_run(false);
    let ctrl = mice.control.as_ref().expect("controller ran");
    assert_eq!(ctrl.whitelist_promotions, 0, "mice were promoted");
    assert_eq!(mice.total(Count::FastPath), 0);
}

/// What a controller rebuilt per segment got wrong, one row each. All
/// rows run; the failure names every row that fell.
#[test]
fn the_controller_is_resident() {
    let rows: [(&str, fn()); 3] = [
        (
            "shed pin outlives the segment",
            shed_pin_outlives_the_segment,
        ),
        (
            "mode pin is what every view reports",
            mode_pin_is_what_every_view_reports,
        ),
        ("no phantom first epoch", no_phantom_first_epoch),
    ];
    let failed: Vec<&str> = rows
        .iter()
        .filter(|(_, row)| std::panic::catch_unwind(row).is_err())
        .map(|&(name, _)| name)
        .collect();
    assert!(failed.is_empty(), "rows failed: {failed:?}");
}
