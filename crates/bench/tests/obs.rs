//! Observability-plane integration tests: wall-clock tracing coverage,
//! live `/stats.json` vs the final report, per-queue Prometheus
//! families, and the flight recorder as a faithful control-plane
//! black box.

use smartwatch_bench::exp_control::{control_config, ControlRunSpec};
use smartwatch_bench::exp_engine::{engine_run_full, EngineRunSpec};
use smartwatch_bench::run_shape::{EngineWorkload, RunShape};
use smartwatch_bench::{serve, workloads, ExpCtx};
use smartwatch_runtime::books::Axis;
use smartwatch_runtime::{AdminCmd, DatapathMode, Engine, EngineConfig, Pace};
use smartwatch_telemetry::FlightKind;
use smartwatch_trace::background::Preset;
use std::io::{Read, Write};
use std::net::TcpStream;

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The `runtime_queue_*` slice of the Prometheus exposition, in
/// rendered order (HELP/TYPE lines included).
fn queue_section(ctx: &ExpCtx) -> String {
    ctx.registry
        .snapshot()
        .to_prometheus()
        .lines()
        .filter(|l| l.contains("runtime_queue_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// S4: the per-queue counter families are complete (every family ×
/// every queue label) and byte-deterministic across same-spec runs,
/// for 1, 2 and 4 ingest units — fused cores, one queue label each.
#[test]
fn per_queue_prometheus_families_are_complete_and_deterministic() {
    for cores in [1usize, 2, 4] {
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                shards: cores,
                datapath: DatapathMode::Rtc,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let run = || {
            let ctx = ExpCtx::new(1);
            let (_, report, _) = engine_run_full(&ctx, &spec).unwrap();
            assert!(report.conserved());
            queue_section(&ctx)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a, b,
            "runtime.queue.* families must be byte-deterministic for cores={cores}"
        );
        for family in [
            "runtime_queue_offered",
            "runtime_queue_ingested",
            "runtime_queue_ingest_dropped",
            "runtime_queue_shed",
            "runtime_queue_steer_dropped",
        ] {
            assert!(
                a.contains(&format!("# TYPE {family} counter")),
                "missing TYPE line for {family} at cores={cores}"
            );
            for q in 0..cores {
                let series = format!("{family}{{queue=\"{q}\"}}");
                assert!(
                    a.contains(&series),
                    "missing series {series} at cores={cores}:\n{a}"
                );
            }
        }
    }
}

/// Tentpole: a traced run produces a parseable chrome-trace document
/// with at least one complete span on the dispatcher's, every shard's
/// and the host worker's track.
#[test]
fn traced_run_covers_every_engine_thread() {
    let ctx = ExpCtx::new(1);
    let spec = EngineRunSpec {
        shape: RunShape {
            packets: 20_000,
            workload: EngineWorkload::Mix, // exercises host escalation
            trace_sample: 1,
            ..RunShape::default()
        },
        ..EngineRunSpec::default()
    };
    let (_, report, _) = engine_run_full(&ctx, &spec).unwrap();
    assert!(report.escalated() > 0, "mix workload must escalate");
    assert!(report.host_processed > 0, "host workers must see traffic");

    let doc: serde_json::Value =
        serde_json::from_str(&ctx.tracer.to_chrome_json()).expect("valid chrome-trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut tracks: Vec<(u64, String)> = Vec::new();
    let mut span_tids: Vec<u64> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        if ph == "M" {
            if let Some(name) = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
            {
                tracks.push((tid, name.to_string()));
            }
        } else if ph == "X" {
            span_tids.push(tid);
        }
    }
    for thread in ["sw-rxq-0", "sw-shard-0", "sw-shard-1", "sw-host-0"] {
        let tid = tracks
            .iter()
            .find(|(_, n)| n == thread)
            .map(|(t, _)| *t)
            .unwrap_or_else(|| panic!("no track named {thread}: {tracks:?}"));
        assert!(
            span_tids.contains(&tid),
            "track {thread} carries no spans (tids with spans: {span_tids:?})"
        );
    }
}

/// Tentpole: after a run, `/stats.json` (the same document the live
/// endpoint serves) agrees with the final [`EngineReport`] on every
/// conservation number — totals, every per-shard field and every
/// per-queue field, in both datapaths — and all three routes answer
/// over HTTP.
#[test]
fn live_stats_match_the_final_report() {
    let run = |datapath: DatapathMode| {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                datapath,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (_, report, engine) = engine_run_full(&ctx, &spec).unwrap();
        let stats: serde_json::Value =
            serde_json::from_str(&engine.stats_json()).expect("stats.json is valid JSON");
        let rows = |k: &str| -> Vec<serde_json::Value> {
            stats
                .get(k)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("stats.json missing {k}"))
                .clone()
        };
        let num = |row: &serde_json::Value, k: &str| {
            row.get(k)
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("{datapath:?}: stats row missing {k}: {row:?}"))
        };
        assert_eq!(num(&stats, "offered"), report.offered);
        assert_eq!(num(&stats, "processed"), report.processed());
        assert_eq!(num(&stats, "ingest_dropped"), report.ingest_dropped());
        assert_eq!(num(&stats, "shed"), report.shed());
        assert_eq!(num(&stats, "steer_dropped"), report.steer_dropped());
        assert_eq!(num(&stats, "host_processed"), report.host_processed);
        assert_eq!(
            stats.get("conserved").and_then(|v| v.as_bool()),
            Some(report.conserved())
        );

        let shards = rows("shards");
        assert_eq!(
            shards.len(),
            spec.shape.shards,
            "one stats object per shard"
        );
        for (i, (row, s)) in shards.iter().zip(&report.shards).enumerate() {
            assert_eq!(num(row, "shard"), i as u64);
            for c in Axis::Shard.row() {
                let k = c.name();
                assert_eq!(num(row, k), s.counts[c], "{datapath:?} shard {i} field {k}");
            }
        }
        // One ingest unit: the dispatcher (pipeline) or each fused
        // core (RTC).
        let queues = rows("queues");
        assert_eq!(queues.len(), report.queues.len());
        assert_eq!(queues.len(), engine.config().ingest_units());
        for (q, (row, s)) in queues.iter().zip(&report.queues).enumerate() {
            assert_eq!(num(row, "queue"), q as u64);
            for c in Axis::Queue.row() {
                let k = c.name();
                assert_eq!(num(row, k), s[c], "{datapath:?} queue {q} field {k}");
            }
        }
        (report, engine)
    };
    run(DatapathMode::Rtc);
    let (report, engine) = run(DatapathMode::Pipeline);

    // The same numbers over the wire.
    let server = serve::serve("127.0.0.1:0", &engine).expect("bind ephemeral port");
    let addr = server.local_addr();
    let (status, body) = get(addr, "/stats.json");
    assert_eq!(status, 200);
    let live: serde_json::Value = serde_json::from_str(&body).expect("live stats parse");
    assert_eq!(
        live.get("offered").and_then(|v| v.as_u64()),
        Some(report.offered)
    );
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.starts_with("# HELP"), "Prometheus exposition format");
    assert!(body.contains("runtime_shard_processed"));
    let (status, body) = get(addr, "/flight.json");
    assert_eq!(status, 200);
    let _: serde_json::Value = serde_json::from_str(&body).expect("flight.json parses");
    server.shutdown();
}

/// Tentpole: the flight recorder's control-thread ring reproduces the controller's mode-switch and
/// shed sequence exactly as the [`ControlReport`] timeline records it.
#[test]
fn flight_recorder_mirrors_the_control_timeline() {
    let spec = ControlRunSpec {
        shape: RunShape {
            packets: 100_000,
            ..RunShape::default()
        },
        ..ControlRunSpec::default()
    };
    let base = workloads::caida_64b(Preset::Caida2018, 1, 0xC7).into_packets();
    let packets: Vec<_> = base
        .iter()
        .cycle()
        .take(spec.shape.packets)
        .copied()
        .collect();
    let cfg = EngineConfig::new(spec.shape.shards);
    let engine = Engine::new(cfg.with_control(control_config(&spec)));
    // Shedding is the operator's: pinned before the run (applied at the
    // first epoch) and released once that edit has landed — the epoch
    // that applied it had already taken the mailbox, so the release
    // lands in a later one and the run holds a shed edge each way.
    assert!(engine.admin(AdminCmd::ForceShed(Some(true))));
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..5_000 {
                if engine.admin_applied() > 0 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(engine.admin(AdminCmd::ForceShed(Some(false))));
        });
        engine.run(
            &packets,
            Pace::Spike {
                base_mpps: spec.base_mpps,
                peak_mpps: spec.peak_mpps,
                spike_start: spec.spike_start,
                spike_end: spec.spike_end,
            },
        )
    });
    assert!(report.conserved());
    let ctrl = report.control.as_ref().expect("controller ran");
    assert!(ctrl.mode_switches >= 2, "spike must flip modes both ways");

    let mut want_switches: Vec<(u64, u64)> = Vec::new();
    let mut want_shed: Vec<(bool, u64)> = Vec::new();
    for e in &ctrl.timeline() {
        match e {
            smartwatch_runtime::ControlEvent::ModeSwitch { shard, mode, .. } => {
                want_switches.push((*shard as u64, u64::from(mode.code())));
            }
            smartwatch_runtime::ControlEvent::ShedOn { epoch } => want_shed.push((true, *epoch)),
            smartwatch_runtime::ControlEvent::ShedOff { epoch } => want_shed.push((false, *epoch)),
        }
    }

    let rings = engine.flight().snapshot();
    let control_ring = rings
        .iter()
        .find(|(name, _)| name == "sw-control")
        .map(|(_, events)| events)
        .expect("control thread owns a flight ring");
    let got_switches: Vec<(u64, u64)> = control_ring
        .iter()
        .filter(|e| e.kind == FlightKind::ModeSwitch)
        .map(|e| (e.a, e.b))
        .collect();
    let got_shed: Vec<(bool, u64)> = control_ring
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::ShedOn | FlightKind::ShedOff))
        .map(|e| (e.kind == FlightKind::ShedOn, e.a))
        .collect();
    assert_eq!(
        got_switches, want_switches,
        "flight ModeSwitch sequence must match the control timeline"
    );
    assert!(!want_shed.is_empty(), "the pin shows as a shed edge");
    assert_eq!(
        got_shed, want_shed,
        "flight shed edges must match the control timeline"
    );
    assert_eq!(
        report.control.as_ref().map(|c| c.decisions.is_empty()),
        Some(false),
        "decision audit rides along in the control report"
    );
}
