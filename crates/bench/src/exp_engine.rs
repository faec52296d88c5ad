//! `repro engine` — the wall-clock runtime experiment.
//!
//! Unlike every figure/table experiment (which runs in virtual time and
//! is deterministic for a seed), this one executes the full pipeline on
//! real OS threads via [`smartwatch_runtime`] and reports *measured*
//! throughput. Numbers are machine-dependent by design; the exact
//! counters (conservation, escalations, verdicts) are still checkable.

use crate::output::{object, Table};
use crate::run_shape::{datapath_label, rate_pace, EngineSource, RunShape};
use crate::ExpCtx;
use serde::Value;
use smartwatch_runtime::{DatapathMode, Engine, EngineReport, Pace};
use smartwatch_telemetry::HistSnapshot;
use std::sync::Arc;

/// One `repro engine` invocation, fully specified: the shared
/// [`RunShape`] plus the one thing only this driver reads.
#[derive(Clone, Debug, Default)]
pub struct EngineRunSpec {
    /// Engine, replay input and watchers.
    pub shape: RunShape,
    /// Offered rate in Mpps; `None` replays flat-out with backpressure.
    pub rate_mpps: Option<f64>,
}

fn ns_cell(h: &HistSnapshot) -> String {
    if h.count == 0 {
        "-".to_string()
    } else {
        format!("{}/{}/{}", h.p50, h.p90, h.p99)
    }
}

/// Run the engine once and render the report; the raw
/// [`EngineReport`] feeds machine-readable output ([`bench_json`], CI
/// artifacts) and the [`Engine`] itself is handed back so callers can
/// dump its flight recorder or decision audit after the run
/// (`--flight-dump`, anomaly artifacts). Fails, before any packet is
/// offered, on a shape that cannot be replayed or opened.
pub fn engine_run_full(
    ctx: &ExpCtx,
    spec: &EngineRunSpec,
) -> Result<(Table, EngineReport, Arc<Engine>), String> {
    let replay = spec.shape.replay(ctx.scale)?;
    let pace = rate_pace(spec.rate_mpps);
    let run = spec.shape.open(ctx, |cfg| cfg, crate::serve::serve)?;
    let report = replay.run(&run.engine, pace);
    let table = render(spec, pace, &report);
    Ok((table, report, run.close()))
}

/// One stage's tail latencies in the bench artifact and how many
/// sampled readings they rest on. RTC runs have no queue crossings, so
/// their queue wait has no readings at all.
fn stage_json(h: &HistSnapshot) -> Value {
    object([("p50_ns", &h.p50), ("p99_ns", &h.p99), ("count", &h.count)])
}

/// Mean wall-clock budget per processed packet, derived from the
/// measured Mpps (1 Mpps ⇔ 1000 ns/pkt).
fn ns_per_packet(r: &EngineReport) -> f64 {
    let mpps = r.mpps();
    if mpps > 0.0 {
        1000.0 / mpps
    } else {
        0.0
    }
}

/// The FlowCache section of the bench artifact: hit mix, tag-filtered
/// probe lengths, the batch pipeline's achieved depth and the lines its
/// stage A hinted.
fn flowcache_json(f: &smartwatch_runtime::FlowCacheSummary) -> Value {
    object([
        ("burst", &f.burst),
        ("hit_rate", &f.hit_rate()),
        ("p_hits", &f.p_hits),
        ("e_hits", &f.e_hits),
        ("misses", &f.misses),
        ("to_host", &f.to_host),
        ("ring_pushes", &f.ring_pushes),
        ("probe_hist", &f.probe_hist),
        ("mean_probe_len", &f.mean_probe_len()),
        ("bursts", &f.bursts),
        ("burst_pkts", &f.burst_pkts),
        ("hinted_lines", &f.hinted_lines),
        ("mean_burst_depth", &f.mean_burst_depth()),
    ])
}

/// The CI benchmark artifact (`BENCH_engine.json`): one flat JSON object
/// with the headline throughput numbers and per-stage tail latencies, so
/// runs are diffable across commits without parsing the rendered table.
pub fn bench_json(spec: &EngineRunSpec, r: &EngineReport) -> String {
    let shape = &spec.shape;
    let v = object([
        ("bench", &"engine"),
        ("shards", &shape.shards),
        ("datapath", &datapath_label(shape.datapath)),
        ("batch", &shape.batch),
        ("workload", &format!("{:?}", shape.workload).to_lowercase()),
        ("source", &shape.source.label()),
        ("rate_mpps", &spec.rate_mpps),
        ("offered", &r.offered),
        ("processed", &r.processed()),
        ("dropped", &r.ingest_dropped()),
        ("drop_pct", &(r.drop_rate() * 100.0)),
        ("mpps", &r.mpps()),
        ("ns_per_packet", &ns_per_packet(r)),
        ("escalated", &r.escalated()),
        ("escalation_dropped", &r.escalation_dropped()),
        ("host_processed", &r.host_processed),
        ("verdicts", &r.verdicts_published),
        ("idle_parks", &r.idle_parks()),
        ("conserved", &r.conserved()),
        ("queue_ns", &stage_json(&r.stage.queue_ns)),
        ("cache_ns", &stage_json(&r.stage.cache_ns)),
        ("detect_ns", &stage_json(&r.stage.detect_ns)),
        ("escalate_ns", &stage_json(&r.stage.escalate_ns)),
        ("flowcache", &flowcache_json(&r.flowcache)),
    ]);
    serde_json::to_string_pretty(&v).expect("bench report serializes")
}

fn render(spec: &EngineRunSpec, pace: Pace, r: &EngineReport) -> Table {
    let shape = &spec.shape;
    let mut t = Table::new(
        "engine",
        "wall-clock sharded runtime (full pipeline on OS threads)",
        &[
            "shards",
            "datapath",
            "workload",
            "source",
            "pace",
            "offered",
            "processed",
            "dropped",
            "drop%",
            "Mpps",
            "escalated",
            "host",
            "verdicts",
        ],
    );
    let pace_cell = match pace {
        Pace::Flatout => "flat-out".to_string(),
        Pace::RateMpps(mpps) => format!("{mpps} Mpps"),
        Pace::Spike {
            base_mpps,
            peak_mpps,
            ..
        } => format!("{base_mpps}→{peak_mpps} Mpps"),
    };
    t.row(vec![
        shape.shards.to_string(),
        datapath_label(shape.datapath).to_string(),
        format!("{:?}", shape.workload).to_lowercase(),
        shape.source.label().to_string(),
        pace_cell,
        r.offered.to_string(),
        r.processed().to_string(),
        r.ingest_dropped().to_string(),
        format!("{:.2}", r.drop_rate() * 100.0),
        format!("{:.3}", r.mpps()),
        r.escalated().to_string(),
        r.host_processed.to_string(),
        r.verdicts_published.to_string(),
    ]);
    t.note(format!(
        "stage latency ns (p50/p90/p99): queue-wait {} | flowcache {} | detectors {} \
         | escalation round-trip {}",
        ns_cell(&r.stage.queue_ns),
        ns_cell(&r.stage.cache_ns),
        ns_cell(&r.stage.detect_ns),
        ns_cell(&r.stage.escalate_ns),
    ));
    t.note(format!(
        "delivered batch size: mean {:.1} pkts (configured {})",
        r.stage.batch_pkts.mean, shape.batch
    ));
    t.note(format!("derived: {:.0} ns/pkt", ns_per_packet(r)));
    if shape.datapath == DatapathMode::Rtc {
        t.note(format!(
            "run-to-completion datapath: {} fused core(s), zero queue crossings \
             (no queue wait is ever recorded)",
            shape.shards,
        ));
    }
    let fc = &r.flowcache;
    t.note(format!(
        "flowcache: hit rate {:.1}% (P {} / E {} / miss {}), mean probe {:.2} buckets, \
         burst {} → mean depth {:.1} pkts over {} prefetch bursts",
        fc.hit_rate() * 100.0,
        fc.p_hits,
        fc.e_hits,
        fc.misses,
        fc.mean_probe_len(),
        fc.burst,
        fc.mean_burst_depth(),
        fc.bursts,
    ));
    t.note(format!(
        "conservation: {} (offered = Σ processed + dropped, per shard)",
        if r.conserved() { "OK" } else { "VIOLATED" }
    ));
    match &shape.source {
        EngineSource::Synthetic => {}
        EngineSource::Compiled => t.note(
            "wire data plane: workload compiled once into packed frames; \
             dispatchers parse headers in place and digest from the bytes",
        ),
        EngineSource::Pcap(path) => t.note(format!(
            "wire data plane: replaying pcap {path} (cycled to {} pkts) \
             through the in-place parse + digest path",
            shape.packets
        )),
    }
    t.note(
        "wall-clock numbers — machine- and load-dependent, unlike the \
         deterministic virtual-time experiments (see EXPERIMENTS.md)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_shape::ReplayData;

    #[test]
    fn engine_experiment_renders_and_conserves() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (t, _, _) = engine_run_full(&ctx, &spec).unwrap();
        assert_eq!(t.rows.len(), 1);
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        // The run published runtime metrics into the shared registry.
        let names = ctx.registry.snapshot().to_json();
        assert!(names.contains("runtime.shard.processed"));
    }

    #[test]
    fn bench_json_carries_the_headline_numbers() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (_, report, _) = engine_run_full(&ctx, &spec).unwrap();
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let field = |k: &str| v.get(k).unwrap_or_else(|| panic!("missing field {k}"));
        assert_eq!(field("bench").as_str(), Some("engine"));
        assert_eq!(field("shards").as_u64(), Some(2));
        assert_eq!(field("offered").as_u64(), Some(20_000));
        assert_eq!(field("conserved").as_bool(), Some(true));
        assert!(field("mpps").as_f64().expect("mpps is a number") > 0.0);
        assert!(field("cache_ns")
            .get("p99_ns")
            .and_then(|x| x.as_u64())
            .is_some());
        // The flowcache section: batched-lookup telemetry (CI asserts
        // its presence, so its shape is part of the artifact contract).
        let fc = field("flowcache");
        assert_eq!(fc["burst"].as_u64(), Some(smartwatch_snic::BURST as u64));
        let hit_rate = fc["hit_rate"].as_f64().expect("hit_rate is a number");
        assert!((0.0..=1.0).contains(&hit_rate));
        let hist = fc["probe_hist"].as_array().expect("probe_hist array");
        assert_eq!(hist.len(), 16);
        let accesses: u64 = hist.iter().map(|v| v.as_u64().unwrap()).sum();
        let processed = fc["p_hits"].as_u64().unwrap()
            + fc["e_hits"].as_u64().unwrap()
            + fc["misses"].as_u64().unwrap();
        assert_eq!(
            accesses,
            processed + fc["to_host"].as_u64().unwrap(),
            "every cache access lands in exactly one probe-length slot"
        );
        assert!(fc["bursts"].as_u64().unwrap() > 0, "batched path engaged");
        let depth = fc["mean_burst_depth"].as_f64().unwrap();
        assert!(depth > 1.0 && depth <= smartwatch_snic::BURST as f64);
    }

    /// The artifact's top-level keys and their order are a contract
    /// with whatever diffs `BENCH_engine.json` across commits.
    #[test]
    fn bench_json_keys_and_their_order_are_pinned() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 5_000,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (_, report, _) = engine_run_full(&ctx, &spec).unwrap();
        let json = bench_json(&spec, &report);
        let keys = crate::output::top_level_keys(&json);
        assert_eq!(
            keys,
            [
                "bench",
                "shards",
                "datapath",
                "batch",
                "workload",
                "source",
                "rate_mpps",
                "offered",
                "processed",
                "dropped",
                "drop_pct",
                "mpps",
                "ns_per_packet",
                "escalated",
                "escalation_dropped",
                "host_processed",
                "verdicts",
                "idle_parks",
                "conserved",
                "queue_ns",
                "cache_ns",
                "detect_ns",
                "escalate_ns",
                "flowcache",
            ]
        );
    }

    #[test]
    fn rtc_spec_runs_and_tags_the_artifact() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                datapath: DatapathMode::Rtc,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (t, report, _) = engine_run_full(&ctx, &spec).unwrap();
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert!(t.notes.iter().any(|n| n.contains("run-to-completion")));
        let v: serde_json::Value =
            serde_json::from_str(&bench_json(&spec, &report)).expect("valid JSON");
        assert_eq!(v["datapath"].as_str(), Some("rtc"));
        let nspp = v["ns_per_packet"].as_f64().expect("ns_per_packet");
        let mpps = v["mpps"].as_f64().expect("mpps");
        assert!(
            (nspp - 1000.0 / mpps).abs() < 1e-9,
            "ns/pkt derives from Mpps"
        );
        // No lanes exist, so no queue wait is ever recorded.
        assert_eq!(v["queue_ns"]["count"].as_u64(), Some(0));
    }

    #[test]
    fn multi_core_run_conserves_with_one_ingest_unit_per_core() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                shards: 2,
                datapath: DatapathMode::Rtc,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (t, report, _) = engine_run_full(&ctx, &spec).unwrap();
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert_eq!(report.queues.len(), 2);
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["conserved"].as_bool(), Some(true));
    }

    #[test]
    fn workload_is_cycled_to_requested_length() {
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 1234,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        assert_eq!(spec.shape.replay(1).unwrap().source().len(), 1234);
    }

    #[test]
    fn source_parses_and_labels() {
        assert_eq!(
            EngineSource::parse("synthetic"),
            Ok(EngineSource::Synthetic)
        );
        assert_eq!(EngineSource::parse("compiled"), Ok(EngineSource::Compiled));
        assert_eq!(
            EngineSource::parse("pcap:/tmp/x.pcap"),
            Ok(EngineSource::Pcap("/tmp/x.pcap".into()))
        );
        assert!(EngineSource::parse("pcap:").is_err());
        assert!(EngineSource::parse("wire").is_err());
        assert_eq!(EngineSource::Pcap("a".into()).label(), "pcap");
    }

    #[test]
    fn compiled_source_conserves_and_tags_the_artifact() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                shards: 2,
                source: EngineSource::Compiled,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (t, report, _) = engine_run_full(&ctx, &spec).unwrap();
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert_eq!(report.offered, 20_000);
        assert!(report.conserved());
        let json = bench_json(&spec, &report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["source"].as_str(), Some("compiled"));
        assert_eq!(v["conserved"].as_bool(), Some(true));
        // The run replayed wire frames.
        assert!(matches!(
            spec.shape.replay(ctx.scale),
            Ok(ReplayData::Wire(_))
        ));
    }

    #[test]
    fn pcap_source_replays_a_file_through_the_wire_path() {
        let ctx = ExpCtx::new(1);
        // Write a small capture of the stress workload, then replay it.
        let base = RunShape::default().base_trace(1);
        let pcap_bytes = smartwatch_net::pcap::write(&base.packets()[..2_000]);
        let path = std::env::temp_dir().join("sw_bench_source_test.pcap");
        std::fs::write(&path, &pcap_bytes).expect("write temp pcap");
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 10_000,
                source: EngineSource::Pcap(path.to_string_lossy().into_owned()),
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (t, report, _) = engine_run_full(&ctx, &spec).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        assert_eq!(report.offered, 10_000, "pcap replay cycles to the spec");
        assert!(report.conserved());
        let v: serde_json::Value =
            serde_json::from_str(&bench_json(&spec, &report)).expect("valid JSON");
        assert_eq!(v["source"].as_str(), Some("pcap"));
    }

    /// One clock, read from the outside: with a tracer at
    /// `trace_sample = 8`, each shard track carries a "lane wait" span
    /// for exactly the batches that recorded a `queue_ns` reading — the
    /// same reading — and the chained FlowCache and suite stamps of the
    /// sampled batches add up to no more than their "shard process"
    /// spans: the stages are exclusive.
    #[test]
    fn lane_wait_spans_are_the_queue_readings_and_stages_fit_their_process_spans() {
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: RunShape {
                packets: 20_000,
                host_workers: 0,
                trace_sample: 8,
                ..RunShape::default()
            },
            ..EngineRunSpec::default()
        };
        let (_, report, _) = engine_run_full(&ctx, &spec).unwrap();
        assert!(report.conserved());
        let doc: serde_json::Value =
            serde_json::from_str(&ctx.tracer.to_chrome_json()).expect("valid chrome-trace JSON");
        assert_eq!(ctx.tracer.total_dropped(), 0, "every span kept");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        let (mut lane_waits, mut process_ns) = (0u64, 0u64);
        for shard in 0..spec.shape.shards {
            let track = format!("sw-shard-{shard}");
            let tid = events
                .iter()
                .find(|e| {
                    e["ph"].as_str() == Some("M") && e["args"]["name"].as_str() == Some(&track)
                })
                .and_then(|e| e["tid"].as_u64())
                .unwrap_or_else(|| panic!("no track {track}"));
            let spans = |name: &'static str| {
                events.iter().filter(move |e| {
                    e["tid"].as_u64() == Some(tid) && e["name"].as_str() == Some(name)
                })
            };
            let waits = spans("lane wait").count() as u64;
            assert!(waits > 0, "{track} carries lane-wait spans");
            lane_waits += waits;
            process_ns += spans("shard process")
                .map(|e| (e["dur"].as_f64().expect("span duration") * 1e3).round() as u64)
                .sum::<u64>();
        }
        let hist = |name: &str| ctx.registry.histogram(name, &[]).snapshot();
        assert_eq!(lane_waits, hist("runtime.stage.queue_ns").count);
        let stages = hist("runtime.stage.cache_ns").sum + hist("runtime.stage.detect_ns").sum;
        assert!(stages > 0, "sampled batches were timed");
        assert!(
            stages <= process_ns,
            "exclusive stages: Σ cache + Σ detect = {stages} ns > Σ shard process = {process_ns} ns"
        );
    }
}
