//! `repro serve` / `repro soak` — persistent service mode.
//!
//! Unlike `repro engine` (one run, one report), service mode keeps a
//! single [`Engine`] resident and replays the workload in **segments**:
//! bounded runs separated by graceful drain/restart cycles, exactly the
//! lifecycle a SmartNIC IPS daemon would live through. A segment is
//! fixed when it opens: its packets, its `Pace`, flow state reset in
//! place and the resident controller. Between segments nothing is torn
//! down — the lanes' batch buffers and every shard's flow state park in
//! the engine's garage and are reissued to the next segment, so steady
//! state allocates nothing and the soak harness can pin memory flat.
//!
//! Two control paths reach the resident engine while packets flow:
//!
//! * the **admin socket** (`--listen`, [`crate::serve::admin_routes`]),
//!   the one way to edit it live: POST endpoints queueing
//!   [`AdminCmd`](smartwatch_runtime::AdminCmd)s applied by the
//!   controller at epoch boundaries, plus the immediate drain flag —
//!   the hot loop never takes a lock;
//! * **signals**: the `repro` drivers translate SIGINT/SIGTERM into a
//!   drain request ([`crate::signal`]), so the segment in flight still
//!   quiesces through the end-of-trace path and the final summary is
//!   conserved.
//!
//! `repro soak` is the endurance variant: every segment samples
//! `runtime.mem.rss_bytes` and the pool-allocation counters, and
//! [`ServeOutcome::violations`] asserts that (a) every segment
//! conserves, (b) pool allocation is flat after warm-up (the garage is
//! really being reused), and (c) RSS growth across the whole run stays
//! inside a slack budget. The per-segment timeline lands in
//! `BENCH_serve.json` (see EXPERIMENTS.md for the schema).

use crate::exp_control::{control_config, ControlRunSpec};
use crate::output::{object, Table};
use crate::run_shape::{datapath_label, rate_pace, RunShape};
use crate::ExpCtx;
use serde::{Serialize, Value};
use smartwatch_runtime::Engine;
use std::sync::Arc;

/// One `repro serve` / `repro soak` invocation, fully specified: the
/// shared [`RunShape`] (its `packets` is per segment, its `--listen`
/// socket carries the admin surface) plus the segment loop.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Engine, per-segment replay input and watchers (`listen` is the
    /// admin socket).
    pub shape: RunShape,
    /// Offered rate in Mpps; `None` replays each segment flat-out.
    pub rate_mpps: Option<f64>,
    /// Segments to run (drain/restart cycles = segments − 1).
    pub segments: usize,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            shape: RunShape::default(),
            // A service is paced: the steady rate is what its control
            // thresholds are derived from.
            rate_mpps: Some(1.0),
            segments: 3,
        }
    }
}

/// Control-plane thresholds for service mode: the configured steady
/// rate is treated as the calm baseline (no mode flapping, no shedding
/// at the offered rate), with headroom so a genuine 4× overload still
/// trips Lite mode and the shed hysteresis.
fn serve_control_config(spec: &ServeSpec) -> smartwatch_runtime::ControlConfig {
    let rate = spec.rate_mpps.unwrap_or(2.0).max(0.05);
    control_config(&ControlRunSpec {
        shape: spec.shape.clone(),
        base_mpps: rate,
        peak_mpps: 4.0 * rate,
        ..ControlRunSpec::default()
    })
}

/// One segment of the service timeline (the `BENCH_serve.json` rows).
#[derive(Clone, Debug)]
pub struct SegmentRecord {
    /// Segment index, from 0.
    pub segment: usize,
    /// Packets offered to this segment.
    pub offered: u64,
    /// Packets fully processed by the shards.
    pub processed: u64,
    /// Accounted drops (ingest + shed + steer).
    pub dropped: u64,
    /// Measured throughput for the segment.
    pub mpps: f64,
    /// Segment wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// True when the segment ended by graceful drain rather than
    /// end-of-trace (admin request or signal).
    pub interrupted: bool,
    /// Two-axis conservation held for this segment.
    pub conserved: bool,
    /// `runtime.mem.rss_bytes` sampled at segment end.
    pub rss_bytes: u64,
    /// Per-flow state parked in the garage at segment end, summed over
    /// shards (`runtime.flowstate.resident_bytes`) — flat after the
    /// second segment when the state is being reset in place.
    pub flowstate_bytes: u64,
    /// Cumulative `runtime.pool.allocated` at segment end — lane
    /// buffers, which stop at [`ServeOutcome::pool_bound`] once every
    /// lane has been round its ring.
    pub pool_allocated: u64,
    /// ControlLog entries still buffered at segment end (bounded-log
    /// health: must not ratchet upward across segments).
    pub log_buffered: u64,
    /// Cumulative admin commands applied by the controller.
    pub admin_applied: u64,
}

/// A `BENCH_serve.json` `timeline` row: the fields, in their order.
impl Serialize for SegmentRecord {
    fn to_value(&self) -> Value {
        object([
            ("segment", &self.segment),
            ("offered", &self.offered),
            ("processed", &self.processed),
            ("dropped", &self.dropped),
            ("mpps", &self.mpps),
            ("elapsed_ms", &self.elapsed_ms),
            ("interrupted", &self.interrupted),
            ("conserved", &self.conserved),
            ("rss_bytes", &self.rss_bytes),
            ("flowstate_bytes", &self.flowstate_bytes),
            ("pool_allocated", &self.pool_allocated),
            ("log_buffered", &self.log_buffered),
            ("admin_applied", &self.admin_applied),
        ])
    }
}

/// The whole service run, for rendering and machine-readable output.
pub struct ServeOutcome {
    /// Per-segment timeline, in order.
    pub segments: Vec<SegmentRecord>,
    /// The lane mesh's structural buffer count
    /// ([`EngineConfig::lane_buffers`]).
    pub pool_bound: u64,
}

impl ServeOutcome {
    /// Every segment satisfied two-axis conservation.
    pub fn all_conserved(&self) -> bool {
        self.segments.iter().all(|s| s.conserved)
    }

    /// Lane-buffer allocations after the first segment (0 when it took
    /// every lane round its ring and the garage reissues the lanes).
    pub fn pool_growth(&self) -> u64 {
        growth(self.segments.iter().map(|s| s.pool_allocated))
    }

    /// Lane-buffer allocations during the *final* segment: exactly 0
    /// once every lane has been round its ring, which a lane does
    /// within its first `queue_batches + 2` batches.
    pub fn steady_pool_growth(&self) -> u64 {
        last_delta(self.segments.iter().map(|s| s.pool_allocated))
    }

    /// RSS delta from the first segment's sample to the last (may be
    /// negative when the allocator returns memory).
    pub fn rss_growth_bytes(&self) -> i64 {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => b.rss_bytes as i64 - a.rss_bytes as i64,
            _ => 0,
        }
    }

    /// The parked flow state once settled: the second segment's sample
    /// (the first segment builds the tables, its reset gives back what
    /// they over-provisioned; `0` with fewer than two segments).
    fn flowstate_settled_bytes(&self) -> u64 {
        self.segments.get(1).map_or(0, |s| s.flowstate_bytes)
    }

    /// Growth of the parked flow state after the second segment: the
    /// largest later sample minus the settled size (0 with fewer than
    /// three segments). From the second segment on a steady workload
    /// refills the memory it already holds.
    pub fn flowstate_growth_bytes(&self) -> u64 {
        let later = self.segments.iter().skip(2).map(|s| s.flowstate_bytes);
        later
            .max()
            .unwrap_or(0)
            .saturating_sub(self.flowstate_settled_bytes())
    }

    /// Flow-state growth tolerated after segment 2, as a fraction of the
    /// settled size: tables whose fill depends on thread timing (ring
    /// occupancy under live mode switches, flows a verdict cut short)
    /// re-size by a few KiB from one segment to the next; state that is
    /// rebuilt or regrown every segment moves by whole tables.
    const FLOWSTATE_SLACK_DIV: u64 = 64;

    /// The soak gate: human-readable violations, empty when the run is
    /// endurance-clean. `rss_slack_bytes` absorbs allocator noise.
    pub fn violations(&self, rss_slack_bytes: u64) -> Vec<String> {
        let mut out = Vec::new();
        for s in self.segments.iter().filter(|s| !s.conserved) {
            out.push(format!("segment {}: conservation VIOLATED", s.segment));
        }
        // No lane ever needs a buffer past its first lap, so any
        // allocation beyond the mesh's count is growth after it — a
        // garage that rebuilt its lanes, or a buffer lost on the way.
        let pools = self.segments.last().map_or(0, |s| s.pool_allocated);
        if pools > self.pool_bound {
            out.push(format!(
                "lanes allocated {pools} batch buffers, {} more than the mesh holds \
                 (garage not reused)",
                pools - self.pool_bound
            ));
        }
        let flow = self.flowstate_growth_bytes();
        let settled = self.flowstate_settled_bytes();
        if flow > settled / Self::FLOWSTATE_SLACK_DIV {
            out.push(format!(
                "parked flow state grew {flow} bytes after segment 2, from {settled} \
                 (reset not reusing it)"
            ));
        }
        let rss = self.rss_growth_bytes();
        if rss > rss_slack_bytes as i64 {
            out.push(format!(
                "RSS grew {rss} bytes across the run (slack {rss_slack_bytes})"
            ));
        }
        out
    }
}

/// Growth of a cumulative counter across the run: last sample minus
/// the end-of-warm-up (first-segment) sample.
fn growth(samples: impl Iterator<Item = u64>) -> u64 {
    let samples: Vec<u64> = samples.collect();
    match (samples.first(), samples.last()) {
        (Some(&first), Some(&last)) => last.saturating_sub(first),
        _ => 0,
    }
}

/// Growth of a cumulative counter during the final segment only.
fn last_delta(samples: impl Iterator<Item = u64>) -> u64 {
    let samples: Vec<u64> = samples.collect();
    match samples.len() {
        0 | 1 => 0,
        n => samples[n - 1].saturating_sub(samples[n - 2]),
    }
}

/// Run service mode and render the per-segment report; the raw
/// [`ServeOutcome`] and the resident [`Engine`] are handed back for
/// flight dumps and soak gating. Fails, before any packet is offered,
/// on a shape that cannot be replayed or opened.
pub fn serve_run_full(
    ctx: &ExpCtx,
    spec: &ServeSpec,
) -> Result<(Table, ServeOutcome, Arc<Engine>), String> {
    assert!(spec.segments > 0, "service mode needs at least one segment");
    let replay = spec.shape.replay(ctx.scale)?;
    let control = serve_control_config(spec);
    // SIGINT/SIGTERM mid-segment: the shape's signal watch drains the
    // running segment; the loop-top check below then stops the service.
    let run = spec.shape.open(
        ctx,
        |cfg| cfg.with_control(control),
        crate::serve::serve_admin,
    )?;
    let engine = &run.engine;

    let pace = rate_pace(spec.rate_mpps);
    let registry = engine.registry().clone();
    let pool_allocated = registry.counter("runtime.pool.allocated", &[]);
    let rss = registry.gauge("runtime.mem.rss_bytes", &[]);

    let mut segments = Vec::with_capacity(spec.segments);
    engine.clear_drain();
    for segment in 0..spec.segments {
        if spec.shape.watch_signals && crate::signal::interrupted() {
            break;
        }
        // A drain ends the service: one latched mid-segment (operator
        // or signal) stays set, and so does one latched between
        // segments (POST /admin/drain racing the boundary), which would
        // otherwise burn a segment on an immediately-drained run.
        if engine.drain_requested() {
            break;
        }
        let report = replay.run(engine, pace);
        segments.push(SegmentRecord {
            segment,
            offered: report.offered,
            processed: report.processed(),
            dropped: report.ingest_dropped() + report.shed() + report.steer_dropped(),
            mpps: report.mpps(),
            elapsed_ms: report.elapsed.as_millis() as u64,
            interrupted: report.interrupted,
            conserved: report.conserved(),
            rss_bytes: rss.get() as u64,
            flowstate_bytes: engine.flowstate_resident_bytes(),
            pool_allocated: pool_allocated.get(),
            log_buffered: report.log_buffered,
            admin_applied: engine.admin_applied(),
        });
    }
    engine.clear_drain();

    let outcome = ServeOutcome {
        segments,
        pool_bound: engine.config().lane_buffers() as u64,
    };
    Ok((render(spec, &outcome), outcome, run.close()))
}

/// The soak/service CI artifact (`BENCH_serve.json`): headline
/// endurance verdicts plus the full per-segment timeline.
pub fn serve_bench_json(spec: &ServeSpec, out: &ServeOutcome) -> String {
    let first = out.segments.first();
    let last = out.segments.last();
    let v = object([
        ("bench", &"serve"),
        ("shards", &spec.shape.shards),
        ("datapath", &datapath_label(spec.shape.datapath)),
        ("segments", &out.segments.len()),
        ("segment_packets", &spec.shape.packets),
        ("rate_mpps", &spec.rate_mpps),
        ("conserved", &out.all_conserved()),
        ("pool_bound", &out.pool_bound),
        ("pool_growth", &out.pool_growth()),
        ("steady_pool_growth", &out.steady_pool_growth()),
        ("rss_first_bytes", &first.map_or(0, |s| s.rss_bytes)),
        ("rss_last_bytes", &last.map_or(0, |s| s.rss_bytes)),
        ("rss_growth_bytes", &out.rss_growth_bytes()),
        ("flowstate_bytes", &last.map_or(0, |s| s.flowstate_bytes)),
        ("flowstate_growth_bytes", &out.flowstate_growth_bytes()),
        ("timeline", &out.segments),
    ]);
    serde_json::to_string_pretty(&v).expect("serve report serializes")
}

fn render(spec: &ServeSpec, out: &ServeOutcome) -> Table {
    let mut t = Table::new(
        "serve",
        "persistent service mode (resident engine, drain/restart segments)",
        &[
            "seg",
            "offered",
            "processed",
            "dropped",
            "Mpps",
            "end",
            "conserved",
            "rss MiB",
            "pools",
            "admin",
        ],
    );
    for s in &out.segments {
        t.row(vec![
            s.segment.to_string(),
            s.offered.to_string(),
            s.processed.to_string(),
            s.dropped.to_string(),
            format!("{:.3}", s.mpps),
            if s.interrupted { "drain" } else { "eot" }.to_string(),
            if s.conserved { "OK" } else { "VIOLATED" }.to_string(),
            format!("{:.1}", s.rss_bytes as f64 / (1 << 20) as f64),
            s.pool_allocated.to_string(),
            s.admin_applied.to_string(),
        ]);
    }
    t.note(format!(
        "segments: {} requested, {} run; {} datapath",
        spec.segments,
        out.segments.len(),
        datapath_label(spec.shape.datapath),
    ));
    t.note(format!(
        "endurance: pool growth {} total / {} in the final segment, \
         RSS {:+} bytes first→last segment, \
         parked flow state {:.1} MiB ({:+} bytes after segment 2)",
        out.pool_growth(),
        out.steady_pool_growth(),
        out.rss_growth_bytes(),
        out.segments.last().map_or(0, |s| s.flowstate_bytes) as f64 / (1 << 20) as f64,
        out.flowstate_growth_bytes(),
    ));
    t.note(format!(
        "conservation: {} (two-axis, every segment)",
        if out.all_conserved() {
            "OK"
        } else {
            "VIOLATED"
        }
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ServeSpec {
        ServeSpec {
            shape: RunShape {
                packets: 20_000,
                ..RunShape::default()
            },
            rate_mpps: None,
            segments: 3,
        }
    }

    #[test]
    fn multi_segment_service_conserves_with_flat_pools() {
        let ctx = ExpCtx::new(1);
        let (t, out, _) = serve_run_full(&ctx, &quick_spec()).unwrap();
        assert_eq!(out.segments.len(), 3);
        assert!(out.all_conserved());
        // The garage reuses the lanes across segments: two 20k-packet
        // segments take both lanes round their rings, so the mesh holds
        // all its buffers before the final segment, which allocates
        // exactly nothing. A broken garage re-allocates them per restart.
        assert_eq!(out.segments[1].pool_allocated, out.pool_bound);
        assert_eq!(out.steady_pool_growth(), 0, "garage must reuse the lanes");
        assert!(t.notes.iter().any(|n| n.contains("conservation: OK")));
        // Violations with a generous RSS slack: endurance-clean.
        assert!(out.violations(64 << 20).is_empty());
        let json = serve_bench_json(&quick_spec(), &out);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["bench"].as_str(), Some("serve"));
        assert_eq!(v["segments"].as_u64(), Some(3));
        assert_eq!(v["conserved"].as_bool(), Some(true));
        assert!(v["pool_growth"].as_u64().is_some());
        assert_eq!(v["timeline"].as_array().map(|a| a.len()), Some(3));
        // The flow state is parked from the first segment on and does
        // not move once the tables have been through their first reset.
        assert!(out.segments.iter().all(|s| s.flowstate_bytes > 0));
        assert!(v["flowstate_growth_bytes"].as_u64().is_some());
    }

    /// The artifact's top-level keys and their order are a contract
    /// with the CI soak gates and whatever diffs `BENCH_serve.json`
    /// across commits; `datapath` says which topology was soaked.
    #[test]
    fn bench_json_keys_and_their_order_are_pinned() {
        let ctx = ExpCtx::new(1);
        let spec = ServeSpec {
            segments: 1,
            ..quick_spec()
        };
        let (_, out, _) = serve_run_full(&ctx, &spec).unwrap();
        let json = serve_bench_json(&spec, &out);
        let keys = crate::output::top_level_keys(&json);
        assert_eq!(
            keys,
            [
                "bench",
                "shards",
                "datapath",
                "segments",
                "segment_packets",
                "rate_mpps",
                "conserved",
                "pool_bound",
                "pool_growth",
                "steady_pool_growth",
                "rss_first_bytes",
                "rss_last_bytes",
                "rss_growth_bytes",
                "flowstate_bytes",
                "flowstate_growth_bytes",
                "timeline",
            ]
        );
        assert!(json.contains(r#""datapath": "pipeline""#));
    }

    #[test]
    fn flow_state_growing_after_segment_two_is_a_violation() {
        let timeline = |bytes: &[u64]| ServeOutcome {
            segments: bytes
                .iter()
                .enumerate()
                .map(|(segment, &flowstate_bytes)| SegmentRecord {
                    segment,
                    offered: 1,
                    processed: 1,
                    dropped: 0,
                    mpps: 1.0,
                    elapsed_ms: 1,
                    interrupted: false,
                    conserved: true,
                    rss_bytes: 0,
                    flowstate_bytes,
                    pool_allocated: 0,
                    log_buffered: 0,
                    admin_applied: 0,
                })
                .collect(),
            pool_bound: 0,
        };
        // Building (segment 1) and the first reset's shrink (segment 2)
        // may move it; so may nothing at all.
        for clean in [
            &[90, 100, 100, 100][..],
            &[120, 100, 100],
            &[100, 100],
            &[7],
        ] {
            assert!(timeline(clean).violations(0).is_empty(), "{clean:?}");
        }
        let leaking = timeline(&[100, 100, 100, 164]);
        assert_eq!(leaking.flowstate_growth_bytes(), 64);
        let said = leaking.violations(0);
        assert!(said.len() == 1 && said[0].contains("64 bytes"), "{said:?}");
    }

    /// The admin socket is the one live edit path: a steer edit and a
    /// shed pin POSTed while segment 0 runs are applied by the resident
    /// controller within that segment, show in the flight ring and in
    /// `/stats.json`, and the pin sheds every later segment whole.
    #[test]
    fn admin_edits_posted_mid_segment_land_and_the_pin_outlives_it() {
        use crate::serve::tests::{get, post};
        use std::net::{SocketAddr, TcpListener, TcpStream};
        use std::time::Duration;
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port")
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let spec = ServeSpec {
            shape: RunShape {
                // 0.8 s per segment at 0.5 Mpps: the POSTs land in segment 0.
                packets: 400_000,
                listen: Some(addr.to_string()),
                ..RunShape::default()
            },
            rate_mpps: Some(0.5),
            segments: 3,
        };
        let ctx = ExpCtx::new(1);
        let (out, engine, live_applied) = std::thread::scope(|s| {
            let service = s.spawn(|| serve_run_full(&ctx, &spec));
            // The socket is bound before segment 0 offers its first packet.
            // If it never answers (the port was taken between the probe
            // bind and the service's), the service's own error says why.
            let mut answered = false;
            for _ in 0..1_000 {
                if service.is_finished() {
                    break;
                }
                if TcpStream::connect(addr).is_ok() {
                    answered = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            if !answered {
                let ran = service.join().expect("service thread");
                panic!(
                    "admin socket {addr} never answered; the service returned {:?}",
                    ran.err()
                );
            }
            let steer = r#"{"table":"blacklist","op":"add","digest":12345}"#;
            assert_eq!(post(addr, "/admin/steer", steer).0, 202);
            assert_eq!(post(addr, "/admin/shed", r#"{"force":true}"#).0, 202);
            // The controller applies both at its next epoch boundary.
            let mut live_applied = 0;
            for _ in 0..200 {
                let (status, body) = get(addr, "/stats.json");
                assert_eq!(status, 200);
                let stats: serde_json::Value = serde_json::from_str(&body).expect("valid stats");
                live_applied = stats["service"]["admin_applied"].as_u64().unwrap_or(0);
                if live_applied >= 2 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let (_, out, engine) = service.join().expect("service ran").unwrap();
            (out, engine, live_applied)
        });
        assert!(live_applied >= 2, "/stats.json service.admin_applied");
        assert!(out.all_conserved());
        assert_eq!(out.segments.len(), 3);
        assert!(out.segments[0].admin_applied >= 2, "applied in segment 0");
        assert!(out.segments[0].dropped > 0, "the pin sheds segment 0");
        for s in &out.segments[1..] {
            assert_eq!(
                (s.processed, s.dropped),
                (0, s.offered),
                "segment {}",
                s.segment
            );
        }
        assert!(engine.admin_applied() >= 2);
        assert!(engine.flight().to_json().contains("admin_edit"));
    }
}
