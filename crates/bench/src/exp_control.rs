//! `repro control` — the adaptive control-plane experiment.
//!
//! Two runs of the same rectangular overload spike ([`Pace::Spike`]):
//! one with the [`smartwatch_control`] feedback loop attached (Alg. 4
//! mode switching, steering snapshots) and a baseline without it. The
//! controlled run must conserve every packet (shed and steer drops are
//! named counters, never silent loss), record a General→Lite flip
//! during the spike in its timeline, recover General afterwards, and
//! sustain at least the baseline's throughput.
//!
//! `repro control-sim` is the deterministic sibling: the same
//! controller state machine driven through a synthetic load profile in
//! virtual time ([`smartwatch_control::simulate`]), whose counters-only
//! summary is byte-stable for a seed.

use crate::output::{object, Table};
use crate::run_shape::{datapath_label, RunShape};
use crate::ExpCtx;
use serde::Value;
use smartwatch_control::{simulate, ControlConfig, LoadProfile};
use smartwatch_runtime::{Engine, EngineReport, Pace};
use std::sync::Arc;

/// One `repro control` invocation, fully specified: the shared
/// [`RunShape`] (both the controlled run and the baseline are built
/// from it and replay the same input) plus the spike.
#[derive(Clone, Debug)]
pub struct ControlRunSpec {
    /// Engine, replay input and watchers (the watchers follow the
    /// controlled run).
    pub shape: RunShape,
    /// Offered rate outside the spike, Mpps (aggregate).
    pub base_mpps: f64,
    /// Offered rate inside the spike, Mpps (aggregate).
    pub peak_mpps: f64,
    /// Spike start as a fraction of the sequence, `0.0..1.0`.
    pub spike_start: f64,
    /// Spike end as a fraction of the sequence, `0.0..1.0`.
    pub spike_end: f64,
}

/// The controller epoch of every `repro` driver that runs one
/// (`control`, `serve`, `soak`), in milliseconds: short enough that a
/// spike spans many epochs and an admin command lands within a few ms.
pub const EPOCH_MS: u64 = 2;

impl Default for ControlRunSpec {
    fn default() -> ControlRunSpec {
        ControlRunSpec {
            // Long enough for the spike to span many controller epochs.
            shape: RunShape {
                packets: 400_000,
                ..RunShape::default()
            },
            base_mpps: 0.2,
            peak_mpps: 2.0,
            spike_start: 0.2,
            spike_end: 0.8,
        }
    }
}

impl ControlRunSpec {
    /// The spike's own check: a peak above the base rate and a window
    /// that does not end before it starts. `repro` exits 2 with this
    /// message instead of reaching [`control_config`]'s or the pacer's
    /// assert.
    pub fn validate(&self) -> Result<(), String> {
        if self.base_mpps >= self.peak_mpps {
            return Err(format!(
                "--peak ({}) must exceed --base ({})",
                self.peak_mpps, self.base_mpps
            ));
        }
        if self.spike_start > self.spike_end {
            return Err(format!(
                "--spike-end ({}) must not precede --spike-start ({})",
                self.spike_end, self.spike_start
            ));
        }
        Ok(())
    }
}

/// Derive a [`ControlConfig`] whose thresholds bracket the spec's
/// base/peak rates, so the spike reliably drives Lite and the calm tail
/// reliably recovers General — on any machine fast enough to dispatch
/// at `peak_mpps`.
pub fn control_config(spec: &ControlRunSpec) -> ControlConfig {
    assert!(
        spec.base_mpps < spec.peak_mpps,
        "spike must exceed the base rate"
    );
    let shards = spec.shape.shards as f64;
    let mut c = ControlConfig::default();
    c.epoch_ms = EPOCH_MS;
    // Per-shard Algorithm 4 thresholds: Lite above half the per-shard
    // spike rate, General below 3/4 of the per-shard base rate.
    c.eta_lite_mpps = 0.5 * spec.peak_mpps / shards;
    c.eta_general_mpps = (0.75 * spec.base_mpps / shards).min(0.5 * c.eta_lite_mpps);
    // A flow carrying ≥1/64 of the spike's per-epoch traffic is a heavy
    // hitter worth a whitelist slot (the default threshold is sized for
    // much longer epochs than bench time-scales).
    let spike_epoch_pkts = spec.peak_mpps * 1e6 * EPOCH_MS as f64 / 1000.0;
    c.promote_pkts_per_epoch = (spike_epoch_pkts / 64.0).max(1.0) as u64;
    c
}

fn spike_pace(spec: &ControlRunSpec) -> Pace {
    Pace::Spike {
        base_mpps: spec.base_mpps,
        peak_mpps: spec.peak_mpps,
        spike_start: spec.spike_start,
        spike_end: spec.spike_end,
    }
}

/// Both runs of the experiment, for machine-readable output.
pub struct ControlOutcome {
    /// The run with the controller attached (carries `control`).
    pub controlled: EngineReport,
    /// The identical spike without a controller.
    pub baseline: EngineReport,
}

/// Run the control experiment once and render the report; both raw
/// reports feed machine-readable output ([`bench_json`], CI artifacts)
/// and the controlled [`Engine`] is handed back so callers can dump its
/// flight recorder (mode switches, shed edges) after the run. Fails,
/// before any packet is offered, on a shape that cannot be replayed or
/// opened.
pub fn control_run_full(
    ctx: &ExpCtx,
    spec: &ControlRunSpec,
) -> Result<(Table, ControlOutcome, Arc<Engine>), String> {
    let replay = spec.shape.replay(ctx.scale)?;
    let pace = spike_pace(spec);
    let control = control_config(spec);
    let run = spec
        .shape
        .open(ctx, |cfg| cfg.with_control(control), crate::serve::serve)?;
    let controlled = replay.run(&run.engine, pace);
    let engine = run.close();

    // Baseline: same engine, same spike, no controller, private
    // registry so the two runs' counters don't mix in `--metrics-json`.
    let baseline = replay.run(&Engine::new(spec.shape.engine_config()), pace);

    let outcome = ControlOutcome {
        controlled,
        baseline,
    };
    Ok((render(spec, &outcome), outcome, engine))
}

/// Disposal rate: packets per second the pipeline *kept up with* —
/// processed plus deliberately dropped with accounting (shed, steering
/// blacklist). Uncontrolled ingest overruns are excluded: those are the
/// packets the system failed to keep up with.
fn handled_mpps(r: &EngineReport) -> f64 {
    let secs = r.elapsed.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        (r.processed() + r.shed() + r.steer_dropped()) as f64 / secs / 1e6
    }
}

/// One engine run's headline numbers in the bench artifact.
fn run_json(r: &EngineReport) -> Value {
    object([
        ("offered", &r.offered),
        ("processed", &r.processed()),
        ("ingest_dropped", &r.ingest_dropped()),
        ("shed", &r.shed()),
        ("steer_dropped", &r.steer_dropped()),
        ("drop_pct", &(r.drop_rate() * 100.0)),
        ("mpps", &r.mpps()),
        ("handled_mpps", &handled_mpps(r)),
        ("conserved", &r.conserved()),
    ])
}

/// The CI benchmark artifact (`BENCH_control.json`): both runs'
/// headline numbers plus the controller's decision records and the
/// mode/shed timeline read from them, so CI can assert the spike
/// actually flipped shards Lite and back without parsing the rendered
/// table.
pub fn bench_json(spec: &ControlRunSpec, o: &ControlOutcome) -> String {
    let ctrl = o
        .controlled
        .control
        .as_ref()
        .expect("controlled run carries a ControlReport");
    let v = object([
        ("bench", &"control"),
        ("shards", &spec.shape.shards),
        ("datapath", &datapath_label(spec.shape.datapath)),
        ("packets", &spec.shape.packets),
        ("batch", &spec.shape.batch),
        ("source", &spec.shape.source.label()),
        ("base_mpps", &spec.base_mpps),
        ("peak_mpps", &spec.peak_mpps),
        ("spike_start", &spec.spike_start),
        ("spike_end", &spec.spike_end),
        ("epoch_ms", &EPOCH_MS),
        ("controlled", &run_json(&o.controlled)),
        ("control", ctrl),
        ("baseline", &run_json(&o.baseline)),
        (
            "handled_ratio",
            &(handled_mpps(&o.controlled) / handled_mpps(&o.baseline).max(f64::MIN_POSITIVE)),
        ),
    ]);
    serde_json::to_string_pretty(&v).expect("bench report serializes")
}

fn run_row(name: &str, r: &EngineReport) -> Vec<String> {
    vec![
        name.to_string(),
        r.offered.to_string(),
        r.processed().to_string(),
        r.shed().to_string(),
        r.steer_dropped().to_string(),
        r.ingest_dropped().to_string(),
        format!("{:.2}", r.drop_rate() * 100.0),
        format!("{:.3}", r.mpps()),
        format!("{:.3}", handled_mpps(r)),
    ]
}

fn render(spec: &ControlRunSpec, o: &ControlOutcome) -> Table {
    let ctrl = o
        .controlled
        .control
        .as_ref()
        .expect("controlled run carries a ControlReport");
    let mut t = Table::new(
        "control",
        "adaptive control plane under a rectangular overload spike",
        &[
            "run",
            "offered",
            "processed",
            "shed",
            "steer_drop",
            "ingest_drop",
            "drop%",
            "Mpps",
            "handled",
        ],
    );
    t.row(run_row("controlled", &o.controlled));
    t.row(run_row("baseline", &o.baseline));
    t.note(format!(
        "spike: {} → {} Mpps over [{:.0}%, {:.0}%) of {} pkts ({} source); \
         controller epoch {} ms; {} datapath",
        spec.base_mpps,
        spec.peak_mpps,
        spec.spike_start * 100.0,
        spec.spike_end * 100.0,
        spec.shape.packets,
        spec.shape.source.label(),
        EPOCH_MS,
        datapath_label(spec.shape.datapath),
    ));
    t.note(format!(
        "controller: {} epochs, {} mode switches, {} shed epochs ({} pkts shed), \
         {} promotions, final modes [{}]",
        ctrl.epochs,
        ctrl.mode_switches,
        ctrl.shed_epochs,
        ctrl.shed_packets,
        ctrl.whitelist_promotions,
        ctrl.final_modes
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(","),
    ));
    let events = ctrl.timeline();
    let shown = events.len().min(12);
    let mut timeline: Vec<String> = events[..shown].iter().map(|e| e.render()).collect();
    if events.len() > shown {
        timeline.push(format!("… +{} more", events.len() - shown));
    }
    t.note(format!("mode timeline: {}", timeline.join(" ; ")));
    t.note(format!(
        "conservation: controlled {} | baseline {} (offered = processed + named drops)",
        if o.controlled.conserved() {
            "OK"
        } else {
            "VIOLATED"
        },
        if o.baseline.conserved() {
            "OK"
        } else {
            "VIOLATED"
        },
    ));
    t.note(
        "`handled` = (processed + shed + steer_drop) / s — the rate the \
         pipeline kept up with offered load; ingest_drop is the loss it \
         did not keep up with (RX ring overruns)",
    );
    t.note(
        "wall-clock numbers — machine- and load-dependent; `control-sim` is \
         the deterministic virtual-time drive of the same state machine",
    );
    t
}

/// `repro control-sim` — the deterministic controller drive: default
/// [`LoadProfile`] (4 shards, 120 × 5 ms epochs, 1 → 12 Mpps spike)
/// through the default [`ControlConfig`] in virtual time. Byte-stable
/// for a seed; the determinism tests pin the summary.
pub fn control_sim(_ctx: &ExpCtx) -> Table {
    let profile = LoadProfile::default();
    let out = simulate(ControlConfig::default(), &profile);
    let r = &out.report;
    let mut t = Table::new(
        "control-sim",
        "deterministic controller drive (virtual time, synthetic spike)",
        &["metric", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("epochs", r.epochs.to_string()),
        ("all_lite_epochs", out.lite_epochs.to_string()),
        ("mode_switches", r.mode_switches.to_string()),
        ("whitelist_promotions", r.whitelist_promotions.to_string()),
        ("whitelist_expired", r.whitelist_expired.to_string()),
        ("blacklist_expired", r.blacklist_expired.to_string()),
        ("shed_epochs", r.shed_epochs.to_string()),
        ("shed_packets", r.shed_packets.to_string()),
        ("snapshot_publishes", r.snapshot_publishes.to_string()),
        (
            "final_modes",
            r.final_modes
                .iter()
                .map(|m| m.label())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t.note(format!(
        "profile: {} shards, {} epochs × {} s, {} → {} Mpps spike over epochs [{}, {})",
        profile.shards,
        profile.epochs,
        profile.epoch_secs,
        profile.base_mpps,
        profile.peak_mpps,
        profile.spike_start,
        profile.spike_end,
    ));
    t.note(
        "deterministic for the profile seed: two identical runs render \
         byte-identical tables and counters-only summaries",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_snic::Mode;

    fn small_spec() -> ControlRunSpec {
        ControlRunSpec {
            shape: RunShape {
                packets: 100_000,
                ..RunShape::default()
            },
            ..ControlRunSpec::default()
        }
    }

    #[test]
    fn control_experiment_conserves_and_flips_lite() {
        let ctx = ExpCtx::new(1);
        let (t, o, _) = control_run_full(&ctx, &small_spec()).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert!(t
            .notes
            .iter()
            .any(|n| n.contains("conservation: controlled OK | baseline OK")));
        let ctrl = o.controlled.control.as_ref().expect("controller ran");
        assert!(
            ctrl.mode_switches >= 2,
            "spike then recovery implies flips both ways"
        );
        assert!(ctrl.final_modes.iter().all(|&m| m == Mode::General));
        // The run published control metrics into the shared registry.
        let snap = ctx.registry.snapshot();
        assert!(snap.counter("control.epochs").unwrap_or(0) > 0);
    }

    #[test]
    fn bench_json_carries_timeline_and_both_runs() {
        let ctx = ExpCtx::new(1);
        let spec = small_spec();
        let (_, o, _) = control_run_full(&ctx, &spec).unwrap();
        let json = bench_json(&spec, &o);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let field = |k: &str| v.get(k).unwrap_or_else(|| panic!("missing field {k}"));
        assert_eq!(field("bench").as_str(), Some("control"));
        assert_eq!(
            field("controlled")
                .get("conserved")
                .and_then(|x| x.as_bool()),
            Some(true)
        );
        assert_eq!(
            field("baseline").get("conserved").and_then(|x| x.as_bool()),
            Some(true)
        );
        let timeline = field("control")
            .get("timeline")
            .and_then(|x| x.as_array())
            .expect("timeline array");
        assert!(
            timeline
                .iter()
                .any(|e| e["event"].as_str().unwrap_or("").contains("lite")),
            "timeline must record a General→Lite flip: {timeline:?}"
        );
        // The schema only: controlled vs baseline throughput is a
        // wall-clock relation, so its value is judged where a loaded
        // machine cannot turn it red — `BENCH_control.json` and the CI
        // control-plane smoke — not in a unit test.
        let ratio = field("handled_ratio").as_f64().expect("ratio");
        assert!(ratio.is_finite() && ratio > 0.0, "handled_ratio {ratio}");
    }

    /// The artifact's top-level keys and their order are a contract
    /// with whatever diffs `BENCH_control.json` across commits;
    /// `datapath` says which topology both runs measured.
    #[test]
    fn bench_json_keys_and_their_order_are_pinned() {
        let ctx = ExpCtx::new(1);
        let spec = ControlRunSpec {
            shape: RunShape {
                packets: 20_000,
                ..RunShape::default()
            },
            ..ControlRunSpec::default()
        };
        let (_, o, _) = control_run_full(&ctx, &spec).unwrap();
        let json = bench_json(&spec, &o);
        let keys = crate::output::top_level_keys(&json);
        assert_eq!(
            keys,
            [
                "bench",
                "shards",
                "datapath",
                "packets",
                "batch",
                "source",
                "base_mpps",
                "peak_mpps",
                "spike_start",
                "spike_end",
                "epoch_ms",
                "controlled",
                "control",
                "baseline",
                "handled_ratio",
            ]
        );
        assert!(json.contains(r#""datapath": "pipeline""#));
    }

    /// The nested objects are the control crate's own `Serialize`; their
    /// keys and order are the same contract, in `BENCH_control.json`
    /// and in `/stats.json`, whose `decisions[]` are the same records.
    #[test]
    fn nested_control_keys_and_their_order_are_pinned() {
        let ctx = ExpCtx::new(1);
        let spec = small_spec();
        let (_, o, engine) = control_run_full(&ctx, &spec).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&bench_json(&spec, &o)).expect("JSON");
        let keys = |v: &serde_json::Value| crate::output::top_level_keys(&v.to_string());
        let control = &doc["control"];
        assert_eq!(
            keys(control),
            [
                "epochs",
                "mode_switches",
                "whitelist_promotions",
                "whitelist_expired",
                "blacklist_expired",
                "shed_epochs",
                "shed_packets",
                "snapshot_publishes",
                "shed_active",
                "final_modes",
                "timeline",
                "decisions",
                "decisions_dropped",
            ]
        );
        assert_eq!(keys(&control["timeline"][0]), ["epoch", "event"]);
        let decision = [
            "epoch",
            "offered_mpps",
            "smoothed_mpps",
            "max_backlog",
            "modes",
            "shed",
            "promotions",
            "whitelist_evictions",
            "whitelist_len",
            "blacklist_len",
            "snapshot_published",
        ];
        assert_eq!(keys(&control["decisions"][0]), decision);
        let stats: serde_json::Value =
            serde_json::from_str(&engine.stats_json()).expect("stats.json parses");
        assert_eq!(keys(&stats["decisions"][0]), decision);
        // A mode is its label, an event its rendering.
        assert_eq!(control["final_modes"][0], "general");
        let event = control["timeline"][0]["event"].as_str().expect("string");
        assert!(event.starts_with('e') && event.contains(' '), "{event}");
    }

    #[test]
    fn control_sim_table_is_deterministic() {
        let ctx = ExpCtx::new(1);
        let a = control_sim(&ctx).render();
        let b = control_sim(&ctx).render();
        assert_eq!(a, b, "virtual-time drive must be reproducible");
        assert!(a.contains("mode_switches"));
    }
}
