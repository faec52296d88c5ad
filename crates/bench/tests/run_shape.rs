//! The flags × drivers matrix: a [`RunShape`] with every field off its
//! default, opened by each wall-clock driver, must reach that driver's
//! engine whole — `engine.config()` is `shape.engine_config()` plus
//! only what the driver itself adds — and what the shape says to replay
//! is what the run was offered.

use smartwatch_bench::exp_control::{control_config, control_run_full, ControlRunSpec, EPOCH_MS};
use smartwatch_bench::exp_engine::{engine_run_full, EngineRunSpec};
use smartwatch_bench::exp_serve::{serve_run_full, ServeSpec};
use smartwatch_bench::run_shape::{EngineSource, EngineWorkload, ReplayData, RunShape};
use smartwatch_bench::ExpCtx;
use smartwatch_runtime::{DatapathMode, EngineConfig};

/// Two shapes cover every field: one per datapath.
fn shapes_off_default() -> [RunShape; 2] {
    let pipeline = RunShape {
        shards: 3,
        datapath: DatapathMode::Pipeline,
        batch: 32,
        host_workers: 2,
        trace_sample: 7,
        packets: 20_000,
        workload: EngineWorkload::Mix,
        source: EngineSource::Compiled,
        listen: Some("127.0.0.1:0".to_string()),
        serve_hold_ms: 1,
        watch_signals: true,
    };
    let fused = RunShape {
        datapath: DatapathMode::Rtc,
        ..pipeline.clone()
    };
    [pipeline, fused]
}

/// Every field of the config but the controller, as text (the type has
/// `Debug` and no `PartialEq`).
fn knobs(cfg: &EngineConfig) -> String {
    let mut cfg = cfg.clone();
    cfg.control = None;
    format!("{cfg:?}")
}

#[test]
fn every_shape_field_reaches_every_drivers_engine() {
    for shape in shapes_off_default() {
        // Every driver below reaches its engine through
        // `RunShape::replay` → `ReplayData::run`, so the compiled source
        // takes the wire path in all three.
        assert!(matches!(shape.replay(1), Ok(ReplayData::Wire(_))));
        let want = shape.engine_config();
        // The table test's own premise: the shape is off the defaults
        // of `EngineConfig::new` in every knob it maps.
        let stock = EngineConfig::new(want.shards);
        assert_ne!(want.batch, stock.batch);
        assert_ne!(want.host_workers, stock.host_workers);
        assert_ne!(want.trace_sample, stock.trace_sample);

        // engine: the shape's config and nothing else.
        let ctx = ExpCtx::new(1);
        let spec = EngineRunSpec {
            shape: shape.clone(),
            rate_mpps: None,
        };
        let (_, report, engine) = engine_run_full(&ctx, &spec).unwrap();
        assert_eq!(format!("{:?}", engine.config()), format!("{want:?}"));
        assert_eq!(report.offered, 20_000);
        assert!(
            report.conserved() && report.escalated() > 0,
            "mix escalates"
        );

        // control: plus the controller; the baseline is the bare shape.
        let ctx = ExpCtx::new(1);
        let spec = ControlRunSpec {
            shape: shape.clone(),
            ..ControlRunSpec::default()
        };
        let (_, outcome, engine) = control_run_full(&ctx, &spec).unwrap();
        let with_control = want.clone().with_control(control_config(&spec));
        assert_eq!(
            format!("{:?}", engine.config()),
            format!("{with_control:?}")
        );
        for run in [&outcome.controlled, &outcome.baseline] {
            assert_eq!(run.offered, 20_000);
            assert!(run.conserved());
            assert_eq!(run.shards.len(), 3);
        }
        assert!(outcome.controlled.escalated() > 0, "mix escalates");

        // serve: plus the controller and `carry_flow_state`.
        let ctx = ExpCtx::new(1);
        let spec = ServeSpec {
            shape: shape.clone(),
            rate_mpps: None,
            segments: 1,
            carry_flow_state: true,
            ..ServeSpec::default()
        };
        let (_, outcome, engine) = serve_run_full(&ctx, &spec).unwrap();
        let mut carried = want.clone();
        carried.carry_flow_state = true;
        assert_eq!(knobs(engine.config()), knobs(&carried));
        let control = engine.config().control.as_ref().expect("controller");
        assert_eq!(control.epoch_ms, EPOCH_MS);
        assert_eq!(outcome.segments[0].offered, 20_000);
        assert!(outcome.all_conserved());
        assert_eq!(outcome.pool_bound, carried.lane_buffers() as u64);
    }
}

#[test]
fn an_unreadable_capture_is_refused_whoever_built_the_shape() {
    let missing = RunShape {
        source: EngineSource::Pcap("/nonexistent/capture.pcap".to_string()),
        ..RunShape::default()
    };
    let said = missing.replay(1).err().expect("unreadable capture");
    assert!(said.contains("cannot read /nonexistent/capture.pcap"));
}
