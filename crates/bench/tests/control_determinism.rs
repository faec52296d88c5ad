//! Satellite: the control plane's deterministic-summary contract.
//!
//! The controller is a pure state machine; driven through the same
//! seeded virtual-time load profile twice it must produce byte-stable
//! output — the counters-only summary, the rendered `control-sim`
//! table, and the event timeline all identical across runs.

use smartwatch_bench::{exp_control, ExpCtx};
use smartwatch_control::{simulate, ControlConfig, LoadProfile};

#[test]
fn control_sim_summary_is_byte_identical_across_runs() {
    let a = simulate(ControlConfig::default(), &LoadProfile::default());
    let b = simulate(ControlConfig::default(), &LoadProfile::default());
    assert_eq!(
        a.summary, b.summary,
        "identical seeded drives must summarise identically"
    );
    assert!(
        a.summary.contains("control-summary v1"),
        "summary must carry its schema tag:\n{}",
        a.summary
    );
    // The timeline (excluded from the summary on purpose) is still
    // deterministic: same events in the same epochs.
    assert_eq!(a.report.timeline(), b.report.timeline());
    assert_eq!(a.lite_epochs, b.lite_epochs);
}

#[test]
fn control_sim_table_is_byte_identical_across_runs() {
    let ctx = ExpCtx::new(1);
    let t1 = exp_control::control_sim(&ctx);
    let t2 = exp_control::control_sim(&ctx);
    assert_eq!(t1.render(), t2.render());
    assert_eq!(t1.to_json(), t2.to_json());
}

#[test]
fn control_sim_seed_changes_the_stream_but_not_the_shape() {
    let base = simulate(ControlConfig::default(), &LoadProfile::default());
    let other = simulate(
        ControlConfig::default(),
        &LoadProfile {
            seed: 0xD1FF_5EED,
            ..LoadProfile::default()
        },
    );
    // Shape invariants survive any seed: the spike flips Lite and the
    // tail recovers, under the same epoch count.
    assert_eq!(base.report.epochs, other.report.epochs);
    assert!(base.lite_epochs > 0 && other.lite_epochs > 0);
    assert_eq!(base.report.shed_active, other.report.shed_active);
}
