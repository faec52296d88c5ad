//! # smartwatch-bench
//!
//! The reproduction harness: one function per table/figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index), shared
//! workload builders, and output formatting. The `repro` binary drives
//! everything; Criterion micro-benchmarks live under `benches/`.

// `deny` rather than `forbid`: the `signal` module carries the one
// narrowly-scoped `#[allow(unsafe_code)]` needed for the libc signal(2)
// declaration; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_ablation;
pub mod exp_cache;
pub mod exp_control;
pub mod exp_covert;
pub mod exp_detect;
pub mod exp_engine;
pub mod exp_scale;
pub mod exp_serve;
pub mod exp_traffic;
pub mod output;
pub mod run_shape;
pub mod serve;
pub mod signal;
pub mod workloads;

use output::Table;
use smartwatch_telemetry::{Registry, Tracer};

/// Shared context threaded through every experiment: the workload scale
/// plus the observability sinks. Experiments attach components to
/// `registry` (metrics accumulate across experiments in one `repro`
/// invocation) and open shards on `tracer` for sim-time events; the
/// `repro` binary dumps both via `--metrics-json` / `--trace-out`.
pub struct ExpCtx {
    /// Workload multiplier (`repro --scale N`).
    pub scale: usize,
    /// Metric sink shared by every experiment of the invocation.
    pub registry: Registry,
    /// Sim-time trace sink shared by every experiment.
    pub tracer: Tracer,
}

impl ExpCtx {
    /// Fresh context at `scale` with empty metric/trace sinks.
    pub fn new(scale: usize) -> ExpCtx {
        ExpCtx {
            scale,
            registry: Registry::new(),
            tracer: Tracer::default(),
        }
    }
}

/// One experiment entry point: context in, rendered table out.
pub type Experiment = fn(&ExpCtx) -> Table;

/// Every reproducible experiment, in paper order.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig2a", |c| exp_scale::fig2(c, false)),
        ("fig2b", |c| exp_scale::fig2(c, true)),
        ("fig3", exp_scale::fig3),
        ("fig4", exp_cache::fig4),
        ("fig5", exp_cache::fig5),
        ("fig6a", exp_cache::fig6a),
        ("fig6b", exp_cache::fig6b),
        ("fig7", exp_cache::fig7),
        ("fig8a", exp_detect::fig8a),
        ("fig8b", exp_detect::fig8b),
        ("fig8c", exp_detect::fig8c),
        ("fig9a", exp_covert::fig9a),
        ("fig9b", exp_covert::fig9b),
        ("fig10", exp_traffic::fig10),
        ("fig11a", exp_traffic::fig11a),
        ("fig11b", exp_traffic::fig11b),
        ("table2", exp_detect::table2),
        ("table3", exp_cache::table3),
        ("table4", exp_detect::table4),
        ("ablation-cuckoo", exp_ablation::ablation_cuckoo),
        ("ablation-pinning", exp_ablation::ablation_pinning),
        ("ablation-steer-width", exp_ablation::ablation_steer_width),
        ("ablation-cleanup", exp_ablation::ablation_cleanup),
        ("ablation-sampling", exp_ablation::ablation_sampling),
        ("control-sim", exp_control::control_sim),
    ]
}
