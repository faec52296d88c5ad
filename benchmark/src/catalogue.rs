//! Every metric the benchmark reports, by name, with its unit and
//! direction — the in-code twin of `BENCHMARK.json` (a test keeps the
//! two equal). A run emits exactly these: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`.
//!
//! Per-layer metrics have no bound. One that does not apply to a
//! workload (parse cost on a workload that never parses, lane waits on a
//! run-to-completion core) reads `0` there, which is itself the
//! prediction "this layer does no work on this workload".

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

use Better::{Higher, Lower};

/// What a user of the system sees.
pub const END_TO_END: &[Metric] = &[
    // Packets processed per second of segment wall time at a stated
    // input (one pass, 64-B packets): mean of the five fastest segments
    // on the flat-out workloads; median segment on the open-loop one,
    // where it is the offered rate times the share delivered.
    e2e("mpps", "Mpps", Higher, 0.25),
    // Fastest build of the workload input plus engine construction,
    // over builds spread through the run.
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, taken from outside by timing calls into public
/// functions, plus the engine's own per-run books.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.gen_s", "s", Lower),
    layer("trace.compile_s", "s", Lower),
    layer("net.wire.parse_ns_per_pkt", "ns", Lower),
    layer("runtime.frame.load_ns_per_pkt", "ns", Lower),
    layer("net.hash.digest_ns_per_pkt", "ns", Lower),
    layer("runtime.spsc.xfer_ns_per_batch", "ns", Lower),
    layer("runtime.spsc.full_share", "ratio", Lower),
    layer("snic.flowcache.ns_per_pkt", "ns", Lower),
    layer("snic.flowcache.hit_share", "ratio", Higher),
    layer("snic.flowcache.mean_probe_len", "count", Lower),
    layer("snic.flowcache.ring_push_share", "ratio", Lower),
    layer("core.suite.ns_per_pkt", "ns", Lower),
    layer("core.suite.alerts_per_mpkt", "1/Mpkt", Lower),
    layer("core.suite.host_share", "ratio", Lower),
    layer("runtime.escalate.ns_per_escalation", "ns", Lower),
    layer("runtime.escalate.verdicts_per_mpkt", "1/Mpkt", Lower),
    layer("runtime.control.publish_ns", "ns", Lower),
    layer("runtime.control.poll_ns_per_batch", "ns", Lower),
    layer("telemetry.hist.flush_ns_per_batch", "ns", Lower),
    layer("telemetry.export.prometheus_ms", "ms", Lower),
    layer("runtime.engine.stats_json_ms", "ms", Lower),
    layer("control.controller.epoch_us", "us", Lower),
    layer("control.snapshot.refresh_ns", "ns", Lower),
    layer("walk.ns_per_pkt", "ns", Lower),
    layer("walk.coverage", "ratio", Higher),
    layer("walk.span_overhead_share", "ratio", Lower),
    layer("runtime.engine.mpps_p50", "Mpps", Higher),
    layer("runtime.engine.mpps_iqr_share", "ratio", Lower),
    layer("loss_share", "ratio", Lower),
    layer("runtime.engine.lane_wait_us_p50", "us", Lower),
    layer("runtime.engine.lane_wait_us_p99", "us", Lower),
    layer("runtime.engine.escalate_rtt_us_p50", "us", Lower),
    layer("runtime.engine.idle_parks_per_mpkt", "1/Mpkt", Lower),
    layer("runtime.engine.batch_fill_mean", "ratio", Higher),
    layer("runtime.engine.ingest_drop_share", "ratio", Lower),
    layer("runtime.engine.escalation_drop_share", "ratio", Lower),
    layer("runtime.engine.pool_allocs_per_segment", "count", Lower),
    layer(
        "runtime.engine.frame_pool_allocs_per_segment",
        "count",
        Lower,
    ),
    layer("runtime.engine.cpu_s_per_mpkt", "s/Mpkt", Lower),
    layer("runtime.engine.pace_lag_share", "ratio", Lower),
    layer("runtime.obs.trace_overhead_share", "ratio", Lower),
    layer("peak_rss_mb", "MB", Lower),
    layer("alloc.count_per_mpkt", "1/Mpkt", Lower),
    layer("alloc.bytes_per_mpkt", "B/Mpkt", Lower),
    layer("calib.score", "iter/us", Higher),
];
