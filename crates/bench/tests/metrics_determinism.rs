//! The `--metrics-json` / `--trace-out` contract: two same-seed runs of
//! an experiment must register the same metrics with byte-identical
//! exported values, and the fig5 registry must carry the observability
//! surface the harness promises (per-policy cache counters, per-PME
//! accounting, latency histograms, the escalation-rate gauge).

use smartwatch_bench::{exp_cache, ExpCtx};
use smartwatch_telemetry::export::Snapshot;

fn fig5_run() -> (String, String, Snapshot) {
    let ctx = ExpCtx::new(1);
    let _ = exp_cache::fig5(&ctx);
    let snap = ctx.registry.snapshot();
    (snap.to_json(), ctx.tracer.to_chrome_json(), snap)
}

#[test]
fn fig5_metrics_json_is_byte_identical_across_runs() {
    let (m1, t1, _) = fig5_run();
    let (m2, t2, _) = fig5_run();
    assert_eq!(m1, m2, "same-seed runs must export identical metrics JSON");
    assert_eq!(t1, t2, "same-seed runs must export identical traces");
}

#[test]
fn fig5_registry_carries_the_promised_surface() {
    let (_, _, snap) = fig5_run();

    // FlowCache hit/miss/evict per policy: all four fig5 policies.
    for policy in ["lru", "lpc", "fifo", "lru-lpc"] {
        for metric in ["p_hits", "misses", "evictions"] {
            let rendered = format!("snic.cache.{metric}{{policy={policy}}}");
            assert!(
                snap.counter(&rendered).is_some(),
                "missing counter {rendered}"
            );
        }
    }

    // Per-PME busy/stall counters, one pair per simulated PME.
    let pme_busy = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "snic.pme.busy_ns")
        .count();
    let pme_stall = snap
        .counters
        .iter()
        .filter(|(id, _)| id.name == "snic.pme.stall_ns")
        .count();
    assert!(
        pme_busy >= 2,
        "expected per-PME busy counters, got {pme_busy}"
    );
    assert_eq!(pme_busy, pme_stall, "busy/stall counters must pair up");

    // Escalation-rate gauge, overall and per policy, in [0, 1].
    let esc = snap
        .gauge("core.escalation_rate")
        .expect("escalation gauge");
    assert!((0.0..=1.0).contains(&esc), "escalation rate {esc}");
    assert!(snap.gauge("core.escalation_rate{policy=lru-lpc}").is_some());

    // At least three latency histograms with populated percentiles.
    let lat_hists: Vec<_> = snap
        .hists
        .iter()
        .filter(|(id, h)| id.name.ends_with("_ns") && h.count > 0)
        .collect();
    assert!(
        lat_hists.len() >= 3,
        "expected ≥3 populated latency histograms, got {}",
        lat_hists.len()
    );
    for (id, h) in &lat_hists {
        assert!(
            h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max,
            "percentiles out of order for {}",
            id.render()
        );
    }
}

#[test]
fn experiments_accumulate_into_one_registry() {
    // Running a second experiment on the same context must not clobber
    // fig5's metrics — the registry accumulates across the invocation.
    let ctx = ExpCtx::new(1);
    let _ = exp_cache::fig5(&ctx);
    let before = ctx.registry.snapshot().counters.len();
    let _ = exp_cache::fig4(&ctx);
    let after = ctx.registry.snapshot();
    assert!(after.counters.len() >= before);
    assert!(after.counter("snic.cache.p_hits{policy=lru-lpc}").is_some());
}
