//! One run of one workload: set up, measure for the given time, check
//! the program's outputs, report.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics with
//! nothing else going on in the process. A traced run (`--trace 1`)
//! spends its time on the per-layer picture instead: engine segments
//! read through the registry, the layer walk with spans, the probes,
//! and the price of the program's own tracer.

use crate::alloc;
use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::probe;
use crate::span::{self_times, NoSpans, Recorder};
use crate::stats::{best_mean, iqr_share, median, supports_percentile};
use crate::walk::{layer, walk, Tally};
use crate::workload::{Setup, Timing, Workload};
use smartwatch_runtime::{DatapathMode, Engine, Pace, StageSnapshot};
use smartwatch_telemetry::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// An untraced run is cut into this many rounds; each starts by
/// rebuilding the workload (same seed, so the same input) and then
/// measures its share of the run. The machine this was sized on flips
/// between a fast and a 1.4× slower phase every 2–10 s, so builds that
/// sit in one window read either; spread over the run, the fastest of
/// them is the program's set-up time (it repeated within 4% where the
/// median of the same builds moved by 10%).
const ROUNDS: usize = 6;
/// Builds per round: at least this many, and until [`BUILD_WINDOW`] is
/// spent — a cheap build (a few ms) only settles after dozens of
/// repeats, the first ones pay page faults and allocator growth.
const MIN_BUILDS: usize = 2;
const BUILD_WINDOW: Duration = Duration::from_millis(100);
/// Spanned walk passes (the fastest is reported), fewer when the time
/// budget runs out first.
const WALK_PASSES: usize = 5;
/// Spans written to `trace_<workload>.json`: the first bursts of the
/// fastest pass — enough to read, small enough to open.
const TRACE_FILE_SPANS: usize = 20_000;

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    /// Packets offered to the engine over all measured segments.
    pub attempted: u64,
    /// Packets of segments that failed a check.
    pub failed: u64,
    /// The declared metrics of this run's mode, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// FNV-1a of the deterministic summary every segment produced
    /// (`0` for a workload whose run is not a pure function of its
    /// input), so `all` can compare workloads that must agree.
    pub summary_digest: u64,
}

/// The books of a series of back-to-back segments.
#[derive(Default)]
struct Segments {
    mpps: Vec<f64>,
    loss: Vec<f64>,
    lag: Vec<f64>,
    offered: u64,
    ingest_dropped: u64,
    escalated: u64,
    escalation_dropped: u64,
    idle_parks: u64,
    failed: u64,
    /// Summary of the first segment (deterministic workloads compare
    /// every later one against it).
    summary: Option<String>,
    /// Verdict counts of the segments that lost nothing.
    lossless_verdicts: Vec<u64>,
    /// FlowCache mix of the first segment: p_hits, e_hits, misses,
    /// to_host, ring_pushes.
    cache_mix: Option<[u64; 5]>,
    /// Stage histograms as of the last segment (cumulative over the
    /// registry's life, so they cover every segment of one engine).
    stage: Option<StageSnapshot>,
    errors: Vec<String>,
}

impl Segments {
    /// Run one segment on `engine` and settle it into the books.
    fn run_one(&mut self, w: &Workload, setup: &Setup) {
        let r = setup.engine.run_source(setup.input.source(), w.pace);
        let idx = self.mpps.len();
        let mut ok = r.conserved();
        if !ok {
            self.errors
                .push(format!("segment {idx}: conservation violated"));
        }
        let lost = r.ingest_dropped() + r.shed() + r.steer_dropped();
        if matches!(w.pace, Pace::Flatout) && (r.processed() != r.offered || lost != 0) {
            ok = false;
            self.errors.push(format!(
                "segment {idx}: flat-out run processed {} of {} ({} dropped)",
                r.processed(),
                r.offered,
                lost
            ));
        }
        if w.deterministic() {
            let s = r.deterministic_summary();
            match &self.summary {
                None => self.summary = Some(s),
                Some(first) if *first != s => {
                    ok = false;
                    self.errors
                        .push(format!("segment {idx}: deterministic summary changed"));
                }
                Some(_) => {}
            }
        } else if lost == 0 {
            self.lossless_verdicts.push(r.verdicts_published);
        }
        if !ok {
            self.failed += r.offered;
        }
        self.mpps.push(r.mpps());
        self.loss
            .push(r.ingest_dropped() as f64 / r.offered.max(1) as f64);
        if let Pace::RateMpps(rate) = w.pace {
            let scheduled_s = r.offered as f64 / (rate * 1e6);
            self.lag
                .push((r.elapsed.as_secs_f64() / scheduled_s - 1.0).max(0.0));
        }
        self.offered += r.offered;
        self.ingest_dropped += r.ingest_dropped();
        self.escalated += r.escalated();
        self.escalation_dropped += r.escalation_dropped();
        self.idle_parks += r.idle_parks();
        let fc = &r.flowcache;
        self.cache_mix
            .get_or_insert([fc.p_hits, fc.e_hits, fc.misses, fc.to_host, fc.ring_pushes]);
        self.stage = Some(r.stage);
    }

    /// Back-to-back segments until `budget` has passed (at least one).
    fn run_for(&mut self, w: &Workload, setup: &Setup, budget: Duration) {
        let t0 = Instant::now();
        loop {
            self.run_one(w, setup);
            if t0.elapsed() >= budget {
                break;
            }
        }
    }

    /// The workload's throughput: the fast end of the segment
    /// distribution flat-out (interference only ever slows a segment),
    /// the median segment in open loop (goodput at the fixed rate).
    fn mpps(&self, w: &Workload) -> f64 {
        match w.pace {
            Pace::Flatout => best_mean(&self.mpps),
            _ => median(&self.mpps),
        }
    }
}

/// Check the engine's books against the walk's ground truth.
fn oracle(w: &Workload, segs: &Segments, truth: &Tally, errors: &mut Vec<String>) {
    if w.deterministic() {
        let engine = segs.summary.as_deref().unwrap_or_default();
        if engine != truth.summary() {
            errors.push(format!(
                "engine summary differs from the walk\nengine:\n{engine}walk:\n{}",
                truth.summary()
            ));
        }
        let walked = [
            truth.p_hits,
            truth.e_hits,
            truth.misses,
            truth.to_host,
            truth.ring_pushes,
        ];
        if segs.cache_mix.is_some_and(|engine| engine != walked) {
            errors.push(format!(
                "FlowCache mix [p_hits, e_hits, misses, to_host, ring_pushes]: \
                 engine {:?}, walk {walked:?}",
                segs.cache_mix
            ));
        }
    } else if let Some(v) = segs
        .lossless_verdicts
        .iter()
        .find(|&&v| v != truth.verdicts)
    {
        errors.push(format!(
            "a lossless segment published {v} verdicts, the walk {}",
            truth.verdicts
        ));
    }
}

/// Build the workload repeatedly for one [`BUILD_WINDOW`]; returns the
/// last build and the timing of the quickest build so far (`fastest`
/// carries it in from earlier windows). `previous` is dropped first and
/// every build before the next, so the peak resident set holds one
/// input, not several.
fn build(
    w: &Workload,
    seed: u64,
    previous: Option<Setup>,
    mut fastest: Option<Timing>,
) -> (Setup, Timing) {
    drop(previous);
    let t0 = Instant::now();
    let mut builds = 0;
    loop {
        let setup = w.setup(seed);
        let best = match fastest {
            Some(f) if f.total_s <= setup.timing.total_s => f,
            _ => setup.timing,
        };
        fastest = Some(best);
        builds += 1;
        if builds >= MIN_BUILDS && t0.elapsed() >= BUILD_WINDOW {
            return (setup, best);
        }
    }
}

/// Run `w` once.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut segs = Segments::default();
    let (mut setup, mut fastest) = build(w, seed, None, None);
    let truth;
    if trace {
        values.insert("trace.gen_s", fastest.gen_s);
        values.insert("trace.compile_s", fastest.compile_s);
        truth = traced(w, &setup, seconds, &mut segs, &mut values, out_dir);
    } else {
        let round = Duration::from_secs_f64(seconds / ROUNDS as f64);
        for r in 0..ROUNDS {
            if r > 0 {
                (setup, fastest) = build(w, seed, Some(setup), Some(fastest));
            }
            segs.run_for(w, &setup, round);
        }
        values.insert("mpps", segs.mpps(w));
        values.insert("setup_s", fastest.total_s);
        truth = walk(&setup.input, setup.engine.config(), &mut NoSpans);
    }

    let mut errors = std::mem::take(&mut segs.errors);
    oracle(w, &segs, &truth, &mut errors);
    let correct = errors.is_empty();
    let declared = if trace { PER_LAYER } else { END_TO_END };
    Outcome {
        correct,
        attempted: segs.offered,
        // A summary the walk contradicts puts every segment in doubt.
        failed: if correct || segs.failed > 0 {
            segs.failed
        } else {
            segs.offered
        },
        metrics: declared
            .iter()
            .map(|m| {
                let v = values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                (m, *v)
            })
            .collect(),
        errors,
        summary_digest: segs.summary.as_deref().map_or(0, fnv1a),
    }
}

/// The traced run: per-layer numbers for every declared layer metric.
/// Returns the walk's ground truth for the oracle.
fn traced(
    w: &Workload,
    setup: &Setup,
    seconds: f64,
    segs: &mut Segments,
    v: &mut BTreeMap<&'static str, f64>,
    out_dir: &Path,
) -> Tally {
    let cfg = setup.engine.config();

    // ── Engine segments, read through the report and the registry ────
    let engine_budget = Duration::from_secs_f64(seconds * 0.6);
    let pool_allocs = |name: &str| setup.registry.counter(name, &[]).get() as f64;
    // The first segment warms the pools; steady-state allocation and the
    // armed-allocator segment are taken after it.
    segs.run_one(w, setup);
    let (pool0, frame0) = (
        pool_allocs("runtime.pool.allocated"),
        pool_allocs("runtime.frame_pool.allocated"),
    );
    let (_, alloc_count, alloc_bytes) = alloc::counted(|| segs.run_one(w, setup));
    let mpkt = setup.input.len() as f64 / 1e6;
    v.insert("alloc.count_per_mpkt", alloc_count as f64 / mpkt);
    v.insert("alloc.bytes_per_mpkt", alloc_bytes as f64 / mpkt);
    let (cpu0, pkts0) = (cpu_seconds(), segs.offered);
    segs.run_for(w, setup, engine_budget);
    let cpu_s = cpu_seconds() - cpu0;
    // Read before the walk and the probes allocate anything of their own.
    v.insert("peak_rss_mb", peak_rss_mb());
    let steady = (segs.mpps.len() - 1) as f64;
    v.insert(
        "runtime.engine.pool_allocs_per_segment",
        (pool_allocs("runtime.pool.allocated") - pool0) / steady,
    );
    v.insert(
        "runtime.engine.frame_pool_allocs_per_segment",
        (pool_allocs("runtime.frame_pool.allocated") - frame0) / steady,
    );
    v.insert(
        "runtime.engine.cpu_s_per_mpkt",
        cpu_s / ((segs.offered - pkts0) as f64 / 1e6),
    );
    let engine_mpps = segs.mpps(w);
    v.insert("runtime.engine.mpps_p50", median(&segs.mpps));
    v.insert("runtime.engine.mpps_iqr_share", iqr_share(&segs.mpps));
    v.insert("loss_share", median(&segs.loss));
    v.insert("runtime.engine.pace_lag_share", median(&segs.lag));
    let per_mpkt = 1e6 / segs.offered as f64;
    v.insert(
        "runtime.engine.idle_parks_per_mpkt",
        segs.idle_parks as f64 * per_mpkt,
    );
    v.insert(
        "runtime.engine.ingest_drop_share",
        segs.ingest_dropped as f64 / segs.offered as f64,
    );
    v.insert(
        "runtime.engine.escalation_drop_share",
        segs.escalation_dropped as f64 / segs.escalated.max(1) as f64,
    );
    let stage = segs.stage.expect("a segment ran");
    let us = |ns: u64| ns as f64 / 1e3;
    let pct = |count: u64, per_mille: u64, ns: u64| {
        if supports_percentile(count, per_mille) {
            us(ns)
        } else {
            0.0
        }
    };
    v.insert(
        "runtime.engine.lane_wait_us_p50",
        pct(stage.queue_ns.count, 500, stage.queue_ns.p50),
    );
    v.insert(
        "runtime.engine.lane_wait_us_p99",
        pct(stage.queue_ns.count, 990, stage.queue_ns.p99),
    );
    v.insert(
        "runtime.engine.escalate_rtt_us_p50",
        pct(stage.escalate_ns.count, 500, stage.escalate_ns.p50),
    );
    v.insert(
        "runtime.engine.batch_fill_mean",
        stage.batch_pkts.mean / cfg.batch as f64,
    );
    let timed_ms = |f: &dyn Fn() -> usize| {
        let times: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    v.insert(
        "telemetry.export.prometheus_ms",
        timed_ms(&|| setup.registry.snapshot().to_prometheus().len()),
    );
    v.insert(
        "runtime.engine.stats_json_ms",
        timed_ms(&|| setup.engine.stats_json().len()),
    );

    // ── The price of the program's own tracer ────────────────────────
    v.insert(
        "runtime.obs.trace_overhead_share",
        if w.price_tracer {
            tracer_price(w, setup, Duration::from_secs_f64(seconds * 0.25))
        } else {
            0.0
        },
    );

    // ── The layer walk ───────────────────────────────────────────────
    let walk_budget = Duration::from_secs_f64(seconds * 0.25);
    let t_walk = Instant::now();
    let t0 = Instant::now();
    let truth = walk(&setup.input, cfg, &mut NoSpans);
    let mut bare_ns = t0.elapsed().as_nanos() as f64;
    let n = truth.offered as f64;
    // Per burst: the root, digest, poll, suite, escalate, FlowCache; a
    // wire burst adds four ingest steps per 8 frames.
    let mut rec = Recorder::with_capacity(40 * truth.bursts as usize);
    let mut best: Option<(f64, BTreeMap<&'static str, u64>)> = None;
    let mut head = Vec::new();
    for pass in 0..WALK_PASSES {
        if pass >= 2 && t_walk.elapsed() >= walk_budget {
            break;
        }
        rec.clear();
        let t0 = Instant::now();
        let tally = walk(&setup.input, cfg, &mut rec);
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(tally, truth, "the walk must repeat exactly");
        if best.as_ref().is_none_or(|(b, _)| ns < *b) {
            best = Some((ns, self_times(rec.spans())));
            head = rec.spans()[..rec.spans().len().min(TRACE_FILE_SPANS)].to_vec();
        }
        // Interleave a span-free pass so both sides see the same phases
        // of the machine.
        let t0 = Instant::now();
        walk(&setup.input, cfg, &mut NoSpans);
        bare_ns = bare_ns.min(t0.elapsed().as_nanos() as f64);
    }
    let (spanned_ns, selfs) = best.expect("at least one spanned pass");
    let per_pkt = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / n;
    v.insert("net.wire.parse_ns_per_pkt", per_pkt(layer::PARSE));
    v.insert("runtime.frame.load_ns_per_pkt", per_pkt(layer::FRAME_LOAD));
    v.insert("net.hash.digest_ns_per_pkt", per_pkt(layer::DIGEST));
    v.insert("snic.flowcache.ns_per_pkt", per_pkt(layer::FLOWCACHE));
    v.insert("core.suite.ns_per_pkt", per_pkt(layer::SUITE));
    v.insert(
        "runtime.escalate.ns_per_escalation",
        selfs.get(layer::ESCALATE).copied().unwrap_or(0) as f64 / truth.escalated.max(1) as f64,
    );
    v.insert(
        "runtime.control.poll_ns_per_batch",
        selfs.get(layer::CONTROL_POLL).copied().unwrap_or(0) as f64 / truth.bursts as f64,
    );
    let accesses = truth.accesses().max(1) as f64;
    v.insert(
        "snic.flowcache.hit_share",
        (truth.p_hits + truth.e_hits) as f64 / accesses,
    );
    v.insert(
        "snic.flowcache.mean_probe_len",
        truth.probe_sum as f64 / accesses,
    );
    v.insert(
        "snic.flowcache.ring_push_share",
        truth.ring_pushes as f64 / accesses,
    );
    v.insert("core.suite.alerts_per_mpkt", truth.alerts as f64 * 1e6 / n);
    v.insert(
        "core.suite.host_share",
        truth.escalated as f64 / truth.processed.max(1) as f64,
    );
    v.insert(
        "runtime.escalate.verdicts_per_mpkt",
        truth.verdicts as f64 * 1e6 / n,
    );
    v.insert("walk.ns_per_pkt", bare_ns / n);
    v.insert(
        "walk.span_overhead_share",
        ((spanned_ns - bare_ns) / spanned_ns).max(0.0),
    );
    // How much of the engine's measured ns/packet the named layers
    // account for (the burst root's self time is the walk's own loop
    // and clock reads, not a layer).
    let layers_ns: f64 = selfs
        .iter()
        .filter(|(name, _)| **name != layer::BURST)
        .map(|(_, ns)| *ns as f64)
        .sum::<f64>()
        / n;
    v.insert("walk.coverage", layers_ns / (1e3 / engine_mpps));
    let trace_path = out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, crate::span::chrome_trace(&head)))
    {
        segs.errors
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }

    // ── Probes of what the walk cannot reach ─────────────────────────
    // Two spinning threads on two vCPUs: a round in which either was
    // descheduled measures the scheduler, so the fastest of five counts.
    let (xfer_ns, full_share) = if cfg.datapath == DatapathMode::Pipeline {
        (0..5)
            .map(|_| probe::spsc_ping(40_000))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("five rounds")
    } else {
        (0.0, 0.0)
    };
    v.insert("runtime.spsc.xfer_ns_per_batch", xfer_ns);
    v.insert("runtime.spsc.full_share", full_share);
    v.insert(
        "runtime.control.publish_ns",
        probe::control_publish_ns(200_000),
    );
    v.insert(
        "telemetry.hist.flush_ns_per_batch",
        probe::hist_flush_ns_per_batch(200_000),
    );
    let (epoch_us, refresh_ns) = if w.control {
        (
            probe::controller_epoch_us(400),
            probe::snapshot_refresh_ns(2_000_000),
        )
    } else {
        (0.0, 0.0)
    };
    v.insert("control.controller.epoch_us", epoch_us);
    v.insert("control.snapshot.refresh_ns", refresh_ns);
    v.insert("calib.score", probe::calib_score());
    truth
}

/// Share of throughput the program's sampled tracer costs: segments
/// alternate between the plain engine and one with a [`Tracer`]
/// attached at `trace_sample = 64`, so both see the same machine phases.
fn tracer_price(w: &Workload, setup: &Setup, budget: Duration) -> f64 {
    let mut cfg = setup.engine.config().clone();
    cfg.trace_sample = 64;
    let mut traced = Engine::new(cfg);
    traced.attach_tracer(&Tracer::new(1 << 16));
    let (mut plain_mpps, mut traced_mpps) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        plain_mpps.push(setup.engine.run_source(setup.input.source(), w.pace).mpps());
        traced_mpps.push(traced.run_source(setup.input.source(), w.pace).mpps());
    }
    1.0 - best_mean(&traced_mpps) / best_mean(&plain_mpps)
}

/// `VmHWM` of this process, MB; `0.0` where `/proc` has no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads) so far, seconds,
/// from `/proc/self/stat` at the kernel's 100 Hz accounting tick.
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use smartwatch_telemetry::Registry;

    /// A workload's setup over the first `n` packets of its input.
    fn small_setup(w: &Workload, n: usize) -> Setup {
        let packets = w.generate(3).into_iter().take(n).collect();
        let registry = Registry::new();
        Setup {
            input: w.input_from(packets),
            engine: Engine::with_registry(w.config(), &registry),
            registry,
            timing: Timing::default(),
        }
    }

    #[test]
    fn walk_equals_engine_on_20k_packets_in_all_four_configurations() {
        for w in &WORKLOADS {
            let setup = small_setup(w, 20_000);
            let truth = walk(&setup.input, setup.engine.config(), &mut NoSpans);
            assert_eq!(truth.offered, 20_000);
            assert_eq!(truth.processed, truth.offered, "{}", w.name);
            let mut rec = Recorder::with_capacity(1024);
            assert_eq!(
                walk(&setup.input, setup.engine.config(), &mut rec),
                truth,
                "{}: recording spans changed the walk",
                w.name
            );
            let mut segs = Segments::default();
            segs.run_one(w, &setup);
            segs.run_one(w, &setup);
            let mut errors = std::mem::take(&mut segs.errors);
            oracle(w, &segs, &truth, &mut errors);
            assert!(errors.is_empty(), "{}: {errors:?}", w.name);
            assert_eq!(segs.failed, 0, "{}", w.name);
            if w.deterministic() {
                assert_eq!(segs.summary.as_deref(), Some(truth.summary().as_str()));
            }
        }
        // The two renderings of the same trace agree with each other too.
        let summary = |name: &str| {
            let w = crate::workload::by_name(name).unwrap();
            let setup = small_setup(w, 20_000);
            walk(&setup.input, setup.engine.config(), &mut NoSpans).summary()
        };
        assert_eq!(summary("stress64_rtc"), summary("wire_pipeline"));
    }

    #[test]
    fn oracle_catches_a_wrong_count() {
        let w = &WORKLOADS[0];
        let setup = small_setup(w, 5_000);
        let mut truth = walk(&setup.input, setup.engine.config(), &mut NoSpans);
        let mut segs = Segments::default();
        segs.run_one(w, &setup);
        truth.escalated += 1;
        let mut errors = Vec::new();
        oracle(w, &segs, &truth, &mut errors);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn a_run_emits_exactly_the_declared_metrics_in_both_modes() {
        let w = crate::workload::by_name("scattered_cold").unwrap();
        let out = std::env::temp_dir().join(format!("swbench-test-{}", std::process::id()));
        for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let o = run(w, 2, 0.2, trace, &out);
            assert!(o.correct, "{:?}", o.errors);
            assert!(o.attempted >= 1 && o.failed == 0);
            let emitted: Vec<&str> = o.metrics.iter().map(|(m, _)| m.name).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(emitted, want);
            assert!(o.metrics.iter().all(|(_, v)| v.is_finite() && *v >= 0.0));
        }
        // End-to-end metrics are never zero.
        let o = run(w, 2, 0.2, false, &out);
        assert!(o.metrics.iter().all(|(_, v)| *v > 0.0));
        assert!(out.join("trace_scattered_cold.json").exists());
        std::fs::remove_dir_all(&out).unwrap();
    }
}
