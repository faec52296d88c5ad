//! `repro serve` / `repro soak` — persistent service mode.
//!
//! Unlike `repro engine` (one run, one report), service mode keeps a
//! single [`Engine`] resident and replays the workload in **segments**:
//! bounded runs separated by graceful drain/restart cycles, exactly the
//! lifecycle a SmartNIC IPS daemon would live through. Between
//! segments nothing is torn down — batch/frame pools (and, under
//! `--carry-flow-state`, the per-shard FlowCaches) park in the engine's
//! garage and are reissued to the next segment, so steady state
//! allocates nothing and the soak harness can pin memory flat.
//!
//! Three control paths reach the resident engine while packets flow:
//!
//! * the **admin socket** (`--listen`, [`crate::serve::admin_routes`]):
//!   POST endpoints queueing [`AdminCmd`]s applied by the controller at
//!   epoch boundaries, plus the immediate pace/drain atomics;
//! * the **config watcher** (`--serve-config <path>`): a JSON file
//!   polled for mtime changes; a validated diff against the previously
//!   applied config is translated into the same admin commands, so a
//!   hot-reload rides the identical epoch-boundary publication path —
//!   the hot loop never takes a lock. Each attempt is recorded on the
//!   `sw-serve` flight ring ([`FlightKind::ConfigReload`] `ok`/`seq`);
//!   a rejected file leaves the running config untouched;
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
use crate::guard::PollGuard;
use crate::output::Table;
use crate::run_shape::{datapath_label, rate_pace, RunShape};
use crate::ExpCtx;
use serde::Serialize;
use smartwatch_runtime::{AdminCmd, Engine};
use smartwatch_telemetry::{FlightKind, FlightRing};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `repro serve` / `repro soak` invocation, fully specified: the
/// shared [`RunShape`] (its `packets` is per segment, its `--listen`
/// socket carries the admin surface) plus the segment loop.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Engine, per-segment replay input and watchers.
    pub shape: RunShape,
    /// Offered rate in Mpps; `None` replays each segment flat-out.
    /// Paced segments honour live `/admin/pace` overrides.
    pub rate_mpps: Option<f64>,
    /// Segments to run (drain/restart cycles = segments − 1).
    pub segments: usize,
    /// Wall-clock budget per segment in ms; when a segment is still
    /// running at the deadline it is drained gracefully (0 = run each
    /// segment to completion).
    pub segment_ms: u64,
    /// Park the per-shard FlowCaches between segments so flow state
    /// survives a drain/restart cycle.
    pub carry_flow_state: bool,
    /// Controller epoch length in ms (admin commands and config
    /// reloads publish at epoch boundaries).
    pub epoch_ms: u64,
    /// Watch this JSON config file for hot-reloads.
    pub config_path: Option<String>,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            shape: RunShape::default(),
            // A service is paced: the steady rate is what its control
            // thresholds are derived from.
            rate_mpps: Some(1.0),
            segments: 3,
            segment_ms: 0,
            carry_flow_state: false,
            epoch_ms: 2,
            config_path: None,
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
        epoch_ms: spec.epoch_ms,
        base_mpps: rate,
        peak_mpps: 4.0 * rate,
        ..ControlRunSpec::default()
    })
}

/// The hot-reloadable service config — the validated shape of
/// `--serve-config <file>`. Absent/`null` fields mean "release":
///
/// ```json
/// {
///   "rate_mpps": 1.5,
///   "force_shed": null,
///   "blacklist": [4242, 99],
///   "whitelist": [7]
/// }
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeConfig {
    /// Live pace override (paced runs only); `None` releases it.
    pub rate_mpps: Option<f64>,
    /// Pin load shedding on/off; `None` returns it to the controller.
    pub force_shed: Option<bool>,
    /// Flow digests the steering table must blacklist.
    pub blacklist: Vec<u64>,
    /// Flow digests pinned onto the whitelist.
    pub whitelist: Vec<u64>,
}

impl ServeConfig {
    /// Parse and validate a config document. Unknown fields are
    /// rejected so a typo cannot silently no-op.
    pub fn parse(text: &str) -> Result<ServeConfig, String> {
        let doc: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = match &doc {
            serde_json::Value::Object(pairs) => pairs,
            _ => return Err("config must be a JSON object".into()),
        };
        let mut cfg = ServeConfig::default();
        for (key, value) in obj {
            match key.as_str() {
                "rate_mpps" => {
                    cfg.rate_mpps = if value.is_null() {
                        None
                    } else {
                        match value.as_f64() {
                            Some(r) if r > 0.0 && r.is_finite() => Some(r),
                            _ => return Err("rate_mpps must be a positive number or null".into()),
                        }
                    }
                }
                "force_shed" => {
                    cfg.force_shed = if value.is_null() {
                        None
                    } else {
                        match value.as_bool() {
                            Some(b) => Some(b),
                            None => return Err("force_shed must be true, false or null".into()),
                        }
                    }
                }
                "blacklist" => cfg.blacklist = digest_list(value, "blacklist")?,
                "whitelist" => cfg.whitelist = digest_list(value, "whitelist")?,
                other => return Err(format!("unknown config field '{other}'")),
            }
        }
        Ok(cfg)
    }

    /// The admin commands that move a running engine from `self` to
    /// `next` (steering/shed edits; the pace override is applied
    /// directly by the caller since it is an immediate atomic).
    pub fn diff(&self, next: &ServeConfig) -> Vec<AdminCmd> {
        let mut cmds = Vec::new();
        for &d in next
            .blacklist
            .iter()
            .filter(|d| !self.blacklist.contains(d))
        {
            cmds.push(AdminCmd::BlacklistAdd(d));
        }
        for &d in self
            .blacklist
            .iter()
            .filter(|d| !next.blacklist.contains(d))
        {
            cmds.push(AdminCmd::BlacklistRemove(d));
        }
        for &d in next
            .whitelist
            .iter()
            .filter(|d| !self.whitelist.contains(d))
        {
            cmds.push(AdminCmd::WhitelistAdd(d));
        }
        for &d in self
            .whitelist
            .iter()
            .filter(|d| !next.whitelist.contains(d))
        {
            cmds.push(AdminCmd::WhitelistRemove(d));
        }
        if self.force_shed != next.force_shed {
            cmds.push(AdminCmd::ForceShed(next.force_shed));
        }
        cmds
    }

    /// Note that one command of a [`ServeConfig::diff`] reached the
    /// engine: this record now says what that command made true.
    fn record(&mut self, cmd: AdminCmd) {
        match cmd {
            AdminCmd::BlacklistAdd(d) => self.blacklist.push(d),
            AdminCmd::BlacklistRemove(d) => self.blacklist.retain(|held| *held != d),
            AdminCmd::WhitelistAdd(d) => self.whitelist.push(d),
            AdminCmd::WhitelistRemove(d) => self.whitelist.retain(|held| *held != d),
            AdminCmd::ForceShed(pin) => self.force_shed = pin,
            // Not a config-file field; `diff` never emits it.
            AdminCmd::ForceMode { .. } => {}
        }
    }
}

fn digest_list(value: &serde_json::Value, field: &str) -> Result<Vec<u64>, String> {
    let arr = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of unsigned integers"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{field} entries must be unsigned integers"))
        })
        .collect()
}

/// Largest `--serve-config` file read: a watched path is outside
/// input, and the whole document is held in memory to be parsed.
const MAX_CONFIG_BYTES: u64 = 1 << 20;

/// The watched file's text, refused past [`MAX_CONFIG_BYTES`] without
/// reading further.
fn read_config(path: &str) -> Result<String, String> {
    use std::io::Read;
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(MAX_CONFIG_BYTES + 1).read_to_string(&mut text))
        .map_err(|e| e.to_string())?;
    if text.len() as u64 > MAX_CONFIG_BYTES {
        return Err(format!("larger than {MAX_CONFIG_BYTES} bytes"));
    }
    Ok(text)
}

/// Move a running engine from the config `applied` records to `next`:
/// queue the steering/shed diff through the admin mailbox (published at
/// the next epoch boundary), one command at a time, then flip the pace
/// atomic. `applied` is advanced by exactly what landed, so when the
/// mailbox refuses a command (`false`), diffing `applied` against
/// `next` again yields exactly the commands still owed.
fn apply_config(engine: &Engine, applied: &mut ServeConfig, next: &ServeConfig) -> bool {
    for cmd in applied.diff(next) {
        if !engine.admin(cmd) {
            return false;
        }
        applied.record(cmd);
    }
    if applied.rate_mpps != next.rate_mpps {
        engine.set_rate_override(next.rate_mpps);
    }
    *applied = next.clone();
    true
}

/// The config hot-reload watcher: polls the file's mtime from a helper
/// thread, re-validates on change and publishes the diff. Dropping the
/// watcher stops the thread.
struct ConfigWatcher {
    shared: Arc<ConfigShared>,
    _poll: PollGuard,
}

#[derive(Default)]
struct ConfigShared {
    /// Successful reloads (the `seq` in `config_reload` flight events).
    reloads: AtomicU64,
    /// Rejected reload attempts (file failed to parse or validate, or the
    /// admin mailbox refused part of its diff — counted once per reload).
    errors: AtomicU64,
}

impl ConfigWatcher {
    /// Load `path` once synchronously (so a config present at startup
    /// is active for the first segment), then watch it for changes.
    fn start(path: String, engine: Arc<Engine>, ring: FlightRing) -> ConfigWatcher {
        let shared = Arc::new(ConfigShared::default());
        let mut poller = ConfigPoller {
            path,
            engine,
            ring,
            shared: Arc::clone(&shared),
            applied: ServeConfig::default(),
            last_mtime: None,
            owed: None,
        };
        poller.poll(true);
        let poll = PollGuard::spawn("sw-config", Duration::from_millis(100), move || {
            poller.poll(false);
            true
        });
        ConfigWatcher {
            shared,
            _poll: poll,
        }
    }

    fn reloads(&self) -> u64 {
        self.shared.reloads.load(Ordering::Relaxed)
    }

    fn errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }
}

/// The watcher thread's state: what of the watched file has reached
/// the engine, the mtime it was last read at, and the last valid read
/// while part of its diff is still owed to a full admin mailbox.
struct ConfigPoller {
    path: String,
    engine: Arc<Engine>,
    ring: FlightRing,
    shared: Arc<ConfigShared>,
    applied: ServeConfig,
    last_mtime: Option<std::time::SystemTime>,
    owed: Option<ServeConfig>,
}

impl ConfigPoller {
    /// One poll round: skip unless the mtime moved, part of the last
    /// reload is still owed, or `force`; then parse-validate-diff-apply
    /// and record the attempt in flight. A reload the admin mailbox
    /// refused part of counts as one error and is retried on every
    /// tick, from what `applied` says landed, until the whole diff is
    /// in — from the read that was refused, not from the file, so a
    /// file that has gone bad since does not strand half a diff.
    fn poll(&mut self, force: bool) {
        let path = &self.path;
        let mtime = match std::fs::metadata(path).and_then(|m| m.modified()) {
            Ok(t) => t,
            Err(_) => return, // absent file: nothing to apply yet
        };
        let changed = force || self.last_mtime != Some(mtime);
        self.last_mtime = Some(mtime);
        let read = match (&self.owed, changed) {
            (None, false) => return,
            (Some(next), false) => Ok(next.clone()),
            (_, true) => read_config(path).and_then(|text| ServeConfig::parse(&text)),
        };
        let why = match read {
            Ok(next) if next == self.applied => {
                self.owed = None;
                return; // touch without change
            }
            Ok(next) => {
                if apply_config(&self.engine, &mut self.applied, &next) {
                    self.owed = None;
                    let seq = self.shared.reloads.fetch_add(1, Ordering::Relaxed) + 1;
                    self.ring.record(FlightKind::ConfigReload, 1, seq);
                    return;
                }
                if self.owed.replace(next).is_some() {
                    return; // said once per refused reload, not per retry
                }
                "the admin mailbox is full (retrying every tick)".to_string()
            }
            // What was owed of the last valid read stays owed.
            Err(e) => format!("{e} (keeping previous config)"),
        };
        self.shared.errors.fetch_add(1, Ordering::Relaxed);
        let seq = self.shared.reloads.load(Ordering::Relaxed);
        self.ring.record(FlightKind::ConfigReload, 0, seq);
        eprintln!("repro: serve-config {path} rejected: {why}");
    }
}

/// A one-shot segment deadline: requests a graceful drain `ms` after
/// creation unless the guard is dropped first (segment finished on its
/// own).
struct SegmentTimer {
    fired: Arc<AtomicBool>,
    _poll: PollGuard,
}

impl SegmentTimer {
    fn arm(engine: &Arc<Engine>, ms: u64) -> SegmentTimer {
        let fired = Arc::new(AtomicBool::new(false));
        let thread_fired = Arc::clone(&fired);
        let engine = Arc::clone(engine);
        let deadline = Instant::now() + Duration::from_millis(ms);
        let poll = PollGuard::spawn("sw-segment", Duration::from_millis(5), move || {
            let early = Instant::now() < deadline;
            if !early {
                thread_fired.store(true, Ordering::Release);
                engine.request_drain();
            }
            early
        });
        SegmentTimer { fired, _poll: poll }
    }

    /// True when the deadline elapsed and this timer requested the
    /// drain (as opposed to an operator or signal).
    fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// One segment of the service timeline (the `BENCH_serve.json` rows).
#[derive(Clone, Debug, Serialize)]
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
    /// end-of-trace (deadline, admin request or signal).
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
    /// Cumulative `runtime.frame_pool.allocated` at segment end.
    pub frame_pool_allocated: u64,
    /// ControlLog entries still buffered at segment end (bounded-log
    /// health: must not ratchet upward across segments).
    pub log_buffered: u64,
    /// Cumulative admin commands applied by the controller.
    pub admin_applied: u64,
    /// Config reloads published by segment end.
    pub config_seq: u64,
}

/// The whole service run, for rendering and machine-readable output.
pub struct ServeOutcome {
    /// Per-segment timeline, in order.
    pub segments: Vec<SegmentRecord>,
    /// The lane mesh's structural buffer count
    /// ([`EngineConfig::lane_buffers`]).
    pub pool_bound: u64,
    /// Successful config hot-reloads.
    pub config_reloads: u64,
    /// Rejected config reload attempts.
    pub config_errors: u64,
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

    /// Frame-pool allocations after the warm-up segment.
    pub fn frame_pool_growth(&self) -> u64 {
        growth(self.segments.iter().map(|s| s.frame_pool_allocated))
    }

    /// Lane-buffer allocations during the *final* segment: exactly 0
    /// once every lane has been round its ring, which a lane does
    /// within its first `queue_batches + 2` batches.
    pub fn steady_pool_growth(&self) -> u64 {
        last_delta(self.segments.iter().map(|s| s.pool_allocated))
    }

    /// Frame-pool allocations during the final segment.
    pub fn steady_frame_pool_growth(&self) -> u64 {
        last_delta(self.segments.iter().map(|s| s.frame_pool_allocated))
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
        let frames = self.steady_frame_pool_growth();
        if frames > 0 {
            out.push(format!(
                "frame pools allocated {frames} time(s) in the final segment (garage not reused)"
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
/// flight dumps and soak gating.
pub fn serve_run_full(ctx: &ExpCtx, spec: &ServeSpec) -> (Table, ServeOutcome, Arc<Engine>) {
    assert!(spec.segments > 0, "service mode needs at least one segment");
    let replay = spec.shape.replay(ctx.scale);
    let control = serve_control_config(spec);
    // SIGINT/SIGTERM mid-segment: the shape's signal watch drains the
    // running segment; the loop-top check below then stops the service.
    let run = spec.shape.open(
        ctx,
        |mut cfg| {
            cfg.carry_flow_state = spec.carry_flow_state;
            cfg.with_control(control)
        },
        crate::serve::serve_admin,
    );
    let engine = &run.engine;
    let watcher = spec.config_path.clone().map(|path| {
        ConfigWatcher::start(path, Arc::clone(engine), engine.flight().ring("sw-serve"))
    });

    let pace = rate_pace(spec.rate_mpps);
    let registry = engine.registry().clone();
    let pool_allocated = registry.counter("runtime.pool.allocated", &[]);
    let frame_allocated = registry.counter("runtime.frame_pool.allocated", &[]);
    let rss = registry.gauge("runtime.mem.rss_bytes", &[]);

    let mut segments = Vec::with_capacity(spec.segments);
    engine.clear_drain();
    for segment in 0..spec.segments {
        if spec.shape.watch_signals && crate::signal::interrupted() {
            break;
        }
        // A drain latched between segments (POST /admin/drain racing
        // the boundary) stops the service rather than burning a segment
        // on an immediately-drained run.
        if engine.drain_requested() {
            break;
        }
        let timer = (spec.segment_ms > 0).then(|| SegmentTimer::arm(engine, spec.segment_ms));
        let report = replay.run(engine, pace);
        // A deadline drain only ends the segment: consume the latch and
        // keep serving. An operator/signal drain ends the service (the
        // latch stays set and the loop-top check breaks).
        let deadline_drain = timer.as_ref().is_some_and(SegmentTimer::fired);
        drop(timer);
        if deadline_drain {
            engine.clear_drain();
        }
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
            frame_pool_allocated: frame_allocated.get(),
            log_buffered: report.log_buffered,
            admin_applied: engine.admin_applied(),
            config_seq: watcher.as_ref().map(|w| w.reloads()).unwrap_or(0),
        });
    }
    engine.clear_drain();

    let outcome = ServeOutcome {
        segments,
        pool_bound: engine.config().lane_buffers() as u64,
        config_reloads: watcher.as_ref().map(|w| w.reloads()).unwrap_or(0),
        config_errors: watcher.as_ref().map(|w| w.errors()).unwrap_or(0),
    };
    drop(watcher);
    (render(spec, &outcome), outcome, run.close())
}

/// The `BENCH_serve.json` schema (field order = emission order).
#[derive(Debug, Serialize)]
struct ServeBenchJson {
    bench: String,
    shards: usize,
    datapath: String,
    segments: usize,
    segment_packets: usize,
    rate_mpps: Option<f64>,
    carry_flow_state: bool,
    conserved: bool,
    pool_bound: u64,
    pool_growth: u64,
    frame_pool_growth: u64,
    steady_pool_growth: u64,
    steady_frame_pool_growth: u64,
    rss_first_bytes: u64,
    rss_last_bytes: u64,
    rss_growth_bytes: i64,
    flowstate_bytes: u64,
    flowstate_growth_bytes: u64,
    config_reloads: u64,
    config_errors: u64,
    timeline: Vec<SegmentRecord>,
}

/// The soak/service CI artifact (`BENCH_serve.json`): headline
/// endurance verdicts plus the full per-segment timeline.
pub fn serve_bench_json(spec: &ServeSpec, out: &ServeOutcome) -> String {
    let v = ServeBenchJson {
        bench: "serve".to_string(),
        shards: spec.shape.shards,
        datapath: datapath_label(spec.shape.datapath).to_string(),
        segments: out.segments.len(),
        segment_packets: spec.shape.packets,
        rate_mpps: spec.rate_mpps,
        carry_flow_state: spec.carry_flow_state,
        conserved: out.all_conserved(),
        pool_bound: out.pool_bound,
        pool_growth: out.pool_growth(),
        frame_pool_growth: out.frame_pool_growth(),
        steady_pool_growth: out.steady_pool_growth(),
        steady_frame_pool_growth: out.steady_frame_pool_growth(),
        rss_first_bytes: out.segments.first().map(|s| s.rss_bytes).unwrap_or(0),
        rss_last_bytes: out.segments.last().map(|s| s.rss_bytes).unwrap_or(0),
        rss_growth_bytes: out.rss_growth_bytes(),
        flowstate_bytes: out.segments.last().map(|s| s.flowstate_bytes).unwrap_or(0),
        flowstate_growth_bytes: out.flowstate_growth_bytes(),
        config_reloads: out.config_reloads,
        config_errors: out.config_errors,
        timeline: out.segments.clone(),
    };
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
            "cfg",
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
            s.config_seq.to_string(),
        ]);
    }
    t.note(format!(
        "segments: {} requested, {} run; {} datapath; carry_flow_state={}",
        spec.segments,
        out.segments.len(),
        datapath_label(spec.shape.datapath),
        spec.carry_flow_state,
    ));
    t.note(format!(
        "endurance: pool growth {} total / {} in the final segment \
         (frame pools {} / {}), RSS {:+} bytes first→last segment, \
         parked flow state {:.1} MiB ({:+} bytes after segment 2)",
        out.pool_growth(),
        out.steady_pool_growth(),
        out.frame_pool_growth(),
        out.steady_frame_pool_growth(),
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
    if out.config_reloads + out.config_errors > 0 {
        t.note(format!(
            "config hot-reloads: {} applied, {} rejected",
            out.config_reloads, out.config_errors
        ));
    }
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
            ..ServeSpec::default()
        }
    }

    #[test]
    fn multi_segment_service_conserves_with_flat_pools() {
        let ctx = ExpCtx::new(1);
        let (t, out, _) = serve_run_full(&ctx, &quick_spec());
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
        let (_, out, _) = serve_run_full(&ctx, &spec);
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
                "carry_flow_state",
                "conserved",
                "pool_bound",
                "pool_growth",
                "frame_pool_growth",
                "steady_pool_growth",
                "steady_frame_pool_growth",
                "rss_first_bytes",
                "rss_last_bytes",
                "rss_growth_bytes",
                "flowstate_bytes",
                "flowstate_growth_bytes",
                "config_reloads",
                "config_errors",
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
                    frame_pool_allocated: 0,
                    log_buffered: 0,
                    admin_applied: 0,
                    config_seq: 0,
                })
                .collect(),
            pool_bound: 0,
            config_reloads: 0,
            config_errors: 0,
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

    #[test]
    fn admin_edit_and_config_reload_are_visible_in_the_service_run() {
        let ctx = ExpCtx::new(1);
        let dir = std::env::temp_dir();
        let path = dir.join("sw_serve_config_test.json");
        std::fs::write(&path, r#"{"blacklist": [12345], "force_shed": false}"#).unwrap();
        let spec = ServeSpec {
            shape: RunShape {
                packets: 60_000,
                listen: Some("127.0.0.1:0".to_string()),
                ..RunShape::default()
            },
            rate_mpps: Some(0.5),
            segments: 2,
            config_path: Some(path.to_string_lossy().into_owned()),
            ..ServeSpec::default()
        };
        let (_, out, engine) = serve_run_full(&ctx, &spec);
        std::fs::remove_file(&path).ok();
        assert!(out.all_conserved());
        assert_eq!(out.config_reloads, 1, "startup config counts as a reload");
        assert_eq!(out.config_errors, 0);
        // The blacklist edit and shed pin were applied by the
        // controller (admin_applied counts them) and the reload is in
        // the flight recorder.
        assert!(engine.admin_applied() >= 2);
        let flight = engine.flight().to_json();
        assert!(flight.contains("config_reload"));
        assert!(flight.contains("admin_edit"));
        // And the service state shows up in stats_json.
        let stats: serde_json::Value =
            serde_json::from_str(&engine.stats_json()).expect("valid stats");
        let service = stats.get("service").expect("service section");
        assert!(
            service
                .get("admin_applied")
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
                >= 2
        );
    }

    #[test]
    fn bad_config_is_rejected_and_the_run_survives() {
        let ctx = ExpCtx::new(1);
        let dir = std::env::temp_dir();
        let path = dir.join("sw_serve_bad_config_test.json");
        std::fs::write(&path, r#"{"rate_mpps": "fast"}"#).unwrap();
        let spec = ServeSpec {
            shape: RunShape {
                packets: 20_000,
                ..RunShape::default()
            },
            rate_mpps: None,
            segments: 1,
            config_path: Some(path.to_string_lossy().into_owned()),
            ..ServeSpec::default()
        };
        let (_, out, engine) = serve_run_full(&ctx, &spec);
        std::fs::remove_file(&path).ok();
        assert!(out.all_conserved());
        assert_eq!(out.config_reloads, 0);
        assert_eq!(out.config_errors, 1);
        assert!(engine.rate_override().is_none());
    }

    /// A watched file that is half-written, oversized, wrong-typed, not
    /// UTF-8 or absurdly nested is counted and refused: the config
    /// applied before it stays the applied one, and the pin it set in
    /// the resident controller still decides the next segment.
    #[test]
    fn a_bad_config_file_leaves_the_previous_config_and_pins_in_force() {
        use smartwatch_runtime::Pace;
        use smartwatch_trace::background::Preset;
        let spec = ServeSpec::default();
        let cfg = spec.shape.engine_config();
        let engine = Arc::new(Engine::new(cfg.with_control(serve_control_config(&spec))));
        let file = std::env::temp_dir().join("sw_serve_hostile_config_test.json");
        let shared = Arc::new(ConfigShared::default());
        let mut poller = ConfigPoller {
            path: file.to_string_lossy().into_owned(),
            engine: Arc::clone(&engine),
            ring: engine.flight().ring("sw-serve"),
            shared: Arc::clone(&shared),
            applied: ServeConfig::default(),
            last_mtime: None,
            owed: None,
        };
        let packets = crate::workloads::caida_64b(Preset::Caida2018, 1, 0xC7).into_packets();
        let packets: Vec<_> = packets.iter().cycle().take(20_000).copied().collect();
        let shed_pinned = |label: &str| {
            let report = engine.run(&packets, Pace::RateMpps(0.5));
            let ctrl = report.control.as_ref().expect("controller ran");
            assert!(report.conserved(), "{label}");
            let last = ctrl.decisions.last().expect("an epoch ran");
            assert!(last.shed && ctrl.shed_active, "{label}: the pin decides");
            (report.shed(), report.offered)
        };

        std::fs::write(&file, r#"{"force_shed": true, "rate_mpps": 0.4}"#).unwrap();
        poller.poll(true);
        let good = poller.applied.clone();
        assert_eq!(good.force_shed, Some(true));
        shed_pinned("good config");

        let oversized = format!(r#"{{"blacklist": [{}1]}}"#, "1, ".repeat(400_000));
        let deep = format!(r#"{{"blacklist": {}"#, "[".repeat(10_000));
        let hostile: [(&str, &[u8]); 6] = [
            ("half-written", br#"{"force_shed": false, "rate_m"#),
            ("oversized", oversized.as_bytes()),
            ("wrong-typed pin", br#"{"force_shed": "no"}"#),
            ("wrong-typed list", br#"{"blacklist": {"7": true}}"#),
            ("not UTF-8", b"{\"force_shed\": \xff\xfe}"),
            ("10 000 deep", deep.as_bytes()),
        ];
        for (i, (name, bytes)) in hostile.iter().enumerate() {
            std::fs::write(&file, bytes).unwrap();
            poller.poll(true);
            assert_eq!(
                shared.errors.load(Ordering::Relaxed),
                i as u64 + 1,
                "{name}"
            );
            assert_eq!(poller.applied, good, "{name}: previous config kept");
            assert_eq!(engine.admin_queued(), 0, "{name}: nothing queued");
            assert!(engine.rate_override().is_some(), "{name}: pace kept");
        }
        std::fs::remove_file(&file).ok();
        assert_eq!(shared.reloads.load(Ordering::Relaxed), 1);

        // The next segment opens under the pin the good config set.
        let (shed, offered) = shed_pinned("after six bad files");
        assert_eq!(shed, offered);
    }

    /// A reload that meets a full admin mailbox is an error, marks
    /// nothing applied that did not land, and is retried on the next
    /// tick — not on the next edit of the file — until the whole diff
    /// is in, once.
    #[test]
    fn a_reload_the_mailbox_refused_is_retried_every_tick_until_it_lands() {
        use smartwatch_runtime::Pace;
        use smartwatch_trace::background::Preset;
        let spec = ServeSpec::default();
        let cfg = spec.shape.engine_config();
        let engine = Arc::new(Engine::new(cfg.with_control(serve_control_config(&spec))));
        let file = std::env::temp_dir().join("sw_serve_full_mailbox_test.json");
        let shared = Arc::new(ConfigShared::default());
        let mut poller = ConfigPoller {
            path: file.to_string_lossy().into_owned(),
            engine: Arc::clone(&engine),
            ring: engine.flight().ring("sw-serve"),
            shared: Arc::clone(&shared),
            applied: ServeConfig::default(),
            last_mtime: None,
            owed: None,
        };
        let counts = |shared: &ConfigShared| {
            (
                shared.reloads.load(Ordering::Relaxed),
                shared.errors.load(Ordering::Relaxed),
            )
        };

        // An idle engine drains nothing: fill the mailbox to the brim.
        let mut filler = 0;
        while engine.admin(AdminCmd::WhitelistAdd(1_000_000 + filler)) {
            filler += 1;
        }
        let brim = engine.admin_queued();
        std::fs::write(
            &file,
            r#"{"force_shed": true, "blacklist": [7, 8], "rate_mpps": 0.4}"#,
        )
        .unwrap();
        poller.poll(true);
        assert_eq!(counts(&shared), (0, 1), "refused: an error, not a reload");
        assert_eq!(poller.applied, ServeConfig::default(), "nothing landed");
        assert!(
            engine.rate_override().is_none(),
            "the pace waits for the diff"
        );
        assert_eq!(engine.admin_queued(), brim);
        // Still full: the retries are silent.
        poller.poll(false);
        poller.poll(false);
        assert_eq!(counts(&shared), (0, 1));
        // The file goes bad while the diff is owed: refused and counted,
        // and the last valid read is still what the retries apply.
        std::fs::write(&file, r#"{"force_shed": tr"#).unwrap();
        poller.poll(true);
        assert_eq!(counts(&shared), (0, 2));
        assert_eq!(poller.applied, ServeConfig::default());

        // A segment under the controller drains the mailbox.
        let packets = crate::workloads::caida_64b(Preset::Caida2018, 1, 0xC7).into_packets();
        let packets: Vec<_> = packets.iter().cycle().take(20_000).copied().collect();
        assert!(engine.run(&packets, Pace::RateMpps(0.5)).conserved());
        assert_eq!(engine.admin_queued(), 0);

        // Same file, same mtime: the next tick applies the whole diff.
        poller.poll(false);
        assert_eq!(counts(&shared), (1, 2));
        assert_eq!(engine.admin_queued(), 3, "two digests and the shed pin");
        assert!(engine.rate_override().is_some());
        let want = ServeConfig {
            rate_mpps: Some(0.4),
            force_shed: Some(true),
            blacklist: vec![7, 8],
            whitelist: vec![],
        };
        assert_eq!(poller.applied, want);
        // … once.
        poller.poll(false);
        assert_eq!((counts(&shared), engine.admin_queued()), ((1, 2), 3));

        // A mailbox with room for part of a diff: what landed is
        // recorded, and only the rest is owed.
        while engine.admin(AdminCmd::WhitelistAdd(2_000_000 + filler)) {
            filler += 1;
        }
        assert!(engine.run(&packets, Pace::RateMpps(0.5)).conserved());
        while engine.admin_queued() < brim - 1 {
            assert!(engine.admin(AdminCmd::WhitelistAdd(3_000_000 + filler)));
            filler += 1;
        }
        let next = ServeConfig {
            blacklist: vec![7, 8, 9, 10],
            ..want.clone()
        };
        let mut applied = want.clone();
        assert!(!apply_config(&engine, &mut applied, &next));
        assert_eq!(applied.blacklist, [7, 8, 9], "one command fitted");
        assert_eq!(applied.diff(&next), [AdminCmd::BlacklistAdd(10)]);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn segment_deadline_drains_gracefully_and_still_conserves() {
        let ctx = ExpCtx::new(1);
        let spec = ServeSpec {
            shape: RunShape {
                packets: 4_000_000, // far more than 50 ms of paced replay
                ..RunShape::default()
            },
            rate_mpps: Some(0.5),
            segments: 2,
            segment_ms: 50,
            ..ServeSpec::default()
        };
        let (_, out, _) = serve_run_full(&ctx, &spec);
        assert_eq!(out.segments.len(), 2);
        for s in &out.segments {
            assert!(s.interrupted, "deadline must drain the segment");
            assert!(s.conserved, "drained segment must still conserve");
            assert!(s.offered < 4_000_000);
        }
    }

    #[test]
    fn config_parses_validates_and_diffs() {
        let cfg = ServeConfig::parse(
            r#"{"rate_mpps": 1.5, "force_shed": true, "blacklist": [1, 2], "whitelist": [9]}"#,
        )
        .unwrap();
        assert_eq!(cfg.rate_mpps, Some(1.5));
        assert_eq!(cfg.force_shed, Some(true));
        assert_eq!(cfg.blacklist, vec![1, 2]);
        assert!(ServeConfig::parse(r#"{"rate_mpps": -1}"#).is_err());
        assert!(ServeConfig::parse(r#"{"surprise": 1}"#).is_err());
        assert!(ServeConfig::parse("[]").is_err());

        let next = ServeConfig::parse(r#"{"blacklist": [2, 3], "force_shed": null}"#).unwrap();
        let cmds = cfg.diff(&next);
        assert!(cmds.contains(&AdminCmd::BlacklistAdd(3)));
        assert!(cmds.contains(&AdminCmd::BlacklistRemove(1)));
        assert!(cmds.contains(&AdminCmd::WhitelistRemove(9)));
        assert!(cmds.contains(&AdminCmd::ForceShed(None)));
        assert_eq!(cmds.len(), 4);
        // No-op diff queues nothing.
        assert!(cfg.diff(&cfg.clone()).is_empty());
    }
}
