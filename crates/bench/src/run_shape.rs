//! One run shape: the engine-facing part of a `repro
//! engine|control|serve|soak` command line, held once.
//!
//! Every wall-clock driver replays *some packets* through *some engine*
//! while *something watches*. [`RunShape`] is those three things and
//! the only place they turn into runtime objects: [`RunShape::validate`]
//! rejects contradictory topologies, [`RunShape::engine_config`] is the
//! one flags → [`EngineConfig`] mapping, [`RunShape::replay`] builds the
//! input and [`RunShape::open`] builds the engine with its tracer,
//! signal watch and `--listen` socket. A driver's spec is `{ shape,
//! <what that driver alone reads> }`, so a flag either reaches every
//! driver's engine or is refused by `repro`'s flag table — no driver
//! holds a private copy that can forget a field.

use crate::{workloads, ExpCtx};
use smartwatch_net::{FrameStore, Packet};
use smartwatch_runtime::{DatapathMode, Engine, EngineConfig, EngineReport, FrameSource, Pace};
use smartwatch_telemetry::http::HttpServer;
use smartwatch_trace::background::Preset;
use smartwatch_trace::compile::compile_cycled;
use smartwatch_trace::Trace;
use std::sync::Arc;

/// Which replay workload the run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineWorkload {
    /// 64-byte-truncated CAIDA stand-in — the paper's packet-rate worst
    /// case (max packets per byte of bandwidth).
    Stress,
    /// The Table-4 attack mix — exercises escalation and verdicts.
    Mix,
}

/// Where the replay bytes come from (`--source`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum EngineSource {
    /// Generator output replayed as owned model packets — the pre-wire
    /// path, and the default.
    #[default]
    Synthetic,
    /// The workload compiled once into packed wire frames
    /// ([`smartwatch_trace::compile`]) and replayed through the
    /// engine's zero-copy path.
    Compiled,
    /// A classic pcap file replayed through the zero-copy path (cycled
    /// to the requested packet count).
    Pcap(String),
}

impl EngineSource {
    /// Parse a `--source` argument: `synthetic`, `compiled` or
    /// `pcap:<path>`.
    pub fn parse(s: &str) -> Result<EngineSource, String> {
        match s {
            "synthetic" => Ok(EngineSource::Synthetic),
            "compiled" => Ok(EngineSource::Compiled),
            _ => match s.strip_prefix("pcap:") {
                Some(path) if !path.is_empty() => Ok(EngineSource::Pcap(path.to_string())),
                _ => Err(format!(
                    "unknown --source '{s}' (expected synthetic, compiled or pcap:<path>)"
                )),
            },
        }
    }

    /// Stable one-word label for tables and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            EngineSource::Synthetic => "synthetic",
            EngineSource::Compiled => "compiled",
            EngineSource::Pcap(_) => "pcap",
        }
    }
}

/// A materialised replay input: owned packets (synthetic) or a packed
/// wire-frame store (compiled / pcap).
pub enum ReplayData {
    /// Owned model packets.
    Packets(Vec<Packet>),
    /// Packed wire frames for the zero-copy path.
    Wire(FrameStore),
}

impl ReplayData {
    /// This input as the engine takes it.
    pub fn source(&self) -> FrameSource<'_> {
        match self {
            ReplayData::Packets(p) => FrameSource::Packets(p),
            ReplayData::Wire(s) => FrameSource::Wire(s),
        }
    }

    /// Run `engine` over this replay input.
    pub fn run(&self, engine: &Engine, pace: Pace) -> EngineReport {
        engine.run_source(self.source(), pace)
    }
}

/// Stable one-word datapath label for tables and JSON artifacts.
pub fn datapath_label(d: DatapathMode) -> &'static str {
    match d {
        DatapathMode::Pipeline => "pipeline",
        DatapathMode::Rtc => "rtc",
    }
}

/// The pace of a `--rate` / flat-out driver: open loop at the given
/// Mpps, or flat-out with backpressure when none was given.
pub fn rate_pace(rate_mpps: Option<f64>) -> Pace {
    rate_mpps.map_or(Pace::Flatout, Pace::RateMpps)
}

/// What a driver mounts on `--listen`: [`crate::serve::serve`] (the
/// read-only observability routes) or [`crate::serve::serve_admin`]
/// (those plus `POST /admin/*` — service mode).
pub type Listener = fn(&str, &Arc<Engine>) -> std::io::Result<HttpServer>;

/// The engine-facing part of one `repro engine|control|serve|soak`
/// command line: what engine to build, what to replay through it, and
/// how the run is watched.
#[derive(Clone, Debug)]
pub struct RunShape {
    /// Worker shards (threads).
    pub shards: usize,
    /// Thread topology: one dispatcher feeding the shards over lanes
    /// (`pipeline`, the default) or fused run-to-completion cores (`rtc`).
    pub datapath: DatapathMode,
    /// Packets per dispatch batch.
    pub batch: usize,
    /// Host escalation workers (0 = inline deterministic triage).
    pub host_workers: usize,
    /// Wall-clock tracing: with the context's tracer attached, every
    /// engine thread's clock samples 1 unit of work in N and its
    /// readings become spans (0 = no spans; see
    /// [`EngineConfig::trace_sample`]).
    pub trace_sample: u64,
    /// Packets to replay — per run, per segment in service mode (the
    /// workload is cycled to this length).
    pub packets: usize,
    /// Replay workload.
    pub workload: EngineWorkload,
    /// Replay source: synthetic packets, compiled wire frames or a
    /// pcap file (`--source`).
    pub source: EngineSource,
    /// Bind this address and serve the driver's [`Listener`] routes live
    /// for the duration of the run.
    pub listen: Option<String>,
    /// Keep the `--listen` endpoints up this long after the run ends,
    /// so scrapers can read the settled final counters.
    pub serve_hold_ms: u64,
    /// Translate a SIGINT/SIGTERM observed by [`crate::signal`] into a
    /// graceful drain of the run (the `repro` drivers set this; tests
    /// leave it off so parallel signal tests cannot interfere). The
    /// drained report still conserves and is rendered normally.
    pub watch_signals: bool,
}

impl Default for RunShape {
    fn default() -> RunShape {
        RunShape {
            shards: 2,
            datapath: DatapathMode::Pipeline,
            batch: 64,
            host_workers: 1,
            trace_sample: 0,
            packets: 200_000,
            workload: EngineWorkload::Stress,
            source: EngineSource::Synthetic,
            listen: None,
            serve_hold_ms: 0,
            watch_signals: false,
        }
    }
}

impl RunShape {
    /// The one flags → [`EngineConfig`] mapping. The destructuring is
    /// exhaustive on purpose: a field added to the shape does not
    /// compile until it is placed here, as an engine knob or as not one.
    pub fn engine_config(&self) -> EngineConfig {
        let RunShape {
            shards,
            datapath,
            batch,
            host_workers,
            trace_sample,
            // What is replayed and how the run is watched — not engine
            // knobs ([`RunShape::replay`], [`RunShape::open`]).
            packets: _,
            workload: _,
            source: _,
            listen: _,
            serve_hold_ms: _,
            watch_signals: _,
        } = self;
        let mut cfg = EngineConfig::new(*shards);
        cfg.datapath = *datapath;
        cfg.batch = *batch;
        cfg.host_workers = *host_workers;
        cfg.trace_sample = *trace_sample;
        cfg
    }

    /// The workload's base generator trace (before cycling).
    pub fn base_trace(&self, scale: usize) -> Trace {
        match self.workload {
            EngineWorkload::Stress => workloads::caida_64b(Preset::Caida2018, scale, 0xE1),
            EngineWorkload::Mix => workloads::attack_mix(scale, 0xE2),
        }
    }

    /// Materialise the replay input, exactly `packets` long:
    /// generate-and-cycle for the synthetic path, compile-once for the
    /// wire path, read-validate-cycle for pcap files. A capture that
    /// cannot be read, does not parse or holds no frame is refused with
    /// the message `repro` prints before exiting 2.
    pub fn replay(&self, scale: usize) -> Result<ReplayData, String> {
        Ok(match &self.source {
            EngineSource::Synthetic => {
                let base = self.base_trace(scale).into_packets();
                assert!(!base.is_empty(), "workload generator produced no packets");
                ReplayData::Packets(base.iter().cycle().take(self.packets).copied().collect())
            }
            EngineSource::Compiled => {
                ReplayData::Wire(compile_cycled(&self.base_trace(scale), self.packets))
            }
            EngineSource::Pcap(path) => {
                let data = std::fs::read(path)
                    .map_err(|e| format!("--source pcap: cannot read {path}: {e}"))?;
                let store = FrameStore::from_pcap(&data)
                    .map_err(|e| format!("--source pcap: cannot parse {path}: {e}"))?;
                if store.is_empty() {
                    return Err(format!("--source pcap: {path} holds no frames"));
                }
                ReplayData::Wire(store.cycled_to(self.packets))
            }
        })
    }

    /// Build this shape's engine on the context's shared registry and
    /// tracer and start what watches it: the signal → drain translation
    /// and the `--listen` socket behind the driver's `listener`. `adds` is
    /// where a driver puts what it alone knows on top of
    /// [`RunShape::engine_config`] (a controller).
    /// A `--listen` address that does not parse or bind is refused with
    /// the message `repro` prints before exiting 2.
    pub fn open(
        &self,
        ctx: &ExpCtx,
        adds: impl FnOnce(EngineConfig) -> EngineConfig,
        listener: Listener,
    ) -> Result<OpenRun, String> {
        let mut engine = Engine::with_registry(adds(self.engine_config()), &ctx.registry);
        engine.attach_tracer(&ctx.tracer);
        let engine = Arc::new(engine);
        let signals = self
            .watch_signals
            .then(|| crate::signal::drain_watch(&engine));
        let server = self
            .listen
            .as_deref()
            .map(|addr| listener(addr, &engine).map_err(|e| format!("--listen {addr}: {e}")))
            .transpose()?;
        Ok(OpenRun {
            engine,
            _signals: signals,
            server,
            hold_ms: self.serve_hold_ms,
        })
    }
}

/// An engine with its watchers up ([`RunShape::open`]). Dropping it
/// stops them; [`OpenRun::close`] does so in order.
pub struct OpenRun {
    /// The engine, shared with the watchers.
    pub engine: Arc<Engine>,
    _signals: Option<crate::signal::DrainWatch>,
    server: Option<HttpServer>,
    hold_ms: u64,
}

impl OpenRun {
    /// The run is over: hold the `--listen` endpoints for
    /// `--serve-hold-ms` so scrapers can read the settled counters,
    /// shut them down, stop the signal watch and hand the engine back
    /// (flight dumps, decision audit).
    pub fn close(self) -> Arc<Engine> {
        if let Some(server) = self.server {
            if self.hold_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.hold_ms));
            }
            server.shutdown();
        }
        self.engine
    }
}
