//! The [`Engine`] and its one segment lifecycle: every `run*` call
//! opens a segment (verdict log, host pool, counters and their
//! baselines, un-parked lanes, flow state and control
//! plane, shard workers), runs the topology-specific middle — one
//! dispatcher thread feeding N shard threads over one lane each, or N
//! fused cores — and closes it (host-pool shutdown, controller stop, re-park, report,
//! flight-recorder close-out).

use super::config::{DatapathMode, EngineConfig, FrameSource, Pace};
use super::ingest::{
    split_streams, Ingest, IngestEnd, LaneBooks, LaneSink, LaneTx, Pacer, ShardSink, Sink,
};
use super::report::{
    books_value, stage_value, total, uint, unaccounted, EngineReport, FlowCacheSummary,
};
use crate::books::{Axis, Count, Ledger};
use crate::control::{ControlLog, LogReader};
use crate::escalate::{HostPool, TriageNf};
use crate::obs::{Clock, Clocks, Stage, StageHists};
use crate::service::AdminQueue;
use crate::shard::{
    ControlHooks, Escalation, FlowState, LaneRx, ShardCounters, ShardEndState, ShardObs,
    ShardSetup, ShardStats, ShardWorker,
};
use serde::{Number, Serialize, Value};
use smartwatch_control::controller::{COUNTERS, GAUGES, SHARD_GAUGES};
use smartwatch_control::{
    AdminCmd, ControlEvent, Controller, DecisionRecord, EpochInput, ModeCell, ShardSample,
    SnapshotCell, SnapshotReader, SteeringSnapshot,
};
use smartwatch_net::hash::shard_for_digest;
use smartwatch_net::{FlowHasher, HashDigest, Packet};
use smartwatch_snic::Mode;
use smartwatch_telemetry::{
    mem, Counter, FlightKind, FlightRecorder, FlightRing, Gauge, Publisher, Registry, Tracer,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine-lifetime resources parked between `run*` calls so a
/// long-running service allocates nothing per segment. Nothing here
/// exists before the first segment that needs it builds it, and the
/// topology is fixed per engine, so whatever is parked always fits.
/// Each resource is addressed by the index of the thread that uses it,
/// so every thread gets its *own* back by construction: the dispatcher
/// the producer ends of the lanes, with the buffers they hold; shard
/// `i` its lane and its flow state, made fresh by [`FlowState::reset`]
/// (tables sized for shard `i`'s share of the traffic). The controller thread's [`ControlResident`] is not
/// parked here: live readers see its audit between segments and during
/// them alike.
#[derive(Default)]
struct Garage {
    /// The dispatcher's end of every lane: `tx[i]` feeds shard `i`.
    /// Empty until the first pipeline segment.
    tx: Vec<LaneTx>,
    /// The same lanes by consumer: `rx[i]` is shard `i`'s end.
    rx: Vec<LaneRx>,
    /// `flows[i]`: shard `i`'s flow state.
    flows: Vec<Option<FlowState>>,
}

/// The control plane of the engine's life: the one [`Controller`] —
/// epoch counter, per-shard EWMA and counter baselines, the
/// operator's pins and the decision audit, all of which describe the
/// engine rather than one segment's traffic — the cells it publishes
/// through, which keep saying what the shards and ingest units were
/// last told, and the publishers of its books, whose cells stay
/// cumulative across segments. What the controller learned from a
/// segment's flows is emptied when the next one opens
/// ([`Controller::new_segment`]), as [`FlowState::reset`] does on the
/// shard side.
struct ControlResident {
    ctrl: Controller,
    /// `modes[i]`: the mode shard `i` runs.
    modes: Vec<Arc<ModeCell>>,
    steer: Arc<SnapshotCell<SteeringSnapshot>>,
    /// `control.*`, published once per epoch.
    books: Publisher<Controller>,
    /// `shard_books[i]`: `control.{smoothed_mpps,mode}{shard=i}`.
    shard_books: Vec<Publisher<(f64, Mode)>>,
}

/// The sharded wall-clock engine.
pub struct Engine {
    cfg: EngineConfig,
    registry: Registry,
    /// Chrome-trace sink for sampled wall-clock spans; set by
    /// [`Engine::attach_tracer`], inert without one.
    tracer: Option<Tracer>,
    /// Always-on black box: bounded per-thread event rings.
    flight: FlightRecorder,
    /// The control plane, once a segment has run with one. The
    /// controller thread takes this lock once per epoch, and live
    /// readers (`/stats.json`) read the audit under it.
    control: Arc<Mutex<Option<ControlResident>>>,
    /// Graceful-drain request: ingest units observe it at checkpoints,
    /// stop offering and quiesce the shards (see [`Engine::request_drain`]).
    drain: Arc<AtomicBool>,
    /// Admin command mailbox, drained by the controller each epoch.
    admin: Arc<AdminQueue>,
    /// Admin commands the controller has applied (lifetime of the
    /// engine, across runs).
    admin_applied: Counter,
    /// Resident-set gauge (`runtime.mem.rss_bytes`), sampled per epoch
    /// by the controller thread and at run boundaries.
    mem_rss: Gauge,
    /// Segments opened so far: where the next segment's clocks start
    /// their counters (see [`Clocks::new`]).
    segments: AtomicU64,
    /// Parked run-scoped resources (see [`Garage`]).
    garage: Mutex<Garage>,
}

impl Engine {
    /// Engine with a private metric registry.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_registry(cfg, &Registry::new())
    }

    /// Engine publishing into an existing registry (`runtime.*` metrics).
    pub fn with_registry(cfg: EngineConfig, registry: &Registry) -> Engine {
        assert!(cfg.shards >= 1, "engine needs at least one shard");
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        assert!(cfg.queue_batches >= 1, "queue must hold at least 1 batch");
        Engine {
            cfg,
            registry: registry.clone(),
            tracer: None,
            flight: FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
            control: Arc::default(),
            drain: Arc::new(AtomicBool::new(false)),
            admin: Arc::new(AdminQueue::new(1024)),
            admin_applied: registry.counter("runtime.admin.applied", &[]),
            mem_rss: registry.gauge("runtime.mem.rss_bytes", &[]),
            segments: AtomicU64::new(0),
            garage: Mutex::new(Garage::default()),
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Ask the current run to drain gracefully: ingest units observe the
    /// flag at their 256-packet checkpoints, stop offering, flush their
    /// staged batches and send the normal `Stop` markers, so the lanes
    /// quiesce exactly as at end-of-trace and the segment report stays
    /// conserved (`offered` reflects what was actually offered before
    /// the drain). The flag stays raised until [`Engine::clear_drain`] —
    /// a signal landing *between* segments still stops the next one.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested and not yet cleared.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// Re-arm after a drain; the serve driver calls this when its
    /// service starts and again when a drain has ended it.
    pub fn clear_drain(&self) {
        self.drain.store(false, Ordering::Release);
    }

    /// Queue an admin command for the controller to apply at the next
    /// epoch boundary (the engine must run with a control plane for
    /// commands to take effect). Returns `false` when the bounded
    /// mailbox is full — the caller should surface back-pressure to the
    /// operator rather than silently dropping the edit.
    pub fn admin(&self, cmd: AdminCmd) -> bool {
        self.admin.push(cmd)
    }

    /// Admin commands the controller has applied so far.
    pub fn admin_applied(&self) -> u64 {
        self.admin_applied.get()
    }

    /// The metric registry the engine publishes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Attach a chrome-trace sink. Spans are emitted only when
    /// [`EngineConfig::trace_sample`] is non-zero — which is then the
    /// period every thread's clock samples at; each engine thread opens
    /// its own track (`sw-rxq-0`, `sw-core-{i}`, `sw-shard-{i}`,
    /// `sw-host-{w}`, `sw-control`) named after the OS thread.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// The engine's flight recorder (drop/mode-switch black box).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The resident controller's per-epoch decision audit: the newest
    /// 512 epochs of the engine's life, whichever segments they fell in
    /// (empty without a control plane). Safe to call mid-run — this is
    /// what `/stats.json` serves.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        let home = self.control.lock().expect("control plane poisoned");
        home.as_ref()
            .map(|home| home.ctrl.decisions().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Heap bytes of per-flow state parked in the garage (FlowCaches
    /// and detector tables), summed over the shards'
    /// `runtime.flowstate.resident_bytes{shard=i}` gauges — as of the
    /// end of the last segment, `0` before the first.
    pub fn flowstate_resident_bytes(&self) -> u64 {
        self.flowstate_gauges("runtime.flowstate.resident_bytes")
            .sum::<f64>() as u64
    }

    /// One `runtime.flowstate.*{shard=i}` gauge, read for every shard.
    fn flowstate_gauges<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        (0..self.cfg.shards).map(move |i| {
            let shard = i.to_string();
            self.registry.gauge(name, &[("shard", &shard)]).get()
        })
    }

    /// The live `/stats.json` document: [`EngineReport`]-shaped counters
    /// read straight from the registry atomics, so it is safe to call
    /// from any thread at any time. Mid-run, values are at most one
    /// checkpoint (ingest units) or one batch (shards) stale; after
    /// `run()` returns, the conservation counters match the final
    /// report exactly.
    pub fn stats_json(&self) -> String {
        let cfg = &self.cfg;
        let reg = &self.registry;
        let shards: Vec<ShardStats> = (0..cfg.shards)
            .map(|i| ShardStats {
                counts: Ledger::registered(reg, Axis::Shard, i).snapshot(),
                ..ShardStats::default()
            })
            .collect();
        // One label set for the dispatcher in pipeline mode, one per
        // fused core in RTC mode.
        let queues: Vec<Ledger> = (0..cfg.ingest_units())
            .map(|q| Ledger::registered(reg, Axis::Queue, q).snapshot())
            .collect();
        let counter = |name: &str| uint(reg.counter(name, &[]).get());
        let mut doc = books_value(
            &shards,
            &queues,
            reg.counter("runtime.host.processed", &[]).get(),
        );
        doc.extend([
            ("stage".into(), stage_value(&StageHists::registered(reg))),
            ("decisions".into(), self.decisions().to_value()),
            (
                "flight".into(),
                Value::Object(vec![
                    ("recorded".into(), uint(self.flight.total_recorded())),
                    ("dropped".into(), uint(self.flight.total_dropped())),
                ]),
            ),
            (
                "mem".into(),
                Value::Object(vec![("rss_bytes".into(), uint(self.mem_rss.get() as u64))]),
            ),
            (
                "flowstate".into(),
                Value::Object(vec![
                    ("resets".into(), counter("runtime.flowstate.resets")),
                    (
                        "resident_bytes".into(),
                        uint(self.flowstate_resident_bytes()),
                    ),
                    // The detector tables as of the last segment: slots
                    // held over all shards, and the mean probe length of
                    // the shard that probed longest.
                    (
                        "table_slots".into(),
                        uint(
                            self.flowstate_gauges("runtime.flowstate.table_slots")
                                .sum::<f64>() as u64,
                        ),
                    ),
                    (
                        "table_probe_mean".into(),
                        Value::Number(Number::F(
                            self.flowstate_gauges("runtime.flowstate.table_probe_mean")
                                .fold(0.0, f64::max),
                        )),
                    ),
                ]),
            ),
            (
                "pool".into(),
                Value::Object(vec![
                    ("allocated".into(), counter("runtime.pool.allocated")),
                    ("recycled".into(), counter("runtime.pool.recycled")),
                ]),
            ),
            (
                "service".into(),
                Value::Object(vec![
                    ("draining".into(), Value::Bool(self.drain_requested())),
                    ("admin_queued".into(), uint(self.admin.len() as u64)),
                    ("admin_applied".into(), uint(self.admin_applied.get())),
                ]),
            ),
        ]);
        serde::json::write(&Value::Object(doc), false)
    }

    /// Replay `packets` through the full pipeline and block until every
    /// queue is drained and every thread joined.
    pub fn run(&self, packets: &[Packet], pace: Pace) -> EngineReport {
        self.run_source(FrameSource::Packets(packets), pace)
    }

    /// Replay any [`FrameSource`] and block until every queue is
    /// drained and every thread joined. [`Engine::run`] is a thin
    /// wrapper over this.
    ///
    /// [`FrameSource::Wire`] is the zero-copy wire path: each ingest
    /// unit receives 8-frame bursts, parses the Ethernet/IP/transport
    /// headers where the store holds them with
    /// [`FrameView`](smartwatch_net::FrameView) and digests straight
    /// from the header bytes ([`FlowHasher::flow_digest_batch8`]):
    /// nothing is copied and nothing allocated per frame. The resulting
    /// [`EngineReport::deterministic_summary`] is byte-identical to the
    /// synthetic run of the same packets.
    pub fn run_source(&self, source: FrameSource<'_>, pace: Pace) -> EngineReport {
        let cfg = &self.cfg;
        let n = cfg.shards;
        assert!(
            source.len() <= u32::MAX as usize,
            "sequence indices are u32 at split time"
        );

        // ── Open ────────────────────────────────────────────────────
        // What every worker shares, among it the one hasher of the hot
        // path: each ingest unit digests every packet of its sub-stream
        // exactly once with it; shards and their identically-seeded
        // FlowCaches reuse the digest instead of re-hashing.
        let setup = ShardSetup {
            log: Arc::new(ControlLog::new()),
            shards: n,
            host_processed: self.registry.counter("runtime.host.processed", &[]),
            enforce_verdicts: cfg.enforce_verdicts,
            hasher: FlowHasher::new(cfg.hash_seed),
            burst: cfg.cache_burst,
        };
        // Every thread's clock: the stage histograms, this segment's
        // sampling phase and — with a tracer attached and a non-zero
        // `trace_sample` — one trace axis for the whole segment and the
        // period every clock samples at.
        let clocks = Clocks::new(
            &self.registry,
            self.segments.fetch_add(1, Ordering::Relaxed),
            self.tracer.as_ref(),
            cfg.trace_sample,
        );
        // Host pool (None = inline triage on each shard).
        let pool = (cfg.host_workers > 0).then(|| {
            let threshold = cfg.triage_threshold;
            HostPool::spawn(
                cfg.host_workers,
                HostPool::QUEUE,
                Arc::clone(&setup.log),
                setup.host_processed.clone(),
                &clocks,
                move || Box::new(TriageNf::new(threshold)),
            )
        });

        // Per-shard counters exist before both the control plane (which
        // samples them) and the workers (which write them); per-unit
        // ingest books are `runtime.queue.*{queue=q}` in both datapaths.
        let counters: Vec<ShardCounters> = (0..n)
            .map(|i| ShardCounters::registered(&self.registry, i))
            .collect();
        let qcounters: Vec<Ledger<Counter>> = (0..cfg.ingest_units())
            .map(|q| Ledger::registered(&self.registry, Axis::Queue, q))
            .collect();

        // Registry counters are cumulative for the life of the registry
        // (that is what `/metrics` and `/stats.json` serve), but the
        // report this call returns is *per run*: capture the baseline
        // before any thread writes, subtract at report time. A single
        // fresh-engine run subtracts zeros — byte-identical behaviour —
        // while back-to-back serve segments each get their own books.
        let shard_base: Vec<Ledger> = counters.iter().map(|c| c.counts.snapshot()).collect();
        let queue_base: Vec<Ledger> = qcounters.iter().map(Ledger::snapshot).collect();
        let host_base = setup.host_processed.get();
        self.mem_rss.set(mem::rss_bytes() as f64);

        // Un-park whatever the previous run left in the garage — lanes
        // and every shard's flow state, reset in place — each built only
        // by the first segment that needs it.
        let mut garage = std::mem::take(&mut *self.garage.lock().expect("garage poisoned"));
        garage.flows.resize_with(n, || None);
        let flow_resets = self.registry.counter("runtime.flowstate.resets", &[]);

        let mut plane = self.spawn_control(&clocks, &setup, &counters);
        let mut worker = |i: usize, flight: FlightRing, clock: Clock| {
            let flow = match garage.flows[i].take() {
                Some(mut flow) => {
                    flow.reset();
                    flow_resets.inc();
                    flow
                }
                None => FlowState::new(cfg, &self.registry, i),
            };
            let escalation = match &pool {
                Some(p) => Escalation::Pool(p.sender()),
                None => Escalation::Inline,
            };
            let (counters, hooks) = (counters[i].clone(), plane.shard_hooks[i].take());
            let obs = ShardObs { flight, clock };
            ShardWorker::new(i, &setup, flow, escalation, counters, hooks, obs)
        };
        let pacer = Pacer::resolve(pace, source.len());
        let units = Units {
            source,
            pacer,
            hasher: setup.hasher,
            clocks: &clocks,
            queues: &qcounters,
            steer: std::mem::take(&mut plane.queue_steer),
        };

        // ── The topology ────────────────────────────────────────────
        let mut ends: Vec<ShardEndState> = Vec::with_capacity(n);
        let mut flows: Vec<Option<FlowState>> = Vec::with_capacity(n);
        let mut shard_done = |(end, flow): (ShardEndState, FlowState)| {
            ends.push(end);
            flows.push(Some(flow));
        };
        let (start, interrupted) = match cfg.datapath {
            DatapathMode::Pipeline => {
                // One single-producer ring per shard, built once; a
                // lane's buffers live in its ring and at its two ends, so
                // parking the lanes parks them.
                let books = LaneBooks::registered(&self.registry);
                if garage.tx.is_empty() {
                    (garage.tx, garage.rx) = (0..n)
                        .map(|_| books.lane(cfg.queue_batches, cfg.batch))
                        .unzip();
                }
                // Shards: one thread each, consuming one lane.
                let mut shards = Vec::with_capacity(n);
                for (i, mut lane) in std::mem::take(&mut garage.rx).into_iter().enumerate() {
                    let name = format!("sw-shard-{i}");
                    let flight = self.flight.ring(name.as_str());
                    let worker = worker(i, flight, clocks.thread(&name));
                    shards.push(
                        std::thread::Builder::new()
                            .name(name)
                            .spawn(move || (worker.run(&mut lane), lane))
                            .expect("spawn shard thread"),
                    );
                }
                let mut tx = Some(std::mem::take(&mut garage.tx));
                let clock = self.run_units(
                    units,
                    "sw-rxq",
                    // One unit takes the whole trace: nothing to assign.
                    |_| 0,
                    |_, flight, clock| LaneSink {
                        clock,
                        lanes: tx.take().expect("one dispatcher"),
                        books: books.clone(),
                        counters: &counters,
                        batch: cfg.batch,
                        paced: pacer.is_some(),
                        flight,
                    },
                    |lanes| garage.tx = lanes,
                );
                for h in shards {
                    let (done, lane) = h.join().expect("shard thread panicked");
                    shard_done(done);
                    garage.rx.push(lane);
                }
                clock
            }
            DatapathMode::Rtc => self.run_units(
                units,
                "sw-core",
                |digest| shard_for_digest(digest, n),
                // The core's one clock: its ingest samples blocks, its
                // worker times their batches in place.
                |i, flight, clock| ShardSink::new(cfg.batch, worker(i, flight, clock)),
                shard_done,
            ),
        };
        let elapsed = start.elapsed();

        // ── Close ───────────────────────────────────────────────────
        // Verdict-log occupancy at quiesce, before the controller's
        // final epoch drains its tail — the soak harness trends this.
        let log_buffered = setup.log.buffered() as u64;
        // Shut the host pool down *after* the shards: its channel drains
        // and remaining verdicts land in the log (reported, unapplied).
        if let Some(p) = pool {
            p.shutdown();
        }
        // Stop the controller last: it runs one final epoch (capturing
        // the post-drain counter tails and any late verdicts).
        let control = plane.controller.map(|(handle, stop)| {
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            handle.join().expect("controller thread panicked");
            let home = self.control.lock().expect("control plane poisoned");
            home.as_ref().expect("the thread ran it").ctrl.report()
        });

        // Re-park for the next segment, and settle this one's books.
        garage.flows = flows;
        *self.garage.lock().expect("garage poisoned") = garage;
        self.mem_rss.set(mem::rss_bytes() as f64);

        let shards: Vec<ShardStats> = counters
            .iter()
            .zip(&ends)
            .zip(&shard_base)
            // The books subtract the run's baseline; the end-state
            // sizes are absolute.
            .map(|((c, e), &base)| ShardStats {
                counts: c.counts.snapshot() - base,
                cache: e.cache,
                blacklisted: e.blacklisted,
                whitelisted: e.whitelisted,
                cache_resident: e.cache_resident,
            })
            .collect();
        let queues: Vec<Ledger> = qcounters
            .iter()
            .zip(&queue_base)
            .map(|(q, &base)| q.snapshot() - base)
            .collect();
        let report = EngineReport {
            // A drained segment offered exactly what its ingest units
            // got to before the flag: the per-queue tallies. An
            // uninterrupted run keeps the stronger form — the whole
            // source, independently cross-checked against the queue
            // axis by `conserved()`.
            offered: if interrupted {
                queues.iter().map(|q| q[Count::Offered]).sum()
            } else {
                source.len() as u64
            },
            elapsed,
            shards,
            queues,
            host_processed: setup.host_processed.get() - host_base,
            verdicts_published: setup.log.len() as u64,
            interrupted,
            log_buffered,
            control,
            stage: clocks.hists.snapshot(),
            flowcache: FlowCacheSummary::aggregate(cfg.cache_burst, &ends),
        };
        // Close out the black box: a conservation failure records its
        // delta (the smoking gun a post-mortem dump starts from), and
        // every run ends with a RunEnd marker.
        let eng_ring = self.flight.ring("sw-engine");
        if !report.conserved() {
            eng_ring.record(
                FlightKind::ConservationDelta,
                unaccounted(report.offered, &report.shards),
                report.offered,
            );
        }
        eng_ring.record(
            FlightKind::RunEnd,
            u64::from(report.conserved()),
            report.offered,
        );
        report
    }

    /// The ingest stage of either topology: split `source` across the
    /// units by `assign`, start the segment clock, build one [`Ingest`]
    /// per unit around the sink `sink` makes for it (with the unit's
    /// flight ring and the clock of its thread), run each on its own
    /// `{name}-{i}` thread and join them all. Returns the clock origin
    /// and whether any unit stopped on a drain request; what each sink
    /// handed back goes to `done`.
    fn run_units<S: Sink + Send>(
        &self,
        mut u: Units<'_>,
        name: &str,
        assign: impl Fn(HashDigest) -> usize,
        mut sink: impl FnMut(usize, FlightRing, Clock) -> S,
        mut done: impl FnMut(S::Out),
    ) -> (Instant, bool)
    where
        S::Out: Send,
    {
        let (source, hasher) = (u.source, u.hasher);
        // Outside the timed region: hardware RSS / flow steering is
        // free.
        let streams = split_streams(source, u.queues.len(), &hasher, assign);
        let start = Instant::now();
        let ends: Vec<IngestEnd<S::Out>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(streams.len());
            for (i, stream) in streams.into_iter().enumerate() {
                let thread = format!("{name}-{i}");
                let flight = self.flight.ring(thread.as_str());
                let ingest = Ingest {
                    enforce_verdicts: self.cfg.enforce_verdicts,
                    queue: &u.queues[i],
                    steer: u.steer[i].take(),
                    pacer: u.pacer,
                    drain: self.drain.as_ref(),
                    sink: sink(i, flight.clone(), u.clocks.thread(&thread)),
                    flight,
                };
                let handle = std::thread::Builder::new()
                    .name(thread)
                    .spawn_scoped(scope, move || ingest.run(source, stream, hasher))
                    .expect("spawn ingest thread");
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        let mut interrupted = false;
        for e in ends {
            interrupted |= e.interrupted;
            done(e.out);
        }
        (start, interrupted)
    }

    /// Wire up the optional control plane for one segment: per-shard
    /// hooks, one independent RCU steering reader per ingest unit
    /// (the dispatcher or a fused core — refreshes stay per-unit so a
    /// lagging core never staleness-couples the others), and the controller
    /// thread around the resident control plane — the last segment's, or
    /// built here by the first.
    fn spawn_control(
        &self,
        clocks: &Clocks,
        setup: &ShardSetup,
        counters: &[ShardCounters],
    ) -> ControlPlane {
        let n = counters.len();
        let mut plane = ControlPlane {
            shard_hooks: (0..n).map(|_| None).collect(),
            queue_steer: (0..self.cfg.ingest_units()).map(|_| None).collect(),
            controller: None,
        };
        let Some(ctrl_cfg) = &self.cfg.control else {
            return plane;
        };
        let mut resident = self.control.lock().expect("control plane poisoned");
        let home = match &mut *resident {
            // Published before any reader below exists, so the segment
            // opens under it: a standing shed pin holds from the first
            // packet, not from the first epoch.
            Some(home) => {
                home.steer.publish(home.ctrl.new_segment());
                home
            }
            None => resident.insert(ControlResident {
                ctrl: Controller::with_seed(ctrl_cfg.clone(), self.cfg.hash_seed).for_shards(n),
                modes: (0..n).map(|_| Arc::new(ModeCell::default())).collect(),
                steer: Arc::new(SnapshotCell::new(SteeringSnapshot::empty())),
                books: Publisher::new(&self.registry, &[])
                    .counters(&COUNTERS)
                    .gauges(&GAUGES),
                shard_books: (0..n)
                    .map(|i| {
                        Publisher::new(&self.registry, &[("shard", &i.to_string())])
                            .gauges(&SHARD_GAUGES)
                    })
                    .collect(),
            }),
        };
        let (heavy_tx, heavy_rx) = std::sync::mpsc::sync_channel::<(u64, u64)>(8192);
        for (slot, mode) in plane.shard_hooks.iter_mut().zip(&home.modes) {
            *slot = Some(ControlHooks {
                mode: Arc::clone(mode),
                steer: home.steer.reader(),
                heavy_tx: heavy_tx.clone(),
            });
        }
        drop(heavy_tx);
        for slot in plane.queue_steer.iter_mut() {
            *slot = Some(home.steer.reader());
        }
        let epoch = Duration::from_millis(home.ctrl.config().epoch_ms.max(1));
        drop(resident);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = ControlThread {
            home: Arc::clone(&self.control),
            epoch,
            reader: setup.log.reader(),
            log: Arc::clone(&setup.log),
            heavy_rx,
            counters: counters.to_vec(),
            host_processed: setup.host_processed.clone(),
            stop: Arc::clone(&stop),
            flight: self.flight.ring("sw-control"),
            clock: clocks.thread("sw-control"),
            admin: Arc::clone(&self.admin),
            admin_applied: self.admin_applied.clone(),
            mem_rss: self.mem_rss.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("sw-control".into())
            .spawn(move || thread.run())
            .expect("spawn controller thread");
        plane.controller = Some((handle, stop));
        plane
    }
}

/// One segment's control-plane wiring (all `None` without a controller).
struct ControlPlane {
    shard_hooks: Vec<Option<ControlHooks>>,
    queue_steer: Vec<Option<SnapshotReader<SteeringSnapshot>>>,
    /// The controller thread and its stop flag.
    controller: Option<(JoinHandle<()>, Arc<AtomicBool>)>,
}

/// What the ingest units of one open segment share.
struct Units<'a> {
    source: FrameSource<'a>,
    pacer: Option<Pacer>,
    hasher: FlowHasher,
    clocks: &'a Clocks,
    /// One set of ingest books — and so one unit — per entry.
    queues: &'a [Ledger<Counter>],
    steer: Vec<Option<SnapshotReader<SteeringSnapshot>>>,
}

/// The controller thread of one segment: the resident control plane it
/// drives, what it samples (shard counters, the verdict log, the
/// heavy-hitter channel), and its observability wiring.
struct ControlThread {
    /// The engine's control plane, locked once per epoch.
    home: Arc<Mutex<Option<ControlResident>>>,
    /// The controller's epoch period.
    epoch: Duration,
    log: Arc<ControlLog>,
    reader: LogReader,
    heavy_rx: Receiver<(u64, u64)>,
    counters: Vec<ShardCounters>,
    host_processed: Counter,
    stop: Arc<AtomicBool>,
    flight: FlightRing,
    /// Ticks once per epoch; a sampled epoch's span runs from the
    /// reading that measured it to the end of its apply.
    clock: Clock,
    /// The engine's admin mailbox, drained once per epoch.
    admin: Arc<AdminQueue>,
    /// `runtime.admin.applied` — commands the controller acted on.
    admin_applied: Counter,
    /// `runtime.mem.rss_bytes` — sampled once per epoch so the soak
    /// harness gets a live residency trend without touching the engine.
    mem_rss: Gauge,
}

impl ControlThread {
    /// The thread body: one epoch per `epoch_ms` (or on shutdown).
    /// Each epoch applies queued admin edits, samples cumulative shard
    /// counters, drains the verdict log and the heavy-hitter channel,
    /// feeds the pure [`Controller`] state machine, applies its
    /// per-shard modes to the [`ModeCell`]s, black-boxes what changed
    /// since the last record and publishes any new steering snapshot.
    /// When `stop` is observed it runs one final epoch (counter tails +
    /// late verdicts) and returns.
    fn run(mut self) {
        let epoch = self.epoch;
        let mut last = Instant::now();
        loop {
            let done = self.stop.load(Ordering::Acquire);
            if !done {
                std::thread::park_timeout(epoch);
            }
            let now = Instant::now();
            // Only a stop wakes the thread early, and the counter tail
            // it then sees is whole checkpoints (256 packets) over
            // whatever sliver of a period had passed — a rate of noise
            // that a resident controller would carry, through its EWMA,
            // into the next segment. The stream is over: what arrived
            // is what a full period would have seen.
            let elapsed_secs = now.duration_since(last).max(epoch).as_secs_f64();
            last = now;
            self.mem_rss.set(mem::rss_bytes() as f64);
            let mut home = self.home.lock().expect("control plane poisoned");
            let home = home.as_mut().expect("built before its thread");

            // Apply queued admin edits before the epoch decision: they
            // mutate the controller's private state (marking it dirty),
            // so this epoch's decision and snapshot carry them — the hot
            // loop only ever sees them through the RCU path.
            for cmd in self.admin.drain() {
                if home.ctrl.admin(cmd) {
                    self.admin_applied.inc();
                    self.flight
                        .record(FlightKind::AdminEdit, cmd.code(), cmd.arg());
                }
            }

            // Escalation backlog: packets escalated but neither dropped
            // at the ring nor processed by the host yet. The pool is
            // shared, so every shard's sample carries the aggregate.
            let books: Vec<Ledger> = self.counters.iter().map(|c| c.counts.snapshot()).collect();
            let backlog = total(books.iter(), Count::Escalated)
                .saturating_sub(total(books.iter(), Count::EscalationDropped))
                .saturating_sub(self.host_processed.get());

            let shards: Vec<ShardSample> = books
                .iter()
                .map(|b| ShardSample {
                    offered: b.arrived(),
                    processed: b[Count::Processed],
                    shed: b[Count::Shed],
                    escalation_backlog: backlog,
                })
                .collect();
            let verdicts = self.log.poll(&self.reader);
            let mut heavy = Vec::new();
            while let Ok(h) = self.heavy_rx.try_recv() {
                heavy.push(h);
                if heavy.len() >= 16_384 {
                    break;
                }
            }

            let snapshot = home
                .ctrl
                .epoch(&EpochInput {
                    elapsed_secs,
                    shards,
                    verdicts,
                    heavy,
                })
                .snapshot;
            home.books.publish(&home.ctrl);
            let ring = home.ctrl.decisions();
            let record = ring.back().expect("the epoch's own record");
            let shards = record.smoothed_mpps.iter().zip(&record.modes);
            for (books, (&mpps, &mode)) in home.shard_books.iter_mut().zip(shards) {
                books.publish(&(mpps, mode));
            }
            for (cell, &m) in home.modes.iter().zip(&record.modes) {
                cell.set(m);
            }
            // Black-box the epoch's notable transitions before
            // publishing: what changed since the last record, then
            // promotions and evictions from the record's counts.
            let before = ring.len().checked_sub(2).map(|i| &ring[i]);
            for event in ControlEvent::between(before, record) {
                match event {
                    // The epoch word joins the switch to its decision
                    // record in the audit.
                    ControlEvent::ModeSwitch { epoch, shard, mode } => self.flight.record3(
                        FlightKind::ModeSwitch,
                        shard as u64,
                        u64::from(mode.code()),
                        epoch,
                    ),
                    ControlEvent::ShedOn { epoch } => {
                        self.flight
                            .record(FlightKind::ShedOn, epoch, record.max_backlog)
                    }
                    ControlEvent::ShedOff { epoch } => {
                        self.flight
                            .record(FlightKind::ShedOff, epoch, record.max_backlog)
                    }
                }
            }
            if record.promotions > 0 {
                self.flight
                    .record(FlightKind::Promotion, record.promotions, record.epoch);
            }
            if record.whitelist_evictions > 0 {
                self.flight.record(
                    FlightKind::WhitelistEvict,
                    record.whitelist_evictions,
                    record.epoch,
                );
            }
            if let Some(snap) = snapshot {
                home.steer.publish(snap);
            }
            if self.clock.sample() {
                let end = self.clock.now();
                self.clock.close(Stage::Epoch, now, end);
            }
            if done {
                self.log.release(self.reader);
                return;
            }
        }
    }
}
