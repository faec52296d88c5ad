//! The layer walk: the scalar reference of `runtime/tests/hotpath.rs`,
//! generalised to every workload, with a span around each layer call.
//!
//! The walk replays a workload's input on one thread through the
//! *public* functions the engine's hot path is made of — frame load,
//! in-place parse, digest, control-log poll, FlowCache, detector suite,
//! inline triage — one 64-packet burst at a time, issuing every layer
//! the call sequence one engine shard issues it (see `Shard::process`
//! for why that can be done layer by layer). It serves two purposes:
//!
//! * **Oracle.** Its tallies are ground truth counted per packet with
//!   no batching tricks; for a deterministic workload its
//!   [`Tally::summary`] must equal the engine's
//!   `deterministic_summary()` byte for byte.
//! * **Layer budget.** With a [`crate::span::Recorder`] as the sink,
//!   every layer call is wrapped in a span; self times per layer name
//!   add up to the walk's wall time. With [`crate::span::NoSpans`] the
//!   same code runs without a single clock read, which prices the spans.
//!
//! Spans are taken from outside the program: the engine itself is not
//! touched, so what the walk cannot see (lane crossing, thread wake-ups,
//! counter folds) shows up as the gap between its sum and the engine's
//! measured ns/packet (`walk.coverage`).

use crate::span::{Sink, ROOT};
use crate::workload::Input;
use smartwatch_core::{DetectorSuite, HostNeed};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::hash::AgingDigestSet;
use smartwatch_net::{FlowHasher, FlowKey, FrameView, HashDigest, Packet, RawTuple, Ts};
use smartwatch_runtime::{ControlLog, EngineConfig, FramePool, FrameSlot, LogReader, TriageNf};
use smartwatch_snic::{FlowCache, FlowCacheConfig, Outcome};
use smartwatch_telemetry::Registry;

/// Span names, one per layer the walk calls into. The `net.*`,
/// `runtime.*`, `snic.*` and `core.*` prefixes name the crate the call
/// lands in.
pub mod layer {
    /// Root span of one 64-packet burst; its self time is the walk's own
    /// loop and (when recording) the clock reads.
    pub const BURST: &str = "burst";
    pub const FRAME_LOAD: &str = "runtime.frame.load";
    pub const PARSE: &str = "net.wire.parse";
    pub const DIGEST: &str = "net.hash.digest";
    pub const CONTROL_POLL: &str = "runtime.control.poll";
    pub const FLOWCACHE: &str = "snic.flowcache";
    pub const SUITE: &str = "core.suite";
    pub const ESCALATE: &str = "runtime.escalate";
}

/// Ground truth counted per packet by the walk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub offered: u64,
    pub bursts: u64,
    pub processed: u64,
    pub verdict_dropped: u64,
    pub fast_path: u64,
    pub escalated: u64,
    pub ctrl_applied: u64,
    pub alerts: u64,
    pub host_processed: u64,
    pub verdicts: u64,
    pub blacklisted: u64,
    pub whitelisted: u64,
    pub cache_resident: u64,
    pub p_hits: u64,
    pub e_hits: u64,
    pub misses: u64,
    pub to_host: u64,
    pub ring_pushes: u64,
    /// Sum of per-access probe lengths, each clipped to 15 buckets like
    /// the engine's probe histogram.
    pub probe_sum: u64,
}

impl Tally {
    /// FlowCache accesses (every packet not dropped by a verdict).
    pub fn accesses(&self) -> u64 {
        self.p_hits + self.e_hits + self.misses + self.to_host
    }

    /// The walk's rendering of `EngineReport::deterministic_summary` for
    /// one shard: a lossless single-threaded run drops, sheds and loses
    /// nothing, so those fields are zero by construction.
    pub fn summary(&self) -> String {
        format!(
            "offered={}\nshard0: ingested={} dropped=0 shed=0 steer_dropped=0 processed={} \
             verdict_dropped={} fast_path={} escalated={} escalation_dropped=0 \
             ctrl_applied={} alerts={} blacklisted={} whitelisted={} cache_resident={}\n\
             host_processed={} verdicts={}\n",
            self.offered,
            self.offered,
            self.processed,
            self.verdict_dropped,
            self.fast_path,
            self.escalated,
            self.ctrl_applied,
            self.alerts,
            self.blacklisted,
            self.whitelisted,
            self.cache_resident,
            self.host_processed,
            self.verdicts,
        )
    }
}

/// Verdict-set bounds of a runtime shard (`runtime/src/shard.rs`): the
/// walk ages its sets on the same batch clock so a long input expires
/// the same entries.
const VERDICT_SET_CAPACITY: usize = 65_536;
const VERDICT_TTL_BATCHES: u64 = 8192;
const SWEEP_EVERY_BATCHES: u64 = 256;
/// Frames per wire burst (`FlowHasher::digest_batch8`'s width).
const WIRE_BURST: usize = 8;

/// One pre-digested packet, as the engine's dispatcher hands it on.
#[derive(Clone, Copy)]
struct Digested {
    pkt: Packet,
    canon: FlowKey,
    digest: HashDigest,
}

/// What a packet's trip through the detectors asks of the FlowCache.
enum Effect {
    /// The detectors cleared this flow: release its pin.
    Unpin(FlowKey),
    /// The packet escalated: pin its flow while the host works on it.
    Pin(FlowKey),
}

/// Per-shard state the walk carries across bursts.
struct Shard {
    hasher: FlowHasher,
    cache: FlowCache,
    suite: DetectorSuite,
    triage: TriageNf,
    log: ControlLog,
    reader: LogReader,
    blacklist: AgingDigestSet,
    whitelist: AgingDigestSet,
    enforce: bool,
    cache_burst: usize,
    batches: u64,
    last_ts: Ts,
    tally: Tally,
    /// Per-burst scratch: packets a verdict dropped, cache side effects
    /// by packet index, indices of escalated packets.
    skip: Vec<bool>,
    effects: Vec<(usize, Effect)>,
    hosts: Vec<usize>,
}

impl Shard {
    fn new(cfg: &EngineConfig) -> Shard {
        let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
        cache_cfg.hash_seed = cfg.hash_seed;
        let log = ControlLog::new();
        let reader = log.reader();
        Shard {
            hasher: FlowHasher::new(cfg.hash_seed),
            cache: FlowCache::new(cache_cfg),
            suite: DetectorSuite::new(),
            triage: TriageNf::new(cfg.triage_threshold),
            log,
            reader,
            blacklist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            whitelist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            enforce: cfg.enforce_verdicts,
            cache_burst: cfg.cache_burst.max(1),
            batches: 0,
            last_ts: Ts::ZERO,
            tally: Tally::default(),
            skip: Vec::with_capacity(cfg.batch),
            effects: Vec::new(),
            hosts: Vec::new(),
        }
    }

    /// Batch-boundary housekeeping: advance the batch clock, apply the
    /// verdicts published since the last boundary, age the sets.
    fn control_tick(&mut self) {
        self.batches += 1;
        self.apply_control();
        if self.batches.is_multiple_of(SWEEP_EVERY_BATCHES) {
            self.blacklist.sweep(self.batches);
            self.whitelist.sweep(self.batches);
        }
    }

    fn apply_control(&mut self) {
        let tail = self.log.poll(&self.reader);
        self.tally.ctrl_applied += tail.len() as u64;
        for v in tail {
            match v {
                Verdict::Blacklist(k) => {
                    let (canon, digest) = self.hasher.digest_symmetric(&k);
                    self.cache.unpin(&canon);
                    self.blacklist.insert(digest.0, self.batches);
                    self.whitelist.remove(&digest.0);
                }
                Verdict::Whitelist(k) => {
                    let (canon, digest) = self.hasher.digest_symmetric(&k);
                    self.cache.unpin(&canon);
                    self.whitelist.insert(digest.0, self.batches);
                }
                Verdict::Alert(_) => self.tally.alerts += 1,
                Verdict::Drop => {}
            }
        }
    }

    /// One shard batch, layer by layer instead of packet by packet.
    ///
    /// The engine interleaves the layers per packet: FlowCache access,
    /// whitelist gate, detectors, pin + triage. The detectors, the
    /// verdict sets and triage never read the cache, and the cache only
    /// hears from them through `pin`/`unpin`; so running the detector
    /// phase first, remembering which packet caused which pin or unpin,
    /// and replaying those between the same FlowCache accesses in the
    /// cache phase issues every layer exactly the call sequence the
    /// engine issues — same decisions, same cache state — while each
    /// layer gets one span per burst instead of one per packet (a clock
    /// read costs a fifth of a packet here).
    fn process<S: Sink>(&mut self, batch: &[Digested], sink: &mut S, parent: u32, burst: u32) {
        let t = &mut self.tally;
        self.skip.clear();
        self.effects.clear();
        self.hosts.clear();

        let t0 = sink.now();
        for (i, dp) in batch.iter().enumerate() {
            self.last_ts = self.last_ts.max(dp.pkt.ts);
            let dropped = self.enforce && self.blacklist.contains(&dp.digest.0);
            self.skip.push(dropped);
            if dropped {
                t.verdict_dropped += 1;
            } else if self.whitelist.contains(&dp.digest.0) {
                t.fast_path += 1;
            } else {
                let outcome = self.suite.on_packet(&dp.pkt);
                t.alerts += outcome.alerts.len() as u64;
                for flow in &outcome.whitelist {
                    self.effects.push((i, Effect::Unpin(*flow)));
                    let (_, digest) = self.hasher.digest_symmetric(flow);
                    self.whitelist.insert(digest.0, self.batches);
                }
                if outcome.host == HostNeed::Host {
                    t.escalated += 1;
                    self.effects.push((i, Effect::Pin(dp.canon)));
                    self.hosts.push(i);
                }
            }
            t.processed += 1;
        }
        let t1 = sink.now();
        sink.push(layer::SUITE, parent, burst, t0, t1);

        if !self.hosts.is_empty() {
            for &i in &self.hosts {
                t.host_processed += 1;
                for v in self.triage.on_packet(&batch[i].pkt) {
                    self.log.publish(v);
                }
            }
            sink.push(layer::ESCALATE, parent, burst, t1, sink.now());
        }

        let t2 = sink.now();
        let mut effects = self.effects.iter().peekable();
        for (c, chunk) in batch.chunks(self.cache_burst).enumerate() {
            if self.cache_burst > 1 {
                for dp in chunk {
                    self.cache.prefetch_row(dp.digest);
                }
            }
            for (j, dp) in chunk.iter().enumerate() {
                let i = c * self.cache_burst + j;
                if self.skip[i] {
                    continue;
                }
                let access = self.cache.process_digested(&dp.pkt, &dp.canon, dp.digest);
                match access.outcome {
                    Outcome::PHit => t.p_hits += 1,
                    Outcome::EHit => t.e_hits += 1,
                    Outcome::Miss => t.misses += 1,
                    Outcome::ToHost => t.to_host += 1,
                }
                t.ring_pushes += u64::from(access.ring_pushes);
                t.probe_sum += u64::from(access.probes.min(15));
                while let Some((_, effect)) = effects.next_if(|(at, _)| *at == i) {
                    match effect {
                        Effect::Unpin(flow) => self.cache.unpin(flow),
                        Effect::Pin(canon) => self.cache.pin(canon),
                    };
                }
            }
        }
        sink.push(layer::FLOWCACHE, parent, burst, t2, sink.now());
    }

    /// End of stream: the last verdicts, the detectors' closing sweep,
    /// and the end-state sizes.
    fn finish(mut self) -> Tally {
        self.apply_control();
        self.tally.alerts += self.suite.finish(self.last_ts).len() as u64;
        self.tally.verdicts = self.log.len() as u64;
        self.tally.blacklisted = self.blacklist.len() as u64;
        self.tally.whitelisted = self.whitelist.len() as u64;
        self.tally.cache_resident = self.cache.occupied() as u64;
        self.log.release(self.reader);
        self.tally
    }
}

/// Replay `input` through the layers under `cfg` (one shard, inline
/// triage), recording spans into `sink`.
pub fn walk<S: Sink>(input: &Input, cfg: &EngineConfig, sink: &mut S) -> Tally {
    assert_eq!(cfg.shards, 1, "the walk models a single shard");
    assert_eq!(cfg.host_workers, 0, "the walk models inline triage");
    let mut shard = Shard::new(cfg);
    let mut frames = match input {
        Input::Wire(store) => Some(FramePool::new(store.max_frame_len(), &Registry::new())),
        Input::Packets(_) => None,
    };
    let mut batch: Vec<Digested> = Vec::with_capacity(cfg.batch);
    let total = input.len();
    let mut burst = 0u32;
    let mut at = 0usize;
    while at < total {
        let end = (at + cfg.batch).min(total);
        let root = sink.open(layer::BURST, ROOT, burst, sink.now());
        batch.clear();
        match input {
            Input::Packets(packets) => {
                let t0 = sink.now();
                for pkt in &packets[at..end] {
                    let (canon, digest) = shard.hasher.digest_symmetric(&pkt.key);
                    batch.push(Digested {
                        pkt: *pkt,
                        canon,
                        digest,
                    });
                }
                sink.push(layer::DIGEST, root, burst, t0, sink.now());
            }
            Input::Wire(store) => {
                let frames = frames.as_mut().expect("wire input has a frame pool");
                let mut i = at;
                while i < end {
                    let m = (end - i).min(WIRE_BURST);
                    ingest_wire(
                        store,
                        i,
                        m,
                        frames,
                        &shard.hasher,
                        &mut batch,
                        sink,
                        root,
                        burst,
                    );
                    i += m;
                }
            }
        }
        shard.tally.offered += batch.len() as u64;
        shard.tally.bursts += 1;

        let t0 = sink.now();
        shard.control_tick();
        sink.push(layer::CONTROL_POLL, root, burst, t0, sink.now());

        shard.process(&batch, sink, root, burst);
        sink.close(root, sink.now());
        burst += 1;
        at = end;
    }
    shard.finish()
}

/// The wire front end for `m ≤ 8` frames starting at `first`: load into
/// pooled slots, parse in place and rebuild the model packet, digest
/// straight from the header bytes (8-wide when the burst is full),
/// release the slots — the dispatcher's sequence, one span per step.
#[allow(clippy::too_many_arguments)]
fn ingest_wire<S: Sink>(
    store: &smartwatch_net::FrameStore,
    first: usize,
    m: usize,
    frames: &mut FramePool,
    hasher: &FlowHasher,
    batch: &mut Vec<Digested>,
    sink: &mut S,
    parent: u32,
    burst: u32,
) {
    let t0 = sink.now();
    let mut slots: [Option<FrameSlot>; WIRE_BURST] = Default::default();
    for (j, slot) in slots.iter_mut().take(m).enumerate() {
        *slot = Some(frames.load(store.frame(first + j)));
    }
    let t1 = sink.now();
    sink.push(layer::FRAME_LOAD, parent, burst, t0, t1);

    let mut tuples = [RawTuple::default(); WIRE_BURST];
    let mut pkts: [Option<Packet>; WIRE_BURST] = [None; WIRE_BURST];
    for j in 0..m {
        let slot = slots[j].as_ref().expect("slot loaded");
        let view = FrameView::parse(frames.frame(slot)).expect("store frames are validated");
        tuples[j] = view.raw_tuple();
        pkts[j] = Some(store.meta(first + j).packet(&view));
    }
    let t2 = sink.now();
    sink.push(layer::PARSE, parent, burst, t1, t2);

    if m == WIRE_BURST {
        for (pkt, (canon, digest)) in pkts.iter().zip(hasher.digest_batch8(&tuples)) {
            batch.push(Digested {
                pkt: pkt.expect("packet rebuilt"),
                canon,
                digest,
            });
        }
    } else {
        for j in 0..m {
            let (canon, digest) = hasher.digest_raw(tuples[j]);
            batch.push(Digested {
                pkt: pkts[j].expect("packet rebuilt"),
                canon,
                digest,
            });
        }
    }
    let t3 = sink.now();
    sink.push(layer::DIGEST, parent, burst, t2, t3);

    for slot in slots.iter_mut() {
        if let Some(s) = slot.take() {
            frames.release(s);
        }
    }
    sink.push(layer::FRAME_LOAD, parent, burst, t3, sink.now());
}
