//! One worker shard: a pinned OS thread owning a FlowCache partition and
//! a full per-shard detector suite.
//!
//! RSS guarantees that both directions of a flow land on the same shard
//! (symmetric [`smartwatch_net::hash::shard_for_digest`]), so a shard's
//! FlowCache and detectors see a complete, self-contained slice of the
//! traffic and never need cross-shard synchronisation on the packet
//! path. A pipeline shard ingests from one bounded SPSC lane, fed by the
//! one dispatcher, in arrival order. The only shared state
//! the packet path writes is the escalation channel (bounded MPSC to the
//! host pool) and the epoch-stamped control log (inline-triage verdicts;
//! polled at batch boundaries). Everything a packet counts — the shard's
//! [`Ledger`] page and the FlowCache's own books, which live in the
//! cache as plain integers — stays on this thread until the batch
//! boundary, where [`ShardWorker::flush_local`] folds it into the
//! registry: `runtime.shard.*{shard}` and, through the
//! cache's [`Publisher`], `snic.cache.*` / `snic.ring.*` (cells every shard
//! adds to — a handful of adds per batch, none for a tally that did not
//! move). Live readers of all of them are at most one batch stale. A
//! batch its unit sampled is timed in place, its stamps chained packet
//! by packet on the thread's [`Clock`]; any other batch reads no clock.
//!
//! Beyond that the packet path does no per-packet work that produces
//! nothing. Packets arrive carrying their whole
//! [`FlowDigest`](smartwatch_net::FlowDigest) (canonical key, direction,
//! symmetric hash; see [`crate::batch`]), and the FlowCache and the
//! detector suite's flow tables take it as is. Black/whitelist
//! membership is an identity-hashed digest probe, and an empty set
//! answers without one. The FlowCache, the suite and §3.2's pinning
//! rule are the one [`SnicTier`] the platform steps too; the suite
//! writes each packet's alerts, host need and whitelist into the
//! outcome the tier owns, cleared per packet instead of built and
//! dropped. In a `stress64_rtc` profile the dropped temporaries were
//! 3.5 % of the samples and the two verdict probes 4.2 %, one of them
//! into a whitelist that never filled. A drained batch buffer goes
//! back to the dispatcher through the lane's own ring (the spare a
//! [`LaneRx`] leaves in the next slot it pops) instead of being freed.

// No wall-clock read and no flow digest of its own (`clippy.toml`): see
// `process_packet`.
#![deny(clippy::disallowed_methods)]

use crate::batch::{Backoff, Batch, DigestedPacket};
use crate::books::{Axis, Count, Disposition, Ledger};
use crate::control::{ControlLog, LogReader};
use crate::engine::EngineConfig;
use crate::escalate::{Escalated, PoolSender, TriageNf};
use crate::obs::{Clock, Lap, Stage};
use smartwatch_control::{ModeCell, SnapshotReader, SteeringSnapshot};
use smartwatch_core::{HostNeed, SnicTier};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::hash::shard_for_digest;
use smartwatch_net::{AgingDigestSet, FlowHasher};
use smartwatch_snic::flowcache::ROW_HINT_LINES;
use smartwatch_snic::{cache_publisher, CacheStats, FlowCache, FlowCacheConfig, TableStats};
use smartwatch_telemetry::{Counter, FlightKind, FlightRing, Gauge, Publisher, Registry};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

/// The shard's ingest lane: the consumer half of the dispatcher's SPSC
/// ring and the buffer the shard drained last — left in the slot of the
/// next pop, so it returns to the dispatcher on the ring's next lap.
/// Parked with the engine between segments, spare included.
pub(crate) struct LaneRx {
    rx: crate::spsc::Consumer<Batch>,
    spare: Option<Batch>,
}

impl LaneRx {
    pub(crate) fn new(rx: crate::spsc::Consumer<Batch>) -> LaneRx {
        LaneRx { rx, spare: None }
    }

    /// Take the lane's oldest message, leaving the spare in its slot;
    /// `None` when the ring is empty.
    fn poll(&mut self) -> Option<Batch> {
        self.rx.try_exchange(&mut self.spare)
    }

    /// Keep a drained batch's buffer as the lane's spare.
    fn retire(&mut self, mut batch: Batch) {
        batch.pkts.clear();
        self.spare = Some(batch);
    }
}

/// The shard side of an attached control plane: the live mode cell the
/// controller writes, the steering snapshot reader, and the channel
/// heavy-hitter candidates go through. Absent when the engine runs
/// without a controller.
pub(crate) struct ControlHooks {
    /// Controller's Algorithm 4 decision for this shard; applied to the
    /// live FlowCache at batch boundaries.
    pub mode: Arc<ModeCell>,
    /// RCU reader over the published steering table.
    pub steer: SnapshotReader<SteeringSnapshot>,
    /// Heavy-hitter candidates `(digest, packets)` go controller-ward
    /// through here, one per [`HEAVY_QUANTUM`] crossing (bounded; a full
    /// channel drops the report and that quantum goes uncounted).
    pub heavy_tx: SyncSender<(u64, u64)>,
}

/// Where a shard sends suspects (the ≤16% escalation path).
pub(crate) enum Escalation {
    /// Bounded channels into the host worker pool, one per worker. An
    /// escalation from a sampled batch carries its hand-off reading, so
    /// the host side can time the round trip.
    Pool(PoolSender),
    /// Synchronous per-shard triage on the shard's own [`TriageNf`]
    /// (deterministic mode, `host_workers = 0`).
    Inline,
}

/// Per-shard observability wiring: the thread's flight-recorder ring
/// (always on — events are rare and the ring is bounded) and its clock
/// (a fused core's: the one its ingest ticks).
pub(crate) struct ShardObs {
    pub flight: FlightRing,
    pub clock: Clock,
}

/// Per-shard live books: the `runtime.shard.*{shard=N}` counters plus
/// the ingest queue-depth gauges.
#[derive(Clone)]
pub(crate) struct ShardCounters {
    /// The shard axis of the books.
    pub counts: Ledger<Counter>,
    /// Current ingest queue depth, in batches (dispatcher side).
    pub queue_depth: Gauge,
    /// High-water mark of the ingest queue depth, in batches.
    pub queue_depth_peak: Gauge,
}

impl ShardCounters {
    pub(crate) fn registered(reg: &Registry, shard: usize) -> ShardCounters {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        ShardCounters {
            counts: Ledger::registered(reg, Axis::Shard, shard),
            queue_depth: reg.gauge("runtime.shard.queue_depth", l),
            queue_depth_peak: reg.gauge("runtime.shard.queue_depth_peak", l),
        }
    }
}

/// Frozen per-shard statistics (the report view): the shard's books,
/// its FlowCache's, and three end-state sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// The shard's books, read by [`Count`](crate::Count).
    /// `idle_parks` is wall-clock dependent and stays out of the
    /// deterministic summary.
    pub counts: Ledger,
    /// What this shard's own FlowCache partition counted during the
    /// segment (a live `/stats.json` row leaves it zero).
    pub cache: CacheStats,
    /// Blacklist entries held at shutdown.
    pub blacklisted: u64,
    /// Whitelist entries held at shutdown.
    pub whitelisted: u64,
    /// Flow records resident in the shard's cache partition at shutdown.
    pub cache_resident: u64,
}

/// Probe-length histogram granularity: slot `i` counts accesses that
/// probed exactly `i` buckets (the last slot absorbs anything longer).
/// General-mode rows probe at most 12 buckets, so 16 slots lose nothing.
pub(crate) const PROBE_HIST_SLOTS: usize = 16;

/// What a shard reports back when it exits.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardEndState {
    pub blacklisted: u64,
    pub whitelisted: u64,
    pub cache_resident: u64,
    /// The segment's share of the cache's books: its `stats()` at
    /// `finish` minus the read taken when the worker was built — this
    /// shard's cache only, this segment only, carried cache or not.
    pub cache: CacheStats,
    /// Per-access probe lengths — with the bursts below, what the cache
    /// does not count itself — accumulated in plain integers on the
    /// shard thread (deterministic for deterministic inputs).
    pub probe_hist: [u64; PROBE_HIST_SLOTS],
    /// Prefetch bursts issued by the batched cache path.
    pub bursts: u64,
    /// Packets covered by those bursts (`burst_pkts / bursts` = mean
    /// pipeline depth actually achieved).
    pub burst_pkts: u64,
    /// FlowCache lines those bursts hinted (`hinted_lines / burst_pkts`
    /// = lines per packet: the work stage A asks of memory).
    pub hinted_lines: u64,
}

/// A shard with a controller reports `(digest, HEAVY_QUANTUM)` at each
/// packet that brings the flow's FlowCache record count to a multiple
/// of this (DESIGN.md "One copy per flow").
const HEAVY_QUANTUM: u64 = 16;

/// Verdict-set bounds: capacity plus a TTL in *batch* counts (the
/// shard's own monotone clock). At 64-packet batches, 8192 batches is
/// roughly half a million packets of inactivity before an entry ages
/// out. Shared with the [`reference`](crate::reference) oracle.
pub(crate) const VERDICT_SET_CAPACITY: usize = 65_536;
pub(crate) const VERDICT_TTL_BATCHES: u64 = 8192;
/// Run the TTL sweep every this many batches.
pub(crate) const SWEEP_EVERY_BATCHES: u64 = 256;

/// Plain-integer accumulator for one batch, flushed into the shared
/// atomic [`ShardCounters`] exactly once per batch — collapsing what
/// used to be ~6 relaxed `fetch_add`s *per packet* into ~6 *per batch*.
#[derive(Default)]
struct LocalBatchStats {
    /// The batch's page of the shard's books.
    tally: Ledger,
    /// Escalations triaged inline (counted into the pool's counter).
    host_inline: u64,
}

/// One shard's per-flow memory: an engine-lifetime resource. Built
/// once, on the first segment that needs it; parked in the engine's
/// garage between segments; handed back to the same shard through
/// [`FlowState::reset`], which makes it observably fresh without giving
/// up its allocations (the [`Resident`](smartwatch_net::Resident)
/// contract) — so from the second segment on a shard neither builds nor
/// regrows any per-flow table.
pub(crate) struct FlowState {
    /// The shard's sNIC tier: FlowCache, detector suite, pinning rule.
    pub tier: SnicTier,
    /// Carries the cache's books to `snic.cache.*` / `snic.ring.*`;
    /// parked with the cache, whose cumulative tallies it tracks.
    cache_books: Publisher<FlowCache>,
    /// Digest-keyed (identity-hashed) verdict sets of the shard's own
    /// flows: membership is one u64 probe instead of a SipHash over the
    /// 13-byte 5-tuple. TTL'd and capacity-bounded so a long-running
    /// shard never accumulates every verdict it has ever seen.
    blacklist: AgingDigestSet,
    whitelist: AgingDigestSet,
    local: LocalBatchStats,
    /// A fused core's staging buffer (unallocated on a pipeline shard):
    /// like `local`, here only so it is parked with the shard and a
    /// segment does not allocate it again.
    pub stage: Vec<DigestedPacket>,
    /// The shard's inline host NF ([`Escalation::Inline`]).
    triage: TriageNf,
    /// `runtime.flowstate.*{shard}`: what is parked, set once per
    /// segment by [`FlowState::publish`].
    parked: ParkedGauges,
}

/// The per-shard gauges a parked [`FlowState`] is described by.
struct ParkedGauges {
    /// Heap bytes of the FlowCache and the detector tables.
    resident_bytes: Gauge,
    /// Slots the detectors' flow tables hold.
    table_slots: Gauge,
    /// Slots those tables examined per lookup in the segment just ended
    /// (1.0 = every probe ended at its home slot).
    table_probe_mean: Gauge,
}

impl FlowState {
    /// Fresh state for shard `shard` of an engine configured as `cfg`.
    pub(crate) fn new(cfg: &EngineConfig, registry: &Registry, shard: usize) -> FlowState {
        let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
        cache_cfg.hash_seed = cfg.hash_seed;
        let shard = shard.to_string();
        let gauge = |name| registry.gauge(name, &[("shard", &shard)]);
        FlowState {
            parked: ParkedGauges {
                resident_bytes: gauge("runtime.flowstate.resident_bytes"),
                table_slots: gauge("runtime.flowstate.table_slots"),
                table_probe_mean: gauge("runtime.flowstate.table_probe_mean"),
            },
            cache_books: cache_publisher(registry, &cache_cfg.policy),
            tier: SnicTier::new(cache_cfg),
            blacklist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            whitelist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            local: LocalBatchStats::default(),
            stage: Vec::new(),
            triage: TriageNf::new(cfg.triage_threshold),
        }
    }

    /// Make parked state fresh for the next segment, in place.
    pub(crate) fn reset(&mut self) {
        self.tier.reset();
        self.blacklist.reset();
        self.whitelist.reset();
        self.local = LocalBatchStats::default();
        self.triage.reset();
    }

    /// Describe the state as it is about to be parked; `tables` is the
    /// segment's share of the detector tables' books. Resident bytes are
    /// the tier's — the part sized by the traffic (the verdict sets are
    /// capacity-bounded and the triage tables hold one entry per
    /// escalated source).
    fn publish(&self, tables: TableStats) {
        let g = &self.parked;
        g.resident_bytes.set(self.tier.resident_bytes() as f64);
        g.table_slots.set(self.tier.suite.table_slots() as f64);
        g.table_probe_mean
            .set(tables.probes as f64 / tables.lookups.max(1) as f64);
    }
}

/// What every shard worker of one segment shares, built once by the
/// engine lifecycle.
#[derive(Clone)]
pub(crate) struct ShardSetup {
    pub log: Arc<ControlLog>,
    /// Shards in the engine: a flow's verdict applies on the one
    /// `shard_for_digest` maps it to.
    pub shards: usize,
    /// Escalations handled inline count into the same pool counter.
    pub host_processed: Counter,
    pub enforce_verdicts: bool,
    /// Same seed as the dispatchers and the cache — verdict keys (the
    /// only un-digested keys a shard sees) digest through this.
    pub hasher: FlowHasher,
    /// FlowCache software-pipeline depth: rows for up to this many
    /// packets are prefetched ahead of their probes — after a batch that
    /// mostly missed, the lines each probe will touch and the scan-table
    /// slot words instead ([`ShardWorker::process_group`]); `0` reads as
    /// `1`. The prefetch is architecturally inert, so every width
    /// decides what the per-packet [`reference`](crate::reference)
    /// oracle decides.
    pub burst: usize,
}

/// The per-thread shard state.
pub(crate) struct ShardWorker {
    /// This shard's index: the flows `shard_for_digest` maps here are
    /// the ones it owns.
    shard: usize,
    pub setup: ShardSetup,
    /// The shard's per-flow memory, on loan from the engine's garage
    /// for this segment; `finish` hands it back.
    pub flow: FlowState,
    pub escalation: Escalation,
    pub counters: ShardCounters,
    /// The end state in the making: probe lengths and prefetch bursts
    /// accumulate here in plain integers — no atomics on this path;
    /// `finish` freezes the rest.
    end: ShardEndState,
    /// The cache's and the detector tables' books as this segment found
    /// them.
    cache_base: CacheStats,
    table_base: TableStats,
    /// Attached control plane (mode cell, steering reader, heavy-hitter
    /// channel); `None` when the engine runs without a controller.
    hooks: Option<ControlHooks>,
    /// Flight ring and clock of this thread.
    pub obs: ShardObs,
    reader: LogReader,
    /// Batches consumed — the monotone clock the aging sets tick on.
    batches: u64,
    last_ts: smartwatch_net::Ts,
    /// More than half the packets of the last batch missed the
    /// FlowCache: stage A also fetches what a miss reads. False at
    /// the start of every segment.
    cold: bool,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        setup: &ShardSetup,
        flow: FlowState,
        escalation: Escalation,
        counters: ShardCounters,
        hooks: Option<ControlHooks>,
        obs: ShardObs,
    ) -> ShardWorker {
        ShardWorker {
            shard,
            reader: setup.log.reader(),
            setup: setup.clone(),
            cache_base: flow.tier.cache().stats(),
            table_base: flow.tier.suite.table_stats(),
            flow,
            escalation,
            counters,
            end: ShardEndState::default(),
            hooks,
            obs,
            batches: 0,
            last_ts: smartwatch_net::Ts::ZERO,
            cold: false,
        }
    }

    /// Consume batches from the shard's lane until its Stop marker
    /// arrives, then final-sweep and exit: poll → process → retire, on
    /// the idle [`Backoff`] while the lane is empty. Returns the end
    /// state plus the shard's [`FlowState`], which the engine parks for
    /// the next segment.
    pub(crate) fn run(mut self, lane: &mut LaneRx) -> (ShardEndState, FlowState) {
        let mut backoff = Backoff::new();
        loop {
            match lane.poll() {
                // The `Stop` marker: its (empty) buffer is the spare
                // the lane parks with.
                Some(batch) if batch.stop => {
                    lane.retire(batch);
                    break;
                }
                // The batch carries its dispatcher's sampling decision:
                // its admit reading starts its chain.
                Some(batch) => {
                    backoff.reset();
                    self.control_tick();
                    let lap = self.obs.clock.admit(&batch);
                    self.process_group(&batch.pkts, lap);
                    lane.retire(batch);
                }
                // Bounded exponential backoff: spin → yield → short
                // park, so idle shards (paced low-rate runs) stop
                // burning a full core while staying quick to wake.
                None => {
                    if backoff.idle() {
                        self.counters.counts[Count::IdleParks].inc();
                    }
                }
            }
        }
        self.finish()
    }

    /// Stop-marker tail: apply the last verdicts, run the detectors'
    /// end-of-trace sweep, release the log reader, and freeze the end
    /// state. With inline triage the shard itself is the only publisher
    /// of verdicts for its flows, so this last poll is complete without
    /// waiting for any sibling. `pub(crate)` because the
    /// run-to-completion cores drive the worker directly (no lanes) and
    /// close it out themselves at end of stream.
    pub(crate) fn finish(mut self) -> (ShardEndState, FlowState) {
        self.apply_control();
        let final_alerts = self.flow.tier.suite.finish(self.last_ts);
        self.counters.counts[Count::Alerts].add(final_alerts.len() as u64);
        // Stop pinning the verdict log's buffer.
        self.setup.log.release(self.reader);
        self.end.blacklisted = self.flow.blacklist.len() as u64;
        self.end.whitelisted = self.flow.whitelist.len() as u64;
        self.end.cache_resident = self.flow.tier.cache().occupied() as u64;
        // The tail above may have unpinned: publish once more, then the
        // segment's share is one subtraction.
        self.flow.cache_books.publish(self.flow.tier.cache());
        self.end.cache = self.flow.tier.cache().stats() - self.cache_base;
        self.flow
            .publish(self.flow.tier.suite.table_stats() - self.table_base);
        (self.end, self.flow)
    }

    /// Per-batch control-plane housekeeping: advance the batch clock,
    /// apply pending verdicts, pick up the controller's mode decision
    /// and the latest steering snapshot, and run the periodic sweeps.
    /// `pub(crate)`: the run-to-completion cores call this at exactly
    /// the batch boundaries the lane path would have produced, so the
    /// batch clock (and everything TTL'd on it) advances identically.
    pub(crate) fn control_tick(&mut self) {
        self.batches += 1;
        self.apply_control();
        if let Some(h) = &mut self.hooks {
            // The controller's Algorithm 4 decision, applied to the live
            // cache at this batch boundary (safe: lazy Alg. 3 cleanup).
            self.flow.tier.set_mode(h.mode.get());
            h.steer.refresh();
        }
        if self.batches.is_multiple_of(SWEEP_EVERY_BATCHES) {
            let now = self.batches;
            self.flow.blacklist.sweep(now);
            self.flow.whitelist.sweep(now);
        }
    }

    /// Apply the verdicts published since the last poll that are this
    /// shard's: a flow's verdict on the shard that owns the flow, a
    /// verdict with no flow on shard 0. Every other shard skips it.
    fn apply_control(&mut self) {
        let tail = self.setup.log.poll(&self.reader);
        if tail.is_empty() {
            return;
        }
        let now = self.batches;
        for v in tail {
            match v {
                Verdict::Blacklist(k) | Verdict::Whitelist(k) => {
                    let (canon, digest) = self.setup.hasher.digest_symmetric(&k);
                    if shard_for_digest(digest, self.setup.shards) != self.shard {
                        continue;
                    }
                    // The host is done with this flow — release the pin
                    // so the record becomes evictable again.
                    self.flow.tier.release(&canon);
                    if matches!(v, Verdict::Blacklist(_)) {
                        self.flow.blacklist.insert(digest.0, now);
                        self.flow.whitelist.remove(&digest.0);
                    } else {
                        self.flow.whitelist.insert(digest.0, now);
                    }
                }
                _ if self.shard != 0 => continue,
                Verdict::Alert(_) => self.counters.counts[Count::Alerts].inc(),
                Verdict::Drop => {}
            }
            self.counters.counts[Count::CtrlApplied].inc();
        }
    }

    /// Fold the batch's plain-integer tallies — the shard's and its
    /// cache's — into the shared atomics: the only place the hot path
    /// touches contended cache lines. The batch's evicted records go
    /// too: the engine keeps no host flow store to read them, and rings
    /// left to fill for a whole segment sized the parked state by how
    /// many records that segment happened to evict.
    fn flush_local(&mut self) {
        self.flow.cache_books.publish(self.flow.tier.cache());
        self.flow.tier.clear_evicted();
        let l = &mut self.flow.local;
        // Coalesced per batch: one black-box event per batch that lost
        // packets to a verdict, one per batch that lost escalations,
        // each stamped with the batch clock.
        let verdict_dropped = l.tally.fate(Disposition::VerdictDrop);
        if verdict_dropped > 0 {
            Disposition::VerdictDrop.note(&self.obs.flight, verdict_dropped, self.batches);
        }
        if l.tally[Count::EscalationDropped] > 0 {
            self.obs.flight.record(
                FlightKind::EscalationDrop,
                l.tally[Count::EscalationDropped],
                self.batches,
            );
        }
        self.counters.counts.fold(&mut l.tally);
        if l.host_inline > 0 {
            self.setup.host_processed.add(l.host_inline);
            l.host_inline = 0;
        }
    }

    /// Process one batch — a lane batch or a fused core's in-place
    /// batch — then flush its
    /// books. `lap` is the batch's chain: when its unit was sampled,
    /// the packets' stage readings chain from its first one and the
    /// "shard process" span runs from there to the last of them; an
    /// unsampled chain reads no clock.
    ///
    /// The FlowCache pipeline: for each burst-sized chunk, stage A
    /// issues a row prefetch per packet (independent DRAM fetches
    /// overlap), stage B runs the unchanged per-packet decision sequence
    /// with the rows already in flight. Verdicts, pinning, escalation and
    /// detector effects all happen in stage B in exact arrival order, so
    /// the engine's `deterministic_summary` is byte-identical to the
    /// per-packet [`reference`](crate::reference) oracle's at every
    /// width. `pub(crate)` for the run-to-completion cores, which feed it
    /// the same batch-sized groups the lane path would have delivered.
    ///
    /// The batch's FlowCache misses — a difference of the cache's own
    /// plain-integer books — set the gate the next batch's stage A
    /// reads: more than half missed, and the next stage A hints what
    /// each probe will touch ([`ShardWorker::stage_a`]).
    pub(crate) fn process_group(&mut self, pkts: &[DigestedPacket], mut lap: Lap) {
        let burst = self.setup.burst.max(1);
        let misses = self.flow.tier.cache().stats().misses;
        if self.cold {
            self.stage_ahead(&pkts[..burst.min(pkts.len())]);
        }
        for (i, chunk) in pkts.chunks(burst).enumerate() {
            let next = pkts.get((i + 1) * burst..).unwrap_or_default();
            self.stage_a(chunk, &next[..burst.min(next.len())]);
            for dp in chunk {
                self.process_packet(dp, &mut lap);
            }
        }
        self.cold = 2 * (self.flow.tier.cache().stats().misses - misses) > pkts.len() as u64;
        self.obs.clock.end(lap, Stage::Process);
        self.flush_local();
    }

    /// Stage A of one chunk: hints, no architectural effect. After a
    /// hit-dominated batch, each packet's FlowCache row (tag line and
    /// first bucket): a hit reads one record, found by its tag. After a
    /// miss-heavy batch, two distances: the `next` chunk's tag lines and
    /// scan-table home slot words ([`ShardWorker::stage_ahead`]), then,
    /// read off this chunk's tags (hinted a chunk ago), exactly the slot
    /// lines each probe will touch ([`FlowCache::prefetch_probe`]) —
    /// one for a hit or a miss into a free P bucket, the P span and an
    /// E bucket for a miss that demotes.
    fn stage_a(&mut self, chunk: &[DigestedPacket], next: &[DigestedPacket]) {
        self.end.bursts += 1;
        self.end.burst_pkts += chunk.len() as u64;
        if self.cold {
            self.stage_ahead(next);
            let cache = self.flow.tier.cache();
            for dp in chunk {
                self.end.hinted_lines += u64::from(cache.prefetch_probe(dp.flow.digest));
            }
        } else {
            let cache = self.flow.tier.cache();
            for dp in chunk {
                cache.prefetch_row(dp.flow.digest);
            }
            self.end.hinted_lines += ROW_HINT_LINES * chunk.len() as u64;
        }
    }

    /// The far half of a cold stage A: each packet's FlowCache tag line
    /// and the scan table's home slot word, which a new flow is filed
    /// through.
    fn stage_ahead(&mut self, chunk: &[DigestedPacket]) {
        let (cache, suite) = (self.flow.tier.cache(), &self.flow.tier.suite);
        for dp in chunk {
            cache.prefetch_tags(dp.flow.digest);
            suite.prefetch(&dp.pkt, &dp.flow);
        }
        self.end.hinted_lines += chunk.len() as u64;
    }

    /// One packet. `lap` is the batch's chain: each stage the packet
    /// runs is closed on it by [`Clock::lap`], which reads the clock
    /// only on a sampled batch's chain — the one clock call here. This
    /// file reads no clock of its own: `Instant::now`, `Instant::elapsed`
    /// and `Clock::now` are disallowed in it (`clippy.toml`).
    fn process_packet(&mut self, dp: &DigestedPacket, lap: &mut Lap) {
        let (pkt, flow) = (&dp.pkt, &dp.flow);
        self.last_ts = self.last_ts.max(pkt.ts);
        if self.setup.enforce_verdicts && self.flow.blacklist.contains(&flow.digest.0) {
            self.flow.local.tally.record(Disposition::VerdictDrop, 1);
            return;
        }

        // Stage 1: FlowCache update (digest reused — no re-hash).
        let access = self.flow.tier.process(pkt, flow);
        self.obs.clock.lap(lap, Stage::Cache);
        self.end.probe_hist[(access.probes as usize).min(PROBE_HIST_SLOTS - 1)] += 1;
        // The flow's record crossed a heavy-hitter quantum (a `ToHost`
        // access touched no record: count 0).
        if let Some(h) = &self.hooks {
            if access.packets > 0 && access.packets.is_multiple_of(HEAVY_QUANTUM) {
                let _ = h.heavy_tx.try_send((flow.digest.0, HEAVY_QUANTUM));
            }
        }

        // Whitelisted flows skip the detector suite — the wall-clock
        // analogue of the switch no longer steering them. Either the
        // shard's own verdict overlay or the controller's published
        // steering table qualifies; the snapshot read is a plain
        // deref into the batch-cached Arc.
        if self.flow.whitelist.contains(&flow.digest.0)
            || self
                .hooks
                .as_ref()
                .is_some_and(|h| h.steer.current().whitelist.contains(&flow.digest.0))
        {
            self.flow.local.tally.record(Disposition::FastPath, 1);
            return;
        }

        // Stage 2: the tier's suite and pin rule (flow identity as
        // carried, outcome into the tier's sink).
        let outcome = self.flow.tier.inspect(pkt, flow);
        self.obs.clock.lap(lap, Stage::Detect);

        self.flow.local.tally[Count::Alerts] += outcome.alerts.len() as u64;
        for cleared in &outcome.whitelist {
            let (_, digest) = self.setup.hasher.digest_symmetric(cleared);
            self.flow.whitelist.insert(digest.0, self.batches);
        }

        // Stage 3: host escalation for suspects, pinned by the tier.
        if outcome.host == HostNeed::Host {
            self.flow.local.tally[Count::Escalated] += 1;
            match &mut self.escalation {
                Escalation::Pool(tx) => {
                    // The hand-off reading is the suite stage's end.
                    let esc = Escalated {
                        pkt: *pkt,
                        sent: lap.at(),
                    };
                    if !tx.try_send(esc) {
                        self.flow.local.tally[Count::EscalationDropped] += 1;
                        // The host will never see this packet, so no
                        // verdict will ever unpin the flow — release
                        // it now instead of pinning it forever.
                        self.flow.tier.release(&flow.canon);
                    }
                }
                Escalation::Inline => {
                    self.flow.local.host_inline += 1;
                    // The synchronous analogue of the pool round trip:
                    // triage + verdict publication.
                    for v in self.flow.triage.on_packet(pkt) {
                        self.setup.log.publish(v);
                    }
                    self.obs.clock.lap(lap, Stage::Escalate);
                }
            }
        }
        self.flow.local.tally.record(Disposition::Inspected, 1);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests build descriptors themselves
mod tests {
    use super::*;
    use crate::obs::{Clocks, PERIOD};
    use smartwatch_control::SnapshotCell;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use smartwatch_telemetry::{FlightRecorder, Registry};
    use std::net::Ipv4Addr;

    fn hasher() -> FlowHasher {
        FlowHasher::new(0x51CC)
    }

    /// A lone enforcing worker on ring `sw-shard-0` of `flight`.
    fn worker(escalation: Escalation, flight: &FlightRecorder) -> ShardWorker {
        let reg = Registry::new();
        let mut cache_cfg = EngineConfig::new(1);
        cache_cfg.cache_row_bits = 6;
        let setup = ShardSetup {
            log: Arc::new(ControlLog::new()),
            shards: 1,
            host_processed: Counter::detached(),
            enforce_verdicts: true,
            hasher: hasher(),
            burst: 8,
        };
        ShardWorker::new(
            0,
            &setup,
            FlowState::new(&cache_cfg, &reg, 0),
            escalation,
            ShardCounters::registered(&reg, 0),
            None,
            ShardObs {
                flight: flight.ring("sw-shard-0"),
                clock: Clocks::new(&reg, 0, None, 0).thread("sw-shard-0"),
            },
        )
    }

    /// TCP from 203.0.113.7 port `sport` to 10.0.0.1 port `dport`, at
    /// `ns` nanoseconds.
    fn tcp(sport: u16, dport: u16, ns: u64) -> DigestedPacket {
        let key = FlowKey::tcp(
            Ipv4Addr::new(203, 0, 113, 7),
            sport,
            Ipv4Addr::new(10, 0, 0, 1),
            dport,
        );
        let pkt = PacketBuilder::new(key, Ts::from_nanos(ns)).build();
        let flow = hasher().flow_digest(&key);
        DigestedPacket { pkt, flow }
    }

    /// SSH from one source, client port `40_000 + i`.
    fn ssh(i: u16) -> DigestedPacket {
        tcp(40_000 + i, 22, u64::from(i))
    }

    /// Feed `pkts` in 64-packet batches, as a lane would.
    fn feed(w: &mut ShardWorker, pkts: &[DigestedPacket]) {
        for batch in pkts.chunks(64) {
            w.control_tick();
            let lap = w.obs.clock.chain(false);
            w.process_group(batch, lap);
        }
    }

    /// A flow's heavy-hitter reports are its FlowCache record crossing
    /// multiples of the quantum: once hooked, every crossing sends one
    /// `(digest, Q)` — none while the worker has no controller, and none
    /// for a packet no record took (`ToHost`).
    #[test]
    fn a_flow_reports_one_quantum_per_crossing_of_its_record() {
        let flight = FlightRecorder::new(64);
        let mut w = worker(Escalation::Inline, &flight);
        // HTTPS: flows the suite never escalates.
        let web = |port| tcp(port, 443, 1_000);
        let (heavy, other) = (web(50_000), web(50_001));
        feed(&mut w, &vec![heavy; 20]);
        let (heavy_tx, rx) = std::sync::mpsc::sync_channel(1 << 12);
        w.hooks = Some(ControlHooks {
            mode: Arc::default(),
            steer: Arc::new(SnapshotCell::new(SteeringSnapshot::empty())).reader(),
            heavy_tx,
        });
        feed(&mut w, &vec![heavy; 1_000]);
        let q = HEAVY_QUANTUM as usize;
        let want = vec![(heavy.flow.digest.0, HEAVY_QUANTUM); 1_020 / q - 20 / q];
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), want);

        // Pin `other`'s P buffer full, where a miss would file it: its
        // packets then go to the host, and no record counts them. The
        // tier pins an SSH flow's first packet (it goes to the host),
        // and triage that never blacklists sends no verdict to release
        // it.
        w.flow.triage = TriageNf::new(u64::MAX);
        let cache = w.flow.tier.cache().config();
        let (bits, primary) = (cache.row_bits, cache.primary);
        let rowmates: Vec<DigestedPacket> = (1..)
            .map(|port| tcp(port, 22, 1_000))
            .filter(|dp| {
                dp.flow.digest.row(bits) == other.flow.digest.row(bits)
                    && dp.flow.digest != other.flow.digest
            })
            .take(primary)
            .collect();
        feed(&mut w, &rowmates);
        let pinned = w.flow.tier.cache().iter().filter(|r| r.pinned).count();
        assert_eq!(pinned, primary, "the tier pinned every rowmate");
        let escalated = w.counters.counts[Count::Escalated].get();
        let to_host = w.flow.tier.cache().stats().to_host;
        feed(&mut w, &vec![other; 64]);
        assert_eq!(w.flow.tier.cache().stats().to_host - to_host, 64);
        assert_eq!(rx.try_iter().count(), 0, "a ToHost packet reports nothing");
        assert_eq!(w.counters.counts[Count::Escalated].get(), escalated);
    }

    /// Stage A's gate reads the shard's own input: false on a fresh
    /// worker, set by a batch whose packets all missed the FlowCache,
    /// cleared by one whose packets all hit, and left off by a batch of
    /// which exactly half missed.
    #[test]
    fn the_stage_a_gate_follows_the_last_batchs_misses() {
        let flight = FlightRecorder::new(64);
        let mut w = worker(Escalation::Inline, &flight);
        assert!(!w.cold, "a fresh worker starts with the gate off");
        // HTTPS flows, which the suite never escalates.
        let flows = |from: u16| -> Vec<DigestedPacket> {
            (from..from + 64)
                .map(|port| tcp(port, 443, 1_000))
                .collect()
        };
        let (first, second) = (flows(50_000), flows(51_000));
        let misses = |w: &ShardWorker| w.flow.tier.cache().stats().misses;

        feed(&mut w, &first);
        assert_eq!(misses(&w), 64);
        assert!(w.cold, "an all-miss batch sets the gate");
        feed(&mut w, &first);
        assert_eq!(misses(&w), 64, "the flows stayed resident");
        assert!(!w.cold, "an all-hit batch clears it");
        feed(&mut w, &second);
        assert!(w.cold);
        let half: Vec<DigestedPacket> = first[..32]
            .iter()
            .chain(&flows(52_000)[..32])
            .copied()
            .collect();
        feed(&mut w, &half);
        assert_eq!(misses(&w), 160);
        assert!(!w.cold, "half is not more than half");
    }

    /// An SSH login that succeeds after a brute force: the packet that
    /// classifies it both goes to the host and clears the flow. Inline
    /// triage that never blacklists sends no verdict, so only the
    /// tier's pin rule can release the session — and it must: the
    /// record ends unpinned, and the flow is on the shard's whitelist.
    #[test]
    fn an_authenticated_session_is_released() {
        use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
        let flight = FlightRecorder::new(64);
        let mut w = worker(Escalation::Inline, &flight);
        w.flow.triage = TriageNf::new(u64::MAX);
        let mut cfg = BruteforceConfig::ssh(Ipv4Addr::new(10, 0, 0, 1), Ts::ZERO, 5);
        cfg.final_success = true;
        let trace = bruteforce(&cfg);
        let pkts: Vec<DigestedPacket> = trace
            .packets()
            .iter()
            .map(|&pkt| DigestedPacket {
                pkt,
                flow: hasher().flow_digest(&pkt.key),
            })
            .collect();
        feed(&mut w, &pkts);

        // The successful session is the long one.
        let mut sizes = std::collections::HashMap::new();
        for dp in &pkts {
            *sizes.entry(dp.flow.canon).or_insert(0u32) += 1;
        }
        let (session, _) = sizes.iter().max_by_key(|(_, n)| **n).unwrap();
        let rec = w.flow.tier.cache().get(session).expect("resident");
        assert!(!rec.pinned, "the benign verdict released the session");
        let digest = hasher().flow_digest(session).digest.0;
        assert!(w.flow.whitelist.contains(&digest));
        assert_eq!(w.counters.counts[Count::CtrlApplied].get(), 0, "no verdict");
    }

    /// The shard ring's events of one kind.
    fn events(flight: &FlightRecorder, kind: FlightKind) -> Vec<smartwatch_telemetry::FlightEvent> {
        let rings = flight.snapshot();
        let (name, evs) = &rings[0];
        assert_eq!(name, "sw-shard-0");
        evs.iter().filter(|e| e.kind == kind).copied().collect()
    }

    /// A worker wired to a 1-slot escalation channel that nobody drains:
    /// every `try_send` past the first fails, which is exactly the
    /// pinned-flow-leak scenario.
    #[test]
    fn dropped_escalation_unpins_the_flow() {
        let (tx, _rx_keepalive) = std::sync::mpsc::sync_channel::<Escalated>(1);
        let flight = FlightRecorder::new(64);
        let mut worker = worker(Escalation::Pool(PoolSender(vec![tx])), &flight);

        // Distinct SSH flows: auth-port TCP traffic escalates until the
        // session is classified, so each first packet goes hostward.
        let batch: Vec<DigestedPacket> = (0..64).map(ssh).collect();
        let lap = worker.obs.clock.chain(false);
        worker.process_group(&batch, lap);

        let escalated = worker.counters.counts[Count::Escalated].get();
        let dropped = worker.counters.counts[Count::EscalationDropped].get();
        assert!(escalated >= 2, "auth sweep must escalate repeatedly");
        assert!(dropped > 0, "1-slot undrained channel must drop");

        // Every dropped escalation released its pin: the only pins still
        // held are for escalations actually in flight to the host.
        let stats = worker.flow.tier.cache().stats();
        let in_flight = escalated - dropped;
        assert_eq!(
            stats.pins - stats.unpins,
            in_flight,
            "dropped escalations must not leave flows pinned"
        );
        let pinned_resident = worker.flow.tier.cache().iter().filter(|r| r.pinned).count() as u64;
        assert_eq!(pinned_resident, in_flight, "cache holds only live pins");

        // The flight recorder black-boxed the loss: one coalesced
        // EscalationDrop event carrying the batch's full drop count.
        let drops = events(&flight, FlightKind::EscalationDrop);
        assert_eq!(drops.len(), 1, "drops coalesce to one event per flush");
        assert_eq!(drops[0].a, dropped, "event carries the drop count");
    }

    /// A batch of a blacklisted flow: every packet is a verdict drop,
    /// and the loss is black-boxed like the escalation drops above —
    /// one coalesced event per flush, stamped with the batch clock.
    #[test]
    fn verdict_drops_are_black_boxed_once_per_batch() {
        let flight = FlightRecorder::new(64);
        let mut worker = worker(Escalation::Inline, &flight);
        let batch = vec![ssh(0); 64];
        worker
            .setup
            .log
            .publish(Verdict::Blacklist(batch[0].pkt.key));
        feed(&mut worker, &batch);

        let books = worker.counters.counts.snapshot();
        assert_eq!(books.fate(Disposition::VerdictDrop), 64);
        assert_eq!(books[Count::Processed], 64, "a verdict drop is processed");
        let drops = events(&flight, FlightKind::VerdictDrop);
        assert_eq!(drops.len(), 1, "drops coalesce to one event per flush");
        assert_eq!((drops[0].a, drops[0].b), (64, 1), "(count, batch)");
    }

    /// One clock: a fused core's batches, one sampling decision each,
    /// over 64 batches. An unsampled batch reads the clock zero times; a
    /// sampled one reads it once to open and once per stage of each
    /// packet — exactly one `cache_ns` and one `detect_ns` sample per
    /// packet — and only its escalations carry a hand-off reading.
    #[test]
    fn an_unsampled_batch_reads_no_clock_and_a_sampled_one_times_each_packet_once() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Escalated>(1 << 16);
        let flight = FlightRecorder::new(64);
        let mut w = worker(Escalation::Pool(PoolSender(vec![tx])), &flight);
        let samples = |w: &ShardWorker, stage| w.obs.clock.hists[stage].count();
        let mut sampled_batches = 0;
        for b in 0..64u16 {
            // Fresh SSH flows every batch: each packet runs both stages.
            let batch: Vec<DigestedPacket> = (b * 64..(b + 1) * 64).map(ssh).collect();
            let n = batch.len() as u64;
            let before = (
                w.obs.clock.reads,
                samples(&w, Stage::Cache),
                samples(&w, Stage::Detect),
            );
            let sampled = w.obs.clock.sample();
            let lap = w.obs.clock.chain(sampled);
            w.process_group(&batch, lap);
            let after = (
                w.obs.clock.reads,
                samples(&w, Stage::Cache),
                samples(&w, Stage::Detect),
            );
            let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
            let escalations: Vec<Escalated> = rx.try_iter().collect();
            assert!(!escalations.is_empty(), "batch {b}: SSH sweeps escalate");
            assert!(
                escalations.iter().all(|e| e.sent.is_some() == sampled),
                "batch {b}: a hand-off reading exactly when sampled"
            );
            if sampled {
                sampled_batches += 1;
                assert_eq!(delta, (1 + 2 * n, n, n), "batch {b}: reads, cache, detect");
            } else {
                assert_eq!(
                    delta,
                    (0, 0, 0),
                    "batch {b}: an unsampled batch reads nothing"
                );
            }
        }
        assert_eq!(sampled_batches, 64 / PERIOD);
    }
}
