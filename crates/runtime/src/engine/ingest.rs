//! Ingest = feed × sink: the one loop every ingest thread runs.
//!
//! A [`Feed`] yields a unit's share of the offered trace as digested
//! packets in arrival order — [`PacketFeed`] digests model packets,
//! [`WireFeed`] receives wire frames in 8-wide bursts (parse where the
//! [`FrameStore`] holds them → digest from the header bytes). Either way the
//! descriptor carries the packet's whole
//! [`FlowDigest`](smartwatch_net::FlowDigest) — canonical key,
//! direction and digest, the direction falling out of the same
//! canonicalisation — so the shard takes it as is and never rebuilds
//! any part of it. A [`Sink`] takes
//! what survives steering — [`LaneSink`] stages per shard and flushes
//! onto the shards' SPSC lanes (the pipeline's `sw-rxq-0` dispatcher),
//! [`ShardSink`] stages one batch and runs it in place on the shard
//! worker it owns (the fused `sw-core-{i}` of the run-to-completion
//! datapath). [`Ingest::run`] is everything in between, once: the
//! 256-packet checkpoint (drain, pacing, steering refresh, black-box
//! coalescing, counter fold, the block's sampling decision), the
//! steering filter and the end-of-stream tail. The two topologies differ
//! only in the [`Sink`] hooks: whose shard counters a steering drop
//! lands on, how a paced unit waits, what its block span is called,
//! where the thread's clock lives and what it hands back.
//!
//! The lanes need no buffer pool beside them: a [`LaneTx`] publishes
//! its full staging buffer into a ring slot and stages into whatever the
//! shard left in that slot (see [`crate::spsc`]), so a lane's buffers
//! are allocated on its first lap and circulate from then on.

use super::config::{FrameSource, Pace};
use crate::batch::{Backoff, Batch, DigestedPacket};
use crate::books::{end_at_ingest, Count, Disposition, Ledger};
use crate::obs::{Clock, Stage};
use crate::shard::{FlowState, LaneRx, ShardCounters, ShardEndState, ShardWorker};
use crate::spsc::{spsc, Producer};
use smartwatch_control::{SnapshotReader, SteeringSnapshot};
use smartwatch_net::hash::shard_for_digest;
use smartwatch_net::{FlowHasher, FrameStore, FrameView, HashDigest, Packet, RawTuple};
use smartwatch_telemetry::{Counter, FlightRing, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Packets between checkpoints.
const CHECKPOINT: usize = 256;

/// Frames per wire-path burst. Must match the width of
/// [`FlowHasher::flow_digest_batch8`] and divide [`CHECKPOINT`] so
/// checkpoints always land on burst boundaries.
const BURST: usize = 8;

/// A paced unit's arrival schedule: the run's [`Pace`] resolved against
/// the trace length into closed form over *global* packet indices —
/// every ingest unit computes its packets' due times from their global
/// sequence numbers, so C fused cores replay the same wall-clock arrival
/// process the single dispatcher would and a spike hits every core in
/// the same window — plus the live override (see
/// `Engine::set_rate_override`) from the packet it was first observed at.
/// Due times count from the unit's own first checkpoint, not from when
/// the segment opened: a unit that starts late (threads spawning, a
/// fused core resetting its flow state) starts its schedule late rather
/// than catching up in a burst the controller would read as overload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pacer {
    /// Inter-arrival gap (ns) outside and inside the spike window
    /// `[lo, hi)`; a constant rate is a spike of no packets.
    base_gap_ns: f64,
    peak_gap_ns: f64,
    lo: usize,
    hi: usize,
    /// `f64::to_bits` of the overriding gap (ns); `0` = no override.
    bits: u64,
    /// Due time (ns) and global index of the packet the override
    /// anchored at.
    anchor_due: f64,
    anchor_i: usize,
    /// When the unit reached its first checkpoint; `None` before.
    origin: Option<Instant>,
}

impl Pacer {
    /// `None` for flat-out: no arrival schedule, nothing to wait for,
    /// and the live override is ignored.
    pub(crate) fn resolve(pace: Pace, total: usize) -> Option<Pacer> {
        let (base_mpps, peak_mpps, spike_start, spike_end) = match pace {
            Pace::Flatout => return None,
            Pace::RateMpps(r) => (r, r, 0.0, 0.0),
            Pace::Spike {
                base_mpps,
                peak_mpps,
                spike_start,
                spike_end,
            } => (base_mpps, peak_mpps, spike_start, spike_end),
        };
        assert!(
            base_mpps > 0.0 && peak_mpps > 0.0,
            "offered rates must be positive"
        );
        assert!(
            spike_start <= spike_end,
            "spike must not end before it starts"
        );
        let total = total as f64;
        Some(Pacer {
            base_gap_ns: 1000.0 / base_mpps,
            peak_gap_ns: 1000.0 / peak_mpps,
            lo: (spike_start.clamp(0.0, 1.0) * total) as usize,
            hi: (spike_end.clamp(0.0, 1.0) * total) as usize,
            bits: 0,
            anchor_due: 0.0,
            anchor_i: 0,
            origin: None,
        })
    }

    /// Arrival deadline of global packet `i`. Under the plan: the sum of
    /// inter-arrival gaps of packets `0..=i`, in closed form so
    /// per-queue replay needs no shared accumulator. Under an override:
    /// its gap, forward from the anchor.
    fn due_ns(&self, i: usize) -> f64 {
        if self.bits != 0 {
            return self.anchor_due + (i - self.anchor_i) as f64 * f64::from_bits(self.bits);
        }
        let arrived = i + 1;
        let in_spike = arrived.clamp(self.lo, self.hi) - self.lo;
        (arrived - in_spike) as f64 * self.base_gap_ns + in_spike as f64 * self.peak_gap_ns
    }

    /// Pick up a changed override at packet `i`: re-anchor at its due
    /// time under the *old* schedule, so the new gap applies strictly
    /// forward — no retroactive burst, no stall. Releasing the override
    /// (`bits = 0`) returns to the plan's absolute schedule.
    fn observe(&mut self, bits: u64, i: usize) {
        if bits != self.bits {
            self.anchor_due = self.due_ns(i);
            self.anchor_i = i;
            self.bits = bits;
        }
    }
}

/// One ingest unit's share of the offered trace, as ascending global
/// indices — so each sub-stream preserves arrival order (and flow
/// affinity comes from the digest-based assignment).
pub(crate) enum QueueStream {
    /// A single unit replays the whole source: no split pre-pass.
    All(usize),
    Picked(Vec<u32>),
}

impl QueueStream {
    /// Global index of this stream's `k`-th packet.
    fn get(&self, k: usize) -> Option<usize> {
        match self {
            QueueStream::All(len) => (k < *len).then_some(k),
            QueueStream::Picked(idx) => idx.get(k).map(|&i| i as usize),
        }
    }
}

/// Split the trace across `units` ingest units by flow digest — the
/// software stand-in for NIC RSS / hardware flow steering, done outside
/// the timed region (the timed loop still digests every packet itself,
/// so per-packet work is identical at every unit count and in both
/// datapaths). `assign` is the topology's placement:
/// [`shard_for_digest`] for fused cores (a core ingests exactly the
/// packets whose FlowCache rows it owns); the one dispatcher takes the
/// whole trace and never calls it.
/// Wire sources take the digest the wire feed carries
/// ([`FlowHasher::flow_digest_raw`], bit-identical to the key-based
/// digest), so a flow lands on the same unit in either representation.
pub(crate) fn split_streams(
    source: FrameSource<'_>,
    units: usize,
    hasher: &FlowHasher,
    assign: impl Fn(HashDigest) -> usize,
) -> Vec<QueueStream> {
    let len = source.len();
    if units == 1 {
        return vec![QueueStream::All(len)];
    }
    let mut picked: Vec<Vec<u32>> = (0..units)
        .map(|_| Vec::with_capacity(len / units + 1))
        .collect();
    for i in 0..len {
        let digest = match source {
            FrameSource::Packets(packets) => hasher.hash_symmetric(&packets[i].key),
            FrameSource::Wire(store) => hasher.flow_digest_raw(store.view(i).raw_tuple()).digest,
        };
        picked[assign(digest)].push(i as u32);
    }
    picked.into_iter().map(QueueStream::Picked).collect()
}

/// A unit's sub-stream as digested packets in arrival order.
pub(crate) trait Feed {
    /// Global index of the packet the next [`Feed::next`] yields, `None`
    /// at end of stream. Asked at checkpoints only, *before* the packet
    /// is touched: pacing and drain decide on it first.
    fn head(&self) -> Option<usize>;
    fn next(&mut self) -> Option<DigestedPacket>;
}

/// The synthetic path: model packets, digested one by one.
struct PacketFeed<'a> {
    packets: &'a [Packet],
    stream: QueueStream,
    pos: usize,
    hasher: FlowHasher,
}

impl Feed for PacketFeed<'_> {
    fn head(&self) -> Option<usize> {
        self.stream.get(self.pos)
    }

    // Always inlined: out of line, every packet comes back through
    // memory and is copied once more into the staging buffer.
    #[inline(always)]
    fn next(&mut self) -> Option<DigestedPacket> {
        let i = self.stream.get(self.pos)?;
        self.pos += 1;
        let pkt = &self.packets[i];
        Some(DigestedPacket {
            pkt: *pkt,
            flow: self.hasher.flow_digest(&pkt.key),
        })
    }
}

/// The zero-copy wire path: packed frames received in [`BURST`]-sized
/// bursts and parsed where the [`FrameStore`] holds them — on the NIC
/// the frame reaches memory by DMA and the PMEs read its headers there,
/// so receiving costs no copy.
struct WireFeed<'a> {
    store: &'a FrameStore,
    stream: QueueStream,
    pos: usize,
    hasher: FlowHasher,
    /// The received burst and how much of it has been handed out.
    burst: [Option<DigestedPacket>; BURST],
    at: usize,
    len: usize,
}

impl WireFeed<'_> {
    /// Receive the next burst (full except at the stream's tail): parse
    /// each frame's headers in the store, digest all eight flows straight
    /// from the header bytes ([`FlowHasher::flow_digest_batch8`] —
    /// bit-identical to the key-based [`FlowHasher::flow_digest`],
    /// direction included, so placement, FlowCache rows and detector
    /// state match the synthetic path exactly) and rebuild the model
    /// [`Packet`]s from view + sideband. Touches no allocator.
    fn receive(&mut self) -> bool {
        let mut idx = [0usize; BURST];
        let mut m = 0;
        while m < BURST {
            let Some(i) = self.stream.get(self.pos + m) else {
                break;
            };
            idx[m] = i;
            m += 1;
        }
        self.pos += m;
        let mut tuples = [RawTuple::default(); BURST];
        let mut views: [Option<FrameView<'_>>; BURST] = Default::default();
        for j in 0..m {
            let v = FrameView::parse(self.store.frame(idx[j]))
                .expect("frame validated at store construction");
            tuples[j] = v.raw_tuple();
            views[j] = Some(v);
        }
        let wide = (m == BURST).then(|| self.hasher.flow_digest_batch8(&tuples));
        for j in 0..m {
            let v = views[j].expect("view parsed");
            let flow = match &wide {
                Some(digested) => digested[j],
                None => self.hasher.flow_digest_raw(tuples[j]),
            };
            self.burst[j] = Some(DigestedPacket {
                pkt: self.store.meta(idx[j]).packet(&v),
                flow,
            });
        }
        self.at = 0;
        self.len = m;
        m > 0
    }
}

impl Feed for WireFeed<'_> {
    fn head(&self) -> Option<usize> {
        debug_assert_eq!(self.at, self.len, "checkpoints land on burst starts");
        self.stream.get(self.pos)
    }

    #[inline]
    fn next(&mut self) -> Option<DigestedPacket> {
        if self.at == self.len && !self.receive() {
            return None;
        }
        self.at += 1;
        self.burst[self.at - 1]
    }
}

/// Where steered packets go, and the handful of places the two thread
/// topologies genuinely differ.
pub(crate) trait Sink {
    /// What the unit hands back at end of stream.
    type Out;
    /// The checkpoint block's span.
    const SPAN: Stage;
    /// The thread's clock: the block's sampling decision and every
    /// batch the block makes read it.
    fn clock(&mut self) -> &mut Clock;
    /// The shard books a steering drop of `digest` lands on.
    fn shard_books(&self, digest: HashDigest) -> &Ledger<Counter>;
    /// Wait out a paced arrival gap, until `due` after `origin`. The
    /// open-loop default parks for the bulk of a long gap (an idle
    /// dispatcher must not burn the core at low offered rates), then
    /// yield-spins the final stretch for timing accuracy.
    fn wait_until(&mut self, origin: Instant, due: Duration) {
        while let Some(remaining) = due.checked_sub(origin.elapsed()) {
            if remaining > Duration::from_micros(500) {
                std::thread::park_timeout(remaining - Duration::from_micros(200));
            } else {
                std::thread::yield_now();
            }
        }
    }
    /// Stage one packet; a full batch moves on.
    fn push(&mut self, dp: DigestedPacket, local: &mut Ledger);
    /// End of stream (or drain): move every staged packet on.
    fn flush(&mut self, local: &mut Ledger);
    /// Quiesce downstream.
    fn close(self) -> Self::Out;
}

/// The dispatcher's end of one lane: the producer half of its SPSC
/// ring and the buffer being staged for it. Parked with the engine
/// between segments, like the [`LaneRx`] at the other end.
pub(crate) struct LaneTx {
    tx: Producer<Batch>,
    buf: Vec<DigestedPacket>,
}

/// The `runtime.pool.*` books of the pipeline's lanes: lane buffers
/// allocated (a lane's first staging buffer, then one per slot found
/// empty on its ring's first lap) and returned through a slot.
#[derive(Clone)]
pub(crate) struct LaneBooks {
    allocated: Counter,
    recycled: Counter,
}

impl LaneBooks {
    pub(crate) fn registered(registry: &Registry) -> LaneBooks {
        LaneBooks {
            allocated: registry.counter("runtime.pool.allocated", &[]),
            recycled: registry.counter("runtime.pool.recycled", &[]),
        }
    }

    fn fresh(&self, batch: usize) -> Vec<DigestedPacket> {
        self.allocated.inc();
        Vec::with_capacity(batch)
    }

    /// One lane of `capacity` batches of `batch` packets, its first
    /// staging buffer allocated.
    pub(crate) fn lane(&self, capacity: usize, batch: usize) -> (LaneTx, LaneRx) {
        let (tx, rx) = spsc(capacity);
        let buf = self.fresh(batch);
        (LaneTx { tx, buf }, LaneRx::new(rx))
    }
}

/// The pipeline dispatcher's sink: one lane per shard, each with its
/// staging buffer, full batches exchanged into the lane
/// for the buffer the shard left there — stamped when the block that
/// made them is sampled.
pub(crate) struct LaneSink<'a> {
    pub clock: Clock,
    pub lanes: Vec<LaneTx>,
    pub books: LaneBooks,
    pub counters: &'a [ShardCounters],
    pub batch: usize,
    pub paced: bool,
    pub flight: FlightRing,
}

impl LaneSink<'_> {
    /// Publish lane `s`'s staging buffer as a batch (or, empty, as the
    /// `Stop` marker, which is never dropped — it blocks until a slot
    /// frees) and stage into what the slot held: the buffer the shard
    /// left there, or a fresh one on the ring's first lap. `false` when
    /// a paced batch found the ring full: the lane keeps the buffer it
    /// already holds, emptied.
    fn exchange(&mut self, s: usize, stop: bool) -> bool {
        let lane = &mut self.lanes[s];
        let msg = Batch {
            pkts: std::mem::take(&mut lane.buf),
            sent: if stop { None } else { self.clock.mark() },
            stop,
        };
        let pushed = if self.paced && !stop {
            lane.tx.try_exchange(msg)
        } else {
            Ok(lane.tx.exchange_blocking(msg))
        };
        match pushed {
            Ok(Some(spare)) => {
                self.books.recycled.inc();
                lane.buf = spare.pkts;
                true
            }
            Ok(None) => {
                lane.buf = self.books.fresh(self.batch);
                true
            }
            Err(msg) => {
                lane.buf = msg.pkts;
                lane.buf.clear();
                false
            }
        }
    }

    fn send(&mut self, s: usize, local: &mut Ledger) {
        let len = self.lanes[s].buf.len() as u64;
        if self.exchange(s, false) {
            self.counters[s].counts[Count::Ingested].add(len);
            local[Count::Ingested] += len;
        } else {
            // Open loop: a full ring at arrival time is a loss, and it
            // is *accounted* — never silent.
            let fate = Disposition::IngestDrop;
            end_at_ingest(fate, len, &self.counters[s].counts, local);
            fate.note(&self.flight, s as u64, len);
        }
        let depth = self.lanes[s].tx.len() as f64;
        self.counters[s].queue_depth.set(depth);
        self.counters[s].queue_depth_peak.set_max(depth);
    }
}

impl Sink for LaneSink<'_> {
    /// The lanes' producer ends, to be parked for the next segment.
    type Out = Vec<LaneTx>;
    const SPAN: Stage = Stage::Dispatch;

    fn clock(&mut self) -> &mut Clock {
        &mut self.clock
    }

    fn shard_books(&self, digest: HashDigest) -> &Ledger<Counter> {
        &self.counters[shard_for_digest(digest, self.counters.len())].counts
    }

    #[inline]
    fn push(&mut self, dp: DigestedPacket, local: &mut Ledger) {
        let s = shard_for_digest(dp.flow.digest, self.lanes.len());
        let buf = &mut self.lanes[s].buf;
        buf.push(dp);
        if buf.len() == self.batch {
            self.send(s, local);
        }
    }

    fn flush(&mut self, local: &mut Ledger) {
        for s in 0..self.lanes.len() {
            if !self.lanes[s].buf.is_empty() {
                self.send(s, local);
            }
        }
    }

    /// `Stop` down every lane, so a drained dispatcher quiesces the
    /// shards *exactly* like end-of-trace.
    fn close(mut self) -> Vec<LaneTx> {
        for s in 0..self.lanes.len() {
            self.exchange(s, true);
        }
        self.lanes
    }
}

/// The fused core's sink: one staging buffer, run in place on the owned
/// [`ShardWorker`] at every `batch`-packet boundary — exactly where the
/// pipeline dispatcher would have flushed a lane batch, so per-shard
/// decision streams are identical to the pipeline's. The pre-split
/// guarantees every packet belongs to this core's partition: nothing to
/// route, no lane to overrun (`ingest_dropped` stays 0 — a paced core
/// self-backpressures instead) and no queue crossing
/// (`runtime.stage.queue_ns` records nothing, which is the point). The
/// core's clock is its worker's: a sampled block's batches are timed in
/// place.
pub(crate) struct ShardSink {
    /// One buffer for the whole run — nothing is ever in flight on a
    /// lane — on loan from the worker's [`FlowState`], which parks it.
    buf: Vec<DigestedPacket>,
    batch: usize,
    backoff: Backoff,
    worker: ShardWorker,
}

impl ShardSink {
    pub(crate) fn new(batch: usize, mut worker: ShardWorker) -> ShardSink {
        let mut buf = std::mem::take(&mut worker.flow.stage);
        buf.reserve(batch);
        ShardSink {
            buf,
            batch,
            backoff: Backoff::new(),
            worker,
        }
    }
}

impl Sink for ShardSink {
    type Out = (ShardEndState, FlowState);
    const SPAN: Stage = Stage::RtcBlock;

    fn clock(&mut self) -> &mut Clock {
        &mut self.worker.obs.clock
    }

    fn shard_books(&self, _digest: HashDigest) -> &Ledger<Counter> {
        &self.worker.counters.counts
    }

    /// The shard [`Backoff`] ladder (spin → yield → park, parks counted
    /// as `idle_parks`): the core is also the shard, so at low offered
    /// rates it must not busy-spin the CPU its own processing runs on.
    fn wait_until(&mut self, origin: Instant, due: Duration) {
        while origin.elapsed() < due {
            if self.backoff.idle() {
                self.worker.counters.counts[Count::IdleParks].inc();
            }
        }
        self.backoff.reset();
    }

    #[inline]
    fn push(&mut self, dp: DigestedPacket, local: &mut Ledger) {
        self.buf.push(dp);
        if self.buf.len() == self.batch {
            self.flush(local);
        }
    }

    fn flush(&mut self, local: &mut Ledger) {
        if self.buf.is_empty() {
            return;
        }
        let len = self.buf.len() as u64;
        self.worker.counters.counts[Count::Ingested].add(len);
        local[Count::Ingested] += len;
        self.worker.obs.clock.hists[Stage::BatchPkts].record(len);
        self.worker.control_tick();
        let clock = &mut self.worker.obs.clock;
        let lap = clock.chain(clock.sampled());
        self.worker.process_group(&self.buf, lap);
        self.buf.clear();
    }

    /// The worker's stop tail: final verdicts, detector sweep,
    /// end-state freeze.
    fn close(mut self) -> Self::Out {
        self.worker.flow.stage = self.buf;
        self.worker.finish()
    }
}

/// What an ingest thread hands back at end of stream: whether it
/// stopped on a drain request rather than end-of-trace, and the sink's
/// own result.
pub(crate) struct IngestEnd<T> {
    pub interrupted: bool,
    pub out: T,
}

/// One ingest unit: replays its sub-stream at the globally-scheduled
/// arrival times, enforces steering, and feeds its [`Sink`].
pub(crate) struct Ingest<'a, S: Sink> {
    pub enforce_verdicts: bool,
    /// This unit's ingest books (`runtime.queue.*{queue=…}`; in RTC the
    /// ingest unit *is* the core).
    pub queue: &'a Ledger<Counter>,
    pub steer: Option<SnapshotReader<SteeringSnapshot>>,
    pub pacer: Option<Pacer>,
    /// Engine-shared live rate override and graceful-drain flag, both
    /// observed at checkpoints.
    pub pace_override: &'a AtomicU64,
    pub drain: &'a AtomicBool,
    /// This thread's flight-recorder ring (always on; drop events only).
    pub flight: FlightRing,
    pub sink: S,
}

impl<S: Sink> Ingest<'_, S> {
    /// Replay `stream` out of `source` to the end (or a drain request).
    pub(crate) fn run(
        self,
        source: FrameSource<'_>,
        stream: QueueStream,
        hasher: FlowHasher,
    ) -> IngestEnd<S::Out> {
        match source {
            FrameSource::Packets(packets) => self.pump(PacketFeed {
                packets,
                stream,
                pos: 0,
                hasher,
            }),
            FrameSource::Wire(store) => self.pump(WireFeed {
                store,
                stream,
                pos: 0,
                hasher,
                burst: [None; BURST],
                at: 0,
                len: 0,
            }),
        }
    }

    fn pump<F: Feed>(mut self, mut feed: F) -> IngestEnd<S::Out> {
        let mut local = Ledger::default();
        let mut k = 0usize;
        let mut interrupted = false;
        'stream: while let Some(head) = feed.head() {
            if self.checkpoint(k, head, &mut local) {
                interrupted = true;
                break;
            }
            for _ in 0..CHECKPOINT {
                let Some(dp) = feed.next() else {
                    break 'stream;
                };
                k += 1;
                local[Count::Offered] += 1;
                if !self.steered_out(&dp, &mut local) {
                    self.sink.push(dp, &mut local);
                }
            }
        }
        // The tail — shared with the graceful-drain path, which is the
        // point: a drained unit quiesces *exactly* like end-of-trace.
        self.sink.flush(&mut local);
        self.sink.clock().finish(S::SPAN);
        self.settle(&mut local, k.div_ceil(CHECKPOINT) as u64);
        IngestEnd {
            interrupted,
            out: self.sink.close(),
        }
    }

    /// The 256-packet checkpoint: observe a pending drain request
    /// (returns `true`: stop offering, quiesce), pick up the live pace
    /// override and pace to the block's first global arrival time,
    /// refresh the steering snapshot, settle the finished block's books
    /// and cross the block boundary on the clock — the finished block's
    /// span closes, the new block's sampling decision is made.
    fn checkpoint(&mut self, k: usize, head: usize, local: &mut Ledger) -> bool {
        // Check *before* pacing: a drain request must not wait out a
        // long inter-arrival sleep at low offered rates.
        if self.drain.load(Ordering::Acquire) {
            return true;
        }
        if let Some(pacer) = self.pacer.as_mut() {
            pacer.observe(self.pace_override.load(Ordering::Acquire), head);
            let origin = *pacer.origin.get_or_insert_with(Instant::now);
            let due = Duration::from_nanos(pacer.due_ns(head) as u64);
            self.sink.wait_until(origin, due);
        }
        // One atomic load; re-clones the snapshot Arc only when the
        // controller published since the last check.
        if let Some(sr) = self.steer.as_mut() {
            sr.refresh();
        }
        if k > 0 {
            self.settle(local, (k / CHECKPOINT) as u64);
        }
        self.sink.clock().turn(S::SPAN);
        false
    }

    /// Close a block's books: coalesce its steering drops into the
    /// black box (`local` resets at every fold, so its values are
    /// exactly the per-block deltas; ingest drops were black-boxed lane
    /// by lane as they happened) and fold the tally into the live
    /// counters — at every 256-packet checkpoint, so live readers
    /// (`/stats.json`, `/metrics`) see queue counters at most a
    /// checkpoint stale, and once more at end of stream (exactness).
    fn settle(&self, local: &mut Ledger, block_idx: u64) {
        for fate in [Disposition::Shed, Disposition::SteerDrop] {
            if local.fate(fate) > 0 {
                fate.note(&self.flight, local.fate(fate), block_idx);
            }
        }
        self.queue.fold(local);
    }

    /// Steering enforcement at ingest: blacklisted flows drop here —
    /// prevention at the earliest point — and under load shedding only
    /// whitelisted flows pass. Both are accounted per shard *and* per
    /// queue, so conservation includes them on both axes.
    #[inline]
    fn steered_out(&self, dp: &DigestedPacket, local: &mut Ledger) -> bool {
        let Some(sr) = &self.steer else {
            return false;
        };
        let snap = sr.current();
        let fate = if self.enforce_verdicts && snap.blacklist.contains(&dp.flow.digest.0) {
            Disposition::SteerDrop
        } else if snap.shed && !snap.whitelist.contains(&dp.flow.digest.0) {
            Disposition::Shed
        } else {
            return false;
        };
        end_at_ingest(fate, 1, self.sink.shard_books(dp.flow.digest), local);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::books::Axis;
    use crate::engine::Pace;
    use crate::obs::Clocks;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use smartwatch_telemetry::FlightRecorder;
    use std::net::Ipv4Addr;

    /// A sink that notes when each packet reached it.
    struct Arrivals {
        clock: Clock,
        books: Ledger<Counter>,
        at: Vec<Instant>,
    }

    impl Sink for Arrivals {
        type Out = Vec<Instant>;
        const SPAN: Stage = Stage::Dispatch;

        fn clock(&mut self) -> &mut Clock {
            &mut self.clock
        }

        fn shard_books(&self, _digest: HashDigest) -> &Ledger<Counter> {
            &self.books
        }

        fn push(&mut self, _dp: DigestedPacket, _local: &mut Ledger) {
            self.at.push(Instant::now());
        }

        fn flush(&mut self, _local: &mut Ledger) {}

        fn close(self) -> Vec<Instant> {
            self.at
        }
    }

    /// ROADMAP item 3's flow-state flake, cut down: a paced unit that
    /// reaches its first checkpoint 20 ms after its segment opened — the
    /// time threads take to spawn and a fused core to reset its flow
    /// state — must not make that time up in a burst (which the
    /// controller would read as overload): its first two blocks are
    /// still offered no faster than the rate. Pacing against the
    /// segment's origin, block 1 was due 2.57 ms after it, long past, and
    /// went out at once.
    #[test]
    fn a_late_unit_paces_from_its_own_first_checkpoint() {
        let gap = Duration::from_micros(10); // 0.1 Mpps
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2);
        let packets = vec![PacketBuilder::new(key, Ts::ZERO).build(); 2 * CHECKPOINT];
        let reg = Registry::new();
        let (pace_override, drain) = (AtomicU64::new(0), AtomicBool::new(false));
        let queue = Ledger::registered(&reg, Axis::Queue, 0);
        let clocks = Clocks::new(&reg, 0, None, 0);
        let segment_opened = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let unit = Ingest {
            enforce_verdicts: true,
            queue: &queue,
            steer: None,
            pacer: Pacer::resolve(Pace::RateMpps(0.1), packets.len()),
            pace_override: &pace_override,
            drain: &drain,
            flight: FlightRecorder::new(16).ring("sw-rxq-0"),
            sink: Arrivals {
                clock: clocks.thread("sw-rxq-0"),
                books: Ledger::registered(&reg, Axis::Shard, 0),
                at: Vec::new(),
            },
        };
        let run = Instant::now();
        let end = unit.run(
            FrameSource::Packets(&packets),
            QueueStream::All(packets.len()),
            FlowHasher::new(1),
        );
        let at = end.out;
        assert_eq!(at.len(), 2 * CHECKPOINT);
        let block_1 = at[CHECKPOINT].duration_since(run);
        assert!(
            block_1 >= gap * (CHECKPOINT as u32 + 1),
            "block 1 offered {block_1:?} into a unit whose segment opened {:?} before it ran",
            run.duration_since(segment_opened)
        );
    }

    /// A sink that keeps every descriptor it is handed.
    struct Descriptors {
        clock: Clock,
        books: Ledger<Counter>,
        kept: Vec<DigestedPacket>,
    }

    impl Sink for Descriptors {
        type Out = Vec<DigestedPacket>;
        const SPAN: Stage = Stage::Dispatch;

        fn clock(&mut self) -> &mut Clock {
            &mut self.clock
        }

        fn shard_books(&self, _digest: HashDigest) -> &Ledger<Counter> {
            &self.books
        }

        fn push(&mut self, dp: DigestedPacket, _local: &mut Ledger) {
            self.kept.push(dp);
        }

        fn flush(&mut self, _local: &mut Ledger) {}

        fn close(self) -> Vec<DigestedPacket> {
            self.kept
        }
    }

    /// Every descriptor either feed makes — model packets, and wire
    /// frames over v4 and v6 framing, full 8-wide bursts and the scalar
    /// tail — carries exactly `flow_digest` of its packet's key,
    /// direction included. The suite debug-asserts this per packet;
    /// here it holds in release too, where the shard takes the carried
    /// direction on trust.
    #[test]
    fn every_descriptor_carries_the_flow_digest_of_its_packet() {
        let hasher = FlowHasher::new(0x51CC);
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 168, 7, 9));
        // Both directions of each flow, port ties on one address either
        // way round and a self-flow — five shapes, so each lands on every
        // lane of the 8-wide bursts; not a whole number of bursts.
        let packets: Vec<Packet> = (0..CHECKPOINT as u16 + 13)
            .map(|i| {
                let key = match i % 5 {
                    0 => FlowKey::tcp(a, 40_000 + i, b, 443),
                    1 => FlowKey::tcp(b, 443, a, 40_000 + i),
                    2 => FlowKey::udp(b, 53 + i, b, 53),
                    3 => FlowKey::udp(b, 53, b, 53 + i),
                    _ => FlowKey::udp(a, 53, a, 53),
                };
                PacketBuilder::new(key, Ts::from_nanos(u64::from(i))).build()
            })
            .collect();
        let v4 = FrameStore::from_packets(&packets);
        let v6 = FrameStore::from_packets_v6(&packets);
        let sources = [
            FrameSource::Packets(&packets),
            FrameSource::Wire(&v4),
            FrameSource::Wire(&v6),
        ];
        for source in sources {
            let reg = Registry::new();
            let (pace_override, drain) = (AtomicU64::new(0), AtomicBool::new(false));
            let queue = Ledger::registered(&reg, Axis::Queue, 0);
            let unit = Ingest {
                enforce_verdicts: true,
                queue: &queue,
                steer: None,
                pacer: None,
                pace_override: &pace_override,
                drain: &drain,
                flight: FlightRecorder::new(16).ring("sw-rxq-0"),
                sink: Descriptors {
                    clock: Clocks::new(&reg, 0, None, 0).thread("sw-rxq-0"),
                    books: Ledger::registered(&reg, Axis::Shard, 0),
                    kept: Vec::new(),
                },
            };
            let kept = unit
                .run(source, QueueStream::All(packets.len()), hasher)
                .out;
            assert_eq!(kept.len(), packets.len());
            let mut directions = [0usize; 2];
            for (i, dp) in kept.iter().enumerate() {
                assert_eq!(dp.flow, hasher.flow_digest(&dp.pkt.key), "descriptor {i}");
                directions[usize::from(dp.flow.forward)] += 1;
            }
            assert!(directions.iter().all(|&n| n > 0), "{directions:?}");
        }
    }
}
