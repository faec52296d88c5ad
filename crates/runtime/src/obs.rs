//! One clock per engine thread: the sampled boundary readings behind
//! the `runtime.stage.*` histograms and the wall-clock trace spans.
//!
//! Every engine thread owns one [`Clock`] and times only what its unit
//! of work was sampled for. A unit is sampled by one predicate — one
//! counter per thread, period [`PERIOD`], or
//! [`EngineConfig::trace_sample`](crate::EngineConfig::trace_sample)
//! while a tracer is attached — made once, where the work is made, and
//! carried with it: an ingest unit ticks per 256-packet checkpoint block
//! and stamps the lane batches and in-place batches that block makes; a
//! pipeline shard and a host worker read the stamp the work arrived
//! with; only the controller (an epoch) ticks a counter of its own. A sampled unit reads the clock
//! once per boundary and nowhere else; an unsampled one never reads it.
//! Inside a sampled batch the stamps are chained — the end of one
//! packet's FlowCache stage is the start of its suite stage, whose end
//! starts the next packet's — so the stages are exclusive by
//! construction.
//!
//! A reading closes a [`Stage`]: into its histogram when the name table
//! gives it one, and, with a tracer attached, into a span on the
//! thread's track (`sw-rxq-0`, `sw-core-{i}`, `sw-shard-{i}`,
//! `sw-host-{w}`, `sw-control`) — the same two readings, so the spans
//! and the histograms cannot disagree. Every counter starts at the
//! engine's segment index — a different phase each segment, so a replay
//! repeated segment after segment is not sampled at the same packets
//! every time — which is zero in the first segment: there the threads
//! that tick one — ingest units (the dispatcher or the fused cores) and
//! the controller — are guaranteed a first span at any period; pipeline
//! shards and host workers get spans for the sampled work that reaches
//! them.

use crate::batch::Batch;
use smartwatch_net::Dur;
use smartwatch_telemetry::{Histogram, Registry, TraceShard, Tracer, WallAnchor};
use std::ops::Index;
use std::time::Instant;

/// The sampling period of an engine thread without a tracer: 1 unit
/// in 16.
pub(crate) const PERIOD: u64 = 16;

/// What a clock reading can close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// A lane batch's wait, dispatcher hand-off → shard admit.
    Queue,
    /// One packet's FlowCache stage.
    Cache,
    /// One packet's detector-suite stage.
    Detect,
    /// An escalation's round trip: shard hand-off → verdict published
    /// (inline triage: the synchronous call).
    Escalate,
    /// A delivered batch's size, packets — not a time: recorded for
    /// every batch, with no clock read.
    BatchPkts,
    /// A sampled batch on its shard, first reading → last.
    Process,
    /// A dispatcher's checkpoint block.
    Dispatch,
    /// A fused core's checkpoint block.
    RtcBlock,
    /// One controller epoch.
    Epoch,
}

/// One row per [`Stage`], in its order: the `runtime.stage.{name}`
/// histogram it feeds — also its `stage` key in `/stats.json` — then the
/// name and category of the span a tracer gets; `""` for none. Stages
/// with a histogram come first: their index is the histogram's.
const TABLE: [(Stage, &str, &str, &str); 9] = [
    (Stage::Queue, "queue_ns", "lane wait", "lane"),
    (Stage::Cache, "cache_ns", "", ""),
    (Stage::Detect, "detect_ns", "", ""),
    (
        Stage::Escalate,
        "escalate_ns",
        "escalation round-trip",
        "host",
    ),
    (Stage::BatchPkts, "batch_pkts", "", ""),
    (Stage::Process, "", "shard process", "shard"),
    (Stage::Dispatch, "", "dispatch", "rxq"),
    (Stage::RtcBlock, "", "rtc block", "core"),
    (Stage::Epoch, "", "epoch apply", "control"),
];

/// Stages with a histogram.
const HISTS: usize = 5;

// Indexed by discriminant, histogram rows first.
const _: () = {
    let mut i = 0;
    while i < TABLE.len() {
        let ordered = TABLE[i].0 as usize == i && TABLE[i].1.is_empty() == (i >= HISTS);
        assert!(ordered, "name table out of order");
        i += 1;
    }
};

impl Stage {
    /// The stages with a histogram, in `/stats.json` order, with their
    /// names.
    pub(crate) fn hists() -> impl Iterator<Item = (Stage, &'static str)> {
        TABLE[..HISTS].iter().map(|&(s, name, ..)| (s, name))
    }
}

/// The engine's `runtime.stage.*` histograms, one per histogram row of
/// the name table (lock-free handles every clock shares).
#[derive(Clone)]
pub(crate) struct StageHists([Histogram; HISTS]);

impl StageHists {
    pub(crate) fn registered(reg: &Registry) -> StageHists {
        // One buffer for every name, as `Ledger::registered` does: this
        // runs once per segment, under the steady segment's allocator
        // budget.
        let mut metric = String::with_capacity(32);
        StageHists(std::array::from_fn(|i| {
            metric.clear();
            metric.extend(["runtime.stage.", TABLE[i].1]);
            reg.histogram(&metric, &[])
        }))
    }
}

impl Index<Stage> for StageHists {
    type Output = Histogram;

    fn index(&self, stage: Stage) -> &Histogram {
        &self.0[stage as usize]
    }
}

/// What every clock of one segment is built from: the stage histograms,
/// where their counters start, and, with a tracer attached and a
/// non-zero `trace_sample`, the tracer, the segment's wall-clock anchor —
/// every track maps its readings onto one axis — and the period it
/// samples at.
#[derive(Clone)]
pub(crate) struct Clocks {
    pub hists: StageHists,
    phase: u64,
    trace: Option<(Tracer, WallAnchor, u64)>,
}

impl Clocks {
    /// The clocks of one segment of an engine on `reg`, `every` being
    /// its `trace_sample`. `phase` is where every counter starts: the
    /// engine's segment index, so a replay repeated segment after
    /// segment is not sampled at the same units every time (a fixed
    /// phase would time the same packets of a deterministic trace
    /// forever, and never those between them) while the first segment
    /// starts at zero.
    pub(crate) fn new(reg: &Registry, phase: u64, tracer: Option<&Tracer>, every: u64) -> Clocks {
        Clocks {
            hists: StageHists::registered(reg),
            phase,
            trace: tracer
                .filter(|_| every > 0)
                .map(|t| (t.clone(), WallAnchor::new(), every)),
        }
    }

    /// The clock of the thread called `name`.
    pub(crate) fn thread(&self, name: &str) -> Clock {
        Clock {
            every: self.trace.as_ref().map_or(PERIOD, |t| t.2),
            count: self.phase,
            unit: None,
            hists: self.hists.clone(),
            track: self
                .trace
                .as_ref()
                .map(|(tracer, anchor, _)| (tracer.shard(name), *anchor)),
            #[cfg(test)]
            reads: 0,
        }
    }
}

/// A batch's chain of stage readings, handed from packet to packet:
/// the reading that opened it and the latest one. Only a [`Clock`]
/// builds one, and an unsampled batch's holds no reading, so
/// [`Clock::lap`] on it reads nothing.
pub(crate) struct Lap {
    from: Option<Instant>,
    at: Option<Instant>,
}

impl Lap {
    /// The latest reading of a sampled chain: what an escalation hands
    /// off.
    pub(crate) fn at(&self) -> Option<Instant> {
        self.at
    }
}

/// One thread's clock: its one sampling counter, the reading that opened
/// its unit in flight (when that unit is sampled), and where readings
/// go. Not shared — each thread owns its own.
pub(crate) struct Clock {
    every: u64,
    count: u64,
    unit: Option<Instant>,
    pub hists: StageHists,
    track: Option<(TraceShard, WallAnchor)>,
    /// Clock reads so far.
    #[cfg(test)]
    pub reads: u64,
}

impl Clock {
    /// Advance this thread's counter: whether the unit about to start is
    /// sampled. In an engine's first segment the first unit always is.
    pub(crate) fn sample(&mut self) -> bool {
        let hit = self.count.is_multiple_of(self.every);
        self.count += 1;
        hit
    }

    /// The one clock read.
    pub(crate) fn now(&mut self) -> Instant {
        #[cfg(test)]
        {
            self.reads += 1;
        }
        Instant::now()
    }

    /// A reading if `sampled`, no read otherwise.
    fn stamp(&mut self, sampled: bool) -> Option<Instant> {
        sampled.then(|| self.now())
    }

    /// Whether the unit in flight is sampled.
    pub(crate) fn sampled(&self) -> bool {
        self.unit.is_some()
    }

    /// A reading if the unit in flight is sampled: what the work it makes
    /// carries.
    pub(crate) fn mark(&mut self) -> Option<Instant> {
        self.stamp(self.sampled())
    }

    /// A batch's chain, opened at a reading if `sampled`.
    pub(crate) fn chain(&mut self, sampled: bool) -> Lap {
        let at = self.stamp(sampled);
        Lap { from: at, at }
    }

    /// Admit a lane batch: record its size and, when its dispatcher
    /// sampled it, close its lane wait at one reading, which opens its
    /// chain.
    pub(crate) fn admit(&mut self, batch: &Batch) -> Lap {
        self.hists[Stage::BatchPkts].record(batch.pkts.len() as u64);
        let at = batch.sent.map(|sent| {
            let now = self.now();
            self.close(Stage::Queue, sent, now);
            now
        });
        Lap { from: at, at }
    }

    /// Cross a boundary of this thread's own units: close the one in
    /// flight as `stage` and open the next one. One read serves both
    /// ends, and only when either unit is sampled.
    pub(crate) fn turn(&mut self, stage: Stage) {
        let next = self.sample();
        let mut at = self.unit.take();
        self.read_on(&mut at, stage);
        self.unit = next.then(|| at.unwrap_or_else(|| self.now()));
    }

    /// Close the unit in flight as `stage`, opening none.
    pub(crate) fn finish(&mut self, stage: Stage) {
        let mut at = self.unit.take();
        self.read_on(&mut at, stage);
    }

    /// A stage of a batch's chain ends: close it at one reading, which
    /// starts the next stage. An unsampled chain reads nothing.
    #[inline]
    pub(crate) fn lap(&mut self, lap: &mut Lap, stage: Stage) {
        self.read_on(&mut lap.at, stage);
    }

    /// Close a chain as `stage`, first reading → last; nothing for an
    /// unsampled one.
    pub(crate) fn end(&self, lap: Lap, stage: Stage) {
        if let (Some(from), Some(to)) = (lap.from, lap.at) {
            self.close(stage, from, to);
        }
    }

    /// Close `stage` at one reading, which `at` then holds — only when
    /// `at` holds one already.
    #[inline]
    fn read_on(&mut self, at: &mut Option<Instant>, stage: Stage) {
        if let Some(from) = *at {
            let now = self.now();
            self.close(stage, from, now);
            *at = Some(now);
        }
    }

    /// Record `from → to` as `stage`: into its histogram, and as a span
    /// on this thread's track when traced.
    #[inline]
    pub(crate) fn close(&self, stage: Stage, from: Instant, to: Instant) {
        let ns = to.saturating_duration_since(from).as_nanos() as u64;
        let (_, hist, name, cat) = TABLE[stage as usize];
        if !hist.is_empty() {
            self.hists[stage].record(ns);
        }
        if let Some((shard, anchor)) = self.track.as_ref().filter(|_| !name.is_empty()) {
            shard.span(anchor.ts_of(from), Dur::from_nanos(ns), name, cat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clocks(tracer: Option<&Tracer>, trace_sample: u64) -> Clocks {
        Clocks::new(&Registry::new(), 0, tracer, trace_sample)
    }

    #[test]
    fn the_first_unit_is_sampled_then_one_in_the_period() {
        let tracer = Tracer::new(16);
        for (clocks, every) in [
            (clocks(None, 64), PERIOD),
            (clocks(Some(&tracer), 0), PERIOD),
            (clocks(Some(&tracer), 64), 64),
        ] {
            let mut c = clocks.thread("t");
            let hits: Vec<u64> = (0..3 * every).filter(|_| c.sample()).collect();
            assert_eq!(hits.len(), 3, "period {every}");
        }
    }

    /// Segment `k` starts every counter at `k`: a replay repeated
    /// segment after segment samples a different unit each time, and
    /// every unit once in a period of segments.
    #[test]
    fn each_segment_samples_at_its_own_phase() {
        let reg = Registry::new();
        let first_sampled: Vec<u64> = (0..PERIOD)
            .map(|segment| {
                let mut c = Clocks::new(&reg, segment, None, 0).thread("t");
                (0..PERIOD)
                    .find(|_| c.sample())
                    .expect("one unit per period")
            })
            .collect();
        assert_eq!(
            first_sampled[0], 0,
            "the first segment samples its first unit"
        );
        let mut units = first_sampled.clone();
        units.sort_unstable();
        assert_eq!(units, (0..PERIOD).collect::<Vec<_>>(), "{first_sampled:?}");
    }

    #[test]
    fn an_unsampled_unit_reads_nothing_and_one_read_serves_a_boundary() {
        let mut c = clocks(None, 0).thread("t");
        c.turn(Stage::Dispatch); // unit 0: sampled, one read
        assert_eq!(c.reads, 1);
        assert!(c.mark().is_some());
        c.turn(Stage::Dispatch); // closes 0, opens unsampled 1: one read
        assert_eq!((c.reads, c.mark()), (3, None));
        for _ in 2..PERIOD {
            c.turn(Stage::Dispatch);
            let mut chain = c.chain(c.sampled());
            c.lap(&mut chain, Stage::Cache);
        }
        assert_eq!(c.reads, 3, "unsampled units read no clock");
        c.turn(Stage::Dispatch); // unit 16: sampled
        c.finish(Stage::Dispatch);
        assert_eq!(c.reads, 5);
    }

    #[test]
    fn a_reading_lands_in_its_histogram_and_on_the_named_track() {
        let tracer = Tracer::new(16);
        let clocks = clocks(Some(&tracer), 1);
        let mut c = clocks.thread("sw-test-0");
        let mut chain = c.chain(true);
        c.lap(&mut chain, Stage::Cache);
        c.lap(&mut chain, Stage::Queue);
        c.hists[Stage::BatchPkts].record(64);
        assert_eq!(clocks.hists[Stage::Cache].count(), 1);
        assert_eq!(clocks.hists[Stage::BatchPkts].max(), 64);
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"sw-test-0\""));
        assert!(json.contains("\"lane wait\""), "a stage with a span label");
        assert_eq!(tracer.len(), 1, "the FlowCache stage has no span");
    }
}
