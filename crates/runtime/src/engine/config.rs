//! What an engine is told to run: the thread topology and its knobs
//! ([`EngineConfig`]), the offered-rate plan ([`Pace`]) and the packet
//! representation it replays ([`FrameSource`]).

use smartwatch_control::ControlConfig;
use smartwatch_net::{FrameStore, Packet};

/// How the engine maps the pipeline onto threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatapathMode {
    /// One `sw-rxq-0` dispatcher thread digests and steers, N shard
    /// threads process, one bounded SPSC lane per shard in between.
    /// The default.
    Pipeline,
    /// Run-to-completion: C = `shards` fused `sw-core-{i}` threads,
    /// each owning one shard partition *and* its ingest. The pre-split
    /// assigns packets by [`shard_for_digest`], so every flow's
    /// packets arrive at the core that
    /// owns its FlowCache rows, and the fast path — ingest → digest →
    /// FlowCache → detectors → verdict — runs in place with zero
    /// inter-thread queue crossings. Host escalation and control-plane
    /// sampling keep their existing channels. Decisions, counters and
    /// the deterministic summary are identical to [`Pipeline`] for the
    /// same seed; only the thread topology — and therefore the wall
    /// clock — changes. This is the engine's one multi-ingest
    /// topology: C cores, C ingest units.
    ///
    /// [`Pipeline`]: DatapathMode::Pipeline
    /// [`shard_for_digest`]: smartwatch_net::hash::shard_for_digest
    Rtc,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker shards (threads). Each owns a FlowCache partition and a
    /// full detector suite.
    pub shards: usize,
    /// Thread topology: one dispatcher feeding the shards
    /// ([`DatapathMode::Pipeline`], the default) or fused
    /// run-to-completion cores ([`DatapathMode::Rtc`]), where the
    /// ingest unit count *is* the shard count.
    pub datapath: DatapathMode,
    /// Packets per dispatch batch.
    pub batch: usize,
    /// Per-shard ingest queue capacity, in batches.
    pub queue_batches: usize,
    /// Rows per shard FlowCache partition (`2^row_bits`).
    pub cache_row_bits: u32,
    /// Host escalation workers. `0` runs triage inline on each shard —
    /// fully deterministic, used by the determinism tests.
    pub host_workers: usize,
    /// Escalated packets per source before triage blacklists its flows.
    pub triage_threshold: u64,
    /// Enforce blacklist verdicts on the shards (prevention). Disable to
    /// measure pure monitoring throughput.
    pub enforce_verdicts: bool,
    /// FlowCache hash seed (per-shard caches share it; partitioning
    /// comes from RSS, not from distinct hash functions).
    pub hash_seed: u64,
    /// FlowCache lookup burst width: shards prefetch this many rows
    /// ahead before probing (the memory-level-parallel batched path;
    /// `0` reads as `1`, one row at a time). Packet *decisions* are
    /// identical at every width — prefetching is architecturally inert,
    /// and every width equals the per-packet
    /// [`reference`](crate::reference) oracle — so this knob trades
    /// nothing but cache warmth.
    pub cache_burst: usize,
    /// Attach the adaptive control plane: an epoch thread that runs
    /// Algorithm 4 mode switching per shard, promotes heavy hitters,
    /// publishes steering snapshots and applies the operator's pins
    /// (load shedding among them). `None`
    /// runs the engine open-loop (the pre-control behaviour, and the
    /// deterministic-test configuration).
    pub control: Option<ControlConfig>,
    /// The sampling period of every engine thread's clock while a
    /// [`Tracer`](smartwatch_telemetry::Tracer) is attached (via
    /// [`Engine::attach_tracer`](crate::Engine::attach_tracer)): each
    /// thread times 1 unit of work in `trace_sample` — an ingest unit's
    /// 256-packet block with the batches and escalations it makes, a
    /// controller epoch — and those readings are
    /// both its chrome-trace spans and the `runtime.stage.*` samples.
    /// Without a tracer, or at `0` (no spans), the period is 16. Every
    /// counter starts at the engine's segment index (a new phase each
    /// segment), so in an engine's first segment the threads that tick
    /// one of their own — ingest units and the controller — trace
    /// their first unit and own a span at any period; pipeline shards
    /// and host workers trace the sampled work that reaches them.
    pub trace_sample: u64,
}

impl EngineConfig {
    /// Defaults for `shards` workers: the pipeline, 64-packet batches,
    /// 64-batch queues, 2^12-row partitions, one host worker.
    pub fn new(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            datapath: DatapathMode::Pipeline,
            batch: 64,
            queue_batches: 64,
            cache_row_bits: 12,
            host_workers: 1,
            triage_threshold: 64,
            enforce_verdicts: true,
            hash_seed: 0x51CC,
            cache_burst: smartwatch_snic::BURST,
            control: None,
            trace_sample: 0,
        }
    }

    /// Attach a control plane. The engine builds its controller under
    /// the engine's own hash seed, so verdict/steering digests line up
    /// with dispatch digests.
    pub fn with_control(mut self, ctrl: ControlConfig) -> EngineConfig {
        self.control = Some(ctrl);
        self
    }

    /// Ingest units the engine actually runs: the one dispatcher in
    /// pipeline mode, the fused core (= shard) count in RTC mode. This
    /// is how many `runtime.queue.*{queue=Q}` label sets the run
    /// populates and how many entries
    /// [`EngineReport::queues`](crate::EngineReport::queues) carries.
    pub fn ingest_units(&self) -> usize {
        match self.datapath {
            DatapathMode::Pipeline => 1,
            DatapathMode::Rtc => self.shards,
        }
    }

    /// Batch buffers the lanes hold once every lane has been round
    /// its ring: `queue_batches` in a lane's slots, one staged at its
    /// dispatcher, one in its shard's hands. `runtime.pool.allocated`
    /// reaches this and stops, under every thread schedule; a lane gets
    /// there within its first `queue_batches + 2` batches. RTC has no
    /// lanes.
    pub fn lane_buffers(&self) -> usize {
        match self.datapath {
            DatapathMode::Pipeline => self.shards * (self.queue_batches + 2),
            DatapathMode::Rtc => 0,
        }
    }
}

/// How the replay driver offers packets to the engine.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// As fast as the shards accept: a full queue exerts backpressure on
    /// the dispatcher (no drops). Measures pipeline capacity.
    Flatout,
    /// Open-loop at a target offered rate in Mpps: a full queue at
    /// arrival time is a counted drop, like a NIC RX ring overrun.
    RateMpps(f64),
    /// Open-loop at `base_mpps` with one rectangular overload spike at
    /// `peak_mpps` while the replay position is inside
    /// `[spike_start, spike_end)` (fractions of the packet sequence).
    /// This is the control plane's repro workload: the spike drives
    /// Algorithm 4 into Lite; the return to base rate must recover
    /// General.
    Spike {
        /// Offered rate outside the spike, Mpps.
        base_mpps: f64,
        /// Offered rate inside the spike, Mpps.
        peak_mpps: f64,
        /// Spike start as a fraction of the sequence, `0.0..=1.0`.
        spike_start: f64,
        /// Spike end as a fraction of the sequence, `0.0..=1.0`.
        spike_end: f64,
    },
}

/// What the engine replays: a slice of pre-built model packets (the
/// synthetic path) or a packed arena of validated wire frames parsed in
/// place at dispatch (the zero-copy wire path).
#[derive(Clone, Copy)]
pub enum FrameSource<'a> {
    /// Generator output replayed as owned [`Packet`] values.
    Packets(&'a [Packet]),
    /// Compiled or captured wire frames ([`FrameStore`]): ingest units
    /// parse the headers where the store holds them with
    /// [`FrameView`](smartwatch_net::FrameView) and digest straight
    /// from the header bytes — no copy, as a NIC's PMEs read a frame
    /// where its DMA put it.
    Wire(&'a FrameStore),
}

impl FrameSource<'_> {
    /// Packets this source offers.
    pub fn len(&self) -> usize {
        match self {
            FrameSource::Packets(p) => p.len(),
            FrameSource::Wire(s) => s.len(),
        }
    }

    /// True when the source offers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
