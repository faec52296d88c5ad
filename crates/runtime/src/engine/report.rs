//! What a run measured: the stage and FlowCache summaries, the merged
//! [`EngineReport`] over the two axes of the books ([`crate::books`]),
//! the conservation law, and the JSON renderings `/stats.json` and the
//! bench artefacts share.

use crate::books::{Axis, Count, Ledger};
use crate::obs::{Stage, StageHists};
use crate::shard::{ShardEndState, ShardStats, PROBE_HIST_SLOTS};
use serde::{Number, Value};
use smartwatch_control::ControlReport;
use smartwatch_telemetry::HistSnapshot;
use std::time::Duration;

/// Render a [`HistSnapshot`] as a JSON object — shared by
/// [`Engine::stats_json`](crate::Engine::stats_json) and the bench JSON
/// artifacts.
pub fn hist_value(h: &HistSnapshot) -> Value {
    Value::Object(vec![
        ("count".into(), uint(h.count)),
        ("sum".into(), uint(h.sum)),
        ("min".into(), uint(h.min)),
        ("max".into(), uint(h.max)),
        ("mean".into(), Value::Number(Number::F(h.mean))),
        ("p50".into(), uint(h.p50)),
        ("p90".into(), uint(h.p90)),
        ("p99".into(), uint(h.p99)),
        ("p999".into(), uint(h.p999)),
    ])
}

/// Aggregate per-stage wall-clock distributions. The times are sampled
/// — every batch, packet and escalation of a sampled unit of work (see
/// the runtime's one clock, `obs`), 1 unit in 16 per thread by default —
/// and the stages are exclusive: a sampled packet's FlowCache and
/// detector stamps are chained.
#[derive(Clone, Copy, Debug)]
pub struct StageSnapshot {
    /// Wait of a sampled batch between dispatcher enqueue and shard
    /// dequeue, ns (none under RTC: no lane).
    pub queue_ns: HistSnapshot,
    /// FlowCache stage per packet of a sampled batch, ns.
    pub cache_ns: HistSnapshot,
    /// Detector-suite stage per packet of a sampled batch, ns.
    pub detect_ns: HistSnapshot,
    /// Host-escalation round trip (shard hand-off → verdict published)
    /// of an escalation out of a sampled batch, ns. Inline triage
    /// records its synchronous call here.
    pub escalate_ns: HistSnapshot,
    /// Delivered batch sizes, packets — every batch.
    pub batch_pkts: HistSnapshot,
}

impl StageHists {
    /// Freeze the live stage histograms.
    pub(crate) fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            queue_ns: self[Stage::Queue].snapshot(),
            cache_ns: self[Stage::Cache].snapshot(),
            detect_ns: self[Stage::Detect].snapshot(),
            escalate_ns: self[Stage::Escalate].snapshot(),
            batch_pkts: self[Stage::BatchPkts].snapshot(),
        }
    }
}

/// Aggregate FlowCache behaviour across every shard partition: the
/// hit mix, the tag-filtered probe-length distribution, and how much
/// memory-level parallelism the batched lookup path actually achieved.
/// Every field is an exact counter summed over shards (no wall-clock
/// values), but the totals depend on how RSS split the trace, so this
/// section stays out of [`EngineReport::deterministic_summary`].
#[derive(Clone, Debug, Default)]
pub struct FlowCacheSummary {
    /// Configured lookup burst width (`EngineConfig::cache_burst`).
    pub burst: usize,
    /// Primary-buffer hits.
    pub p_hits: u64,
    /// Eviction-buffer hits.
    pub e_hits: u64,
    /// Misses (new-flow insertions).
    pub misses: u64,
    /// Fully-pinned-row escalations.
    pub to_host: u64,
    /// Records pushed to eviction rings by packet-path accesses
    /// (`evictions − cleanup_evictions`: a Lite-transition row cleanup
    /// pushes too, but no access asked for it).
    pub ring_pushes: u64,
    /// Probe-length histogram: slot `i` counts accesses that probed
    /// exactly `i` buckets (last slot absorbs longer probes).
    pub probe_hist: [u64; PROBE_HIST_SLOTS],
    /// Prefetch bursts issued by the batched path.
    pub bursts: u64,
    /// Packets covered by those bursts.
    pub burst_pkts: u64,
    /// FlowCache lines those bursts hinted: tag lines and slots.
    pub hinted_lines: u64,
}

impl FlowCacheSummary {
    pub(crate) fn aggregate(burst: usize, ends: &[ShardEndState]) -> FlowCacheSummary {
        let mut out = FlowCacheSummary {
            burst,
            ..FlowCacheSummary::default()
        };
        for e in ends {
            out.p_hits += e.cache.p_hits;
            out.e_hits += e.cache.e_hits;
            out.misses += e.cache.misses;
            out.to_host += e.cache.to_host;
            out.ring_pushes += e.cache.evictions - e.cache.cleanup_evictions;
            for (acc, v) in out.probe_hist.iter_mut().zip(e.probe_hist) {
                *acc += v;
            }
            out.bursts += e.bursts;
            out.burst_pkts += e.burst_pkts;
            out.hinted_lines += e.hinted_lines;
        }
        out
    }

    /// Hit rate over cache-processed packets (to-host escalations
    /// excluded, matching `CacheStats::hit_rate`).
    pub fn hit_rate(&self) -> f64 {
        let p = self.p_hits + self.e_hits + self.misses;
        if p == 0 {
            0.0
        } else {
            (self.p_hits + self.e_hits) as f64 / p as f64
        }
    }

    /// Mean probe length per access, in buckets.
    pub fn mean_probe_len(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for (len, &count) in self.probe_hist.iter().enumerate() {
            n += count;
            sum += count * len as u64;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Mean packets per prefetch burst — how deep the memory-level
    /// parallel pipeline actually ran (`<= burst`; short tails and
    /// sub-burst groups drag it down).
    pub fn mean_burst_depth(&self) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            self.burst_pkts as f64 / self.bursts as f64
        }
    }
}

/// Everything `Engine::run` measured.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Packets offered to the ingest units.
    pub offered: u64,
    /// Wall-clock time from first dispatch to last shard joined (the
    /// drain included).
    pub elapsed: Duration,
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Per-ingest-unit books (the one dispatcher, or one per fused
    /// core), in unit order.
    pub queues: Vec<Ledger>,
    /// Escalated packets processed by the host tier (pool or inline).
    pub host_processed: u64,
    /// Verdicts published to the control log.
    pub verdicts_published: u64,
    /// True when the run stopped on a graceful-drain request instead of
    /// end-of-trace. `offered` then reflects what the ingest units
    /// actually offered before stopping, so conservation still holds.
    pub interrupted: bool,
    /// Verdict-log entries still resident (slowest reader's lag) at
    /// mesh quiesce, before the controller's final drain — the soak
    /// harness trends this for leak detection.
    pub log_buffered: u64,
    /// Control-plane report (present when the engine ran with a
    /// controller attached). The controller is resident, so unlike the
    /// books above this is its *lifetime* view as of this segment's
    /// end: every count runs since the engine's first segment, the
    /// timeline and decision audit are the newest entries whichever
    /// segment they fell in.
    pub control: Option<ControlReport>,
    /// Per-stage latency/size distributions. Like `control`, and unlike
    /// the books above, not per segment: these are the registry's
    /// `runtime.stage.*` histograms as of this segment's end, cumulative
    /// over every segment run on that registry.
    pub stage: StageSnapshot,
    /// Aggregate FlowCache behaviour (hit mix, probe lengths, batch
    /// pipeline depth) summed across shard partitions.
    pub flowcache: FlowCacheSummary,
}

impl EngineReport {
    /// One count summed over the shards.
    pub fn total(&self, c: Count) -> u64 {
        total(shard_books(&self.shards), c)
    }

    /// Packets fully processed across all shards.
    pub fn processed(&self) -> u64 {
        self.total(Count::Processed)
    }

    /// Packets dropped at ingest across all shards.
    pub fn ingest_dropped(&self) -> u64 {
        self.total(Count::IngestDropped)
    }

    /// Packets shed at dispatch under controller load shedding.
    pub fn shed(&self) -> u64 {
        self.total(Count::Shed)
    }

    /// Packets dropped at dispatch by the steering blacklist.
    pub fn steer_dropped(&self) -> u64 {
        self.total(Count::SteerDropped)
    }

    /// Packets escalated to the host tier.
    pub fn escalated(&self) -> u64 {
        self.total(Count::Escalated)
    }

    /// Escalations dropped at the host ring.
    pub fn escalation_dropped(&self) -> u64 {
        self.total(Count::EscalationDropped)
    }

    /// Idle-loop parks across all shards (wall-clock dependent; excluded
    /// from [`EngineReport::deterministic_summary`]).
    pub fn idle_parks(&self) -> u64 {
        self.total(Count::IdleParks)
    }

    /// Wall-clock throughput in million packets per second, over
    /// *processed* packets (drops excluded).
    pub fn mpps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.processed() as f64 / secs / 1e6
        }
    }

    /// Ingest drop fraction of offered packets.
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.ingest_dropped() as f64 / self.offered as f64
        }
    }

    /// The conservation invariant (see [`conserved`]).
    pub fn conserved(&self) -> bool {
        conserved(self.offered, &self.shards, &self.queues)
    }

    /// A byte-stable rendering of every *deterministic* quantity (exact
    /// counters; no wall-clock values). With inline triage
    /// (`host_workers = 0`) and no controller, a flat-out run renders
    /// what [`reference::walk_shards`](crate::reference::walk_shards) renders for the
    /// same source and config — at any shard count, on either topology
    /// and at any burst width; the determinism tests diff exactly this.
    /// Per-queue breakdowns deliberately stay out of this rendering —
    /// they live in [`EngineReport::queues`] — because printing them
    /// would make the byte output depend on the topology's ingest unit
    /// count.
    pub fn deterministic_summary(&self) -> String {
        summary(
            self.offered,
            &self.shards,
            self.host_processed,
            self.verdicts_published,
        )
    }
}

/// The byte-stable rendering behind every `deterministic_summary`: the
/// engine's report and the [`reference`](crate::reference) oracle's
/// print through this one function.
pub(crate) fn summary(
    offered: u64,
    shards: &[ShardStats],
    host_processed: u64,
    verdicts: u64,
) -> String {
    let mut out = format!("offered={offered}\n");
    for (i, s) in shards.iter().enumerate() {
        out.push_str(&format!("shard{i}:"));
        for c in Axis::Shard.row() {
            // The goldens predate the ingest drop's full name.
            let label = if c == Count::IngestDropped {
                "dropped"
            } else {
                c.name()
            };
            out.push_str(&format!(" {label}={}", s.counts[c]));
        }
        out.push_str(&format!(
            " blacklisted={} whitelisted={} cache_resident={}\n",
            s.blacklisted, s.whitelisted, s.cache_resident,
        ));
    }
    out.push_str(&format!(
        "host_processed={host_processed} verdicts={verdicts}\n"
    ));
    out
}

/// The shard axis of the books.
fn shard_books(shards: &[ShardStats]) -> impl Iterator<Item = &Ledger> {
    shards.iter().map(|s| &s.counts)
}

/// One count summed over one axis.
pub(crate) fn total<'a>(books: impl Iterator<Item = &'a Ledger>, c: Count) -> u64 {
    books.map(|b| b[c]).sum()
}

/// Offered packets no [`Disposition`](crate::Disposition) accounts for
/// (or that more than one does): the distance between `offered` and
/// Σ dispositions — what a violated law is off by.
pub(crate) fn unaccounted(offered: u64, shards: &[ShardStats]) -> u64 {
    offered.abs_diff(shard_books(shards).map(Ledger::accounted).sum())
}

/// The conservation law over one set of books — shared by
/// [`EngineReport::conserved`] (a finished run's deltas) and the live
/// `/stats.json` (the cumulative counters). Σ dispositions = offered:
/// every offered packet met exactly one fate. And the books balance on
/// *both* axes: what an ingest unit was offered ended there
/// or was handed on, what a shard ingested ended on it, and the two
/// axes agree on the totals.
pub(crate) fn conserved(offered: u64, shards: &[ShardStats], queues: &[Ledger]) -> bool {
    unaccounted(offered, shards) == 0
        && shard_books(shards).all(|s| s[Count::Ingested] == s[Count::Processed])
        && queues.iter().all(|q| q[Count::Offered] == q.arrived())
        && total(queues.iter(), Count::Offered) == offered
        && total(queues.iter(), Count::Ingested) == total(shard_books(shards), Count::Ingested)
}

/// An unsigned JSON number.
pub(crate) fn uint(v: u64) -> Value {
    Value::Number(Number::U(v))
}

/// The counter half of `/stats.json` — totals, the conservation
/// verdict, one row per shard and per ingest unit — rendered from the
/// same books an [`EngineReport`] is built from. `offered` is the
/// per-queue sum: a live document has no trace length to cross-check
/// against.
pub(crate) fn books_value(
    shards: &[ShardStats],
    queues: &[Ledger],
    host_processed: u64,
) -> Vec<(String, Value)> {
    let offered = total(queues.iter(), Count::Offered);
    let shard_total = |c: Count| (c.name().to_string(), uint(total(shard_books(shards), c)));
    vec![
        (Count::Offered.name().into(), uint(offered)),
        shard_total(Count::Processed),
        shard_total(Count::IngestDropped),
        shard_total(Count::Shed),
        shard_total(Count::SteerDropped),
        ("host_processed".into(), uint(host_processed)),
        (
            "conserved".into(),
            Value::Bool(conserved(offered, shards, queues)),
        ),
        ("shards".into(), rows(Axis::Shard, shard_books(shards))),
        ("queues".into(), rows(Axis::Queue, queues.iter())),
    ]
}

/// One axis of the books as a `/stats.json` array: a row is its index
/// under the axis's label, then the counts of [`Axis::row`].
fn rows<'a>(axis: Axis, books: impl Iterator<Item = &'a Ledger>) -> Value {
    let row = |(i, b): (usize, &Ledger)| {
        let index = (axis.label().to_string(), uint(i as u64));
        let counts = axis.row().map(|c| (c.name().to_string(), uint(b[c])));
        Value::Object(std::iter::once(index).chain(counts).collect())
    };
    Value::Array(books.enumerate().map(row).collect())
}

/// The `stage` object of `/stats.json`: one key per histogram row of
/// the stage name table.
pub(crate) fn stage_value(h: &StageHists) -> Value {
    let row = |(stage, name): (Stage, &str)| (name.to_string(), hist_value(&h[stage].snapshot()));
    Value::Object(Stage::hists().map(row).collect())
}
