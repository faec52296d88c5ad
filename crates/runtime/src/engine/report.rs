//! What a run measured: the per-queue ingest books ([`QueueStats`] and
//! the live counters behind them), the stage and FlowCache summaries,
//! the merged [`EngineReport`], the two-axis conservation law, and the
//! JSON renderings `/stats.json` and the bench artefacts share.

use crate::shard::{ShardEndState, ShardStats, StageHists, PROBE_HIST_SLOTS};
use serde::{Number, Value};
use smartwatch_control::{ControlReport, DecisionRecord};
use smartwatch_telemetry::{Counter, HistSnapshot, Registry};
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

/// Render a controller [`DecisionRecord`] as a JSON object — shared by
/// [`Engine::stats_json`](crate::Engine::stats_json) and the bench
/// control timeline.
pub fn decision_value(d: &DecisionRecord) -> Value {
    let smoothed = d.smoothed_mpps.iter().map(|&f| Value::Number(Number::F(f)));
    let modes = d.modes.iter().map(|m| Value::String(m.label().into()));
    Value::Object(vec![
        ("epoch".into(), uint(d.epoch)),
        (
            "offered_mpps".into(),
            Value::Number(Number::F(d.offered_mpps)),
        ),
        ("smoothed_mpps".into(), Value::Array(smoothed.collect())),
        ("max_backlog".into(), uint(d.max_backlog)),
        ("modes".into(), Value::Array(modes.collect())),
        ("shed".into(), Value::Bool(d.shed)),
        ("promotions".into(), uint(d.promotions)),
        ("whitelist_evictions".into(), uint(d.whitelist_evictions)),
        ("whitelist_len".into(), uint(d.whitelist_len as u64)),
        ("blacklist_len".into(), uint(d.blacklist_len as u64)),
        (
            "snapshot_published".into(),
            Value::Bool(d.snapshot_published),
        ),
    ])
}

/// Per-RX-queue dispatcher counters, registered as
/// `runtime.queue.*{queue=Q}`.
#[derive(Clone)]
pub(crate) struct QueueCounters {
    /// Packets of the offered trace assigned to this queue.
    pub offered: Counter,
    /// Packets this queue enqueued onto its shard lanes.
    pub ingested: Counter,
    /// Packets dropped at this queue's lanes (full ring, paced mode).
    pub ingest_dropped: Counter,
    /// Packets this queue shed under controller load shedding.
    pub shed: Counter,
    /// Packets this queue dropped on the steering blacklist.
    pub steer_dropped: Counter,
}

impl QueueCounters {
    pub(crate) fn registered(reg: &Registry, queue: usize) -> QueueCounters {
        let q = queue.to_string();
        let l: &[(&str, &str)] = &[("queue", &q)];
        QueueCounters {
            offered: reg.counter("runtime.queue.offered", l),
            ingested: reg.counter("runtime.queue.ingested", l),
            ingest_dropped: reg.counter("runtime.queue.ingest_dropped", l),
            shed: reg.counter("runtime.queue.shed", l),
            steer_dropped: reg.counter("runtime.queue.steer_dropped", l),
        }
    }

    pub(crate) fn snapshot(&self) -> QueueStats {
        QueueStats {
            offered: self.offered.get(),
            ingested: self.ingested.get(),
            ingest_dropped: self.ingest_dropped.get(),
            shed: self.shed.get(),
            steer_dropped: self.steer_dropped.get(),
        }
    }

    /// Fold an ingest unit's plain-integer tallies into the shared
    /// atomics and reset them — at every 256-packet checkpoint (so live
    /// readers — `/stats.json`, `/metrics` — see queue counters at most
    /// a checkpoint stale) and once more at end of stream (exactness).
    pub(crate) fn fold(&self, local: &mut QueueStats) {
        self.offered.add(local.offered);
        self.ingested.add(local.ingested);
        self.ingest_dropped.add(local.ingest_dropped);
        self.shed.add(local.shed);
        self.steer_dropped.add(local.steer_dropped);
        *local = QueueStats::default();
    }
}

/// Per-RX-queue dispatcher statistics: the report view, and the
/// plain-integer tallies an ingest unit keeps between folds. The
/// queue-local conservation law is
/// `offered = ingested + ingest_dropped + shed + steer_dropped`.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Packets of the offered trace assigned to this queue by RSS.
    pub offered: u64,
    /// Packets enqueued onto this queue's shard lanes.
    pub ingested: u64,
    /// Packets dropped at full lanes (paced mode).
    pub ingest_dropped: u64,
    /// Packets shed under controller load shedding.
    pub shed: u64,
    /// Packets dropped on the steering blacklist.
    pub steer_dropped: u64,
}

/// Aggregate per-stage wall-clock distributions.
#[derive(Clone, Copy, Debug)]
pub struct StageSnapshot {
    /// Batch wait between dispatcher enqueue and shard dequeue, ns.
    pub queue_ns: HistSnapshot,
    /// FlowCache stage per sampled packet, ns.
    pub cache_ns: HistSnapshot,
    /// Detector-suite stage per sampled packet, ns.
    pub detect_ns: HistSnapshot,
    /// Host-escalation round trip (shard hand-off → verdict published),
    /// ns. Inline triage records its synchronous call here.
    pub escalate_ns: HistSnapshot,
    /// Delivered batch sizes, packets.
    pub batch_pkts: HistSnapshot,
}

impl StageHists {
    /// Freeze the live stage histograms.
    pub(crate) fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            queue_ns: self.queue_ns.snapshot(),
            cache_ns: self.cache_ns.snapshot(),
            detect_ns: self.detect_ns.snapshot(),
            escalate_ns: self.escalate_ns.snapshot(),
            batch_pkts: self.batch_pkts.snapshot(),
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
    /// Configured lookup burst width (`EngineConfig::cache_burst`;
    /// `<= 1` means the per-packet reference path ran).
    pub burst: usize,
    /// Primary-buffer hits.
    pub p_hits: u64,
    /// Eviction-buffer hits.
    pub e_hits: u64,
    /// Misses (new-flow insertions).
    pub misses: u64,
    /// Fully-pinned-row escalations.
    pub to_host: u64,
    /// Records pushed to eviction rings by packet-path accesses.
    pub ring_pushes: u64,
    /// Probe-length histogram: slot `i` counts accesses that probed
    /// exactly `i` buckets (last slot absorbs longer probes).
    pub probe_hist: [u64; PROBE_HIST_SLOTS],
    /// Prefetch bursts issued by the batched path.
    pub bursts: u64,
    /// Packets covered by those bursts.
    pub burst_pkts: u64,
}

impl FlowCacheSummary {
    pub(crate) fn aggregate(burst: usize, ends: &[ShardEndState]) -> FlowCacheSummary {
        let mut out = FlowCacheSummary {
            burst,
            ..FlowCacheSummary::default()
        };
        for e in ends {
            out.p_hits += e.cache_mix.p_hits;
            out.e_hits += e.cache_mix.e_hits;
            out.misses += e.cache_mix.misses;
            out.to_host += e.cache_mix.to_host;
            out.ring_pushes += e.cache_mix.ring_pushes;
            for (acc, v) in out.probe_hist.iter_mut().zip(e.probe_hist) {
                *acc += v;
            }
            out.bursts += e.bursts;
            out.burst_pkts += e.burst_pkts;
        }
        out
    }

    /// Total packet-path cache accesses.
    pub fn accesses(&self) -> u64 {
        self.p_hits + self.e_hits + self.misses + self.to_host
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
    /// Packets offered to the dispatcher.
    pub offered: u64,
    /// Wall-clock time from first dispatch to last shard joined (the
    /// drain included).
    pub elapsed: Duration,
    /// Per-shard statistics.
    pub shards: Vec<ShardStats>,
    /// Per-RX-queue dispatcher statistics, in queue order (canonical:
    /// queue 0 first — merge order never depends on thread timing).
    pub queues: Vec<QueueStats>,
    /// Escalated packets processed by the host tier (pool or inline).
    pub host_processed: u64,
    /// Verdicts published to the control log.
    pub verdicts_published: u64,
    /// True when the run stopped on a graceful-drain request instead of
    /// end-of-trace. `offered` then reflects what the dispatchers
    /// actually offered before stopping, so conservation still holds.
    pub interrupted: bool,
    /// Verdict-log entries still resident (slowest reader's lag) at
    /// mesh quiesce, before the controller's final drain — the soak
    /// harness trends this for leak detection.
    pub log_buffered: u64,
    /// Control-plane report (present when the engine ran with a
    /// controller attached).
    pub control: Option<ControlReport>,
    /// Per-stage latency/size distributions.
    pub stage: StageSnapshot,
    /// Aggregate FlowCache behaviour (hit mix, probe lengths, batch
    /// pipeline depth) summed across shard partitions.
    pub flowcache: FlowCacheSummary,
}

impl EngineReport {
    /// Packets fully processed across all shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Packets dropped at ingest across all shards.
    pub fn ingest_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.ingest_dropped).sum()
    }

    /// Packets shed at dispatch under controller load shedding.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Packets dropped at dispatch by the steering blacklist.
    pub fn steer_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.steer_dropped).sum()
    }

    /// Packets escalated to the host tier.
    pub fn escalated(&self) -> u64 {
        self.shards.iter().map(|s| s.escalated).sum()
    }

    /// Escalations dropped at the host ring.
    pub fn escalation_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.escalation_dropped).sum()
    }

    /// Idle-loop parks across all shards (wall-clock dependent; excluded
    /// from [`EngineReport::deterministic_summary`]).
    pub fn idle_parks(&self) -> u64 {
        self.shards.iter().map(|s| s.idle_parks).sum()
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

    /// RX dispatcher queues the run used.
    pub fn rx_queues(&self) -> usize {
        self.queues.len()
    }

    /// The conservation invariant: every offered packet is either
    /// processed by exactly one shard or dropped with accounting
    /// (ingest overrun, load shed, or steering blacklist) — and the
    /// books balance on *both* axes of the mesh: per shard
    /// (`ingested = processed`) and per RX queue
    /// (`offered = ingested + ingest_dropped + shed + steer_dropped`),
    /// with the two sides agreeing on the totals.
    pub fn conserved(&self) -> bool {
        conserved(self.offered, &self.shards, &self.queues)
    }

    /// A byte-stable rendering of every *deterministic* quantity (exact
    /// counters; no wall-clock values). With one shard, inline triage
    /// (`host_workers = 0`) and the ordered lane merge, two same-seed
    /// runs produce identical strings *at any `rx_queues`* — the
    /// determinism tests diff exactly this. Per-shard lines merge the R
    /// queues' contributions canonically (each counter is the order-free
    /// sum over queues); per-queue breakdowns deliberately stay out of
    /// this rendering — they live in [`EngineReport::queues`] — because
    /// printing them would make the byte output depend on R.
    pub fn deterministic_summary(&self) -> String {
        let mut out = format!("offered={}\n", self.offered);
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "shard{i}: ingested={} dropped={} shed={} steer_dropped={} processed={} \
                 verdict_dropped={} fast_path={} escalated={} escalation_dropped={} \
                 ctrl_applied={} alerts={} blacklisted={} whitelisted={} cache_resident={}\n",
                s.ingested,
                s.ingest_dropped,
                s.shed,
                s.steer_dropped,
                s.processed,
                s.verdict_dropped,
                s.fast_path,
                s.escalated,
                s.escalation_dropped,
                s.ctrl_applied,
                s.alerts,
                s.blacklisted,
                s.whitelisted,
                s.cache_resident,
            ));
        }
        out.push_str(&format!(
            "host_processed={} verdicts={}\n",
            self.host_processed, self.verdicts_published
        ));
        out
    }
}

/// The conservation law over one set of books — shared by
/// [`EngineReport::conserved`] (a finished run's deltas) and the live
/// `/stats.json` (the cumulative counters): every offered packet is
/// ingested by exactly one shard or dropped with accounting, per shard
/// `ingested = processed`, per queue
/// `offered = ingested + ingest_dropped + shed + steer_dropped`, and
/// the two axes agree on the totals.
pub(crate) fn conserved(offered: u64, shards: &[ShardStats], queues: &[QueueStats]) -> bool {
    let shard_ingested: u64 = shards.iter().map(|s| s.ingested).sum();
    let shard_lost: u64 = shards
        .iter()
        .map(|s| s.ingest_dropped + s.shed + s.steer_dropped)
        .sum();
    let shards_ok =
        shard_ingested + shard_lost == offered && shards.iter().all(|s| s.ingested == s.processed);
    let queue_offered: u64 = queues.iter().map(|q| q.offered).sum();
    let queue_ingested: u64 = queues.iter().map(|q| q.ingested).sum();
    let queues_ok = queues
        .iter()
        .all(|q| q.offered == q.ingested + q.ingest_dropped + q.shed + q.steer_dropped)
        && queue_offered == offered
        && queue_ingested == shard_ingested;
    shards_ok && queues_ok
}

/// Per-run view of the cumulative per-shard registry counters: the
/// counter-backed fields subtract the run's baseline; the end-state
/// fields (steering-table sizes, cache residency) are absolute snapshots
/// and pass through.
pub(crate) fn shard_stats_delta(now: ShardStats, base: &ShardStats) -> ShardStats {
    ShardStats {
        ingested: now.ingested - base.ingested,
        ingest_dropped: now.ingest_dropped - base.ingest_dropped,
        shed: now.shed - base.shed,
        steer_dropped: now.steer_dropped - base.steer_dropped,
        processed: now.processed - base.processed,
        verdict_dropped: now.verdict_dropped - base.verdict_dropped,
        fast_path: now.fast_path - base.fast_path,
        escalated: now.escalated - base.escalated,
        escalation_dropped: now.escalation_dropped - base.escalation_dropped,
        ctrl_applied: now.ctrl_applied - base.ctrl_applied,
        alerts: now.alerts - base.alerts,
        idle_parks: now.idle_parks - base.idle_parks,
        blacklisted: now.blacklisted,
        whitelisted: now.whitelisted,
        cache_resident: now.cache_resident,
    }
}

/// Per-run view of the cumulative per-queue registry counters.
pub(crate) fn queue_stats_delta(now: QueueStats, base: &QueueStats) -> QueueStats {
    QueueStats {
        offered: now.offered - base.offered,
        ingested: now.ingested - base.ingested,
        ingest_dropped: now.ingest_dropped - base.ingest_dropped,
        shed: now.shed - base.shed,
        steer_dropped: now.steer_dropped - base.steer_dropped,
    }
}

/// An unsigned JSON number.
pub(crate) fn uint(v: u64) -> Value {
    Value::Number(Number::U(v))
}

/// The counter half of `/stats.json` — totals, the conservation
/// verdict, one object per shard and per ingest unit — rendered from
/// the same [`ShardStats`] / [`QueueStats`] an [`EngineReport`] is built
/// from. `offered` is the per-queue sum: a live document has no trace
/// length to cross-check against.
pub(crate) fn books_value(
    shards: &[ShardStats],
    queues: &[QueueStats],
    host_processed: u64,
) -> Vec<(String, Value)> {
    let offered: u64 = queues.iter().map(|q| q.offered).sum();
    let total = |f: fn(&ShardStats) -> u64| uint(shards.iter().map(f).sum());
    let shard_value = |(i, s): (usize, &ShardStats)| {
        Value::Object(vec![
            ("shard".into(), uint(i as u64)),
            ("ingested".into(), uint(s.ingested)),
            ("ingest_dropped".into(), uint(s.ingest_dropped)),
            ("shed".into(), uint(s.shed)),
            ("steer_dropped".into(), uint(s.steer_dropped)),
            ("processed".into(), uint(s.processed)),
            ("verdict_dropped".into(), uint(s.verdict_dropped)),
            ("fast_path".into(), uint(s.fast_path)),
            ("escalated".into(), uint(s.escalated)),
            ("escalation_dropped".into(), uint(s.escalation_dropped)),
            ("ctrl_applied".into(), uint(s.ctrl_applied)),
            ("alerts".into(), uint(s.alerts)),
        ])
    };
    let queue_value = |(q, s): (usize, &QueueStats)| {
        Value::Object(vec![
            ("queue".into(), uint(q as u64)),
            ("offered".into(), uint(s.offered)),
            ("ingested".into(), uint(s.ingested)),
            ("ingest_dropped".into(), uint(s.ingest_dropped)),
            ("shed".into(), uint(s.shed)),
            ("steer_dropped".into(), uint(s.steer_dropped)),
        ])
    };
    vec![
        ("offered".into(), uint(offered)),
        ("processed".into(), total(|s| s.processed)),
        ("ingest_dropped".into(), total(|s| s.ingest_dropped)),
        ("shed".into(), total(|s| s.shed)),
        ("steer_dropped".into(), total(|s| s.steer_dropped)),
        ("host_processed".into(), uint(host_processed)),
        (
            "conserved".into(),
            Value::Bool(conserved(offered, shards, queues)),
        ),
        (
            "shards".into(),
            Value::Array(shards.iter().enumerate().map(shard_value).collect()),
        ),
        (
            "queues".into(),
            Value::Array(queues.iter().enumerate().map(queue_value).collect()),
        ),
    ]
}

/// Render a [`StageSnapshot`] as the `stage` object of `/stats.json`.
pub(crate) fn stage_value(s: &StageSnapshot) -> Value {
    Value::Object(vec![
        ("queue_ns".into(), hist_value(&s.queue_ns)),
        ("cache_ns".into(), hist_value(&s.cache_ns)),
        ("detect_ns".into(), hist_value(&s.detect_ns)),
        ("escalate_ns".into(), hist_value(&s.escalate_ns)),
        ("batch_pkts".into(), hist_value(&s.batch_pkts)),
    ])
}
