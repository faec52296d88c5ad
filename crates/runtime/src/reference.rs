//! The engine's oracle: N shards walked one packet at a time on one
//! thread.
//!
//! SmartWatch keeps each flow's state on exactly one owner (§3.2), and
//! the engine's owners are RSS shards: [`shard_for_digest`] sends both
//! directions of a flow to one shard, and a shard applies only its own
//! flows' verdicts (a flow-less one on shard 0). So with inline triage
//! and no controller, N threaded shards are N independent per-packet
//! walks over that partition, and [`walk_shards`] is those walks — no lanes,
//! no batches in flight, no prefetch, no clock. Each shard steps one
//! [`SnicTier`] with its own verdict sets and [`TriageNf`], applies the
//! verdicts its triage published before each `batch`-packet batch of
//! its own substream and once more at its end (where the engine's shard
//! polls the control log), and the summary is rendered by the engine's
//! own code. What a flat-out engine run reports must equal this, byte
//! for byte, at every shard count, topology, burst width and source.

use crate::books::{Count, Disposition, Ledger};
use crate::engine::{summary, EngineConfig, FrameSource};
use crate::escalate::TriageNf;
use crate::shard::{ShardStats, SWEEP_EVERY_BATCHES, VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES};
use smartwatch_core::{HostNeed, SnicTier};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::hash::shard_for_digest;
use smartwatch_net::{AgingDigestSet, FlowDigest, FlowHasher, Packet, Ts};
use smartwatch_snic::FlowCacheConfig;

/// What the oracle decided: the books an [`EngineReport`] of the same
/// run carries, minus everything wall-clock.
///
/// [`EngineReport`]: crate::EngineReport
#[derive(Clone, Debug)]
pub struct Reference {
    /// Per-shard books, FlowCache books and end-state sizes
    /// (`idle_parks` stays 0: nothing here waits).
    pub shards: Vec<ShardStats>,
    /// The books rendered by the code behind
    /// [`EngineReport::deterministic_summary`](crate::EngineReport::deterministic_summary).
    pub summary: String,
}

/// Walk `source` through `cfg`'s shards. `None` for a config whose
/// decisions depend on thread timing: host workers (a verdict lands
/// whenever the pool publishes it) or a controller (mode switches,
/// steering and shedding on its epochs).
pub fn walk_shards(source: FrameSource<'_>, cfg: &EngineConfig) -> Option<Reference> {
    if cfg.host_workers > 0 || cfg.control.is_some() {
        return None;
    }
    let hasher = FlowHasher::new(cfg.hash_seed);
    let mut shards: Vec<Shard> = (0..cfg.shards).map(|i| Shard::new(i, cfg)).collect();
    let mut log = Vec::new();
    for i in 0..source.len() {
        let pkt = match source {
            FrameSource::Packets(packets) => packets[i],
            FrameSource::Wire(store) => store.packet(i),
        };
        let flow = hasher.flow_digest(&pkt.key);
        let shard = &mut shards[shard_for_digest(flow.digest, cfg.shards)];
        if shard.books[Count::Ingested].is_multiple_of(cfg.batch as u64) {
            shard.tick(&log);
        }
        shard.books[Count::Ingested] += 1;
        shard.step(&pkt, &flow, &mut log);
    }
    let mut host_processed = 0;
    let shards: Vec<ShardStats> = shards
        .into_iter()
        .map(|mut shard| {
            shard.apply(&log);
            shard.books[Count::Alerts] += shard.tier.suite.finish(shard.last_ts).len() as u64;
            host_processed += shard.books[Count::Escalated];
            ShardStats {
                counts: shard.books,
                cache: shard.tier.cache().stats(),
                blacklisted: shard.blacklist.len() as u64,
                whitelisted: shard.whitelist.len() as u64,
                cache_resident: shard.tier.cache().occupied() as u64,
            }
        })
        .collect();
    let verdicts = log.len() as u64;
    Some(Reference {
        summary: summary(source.len() as u64, &shards, host_processed, verdicts),
        shards,
    })
}

/// One shard's walk.
struct Shard {
    index: usize,
    /// The config's shard count, seed and enforcement switch.
    shards: usize,
    hasher: FlowHasher,
    enforce: bool,
    tier: SnicTier,
    blacklist: AgingDigestSet,
    whitelist: AgingDigestSet,
    triage: TriageNf,
    books: Ledger,
    /// Batches begun: the clock the verdict sets age on.
    batches: u64,
    /// How far into the verdict log this shard has applied.
    applied: usize,
    last_ts: Ts,
}

impl Shard {
    fn new(index: usize, cfg: &EngineConfig) -> Shard {
        let mut cache = FlowCacheConfig::general(cfg.cache_row_bits);
        cache.hash_seed = cfg.hash_seed;
        Shard {
            index,
            shards: cfg.shards,
            hasher: FlowHasher::new(cfg.hash_seed),
            enforce: cfg.enforce_verdicts,
            tier: SnicTier::new(cache),
            blacklist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            whitelist: AgingDigestSet::new(VERDICT_SET_CAPACITY, VERDICT_TTL_BATCHES),
            triage: TriageNf::new(cfg.triage_threshold),
            books: Ledger::default(),
            batches: 0,
            applied: 0,
            last_ts: Ts::ZERO,
        }
    }

    /// A batch begins: the batch clock advances, the verdicts published
    /// since the last poll apply, and the verdict sets age.
    fn tick(&mut self, log: &[Verdict]) {
        self.batches += 1;
        self.apply(log);
        if self.batches.is_multiple_of(SWEEP_EVERY_BATCHES) {
            self.blacklist.sweep(self.batches);
            self.whitelist.sweep(self.batches);
        }
    }

    /// Apply this shard's share of the log past what it applied: its
    /// own flows' verdicts, and on shard 0 the flow-less ones.
    fn apply(&mut self, log: &[Verdict]) {
        for v in &log[self.applied..] {
            match v {
                Verdict::Blacklist(k) | Verdict::Whitelist(k) => {
                    let (canon, digest) = self.hasher.digest_symmetric(k);
                    if shard_for_digest(digest, self.shards) != self.index {
                        continue;
                    }
                    self.tier.release(&canon);
                    if matches!(v, Verdict::Blacklist(_)) {
                        self.blacklist.insert(digest.0, self.batches);
                        self.whitelist.remove(&digest.0);
                    } else {
                        self.whitelist.insert(digest.0, self.batches);
                    }
                }
                _ if self.index != 0 => continue,
                Verdict::Alert(_) => self.books[Count::Alerts] += 1,
                Verdict::Drop => {}
            }
            self.books[Count::CtrlApplied] += 1;
        }
        self.applied = log.len();
    }

    /// One packet, to the end of its trip.
    fn step(&mut self, pkt: &Packet, flow: &FlowDigest, log: &mut Vec<Verdict>) {
        self.last_ts = self.last_ts.max(pkt.ts);
        if self.enforce && self.blacklist.contains(&flow.digest.0) {
            self.books.record(Disposition::VerdictDrop, 1);
            return;
        }
        self.tier.process(pkt, flow);
        if self.whitelist.contains(&flow.digest.0) {
            self.books.record(Disposition::FastPath, 1);
            return;
        }
        let outcome = self.tier.inspect(pkt, flow);
        self.books[Count::Alerts] += outcome.alerts.len() as u64;
        for cleared in &outcome.whitelist {
            let (_, digest) = self.hasher.digest_symmetric(cleared);
            self.whitelist.insert(digest.0, self.batches);
        }
        if outcome.host == HostNeed::Host {
            self.books[Count::Escalated] += 1;
            log.extend(self.triage.on_packet(pkt));
        }
        self.books.record(Disposition::Inspected, 1);
    }
}
