//! Heavy-hitter promotion against exact per-epoch counts.
//!
//! A shard with a controller reports a flow, `(digest, Q)`, each time
//! its FlowCache record's packet count reaches a multiple of Q; the
//! controller promotes a flow whose reports in an epoch sum to the
//! promotion threshold for two epochs running. This replays the stress
//! trace (`repro engine --workload stress64`) in virtual time — packet
//! `i` arrives at `i / rate`, each shard processes its 64-packet batches
//! as their last packet arrives — through one FlowCache per shard and
//! the real `Controller`, and scores the promotions against the truth:
//! the flows whose exact count cleared the threshold in two consecutive
//! epochs. Beside the crossing rule at Q = 8, 16 (the engine's) and 32
//! runs a model of the mechanism it replaced: every 16th packet a shard
//! saw counted into a per-digest map, flushed every 64 batches as
//! `count × 16` for counts of at least 4. Verdicts and pins are left
//! out: every packet reaches the cache.
//!
//! ```sh
//! cargo run --release --example heavy_hitters
//! ```

use smartwatch::net::hash::shard_for_digest;
use smartwatch::net::{Dur, FlowHasher, FlowKey, HashDigest, Packet};
use smartwatch::runtime::EngineConfig;
use smartwatch::snic::{FlowCache, FlowCacheConfig};
use smartwatch::trace::background::{preset_trace, Preset};
use smartwatch_control::{ControlConfig, Controller, EpochInput, ShardSample};
use std::collections::{BTreeSet, HashMap};

/// Packets per shard batch.
const BATCH: usize = 64;

/// How a shard finds its candidates.
#[derive(Clone, Copy)]
enum Rule {
    /// The crossing rule with quantum Q.
    Crossing(u64),
    /// The former 1-in-16 sampler.
    Sampler,
}

/// One replay: shard count, offered rate, epoch length, threshold.
struct Shape {
    shards: usize,
    mpps: f64,
    epoch_ms: u64,
    threshold: u64,
}

fn main() {
    let base = preset_trace(Preset::Caida2018, 25_000, Dur::from_secs(4), 0xE1)
        .truncated_64b()
        .into_packets();
    println!("| shards | Mpps | epoch | threshold | packets | rule | promoted | true | recall | precision | reports/epoch |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let shapes = [
        Shape {
            shards: 2,
            mpps: 2.0,
            epoch_ms: 2,
            threshold: 62,
        },
        Shape {
            shards: 4,
            mpps: 4.0,
            epoch_ms: 2,
            threshold: 125,
        },
    ];
    for shape in &shapes {
        for packets in [400_000, 800_000] {
            let pkts: Vec<Packet> = base.iter().cycle().take(packets).copied().collect();
            let rules = [
                Rule::Sampler,
                Rule::Crossing(8),
                Rule::Crossing(16),
                Rule::Crossing(32),
            ];
            for rule in rules {
                replay(shape, &pkts, rule);
            }
        }
    }
}

/// Replay `pkts` at `shape` under `rule` and print its table row.
fn replay(shape: &Shape, pkts: &[Packet], rule: Rule) {
    let cfg = EngineConfig::new(shape.shards);
    let hasher = FlowHasher::new(cfg.hash_seed);
    let digested: Vec<(FlowKey, HashDigest)> = pkts
        .iter()
        .map(|p| hasher.digest_symmetric(&p.key))
        .collect();
    let per_epoch = (shape.mpps * 1e3) as usize * shape.epoch_ms as usize;
    let epoch_of = |i: usize| i / per_epoch;
    let epochs = epoch_of(pkts.len() - 1) + 1;

    // The truth: exact counts by arrival epoch, under the streak rule.
    let mut exact: HashMap<(u64, usize), u64> = HashMap::new();
    for (i, (_, d)) in digested.iter().enumerate() {
        *exact.entry((d.0, epoch_of(i))).or_default() += 1;
    }
    let heavy = |d: u64, e: usize| exact.get(&(d, e)).is_some_and(|&c| c >= shape.threshold);
    let truth: BTreeSet<u64> = exact
        .keys()
        .filter(|&&(d, e)| heavy(d, e) && heavy(d, e + 1))
        .map(|&(d, _)| d)
        .collect();

    // What the shards report, by the epoch it reached the controller;
    // the end-of-stream tail reaches its final epoch, run at stop.
    let mut reports: Vec<Vec<(u64, u64)>> = vec![Vec::new(); epochs + 1];
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); shape.shards];
    for (i, (_, d)) in digested.iter().enumerate() {
        streams[shard_for_digest(*d, shape.shards)].push(i);
    }
    for stream in &streams {
        let mut cache_cfg = FlowCacheConfig::general(cfg.cache_row_bits);
        cache_cfg.hash_seed = cfg.hash_seed;
        let mut cache = FlowCache::new(cache_cfg);
        let mut sampled: HashMap<u64, u64> = HashMap::new();
        let (mut seen, mut batches) = (0u64, 0u64);
        let flush = |sampled: &mut HashMap<u64, u64>, out: &mut Vec<(u64, u64)>| {
            out.extend(
                sampled
                    .drain()
                    .filter(|&(_, c)| c >= 4)
                    .map(|(d, c)| (d, c * 16)),
            );
        };
        for batch in stream.chunks(BATCH) {
            let e = epoch_of(batch[batch.len() - 1]);
            batches += 1;
            if matches!(rule, Rule::Sampler) && batches.is_multiple_of(64) {
                flush(&mut sampled, &mut reports[e]);
            }
            for &i in batch {
                let (canon, d) = digested[i];
                match rule {
                    Rule::Sampler => {
                        if seen.is_multiple_of(16) {
                            *sampled.entry(d.0).or_default() += 1;
                        }
                        seen += 1;
                    }
                    Rule::Crossing(q) => {
                        let packets = cache.process_digested(&pkts[i], &canon, d).packets;
                        if packets > 0 && packets.is_multiple_of(q) {
                            reports[e].push((d.0, q));
                        }
                    }
                }
            }
        }
        flush(&mut sampled, &mut reports[epochs]);
    }

    let mut ctrl = Controller::new(ControlConfig {
        epoch_ms: shape.epoch_ms,
        promote_pkts_per_epoch: shape.threshold,
        ..ControlConfig::default()
    })
    .for_shards(shape.shards);
    let sent: usize = reports.iter().map(Vec::len).sum();
    let mut promoted = BTreeSet::new();
    for heavy in reports {
        let decision = ctrl.epoch(&EpochInput {
            elapsed_secs: shape.epoch_ms as f64 / 1e3,
            shards: vec![ShardSample::default(); shape.shards],
            verdicts: Vec::new(),
            heavy,
        });
        if let Some(snapshot) = decision.snapshot {
            promoted.extend(snapshot.whitelist.iter().copied());
        }
    }
    let hits = promoted.intersection(&truth).count();
    let rule = match rule {
        Rule::Sampler => "1-in-16 sampler".to_string(),
        Rule::Crossing(q) => format!("crossing, Q = {q}"),
    };
    println!(
        "| {} | {} | {} ms | {} | {} | {rule} | {} | {} | {hits}/{} | {hits}/{} | {:.0} |",
        shape.shards,
        shape.mpps,
        shape.epoch_ms,
        shape.threshold,
        pkts.len(),
        promoted.len(),
        truth.len(),
        truth.len(),
        promoted.len(),
        sent as f64 / epochs as f64,
    );
}
