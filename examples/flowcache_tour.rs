//! A tour of the sNIC FlowCache: eviction policies, the General↔Lite
//! reconfiguration, and the micro-engine throughput model (paper §3.2–3.3).
//!
//! ```sh
//! cargo run --release --example flowcache_tour
//! ```

use smartwatch::net::Dur;
use smartwatch::snic::des::{simulate, DesConfig};
use smartwatch::snic::{CachePolicy, FlowCache, FlowCacheConfig, Mode};
use smartwatch::trace::background::{preset_trace, Preset};
use smartwatch_control::{ControlConfig, Controller, EpochInput, ShardSample};

fn main() {
    let trace = preset_trace(Preset::Caida2018, 3_000, Dur::from_secs(2), 99).truncated_64b();
    println!("trace: {} packets (64 B stress rewrite)\n", trace.len());

    // --- Eviction policies (Fig. 5) -----------------------------------
    println!("eviction policies, (P,E) split, same memory:");
    println!(
        "{:>14} | {:>8} | {:>8} | {:>9}",
        "policy", "hit %", "evict", "to-host"
    );
    for (name, cfg) in [
        (
            "LRU (12,0)",
            FlowCacheConfig::flat(10, 12, CachePolicy::LRU),
        ),
        (
            "LPC (12,0)",
            FlowCacheConfig::flat(10, 12, CachePolicy::LPC),
        ),
        (
            "FIFO (4,8)",
            FlowCacheConfig::split(10, 4, 8, CachePolicy::FIFO),
        ),
        (
            "LRU-LPC (4,8)",
            FlowCacheConfig::split(10, 4, 8, CachePolicy::LRU_LPC),
        ),
    ] {
        let mut fc = FlowCache::new(cfg);
        for p in trace.iter() {
            fc.process(p);
        }
        let s = fc.stats();
        println!(
            "{:>14} | {:>7.2}% | {:>8} | {:>9}",
            name,
            s.hit_rate() * 100.0,
            s.evictions,
            s.to_host
        );
    }

    // --- Throughput: General vs Lite (Fig. 6a) ------------------------
    println!("\nmicro-engine model throughput (offered 60 Mpps):");
    for (name, mode) in [("General (4,8)", Mode::General), ("Lite (2,0)", Mode::Lite)] {
        let mut fc = FlowCache::new(FlowCacheConfig::general(12));
        fc.set_mode(mode);
        let rep = simulate(&mut fc, trace.packets(), &DesConfig::netronome(60.0e6));
        println!(
            "  {:<14} {:>6.1} Mpps achieved, loss {:>5.2}%, p99 {:>6.1} µs",
            name,
            rep.achieved_mpps(),
            rep.loss_rate() * 100.0,
            rep.latency.p99_ns as f64 / 1_000.0
        );
    }

    // --- Adaptive switch-over (Algorithm 4) ---------------------------
    // The controller samples each epoch's arrival rate and hands the
    // cache its mode for the next epoch; the DES runs each epoch at the
    // mode it was handed. Thresholds are the hardware's: Lite above
    // 30 Mpps, General again below 24 Mpps.
    println!("\nadaptive reconfiguration under a rate swing (10 → 43 → 10 Mpps):");
    let mut ctrl = Controller::new(ControlConfig {
        eta_lite_mpps: 30.0,
        eta_general_mpps: 24.0,
        ..ControlConfig::default()
    });
    let mut fc = FlowCache::new(FlowCacheConfig::general(12));
    let mut offered = 0;
    for (epoch, chunk) in trace.packets().chunks(trace.len() / 12 + 1).enumerate() {
        let mpps = if (3..8).contains(&epoch) { 43.0 } else { 10.0 };
        let mode = fc.mode();
        let rep = simulate(&mut fc, chunk, &DesConfig::netronome(mpps * 1e6));
        offered += rep.offered;
        let decision = ctrl.epoch(&EpochInput {
            elapsed_secs: chunk.len() as f64 / (mpps * 1e6),
            shards: vec![ShardSample {
                offered,
                ..ShardSample::default()
            }],
            ..EpochInput::default()
        });
        fc.set_mode(decision.record.modes[0]);
        println!(
            "  epoch {epoch:>2}: {mpps:>4.1} Mpps offered, {:>4.1} achieved in {mode:?}",
            rep.achieved_mpps()
        );
    }
    println!(
        "  {} mode switch(es), final mode {:?}, rows lazily cleaned: {}",
        ctrl.report().mode_switches,
        fc.mode(),
        fc.stats().rows_cleaned
    );
}
