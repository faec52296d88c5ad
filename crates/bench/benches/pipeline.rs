//! Criterion benchmark of the full platform pipeline per deployment
//! mode, plus the engine-level cell of the batched-FlowCache comparison
//! (the shard-integrated counterpart of `flowcache/batch_vs_scalar`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use smartwatch_bench::workloads;
use smartwatch_core::deploy::DeployMode;
use smartwatch_core::platform::{standard_queries, PlatformConfig, SmartWatch};
use smartwatch_runtime::{Engine, EngineConfig, Pace};

fn bench_platform(c: &mut Criterion) {
    let trace = workloads::attack_mix(1, 3);
    let pkts = trace.packets();
    let mut g = c.benchmark_group("platform_run");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.sample_size(10);
    for mode in [
        DeployMode::SmartWatch,
        DeployMode::SnicHost,
        DeployMode::SwitchHost,
    ] {
        g.bench_function(format!("{mode:?}"), |b| {
            b.iter_batched(
                || SmartWatch::new(PlatformConfig::new(mode), standard_queries()),
                |sw| sw.run(pkts),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// The shard-integrated pair of `flowcache/batch_vs_scalar`: one full
/// engine (1 shard, inline triage, 2^18-row partition) replaying the
/// hash-scattered cold-row workload at cache burst width `1` and `8`.
/// Width 1 still runs stage A, one packet per chunk: each row's hint is
/// issued right before its own probe, so nothing is in flight ahead of
/// it; width 8 hints eight rows before the first of eight probes.
/// Decisions are identical — the delta is the memory-level parallelism
/// of hinting ahead, threaded through the whole ingest → merge → cache
/// → triage hot path.
fn bench_engine_cache_burst(c: &mut Criterion) {
    let pkts = workloads::scattered_flows(200_000, 0x5EED_CAFE);
    let mut g = c.benchmark_group("engine_cache_burst");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.sample_size(10);
    for burst in [1usize, 8] {
        g.bench_function(format!("burst_{burst}"), |b| {
            b.iter(|| {
                let mut cfg = EngineConfig::new(1);
                cfg.host_workers = 0;
                cfg.cache_row_bits = 18;
                cfg.cache_burst = burst;
                Engine::new(cfg).run(&pkts, Pace::Flatout)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_platform, bench_engine_cache_burst
}
criterion_main!(benches);
