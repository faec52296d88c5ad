//! Criterion benchmark of the wall-clock runtime engine: the RX-queue ×
//! shard pipeline mesh and the pipeline-vs-RTC datapath grid, both on
//! the 64-byte stress workload.
//!
//! On a multi-core machine throughput should rise with shards and with
//! RX queues (the acceptance shapes: 4 shards > 1 shard, and 4 queues ≥
//! 1.8× 1 queue on 64B packets), and the fused run-to-completion
//! datapath should beat the mesh at equal core budget — it spends no
//! cycles on lane crossings, recycling or dispatcher/shard cache
//! bouncing. On a single hardware thread the sweeps still exercise the
//! dispatchers, the R×N lane mesh, the fused cores and the drain logic,
//! but the scaling signal is meaningless — read it with `nproc` in
//! hand. Each Criterion cell also prints its own measured Mpps so a
//! scaling table can be read straight off the run log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smartwatch_bench::run_shape::{datapath_label, ReplayData, RunShape};
use smartwatch_runtime::{DatapathMode, Engine, EngineReport, Pace};

/// One grid cell as a run shape: the same flags → engine mapping the
/// `repro` drivers use, on 100k packets of the 64-byte stress workload.
fn cell(rx_queues: usize, shards: usize, datapath: DatapathMode) -> RunShape {
    RunShape {
        rx_queues,
        shards,
        datapath,
        packets: 100_000,
        ..RunShape::default()
    }
}

/// A fresh engine (and registry) per run: counters must not accumulate
/// across iterations.
fn run_cell(shape: &RunShape, pkts: &ReplayData) -> EngineReport {
    let report = pkts.run(&Engine::new(shape.engine_config()), Pace::Flatout);
    assert!(report.conserved());
    report
}

fn bench_engine_mesh(c: &mut Criterion) {
    let pkts = cell(1, 1, DatapathMode::Pipeline).replay(1);
    let mut g = c.benchmark_group("engine_mesh_64b");
    g.throughput(Throughput::Elements(pkts.source().len() as u64));
    g.sample_size(10);
    for rxq in [1usize, 2, 4] {
        for shards in [1usize, 2, 4] {
            let shape = cell(rxq, shards, DatapathMode::Pipeline);
            // One out-of-band measured run per cell: Criterion's timing
            // includes engine setup/teardown, so the engine's own Mpps
            // (timed dispatch→drain only) is the number the DESIGN
            // scaling table quotes.
            let probe = run_cell(&shape, &pkts);
            println!(
                "engine_mesh_64b/rxq{rxq}_shards{shards}: {:.3} Mpps \
                 ({} pkts, {:?})",
                probe.mpps(),
                probe.processed(),
                probe.elapsed
            );
            g.bench_function(format!("rxq{rxq}_shards{shards}"), |b| {
                b.iter(|| run_cell(&shape, &pkts).processed());
            });
        }
    }
    g.finish();
}

/// Pipeline vs run-to-completion at equal core budget. The pipeline
/// cell uses one dispatcher plus C shards (C+1 threads); the RTC cell
/// uses C fused cores (C threads) — the comparison the DESIGN datapath
/// table quotes, deliberately biased *against* RTC on thread count.
fn bench_engine_datapath(c: &mut Criterion) {
    let pkts = cell(1, 1, DatapathMode::Pipeline).replay(1);
    let mut g = c.benchmark_group("engine_datapath_64b");
    g.throughput(Throughput::Elements(pkts.source().len() as u64));
    g.sample_size(10);
    for mode in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for cores in [1usize, 2, 4] {
            let label = datapath_label(mode);
            let shape = cell(1, cores, mode);
            let probe = run_cell(&shape, &pkts);
            println!(
                "engine_datapath_64b/{label}_cores{cores}: {:.3} Mpps \
                 ({} pkts, {:?})",
                probe.mpps(),
                probe.processed(),
                probe.elapsed
            );
            g.bench_function(format!("{label}_cores{cores}"), |b| {
                b.iter(|| run_cell(&shape, &pkts).processed());
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_mesh, bench_engine_datapath
}
criterion_main!(benches);
