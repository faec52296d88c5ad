//! Criterion benchmark of the wall-clock runtime engine: the
//! pipeline-vs-RTC datapath grid on the 64-byte stress workload.
//!
//! On a multi-core machine throughput should rise with shards, and the
//! fused run-to-completion datapath should beat the pipeline at equal
//! core budget — it spends no cycles on lane crossings, recycling or
//! dispatcher/shard cache bouncing. On a single hardware thread the
//! sweep still exercises the dispatcher, the lanes, the fused cores and
//! the drain logic, but the scaling signal is meaningless — read it
//! with `nproc` in hand. Each Criterion cell also prints its own
//! measured Mpps so a scaling table can be read straight off the run
//! log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smartwatch_bench::run_shape::{datapath_label, ReplayData, RunShape};
use smartwatch_runtime::{DatapathMode, Engine, EngineReport, Pace};

/// One grid cell as a run shape: the same flags → engine mapping the
/// `repro` drivers use, on 100k packets of the 64-byte stress workload.
fn cell(shards: usize, datapath: DatapathMode) -> RunShape {
    RunShape {
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

/// Pipeline vs run-to-completion at equal core budget. The pipeline
/// cell uses one dispatcher plus C shards (C+1 threads); the RTC cell
/// uses C fused cores (C threads) — the comparison the DESIGN datapath
/// table quotes, deliberately biased *against* RTC on thread count.
fn bench_engine_datapath(c: &mut Criterion) {
    let pkts = cell(1, DatapathMode::Pipeline).replay(1);
    let mut g = c.benchmark_group("engine_datapath_64b");
    g.throughput(Throughput::Elements(pkts.source().len() as u64));
    g.sample_size(10);
    for mode in [DatapathMode::Pipeline, DatapathMode::Rtc] {
        for cores in [1usize, 2, 4] {
            let label = datapath_label(mode);
            let shape = cell(cores, mode);
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
    targets = bench_engine_datapath
}
criterion_main!(benches);
