//! Criterion microbenchmark of the detector suite, one row per detector:
//! the per-detector breakdown of the benchmark's `core.suite.ns_per_pkt`,
//! re-runnable without swbench.
//!
//! Every row replays a whole input through fresh detector state, gated
//! the way [`DetectorSuite::on_packet`] gates it, so ns/packet (1000 ÷
//! the printed Melem/s) is per packet *of the input*, not per packet the
//! detector cares about — rows of one input add up to roughly its `suite`
//! row. Inputs are the three the benchmark's workloads are built from.
//!
//! Fresh state is what an engine's *first* segment runs on. Every later
//! one runs on state that was reset in place, its tables already sized:
//! the `conntable_refilled` and `suite_refilled` rows measure that
//! against the cold `conntable` and `suite` rows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use smartwatch_bench::workloads;
use smartwatch_core::DetectorSuite;
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::ForgedRstDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_host::ConnTable;
use smartwatch_net::{Packet, Ts};
use smartwatch_trace::background::Preset;
use std::hint::black_box;

/// One row: fresh `state` per sample, `step` once per packet.
fn row<S>(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    pkts: &[Packet],
    mut state: impl FnMut() -> S,
    step: fn(&mut S, &Packet),
) {
    g.bench_function(name, |b| {
        b.iter_batched(
            &mut state,
            |mut s| {
                for p in pkts {
                    step(&mut s, black_box(p));
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_input(c: &mut Criterion, input: &str, pkts: &[Packet]) {
    let mut g = c.benchmark_group(format!("suite_{input}"));
    g.throughput(Throughput::Elements(pkts.len() as u64));
    row(&mut g, "scan", pkts, ScanPipeline::new, |s, p| {
        black_box(s.on_packet(p));
    });
    row(&mut g, "conntable", pkts, ConnTable::new, |s, p| {
        black_box(s.process(p));
    });
    row(
        &mut g,
        "conntable_refilled",
        pkts,
        || {
            let mut table = ConnTable::new();
            for p in pkts {
                table.process(p);
            }
            table.reset();
            table
        },
        |s, p| {
            black_box(s.process(p));
        },
    );
    row(
        &mut g,
        "rst",
        pkts,
        ForgedRstDetector::paper_default,
        |s, p| {
            if p.is_tcp() && (p.flags.rst() || p.payload_len > 0) {
                black_box(s.on_packet(p));
            }
        },
    );
    row(&mut g, "dns", pkts, DnsAmpDetector::new, |s, p| {
        black_box(s.on_packet(p));
    });
    row(
        &mut g,
        "worm",
        pkts,
        EarlyBirdDetector::paper_default,
        |s, p| {
            black_box(s.on_packet(p));
        },
    );
    row(&mut g, "suite", pkts, DetectorSuite::new, |s, p| {
        black_box(s.on_packet(p));
    });
    row(
        &mut g,
        "suite_refilled",
        pkts,
        || {
            let mut suite = DetectorSuite::new();
            for p in pkts {
                suite.on_packet(p);
            }
            suite.finish(pkts.last().map_or(Ts::ZERO, |p| p.ts));
            suite.reset();
            suite
        },
        |s, p| {
            black_box(s.on_packet(p));
        },
    );
    g.finish();
}

fn bench_suite(c: &mut Criterion) {
    let caida = workloads::caida_64b(Preset::Caida2018, 1, 1);
    bench_input(c, "caida_64b", caida.packets());
    bench_input(c, "scattered", &workloads::scattered_flows(400_000, 1));
    bench_input(c, "attack_mix", workloads::attack_mix(1, 1).packets());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(9);
    targets = bench_suite
}
criterion_main!(benches);
