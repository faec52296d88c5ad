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
//! against the cold `conntable` and `suite` rows. `conntable_refilled`
//! resets a *full* table; the engine resets one its end-of-trace sweep
//! has just emptied, which is the state `conntable_swept_refilled`
//! starts from (fill → sweep → `reset` → timed refill) and the state
//! `suite_refilled` has always started from (it runs `finish` before
//! `reset`); `conntable_swept_refilled_prefetched` is that row with a
//! shard's miss-gated stage A in front of each packet — the home slot
//! word of the packet eight ahead fetched first — so the pair prices
//! the table half of the hint. `suite_digested` drives that swept-and-reset suite the way
//! a shard does: packets digested ahead of the clock (ingest's job),
//! then `on_packet_digested` into one outcome reused for every packet.
//! The `scan` row likewise appends into one alert vector it clears per
//! packet, as the suite does.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use smartwatch_bench::workloads;
use smartwatch_core::{DetectorSuite, SuiteOutcome};
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::ForgedRstDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_host::ConnTable;
use smartwatch_net::{Dur, FlowDigest, FlowHasher, Packet, Ts};
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
    row(
        &mut g,
        "scan",
        pkts,
        || (ScanPipeline::new(), Vec::new()),
        |(s, alerts), p| {
            let flow = s.conns.digest(&p.key);
            alerts.clear();
            s.on_packet_digested(p, &flow, alerts, &mut None);
            black_box(alerts);
        },
    );
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
    let end = pkts.last().map_or(Ts::ZERO, |p| p.ts);
    let swept_table = || {
        let mut table = ConnTable::new();
        for p in pkts {
            table.process(p);
        }
        // What `ScanPipeline::finish` does to its table.
        let t = Dur::from_secs(2);
        table.sweep(end + t, t, t, |_, _| {});
        table.reset();
        table
    };
    row(
        &mut g,
        "conntable_swept_refilled",
        pkts,
        swept_table,
        |s, p| {
            black_box(s.process(p));
        },
    );
    // Its twin with a shard's miss-gated stage A: the home slot word of
    // the packet `AHEAD` places on is fetched before this one is filed
    // (digests made off the clock, as ingest makes them).
    const AHEAD: usize = smartwatch_snic::BURST;
    let flows: Vec<FlowDigest> = pkts
        .iter()
        .map(|p| FlowHasher::default().flow_digest(&p.key))
        .collect();
    g.bench_function("conntable_swept_refilled_prefetched", |b| {
        b.iter_batched(
            swept_table,
            |mut s| {
                for (i, p) in pkts.iter().enumerate() {
                    if let Some(f) = flows.get(i + AHEAD) {
                        s.prefetch(&f.canon, f.digest);
                    }
                    black_box(s.process(black_box(p)));
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
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
    // Filled, swept by `finish`, reset: what a shard's second segment
    // starts on.
    let swept = |hasher: FlowHasher| {
        let mut suite = DetectorSuite::with_hasher(hasher);
        for p in pkts {
            suite.on_packet(p);
        }
        suite.finish(end);
        suite.reset();
        suite
    };
    row(
        &mut g,
        "suite_refilled",
        pkts,
        || swept(FlowHasher::default()),
        |s, p| {
            black_box(s.on_packet(p));
        },
    );
    let hasher = FlowHasher::new(0x51CC);
    let digested: Vec<(Packet, FlowDigest)> = pkts
        .iter()
        .map(|p| (*p, hasher.flow_digest(&p.key)))
        .collect();
    g.bench_function("suite_digested", |b| {
        b.iter_batched(
            || swept(hasher),
            |mut s| {
                let mut out = SuiteOutcome::default();
                for (p, flow) in &digested {
                    s.on_packet_digested(black_box(p), flow, &mut out);
                    black_box(&out);
                }
                s
            },
            BatchSize::LargeInput,
        );
    });
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
