//! Criterion micro-benchmarks of the FlowCache data path, including the
//! Cuckoo-hash ablation the paper argues against (§3.2: 2.43× worse
//! 99.9th-percentile latency for Cuckoo under the same budget).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use smartwatch_bench::workloads;
use smartwatch_net::{FlowHasher, Packet};
use smartwatch_snic::cuckoo::CuckooTable;
use smartwatch_snic::{Access, CachePolicy, FlowCache, FlowCacheConfig, Mode, BURST};
use smartwatch_trace::background::Preset;

fn bench_flowcache(c: &mut Criterion) {
    let pkts = workloads::caida_64b(Preset::Caida2018, 1, 7).into_packets();
    let mut g = c.benchmark_group("flowcache_process");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    for (name, cfg, mode) in [
        (
            "general_4_8",
            FlowCacheConfig::split(12, 4, 8, CachePolicy::LRU_LPC),
            Mode::General,
        ),
        ("lite_2_0", FlowCacheConfig::general(12), Mode::Lite),
        (
            "flat_lru_12",
            FlowCacheConfig::flat(12, 12, CachePolicy::LRU),
            Mode::General,
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut fc = FlowCache::new(cfg.clone());
                    fc.set_mode(mode);
                    fc
                },
                |mut fc| {
                    for p in &pkts {
                        std::hint::black_box(fc.process(p));
                    }
                    fc
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// The two-stage batched path as the engine's shards run it: per
/// [`BURST`]-packet chunk, digest and `prefetch_row` every packet, then
/// `process_digested` each in order. Appends one [`Access`] per packet.
fn process_bursts(fc: &mut FlowCache, pkts: &[Packet], out: &mut Vec<Access>) {
    let hasher = FlowHasher::new(fc.config().hash_seed);
    let mut burst = [hasher.digest_symmetric(&pkts[0].key); BURST];
    for chunk in pkts.chunks(BURST) {
        for (d, p) in burst.iter_mut().zip(chunk) {
            *d = hasher.digest_symmetric(&p.key);
            fc.prefetch_row(d.1);
        }
        for ((canon, digest), p) in burst.iter().zip(chunk) {
            out.push(fc.process_digested(p, canon, *digest));
        }
    }
}

/// Scalar per-packet probes vs the two-stage batched path
/// ([`process_bursts`]: digest+prefetch a burst, then probe it), across
/// table sizes. At `row_bits = 12` the whole table is cache-resident
/// and the paths should tie; at `row_bits = 16` the General table is
/// ~63 MB — far past L3 — and the prefetch overlap is the difference
/// between serialised and pipelined DRAM misses.
fn bench_batch_vs_scalar(c: &mut Criterion) {
    let pkts = workloads::scattered_flows(200_000, 0x5EED_CAFE);
    let mut g = c.benchmark_group("batch_vs_scalar");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    for (mode_name, mode) in [("general", Mode::General), ("lite", Mode::Lite)] {
        for row_bits in [12u32, 14, 16, 18] {
            let cfg = FlowCacheConfig::general(row_bits);
            let fresh = || {
                let mut fc = FlowCache::new(cfg.clone());
                fc.set_mode(mode);
                fc
            };
            g.bench_function(format!("scalar_{mode_name}_rb{row_bits}"), |b| {
                // Collect accesses exactly as the batched cell does, so
                // the only difference between the cells is the probe
                // pipeline itself.
                let mut out = Vec::with_capacity(pkts.len());
                b.iter_batched(
                    fresh,
                    |mut fc| {
                        for p in &pkts {
                            out.push(fc.process(p));
                        }
                        std::hint::black_box(out.len());
                        out.clear();
                        fc
                    },
                    BatchSize::LargeInput,
                );
            });
            g.bench_function(format!("batch_{mode_name}_rb{row_bits}"), |b| {
                let mut out = Vec::with_capacity(pkts.len());
                b.iter_batched(
                    fresh,
                    |mut fc| {
                        process_bursts(&mut fc, &pkts, &mut out);
                        std::hint::black_box(out.len());
                        out.clear();
                        fc
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    g.finish();
}

/// A table with every bucket of every row occupied: 46 scattered flows
/// per row on average, so no row is left with a free bucket.
fn full_table(row_bits: u32) -> FlowCache {
    let mut fc = FlowCache::new(FlowCacheConfig::general(row_bits));
    let fill = workloads::scattered_flows(46 << row_bits, 0xF111);
    let mut out = Vec::with_capacity(fill.len());
    process_bursts(&mut fc, &fill, &mut out);
    assert_eq!(fc.occupied(), 12 << row_bits, "every row full");
    fc
}

/// The victim path in isolation: new flows over a table whose rows are
/// all full, so every access picks a P victim, evicts E's victim to a
/// ring, demotes and inserts — the per-packet cost of `scattered_cold`
/// once its table has filled, and the path `pick_victim` sits on.
fn bench_miss_full_row(c: &mut Criterion) {
    let full = full_table(16);
    let pkts = workloads::scattered_flows(200_000, 0x5EED_CAFE);
    let mut g = c.benchmark_group("flowcache_miss_full_row");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("batch_general_rb16", |b| {
        let mut out = Vec::with_capacity(pkts.len());
        b.iter_batched(
            || full.clone(),
            |mut fc| {
                process_bursts(&mut fc, &pkts, &mut out);
                assert!(out.iter().all(|a| a.ring_pushes == 1));
                out.clear();
                fc
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// What a segment boundary costs: building (and dropping) a cache, as
/// every segment did, against resetting a resident one in place — a full
/// table (the worst case: every row is touched) and a nearly empty one
/// (only the tag lines are read). The reset rows time `reset()` alone:
/// the cache lives outside the sample, as it does in the engine.
fn bench_reset_vs_new(c: &mut Criterion) {
    let cfg = FlowCacheConfig::general(16);
    let full = full_table(16);
    let mut sparse = FlowCache::new(cfg.clone());
    for p in &workloads::scattered_flows(2_000, 7) {
        sparse.process(p);
    }
    let mut g = c.benchmark_group("flowcache_reset_vs_new");
    g.bench_function("new_rb16", |b| b.iter(|| FlowCache::new(cfg.clone())));
    for (name, used) in [("reset_full_rb16", &full), ("reset_sparse_rb16", &sparse)] {
        g.bench_function(name, |b| {
            let resident = std::cell::RefCell::new(used.clone());
            b.iter_batched(
                || resident.borrow_mut().clone_from(used),
                |()| resident.borrow_mut().reset(),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_cuckoo_ablation(c: &mut Criterion) {
    let pkts = workloads::caida_64b(Preset::Caida2018, 1, 7).into_packets();
    let mut g = c.benchmark_group("cuckoo_ablation");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("cuckoo_table", |b| {
        b.iter_batched(
            || CuckooTable::new(1 << 16, 5),
            |mut t| {
                for p in &pkts {
                    std::hint::black_box(t.process(p));
                }
                t
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_flowcache, bench_batch_vs_scalar, bench_miss_full_row, bench_reset_vs_new,
        bench_cuckoo_ablation
}
criterion_main!(benches);
