//! Criterion microbenchmark of the dispatch-time digest — the one hash
//! the runtime hot path performs per packet — against the pieces it
//! replaced: separate canonicalisation + hash calls, and SipHash-keyed
//! `HashSet<FlowKey>` membership vs the identity-hashed [`DigestSet`]
//! probe the shards use for black/whitelists.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use smartwatch_net::{wire, DigestSet, FlowHasher, FlowKey, FrameView, Packet, RawTuple, Ts};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// A deterministic spread of keys, half of them direction-flipped so the
/// canonicalisation branch is exercised both ways.
fn keys(n: u32) -> Vec<FlowKey> {
    (0..n)
        .map(|i| {
            let a = Ipv4Addr::from(0x0A00_0000 + i * 7);
            let b = Ipv4Addr::from(0xC0A8_0000 + i * 3);
            if i % 2 == 0 {
                FlowKey::tcp(a, 1024 + (i % 60_000) as u16, b, 443)
            } else {
                FlowKey::tcp(b, 443, a, 1024 + (i % 60_000) as u16)
            }
        })
        .collect()
}

fn bench_digest(c: &mut Criterion) {
    let hasher = FlowHasher::new(0x51CC);
    let ks = keys(1024);

    let mut g = c.benchmark_group("digest_64b");
    g.throughput(Throughput::Elements(ks.len() as u64));

    g.bench_function("canonical", |b| {
        b.iter(|| {
            for k in &ks {
                black_box(black_box(k).canonical());
            }
        })
    });
    g.bench_function("canonical_then_hash", |b| {
        // The pre-batching shape: canonicalise, then hash, as separate
        // calls at separate pipeline stages.
        b.iter(|| {
            for k in &ks {
                let (canon, _) = black_box(k).canonical();
                black_box(hasher.hash_directed(&canon));
            }
        })
    });
    g.bench_function("digest_symmetric", |b| {
        // The dispatch-time digest: one call yields canon + hash, reused
        // by sharding, verdict sets, and the FlowCache row lookup.
        b.iter(|| {
            for k in &ks {
                black_box(hasher.digest_symmetric(black_box(k)));
            }
        })
    });
    g.finish();

    // The wire data plane: pre-encoded Ethernet/IPv4/TCP frames, parsed
    // in place and digested straight from the header bytes — the work a
    // dispatcher does per frame when replaying a compiled trace or pcap.
    let frames: Vec<Vec<u8>> = ks
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let p = Packet::builder(*k, Ts::from_nanos(i as u64 * 800))
                .payload(10)
                .seq(i as u32)
                .build();
            wire::encode(&p).to_vec()
        })
        .collect();

    let mut g = c.benchmark_group("wire_64b");
    g.throughput(Throughput::Elements(frames.len() as u64));

    g.bench_function("parse_from_bytes", |b| {
        // In-place header walk alone: Ethernet → IPv4 → TCP, no copies.
        b.iter(|| {
            for f in &frames {
                black_box(FrameView::parse(black_box(f)).expect("bench frames are valid"));
            }
        })
    });
    g.bench_function("parse_then_digest_raw", |b| {
        // The scalar wire hot path: parse, lift the raw 5-tuple, digest.
        b.iter(|| {
            for f in &frames {
                let v = FrameView::parse(black_box(f)).expect("bench frames are valid");
                black_box(hasher.flow_digest_raw(v.raw_tuple()));
            }
        })
    });
    g.bench_function("parse_then_digest_batch8", |b| {
        // The burst shape the dispatchers actually run: parse 8 frames,
        // then digest the 8 raw tuples in one interleaved batch.
        b.iter(|| {
            for chunk in frames.chunks_exact(8) {
                let mut tuples = [RawTuple::default(); 8];
                for (t, f) in tuples.iter_mut().zip(chunk) {
                    *t = FrameView::parse(black_box(f))
                        .expect("bench frames are valid")
                        .raw_tuple();
                }
                black_box(hasher.flow_digest_batch8(&tuples));
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("verdict_set_probe");
    g.throughput(Throughput::Elements(ks.len() as u64));
    let key_set: HashSet<FlowKey> = ks.iter().map(|k| k.canonical().0).collect();
    let digest_set: DigestSet = ks.iter().map(|k| hasher.digest_symmetric(k).1 .0).collect();

    g.bench_function("siphash_flowkey_set", |b| {
        // What the shards used to do per packet: SipHash the 13-byte
        // canonical 5-tuple for every black/whitelist membership test.
        b.iter(|| {
            let mut hits = 0usize;
            for k in &ks {
                if key_set.contains(&black_box(k).canonical().0) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("identity_digest_set", |b| {
        // What they do now: probe with the already-computed u64 digest.
        let digests: Vec<u64> = ks.iter().map(|k| hasher.digest_symmetric(k).1 .0).collect();
        b.iter(|| {
            let mut hits = 0usize;
            for d in &digests {
                if digest_set.contains(black_box(d)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_digest);
criterion_main!(benches);
