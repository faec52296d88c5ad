//! Differential "reset ≡ fresh": a detector that processed one whole
//! trace (end-of-trace sweep included), was `reset()` and then fed a
//! second trace must answer it exactly as a detector that never saw the
//! first — per detector, and for the whole [`DetectorSuite`]. This is
//! the contract the engine's resident flow state rests on: from the
//! second segment on, shards only ever run on reset state.
//!
//! Alerts are compared per packet as a sorted multiset: within one call
//! a sweep reports in table order, which differs between any two table
//! instances (each draws its own hasher key). For the same reason the
//! scan alert's `fanout N` suffix is left out: when a source re-probes
//! one port, the distinct-probe count *at the moment the walk crosses
//! its threshold* depends on the order the sweep visits that source's
//! timed-out attempts in — between two fresh detectors as well.

use smartwatch_bench::workloads::{attack_mix, attack_mix_full, caida_64b};
use smartwatch_core::{DetectorSuite, HostNeed, SuiteOutcome};
use smartwatch_detect::auth::{BruteforceDetector, CertExpiryMonitor, KerberosMonitor};
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::ForgedRstDetector;
use smartwatch_detect::slowloris::SlowlorisDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_host::{ArtefactRegistry, AuthOutcome};
use smartwatch_net::{Dur, FlowDigest, FlowHasher, Packet, Ts};
use smartwatch_snic::{FlowCache, FlowCacheConfig, FlowRecord};
use smartwatch_trace::attacks::auth::{bruteforce, ArtefactInfo, BruteforceConfig};
use smartwatch_trace::attacks::victim_ip;
use smartwatch_trace::background::Preset;
use smartwatch_trace::Trace;
use std::fmt::Debug;
use std::net::Ipv4Addr;

/// Everything one call reported, order-free.
/// One packet into a scan pipeline, digested under its own hasher.
fn scan_packet(d: &mut ScanPipeline, p: &Packet) -> Vec<String> {
    let flow = d.conns.digest(&p.key);
    let mut alerts = Vec::new();
    d.on_packet_digested(p, &flow, &mut alerts);
    said(alerts)
}

fn said<T: Debug>(out: impl IntoIterator<Item = T>) -> Vec<String> {
    let mut v: Vec<String> = out
        .into_iter()
        .map(|a| {
            let text = format!("{a:?}");
            let end = text.find(", fanout").unwrap_or(text.len());
            text[..end].to_string()
        })
        .collect();
    v.sort();
    v
}

fn registry(artefacts: &[ArtefactInfo]) -> ArtefactRegistry {
    ArtefactRegistry::from_pairs(artefacts.iter().map(|a| (a.digest, a.expires_at)))
}

fn end_of(trace: &Trace) -> Ts {
    trace.packets().last().expect("non-empty trace").ts
}

/// Run `reused` through the whole of `first`, reset it, and hold it
/// against `fresh` over `second` call by call. `step` feeds one packet,
/// `finish` is the end-of-trace sweep; both return what was reported
/// plus any counters worth comparing. The first life must have said
/// something, or the reset had nothing to forget.
fn check<D>(
    name: &str,
    (mut reused, mut fresh): (D, D),
    (first, second): (&Trace, &Trace),
    step: impl Fn(&mut D, &Packet) -> Vec<String>,
    finish: impl Fn(&mut D, Ts) -> Vec<String>,
    reset: impl Fn(&mut D),
) {
    let mut spoke = 0;
    for p in first.iter() {
        spoke += step(&mut reused, p).len();
    }
    spoke += finish(&mut reused, end_of(first)).len();
    assert!(spoke > 0, "{name}: the first trace never exercised it");
    reset(&mut reused);
    let mut spoke = 0;
    for (i, p) in second.iter().enumerate() {
        let want = step(&mut fresh, p);
        spoke += want.len();
        assert_eq!(step(&mut reused, p), want, "{name}: packet {i}");
    }
    let want = finish(&mut fresh, end_of(second));
    spoke += want.len();
    assert_eq!(finish(&mut reused, end_of(second)), want, "{name}: finish");
    assert!(spoke > 0, "{name}: the second trace never exercised it");
}

/// The second lives every detector is held to: a trace it has never
/// seen (a second seed), and the first trace over again — the same
/// flows, sources and digests, which is what stale membership (an
/// `alerted` set, the Bloom filter, a `seen` digest) would answer
/// differently.
#[test]
fn every_packet_fed_detector_resets_to_fresh() {
    let first = attack_mix(1, 1);
    for second in [&attack_mix(1, 2), &first] {
        packet_fed_detectors_reset_to_fresh((&first, second));
    }
}

fn packet_fed_detectors_reset_to_fresh(traces: (&Trace, &Trace)) {
    check(
        "scan",
        (ScanPipeline::new(), ScanPipeline::new()),
        traces,
        scan_packet,
        |d, now| {
            let mut out = said(d.finish(now));
            out.push(format!("conns {}", d.conns.table().len()));
            out
        },
        ScanPipeline::reset,
    );
    check(
        "rst",
        (
            ForgedRstDetector::paper_default(),
            ForgedRstDetector::paper_default(),
        ),
        traces,
        |d, p| {
            // The suite's own gate; `Released` order follows the wheel.
            if p.is_tcp() && (p.flags.rst() || p.payload_len > 0) {
                d.on_packet(p).iter().map(|e| format!("{e:?}")).collect()
            } else {
                Vec::new()
            }
        },
        |d, now| {
            let mut out: Vec<String> = d.finish(now).iter().map(|e| format!("{e:?}")).collect();
            out.push(format!(
                "fast {} slow {} buffered {}",
                d.fast_path,
                d.slow_path,
                d.buffered()
            ));
            out
        },
        ForgedRstDetector::reset,
    );
    check(
        "dns",
        (DnsAmpDetector::new(), DnsAmpDetector::new()),
        traces,
        |d, p| said(d.on_packet(p)),
        |_, _| Vec::new(),
        DnsAmpDetector::reset,
    );
    check(
        "worm",
        (
            EarlyBirdDetector::paper_default(),
            EarlyBirdDetector::paper_default(),
        ),
        traces,
        |d, p| said(d.on_packet(p)),
        |d, _| vec![format!("{:?}", d.signatures())],
        EarlyBirdDetector::reset,
    );
}

#[test]
fn the_outcome_and_digest_fed_detectors_reset_to_fresh() {
    // Bruteforce: the same sources fail again in the second life; a
    // reset detector must count them from zero and alert again.
    let src = |i: u8| Ipv4Addr::new(198, 18, 0, i);
    let campaign = |d: &mut BruteforceDetector, rounds: u64| {
        let mut out = Vec::new();
        for t in 0..rounds {
            for i in 0..5 {
                out.extend(d.observe(src(i), Ts::from_secs(t), AuthOutcome::Failure));
            }
        }
        said(out)
    };
    let (mut reused, mut fresh) = (BruteforceDetector::ssh(), BruteforceDetector::ssh());
    assert_eq!(campaign(&mut reused, 4).len(), 5);
    assert!(
        campaign(&mut reused, 4).is_empty(),
        "alerts once per source"
    );
    reused.reset();
    assert_eq!(campaign(&mut reused, 3), campaign(&mut fresh, 3));
    assert_eq!(reused.flagged(), fresh.flagged());

    // Certificates / tickets: every digest is new again after a reset.
    let (_, certs, tickets) = attack_mix_full(1, 1);
    let horizon = Dur::from_secs(30 * 86_400);
    let now = Ts::from_millis(600);
    let observe =
        |m: &mut CertExpiryMonitor| said(certs.iter().flat_map(|c| m.observe(c.digest, now)));
    let mut reused = CertExpiryMonitor::new(registry(&certs), horizon);
    let first = observe(&mut reused);
    assert!(!first.is_empty() && observe(&mut reused).is_empty());
    reused.reset();
    assert_eq!(observe(&mut reused), first);
    let lifetime = Dur::from_secs(36_000);
    let issued = Ts::from_millis(700);
    let observe =
        |m: &mut KerberosMonitor| said(tickets.iter().flat_map(|t| m.observe(t.digest, issued)));
    let mut reused = KerberosMonitor::new(registry(&tickets), lifetime);
    let first = observe(&mut reused);
    assert!(!first.is_empty() && observe(&mut reused).is_empty());
    reused.reset();
    assert_eq!(observe(&mut reused), first);
}

/// The flow records a trace leaves in (and evicts from) a FlowCache.
fn exported(trace: &Trace) -> Vec<FlowRecord> {
    let mut cache = FlowCache::new(FlowCacheConfig::general(10));
    for p in trace.iter() {
        cache.process(p);
    }
    let mut records = cache.rings().drain();
    records.extend(cache.drain_all());
    records
}

#[test]
fn the_whole_suite_resets_to_fresh() {
    let (first, certs, tickets) = attack_mix_full(1, 1);
    for second in [&attack_mix_full(1, 2).0, &first] {
        suite_resets_to_fresh(&first, second, &certs, &tickets);
    }
}

fn suite_resets_to_fresh(
    first: &Trace,
    second: &Trace,
    certs: &[ArtefactInfo],
    tickets: &[ArtefactInfo],
) {
    let suite = || {
        DetectorSuite::new()
            .with_cert_registry(registry(certs), Dur::from_secs(30 * 86_400))
            .with_krb_registry(registry(tickets), Dur::from_secs(36_000))
    };
    let (first_records, second_records) = (exported(first), exported(second));
    // The lives are told apart by address: the second may be the first
    // trace again, with the same end time.
    let first_life = std::cell::Cell::new(true);
    check(
        "suite",
        (suite(), suite()),
        (first, second),
        |s, p| {
            let o = s.on_packet(p);
            let mut out = said(o.alerts);
            // Tier and whitelist decisions are part of the answer.
            if o.host == smartwatch_core::HostNeed::Host {
                out.push("host".into());
            }
            out.extend(said(o.whitelist));
            out
        },
        |s, now| {
            // Slowloris runs at the interval boundary, over records.
            let records = if first_life.get() {
                &first_records
            } else {
                &second_records
            };
            let mut out = said(s.end_interval(records, now));
            out.extend(said(s.finish(now)));
            out.push(format!("{:?}", s.ops));
            out.push(format!("{:?}", (s.rst.fast_path, s.rst.slow_path)));
            out
        },
        |s| {
            first_life.set(false);
            s.reset()
        },
    );

    // The standalone Slowloris detector, fed the same way.
    let mut reused = SlowlorisDetector::new();
    let now = end_of(first);
    let alerts = said(reused.analyze(&first_records, now));
    assert!(!alerts.is_empty(), "the mix carries a Slowloris campaign");
    assert!(reused.analyze(&first_records, now).is_empty());
    reused.reset();
    assert_eq!(said(reused.analyze(&first_records, now)), alerts);
}

/// Differential "digested ≡ keyed": a detector fed `(packet, flow
/// digest)` pairs the way the engine's shards feed it must answer every
/// packet exactly as its twin fed bare packets — which canonicalises
/// and hashes each key itself, under whatever seed it was built with.
/// `digested` steps with the carried [`FlowDigest`], `keyed` without.
fn check_digested<D>(
    name: &str,
    (mut digested, mut keyed): (D, D),
    trace: &Trace,
    hasher: &FlowHasher,
    step_digested: impl Fn(&mut D, &Packet, &FlowDigest) -> Vec<String>,
    step_keyed: impl Fn(&mut D, &Packet) -> Vec<String>,
    finish: impl Fn(&mut D, Ts) -> Vec<String>,
) -> D {
    let mut spoke = 0;
    for (i, p) in trace.iter().enumerate() {
        let want = step_keyed(&mut keyed, p);
        spoke += want.len();
        let flow = hasher.flow_digest(&p.key);
        assert_eq!(
            step_digested(&mut digested, p, &flow),
            want,
            "{name}: packet {i}"
        );
    }
    let want = finish(&mut keyed, end_of(trace));
    spoke += want.len();
    assert_eq!(finish(&mut digested, end_of(trace)), want, "{name}: finish");
    assert!(spoke > 0, "{name}: the trace never exercised it");
    digested
}

/// The engine's default ingest seed: the carried digests are made
/// under it, the keyed twins keep the seed their constructor picks.
const INGEST_SEED: u64 = 0x51CC;

/// The hasher a digested twin is built with. Under debug assertions it
/// has to be the ingest hasher — every digested entry asserts the
/// carried digest against its own. With them off it is deliberately
/// another one: a digested entry that hashed a key itself anywhere
/// would look in a slot the carried digests never filled, and the twins
/// would part. That they do not is the one-hash claim: nothing behind
/// `on_packet_digested` consults a hasher.
fn twin_hasher() -> FlowHasher {
    let seed = if cfg!(debug_assertions) { 0 } else { 0xD1FF };
    FlowHasher::new(INGEST_SEED ^ seed)
}

#[test]
fn every_flow_keyed_detector_answers_a_carried_digest_as_it_answers_a_key() {
    let caida = caida_64b(Preset::Caida2018, 1, 1);
    for trace in [&attack_mix(1, 1), &caida] {
        detectors_answer_digests_as_keys(trace);
    }
}

fn detectors_answer_digests_as_keys(trace: &Trace) {
    let hasher = FlowHasher::new(INGEST_SEED);
    let scan = check_digested(
        "scan",
        (
            ScanPipeline::with_hasher(twin_hasher()),
            ScanPipeline::new(),
        ),
        trace,
        &hasher,
        |d, p, flow| {
            let mut alerts = Vec::new();
            d.on_packet_digested(p, flow, &mut alerts);
            said(alerts)
        },
        scan_packet,
        |d, now| {
            let mut out = said(d.finish(now));
            out.push(format!("conns {}", d.conns.table().len()));
            out
        },
    );
    assert!(scan.conns.table().stats().lookups > 0);

    let horizon = ForgedRstDetector::PAPER_HORIZON;
    // The suite's own gate; `Released` order follows the wheel.
    let gate = |p: &Packet| p.is_tcp() && (p.flags.rst() || p.payload_len > 0);
    let events = |evs: Vec<_>| evs.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>();
    check_digested(
        "rst",
        (
            ForgedRstDetector::with_hasher(horizon, twin_hasher()),
            ForgedRstDetector::paper_default(),
        ),
        trace,
        &hasher,
        |d, p, flow| {
            if gate(p) {
                let mut evs = Vec::new();
                d.on_packet_digested(p, flow, &mut evs);
                events(evs)
            } else {
                Vec::new()
            }
        },
        |d, p| {
            if gate(p) {
                events(d.on_packet(p))
            } else {
                Vec::new()
            }
        },
        |d, now| {
            let mut out = events(d.finish(now));
            out.push(format!("buffered {}", d.buffered()));
            out
        },
    );
}

/// The whole suite, and the one-hash claim with it: over the attack mix
/// and the CAIDA stand-in, the digested entry point decides every packet
/// as the keyed one does — alerts, tier, whitelist, closing sweep, op
/// counts — although (debug assertions off) the suite was built for
/// another seed than the digests it is handed ([`twin_hasher`]).
#[test]
fn the_suite_answers_a_carried_digest_as_it_answers_a_key_and_hashes_nothing() {
    let (mix, certs, tickets) = attack_mix_full(1, 1);
    let caida = caida_64b(Preset::Caida2018, 1, 1);
    let hasher = FlowHasher::new(INGEST_SEED);
    for trace in [&mix, &caida] {
        let build = |suite: DetectorSuite| {
            suite
                .with_cert_registry(registry(&certs), Dur::from_secs(30 * 86_400))
                .with_krb_registry(registry(&tickets), Dur::from_secs(36_000))
        };
        let answer = |o: SuiteOutcome| {
            let mut out = said(o.alerts);
            if o.host == HostNeed::Host {
                out.push("host".into());
            }
            out.extend(said(o.whitelist));
            out
        };
        let suite = check_digested(
            "suite",
            (
                build(DetectorSuite::with_hasher(twin_hasher())),
                build(DetectorSuite::new()),
            ),
            trace,
            &hasher,
            |s, p, flow| {
                let mut out = SuiteOutcome::default();
                s.on_packet_digested(p, flow, &mut out);
                answer(out)
            },
            |s, p| answer(s.on_packet(p)),
            |s, now| {
                let mut out = said(s.finish(now));
                out.push(format!("{:?}", s.ops));
                out
            },
        );
        let books = suite.table_stats();
        assert!(books.lookups > 0 && suite.table_slots() > 0, "{books:?}");
    }
}

/// The shard keeps one [`SuiteOutcome`] for every packet it inspects.
/// Driven that way, the suite must answer each packet — alerts (kind,
/// subject, ts and detail, order-free as above), host need, whitelist —
/// as the keyed entry point answers its twin with a new outcome per
/// packet: nothing the previous packet left in the sink may leak into
/// the next. The walk must cross the hazards: a packet right after one
/// that alerted, one right after one that whitelisted, RSTs buffered
/// and RSTs released off the wheel.
#[test]
fn a_reused_outcome_answers_every_packet_as_a_fresh_one() {
    let mut login = BruteforceConfig::ssh(victim_ip(3), Ts::from_millis(200), 7);
    login.attackers = 2;
    login.final_success = true;
    let mix = Trace::merge([attack_mix(1, 1), bruteforce(&login)]);
    let caida = caida_64b(Preset::Caida2018, 1, 1);
    let caida = Trace::from_packets(caida.iter().take(60_000).copied().collect());
    let hasher = FlowHasher::new(INGEST_SEED);
    let (mut after_alert, mut after_whitelist) = (0, 0);
    let (mut buffered, mut released) = (0, 0);
    for trace in [&mix, &caida] {
        let mut reused = DetectorSuite::with_hasher(hasher);
        let mut fresh = DetectorSuite::with_hasher(hasher);
        let mut sink = SuiteOutcome::default();
        for (i, p) in trace.iter().enumerate() {
            let (alerted, whitelisted) = (!sink.alerts.is_empty(), !sink.whitelist.is_empty());
            let held = reused.rst.buffered();
            reused.on_packet_digested(p, &hasher.flow_digest(&p.key), &mut sink);
            let want = fresh.on_packet(p);
            assert_eq!(said(&sink.alerts), said(&want.alerts), "alerts, packet {i}");
            assert_eq!(sink.host, want.host, "host need, packet {i}");
            assert_eq!(sink.whitelist, want.whitelist, "whitelist, packet {i}");
            after_alert += usize::from(alerted);
            after_whitelist += usize::from(whitelisted);
            let raced = want.alerts.iter().any(|a| a.detail.contains("raced"));
            match reused.rst.buffered().cmp(&held) {
                std::cmp::Ordering::Greater => buffered += 1,
                std::cmp::Ordering::Less if !raced => released += 1,
                _ => {}
            }
        }
    }
    assert!(
        after_alert > 0 && after_whitelist > 0 && buffered > 0 && released > 0,
        "after alert {after_alert}, after whitelist {after_whitelist}, \
         RSTs buffered {buffered}, released {released}"
    );
}
