//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;
use smartwatch::host::{SnapshotAggregator, TimingWheel};
use smartwatch::net::{
    pcap, wire, Dur, FlowHasher, FlowKey, FrameStore, Packet, PacketBuilder, Proto, TcpFlags, Ts,
};
use smartwatch::sketch::{CountMin, FlowCounter};
use smartwatch::snic::{CachePolicy, FlowCache, FlowCacheConfig, FlowRecord, Mode, Outcome};
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (0u32..64, 0u32..8, 1u16..4, any::<bool>()).prop_map(|(a, b, port_sel, flip)| {
        let k = FlowKey::new(
            Ipv4Addr::from(0x0A00_0000 + a),
            Ipv4Addr::from(0xAC10_0000 + b),
            30_000 + port_sel,
            [22, 80, 443][usize::from(port_sel % 3)],
            Proto::Tcp,
        );
        if flip {
            k.reversed()
        } else {
            k
        }
    })
}

fn arb_packets(max: usize) -> impl Strategy<Value = Vec<(FlowKey, u64)>> {
    prop::collection::vec((arb_key(), 0u64..10_000_000), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The symmetric hash is direction-free for every key.
    #[test]
    fn symmetric_hash_is_direction_free(key in arb_key(), seed in any::<u64>()) {
        let h = FlowHasher::new(seed);
        prop_assert_eq!(h.hash_symmetric(&key), h.hash_symmetric(&key.reversed()));
    }

    /// FlowCache never duplicates a flow within the table and never loses
    /// a packet: resident + ring + drained counts equal processed counts.
    #[test]
    fn flowcache_conservation_and_uniqueness(pkts in arb_packets(300)) {
        let mut fc = FlowCache::new(FlowCacheConfig::split(3, 2, 2, CachePolicy::LRU_LPC));
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        for (key, t) in &pkts {
            let p = PacketBuilder::new(*key, Ts::from_nanos(*t)).build();
            if fc.process(&p).outcome != Outcome::ToHost {
                *truth.entry(key.canonical().0).or_default() += 1;
            }
        }
        // Uniqueness.
        let mut seen = HashMap::new();
        for r in fc.iter() {
            *seen.entry(r.key).or_insert(0u32) += 1;
        }
        prop_assert!(seen.values().all(|&c| c == 1));
        // Conservation.
        let mut exported: HashMap<FlowKey, u64> = HashMap::new();
        for r in fc.rings().drain() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        for r in fc.drain_all() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        prop_assert_eq!(truth, exported);
    }

    /// Mode transitions (General→Lite→General) never lose packets either.
    #[test]
    fn mode_transitions_conserve_packets(pkts in arb_packets(200), flip_at in 1usize..199) {
        let mut fc = FlowCache::new(FlowCacheConfig::general(3));
        let mut processed = 0u64;
        for (i, (key, t)) in pkts.iter().enumerate() {
            if i == flip_at {
                fc.set_mode(Mode::Lite);
            }
            if i == flip_at * 2 {
                fc.set_mode(Mode::General);
            }
            let p = PacketBuilder::new(*key, Ts::from_nanos(*t)).build();
            if fc.process(&p).outcome != Outcome::ToHost {
                processed += 1;
            }
        }
        let ring: u64 = fc.rings().drain().iter().map(|r| r.packets).sum();
        let resident: u64 = fc.drain_all().iter().map(|r| r.packets).sum();
        prop_assert_eq!(ring + resident, processed);
    }

    /// CountMin never undercounts, under any update pattern.
    #[test]
    fn countmin_never_undercounts(pkts in arb_packets(200)) {
        let mut cm = CountMin::new(3, 128, 9);
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        for (key, _) in &pkts {
            cm.update(key, 1);
            *truth.entry(key.canonical().0).or_default() += 1;
        }
        for (k, c) in truth {
            prop_assert!(cm.estimate(&k) >= c);
        }
    }

    /// Host aggregation is order-insensitive: any permutation of the same
    /// export stream yields identical per-flow totals.
    #[test]
    fn aggregation_order_insensitive(
        records in prop::collection::vec((arb_key(), 1u64..100, 0u64..1000), 1..40),
        seed in any::<u64>(),
    ) {
        let recs: Vec<FlowRecord> = records
            .iter()
            .map(|(k, pkts, t)| {
                let mut r = FlowRecord::new(k.canonical().0, Ts::from_millis(*t), 64);
                r.packets = *pkts;
                r.bytes = pkts * 64;
                r
            })
            .collect();
        let mut shuffled = recs.clone();
        // Deterministic Fisher–Yates from the seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let mut a = SnapshotAggregator::new();
        a.ingest_batch(recs);
        let mut b = SnapshotAggregator::new();
        b.ingest_batch(shuffled);
        prop_assert_eq!(a.len(), b.len());
        for r in a.iter() {
            let other = b.get(&r.key).expect("same flows");
            prop_assert_eq!(r.packets, other.packets);
            prop_assert_eq!(r.first_ts, other.first_ts);
            prop_assert_eq!(r.last_ts, other.last_ts);
        }
    }

    /// Pinned flows survive arbitrary floods.
    #[test]
    fn pinned_flows_survive(pkts in arb_packets(300)) {
        let mut fc = FlowCache::new(FlowCacheConfig::split(2, 2, 2, CachePolicy::LRU_LPC));
        let vip = FlowKey::tcp(
            Ipv4Addr::new(10, 1, 2, 3), 1111, Ipv4Addr::new(172, 16, 1, 1), 22);
        fc.process(&PacketBuilder::new(vip, Ts::ZERO).build());
        prop_assert!(fc.pin(&vip));
        for (key, t) in &pkts {
            let p = PacketBuilder::new(*key, Ts::from_nanos(*t + 1)).build();
            fc.process(&p);
        }
        prop_assert!(fc.get(&vip).is_some(), "pinned flow evicted");
    }

    /// Trace merge preserves packet counts and ordering.
    #[test]
    fn trace_transforms_preserve_counts(
        n1 in 1usize..50, n2 in 1usize..50
    ) {
        use smartwatch::trace::Trace;
        let mk = |n: usize, base: u64| {
            Trace::from_packets(
                (0..n)
                    .map(|i| {
                        let k = FlowKey::tcp(
                            Ipv4Addr::new(10, 0, 0, 1), 1,
                            Ipv4Addr::new(172, 16, 0, 1), 80);
                        PacketBuilder::new(k, Ts::from_micros(base + i as u64 * 7)).build()
                    })
                    .collect(),
            )
        };
        let merged = Trace::merge([mk(n1, 0), mk(n2, 3)]);
        prop_assert_eq!(merged.len(), n1 + n2);
        for w in merged.packets().windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
    }

    /// Wire and pcap codecs round-trip arbitrary packets, and each
    /// framing has one encoder: `encode_into` after any prefix appends
    /// exactly the bytes it writes into an empty buffer (v4 and v6), and a store compiled with
    /// either framing gives every packet back.
    #[test]
    fn wire_and_pcap_round_trip(
        key in arb_key(),
        proto in 0u8..4,
        ts_us in 0u64..1_000_000_000,
        payload in 0u16..1501,
        fields in (0u8..64, any::<u32>(), any::<u32>(), any::<u64>()),
        prefix in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let (flags, seq, ack, digest) = fields;
        // TCP, UDP, ICMP and an arbitrary IP protocol; only TCP and UDP
        // carry ports (a portless frame parses with ports 0).
        let key = match proto {
            0 => key,
            1 => FlowKey { proto: Proto::Udp, ..key },
            2 => FlowKey { proto: Proto::Icmp, src_port: 0, dst_port: 0, ..key },
            _ => FlowKey { proto: Proto::Other(47), src_port: 0, dst_port: 0, ..key },
        };
        let p = PacketBuilder::new(key, Ts::from_micros(ts_us))
            .flags(TcpFlags(flags))
            .seq(seq)
            .ack(ack)
            .payload(payload)
            .payload_digest(digest)
            .build();
        let mut v6_frame = Vec::new();
        wire::encode_v6_into(&p, &mut v6_frame);
        for (framing, encode_into, frame) in [
            ("v4", wire::encode_into as fn(&Packet, &mut Vec<u8>), wire::encode(&p)),
            ("v6", wire::encode_v6_into, v6_frame.clone()),
        ] {
            let mut buf = prefix.clone();
            encode_into(&p, &mut buf);
            prop_assert_eq!(&buf[..prefix.len()], &prefix[..], "{} prefix", framing);
            prop_assert_eq!(&buf[prefix.len()..], &frame[..], "{} frame", framing);
        }
        // What the parse recovers: header fields from the bytes, the rest
        // from the sideband; non-TCP frames carry no flags or seq/ack.
        let expect = if p.is_tcp() {
            p
        } else {
            Packet { flags: TcpFlags::NONE, seq: 0, ack: 0, ..p }
        };
        let v4 = FrameStore::from_packets(&[p, p]);
        let v6 = FrameStore::from_packets_v6(&[p, p]);
        for i in 0..2 {
            prop_assert_eq!(v4.packet(i), expect);
            prop_assert_eq!(v4.frame(i), &wire::encode(&p)[..]);
            prop_assert_eq!(v6.frame(i), &v6_frame[..]);
            // v6 frames are 20 bytes longer; the sideband wire length
            // is clamped up to the frame.
            let wire_len = p.wire_len.max(v6.frame(i).len() as u16);
            prop_assert_eq!(v6.packet(i), Packet { wire_len, ..expect });
        }
        // Without a sideband, only a TCP or UDP frame carries the whole
        // packet in its headers (a portless frame decodes with payload 0).
        if p.is_tcp() || p.is_udp() {
            let q = wire::decode(&wire::encode(&p), p.ts).unwrap();
            prop_assert_eq!(q.key, p.key);
            prop_assert_eq!(q.flags, expect.flags);
            prop_assert_eq!(q.seq, expect.seq);
            prop_assert_eq!(q.payload_len, p.payload_len);
            // Pcap round trip (µs resolution preserved exactly here).
            let parsed = pcap::read(&pcap::write(&[p])).unwrap();
            prop_assert_eq!(parsed.len(), 1);
            prop_assert_eq!(parsed[0].key, p.key);
            prop_assert_eq!(parsed[0].ts, p.ts);
        }
    }

    /// The timing wheel expires every item exactly once, in deadline
    /// order, never early.
    #[test]
    fn timing_wheel_expiry_order(
        deadlines in prop::collection::vec(0u64..10_000, 1..60),
        advance_step in 1u64..2_000,
    ) {
        let mut wheel: TimingWheel<usize> = TimingWheel::new(64, Dur::from_millis(200));
        for (i, d) in deadlines.iter().enumerate() {
            wheel.schedule(Ts::from_millis(*d), i);
        }
        let mut fired: Vec<(u64, usize)> = Vec::new();
        let mut now = 0u64;
        while !wheel.is_empty() {
            now += advance_step;
            for (when, item) in wheel.advance(Ts::from_millis(now)) {
                prop_assert!(when.as_nanos() <= Ts::from_millis(now).as_nanos(),
                    "item fired early");
                fired.push((when.as_nanos(), item));
            }
        }
        prop_assert_eq!(fired.len(), deadlines.len());
        // Each advance batch is deadline-sorted; across batches time moves
        // forward, so the whole sequence is sorted.
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        // Every scheduled item fired exactly once.
        let mut ids: Vec<usize> = fired.iter().map(|(_, i)| *i).collect();
        ids.sort_unstable();
        let expected: Vec<usize> = (0..deadlines.len()).collect();
        prop_assert_eq!(ids, expected);
    }

    /// Switch steering rules are direction-symmetric for every packet:
    /// if a rule matches a packet it also matches the reverse packet.
    #[test]
    fn steer_rules_are_symmetric(
        key in arb_key(),
        prefix_ip in any::<u32>(),
        width in 0u8..33,
        on_src in any::<bool>(),
    ) {
        use smartwatch::p4sim::SteerRule;
        let prefix = smartwatch::net::key::prefix_of(Ipv4Addr::from(prefix_ip), width);
        let rule = if on_src {
            SteerRule::src(prefix, width)
        } else {
            SteerRule::dst(prefix, width)
        };
        let p = PacketBuilder::new(key, Ts::ZERO).build();
        let r = PacketBuilder::new(key.reversed(), Ts::ZERO).build();
        prop_assert_eq!(rule.matches(&p), rule.matches(&r));
    }
}
