//! In-sequence forged TCP RST detection (paper §5.1.2).
//!
//! Strategy (Weaver–Sommer–Paxson): buffer suspect RST packets in a
//! timing wheel for T (= 2 s) instead of delivering them. If genuine data
//! from the allegedly-resetting endpoint arrives while the RST is
//! buffered — the *race condition* — the RST was forged: discard it and
//! alert. If the timer expires quietly, release the RST to its
//! destination.
//!
//! The Bloom-filter fast path reproduces the paper's measurement: a
//! membership check answers "no previous RST buffered" in O(k) hashes —
//! 69.7% of RSTs take this path in their trace — before paying for the
//! exact duplicate lookup (in the paper a wheel scan; see below).
//!
//! **At most one RST is buffered per canonical flow.** The Bloom filter
//! has no false negatives and nothing is ever removed from it, so while a
//! flow has an RST buffered every further RST of that flow takes the slow
//! path, is found to be a duplicate and is *not* buffered. The detector
//! therefore keeps, beside the wheel, an exact index canonical flow →
//! (wheel deadline, direction) of the buffered RSTs. One lookup in it
//! answers both per-packet questions — "is an RST of this flow buffered?"
//! (duplicate check) and "did this data packet's sender have one
//! buffered?" (the race) — and the deadline names the one wheel slot a
//! forged RST is removed from, so no packet walks the wheel.

use crate::{Alert, Subject, Visited};
use smartwatch_host::TimingWheel;
use smartwatch_net::{AttackKind, Dur, FlowDigest, FlowHasher, FlowKey, HashDigest, Packet, Ts};
use smartwatch_sketch::BloomFilter;
use smartwatch_snic::{FlowTable, Keyed};

/// A buffered suspect RST.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BufferedRst {
    /// Canonical flow the RST belongs to.
    pub flow: FlowKey,
    /// Sequence number carried by the RST.
    pub seq: u32,
    /// Arrival time.
    pub arrived: Ts,
}

/// Events the detector reports per packet.
#[derive(Clone, Debug, PartialEq)]
pub enum RstEvent {
    /// RST buffered pending verification (took the Bloom fast path).
    BufferedFast,
    /// RST buffered after the exact duplicate lookup (Bloom hit ⇒
    /// possible duplicate).
    BufferedSlow,
    /// Second RST for a flow that already has one buffered — immediately
    /// suspicious (duplicate-RST signature).
    DuplicateRst(Alert),
    /// Genuine data raced a buffered RST: forged. RST discarded.
    ForgedDetected(Alert),
    /// Timer expired; RST released to its destination (genuine).
    Released(FlowKey),
}

/// Where the wheel holds a flow's buffered RST.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Indexed {
    flow: FlowKey,
    /// The deadline the RST is filed under.
    deadline: Ts,
    /// Whether it travelled canonical-forward.
    forward: bool,
}

impl Keyed for Indexed {
    fn flow(&self) -> &FlowKey {
        &self.flow
    }
}

/// The forged-RST detector.
pub struct ForgedRstDetector {
    /// Buffering horizon T (paper: 2 s).
    pub horizon: Dur,
    /// Each buffered RST beside its flow's digest, so expiry finds the
    /// index slot without hashing the key again.
    wheel: TimingWheel<(HashDigest, BufferedRst)>,
    /// Exactly the wheel's contents, by canonical flow, probed with the
    /// digest the packet carries. The same digest is the flow's Bloom
    /// filter id.
    index: FlowTable<Indexed>,
    bloom: BloomFilter,
    /// Digests bare keys for [`ForgedRstDetector::on_packet`].
    hasher: FlowHasher,
    /// RSTs that took the fast path (Bloom miss: no lookup needed).
    pub fast_path: u64,
    /// RSTs that required the exact duplicate lookup.
    pub slow_path: u64,
    visited: Visited,
}

impl ForgedRstDetector {
    /// Detector with horizon T. The wheel has 512 slots of T/128, so a
    /// buffered RST sits 128 ticks ahead on a 4 T wheel. Bare keys are
    /// digested under the detector's own seed.
    pub fn new(horizon: Dur) -> ForgedRstDetector {
        ForgedRstDetector::with_hasher(horizon, FlowHasher::new(0xF0F0))
    }

    /// [`ForgedRstDetector::new`] for flows digested by `hasher` — the
    /// one every carried digest must come from.
    pub fn with_hasher(horizon: Dur, hasher: FlowHasher) -> ForgedRstDetector {
        let tick = Dur::from_nanos((horizon.as_nanos() / 128).max(1_000));
        ForgedRstDetector {
            horizon,
            wheel: TimingWheel::new(512, tick),
            index: FlowTable::new(),
            bloom: BloomFilter::for_items(100_000, 0.01, 0xF0F0),
            hasher,
            fast_path: 0,
            slow_path: 0,
            visited: Visited::default(),
        }
    }

    /// The paper's buffering horizon: T = 2 s.
    pub const PAPER_HORIZON: Dur = Dur::from_secs(2);

    /// Paper configuration: T = 2 s.
    pub fn paper_default() -> ForgedRstDetector {
        ForgedRstDetector::new(Self::PAPER_HORIZON)
    }

    /// Back to the state [`ForgedRstDetector::new`] built, in place,
    /// keeping the horizon. Wheel, index and Bloom filter are cleared
    /// *together*: the index must hold exactly the wheel's contents, and
    /// the one-RST-per-flow invariant rests on the filter never
    /// forgetting a flow whose RST is still buffered — clearing it is
    /// sound only at the moment nothing is.
    pub fn reset(&mut self) {
        self.index.reset();
        self.wheel.reset();
        self.bloom.clear();
        self.fast_path = 0;
        self.slow_path = 0;
    }

    /// Heap bytes the detector holds: wheel slots, index, filter bits.
    pub fn resident_bytes(&self) -> usize {
        self.wheel.resident_bytes() + self.index.resident_bytes() + self.bloom.memory_bytes()
    }

    /// The buffered-RST index: its books and size.
    pub fn table(&self) -> &FlowTable<impl Keyed + Copy> {
        &self.index
    }

    /// Buffered RST count.
    pub fn buffered(&self) -> usize {
        self.wheel.len()
    }

    /// Expire RSTs due by `now`: each leaves the index and is released
    /// into `events`.
    fn release_due(&mut self, now: Ts, events: &mut Vec<RstEvent>) {
        for (_, (digest, r)) in self.wheel.advance(now) {
            self.index.remove(&r.flow, digest);
            events.push(RstEvent::Released(r.flow));
        }
    }

    /// Process one packet at its timestamp. Expired RSTs are released as
    /// `Released` events; the packet itself may buffer, duplicate-flag, or
    /// race-detect.
    pub fn on_packet(&mut self, pkt: &Packet) -> Vec<RstEvent> {
        let flow = self.hasher.flow_digest(&pkt.key);
        let mut events = Vec::new();
        self.on_packet_digested(pkt, &flow, &mut events);
        events
    }

    /// [`ForgedRstDetector::on_packet`] for a packet whose flow identity
    /// was computed at ingest, appending its events to the caller's
    /// `events`: `flow` must be the [`FlowDigest`] of `pkt.key` under
    /// this detector's hasher (debug-asserted).
    pub fn on_packet_digested(
        &mut self,
        pkt: &Packet,
        flow: &FlowDigest,
        events: &mut Vec<RstEvent>,
    ) {
        debug_assert_eq!(
            *flow,
            self.hasher.flow_digest(&pkt.key),
            "flow digest from another key or a differently-seeded hasher"
        );
        self.release_due(pkt.ts, events);

        if !pkt.is_tcp() {
            return;
        }
        let FlowDigest {
            canon,
            forward,
            digest,
            ..
        } = *flow;

        if pkt.flags.rst() {
            if self.bloom.contains(digest.0) {
                // Possible duplicate: ask the exact index (slow path).
                self.slow_path += 1;
                self.visited.bump();
                if self.index.contains(&canon, digest) {
                    events.push(RstEvent::DuplicateRst(Alert::new(
                        AttackKind::ForgedTcpRst,
                        Subject::Flow(canon),
                        pkt.ts,
                        "duplicate RST while one is buffered",
                    )));
                    return;
                }
                events.push(RstEvent::BufferedSlow);
            } else {
                self.fast_path += 1;
                events.push(RstEvent::BufferedFast);
            }
            self.bloom.insert(digest.0);
            let deadline = self.wheel.schedule(
                pkt.ts + self.horizon,
                (
                    digest,
                    BufferedRst {
                        flow: canon,
                        seq: pkt.seq,
                        arrived: pkt.ts,
                    },
                ),
            );
            self.index.insert(
                digest,
                Indexed {
                    flow: canon,
                    deadline,
                    forward,
                },
            );
            return;
        }

        // Data packet: does it race a buffered RST from the same sender?
        if pkt.payload_len > 0 {
            self.visited.bump();
            let raced = self
                .index
                .get(&canon, digest)
                .filter(|i| i.forward == forward);
            if let Some(&Indexed { deadline, .. }) = raced {
                let visited = &self.visited;
                let (_, rst) = self
                    .wheel
                    .remove_at(deadline, |(_, r)| {
                        visited.bump();
                        r.flow == canon
                    })
                    .expect("indexed RST is in the wheel");
                self.index.remove(&canon, digest);
                events.push(RstEvent::ForgedDetected(Alert::new(
                    AttackKind::ForgedTcpRst,
                    Subject::Flow(canon),
                    pkt.ts,
                    format!(
                        "data seq {} raced RST seq {} after {}",
                        pkt.seq,
                        rst.seq,
                        pkt.ts.since(rst.arrived)
                    ),
                )));
            }
        }
    }

    /// Flush: release everything still buffered (end of trace).
    pub fn finish(&mut self, now: Ts) -> Vec<RstEvent> {
        let mut events = Vec::new();
        self.release_due(now + self.horizon + Dur::from_secs(1), &mut events);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn flow(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            40000,
            Ipv4Addr::from(0xAC100001u32),
            443,
        )
    }

    fn rst(f: FlowKey, ts: Ts, seq: u32) -> Packet {
        PacketBuilder::new(f, ts)
            .flags(TcpFlags::RST)
            .seq(seq)
            .build()
    }

    fn data(f: FlowKey, ts: Ts, seq: u32) -> Packet {
        PacketBuilder::new(f, ts)
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .seq(seq)
            .payload(500)
            .build()
    }

    /// The detector as first written, minus the wheel: every duplicate
    /// check and every race check walks all buffered RSTs. Expiry order
    /// is the wheel's (deadline, then arrival). The oracle for the index.
    struct ScanningDetector {
        horizon: Dur,
        now: Ts,
        buffered: Vec<(Ts, BufferedRst, bool)>,
        bloom: BloomFilter,
        hasher: smartwatch_net::FlowHasher,
    }

    impl ScanningDetector {
        fn new() -> ScanningDetector {
            ScanningDetector {
                horizon: Dur::from_secs(2),
                now: Ts::ZERO,
                buffered: Vec::new(),
                bloom: BloomFilter::for_items(100_000, 0.01, 0xF0F0),
                hasher: smartwatch_net::FlowHasher::new(0xF0F0),
            }
        }

        fn release_due(&mut self, now: Ts) -> Vec<RstEvent> {
            if now < self.now {
                return Vec::new();
            }
            self.now = now;
            let (mut due, keep): (Vec<_>, Vec<_>) =
                self.buffered.drain(..).partition(|(d, _, _)| *d <= now);
            self.buffered = keep;
            due.sort_by_key(|(d, _, _)| *d);
            due.iter()
                .map(|(_, r, _)| RstEvent::Released(r.flow))
                .collect()
        }

        fn on_packet(&mut self, pkt: &Packet) -> Vec<RstEvent> {
            let mut events = self.release_due(pkt.ts);
            if !pkt.is_tcp() {
                return events;
            }
            let (flow, dir) = pkt.key.canonical();
            let forward = dir == smartwatch_net::key::Direction::Forward;
            if pkt.flags.rst() {
                let fid = self.hasher.hash_symmetric(&flow).0;
                if self.bloom.contains(fid) {
                    if self.buffered.iter().any(|(_, r, _)| r.flow == flow) {
                        events.push(RstEvent::DuplicateRst(Alert::new(
                            AttackKind::ForgedTcpRst,
                            Subject::Flow(flow),
                            pkt.ts,
                            "duplicate RST while one is buffered",
                        )));
                        return events;
                    }
                    events.push(RstEvent::BufferedSlow);
                } else {
                    events.push(RstEvent::BufferedFast);
                }
                self.bloom.insert(fid);
                let rst = BufferedRst {
                    flow,
                    seq: pkt.seq,
                    arrived: pkt.ts,
                };
                self.buffered
                    .push(((pkt.ts + self.horizon).max(self.now), rst, forward));
            } else if pkt.payload_len > 0 {
                let hit = self
                    .buffered
                    .iter()
                    .position(|(_, r, fwd)| r.flow == flow && *fwd == forward);
                if let Some(pos) = hit {
                    let (_, rst, _) = self.buffered.remove(pos);
                    events.push(RstEvent::ForgedDetected(Alert::new(
                        AttackKind::ForgedTcpRst,
                        Subject::Flow(flow),
                        pkt.ts,
                        format!(
                            "data seq {} raced RST seq {} after {}",
                            pkt.seq,
                            rst.seq,
                            pkt.ts.since(rst.arrived)
                        ),
                    )));
                }
            }
            events
        }

        fn finish(&mut self, now: Ts) -> Vec<RstEvent> {
            self.release_due(now + self.horizon + Dur::from_secs(1))
        }
    }

    impl ForgedRstDetector {
        /// The index holds exactly the wheel's contents.
        fn assert_index_is_the_wheel(&self) {
            assert_eq!(self.index.len(), self.wheel.len());
            for (deadline, (digest, r)) in self.wheel.iter() {
                let got = self.index.get(&r.flow, *digest).expect("indexed");
                assert_eq!((got.flow, got.deadline), (r.flow, deadline));
            }
        }
    }

    /// Seeded packet mix over `flows` flows, `gap` apart: new and repeated
    /// RSTs from either side, data from either side, UDP, and the odd
    /// packet stamped in the past.
    fn rst_stream(seed: u64, flows: u32, n: usize, start: Ts, gap: Dur) -> Vec<Packet> {
        let mut rng = seed;
        let mut next = move |m: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % m
        };
        let mut ts = start;
        (0..n)
            .map(|i| {
                ts += gap;
                let f = flow(next(u64::from(flows)) as u32);
                let f = if next(2) == 0 { f } else { f.reversed() };
                let at = if next(50) == 0 {
                    Ts::from_nanos(ts.as_nanos().saturating_sub(next(3_000_000_000)))
                } else {
                    ts
                };
                match next(10) {
                    0..=4 => rst(f, at, i as u32),
                    5..=8 => data(f, at, i as u32),
                    _ => smartwatch_net::packet::udp(f.src_ip, 9, f.dst_ip, 53, at, 80),
                }
            })
            .collect()
    }

    #[test]
    fn index_agrees_with_a_full_scan_on_every_packet() {
        for seed in 1..=4 {
            let mut d = ForgedRstDetector::paper_default();
            let mut oracle = ScanningDetector::new();
            // 300 flows at 4 ms: ~500 packets per horizon, so RSTs are
            // buffered, duplicated, raced, expired and re-buffered.
            let pkts = rst_stream(seed, 300, 4_000, Ts::ZERO, Dur::from_millis(4));
            let mut seen = [0usize; 5];
            for (i, p) in pkts.iter().enumerate() {
                let ev = d.on_packet(p);
                assert_eq!(ev, oracle.on_packet(p), "seed {seed} packet {i}");
                d.assert_index_is_the_wheel();
                for e in &ev {
                    seen[match e {
                        RstEvent::BufferedFast => 0,
                        RstEvent::BufferedSlow => 1,
                        RstEvent::DuplicateRst(_) => 2,
                        RstEvent::ForgedDetected(_) => 3,
                        RstEvent::Released(_) => 4,
                    }] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n >= 20), "seed {seed}: {seen:?}");
            let last = pkts.last().unwrap().ts;
            assert_eq!(d.finish(last), oracle.finish(last));
            d.assert_index_is_the_wheel();
            assert_eq!(d.buffered(), 0);
        }
    }

    #[test]
    fn index_holds_with_ten_thousand_rsts_buffered() {
        let mut d = ForgedRstDetector::paper_default();
        let mut oracle = ScanningDetector::new();
        // Fill: 12 000 distinct flows in 0.6 s, all still buffered.
        let mut ts = Ts::ZERO;
        for i in 0..12_000u32 {
            ts += Dur::from_micros(50);
            let p = rst(flow(i), ts, i);
            assert_eq!(d.on_packet(&p), oracle.on_packet(&p));
        }
        assert_eq!(d.buffered(), 12_000);
        d.assert_index_is_the_wheel();
        // Churn across the horizon: races, duplicates, expiry of the fill,
        // re-buffering.
        let pkts = rst_stream(9, 14_000, 6_000, ts, Dur::from_micros(500));
        let mut peak = 0;
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(d.on_packet(p), oracle.on_packet(p), "packet {i}");
            assert_eq!(d.index.len(), d.wheel.len());
            if i % 64 == 0 {
                d.assert_index_is_the_wheel();
            }
            peak = peak.max(d.buffered());
        }
        assert!(peak >= 12_000 && d.buffered() < 6_000, "peak {peak}");
        d.assert_index_is_the_wheel();
        let last = pkts.last().unwrap().ts;
        assert_eq!(d.finish(last), oracle.finish(last));
        d.assert_index_is_the_wheel();
    }

    /// The index half of `a_swept_table_resets_to_fresh`: `finish`
    /// empties the index one removal at a time; after `reset` it must
    /// probe like a table that was never emptied that way. Every later
    /// life costs exactly what the second did, and none costs more than
    /// the first, which grew the table by doubling.
    #[test]
    fn an_index_emptied_by_finish_resets_to_fresh() {
        let mut d = ForgedRstDetector::paper_default();
        let life = |d: &mut ForgedRstDetector| {
            let before = d.table().stats();
            let mut ts = Ts::ZERO;
            for i in 0..50_000u32 {
                ts += Dur::from_micros(10);
                d.on_packet(&rst(flow(i), ts, i));
            }
            assert_eq!(d.buffered(), 50_000);
            let filled = d.table().stats() - before;
            let bytes = d.resident_bytes();
            assert_eq!(d.finish(ts).len(), 50_000);
            assert_eq!(d.table().len(), 0);
            d.reset();
            (filled, bytes)
        };
        let (first, bytes) = life(&mut d);
        let second = life(&mut d);
        assert_eq!(second.0.lookups, first.lookups);
        assert!(second.0.probes <= first.probes, "{second:?} vs {first:?}");
        assert_eq!(second.1, bytes);
        assert_eq!(life(&mut d), second, "every later life repeats it");
    }

    #[test]
    fn a_packet_examines_a_bounded_number_of_buffered_rsts() {
        let mut d = ForgedRstDetector::paper_default();
        let mut ts = Ts::ZERO;
        for i in 0..10_000u32 {
            ts += Dur::from_micros(50);
            d.on_packet(&rst(flow(i), ts, i));
        }
        assert_eq!(d.buffered(), 10_000);
        let cost = |d: &mut ForgedRstDetector, p: Packet| {
            let before = d.visited.get();
            let ev = d.on_packet(&p);
            (d.visited.get() - before, ev)
        };
        ts += Dur::from_micros(50);

        let (n, ev) = cost(&mut d, rst(flow(5_000), ts, 1));
        assert!(matches!(ev.as_slice(), [RstEvent::DuplicateRst(_)]));
        assert!(n <= 1, "duplicate RST examined {n} entries");

        let (n, ev) = cost(&mut d, data(flow(20_000), ts, 1));
        assert!(ev.is_empty());
        assert!(n <= 1, "unrelated data examined {n} entries");

        let (n, ev) = cost(&mut d, data(flow(5_000).reversed(), ts, 1));
        assert!(ev.is_empty(), "other side's data is no race");
        assert!(n <= 1, "other side's data examined {n} entries");

        let (n, ev) = cost(&mut d, data(flow(5_000), ts, 1));
        assert!(matches!(ev.as_slice(), [RstEvent::ForgedDetected(_)]));
        assert!(n <= 3, "racing data examined {n} entries");
        assert_eq!(d.buffered(), 9_999);
    }

    #[test]
    fn forged_rst_detected_via_race() {
        let mut d = ForgedRstDetector::paper_default();
        // RST "from server" (reverse direction of flow(1)).
        let server_side = flow(1).reversed();
        let ev = d.on_packet(&rst(server_side, Ts::from_millis(10), 5000));
        assert_eq!(ev, vec![RstEvent::BufferedFast]);
        // Genuine server data 30 ms later: race detected.
        let ev = d.on_packet(&data(server_side, Ts::from_millis(40), 5000));
        assert!(matches!(ev.as_slice(), [RstEvent::ForgedDetected(_)]));
        assert_eq!(d.buffered(), 0, "forged RST discarded");
    }

    #[test]
    fn genuine_rst_released_after_horizon() {
        let mut d = ForgedRstDetector::paper_default();
        d.on_packet(&rst(flow(2), Ts::from_millis(10), 1));
        // No data follows; a later unrelated packet advances the wheel.
        let ev = d.on_packet(&data(flow(3), Ts::from_secs(3), 0));
        assert!(ev.contains(&RstEvent::Released(flow(2).canonical().0)));
    }

    #[test]
    fn duplicate_rst_flagged() {
        let mut d = ForgedRstDetector::paper_default();
        d.on_packet(&rst(flow(4), Ts::from_millis(10), 1));
        let ev = d.on_packet(&rst(flow(4), Ts::from_millis(20), 2));
        assert!(matches!(ev.as_slice(), [RstEvent::DuplicateRst(_)]));
    }

    #[test]
    fn data_from_other_side_does_not_trip_race() {
        // The race requires data from the *same sender* as the RST.
        let mut d = ForgedRstDetector::paper_default();
        let server_side = flow(5).reversed();
        d.on_packet(&rst(server_side, Ts::from_millis(10), 1));
        // Client keeps sending: not a race.
        let ev = d.on_packet(&data(flow(5), Ts::from_millis(30), 77));
        assert!(ev.is_empty());
        assert_eq!(d.buffered(), 1);
    }

    #[test]
    fn fast_path_dominates_distinct_flows() {
        let mut d = ForgedRstDetector::paper_default();
        for i in 0..100 {
            d.on_packet(&rst(flow(100 + i), Ts::from_millis(u64::from(i)), 1));
        }
        assert!(
            d.fast_path >= 95,
            "fast {} slow {}",
            d.fast_path,
            d.slow_path
        );
    }

    #[test]
    fn finish_releases_everything() {
        let mut d = ForgedRstDetector::paper_default();
        d.on_packet(&rst(flow(6), Ts::from_millis(1), 1));
        d.on_packet(&rst(flow(7), Ts::from_millis(2), 1));
        let ev = d.finish(Ts::from_millis(3));
        assert_eq!(ev.len(), 2);
        assert_eq!(d.buffered(), 0);
    }
}
