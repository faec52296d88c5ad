//! DNS amplification detection (paper §5.1.3 "Similar Attacks").
//!
//! Instead of the port-scan indicator φ, the detector computes the
//! amplification factor `sizeof(response)/sizeof(request)` per
//! (client, resolver) session. Reflection victims show high factors
//! across *many* resolvers simultaneously, so the alert keys on the
//! victim address once enough amplified sessions accumulate.

use crate::{Alert, Subject, Visited};
use smartwatch_net::{AttackKind, KeyedMix, Packet, Resident};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-(client, resolver) byte accounting.
#[derive(Clone, Copy, Debug, Default)]
struct PairBytes {
    request: u64,
    response: u64,
}

impl PairBytes {
    fn is_amplified(&self, min_request_bytes: u64, factor_threshold: f64) -> bool {
        self.request >= min_request_bytes
            && self.response as f64 / self.request.max(1) as f64 >= factor_threshold
    }
}

/// Per-client verdict state.
#[derive(Clone, Copy, Debug, Default)]
struct Client {
    /// How many of this client's pairs are currently amplified.
    amplified: usize,
    /// Already reported as a victim (one alert per client).
    alerted: bool,
}

/// DNS amplification detector.
///
/// Work per packet is constant in the number of sessions tracked: next to
/// the per-pair byte counts the detector keeps, per client, the number of
/// that client's pairs that are *currently amplified* — request bytes at
/// least `min_request_bytes` and response/request at least
/// `factor_threshold`. A packet changes the bytes of exactly one pair, so
/// the count moves by the difference of that pair's predicate before and
/// after (a pair can also *leave* the set, when its request bytes grow),
/// and always equals a full recount over the client's pairs.
#[derive(Clone, Debug)]
pub struct DnsAmpDetector {
    /// Response/request byte ratio that marks a session amplified. Fixed
    /// at construction: the per-client counts are kept against it.
    factor_threshold: f64,
    /// Minimum request bytes before a ratio is meaningful. Fixed like
    /// `factor_threshold`.
    min_request_bytes: u64,
    /// Amplified (client, resolver) pairs needed to flag a victim.
    pub pair_threshold: usize,
    pairs: HashMap<(Ipv4Addr, Ipv4Addr), PairBytes, KeyedMix>,
    clients: HashMap<Ipv4Addr, Client, KeyedMix>,
    visited: Visited,
}

impl DnsAmpDetector {
    /// Defaults: factor ≥ 10 over ≥ 4 resolvers.
    pub fn new() -> DnsAmpDetector {
        DnsAmpDetector {
            factor_threshold: 10.0,
            min_request_bytes: 120,
            pair_threshold: 4,
            pairs: HashMap::default(),
            clients: HashMap::default(),
            visited: Visited::default(),
        }
    }

    /// Back to the state [`DnsAmpDetector::new`] built, in place,
    /// keeping the thresholds (see [`Resident`]).
    pub fn reset(&mut self) {
        self.pairs.reset();
        self.clients.reset();
    }

    /// Heap bytes the detector's tables hold.
    pub fn resident_bytes(&self) -> usize {
        self.pairs.resident_bytes() + self.clients.resident_bytes()
    }

    /// Feed one packet (only UDP/53 packets are considered).
    pub fn on_packet(&mut self, p: &Packet) -> Option<Alert> {
        if !p.is_udp() {
            return None;
        }
        let (client, resolver, response) = if p.key.dst_port == 53 {
            (p.key.src_ip, p.key.dst_ip, false)
        } else if p.key.src_port == 53 {
            (p.key.dst_ip, p.key.src_ip, true)
        } else {
            return None;
        };
        let (min_request, factor, visited) =
            (self.min_request_bytes, self.factor_threshold, &self.visited);
        let is_amplified = |b: &PairBytes| {
            visited.bump();
            b.is_amplified(min_request, factor)
        };
        // A pair seen for the first time has no request bytes yet, so it
        // is (correctly) in no count before this packet.
        let b = self.pairs.entry((client, resolver)).or_default();
        let before = is_amplified(b);
        if response {
            b.response += u64::from(p.payload_len);
        } else {
            b.request += u64::from(p.payload_len);
        }
        let after = is_amplified(b);
        let c = self.clients.entry(client).or_default();
        match (before, after) {
            (false, true) => c.amplified += 1,
            (true, false) => c.amplified -= 1,
            _ => {}
        }
        // Check victim status.
        if c.alerted {
            return None;
        }
        let amplified = c.amplified;
        if amplified >= self.pair_threshold {
            c.alerted = true;
            Some(Alert::new(
                AttackKind::DnsAmplification,
                Subject::Destination(client),
                p.ts,
                format!("amplified responses from {amplified} resolvers"),
            ))
        } else {
            None
        }
    }
}

impl Default for DnsAmpDetector {
    fn default() -> Self {
        DnsAmpDetector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::packet::udp;
    use smartwatch_net::Dur;
    use smartwatch_net::Ts;

    fn victim() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 99)
    }

    fn resolver(i: u8) -> Ipv4Addr {
        Ipv4Addr::new(172, 16, 50, i)
    }

    #[test]
    fn amplified_reflection_flags_victim() {
        let mut d = DnsAmpDetector::new();
        let mut alerts = Vec::new();
        let mut t = Ts::ZERO;
        for r in 0..6u8 {
            for _ in 0..3 {
                t += Dur::from_millis(1);
                alerts.extend(d.on_packet(&udp(victim(), 5353, resolver(r), 53, t, 64)));
                t += Dur::from_millis(1);
                alerts.extend(d.on_packet(&udp(resolver(r), 53, victim(), 5353, t, 1400)));
            }
        }
        assert_eq!(alerts.len(), 1, "exactly one alert for the victim");
        let a = alerts.remove(0);
        assert_eq!(a.subject, Subject::Destination(victim()));
    }

    #[test]
    fn normal_dns_not_flagged() {
        let mut d = DnsAmpDetector::new();
        let client = Ipv4Addr::new(10, 0, 0, 5);
        let mut t = Ts::ZERO;
        for r in 0..8u8 {
            for _ in 0..10 {
                t += Dur::from_millis(1);
                assert!(d
                    .on_packet(&udp(client, 40000, resolver(r), 53, t, 60))
                    .is_none());
                t += Dur::from_millis(1);
                // Typical response ~2–4× the query.
                assert!(d
                    .on_packet(&udp(resolver(r), 53, client, 40000, t, 180))
                    .is_none());
            }
        }
    }

    #[test]
    fn single_resolver_is_not_enough() {
        let mut d = DnsAmpDetector::new();
        let mut t = Ts::ZERO;
        for _ in 0..50 {
            t += Dur::from_millis(1);
            d.on_packet(&udp(victim(), 5353, resolver(0), 53, t, 64));
            t += Dur::from_millis(1);
            assert!(d
                .on_packet(&udp(resolver(0), 53, victim(), 5353, t, 1400))
                .is_none());
        }
    }

    impl DnsAmpDetector {
        /// The detector's original definition of a client's count: walk
        /// every pair. Kept as the oracle for the incremental count.
        fn recount(&self, client: Ipv4Addr) -> usize {
            self.pairs
                .iter()
                .filter(|((c, _), b)| {
                    *c == client && b.is_amplified(self.min_request_bytes, self.factor_threshold)
                })
                .count()
        }
    }

    /// The detector as first written: a full recount on every packet.
    #[derive(Default)]
    struct RecountingDetector {
        pairs: HashMap<(Ipv4Addr, Ipv4Addr), PairBytes>,
        alerted: std::collections::HashSet<Ipv4Addr>,
    }

    impl RecountingDetector {
        fn on_packet(&mut self, p: &Packet) -> Option<Alert> {
            let (client, resolver, response) = if p.key.dst_port == 53 {
                (p.key.src_ip, p.key.dst_ip, false)
            } else {
                (p.key.dst_ip, p.key.src_ip, true)
            };
            let e = self.pairs.entry((client, resolver)).or_default();
            if response {
                e.response += u64::from(p.payload_len);
            } else {
                e.request += u64::from(p.payload_len);
            }
            if self.alerted.contains(&client) {
                return None;
            }
            let amplified = self
                .pairs
                .iter()
                .filter(|((c, _), b)| *c == client && b.is_amplified(120, 10.0))
                .count();
            (amplified >= 4).then(|| {
                self.alerted.insert(client);
                Alert::new(
                    AttackKind::DnsAmplification,
                    Subject::Destination(client),
                    p.ts,
                    format!("amplified responses from {amplified} resolvers"),
                )
            })
        }
    }

    /// Seeded DNS stream over a few clients × resolvers. Big responses
    /// push pairs over the factor; bursts of big *requests* pull them
    /// back under it, so pairs enter and leave the amplified set.
    fn dns_stream(seed: u64, n: usize) -> Vec<Packet> {
        let mut rng = seed;
        let mut next = move |m: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % m
        };
        (0..n)
            .map(|i| {
                let client = Ipv4Addr::new(10, 0, 0, next(12) as u8);
                let res = resolver(next(9) as u8);
                let ts = Ts::from_micros(i as u64);
                match next(10) {
                    0..=3 => udp(client, 5353, res, 53, ts, 40 + next(60) as u16),
                    4 => udp(client, 5353, res, 53, ts, 1_200),
                    5..=7 => udp(res, 53, client, 5353, ts, 1_000 + next(400) as u16),
                    _ => udp(res, 53, client, 5353, ts, 100 + next(100) as u16),
                }
            })
            .collect()
    }

    #[test]
    fn incremental_count_equals_recount_after_every_packet() {
        for seed in 1..=8 {
            let mut d = DnsAmpDetector::new();
            let mut oracle = RecountingDetector::default();
            let (mut alerts, mut left_the_set) = (0, 0);
            for (i, p) in dns_stream(seed, 6_000).iter().enumerate() {
                let client = if p.key.dst_port == 53 {
                    p.key.src_ip
                } else {
                    p.key.dst_ip
                };
                let before = d.recount(client);
                let got = d.on_packet(p);
                assert_eq!(got, oracle.on_packet(p), "seed {seed} packet {i}");
                alerts += usize::from(got.is_some());
                let now = d.recount(client);
                left_the_set += usize::from(now < before);
                assert_eq!(d.clients[&client].amplified, now, "seed {seed} packet {i}");
            }
            // The stream must exercise what it is here for.
            assert!(alerts >= 1, "seed {seed}: no alert");
            assert!(
                left_the_set >= 10,
                "seed {seed}: {left_the_set} pairs left the set"
            );
            for (client, c) in &d.clients {
                assert_eq!(c.amplified, d.recount(*client));
            }
        }
    }

    #[test]
    fn a_packet_examines_one_pair_however_many_are_resident() {
        let mut d = DnsAmpDetector::new();
        // 50 000 pairs, 500 of them the victim's own.
        for i in 0..50_000u32 {
            let client = if i % 100 == 0 {
                victim()
            } else {
                Ipv4Addr::from(0x0B00_0000 + i)
            };
            let res = Ipv4Addr::from(0xAC10_0000 + i);
            d.on_packet(&udp(client, 5353, res, 53, Ts::ZERO, 64));
        }
        assert_eq!(d.pairs.len(), 50_000);
        let before = d.visited.get();
        d.on_packet(&udp(resolver(1), 53, victim(), 5353, Ts::ZERO, 1400));
        d.on_packet(&udp(victim(), 5353, resolver(1), 53, Ts::ZERO, 64));
        let per_packet = (d.visited.get() - before) / 2;
        assert!(per_packet <= 2, "{per_packet} pair entries per packet");
    }

    #[test]
    fn non_dns_traffic_ignored() {
        let mut d = DnsAmpDetector::new();
        assert!(d
            .on_packet(&udp(victim(), 1000, resolver(0), 2000, Ts::ZERO, 1400))
            .is_none());
    }
}
