//! Sonata-style switch telemetry queries.
//!
//! The P4Switch's first-stage detection runs aggregate-traffic queries of
//! the dataflow form Sonata compiles to switches: `filter → map(key) →
//! [distinct] → reduce(count) → threshold`. Keys are usually destination
//! prefixes at a configurable granularity — the lever iterative
//! refinement turns (dIP/8 → /16 → /32).
//!
//! Query state lives in switch SRAM; [`QueryState::sram_bytes`] charges
//! it the way the paper's SRAM-occupancy arguments do (count registers
//! plus the distinct-filter state).

use serde::{Deserialize, Serialize};
use smartwatch_net::{key::prefix_of, Packet, Proto, TcpFlags};
use std::collections::{HashMap, HashSet};

/// Packet predicate (the `filter` operator).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Filter {
    /// All packets.
    Any,
    /// Packets to the given destination (service) port.
    DstPort(u16),
    /// TCP packets with all the given flags set.
    TcpFlags(u8),
    /// Pure SYN packets (connection attempts).
    SynOnly,
    /// RST packets.
    Rst,
    /// UDP packets from the given source port (e.g. DNS responses).
    UdpSrcPort(u16),
    /// Protocol match.
    Proto(u8),
    /// Destination address inside any of the given (prefix, width) pairs
    /// (iterative refinement's focus window).
    DstInPrefixes(Vec<(u32, u8)>),
    /// Source address inside any of the given (prefix, width) pairs.
    SrcInPrefixes(Vec<(u32, u8)>),
    /// Conjunction.
    And(Box<Filter>, Box<Filter>),
}

impl Filter {
    /// Evaluate against a packet.
    pub fn matches(&self, p: &Packet) -> bool {
        match self {
            Filter::Any => true,
            Filter::DstPort(port) => p.key.dst_port == *port,
            Filter::TcpFlags(bits) => {
                p.key.proto == Proto::Tcp && p.flags.contains(TcpFlags(*bits))
            }
            Filter::SynOnly => p.key.proto == Proto::Tcp && p.flags.is_syn_only(),
            Filter::Rst => p.key.proto == Proto::Tcp && p.flags.rst(),
            Filter::UdpSrcPort(port) => p.key.proto == Proto::Udp && p.key.src_port == *port,
            Filter::Proto(n) => p.key.proto.number() == *n,
            Filter::DstInPrefixes(set) => set
                .iter()
                .any(|(pre, w)| prefix_of(p.key.dst_ip, *w) == *pre),
            Filter::SrcInPrefixes(set) => set
                .iter()
                .any(|(pre, w)| prefix_of(p.key.src_ip, *w) == *pre),
            Filter::And(a, b) => a.matches(p) && b.matches(p),
        }
    }
}

/// Key extraction (the `map` operator): what the query aggregates by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyExpr {
    /// Destination prefix of the given width (refinement granularity).
    DstPrefix(u8),
    /// Source prefix of the given width.
    SrcPrefix(u8),
    /// (src /width) — used for per-remote-node queries.
    SrcAddr,
    /// Destination (address, port) pair.
    DstAddrPort,
}

/// Decode a prefix-shaped key produced by [`KeyExpr::eval`] back into
/// `(prefix, width)`.
pub fn decode_prefix_key(key: u64) -> (u32, u8) {
    ((key & 0xFFFF_FFFF) as u32, (key >> 56) as u8)
}

impl KeyExpr {
    /// Extract the aggregation key from a packet.
    pub fn eval(&self, p: &Packet) -> u64 {
        match self {
            KeyExpr::DstPrefix(w) => u64::from(prefix_of(p.key.dst_ip, *w)) | (u64::from(*w) << 56),
            KeyExpr::SrcPrefix(w) => u64::from(prefix_of(p.key.src_ip, *w)) | (u64::from(*w) << 56),
            KeyExpr::SrcAddr => u64::from(u32::from(p.key.src_ip)),
            KeyExpr::DstAddrPort => {
                (u64::from(u32::from(p.key.dst_ip)) << 16) | u64::from(p.key.dst_port)
            }
        }
    }

    /// The prefix width, if this key is a prefix aggregation.
    pub fn prefix_width(&self) -> Option<u8> {
        match self {
            KeyExpr::DstPrefix(w) | KeyExpr::SrcPrefix(w) => Some(*w),
            _ => None,
        }
    }

    /// Same key shape at a finer granularity (the refinement step).
    pub fn refined(&self, new_width: u8) -> KeyExpr {
        match self {
            KeyExpr::DstPrefix(_) => KeyExpr::DstPrefix(new_width),
            KeyExpr::SrcPrefix(_) => KeyExpr::SrcPrefix(new_width),
            other => *other,
        }
    }
}

/// Optional `distinct` sub-key: count each (key, subkey) pair once per
/// interval (e.g. "number of *distinct sources* contacting each prefix").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistinctExpr {
    /// Distinct source addresses.
    SrcAddr,
    /// Distinct (source address, destination port) pairs.
    SrcAddrDstPort,
    /// Distinct 5-tuples.
    FiveTuple,
}

impl DistinctExpr {
    fn eval(&self, p: &Packet) -> u64 {
        let h = smartwatch_net::FlowHasher::new(0x0D15);
        match self {
            DistinctExpr::SrcAddr => u64::from(u32::from(p.key.src_ip)),
            DistinctExpr::SrcAddrDstPort => {
                (u64::from(u32::from(p.key.src_ip)) << 16) | u64::from(p.key.dst_port)
            }
            DistinctExpr::FiveTuple => h.hash_symmetric(&p.key).0,
        }
    }
}

/// A compiled switch query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwitchQuery {
    /// Query name (e.g. "ssh-bruteforce-coarse").
    pub name: String,
    /// Packet predicate.
    pub filter: Filter,
    /// Aggregation key.
    pub key: KeyExpr,
    /// Optional distinct sub-key.
    pub distinct: Option<DistinctExpr>,
    /// Report keys whose count reaches this threshold at interval end.
    pub threshold: u64,
}

impl SwitchQuery {
    /// "Number of SSH connection attempts per dIP/width ≥ threshold".
    pub fn ssh_attempts(width: u8, threshold: u64) -> SwitchQuery {
        SwitchQuery {
            name: format!("ssh-attempts-d{width}"),
            filter: Filter::And(Box::new(Filter::DstPort(22)), Box::new(Filter::SynOnly)),
            key: KeyExpr::DstPrefix(width),
            distinct: None,
            threshold,
        }
    }

    /// "Number of distinct (src, dst-port) probes per dst prefix" — the
    /// coarse port-scan indicator.
    pub fn scan_probes(width: u8, threshold: u64) -> SwitchQuery {
        SwitchQuery {
            name: format!("portscan-d{width}"),
            filter: Filter::SynOnly,
            key: KeyExpr::SrcPrefix(width),
            distinct: Some(DistinctExpr::SrcAddrDstPort),
            threshold,
        }
    }

    /// "DNS responses per destination prefix" — amplification indicator.
    pub fn dns_responses(width: u8, threshold: u64) -> SwitchQuery {
        SwitchQuery {
            name: format!("dnsamp-d{width}"),
            filter: Filter::UdpSrcPort(53),
            key: KeyExpr::DstPrefix(width),
            distinct: None,
            threshold,
        }
    }

    /// "Connections per destination with low volume" proxy: count of
    /// distinct 5-tuples per destination prefix (Slowloris coarse
    /// indicator).
    pub fn conn_fanout(width: u8, threshold: u64) -> SwitchQuery {
        SwitchQuery {
            name: format!("connfanout-d{width}"),
            filter: Filter::SynOnly,
            key: KeyExpr::DstPrefix(width),
            distinct: Some(DistinctExpr::FiveTuple),
            threshold,
        }
    }
}

/// Per-interval runtime state of one query.
#[derive(Clone, Debug, Default)]
pub struct QueryState {
    counts: HashMap<u64, u64>,
    distinct_seen: HashSet<(u64, u64)>,
}

impl QueryState {
    /// Fold one packet in (must already pass the filter).
    pub fn update(&mut self, q: &SwitchQuery, p: &Packet) {
        let key = q.key.eval(p);
        if let Some(d) = &q.distinct {
            let sub = d.eval(p);
            if !self.distinct_seen.insert((key, sub)) {
                return; // already counted this (key, subkey) pair
            }
        }
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Keys meeting the threshold, highest count first.
    pub fn over_threshold(&self, q: &SwitchQuery) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|(_, c)| **c >= q.threshold)
            .map(|(k, c)| (*k, *c))
            .collect();
        out.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        out
    }

    /// Count for a specific key.
    pub fn count(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// SRAM the state occupies: 16 B per count register entry (key +
    /// counter) plus 8 B per distinct-filter entry.
    pub fn sram_bytes(&self) -> usize {
        self.counts.len() * 16 + self.distinct_seen.len() * 8
    }

    /// Reset for a new interval.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.distinct_seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn syn(src: [u8; 4], dst: [u8; 4], dport: u16) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::from(src), 40000, Ipv4Addr::from(dst), dport);
        PacketBuilder::new(key, Ts::ZERO)
            .flags(TcpFlags::SYN)
            .build()
    }

    #[test]
    fn filter_semantics() {
        let p = syn([10, 0, 0, 1], [172, 16, 0, 1], 22);
        assert!(Filter::Any.matches(&p));
        assert!(Filter::DstPort(22).matches(&p));
        assert!(!Filter::DstPort(80).matches(&p));
        assert!(Filter::SynOnly.matches(&p));
        assert!(!Filter::Rst.matches(&p));
        assert!(Filter::And(Box::new(Filter::DstPort(22)), Box::new(Filter::SynOnly)).matches(&p));
    }

    #[test]
    fn prefix_keys_aggregate() {
        let q = SwitchQuery::ssh_attempts(16, 3);
        let mut st = QueryState::default();
        // Four SYNs to the same /16, different hosts.
        for i in 0..4 {
            st.update(&q, &syn([10, 0, 0, 1 + i], [172, 16, 9, i], 22));
        }
        let over = st.over_threshold(&q);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].1, 4);
    }

    #[test]
    fn distinct_dedupes_within_interval() {
        let q = SwitchQuery::scan_probes(32, 2);
        let mut st = QueryState::default();
        // Same (src, dport) probe repeated: counts once.
        for _ in 0..5 {
            st.update(&q, &syn([198, 18, 0, 1], [172, 16, 0, 1], 80));
        }
        assert!(st.over_threshold(&q).is_empty());
        // Distinct ports: counts each.
        st.update(&q, &syn([198, 18, 0, 1], [172, 16, 0, 2], 81));
        st.update(&q, &syn([198, 18, 0, 1], [172, 16, 0, 3], 82));
        let over = st.over_threshold(&q);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].1, 3);
    }

    #[test]
    fn coarser_keys_need_less_sram() {
        let mut coarse = QueryState::default();
        let mut fine = QueryState::default();
        let qc = SwitchQuery::ssh_attempts(8, 1000);
        let qf = SwitchQuery::ssh_attempts(32, 1000);
        for i in 0..100u8 {
            let p = syn([10, 0, 0, 1], [172, 16, i, i], 22);
            coarse.update(&qc, &p);
            fine.update(&qf, &p);
        }
        assert!(coarse.sram_bytes() < fine.sram_bytes());
    }

    #[test]
    fn refinement_changes_width_only() {
        let k = KeyExpr::DstPrefix(8);
        assert_eq!(k.refined(16), KeyExpr::DstPrefix(16));
        assert_eq!(k.prefix_width(), Some(8));
        assert_eq!(KeyExpr::SrcAddr.refined(16), KeyExpr::SrcAddr);
    }

    #[test]
    fn clear_resets_interval_state() {
        let q = SwitchQuery {
            name: "rst-d16".into(),
            filter: Filter::Rst,
            key: KeyExpr::DstPrefix(16),
            distinct: None,
            threshold: 1,
        };
        let mut st = QueryState::default();
        let p = PacketBuilder::new(
            FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            Ts::ZERO,
        )
        .flags(TcpFlags::RST)
        .build();
        st.update(&q, &p);
        assert_eq!(st.over_threshold(&q).len(), 1);
        st.clear();
        assert!(st.over_threshold(&q).is_empty());
        assert_eq!(st.sram_bytes(), 0);
    }
}
