//! # smartwatch-trace
//!
//! Synthetic workload substrate replacing the paper's proprietary traces.
//!
//! The paper evaluates against CAIDA passive traces (2015–2019), a
//! University of Wisconsin data-center trace, Zeek's attack test traces and
//! NMAP-generated scans, none of which are redistributable. This crate
//! regenerates statistically equivalent workloads from scratch:
//!
//! - [`background`] — heavy-tailed background traffic with per-"year"
//!   presets (the three properties the paper's FlowCache design keys on:
//!   elephant-dominated packet counts, many colliding mice, bursty elephant
//!   arrivals).
//! - [`attacks`] — one generator per attack in Tables 2/4, each stamping
//!   ground-truth [`smartwatch_net::Label`]s.
//! - [`Trace`] — the container, with the editcap/mergecap/tcprewrite
//!   equivalents used by the paper's methodology: timestamp shifting,
//!   merging, 64-byte truncation and replay speed-up.
//! - [`compile`] — the MoonGen-equivalent trace compiler: serialise any
//!   generator output into a packed wire-frame arena once
//!   ([`smartwatch_net::FrameStore`]) and replay it many times through
//!   the runtime's zero-copy ingest path.
//!
//! Everything is deterministic under a caller-provided seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod background;
pub mod compile;
pub mod dist;
pub mod session;

use smartwatch_net::{Dur, Packet};

/// An ordered sequence of packets with generation metadata.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    packets: Vec<Packet>,
}

impl Trace {
    /// Build from packets in timestamp order; equal-timestamp packets
    /// keep generation order. Input already in order is kept as it is
    /// (same allocation). Otherwise the `(ts_ns, index)` keys are sorted —
    /// the index breaks ties, so the order is exactly a stable sort's —
    /// and the packets are gathered once.
    pub fn from_packets(packets: Vec<Packet>) -> Trace {
        if packets.windows(2).all(|w| w[0].ts <= w[1].ts) {
            return Trace { packets };
        }
        // One u128 per packet, `ts_ns` high and the index low, so a key
        // compares in one branch-free step.
        let mut keys: Vec<u128> = packets
            .iter()
            .zip(0u128..)
            .map(|(p, i)| u128::from(p.ts.as_nanos()) << 64 | i)
            .collect();
        keys.sort_unstable();
        Trace {
            packets: keys.iter().map(|&k| packets[k as u64 as usize]).collect(),
        }
    }

    /// The packets, in non-decreasing timestamp order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Consume the trace, returning its packets.
    pub fn into_packets(self) -> Vec<Packet> {
        self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterate over packets.
    pub fn iter(&self) -> std::slice::Iter<'_, Packet> {
        self.packets.iter()
    }

    /// Trace duration: last timestamp minus first (zero for < 2 packets).
    pub fn duration(&self) -> Dur {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.ts - a.ts,
            _ => Dur::ZERO,
        }
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| u64::from(p.wire_len)).sum()
    }

    /// Average offered rate in packets per second over the trace duration.
    pub fn mean_pps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d == 0.0 {
            0.0
        } else {
            self.len() as f64 / d
        }
    }

    /// Fraction of packets carrying an attack label.
    pub fn attack_fraction(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let n = self.packets.iter().filter(|p| !p.label.is_benign()).count();
        n as f64 / self.packets.len() as f64
    }

    /// `editcap`-equivalent: shift every timestamp by `delta_ns` (signed),
    /// clamping at the time origin.
    pub fn time_shifted(&self, delta_ns: i64) -> Trace {
        Trace {
            packets: self
                .packets
                .iter()
                .map(|p| p.time_shifted(delta_ns))
                .collect(),
        }
    }

    /// `mergecap`-equivalent: merge any number of traces into one
    /// timestamp-ordered trace.
    pub fn merge<I: IntoIterator<Item = Trace>>(traces: I) -> Trace {
        let traces: Vec<Trace> = traces.into_iter().collect();
        let mut all = Vec::with_capacity(traces.iter().map(Trace::len).sum());
        for t in traces {
            all.extend(t.packets);
        }
        Trace::from_packets(all)
    }

    /// `tcprewrite`-equivalent: truncate every packet to a 64-byte frame
    /// (the paper's worst-case stress-test transform), in place.
    pub fn truncated_64b(mut self) -> Trace {
        for p in &mut self.packets {
            *p = p.truncated();
        }
        self
    }

    /// Ground-truth attack flows: the set of canonical flow keys whose
    /// packets carry the given label kind.
    pub fn labelled_flows(&self, kind: smartwatch_net::AttackKind) -> Vec<smartwatch_net::FlowKey> {
        let mut keys: Vec<_> = self
            .packets
            .iter()
            .filter(|p| p.label.kind() == Some(kind))
            .map(|p| p.key.canonical().0)
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

impl FromIterator<Packet> for Trace {
    fn from_iter<I: IntoIterator<Item = Packet>>(iter: I) -> Trace {
        Trace::from_packets(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn pkt(ts_us: u64) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        PacketBuilder::new(key, Ts::from_micros(ts_us)).build()
    }

    #[test]
    fn from_packets_sorts() {
        let t = Trace::from_packets(vec![pkt(30), pkt(10), pkt(20)]);
        let ts: Vec<u64> = t.iter().map(|p| p.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    /// `pkt` at `ts_us`, told apart by its sequence number.
    fn tagged(ts_us: u64, tag: u32) -> Packet {
        Packet {
            seq: tag,
            ..pkt(ts_us)
        }
    }

    fn tags(t: &Trace) -> Vec<u32> {
        t.iter().map(|p| p.seq).collect()
    }

    #[test]
    fn equal_timestamps_keep_input_order() {
        // Out of order overall, with ties inside and across the runs.
        let input: Vec<Packet> = [(5, 0), (3, 1), (5, 2), (1, 3), (3, 4), (5, 5), (1, 6)]
            .iter()
            .map(|&(ts, tag)| tagged(ts, tag))
            .collect();
        let mut stable = input.clone();
        stable.sort_by_key(|p| p.ts);
        let t = Trace::from_packets(input);
        assert_eq!(tags(&t), vec![3, 6, 1, 4, 0, 2, 5]);
        assert_eq!(t.packets(), &stable[..], "exactly a stable sort's order");

        // Merging keeps each trace's ties in order, earlier traces first.
        let a = Trace::from_packets(vec![tagged(1, 0), tagged(2, 1), tagged(2, 2)]);
        let b = Trace::from_packets(vec![tagged(0, 3), tagged(2, 4), tagged(3, 5)]);
        assert_eq!(tags(&Trace::merge([a, b])), vec![3, 0, 1, 2, 4, 5]);
    }

    #[test]
    fn ordered_input_is_kept_in_its_allocation() {
        let input = vec![tagged(1, 0), tagged(1, 1), tagged(2, 2), tagged(9, 3)];
        let at = input.as_ptr();
        let t = Trace::from_packets(input);
        assert_eq!(t.packets().as_ptr(), at, "no reorder, no copy");
        assert_eq!(tags(&t), vec![0, 1, 2, 3]);
        // Truncating a trace rewrites it where it lies.
        let t = t.truncated_64b();
        assert_eq!(t.packets().as_ptr(), at);
    }

    #[test]
    fn merge_interleaves() {
        let a = Trace::from_packets(vec![pkt(10), pkt(30)]);
        let b = Trace::from_packets(vec![pkt(20), pkt(40)]);
        let m = Trace::merge([a, b]);
        let ts: Vec<u64> = m.iter().map(|p| p.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn duration_and_rate() {
        let t = Trace::from_packets(vec![pkt(0), pkt(1_000_000)]);
        assert_eq!(t.duration(), Dur::from_secs(1));
        assert!((t.mean_pps() - 2.0).abs() < 1e-9);
        assert_eq!(Trace::default().duration(), Dur::ZERO);
    }

    #[test]
    fn shift_clamps_at_zero() {
        let t = Trace::from_packets(vec![pkt(5)]).time_shifted(-10_000_000);
        assert_eq!(t.packets()[0].ts, Ts::ZERO);
    }

    #[test]
    fn truncation_applies_to_all() {
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let big = PacketBuilder::new(key, Ts::ZERO).payload(1000).build();
        let t = Trace::from_packets(vec![big]).truncated_64b();
        assert!(t.iter().all(|p| p.wire_len == 64));
    }
}
