//! The per-packet record that flows through the monitoring pipeline.
//!
//! SmartWatch operates on packet *metadata*: headers, sizes, timestamps and
//! (for worm detection) a payload digest. Payload bytes themselves are never
//! retained — the paper assumes encrypted DC traffic (§6), and the detectors
//! are all traffic-analysis based. Keeping [`Packet`] a small `Copy` value
//! lets trace replays of tens of millions of packets stay allocation-free.

use crate::key::{FlowKey, Proto};
use crate::label::Label;
use crate::tcp::TcpFlags;
use crate::time::Ts;
use std::net::Ipv4Addr;

/// Metadata for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Directed 5-tuple.
    pub key: FlowKey,
    /// Arrival timestamp at the monitoring point.
    pub ts: Ts,
    /// Total length on the wire, in bytes (Ethernet frame length).
    pub wire_len: u16,
    /// Transport payload length, in bytes.
    pub payload_len: u16,
    /// TCP control flags (empty for non-TCP packets).
    pub flags: TcpFlags,
    /// TCP sequence number (0 for non-TCP).
    pub seq: u32,
    /// TCP acknowledgment number (0 for non-TCP).
    pub ack: u32,
    /// 64-bit digest of the payload (content-based worm detection keys on
    /// `hash(payload ‖ dst_ip)`). Zero when no payload.
    pub payload_digest: u64,
    /// Ground-truth label (evaluation only; invisible to the data plane).
    pub label: Label,
}

impl Packet {
    /// Minimum Ethernet frame size, used by the 64-byte stress rewrites.
    pub(crate) const MIN_WIRE_LEN: u16 = 64;

    /// Start building a packet for the given flow at the given time.
    pub fn builder(key: FlowKey, ts: Ts) -> PacketBuilder {
        PacketBuilder::new(key, ts)
    }

    /// True if this is a TCP packet.
    pub fn is_tcp(&self) -> bool {
        self.key.proto == Proto::Tcp
    }

    /// True if this is a UDP packet.
    pub fn is_udp(&self) -> bool {
        self.key.proto == Proto::Udp
    }

    /// The sequence number one past the data carried by this segment
    /// (SYN and FIN each consume one sequence number).
    pub fn seq_end(&self) -> u32 {
        let mut consumed = u32::from(self.payload_len);
        if self.flags.syn() {
            consumed = consumed.wrapping_add(1);
        }
        if self.flags.fin() {
            consumed = consumed.wrapping_add(1);
        }
        self.seq.wrapping_add(consumed)
    }

    /// Copy of this packet truncated to a 64-byte frame, as done by
    /// `tcprewrite` for the paper's stress traces. Headers (key, flags,
    /// seq/ack) are untouched; only lengths shrink.
    pub fn truncated(&self) -> Packet {
        Packet {
            wire_len: Packet::MIN_WIRE_LEN,
            payload_len: 0,
            ..*self
        }
    }

    /// Copy of this packet with the timestamp shifted by `delta_ns`
    /// (signed), as done by `editcap` when aligning attack traces with
    /// background traces.
    pub fn time_shifted(&self, delta_ns: i64) -> Packet {
        let ns = self.ts.as_nanos() as i64 + delta_ns;
        Packet {
            ts: Ts::from_nanos(ns.max(0) as u64),
            ..*self
        }
    }
}

/// Builder for [`Packet`], defaulting every field that a given experiment
/// does not care about.
#[derive(Clone, Copy, Debug)]
pub struct PacketBuilder {
    p: Packet,
}

impl PacketBuilder {
    /// Start a builder for the given flow and timestamp. Defaults: 64-byte
    /// frame, no payload, no flags, benign label.
    pub fn new(key: FlowKey, ts: Ts) -> PacketBuilder {
        PacketBuilder {
            p: Packet {
                key,
                ts,
                wire_len: Packet::MIN_WIRE_LEN,
                payload_len: 0,
                flags: TcpFlags::NONE,
                seq: 0,
                ack: 0,
                payload_digest: 0,
                label: Label::Benign,
            },
        }
    }

    /// Set the payload length and grow wire length to fit if needed.
    pub fn payload(mut self, len: u16) -> Self {
        self.p.payload_len = len;
        let needed = len.saturating_add(54).max(Packet::MIN_WIRE_LEN);
        if self.p.wire_len < needed {
            self.p.wire_len = needed;
        }
        self
    }

    /// Set TCP flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.p.flags = flags;
        self
    }

    /// Set TCP sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.p.seq = seq;
        self
    }

    /// Set TCP acknowledgment number.
    pub fn ack(mut self, ack: u32) -> Self {
        self.p.ack = ack;
        self
    }

    /// Set payload digest.
    pub fn payload_digest(mut self, d: u64) -> Self {
        self.p.payload_digest = d;
        self
    }

    /// Set ground-truth label.
    pub fn label(mut self, label: Label) -> Self {
        self.p.label = label;
        self
    }

    /// Finish building.
    pub fn build(self) -> Packet {
        self.p
    }
}

/// Convenience: a UDP datagram.
pub fn udp(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, ts: Ts, payload: u16) -> Packet {
    Packet::builder(FlowKey::udp(src, sport, dst, dport), ts)
        .payload(payload)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convenience: a TCP SYN packet opening `key`.
    fn syn(key: FlowKey, ts: Ts, seq: u32) -> Packet {
        Packet::builder(key, ts)
            .flags(TcpFlags::SYN)
            .seq(seq)
            .build()
    }
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn builder_defaults() {
        let p = Packet::builder(key(), Ts::from_secs(1)).build();
        assert_eq!(p.wire_len, 64);
        assert_eq!(p.payload_len, 0);
        assert!(p.label.is_benign());
    }

    #[test]
    fn payload_grows_wire_len() {
        let p = Packet::builder(key(), Ts::ZERO).payload(1400).build();
        assert_eq!(p.payload_len, 1400);
        assert_eq!(p.wire_len, 1454);
        // Small payloads stay at the 64-byte minimum frame.
        let q = Packet::builder(key(), Ts::ZERO).payload(4).build();
        assert_eq!(q.wire_len, 64);
    }

    #[test]
    fn seq_end_counts_syn_fin_and_data() {
        let p = Packet::builder(key(), Ts::ZERO)
            .flags(TcpFlags::SYN)
            .seq(100)
            .build();
        assert_eq!(p.seq_end(), 101);
        let q = Packet::builder(key(), Ts::ZERO)
            .seq(100)
            .payload(50)
            .build();
        assert_eq!(q.seq_end(), 150);
        let r = Packet::builder(key(), Ts::ZERO)
            .flags(TcpFlags::FIN_ACK)
            .seq(100)
            .build();
        assert_eq!(r.seq_end(), 101);
    }

    #[test]
    fn seq_end_wraps() {
        let p = Packet::builder(key(), Ts::ZERO)
            .seq(u32::MAX)
            .payload(2)
            .build();
        assert_eq!(p.seq_end(), 1);
    }

    #[test]
    fn truncation_preserves_headers() {
        let p = Packet::builder(key(), Ts::from_secs(2))
            .payload(1000)
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .seq(42)
            .build();
        let t = p.truncated();
        assert_eq!(t.wire_len, 64);
        assert_eq!(t.payload_len, 0);
        assert_eq!(t.key, p.key);
        assert_eq!(t.flags, p.flags);
        assert_eq!(t.seq, 42);
        assert_eq!(t.ts, p.ts);
    }

    #[test]
    fn time_shift_both_directions() {
        let p = Packet::builder(key(), Ts::from_secs(10)).build();
        assert_eq!(p.time_shifted(1_000_000_000).ts, Ts::from_secs(11));
        assert_eq!(p.time_shifted(-1_000_000_000).ts, Ts::from_secs(9));
        // Shifting before the origin clamps at zero.
        assert_eq!(p.time_shifted(-20_000_000_000).ts, Ts::ZERO);
    }

    #[test]
    fn handshake_helpers() {
        let s = syn(key(), Ts::ZERO, 1000);
        assert!(s.flags.is_syn_only());
        assert_eq!((s.seq, s.key), (1000, key()));
    }
}
