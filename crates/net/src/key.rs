//! Flow identity: the 5-tuple and its symmetric canonical form.
//!
//! SmartWatch's detectors are *session*-oriented (SSH bruteforce, forged RST,
//! port scan outcomes), so packets travelling in opposite directions of the
//! same connection must land in the same FlowCache bucket. The paper solves
//! this with a symmetric hash function (§4, citing Woo & Park's symmetric
//! receive-side scaling). We go one step further and define a *canonical*
//! orientation of the 5-tuple, so symmetric hashing falls out for free and
//! flow state can also record which direction a given packet travelled.

use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Proto {
    /// Transmission Control Protocol (IP proto 6).
    Tcp = 6,
    /// User Datagram Protocol (IP proto 17).
    Udp = 17,
    /// Internet Control Message Protocol (IP proto 1).
    Icmp = 1,
    /// Anything else, carrying the raw IP protocol number.
    Other(u8),
}

impl Proto {
    /// The raw IP protocol number.
    pub fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
            Proto::Other(n) => n,
        }
    }

    /// Build from a raw IP protocol number.
    pub fn from_number(n: u8) -> Proto {
        match n {
            6 => Proto::Tcp,
            17 => Proto::Udp,
            1 => Proto::Icmp,
            other => Proto::Other(other),
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Tcp => write!(f, "tcp"),
            Proto::Udp => write!(f, "udp"),
            Proto::Icmp => write!(f, "icmp"),
            Proto::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// The direction a packet travels relative to the canonical orientation of
/// its flow (see [`FlowKey::canonical`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Direction {
    /// Packet's (src, dst) matches the canonical (a, b) orientation.
    Forward,
    /// Packet travels from canonical b to canonical a.
    Reverse,
}

/// A directed 5-tuple: (src ip, dst ip, src port, dst port, protocol).
///
/// `FlowKey` is directed as constructed; call [`FlowKey::canonical`] to get
/// the session-level identity shared by both directions, plus the
/// [`Direction`] this particular key had.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination transport port (0 for port-less protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
}

impl FlowKey {
    /// Construct a directed flow key.
    pub fn new(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        proto: Proto,
    ) -> FlowKey {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// Convenience constructor for TCP flows.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FlowKey {
        FlowKey::new(src_ip, dst_ip, src_port, dst_port, Proto::Tcp)
    }

    /// Convenience constructor for UDP flows.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FlowKey {
        FlowKey::new(src_ip, dst_ip, src_port, dst_port, Proto::Udp)
    }

    /// The same flow viewed from the other direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Canonical (direction-free) form of this key plus the direction this
    /// key represented.
    ///
    /// The canonical orientation puts the lexicographically smaller
    /// (ip, port) endpoint first, so `k.canonical().0 ==
    /// k.reversed().canonical().0` always holds.
    pub fn canonical(&self) -> (FlowKey, Direction) {
        let a = (u32::from(self.src_ip), self.src_port);
        let b = (u32::from(self.dst_ip), self.dst_port);
        if a <= b {
            (*self, Direction::Forward)
        } else {
            (self.reversed(), Direction::Reverse)
        }
    }
}

/// The raw directed 5-tuple as it appears on the wire: host-order integers,
/// no [`Ipv4Addr`]/[`Proto`] wrappers.
///
/// This is the form the zero-copy ingest path extracts straight from frame
/// bytes ([`crate::wire::FrameView::raw_tuple`]) and feeds to
/// [`crate::FlowHasher::flow_digest_raw`] / `flow_digest_batch8` without materialising
/// a [`FlowKey`] first.
///
/// Addresses are 128-bit so the same tuple covers IPv4 and IPv6 frames:
/// an IPv4 address occupies the low 32 bits (the v4-compatible `::a.b.c.d`
/// form), and every digest/key consumer reduces addresses through
/// [`fold_ip`], which is the identity on that range. Conversions to and
/// from `FlowKey` are lossless for IPv4; IPv6 addresses fold onto the
/// 32-bit flow-model address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct RawTuple {
    /// Source IP address in host byte order (IPv4 in the low 32 bits).
    pub src_ip: u128,
    /// Destination IP address in host byte order (IPv4 in the low 32 bits).
    pub dst_ip: u128,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Raw IP protocol number.
    pub proto: u8,
}

impl RawTuple {
    /// Materialise the equivalent [`FlowKey`], folding each address via
    /// [`fold_ip`] (the identity for tuples extracted from IPv4 frames).
    pub(crate) fn key(&self) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::from(fold_ip(self.src_ip)),
            Ipv4Addr::from(fold_ip(self.dst_ip)),
            self.src_port,
            self.dst_port,
            Proto::from_number(self.proto),
        )
    }
}

/// Fold a 128-bit wire address onto the 32-bit flow-model address space.
///
/// The flow model (FlowKey, FlowCache rows, prefix steering) is 32-bit;
/// IPv6 frames enter it through this fold. The big-endian 32-bit words are
/// combined with distinct rotations so prefix-structured v6 addresses do
/// not collapse, and the fold is the **identity for IPv4** (v4-compatible
/// `::a.b.c.d` encodings and every tuple built from a `FlowKey`), which
/// keeps [`crate::FlowHasher::flow_digest_raw`] bit-identical to
/// `flow_digest` on v4 traffic.
#[inline]
pub fn fold_ip(ip: u128) -> u32 {
    let w0 = (ip >> 96) as u32;
    let w1 = (ip >> 64) as u32;
    let w2 = (ip >> 32) as u32;
    let w3 = ip as u32;
    w3 ^ w2.rotate_left(7) ^ w1.rotate_left(14) ^ w0.rotate_left(21)
}

/// Truncate an IPv4 address to its top `bits` bits (returned left-aligned,
/// i.e. as the network address of the prefix).
pub fn prefix_of(ip: Ipv4Addr, bits: u8) -> u32 {
    let raw = u32::from(ip);
    if bits == 0 {
        0
    } else if bits >= 32 {
        raw
    } else {
        raw & (u32::MAX << (32 - bits))
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}/{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto
        )
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn reversal_is_involutive() {
        let k = FlowKey::tcp(ip("10.0.0.1"), 1234, ip("10.0.0.2"), 22);
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn canonical_is_direction_free() {
        let k = FlowKey::tcp(ip("10.0.0.9"), 40000, ip("10.0.0.2"), 22);
        let (c1, d1) = k.canonical();
        let (c2, d2) = k.reversed().canonical();
        assert_eq!(c1, c2);
        assert_ne!(d1, d2);
        assert_eq!(c1.canonical(), (c1, Direction::Forward));
    }

    #[test]
    fn canonical_ties_on_ip_break_on_port() {
        let k = FlowKey::tcp(ip("10.0.0.1"), 80, ip("10.0.0.1"), 22);
        let (c, _) = k.canonical();
        assert_eq!(c.src_port, 22);
    }

    #[test]
    fn prefix_truncation() {
        let dst = ip("192.168.37.41");
        assert_eq!(prefix_of(dst, 16), u32::from(ip("192.168.0.0")));
        assert_eq!(prefix_of(dst, 8), u32::from(ip("192.0.0.0")));
        assert_eq!(prefix_of(dst, 32), u32::from(dst));
        assert_eq!(prefix_of(dst, 0), 0);
        assert_eq!(prefix_of(ip("1.2.3.4"), 24), u32::from(ip("1.2.3.0")));
    }

    #[test]
    fn proto_numbers_round_trip() {
        for n in 0u8..=255 {
            assert_eq!(Proto::from_number(n).number(), n);
        }
    }

    #[test]
    fn raw_tuple_round_trips_through_flow_key() {
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            let k = FlowKey::new(ip("10.0.0.9"), ip("172.16.1.2"), 40000, 22, proto);
            let t = RawTuple {
                src_ip: 0x0A00_0009,
                dst_ip: 0xAC10_0102,
                src_port: 40000,
                dst_port: 22,
                proto: proto.number(),
            };
            assert_eq!(t.key(), k);
        }
    }

    #[test]
    fn fold_ip_is_identity_on_v4_and_mixes_v6_words() {
        for v4 in [
            0u32,
            1,
            0x0A00_0001,
            0xFFFF_FFFF,
            u32::from(ip("192.168.37.41")),
        ] {
            assert_eq!(fold_ip(u128::from(v4)), v4, "fold must be identity on v4");
        }
        // Prefix-structured v6 addresses (same /64, varying interface id)
        // must not collapse onto one folded value.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let folded: std::collections::HashSet<u32> =
            (0..64u128).map(|i| fold_ip(base | i)).collect();
        assert_eq!(folded.len(), 64);
        // Word position matters: the same 32-bit value in different words
        // folds differently.
        assert_ne!(fold_ip(1u128 << 64), fold_ip(1u128 << 32));
    }
}
