//! Wire-format encode/decode: Ethernet II / IPv4 / IPv6 / TCP / UDP.
//!
//! The simulators mostly exchange [`crate::Packet`] metadata records
//! directly, but the platform also has to interoperate with byte-level
//! sources (pcap-style ingestion, the MoonGen-equivalent replay driver, and
//! wire-level tests that confirm the metadata model is faithful). This
//! module provides smoltcp-flavoured encoding and parsing: explicit,
//! checksum-correct, no clever tricks.
//!
//! Only the subset of each protocol that SmartWatch observes is supported:
//! Ethernet II frames, IPv4 without options or fragmentation, the IPv6
//! fixed header without extension chains, TCP without options beyond
//! padding, and UDP. Anything else parses as [`WireError::Unsupported`].

use crate::key::{FlowKey, Proto, RawTuple};
use crate::packet::Packet;
use crate::tcp::TcpFlags;
use crate::time::Ts;
use std::fmt;
use std::net::Ipv4Addr;

/// Ethernet II header length.
pub(crate) const ETH_HDR_LEN: usize = 14;
/// IPv4 header length (no options).
pub(crate) const IPV4_HDR_LEN: usize = 20;
/// IPv6 fixed header length (no extension headers).
pub(crate) const IPV6_HDR_LEN: usize = 40;
/// TCP header length (no options).
pub(crate) const TCP_HDR_LEN: usize = 20;
/// UDP header length.
pub(crate) const UDP_HDR_LEN: usize = 8;
/// EtherType for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for IPv6.
pub(crate) const ETHERTYPE_IPV6: u16 = 0x86DD;

/// Errors from wire parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Frame shorter than the headers it claims to carry.
    Truncated,
    /// Not an IPv4 frame / unsupported header variant.
    Unsupported,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// TCP/UDP checksum mismatch.
    BadTransportChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Unsupported => write!(f, "unsupported header"),
            WireError::BadIpChecksum => write!(f, "bad IPv4 checksum"),
            WireError::BadTransportChecksum => write!(f, "bad transport checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// RFC 1071 internet checksum over `data`, starting from `initial`
/// (used to fold in the pseudo-header).
pub(crate) fn checksum(data: &[u8], initial: u32) -> u16 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> u32 {
    pseudo_header_sum_raw(u32::from(src), u32::from(dst), proto, len)
}

fn pseudo_header_sum_raw(src: u32, dst: u32, proto: u8, len: u16) -> u32 {
    (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF) + u32::from(proto) + u32::from(len)
}

/// 16-bit-word sum of one 128-bit address (the per-address share of the
/// RFC 8200 IPv6 pseudo-header).
fn addr_words_sum_v6(a: u128) -> u32 {
    let b = a.to_be_bytes();
    b.chunks_exact(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
        .sum()
}

fn pseudo_header_sum_v6(src: u128, dst: u128, proto: u8, len: u16) -> u32 {
    addr_words_sum_v6(src) + addr_words_sum_v6(dst) + u32::from(proto) + u32::from(len)
}

/// IPv6 extension-header next-header values the parser refuses to walk
/// (hop-by-hop, routing, fragment, ESP, AH, destination options): chains
/// are out of scope, so frames carrying them are [`WireError::Unsupported`]
/// rather than silently misparsed as transport payload.
const V6_EXTENSION_HEADERS: [u8; 6] = [0, 43, 44, 50, 51, 60];

/// Encode a [`Packet`] as an Ethernet II / IPv4 / {TCP,UDP} frame: the
/// bytes [`encode_into`] appends, in a buffer of their own.
pub fn encode(p: &Packet) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(p, &mut buf);
    buf
}

/// Append a [`Packet`] to `out` as an Ethernet II / IPv4 / {TCP,UDP}
/// frame.
///
/// The payload is synthesised as `payload_len` zero bytes (SmartWatch never
/// inspects payload contents; the digest field exists for that). MAC
/// addresses are fixed documentation values. Checksums are valid. Bytes
/// already in `out` are left as they are, so a caller can pack many
/// frames back to back into one buffer.
pub fn encode_into(p: &Packet, out: &mut Vec<u8>) {
    let ip_total = IPV4_HDR_LEN + segment_len(p);
    let frame = append_zeroed(out, ETH_HDR_LEN + ip_total);
    let (eth, rest) = frame.split_at_mut(ETH_HDR_LEN);
    let (ip, segment) = rest.split_at_mut(IPV4_HDR_LEN);
    put_ethernet(eth, ETHERTYPE_IPV4);

    // IPv4; identification, DSCP/ECN and the checksum start at zero.
    ip[0] = 0x45; // version 4, IHL 5
    ip[2..4].copy_from_slice(&(ip_total as u16).to_be_bytes());
    ip[6] = 0x40; // don't fragment
    ip[8] = 64; // TTL
    ip[9] = p.key.proto.number();
    ip[12..16].copy_from_slice(&p.key.src_ip.octets());
    ip[16..20].copy_from_slice(&p.key.dst_ip.octets());
    let ip_csum = checksum(ip, 0);
    ip[10..12].copy_from_slice(&ip_csum.to_be_bytes());

    // The pseudo-header's address words; `put_transport` adds the rest.
    let addrs = pseudo_header_sum(p.key.src_ip, p.key.dst_ip, 0, 0);
    put_transport(p, addrs, segment);
}

/// Append a [`Packet`] to `out` as an Ethernet II / IPv6 / {TCP,UDP}
/// frame.
///
/// The flow model is 32-bit, so addresses are embedded in the
/// v4-compatible form `::a.b.c.d` — the range on which
/// [`crate::key::fold_ip`] is the identity. Parsing such a frame
/// therefore reconstructs exactly the same [`FlowKey`] (and digests) as
/// the [`encode_into`] encoding of the same packet, which is what makes a
/// v6-compiled replay decision-identical to the v4/synthetic runs.
/// Checksums are valid; a computed-zero UDP checksum transmits as 0xFFFF
/// (mandatory checksum over IPv6).
pub fn encode_v6_into(p: &Packet, out: &mut Vec<u8>) {
    let ip_payload = segment_len(p);
    let src = u128::from(u32::from(p.key.src_ip));
    let dst = u128::from(u32::from(p.key.dst_ip));
    let frame = append_zeroed(out, ETH_HDR_LEN + IPV6_HDR_LEN + ip_payload);
    let (eth, rest) = frame.split_at_mut(ETH_HDR_LEN);
    let (ip, segment) = rest.split_at_mut(IPV6_HDR_LEN);
    put_ethernet(eth, ETHERTYPE_IPV6);

    // IPv6 fixed header (no extension chain); TC and flow label are zero.
    ip[0] = 0x60; // version 6
    ip[4..6].copy_from_slice(&(ip_payload as u16).to_be_bytes());
    ip[6] = p.key.proto.number(); // next header
    ip[7] = 64; // hop limit
    ip[8..24].copy_from_slice(&src.to_be_bytes());
    ip[24..40].copy_from_slice(&dst.to_be_bytes());

    put_transport(p, pseudo_header_sum_v6(src, dst, 0, 0), segment);
}

/// Transport header plus payload length of `p`'s frame, the bytes after
/// the IP header in either framing: TCP and UDP carry their header, any
/// other protocol carries the payload alone.
fn segment_len(p: &Packet) -> usize {
    let header = match p.key.proto {
        Proto::Tcp => TCP_HDR_LEN,
        Proto::Udp => UDP_HDR_LEN,
        _ => 0,
    };
    header + usize::from(p.payload_len)
}

/// Grow `out` by `len` zero bytes and return them: a frame is written
/// in place, and every field, checksum and payload byte it leaves alone
/// stays zero.
fn append_zeroed(out: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let start = out.len();
    out.resize(start + len, 0);
    &mut out[start..]
}

/// Write the Ethernet II header: fixed documentation MACs, then
/// `ethertype`.
fn put_ethernet(eth: &mut [u8], ethertype: u16) {
    eth[0..6].copy_from_slice(&[0x02, 0x00, 0x00, 0x00, 0x00, 0x01]); // dst MAC
    eth[6..12].copy_from_slice(&[0x02, 0x00, 0x00, 0x00, 0x00, 0x02]); // src MAC
    eth[12..14].copy_from_slice(&ethertype.to_be_bytes());
}

/// Write `p`'s transport header over `segment` (zeroed, header plus
/// payload long) and checksum it over the pseudo-header whose address
/// words sum to `addrs` (either framing).
fn put_transport(p: &Packet, addrs: u32, segment: &mut [u8]) {
    let seg_len = segment.len() as u16;
    let (hdr_len, csum_at) = match p.key.proto {
        Proto::Tcp => {
            segment[0..2].copy_from_slice(&p.key.src_port.to_be_bytes());
            segment[2..4].copy_from_slice(&p.key.dst_port.to_be_bytes());
            segment[4..8].copy_from_slice(&p.seq.to_be_bytes());
            segment[8..12].copy_from_slice(&p.ack.to_be_bytes());
            segment[12] = 0x50; // data offset 5
            segment[13] = p.flags.0;
            segment[14..16].copy_from_slice(&[0xFF, 0xFF]); // window
            (TCP_HDR_LEN, 16)
        }
        Proto::Udp => {
            segment[0..2].copy_from_slice(&p.key.src_port.to_be_bytes());
            segment[2..4].copy_from_slice(&p.key.dst_port.to_be_bytes());
            segment[4..6].copy_from_slice(&seg_len.to_be_bytes());
            (UDP_HDR_LEN, 6)
        }
        _ => return,
    };
    // The payload is zeros, which add nothing to a ones'-complement sum:
    // the checksum over the (even-length) header is the segment's.
    let ph = addrs + u32::from(p.key.proto.number()) + u32::from(seg_len);
    let csum = match checksum(&segment[..hdr_len], ph) {
        // UDP transmits 0xFFFF when the computed checksum is zero.
        0 if p.key.proto == Proto::Udp => 0xFFFF,
        csum => csum,
    };
    segment[csum_at..csum_at + 2].copy_from_slice(&csum.to_be_bytes());
}

/// A validated, borrowed view of an Ethernet II / {IPv4,IPv6} / {TCP,UDP}
/// frame.
///
/// This is the zero-copy half of the wire data plane: [`FrameView::parse`]
/// walks the headers in place over `&[u8]` — no allocation, no copy into a
/// [`Packet`] — and exposes exactly the fields the ingest hot path needs
/// (the [`RawTuple`] for [`crate::FlowHasher::flow_digest_raw`], TCP
/// flags/seq/ack for the detectors, payload length for byte accounting).
/// [`decode`] is now a thin wrapper — `parse` followed by
/// [`FrameView::to_packet`] — so the owned and borrowed parse paths share
/// one set of validation semantics:
///
/// * IPv4 header checksum verified; IP options ([`WireError::Unsupported`])
///   and fragments are out of scope.
/// * TCP options are *skipped*, not rejected: any data offset ≥ 5 words
///   that fits the segment parses, and the payload length excludes the
///   options (real pcaps carry SACK/timestamps on most segments).
/// * UDP checksum 0 means "no checksum" (RFC 768) and is accepted without
///   verification; non-zero checksums are verified.
/// * Trailing bytes beyond the IP total length (Ethernet padding) are
///   ignored.
#[derive(Clone, Copy, Debug)]
pub struct FrameView<'a> {
    frame: &'a [u8],
    tuple: RawTuple,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    payload_len: u16,
}

impl<'a> FrameView<'a> {
    /// Parse and validate `frame` in place. Dispatches on the EtherType:
    /// IPv4 (options/fragments unsupported) or the IPv6 fixed header
    /// (extension chains unsupported; UDP checksums are mandatory over
    /// IPv6 per RFC 8200, so an all-zero one is rejected rather than
    /// accepted unverified as on IPv4).
    pub fn parse(frame: &'a [u8]) -> Result<FrameView<'a>, WireError> {
        if frame.len() < ETH_HDR_LEN {
            return Err(WireError::Truncated);
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        let ip = &frame[ETH_HDR_LEN..];
        let (src_ip, dst_ip, proto, seg, ph_addr, udp_zero_is_none) = match ethertype {
            ETHERTYPE_IPV4 => {
                if ip.len() < IPV4_HDR_LEN {
                    return Err(WireError::Truncated);
                }
                let vihl = ip[0];
                if vihl >> 4 != 4 {
                    return Err(WireError::Unsupported);
                }
                let ihl = usize::from(vihl & 0x0F) * 4;
                if ihl != IPV4_HDR_LEN {
                    return Err(WireError::Unsupported); // IP options not modelled
                }
                if checksum(&ip[..IPV4_HDR_LEN], 0) != 0 {
                    return Err(WireError::BadIpChecksum);
                }
                let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
                if ip.len() < total_len || total_len < IPV4_HDR_LEN {
                    return Err(WireError::Truncated);
                }
                let src = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
                let dst = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
                let ph_addr = (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF);
                (
                    u128::from(src),
                    u128::from(dst),
                    ip[9],
                    &ip[IPV4_HDR_LEN..total_len],
                    ph_addr,
                    true,
                )
            }
            ETHERTYPE_IPV6 => {
                if ip.len() < IPV6_HDR_LEN {
                    return Err(WireError::Truncated);
                }
                if ip[0] >> 4 != 6 {
                    return Err(WireError::Unsupported);
                }
                let next = ip[6];
                if V6_EXTENSION_HEADERS.contains(&next) {
                    return Err(WireError::Unsupported); // no extension chains
                }
                let payload_len = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
                if ip.len() < IPV6_HDR_LEN + payload_len {
                    return Err(WireError::Truncated);
                }
                let src = u128::from_be_bytes(ip[8..24].try_into().expect("16-byte slice"));
                let dst = u128::from_be_bytes(ip[24..40].try_into().expect("16-byte slice"));
                let ph_addr = addr_words_sum_v6(src) + addr_words_sum_v6(dst);
                (
                    src,
                    dst,
                    next,
                    &ip[IPV6_HDR_LEN..IPV6_HDR_LEN + payload_len],
                    ph_addr,
                    false,
                )
            }
            _ => return Err(WireError::Unsupported),
        };

        let (src_port, dst_port, seq, ack, flags, payload_len) = match proto {
            6 => {
                if seg.len() < TCP_HDR_LEN {
                    return Err(WireError::Truncated);
                }
                let data_off = usize::from(seg[12] >> 4) * 4;
                if data_off < TCP_HDR_LEN || seg.len() < data_off {
                    return Err(WireError::Truncated);
                }
                let ph = ph_addr + 6 + seg.len() as u32;
                if checksum(seg, ph) != 0 {
                    return Err(WireError::BadTransportChecksum);
                }
                (
                    u16::from_be_bytes([seg[0], seg[1]]),
                    u16::from_be_bytes([seg[2], seg[3]]),
                    u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]),
                    u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]),
                    TcpFlags(seg[13]),
                    (seg.len() - data_off) as u16,
                )
            }
            17 => {
                if seg.len() < UDP_HDR_LEN {
                    return Err(WireError::Truncated);
                }
                // RFC 768: an all-zero IPv4 checksum means "none
                // generated" and is accepted unverified. Over IPv6 the
                // checksum is mandatory (RFC 8200 §8.1).
                let udp_csum = u16::from_be_bytes([seg[6], seg[7]]);
                if udp_csum == 0 {
                    if !udp_zero_is_none {
                        return Err(WireError::BadTransportChecksum);
                    }
                } else {
                    let ph = ph_addr + 17 + seg.len() as u32;
                    if checksum(seg, ph) != 0 {
                        return Err(WireError::BadTransportChecksum);
                    }
                }
                (
                    u16::from_be_bytes([seg[0], seg[1]]),
                    u16::from_be_bytes([seg[2], seg[3]]),
                    0,
                    0,
                    TcpFlags::NONE,
                    (seg.len() - UDP_HDR_LEN) as u16,
                )
            }
            _ => (0, 0, 0, 0, TcpFlags::NONE, 0),
        };

        Ok(FrameView {
            frame,
            tuple: RawTuple {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            },
            seq,
            ack,
            flags,
            payload_len,
        })
    }

    /// The directed 5-tuple as wire integers — the input to
    /// [`crate::FlowHasher::flow_digest_raw`] / `flow_digest_batch8`.
    #[inline]
    pub fn raw_tuple(&self) -> RawTuple {
        self.tuple
    }

    /// The directed [`FlowKey`] (materialised on demand; the hot path
    /// uses [`FrameView::raw_tuple`] instead).
    pub(crate) fn flow_key(&self) -> FlowKey {
        self.tuple.key()
    }

    /// TCP flags ([`TcpFlags::NONE`] for non-TCP).
    #[inline]
    pub(crate) fn flags(&self) -> TcpFlags {
        self.flags
    }

    /// TCP sequence number (0 for non-TCP).
    #[inline]
    pub(crate) fn seq(&self) -> u32 {
        self.seq
    }

    /// TCP acknowledgement number (0 for non-TCP).
    #[inline]
    pub(crate) fn ack(&self) -> u32 {
        self.ack
    }

    /// Transport payload length in bytes (options excluded for TCP).
    #[inline]
    pub(crate) fn payload_len(&self) -> u16 {
        self.payload_len
    }

    /// Materialise an owned [`Packet`] metadata record. `ts` is supplied
    /// by the capture layer (frames do not carry timestamps).
    pub(crate) fn to_packet(self, ts: Ts) -> Packet {
        Packet {
            key: self.flow_key(),
            ts,
            wire_len: self.frame.len().max(usize::from(Packet::MIN_WIRE_LEN)) as u16,
            payload_len: self.payload_len,
            flags: self.flags,
            seq: self.seq,
            ack: self.ack,
            payload_digest: 0,
            label: Default::default(),
        }
    }
}

/// Parse an Ethernet II / IPv4 / {TCP,UDP} frame back into a [`Packet`]
/// metadata record, validating checksums. `ts` is supplied by the capture
/// layer (frames do not carry timestamps).
///
/// Equivalent to [`FrameView::parse`] + [`FrameView::to_packet`]; the
/// zero-copy ingest path uses the [`FrameView`] half directly.
pub fn decode(frame: &[u8], ts: Ts) -> Result<Packet, WireError> {
    Ok(FrameView::parse(frame)?.to_packet(ts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    /// `p` as one Ethernet II / IPv6 frame.
    fn v6_frame(p: &Packet) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_v6_into(p, &mut frame);
        frame
    }

    fn tcp_packet() -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 1, 2, 3),
            43210,
            Ipv4Addr::new(172, 16, 9, 8),
            443,
        );
        PacketBuilder::new(key, Ts::from_micros(777))
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .seq(0xDEADBEEF)
            .ack(0x01020304)
            .payload(37)
            .build()
    }

    #[test]
    fn tcp_round_trip() {
        let p = tcp_packet();
        let frame = encode(&p);
        let q = decode(&frame, p.ts).unwrap();
        assert_eq!(q.key, p.key);
        assert_eq!(q.flags, p.flags);
        assert_eq!(q.seq, p.seq);
        assert_eq!(q.ack, p.ack);
        assert_eq!(q.payload_len, p.payload_len);
    }

    #[test]
    fn udp_round_trip() {
        let key = FlowKey::udp(
            Ipv4Addr::new(192, 168, 1, 1),
            53,
            Ipv4Addr::new(192, 168, 1, 99),
            34567,
        );
        let p = PacketBuilder::new(key, Ts::ZERO).payload(120).build();
        let frame = encode(&p);
        let q = decode(&frame, Ts::ZERO).unwrap();
        assert_eq!(q.key, key);
        assert_eq!(q.payload_len, 120);
        assert!(!q.is_tcp());
    }

    #[test]
    fn corrupted_ip_checksum_rejected() {
        let mut bad = encode(&tcp_packet());
        bad[ETH_HDR_LEN + 12] ^= 0xFF; // flip a src-ip byte
        assert_eq!(decode(&bad, Ts::ZERO), Err(WireError::BadIpChecksum));
    }

    #[test]
    fn corrupted_tcp_payload_rejected() {
        let mut bad = encode(&tcp_packet());
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // flip a payload bit
        assert_eq!(decode(&bad, Ts::ZERO), Err(WireError::BadTransportChecksum));
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode(&tcp_packet());
        assert_eq!(decode(&frame[..20], Ts::ZERO), Err(WireError::Truncated));
        assert_eq!(decode(&[], Ts::ZERO), Err(WireError::Truncated));
    }

    #[test]
    fn mislabelled_ethertype_rejected() {
        // A v4 header behind the v6 EtherType fails the version check …
        let mut frame = encode(&tcp_packet());
        frame[12] = 0x86;
        frame[13] = 0xDD;
        assert_eq!(decode(&frame, Ts::ZERO), Err(WireError::Unsupported));
        // … and an unknown EtherType is unsupported outright.
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        assert_eq!(decode(&frame, Ts::ZERO), Err(WireError::Unsupported));
    }

    #[test]
    fn v6_round_trip_matches_the_v4_encoding_of_the_same_packet() {
        // encode_v6 embeds v4-compatible addresses, so parsing either
        // framing of the same packet must land on identical Packet fields
        // (v6 frames are 20 B longer, so wire_len differs when derived
        // from the frame — compare the parse-derived fields instead).
        let key_of = |proto| {
            FlowKey::new(
                Ipv4Addr::new(10, 1, 2, 3),
                Ipv4Addr::new(172, 16, 9, 8),
                43210,
                443,
                proto,
            )
        };
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            let p = PacketBuilder::new(key_of(proto), Ts::from_micros(9))
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .seq(77)
                .ack(12)
                .payload(33)
                .build();
            let f4 = encode(&p);
            let f6 = v6_frame(&p);
            let v4 = FrameView::parse(&f4).unwrap();
            let v6 = FrameView::parse(&f6).unwrap();
            assert_eq!(v6.flow_key(), v4.flow_key(), "{proto}");
            assert_eq!(v6.raw_tuple().key(), v4.raw_tuple().key());
            assert_eq!(v6.flags(), v4.flags());
            assert_eq!(v6.seq(), v4.seq());
            assert_eq!(v6.ack(), v4.ack());
            assert_eq!(v6.payload_len(), v4.payload_len());
            assert_eq!(v6.flow_key().proto, v4.flow_key().proto);
        }
    }

    /// Hand-build an IPv6/TCP frame with arbitrary 128-bit addresses and
    /// valid checksums.
    fn v6_tcp_frame(src: u128, dst: u128, payload: &[u8]) -> Vec<u8> {
        let seg_len = TCP_HDR_LEN + payload.len();
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02]);
        f.extend_from_slice(&ETHERTYPE_IPV6.to_be_bytes());
        f.extend_from_slice(&0x6000_0000u32.to_be_bytes());
        f.extend_from_slice(&(seg_len as u16).to_be_bytes());
        f.push(6); // next header: TCP
        f.push(64); // hop limit
        f.extend_from_slice(&src.to_be_bytes());
        f.extend_from_slice(&dst.to_be_bytes());
        let t_start = f.len();
        f.extend_from_slice(&40000u16.to_be_bytes());
        f.extend_from_slice(&443u16.to_be_bytes());
        f.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        f.extend_from_slice(&0x0102_0304u32.to_be_bytes());
        f.push(0x50);
        f.push(TcpFlags::ACK.0);
        f.extend_from_slice(&0xFFFFu16.to_be_bytes());
        f.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent placeholder
        f.extend_from_slice(payload);
        let ph = pseudo_header_sum_v6(src, dst, 6, seg_len as u16);
        let csum = checksum(&f[t_start..], ph);
        f[t_start + 16..t_start + 18].copy_from_slice(&csum.to_be_bytes());
        f
    }

    #[test]
    fn v6_native_addresses_digest_like_their_folded_keys() {
        use crate::key::fold_ip;
        use crate::FlowHasher;
        let src: u128 = 0x2001_0db8_0000_0000_0000_0000_dead_beef;
        let dst: u128 = 0xfd00_0000_0000_0000_0000_0000_0000_0007;
        let frame = v6_tcp_frame(src, dst, &[0xAB; 21]);
        let v = FrameView::parse(&frame).expect("native v6 frame parses");
        let t = v.raw_tuple();
        assert_eq!(t.src_ip, src);
        assert_eq!(t.dst_ip, dst);
        assert_eq!(u32::from(v.flow_key().src_ip), fold_ip(src));
        assert_eq!(u32::from(v.flow_key().dst_ip), fold_ip(dst));
        // The raw digest path agrees with the FlowKey path over the fold,
        // so wire-ingested v6 flows match verdict tables keyed by the
        // folded key.
        let h = FlowHasher::new(0x51CC);
        assert_eq!(h.digest_raw(t), h.digest_symmetric(&v.flow_key()));
        assert_eq!(v.payload_len(), 21);
        assert_eq!(v.flags(), TcpFlags::ACK);
    }

    #[test]
    fn v6_extension_chains_and_corruption_rejected() {
        let src: u128 = 1 << 96;
        let dst: u128 = 2;
        let good = v6_tcp_frame(src, dst, &[1, 2, 3]);
        assert!(FrameView::parse(&good).is_ok());
        // Extension-header next-header values are out of scope.
        for next in [0u8, 43, 44, 50, 51, 60] {
            let mut f = good.clone();
            f[ETH_HDR_LEN + 6] = next;
            assert_eq!(
                FrameView::parse(&f).unwrap_err(),
                WireError::Unsupported,
                "next-header {next} must be rejected, not misparsed"
            );
        }
        // Corrupt payload breaks the mandatory transport checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            FrameView::parse(&bad).unwrap_err(),
            WireError::BadTransportChecksum
        );
        // Truncation below the fixed header and below the payload length.
        assert_eq!(
            FrameView::parse(&good[..ETH_HDR_LEN + 30]).unwrap_err(),
            WireError::Truncated
        );
        let mut short = good.clone();
        short.truncate(good.len() - 2);
        assert_eq!(FrameView::parse(&short).unwrap_err(), WireError::Truncated);
        // A wrong version nibble behind the v6 EtherType is unsupported.
        let mut vbad = good;
        vbad[ETH_HDR_LEN] = 0x45;
        assert_eq!(FrameView::parse(&vbad).unwrap_err(), WireError::Unsupported);
    }

    #[test]
    fn v6_udp_zero_checksum_is_rejected_not_skipped() {
        // RFC 8200 §8.1: the UDP checksum is mandatory over IPv6 — the
        // v4 "zero means none" escape hatch must not apply.
        let key = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5353,
            Ipv4Addr::new(10, 0, 0, 2),
            5353,
        );
        let p = PacketBuilder::new(key, Ts::ZERO).payload(64).build();
        let mut frame = v6_frame(&p);
        let q = decode(&frame, Ts::ZERO).expect("valid v6 UDP parses");
        assert_eq!(q.key, key);
        let csum_at = ETH_HDR_LEN + IPV6_HDR_LEN + 6;
        frame[csum_at] = 0;
        frame[csum_at + 1] = 0;
        assert_eq!(
            decode(&frame, Ts::ZERO),
            Err(WireError::BadTransportChecksum)
        );
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example: the checksum of this sequence is well defined.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let c = checksum(&data, 0);
        // Verify by summing back: data + checksum must fold to 0xFFFF.
        let mut sum: u32 = data
            .chunks(2)
            .map(|c| u32::from(u16::from_be_bytes([c[0], c[1]])))
            .sum();
        sum += u32::from(c);
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum, 0xFFFF);
    }

    #[test]
    fn frame_view_matches_decode_for_every_proto() {
        let key_of = |proto| {
            FlowKey::new(
                Ipv4Addr::new(10, 1, 2, 3),
                Ipv4Addr::new(172, 16, 9, 8),
                43210,
                443,
                proto,
            )
        };
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Other(89)] {
            let p = PacketBuilder::new(key_of(proto), Ts::from_micros(9))
                .flags(TcpFlags::SYN)
                .seq(7)
                .payload(33)
                .build();
            let frame = encode(&p);
            let v = FrameView::parse(&frame).unwrap();
            let q = decode(&frame, p.ts).unwrap();
            assert_eq!(v.to_packet(p.ts), q, "view/decode divergence for {proto}");
            assert_eq!(v.flow_key(), q.key);
            assert_eq!(v.raw_tuple().key(), q.key);
            assert_eq!(v.payload_len(), q.payload_len);
            assert_eq!(v.flags(), q.flags);
            assert_eq!(v.seq(), q.seq);
            assert_eq!(v.ack(), q.ack);
            assert_eq!(v.flow_key().proto, q.key.proto);
            assert_eq!(v.frame, &frame[..]);
        }
    }

    #[test]
    fn udp_zero_checksum_means_no_checksum() {
        // RFC 768: a transmitted checksum of zero means the sender did not
        // compute one; the receiver must accept the datagram unverified.
        let key = FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5353,
            Ipv4Addr::new(10, 0, 0, 2),
            5353,
        );
        let p = PacketBuilder::new(key, Ts::ZERO).payload(64).build();
        let mut frame = encode(&p);
        let csum_at = ETH_HDR_LEN + IPV4_HDR_LEN + 6;
        frame[csum_at] = 0;
        frame[csum_at + 1] = 0;
        let q = decode(&frame, Ts::ZERO).expect("zero checksum must be accepted");
        assert_eq!(q.key, key);
        assert_eq!(q.payload_len, 64);
        let v = FrameView::parse(&frame).expect("FrameView path too");
        assert_eq!(v.flow_key(), key);
        // A *wrong* non-zero checksum is still rejected.
        frame[csum_at + 1] = 0x01;
        assert_eq!(
            decode(&frame, Ts::ZERO),
            Err(WireError::BadTransportChecksum)
        );
        assert_eq!(
            FrameView::parse(&frame).unwrap_err(),
            WireError::BadTransportChecksum
        );
    }

    /// Hand-build a TCP frame carrying `opts` option bytes (data offset
    /// > 5 words), with valid IP and TCP checksums.
    fn tcp_frame_with_options(opts: &[u8], payload: &[u8]) -> Vec<u8> {
        assert_eq!(opts.len() % 4, 0, "options must pad to 32-bit words");
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let seg_len = TCP_HDR_LEN + opts.len() + payload.len();
        let ip_total = IPV4_HDR_LEN + seg_len;
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02]);
        f.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
        let ip_start = f.len();
        f.push(0x45);
        f.push(0);
        f.extend_from_slice(&(ip_total as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
        f.extend_from_slice(&src.octets());
        f.extend_from_slice(&dst.octets());
        let ip_csum = checksum(&f[ip_start..ip_start + IPV4_HDR_LEN], 0);
        f[ip_start + 10..ip_start + 12].copy_from_slice(&ip_csum.to_be_bytes());
        let t_start = f.len();
        f.extend_from_slice(&40000u16.to_be_bytes());
        f.extend_from_slice(&443u16.to_be_bytes());
        f.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        f.extend_from_slice(&0x0102_0304u32.to_be_bytes());
        let words = (TCP_HDR_LEN + opts.len()) / 4;
        f.push((words as u8) << 4);
        f.push(TcpFlags::ACK.0);
        f.extend_from_slice(&0xFFFFu16.to_be_bytes());
        f.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent placeholder
        f.extend_from_slice(opts);
        f.extend_from_slice(payload);
        let ph = pseudo_header_sum(src, dst, 6, seg_len as u16);
        let csum = checksum(&f[t_start..], ph);
        f[t_start + 16..t_start + 18].copy_from_slice(&csum.to_be_bytes());
        f
    }

    #[test]
    fn tcp_options_are_skipped_not_rejected() {
        // NOP, NOP, then a 10-byte timestamp option padded to 12 bytes —
        // the shape most real captures carry on every segment.
        let opts = [
            0x01, 0x01, 0x08, 0x0A, 0x00, 0x00, 0x12, 0x34, 0x00, 0x00, 0x56, 0x78,
        ];
        let payload = [0xAB; 21];
        let frame = tcp_frame_with_options(&opts, &payload);
        for parsed in [
            decode(&frame, Ts::ZERO).expect("options-bearing frame must parse"),
            FrameView::parse(&frame)
                .expect("FrameView path too")
                .to_packet(Ts::ZERO),
        ] {
            assert_eq!(parsed.key.proto, Proto::Tcp);
            assert_eq!(parsed.key.src_port, 40000);
            assert_eq!(parsed.key.dst_port, 443);
            assert_eq!(parsed.seq, 0xDEAD_BEEF);
            assert_eq!(parsed.ack, 0x0102_0304);
            assert_eq!(parsed.flags, TcpFlags::ACK);
            assert_eq!(
                parsed.payload_len,
                payload.len() as u16,
                "payload length must exclude the options"
            );
        }
        // An options-free control build of the same segment agrees.
        let plain = tcp_frame_with_options(&[], &payload);
        assert_eq!(
            decode(&plain, Ts::ZERO).unwrap().payload_len,
            payload.len() as u16
        );
        // A data offset pointing past the segment is still truncation.
        let mut bad = tcp_frame_with_options(&opts, &[]);
        let off_at = ETH_HDR_LEN + IPV4_HDR_LEN + 12;
        bad[off_at] = 0xF0; // data offset 15 words = 60 bytes > segment
        assert_eq!(decode(&bad, Ts::ZERO), Err(WireError::Truncated));
    }

    #[test]
    fn odd_length_payload_checksums() {
        let key = FlowKey::udp(Ipv4Addr::new(1, 2, 3, 4), 1, Ipv4Addr::new(5, 6, 7, 8), 2);
        for len in [0u16, 1, 2, 3, 255] {
            let p = PacketBuilder::new(key, Ts::ZERO).payload(len).build();
            let frame = encode(&p);
            assert!(decode(&frame, Ts::ZERO).is_ok(), "len={len}");
        }
    }
}
