//! Classic libpcap file format support.
//!
//! The paper's methodology is pcap-centric (MoonGen replays pcaps built
//! with editcap/mergecap/tcprewrite), so the workspace can speak the same
//! format: [`write()`](fn@write) serialises packets (via [`wire::encode_into`]) into a
//! classic `.pcap` byte stream, [`read`] parses one back. Microsecond
//! timestamp resolution, LINKTYPE_ETHERNET, little-endian — the variant
//! every tool accepts.

use crate::packet::Packet;
use crate::time::Ts;
use crate::wire;

/// Classic pcap magic (little-endian, microsecond timestamps).
pub const MAGIC_USEC_LE: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Errors from pcap parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PcapError {
    /// Missing or unknown magic number.
    BadMagic,
    /// File shorter than its own headers claim.
    Truncated,
    /// A contained frame failed to decode.
    BadFrame(wire::WireError),
    /// The capture's frames do not fit one frame arena: its `u32`
    /// offsets address at most `u32::MAX` bytes.
    ArenaOverflow,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadMagic => write!(f, "not a classic little-endian pcap"),
            PcapError::Truncated => write!(f, "pcap truncated"),
            PcapError::BadFrame(e) => write!(f, "bad frame in pcap: {e}"),
            PcapError::ArenaOverflow => write!(
                f,
                "pcap frames pass the {} bytes one frame arena addresses",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for PcapError {}

/// Serialise packets into a classic pcap byte stream.
///
/// Each packet is wire-encoded in place after its record header
/// ([`wire::encode_into`]); `orig_len` records the
/// original wire length so 64-byte-truncated stress traces round-trip
/// their intended size. Labels and payload digests are generation-side
/// metadata and are *not* representable in pcap (by design: a pcap is
/// what the monitor would actually capture).
pub fn write(packets: &[Packet]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + packets.len() * 96);
    // Global header.
    buf.extend_from_slice(&MAGIC_USEC_LE.to_le_bytes());
    buf.extend_from_slice(&2u16.to_le_bytes()); // version major
    buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
    buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    buf.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());

    for p in packets {
        let ts = p.ts.as_nanos();
        buf.extend_from_slice(&((ts / 1_000_000_000) as u32).to_le_bytes());
        buf.extend_from_slice(&(((ts % 1_000_000_000) / 1_000) as u32).to_le_bytes());
        let lens = buf.len();
        buf.extend_from_slice(&[0; 8]); // incl_len, orig_len: known once the frame is written
        wire::encode_into(p, &mut buf);
        let len = (buf.len() - lens - 8) as u32;
        buf[lens..lens + 4].copy_from_slice(&len.to_le_bytes()); // incl_len (captured)
        let orig_len = u32::from(p.wire_len).max(len);
        buf[lens + 4..lens + 8].copy_from_slice(&orig_len.to_le_bytes());
    }
    buf
}

/// One record of a classic pcap stream, with the frame bytes still
/// borrowed from the file buffer.
///
/// This is the zero-copy access path: [`records`] yields these without
/// decoding, so a replay source (e.g. `FrameStore::from_pcap`) can pack
/// the raw frames into an arena and parse headers in place via
/// [`wire::FrameView`] instead of materialising owned [`Packet`]s.
#[derive(Clone, Copy, Debug)]
pub struct PcapRecord<'a> {
    /// Capture timestamp (µs resolution widened to the workspace nanos).
    pub ts: Ts,
    /// Original on-the-wire length from the record header (`orig_len`),
    /// which may exceed the captured frame for snapped/truncated traces.
    pub orig_len: u32,
    /// The captured frame bytes (`incl_len` of them).
    pub frame: &'a [u8],
}

/// Iterate over the records of a classic pcap byte stream without
/// decoding the frames.
///
/// Validates the global header eagerly; per-record truncation surfaces as
/// an `Err` item when the iterator reaches it. [`read`] is this iterator
/// plus [`wire::decode`] per record.
pub fn records(data: &[u8]) -> Result<PcapRecords<'_>, PcapError> {
    if data.len() < 24 {
        return Err(PcapError::Truncated);
    }
    if u32_at(data, 0) != MAGIC_USEC_LE {
        return Err(PcapError::BadMagic);
    }
    Ok(PcapRecords { buf: &data[24..] })
}

/// The little-endian `u32` at `at` (the caller has checked the length).
fn u32_at(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("four bytes"))
}

/// Iterator over [`PcapRecord`]s, returned by [`records`].
#[derive(Clone, Debug)]
pub struct PcapRecords<'a> {
    buf: &'a [u8],
}

impl<'a> Iterator for PcapRecords<'a> {
    type Item = Result<PcapRecord<'a>, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buf.is_empty() {
            return None;
        }
        if self.buf.len() < 16 {
            self.buf = &[];
            return Some(Err(PcapError::Truncated));
        }
        let (header, rest) = self.buf.split_at(16);
        let secs = u64::from(u32_at(header, 0));
        let usecs = u64::from(u32_at(header, 4));
        let incl = u32_at(header, 8) as usize;
        if rest.len() < incl {
            self.buf = &[];
            return Some(Err(PcapError::Truncated));
        }
        let (frame, rest) = rest.split_at(incl);
        self.buf = rest;
        Some(Ok(PcapRecord {
            ts: Ts::from_nanos(secs * 1_000_000_000 + usecs * 1_000),
            orig_len: u32_at(header, 12),
            frame,
        }))
    }
}

/// Parse a classic pcap byte stream back into packets.
///
/// Timestamps come from the per-record header; metadata-only fields
/// (label, payload digest) come back defaulted, exactly as if the trace
/// had been captured off the wire.
pub fn read(data: &[u8]) -> Result<Vec<Packet>, PcapError> {
    let mut out = Vec::new();
    for rec in records(data)? {
        let rec = rec?;
        let mut pkt = wire::decode(rec.frame, rec.ts).map_err(PcapError::BadFrame)?;
        pkt.wire_len = rec.orig_len.min(u32::from(u16::MAX)) as u16;
        out.push(pkt);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use crate::packet::PacketBuilder;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn packets() -> Vec<Packet> {
        (0..20u32)
            .map(|i| {
                let key = FlowKey::tcp(
                    Ipv4Addr::from(0x0A00_0000 + i),
                    40_000 + i as u16,
                    Ipv4Addr::new(172, 16, 0, 1),
                    443,
                );
                PacketBuilder::new(key, Ts::from_micros(u64::from(i) * 17))
                    .flags(TcpFlags::PSH | TcpFlags::ACK)
                    .seq(i)
                    .payload((i % 700) as u16)
                    .build()
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_headers_and_timestamps() {
        let original = packets();
        let bytes = write(&original);
        let parsed = read(&bytes).unwrap();
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.iter().zip(&parsed) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.flags, b.flags);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.payload_len, b.payload_len);
            // Microsecond resolution: equal because we generate on µs.
            assert_eq!(a.ts, b.ts);
        }
    }

    #[test]
    fn global_header_is_standard() {
        let bytes = write(&packets());
        assert_eq!(&bytes[0..4], &MAGIC_USEC_LE.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write(&packets());
        bytes[0] ^= 0xFF;
        assert_eq!(read(&bytes), Err(PcapError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = write(&packets());
        assert_eq!(read(&bytes[..bytes.len() - 3]), Err(PcapError::Truncated));
        assert_eq!(read(&bytes[..10]), Err(PcapError::Truncated));
    }

    #[test]
    fn empty_capture_round_trips() {
        let bytes = write(&[]);
        assert_eq!(bytes.len(), 24);
        assert!(read(&bytes).unwrap().is_empty());
    }

    #[test]
    fn orig_len_survives_truncated_capture() {
        // A 64 B stress rewrite keeps the original wire length in
        // orig_len even though the encoded frame is tiny.
        let p = packets()[5].truncated();
        let parsed = read(&write(&[p])).unwrap();
        assert_eq!(parsed[0].wire_len, 64);
    }

    #[test]
    fn records_iterates_without_decoding() {
        let original = packets();
        let bytes = write(&original);
        let recs: Vec<_> = records(&bytes).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), original.len());
        for (p, r) in original.iter().zip(&recs) {
            assert_eq!(r.ts, p.ts);
            assert_eq!(r.frame, &wire::encode(p)[..]);
            assert_eq!(r.orig_len, u32::from(p.wire_len).max(r.frame.len() as u32));
            // The borrowed frame parses in place to the same packet.
            let v = wire::FrameView::parse(r.frame).unwrap();
            assert_eq!(v.flow_key(), p.key);
        }
        // Truncation mid-record surfaces as an Err item, not a panic.
        let cut = &bytes[..bytes.len() - 3];
        assert!(records(cut).unwrap().any(|r| r.is_err()));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_packet() -> impl Strategy<Value = Packet> {
            (
                (
                    0u32..1 << 16,
                    0u32..1 << 16,
                    1u16..u16::MAX,
                    1u16..u16::MAX,
                    any::<bool>(),
                ),
                (
                    0u64..4_000_000,
                    any::<u32>(),
                    any::<u32>(),
                    0u8..64,
                    0u16..400,
                ),
            )
                .prop_map(|((a, b, ap, bp, udp), (us, seq, ack, fl, pay))| {
                    let key = if udp {
                        FlowKey::udp(
                            Ipv4Addr::from(0x0A00_0000 + a),
                            ap,
                            Ipv4Addr::from(0xAC10_0000 + b),
                            bp,
                        )
                    } else {
                        FlowKey::tcp(
                            Ipv4Addr::from(0x0A00_0000 + a),
                            ap,
                            Ipv4Addr::from(0xAC10_0000 + b),
                            bp,
                        )
                    };
                    PacketBuilder::new(key, Ts::from_micros(us))
                        .flags(TcpFlags(fl))
                        .seq(seq)
                        .ack(ack)
                        .payload(pay)
                        .build()
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `write` → `read` → `write` is byte-identical: the capture
            /// format is a fixed point after one round trip, so compiled
            /// pcap artifacts can be re-read and re-shipped losslessly.
            #[test]
            fn write_read_reencode_is_byte_identical(
                pkts in prop::collection::vec(arb_packet(), 0..40)
            ) {
                let bytes = write(&pkts);
                let parsed = read(&bytes).unwrap();
                prop_assert_eq!(parsed.len(), pkts.len());
                let reencoded = write(&parsed);
                prop_assert_eq!(reencoded, bytes);
            }
        }
    }
}
