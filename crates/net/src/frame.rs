//! Packed wire-frame storage: the replay-side half of the zero-copy
//! data plane.
//!
//! A [`FrameStore`] holds many Ethernet frames back-to-back in one arena
//! buffer plus a small per-frame [`FrameMeta`] sideband. It is built
//! *once* — from synthetic packets ([`FrameStore::from_packets`], used by
//! the trace compiler) or from a capture file
//! ([`FrameStore::from_pcap`]) — and replayed many times: the ingest hot
//! path borrows `&[u8]` frames out of the arena and parses headers in
//! place with [`wire::FrameView`], never materialising a
//! [`Packet`] per replayed packet.
//!
//! The sideband exists because an Ethernet frame cannot carry everything
//! the simulation model knows about a packet: exact nanosecond
//! timestamps (pcap is µs), the original wire length of truncated
//! frames, the payload digest (payloads are synthesised as zeros — the
//! paper assumes encrypted traffic) and the ground-truth label. With the
//! sideband, [`FrameStore::packet`] reproduces the originating [`Packet`]
//! *exactly*, which is what makes a compiled-trace replay
//! byte-deterministic against the synthetic run of the same seed.
//! Stores built from pcap leave the metadata-only fields defaulted,
//! exactly like [`pcap::read`] — a capture is what the monitor would
//! actually see.

use crate::label::Label;
use crate::packet::Packet;
use crate::pcap::{self, PcapError};
use crate::time::Ts;
use crate::wire::{self, FrameView};

/// Per-frame sideband record: where the frame lives in the arena plus
/// the model-level fields the wire bytes cannot carry.
#[derive(Clone, Copy, Debug)]
pub struct FrameMeta {
    offset: u32,
    len: u32,
    /// Arrival timestamp (exact nanoseconds for compiled stores, µs
    /// resolution for pcap-built stores).
    pub ts: Ts,
    /// Original on-the-wire length (may exceed the stored frame for
    /// 64-byte-truncated stress traces).
    pub wire_len: u16,
    /// Transport payload length of the *original* packet. Matches the
    /// parsed value for TCP/UDP; preserves it for protocols whose
    /// encoding drops the transport header.
    pub payload_len: u16,
    /// Payload digest of the original packet (0 for pcap-built stores).
    pub payload_digest: u64,
    /// Ground-truth label (default for pcap-built stores).
    pub label: Label,
}

impl FrameMeta {
    /// Compose the full [`Packet`] from an in-place parse of the frame
    /// this sideband record describes: header fields from the wire
    /// bytes, model-only fields from the sideband. This is the replay
    /// hot path's reconstruction — [`FrameStore::packet`] is exactly
    /// `meta.packet(&view)`.
    #[inline]
    pub fn packet(&self, view: &FrameView<'_>) -> Packet {
        Packet {
            key: view.flow_key(),
            ts: self.ts,
            wire_len: self.wire_len,
            payload_len: self.payload_len,
            flags: view.flags(),
            seq: view.seq(),
            ack: view.ack(),
            payload_digest: self.payload_digest,
            label: self.label,
        }
    }
}

/// The `(offset, len)` sideband pair of the frame at arena bytes
/// `start..end`, or `None` when its end lies past `u32::MAX`: offsets and
/// lengths are `u32` and [`FrameStore::frame`] adds them in `u32`.
fn arena_span(start: usize, end: usize) -> Option<(u32, u32)> {
    let start = u32::try_from(start).ok()?;
    let end = u32::try_from(end).ok()?;
    Some((start, end - start))
}

/// A packed, validated arena of wire frames plus per-frame metadata.
///
/// Every frame is checksum-validated at construction time, so the replay
/// hot path can parse with [`FrameStore::view`] infallibly.
#[derive(Clone, Debug, Default)]
pub struct FrameStore {
    bytes: Vec<u8>,
    meta: Vec<FrameMeta>,
    max_frame: usize,
}

impl FrameStore {
    /// Compile packets into a packed frame buffer: each one is appended
    /// to the arena in place by [`wire::encode_into`].
    ///
    /// The sideband carries each packet's exact timestamp, wire length,
    /// payload length, payload digest and label, so
    /// [`FrameStore::packet`] round-trips the input losslessly.
    ///
    /// # Panics
    ///
    /// When the arena would pass `u32::MAX` bytes, the most a frame's
    /// `u32` offset can address.
    pub fn from_packets(packets: &[Packet]) -> FrameStore {
        Self::from_packets_with(packets, wire::encode_into)
    }

    /// [`FrameStore::from_packets`] with IPv6 framing
    /// ([`wire::encode_v6_into`], v4-compatible addresses): the replay walks
    /// the v6 parse path while [`FrameStore::packet`] reconstructs the
    /// same flow keys and header fields (the address fold is the identity
    /// on the embedded v4 range). As with the v4 store, the sideband
    /// `wire_len` is clamped up to the encoded frame length — v6 frames
    /// are 20 bytes longer, so byte counters can differ from the v4
    /// framing for sub-74-byte packets.
    pub fn from_packets_v6(packets: &[Packet]) -> FrameStore {
        Self::from_packets_with(packets, wire::encode_v6_into)
    }

    /// Append every frame to the arena with `encode_into`: two
    /// allocations per store (arena and sideband), none per frame. The
    /// arena is reserved at 96 bytes a frame, room for every frame of a
    /// 64-byte stress trace in either framing; larger frames regrow it a
    /// few times per store, not per frame.
    fn from_packets_with(packets: &[Packet], encode_into: fn(&Packet, &mut Vec<u8>)) -> FrameStore {
        let mut store = FrameStore {
            bytes: Vec::with_capacity(packets.len() * 96),
            meta: Vec::with_capacity(packets.len()),
            max_frame: 0,
        };
        for p in packets {
            let start = store.bytes.len();
            encode_into(p, &mut store.bytes);
            let (offset, len) = arena_span(start, store.bytes.len()).unwrap_or_else(|| {
                panic!(
                    "compiled frame arena would pass u32::MAX ({}) bytes",
                    u32::MAX
                )
            });
            store.max_frame = store.max_frame.max(len as usize);
            store.meta.push(FrameMeta {
                offset,
                len,
                ts: p.ts,
                wire_len: p.wire_len.max(len.min(u32::from(u16::MAX)) as u16),
                payload_len: p.payload_len,
                payload_digest: p.payload_digest,
                label: p.label,
            });
        }
        store
    }

    /// Build a store from a classic pcap byte stream, validating every
    /// frame (checksums included) up front.
    ///
    /// Sideband fields the capture cannot carry (payload digest, label)
    /// come back defaulted and timestamps keep pcap's µs resolution —
    /// the same contract as [`pcap::read`], which
    /// [`FrameStore::packet`] matches record-for-record. A capture whose
    /// frames would pass `u32::MAX` arena bytes is
    /// [`PcapError::ArenaOverflow`].
    pub fn from_pcap(data: &[u8]) -> Result<FrameStore, PcapError> {
        let mut store = FrameStore {
            bytes: Vec::with_capacity(data.len().saturating_sub(24)),
            meta: Vec::new(),
            max_frame: 0,
        };
        for rec in pcap::records(data)? {
            let rec = rec?;
            let view = FrameView::parse(rec.frame).map_err(PcapError::BadFrame)?;
            let start = store.bytes.len();
            let (offset, len) =
                arena_span(start, start + rec.frame.len()).ok_or(PcapError::ArenaOverflow)?;
            store.bytes.extend_from_slice(rec.frame);
            store.max_frame = store.max_frame.max(rec.frame.len());
            store.meta.push(FrameMeta {
                offset,
                len,
                ts: rec.ts,
                wire_len: rec.orig_len.min(u32::from(u16::MAX)) as u16,
                payload_len: view.payload_len(),
                payload_digest: 0,
                label: Label::default(),
            });
        }
        Ok(store)
    }

    /// A store replaying this one's frames cycled up to exactly `total`
    /// packets — "serialise once, replay many". The arena is shared
    /// bytes; only the small sideband grows. Mirrors the synthetic
    /// bench workload cycling, so a compiled replay of `total` packets
    /// sees the same sequence a cycled `Vec<Packet>` would.
    pub fn cycled_to(&self, total: usize) -> FrameStore {
        assert!(!self.meta.is_empty(), "cannot cycle an empty store");
        let meta = (0..total).map(|i| self.meta[i % self.meta.len()]).collect();
        FrameStore {
            bytes: self.bytes.clone(),
            meta,
            max_frame: self.max_frame,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when the store holds no frames.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Length of the largest frame — the capacity a frame pool slot
    /// needs to hold any frame from this store.
    pub fn max_frame_len(&self) -> usize {
        self.max_frame
    }

    /// Borrow frame `i`'s raw bytes from the arena.
    #[inline]
    pub fn frame(&self, i: usize) -> &[u8] {
        let m = &self.meta[i];
        &self.bytes[m.offset as usize..(m.offset + m.len) as usize]
    }

    /// Frame `i`'s sideband metadata.
    #[inline]
    pub fn meta(&self, i: usize) -> &FrameMeta {
        &self.meta[i]
    }

    /// Parse frame `i` in place. Infallible: every frame was validated
    /// at construction.
    #[inline]
    pub fn view(&self, i: usize) -> FrameView<'_> {
        FrameView::parse(self.frame(i)).expect("frame validated at construction")
    }

    /// Reconstruct the full [`Packet`] for frame `i`: header fields from
    /// the wire bytes, model-only fields from the sideband. For stores
    /// built with [`FrameStore::from_packets`] this equals the original
    /// packet exactly.
    pub fn packet(&self, i: usize) -> Packet {
        self.meta[i].packet(&self.view(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{FlowKey, Proto};
    use crate::label::{AttackKind, Label};
    use crate::packet::PacketBuilder;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn mixed_packets() -> Vec<Packet> {
        (0..50u32)
            .map(|i| {
                let proto = match i % 3 {
                    0 => Proto::Tcp,
                    1 => Proto::Udp,
                    _ => Proto::Icmp,
                };
                let key = FlowKey::new(
                    Ipv4Addr::from(0x0A00_0001 + i),
                    Ipv4Addr::new(172, 16, 0, 1),
                    if proto == Proto::Icmp {
                        0
                    } else {
                        40_000 + i as u16
                    },
                    if proto == Proto::Icmp { 0 } else { 443 },
                    proto,
                );
                let mut b = PacketBuilder::new(key, Ts::from_nanos(u64::from(i) * 1_337))
                    .payload((i % 200) as u16)
                    .payload_digest(u64::from(i) * 7)
                    .seq(i)
                    .ack(i ^ 5);
                if proto == Proto::Tcp {
                    b = b.flags(TcpFlags::PSH | TcpFlags::ACK);
                }
                if i % 7 == 0 {
                    b = b.label(Label::attack(AttackKind::StealthyPortScan, 1));
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn from_packets_round_trips_exactly() {
        let pkts = mixed_packets();
        let store = FrameStore::from_packets(&pkts);
        assert_eq!(store.len(), pkts.len());
        for (i, p) in pkts.iter().enumerate() {
            // Non-TCP seq/ack/flags are zero in the model; the store
            // reproduces the packet including sideband-only fields
            // (exact ns timestamp, digest, label, payload_len).
            let expect = if p.is_tcp() {
                *p
            } else {
                Packet {
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags::NONE,
                    ..*p
                }
            };
            assert_eq!(store.packet(i), expect, "packet {i}");
        }
    }

    #[test]
    fn truncated_stress_packets_keep_wire_len() {
        // 64 B stress rewrites: the encoded frame is tiny (54 B of
        // headers) but the sideband keeps the declared 64 B wire length.
        let pkts: Vec<Packet> = mixed_packets()
            .iter()
            .filter(|p| p.is_tcp())
            .map(|p| p.truncated())
            .collect();
        let store = FrameStore::from_packets(&pkts);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(store.packet(i), *p, "packet {i}");
            assert_eq!(store.meta(i).wire_len, 64);
        }
    }

    #[test]
    fn cycled_store_repeats_frames_without_copying_the_arena() {
        let pkts = mixed_packets();
        let store = FrameStore::from_packets(&pkts);
        let cycled = store.cycled_to(pkts.len() * 3 + 7);
        assert_eq!(cycled.len(), pkts.len() * 3 + 7);
        assert_eq!(
            cycled.bytes.len(),
            store.bytes.len(),
            "arena is shared, not repeated"
        );
        for i in 0..cycled.len() {
            assert_eq!(cycled.frame(i), store.frame(i % pkts.len()));
            assert_eq!(cycled.packet(i), store.packet(i % pkts.len()));
        }
    }

    #[test]
    fn from_pcap_matches_pcap_read() {
        let pkts: Vec<Packet> = mixed_packets()
            .into_iter()
            .filter(|p| p.is_tcp() || p.is_udp())
            .map(|mut p| {
                // pcap is µs resolution; align so ts compares equal.
                p.ts = Ts::from_micros(p.ts.as_nanos() / 1_000);
                p
            })
            .collect();
        let bytes = pcap::write(&pkts);
        let store = FrameStore::from_pcap(&bytes).unwrap();
        let parsed = pcap::read(&bytes).unwrap();
        assert_eq!(store.len(), parsed.len());
        for (i, p) in parsed.iter().enumerate() {
            assert_eq!(store.packet(i), *p, "record {i}");
        }
        assert!(store.max_frame_len() >= 64 - 10);
    }

    #[test]
    fn from_pcap_rejects_corrupt_frames() {
        let pkts = mixed_packets();
        let mut bytes = pcap::write(&pkts[..2.min(pkts.len())]);
        let n = bytes.len();
        bytes[n - 1] ^= 0x01; // corrupt the last payload byte
        assert!(matches!(
            FrameStore::from_pcap(&bytes),
            Err(PcapError::BadFrame(_))
        ));
    }

    #[test]
    fn arena_spans_are_checked_where_they_are_made() {
        let max = u32::MAX as usize;
        assert_eq!(arena_span(max - 60, max), Some((u32::MAX - 60, 60)));
        assert_eq!(arena_span(max, max), Some((u32::MAX, 0)));
        assert_eq!(arena_span(max - 60, max + 1), None, "one past u32::MAX");
        assert_eq!(arena_span(max + 1, max + 61), None);
    }

    #[test]
    fn view_exposes_raw_tuples_for_the_digest_path() {
        let pkts = mixed_packets();
        let store = FrameStore::from_packets(&pkts);
        for i in 0..store.len() {
            let v = store.view(i);
            assert_eq!(v.flow_key(), store.packet(i).key);
            assert_eq!(v.raw_tuple().key(), v.flow_key());
        }
    }
}
