//! The trace compiler: serialise a generated trace into packed wire
//! frames once, replay it many times.
//!
//! The paper's replay driver (MoonGen) does exactly this — it preloads
//! pcap frames into DMA buffers and transmits the same bytes over and
//! over. [`compile`] is the workspace equivalent: any generator output
//! (background presets, attacks, spike mixes) becomes a
//! [`FrameStore`] whose arena holds every frame back-to-back, and
//! [`compile_cycled`] stretches the replay to an exact packet count by
//! repeating sideband entries over the *same* arena bytes, mirroring how
//! the bench harness cycles synthetic `Vec<Packet>` workloads.
//!
//! Compiling is one pass over the trace that allocates per store, not
//! per frame: `wire::encode_into` (or `encode_v6_into`) writes each
//! frame, checksums included, straight into the arena where the replay
//! will parse it, and the sideband entry is pushed beside it. A trace
//! is ordered when it is built, and [`Trace::from_packets`] returns
//! input that is already in order untouched, so wrapping generated
//! packets in a [`Trace`] to compile them neither sorts nor copies them.
//!
//! Because the [`FrameStore`] sideband carries the model-only fields the
//! wire cannot (exact ns timestamps, truncated wire lengths, payload
//! digests, labels), replaying a compiled trace through the engine is
//! packet-for-packet equivalent to replaying the original trace — the
//! Ordered-merge `deterministic_summary` comes out byte-identical.

use crate::Trace;
use smartwatch_net::FrameStore;

/// Compile a trace into a packed [`FrameStore`] (wire-encode every
/// packet once; checksums valid; sideband preserves the model-only
/// fields).
pub fn compile(trace: &Trace) -> FrameStore {
    FrameStore::from_packets(trace.packets())
}

/// Compile `trace` once and cycle the replay schedule to exactly
/// `total` packets. The arena is not repeated — only the small
/// per-frame sideband grows — so a 25k-flow base trace can drive a
/// multi-million-packet replay from a few MB of frames.
pub fn compile_cycled(trace: &Trace, total: usize) -> FrameStore {
    assert!(!trace.is_empty(), "cannot compile an empty trace");
    compile(trace).cycled_to(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::{preset_trace, Preset};
    use smartwatch_net::Dur;

    #[test]
    fn compiled_store_round_trips_the_generator_output() {
        let t = preset_trace(Preset::Caida2018, 200, Dur::from_millis(50), 0xC0DE);
        let store = compile(&t);
        assert_eq!(store.len(), t.len());
        for (i, p) in t.iter().enumerate() {
            assert_eq!(store.packet(i), *p, "packet {i}");
        }
    }

    #[test]
    fn truncated_stress_traces_compile_faithfully() {
        let t = preset_trace(Preset::Caida2018, 150, Dur::from_millis(50), 7).truncated_64b();
        let store = compile(&t);
        for (i, p) in t.iter().enumerate() {
            assert_eq!(store.packet(i), *p, "packet {i}");
            assert_eq!(store.meta(i).wire_len, 64);
        }
    }

    #[test]
    fn v6_compile_reconstructs_the_same_flows_as_v4() {
        // The v6 framing must be decision-equivalent: same keys, flags,
        // seq/ack, payload lengths and timestamps as the v4 compilation
        // (wire_len may grow to the 20-byte-larger v6 frame).
        let t = preset_trace(Preset::Caida2018, 200, Dur::from_millis(50), 0xC0DE);
        let v4 = compile(&t);
        let v6 = FrameStore::from_packets_v6(t.packets());
        assert_eq!(v6.len(), v4.len());
        for i in 0..v6.len() {
            let a = v4.packet(i);
            let b = v6.packet(i);
            assert_eq!(b.key, a.key, "packet {i}");
            assert_eq!(b.flags, a.flags);
            assert_eq!(b.seq, a.seq);
            assert_eq!(b.ack, a.ack);
            assert_eq!(b.payload_len, a.payload_len);
            assert_eq!(b.ts, a.ts);
            assert_eq!(b.label, a.label);
            assert!(b.wire_len >= a.wire_len, "v6 frames are never shorter");
        }
    }

    #[test]
    fn cycled_compile_matches_cycled_packets() {
        let t = preset_trace(Preset::Caida2016, 80, Dur::from_millis(20), 42);
        let total = t.len() * 2 + 13;
        let store = compile_cycled(&t, total);
        assert_eq!(store.len(), total);
        let base = t.packets();
        for i in 0..total {
            assert_eq!(store.packet(i), base[i % base.len()], "packet {i}");
        }
    }
}
