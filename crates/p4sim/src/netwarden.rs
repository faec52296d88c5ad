//! NetWarden baseline (Xing, Kang & Chen, USENIX Security '20), re-built
//! for the paper's §5.2 comparison.
//!
//! NetWarden collects per-connection timing distributions with `k`
//! CountMin sketches — one per histogram bin — instead of FlowLens's
//! per-flow markers, and runs cheap *pre-checks* (range queries over the
//! distribution) entirely in the data plane. SmartWatch's extension
//! (`SmartWatch_NetWarden`) uses the pre-check as the steering trigger:
//! flows failing the range check are forwarded to the sNIC for the full
//! statistical test.

use smartwatch_net::{FlowHasher, FlowKey, Packet, Ts};
use std::collections::HashMap;

/// A u64-keyed CountMin row bank (NetWarden keys sketches by flow id).
#[derive(Clone, Debug)]
struct MiniCms {
    rows: Vec<Vec<u32>>,
    hashers: Vec<FlowHasher>,
    width: usize,
}

impl MiniCms {
    fn new(depth: usize, width: usize, seed: u64) -> MiniCms {
        MiniCms {
            rows: vec![vec![0; width]; depth],
            hashers: (0..depth)
                .map(|i| FlowHasher::new(seed.wrapping_mul(269).wrapping_add(i as u64)))
                .collect(),
            width,
        }
    }

    fn update(&mut self, key: u64) {
        for (row, h) in self.rows.iter_mut().zip(&self.hashers) {
            let i = h.hash_u64(key).bucket(self.width);
            row[i] = row[i].saturating_add(1);
        }
    }

    fn bytes(&self) -> usize {
        self.rows.len() * self.width * 4
    }
}

/// NetWarden's switch structure for IPD collection.
#[derive(Clone, Debug)]
pub struct NetWarden {
    /// The histogram's bins (each backed by a CountMin over flow ids).
    bins: Vec<MiniCms>,
    /// Bin width in microseconds.
    pub bin_width_us: u32,
    /// Pre-check range (inclusive bin indices) considered suspicious —
    /// covert modulation lives in a known delay band.
    pub precheck_range: (usize, usize),
    /// Fraction of a flow's IPDs inside the range that trips the
    /// pre-check.
    pub precheck_ratio: f64,
    /// Per-flow last-timestamp register (for IPD computation) plus
    /// total/in-range counters for the pre-check.
    flow_regs: HashMap<FlowKey, (Ts, u32, u32)>,
    hasher: FlowHasher,
}

impl NetWarden {
    /// `n_bins` bins of `bin_width_us`, each a `depth × width` CountMin.
    pub(crate) fn new(n_bins: usize, bin_width_us: u32, depth: usize, width: usize) -> NetWarden {
        assert!(n_bins > 0 && bin_width_us > 0);
        NetWarden {
            bins: (0..n_bins)
                .map(|i| MiniCms::new(depth, width, 0xBEEF + i as u64))
                .collect(),
            bin_width_us,
            precheck_range: (0, n_bins - 1),
            precheck_ratio: 0.9,
            flow_regs: HashMap::new(),
            hasher: FlowHasher::new(0x9977),
        }
    }

    /// The paper's high-memory configuration (4 MB of sketches) or
    /// low-memory (0.5 MB) by shrinking sketch width 8×.
    pub fn with_memory(bytes: usize, n_bins: usize, bin_width_us: u32) -> NetWarden {
        let depth = 2;
        let width = (bytes / (n_bins * depth * 4)).max(4);
        NetWarden::new(n_bins, bin_width_us, depth, width)
    }

    /// Configure the suspicious-delay pre-check band, in microseconds.
    pub fn set_precheck_band(&mut self, lo_us: u32, hi_us: u32, ratio: f64) {
        let lo = (lo_us / self.bin_width_us) as usize;
        let hi = ((hi_us / self.bin_width_us) as usize).min(self.bins.len() - 1);
        self.precheck_range = (lo, hi);
        self.precheck_ratio = ratio;
    }

    fn flow_id(&self, key: &FlowKey) -> u64 {
        self.hasher.hash_symmetric(key).0
    }

    /// Fold one packet in; returns `true` if the flow currently trips the
    /// pre-check (the SmartWatch extension steers it to the sNIC).
    pub fn on_packet(&mut self, p: &Packet) -> bool {
        let key = p.key.canonical().0;
        let fid = self.flow_id(&key);
        let n_bins = self.bins.len();
        let entry = self.flow_regs.entry(key).or_insert((p.ts, 0, 0));
        let prev = entry.0;
        entry.0 = p.ts;
        if prev == p.ts && entry.1 == 0 {
            return false; // first packet: no IPD yet
        }
        let ipd_us = (p.ts - prev).as_micros() as u32;
        let bin = ((ipd_us / self.bin_width_us) as usize).min(n_bins - 1);
        self.bins[bin].update(fid);
        entry.1 += 1; // total IPDs
        if bin >= self.precheck_range.0 && bin <= self.precheck_range.1 {
            entry.2 += 1; // in-range IPDs
        }
        let (_, total, in_range) = *entry;
        total >= 16 && f64::from(in_range) / f64::from(total) >= self.precheck_ratio
    }

    /// Sketch memory in bytes (the Fig. 9 x-axis driver).
    pub fn sram_bytes(&self) -> usize {
        self.bins.iter().map(MiniCms::bytes).sum::<usize>() + self.flow_regs.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MiniCms {
        fn estimate(&self, key: u64) -> u64 {
            self.rows
                .iter()
                .zip(&self.hashers)
                .map(|(row, h)| u64::from(row[h.hash_u64(key).bucket(self.width)]))
                .min()
                .unwrap_or(0)
        }

        fn clear(&mut self) {
            for r in &mut self.rows {
                r.fill(0);
            }
        }
    }

    impl NetWarden {
        /// Estimated IPD histogram of a flow (sketch queries, one per bin).
        fn histogram(&self, key: &FlowKey) -> Vec<u64> {
            let fid = self.flow_id(&key.canonical().0);
            self.bins.iter().map(|b| b.estimate(fid)).collect()
        }

        /// Reset per-interval state.
        fn clear(&mut self) {
            for b in &mut self.bins {
                b.clear();
            }
            self.flow_regs.clear();
        }
    }
    use smartwatch_net::{PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn pkt(flow: u32, ts_us: u64) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + flow),
            9,
            Ipv4Addr::from(0xAC100001u32),
            443,
        );
        PacketBuilder::new(key, Ts::from_micros(ts_us))
            .flags(TcpFlags::ACK)
            .payload(64)
            .build()
    }

    #[test]
    fn histogram_reflects_ipds() {
        let mut nw = NetWarden::new(128, 1, 2, 4096);
        // Gaps of 30 µs ×3 and 80 µs ×2.
        let times = [0u64, 30, 60, 90, 170, 250];
        for t in times {
            nw.on_packet(&pkt(1, t));
        }
        let h = nw.histogram(&pkt(1, 0).key);
        assert_eq!(h[30], 3);
        assert_eq!(h[80], 2);
    }

    #[test]
    fn precheck_trips_on_modulated_flow() {
        let mut nw = NetWarden::new(128, 1, 2, 4096);
        nw.set_precheck_band(20, 100, 0.9);
        // Modulated flow: IPDs alternating 30/80 µs (inside the band).
        let mut tripped = false;
        let mut t = 0u64;
        for i in 0..40 {
            t += if i % 2 == 0 { 30 } else { 80 };
            tripped |= nw.on_packet(&pkt(1, t));
        }
        assert!(tripped, "modulated flow should trip the pre-check");
        // Benign flow with 500 µs gaps (outside the band) never trips.
        let mut t = 0u64;
        let mut benign_tripped = false;
        for _ in 0..40 {
            t += 500;
            benign_tripped |= nw.on_packet(&pkt(2, t));
        }
        assert!(!benign_tripped);
    }

    #[test]
    fn low_memory_config_is_smaller_but_noisier() {
        let hi = NetWarden::with_memory(4 << 20, 128, 1);
        let lo = NetWarden::with_memory(512 << 10, 128, 1);
        assert!(lo.sram_bytes() < hi.sram_bytes() / 4);
    }

    #[test]
    fn clear_resets() {
        let mut nw = NetWarden::new(16, 8, 2, 64);
        nw.on_packet(&pkt(1, 0));
        nw.on_packet(&pkt(1, 40));
        nw.clear();
        assert!(nw.histogram(&pkt(1, 0).key).iter().all(|&c| c == 0));
    }
}
