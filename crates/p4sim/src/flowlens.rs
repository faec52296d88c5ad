//! FlowLens baseline (Barradas et al., NDSS '21), re-built on the switch
//! model for the paper's §5.2 comparison.
//!
//! FlowLens keeps a *flow marker* per flow: a quantized histogram of a
//! per-packet feature — packet lengths (PLD) for fingerprinting, or
//! inter-packet delays (IPD) for covert-channel detection. The
//! quantization level QL coarsens bins by `2^QL`, trading accuracy for
//! switch SRAM: at QL=0 a PLD marker is 1500 bins × 2 B = 3000 B per
//! flow; at QL=3 it is 188 bins × 2 B = 376 B (the paper's high/low
//! memory configurations).

use smartwatch_net::{FlowKey, Packet, Ts};
use std::collections::HashMap;

/// Which per-packet feature the marker collects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Feature {
    /// Payload length distribution, bytes (range 0–1500).
    Pld,
    /// Inter-packet delay distribution, microseconds, clipped at the
    /// given maximum (covert channels modulate 1–100 µs).
    IpdMicros(u32),
}

impl Feature {
    fn range(&self) -> u32 {
        match self {
            Feature::Pld => 1500,
            Feature::IpdMicros(max) => *max,
        }
    }
}

/// One flow's marker.
#[derive(Clone, Debug)]
pub struct FlowMarker {
    /// Quantized feature histogram.
    pub bins: Vec<u16>,
    /// Packets folded in.
    pub packets: u64,
    last_ts: Option<Ts>,
}

/// The FlowLens switch structure.
#[derive(Clone, Debug)]
pub struct FlowLens {
    /// Quantization level (bin width = 2^QL feature units).
    pub ql: u8,
    /// Collected feature.
    pub feature: Feature,
    /// Maximum flows the flow table admits (SRAM budget / marker size).
    pub max_flows: usize,
    flows: HashMap<FlowKey, FlowMarker>,
    /// Packets belonging to flows rejected because the table was full.
    pub overflow: u64,
}

impl FlowLens {
    /// FlowLens with an explicit flow-table bound.
    pub fn new(feature: Feature, ql: u8, max_flows: usize) -> FlowLens {
        FlowLens {
            ql,
            feature,
            max_flows,
            flows: HashMap::new(),
            overflow: 0,
        }
    }

    /// Bins per marker at this quantization.
    pub(crate) fn n_bins(&self) -> usize {
        Self::n_bins_for(self.feature, self.ql)
    }

    fn n_bins_for(feature: Feature, ql: u8) -> usize {
        (feature.range() as usize >> ql).max(1)
    }

    /// Marker size in bytes at a given (feature, QL).
    pub(crate) fn marker_bytes_for(feature: Feature, ql: u8) -> usize {
        Self::n_bins_for(feature, ql) * 2
    }

    /// Fold one packet into its flow's marker. Returns false if the flow
    /// table is full and the flow is untracked.
    pub fn on_packet(&mut self, p: &Packet) -> bool {
        let key = p.key.canonical().0;
        let n_bins = self.n_bins();
        if !self.flows.contains_key(&key) && self.flows.len() >= self.max_flows {
            self.overflow += 1;
            return false;
        }
        let marker = self.flows.entry(key).or_insert_with(|| FlowMarker {
            bins: vec![0; n_bins],
            packets: 0,
            last_ts: None,
        });
        let value = match self.feature {
            Feature::Pld => Some(u32::from(p.payload_len)),
            Feature::IpdMicros(max) => {
                let v = marker
                    .last_ts
                    .map(|last| ((p.ts - last).as_micros() as u32).min(max - 1));
                marker.last_ts = Some(p.ts);
                v
            }
        };
        if let Some(v) = value {
            let bin = ((v >> self.ql) as usize).min(n_bins - 1);
            marker.bins[bin] = marker.bins[bin].saturating_add(1);
            marker.packets += 1;
        }
        true
    }

    /// Control-plane readout: drain all markers (the timer-driven batch
    /// read of the paper).
    pub fn readout(&mut self) -> Vec<(FlowKey, FlowMarker)> {
        self.flows.drain().collect()
    }

    /// SRAM occupied: markers plus the flow lookup table.
    pub fn sram_bytes(&self) -> usize {
        self.flows.len() * (Self::marker_bytes_for(self.feature, self.ql) + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlowLens {
        /// FlowLens sized to an SRAM budget in bytes.
        fn with_memory(feature: Feature, ql: u8, sram_bytes: usize) -> FlowLens {
            let per_flow = Self::marker_bytes_for(feature, ql) + 16; // + flowid entry
            FlowLens::new(feature, ql, (sram_bytes / per_flow).max(1))
        }

        /// Marker of a flow.
        fn marker(&self, key: &FlowKey) -> Option<&FlowMarker> {
            self.flows.get(&key.canonical().0)
        }
    }
    use smartwatch_net::{Dur, PacketBuilder};
    use std::net::Ipv4Addr;

    fn pld_pkt(flow: u32, len: u16, ts_us: u64) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + flow),
            9,
            Ipv4Addr::from(0xAC100001u32),
            443,
        );
        PacketBuilder::new(key, Ts::from_micros(ts_us))
            .payload(len)
            .build()
    }

    #[test]
    fn paper_marker_sizes() {
        assert_eq!(FlowLens::marker_bytes_for(Feature::Pld, 0), 3000);
        assert_eq!(FlowLens::marker_bytes_for(Feature::Pld, 3), 374); // ⌊1500/8⌋×2
    }

    #[test]
    fn pld_bins_accumulate() {
        let mut fl = FlowLens::new(Feature::Pld, 0, 100);
        fl.on_packet(&pld_pkt(1, 100, 0));
        fl.on_packet(&pld_pkt(1, 100, 10));
        fl.on_packet(&pld_pkt(1, 700, 20));
        let m = fl.marker(&pld_pkt(1, 0, 0).key).unwrap();
        assert_eq!(m.bins[100], 2);
        assert_eq!(m.bins[700], 1);
        assert_eq!(m.packets, 3);
    }

    #[test]
    fn quantization_coarsens_bins() {
        let mut fl = FlowLens::new(Feature::Pld, 3, 100);
        fl.on_packet(&pld_pkt(1, 100, 0));
        fl.on_packet(&pld_pkt(1, 103, 10)); // same 8-byte bin
        let m = fl.marker(&pld_pkt(1, 0, 0).key).unwrap();
        assert_eq!(m.bins[100 >> 3], 2);
    }

    #[test]
    fn ipd_feature_measures_gaps() {
        let mut fl = FlowLens::new(Feature::IpdMicros(128), 0, 100);
        fl.on_packet(&pld_pkt(1, 64, 1_000));
        fl.on_packet(&pld_pkt(1, 64, 1_030)); // 30 µs gap
        fl.on_packet(&pld_pkt(1, 64, 1_110)); // 80 µs gap
        let m = fl.marker(&pld_pkt(1, 0, 0).key).unwrap();
        assert_eq!(m.bins[30], 1);
        assert_eq!(m.bins[80], 1);
        // First packet has no IPD.
        assert_eq!(m.packets, 2);
        let _ = Dur::ZERO;
    }

    #[test]
    fn table_capacity_enforced() {
        let mut fl = FlowLens::new(Feature::Pld, 0, 2);
        assert!(fl.on_packet(&pld_pkt(1, 64, 0)));
        assert!(fl.on_packet(&pld_pkt(2, 64, 1)));
        assert!(!fl.on_packet(&pld_pkt(3, 64, 2)));
        assert_eq!(fl.overflow, 1);
        // Existing flows still update.
        assert!(fl.on_packet(&pld_pkt(1, 64, 3)));
    }

    #[test]
    fn memory_sizing_and_accounting() {
        let fl = FlowLens::with_memory(Feature::Pld, 0, 3_016_000);
        assert_eq!(fl.max_flows, 1_000);
        let mut fl = FlowLens::new(Feature::Pld, 3, 10);
        fl.on_packet(&pld_pkt(1, 64, 0));
        assert_eq!(fl.sram_bytes(), 374 + 16);
    }

    #[test]
    fn readout_drains() {
        let mut fl = FlowLens::new(Feature::Pld, 0, 10);
        fl.on_packet(&pld_pkt(1, 64, 0));
        fl.on_packet(&pld_pkt(2, 64, 1));
        let batch = fl.readout();
        assert_eq!(batch.len(), 2);
        assert!(fl.flows.is_empty());
    }
}
