//! Covert timing-channel detection (paper §5.2.1).
//!
//! The sNIC keeps fine-grained IPD bins (1 µs) for flows the switch
//! pre-checked as suspicious; when the collection timer fires, a CME
//! scores each flow's IPD histogram. The paper compares it against a
//! known-good reference distribution (a Kolmogorov–Smirnov test); here
//! the score is the flow's own [`bimodality`], and flows whose score
//! exceeds the decision threshold are classified as modulated channels.

use crate::{Alert, Subject};

/// Bimodality statistic of an IPD histogram: the fraction of probability
/// mass *outside* ± `window` bins of the median bin. Benign flows are
/// unimodal around their own mean (score ≈ jitter tail, near 0); a
/// modulated flow alternating between two delays parks ~half its mass
/// away from the median (score ≈ 0.5). Being self-referential, the
/// statistic is robust to benign heterogeneity, unlike comparing every
/// flow against one global reference.
pub fn bimodality(hist: &[u64], window: usize) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Median bin.
    let mut acc = 0u64;
    let mut median = 0usize;
    for (i, v) in hist.iter().enumerate() {
        acc += v;
        if acc * 2 >= total {
            median = i;
            break;
        }
    }
    let lo = median.saturating_sub(window);
    let hi = (median + window).min(hist.len() - 1);
    let inside: u64 = hist[lo..=hi].iter().sum();
    1.0 - inside as f64 / total as f64
}
use smartwatch_net::{AttackKind, Dur, FlowKey, Packet, Ts};
use std::collections::HashMap;

/// Fine-grained per-flow IPD binning (the sNIC side).
#[derive(Clone, Debug)]
pub struct IpdCollector {
    /// Bin width.
    pub bin_width: Dur,
    /// Number of bins (values beyond clip into the last bin).
    pub n_bins: usize,
    flows: HashMap<FlowKey, (Ts, Vec<u64>)>,
}

impl IpdCollector {
    /// Collector with 1 µs bins over 0–`n_bins` µs (paper: bin size 1 µs
    /// to catch 1–100 µs modulation).
    pub fn new(bin_width: Dur, n_bins: usize) -> IpdCollector {
        assert!(n_bins > 1 && bin_width > Dur::ZERO);
        IpdCollector {
            bin_width,
            n_bins,
            flows: HashMap::new(),
        }
    }

    /// Paper default: 1 µs bins, 128 bins.
    pub fn paper_default() -> IpdCollector {
        IpdCollector::new(Dur::from_micros(1), 128)
    }

    /// Fold a packet into its flow's histogram.
    pub fn on_packet(&mut self, p: &Packet) {
        let key = p.key.canonical().0;
        let n_bins = self.n_bins;
        let entry = self
            .flows
            .entry(key)
            .or_insert_with(|| (p.ts, vec![0; n_bins]));
        if entry.0 != p.ts {
            let gap = p.ts - entry.0;
            let bin =
                ((gap.as_nanos() / self.bin_width.as_nanos().max(1)) as usize).min(n_bins - 1);
            entry.1[bin] += 1;
        }
        entry.0 = p.ts;
    }

    /// Drain all (flow, histogram) pairs — the CME timer readout.
    pub fn readout(&mut self) -> Vec<(FlowKey, Vec<u64>)> {
        self.flows.drain().map(|(k, (_, h))| (k, h)).collect()
    }
}

/// The CME-side classifier: a bimodality test against the flow's own
/// median.
#[derive(Clone, Debug)]
pub struct CovertChannelDetector {
    /// Bimodality score above which a flow is declared modulated.
    pub threshold: f64,
    /// Minimum IPD samples before a verdict is meaningful.
    pub min_samples: u64,
    /// Half-width, in bins, of the unimodal window around the median
    /// (covers benign jitter; default ±8 bins = ±8 µs at 1 µs bins).
    pub window: usize,
}

impl CovertChannelDetector {
    /// Detector with decision threshold `threshold`. It needs no benign
    /// training set: each flow is its own reference.
    pub fn new(threshold: f64) -> CovertChannelDetector {
        CovertChannelDetector {
            threshold,
            min_samples: 50,
            window: 8,
        }
    }

    /// Classify one flow via the bimodality statistic; `Some(alert)` when
    /// modulated.
    pub fn classify(&self, key: FlowKey, hist: &[u64], now: Ts) -> Option<Alert> {
        let samples: u64 = hist.iter().sum();
        if samples < self.min_samples {
            return None;
        }
        let b = bimodality(hist, self.window);
        (b > self.threshold).then(|| {
            Alert::new(
                AttackKind::CovertTimingChannel,
                Subject::Flow(key),
                now,
                format!("bimodality {b:.3} over {samples} IPDs"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::PacketBuilder;
    use std::net::Ipv4Addr;

    impl IpdCollector {
        /// Histogram of one flow.
        fn histogram(&self, key: &FlowKey) -> Option<&Vec<u64>> {
            self.flows.get(&key.canonical().0).map(|(_, h)| h)
        }
    }

    fn flow(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            9,
            Ipv4Addr::from(0xAC100001u32),
            443,
        )
    }

    fn feed_gaps(c: &mut IpdCollector, f: FlowKey, gaps_us: &[u64]) {
        let mut t = Ts::from_micros(1);
        c.on_packet(&PacketBuilder::new(f, t).build());
        for g in gaps_us {
            t += Dur::from_micros(*g);
            c.on_packet(&PacketBuilder::new(f, t).build());
        }
    }

    #[test]
    fn collector_bins_gaps() {
        let mut c = IpdCollector::paper_default();
        feed_gaps(&mut c, flow(1), &[30, 30, 80]);
        let h = c.histogram(&flow(1)).unwrap();
        assert_eq!(h[30], 2);
        assert_eq!(h[80], 1);
        assert_eq!(c.flows.len(), 1);
    }

    #[test]
    fn modulated_flow_scores_high_benign_low() {
        let det = CovertChannelDetector::new(0.3);
        // Modulated: bimodal 30/80.
        let mut c = IpdCollector::paper_default();
        let gaps: Vec<u64> = (0..200).map(|i| if i % 2 == 0 { 30 } else { 80 }).collect();
        feed_gaps(&mut c, flow(2), &gaps);
        let mod_hist = c.histogram(&flow(2)).unwrap();
        let score = bimodality(mod_hist, det.window);
        assert!(score > 0.3, "score {score}");
        assert!(det.classify(flow(2), mod_hist, Ts::ZERO).is_some());
        // Benign-like flow: low score.
        let mut c2 = IpdCollector::paper_default();
        let gaps: Vec<u64> = (0..200).map(|i| 44 + (i % 4)).collect();
        feed_gaps(&mut c2, flow(3), &gaps);
        let ben = c2.histogram(&flow(3)).unwrap();
        assert!(det.classify(flow(3), ben, Ts::ZERO).is_none());
    }

    #[test]
    fn small_samples_withhold_verdict() {
        let det = CovertChannelDetector::new(0.3);
        let mut c = IpdCollector::paper_default();
        feed_gaps(&mut c, flow(4), &[30, 80, 30]);
        let h = c.histogram(&flow(4)).unwrap();
        assert!(det.classify(flow(4), h, Ts::ZERO).is_none());
    }

    #[test]
    fn subtle_modulation_depth_lowers_score() {
        // Fig. 9a's underlying gradient: 2 µs modulation around the benign
        // mode is harder than 60 µs.
        let det = CovertChannelDetector::new(0.3);
        let score_for = |lo: u64, hi: u64| {
            let mut c = IpdCollector::paper_default();
            let gaps: Vec<u64> = (0..400).map(|i| if i % 2 == 0 { lo } else { hi }).collect();
            feed_gaps(&mut c, flow(9), &gaps);
            bimodality(c.histogram(&flow(9)).unwrap(), det.window)
        };
        assert!(score_for(30, 90) > score_for(44, 46));
    }

    #[test]
    fn readout_drains() {
        let mut c = IpdCollector::paper_default();
        feed_gaps(&mut c, flow(5), &[10, 10]);
        feed_gaps(&mut c, flow(6), &[20, 20]);
        let batch = c.readout();
        assert_eq!(batch.len(), 2);
        assert!(c.flows.is_empty());
    }
}
