//! Website fingerprinting (paper §5.2.2).
//!
//! A multinomial Naive-Bayes classifier over packet-length distributions
//! (PLD) of proxied page loads, using inbound and outbound histograms as
//! features (the paper: "leverages the PLD of the incoming and outgoing
//! data of a connection"). The sNIC collects the per-load PLDs at full
//! resolution for the flows the switch's range pre-check steers over;
//! the CME runs the classifier.

use crate::stats::NaiveBayes;
use smartwatch_net::{FlowKey, Packet};
use std::collections::HashMap;

/// Bins per direction (50-byte bins over 0–1500).
pub(crate) const WFP_BINS: usize = 30;

/// Per-load PLD collector keyed by connection.
#[derive(Clone, Debug, Default)]
pub struct PldCollector {
    flows: HashMap<FlowKey, Vec<u64>>,
    proxy_port: u16,
}

impl PldCollector {
    /// Collector for loads tunnelled via `proxy_port` (paper: OpenSSH, 22).
    pub fn new(proxy_port: u16) -> PldCollector {
        PldCollector {
            flows: HashMap::new(),
            proxy_port,
        }
    }

    /// Fold one packet into its connection's feature vector: the first
    /// `WFP_BINS` slots are the outbound histogram, the next the inbound.
    pub fn on_packet(&mut self, p: &Packet) {
        if p.payload_len == 0 {
            return;
        }
        let inbound = p.key.src_port == self.proxy_port;
        let key = p.key.canonical().0;
        let hist = self
            .flows
            .entry(key)
            .or_insert_with(|| vec![0; WFP_BINS * 2]);
        let bin = usize::from(p.payload_len / 50).min(WFP_BINS - 1);
        hist[if inbound { WFP_BINS + bin } else { bin }] += 1;
    }

    /// Drain all (connection, features).
    pub fn readout(&mut self) -> Vec<(FlowKey, Vec<u64>)> {
        self.flows.drain().collect()
    }
}

/// The trained fingerprinting classifier.
#[derive(Clone, Debug)]
pub struct WfpClassifier {
    nb: NaiveBayes,
}

impl WfpClassifier {
    /// Train from `(site_id, feature_vector)` examples over a closed
    /// world of `n_sites` sites.
    pub fn train(n_sites: usize, examples: &[(usize, Vec<u64>)]) -> WfpClassifier {
        WfpClassifier {
            nb: NaiveBayes::train(n_sites, WFP_BINS * 2, examples),
        }
    }

    /// Predicted site for a load's features.
    pub fn classify(&self, features: &[u64]) -> usize {
        self.nb.classify(features)
    }

    /// Accuracy over labelled test loads.
    pub fn accuracy(&self, tests: &[(usize, Vec<u64>)]) -> f64 {
        if tests.is_empty() {
            return 0.0;
        }
        let correct = tests
            .iter()
            .filter(|(site, f)| self.classify(f) == *site)
            .count();
        correct as f64 / tests.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{AttackKind, Label};
    use smartwatch_trace::attacks::wfp::{page_loads, WfpConfig};

    /// Build labelled feature vectors from a generated workload: one
    /// feature vector per (site, connection).
    fn labelled_features(cfg: &WfpConfig) -> Vec<(usize, Vec<u64>)> {
        let trace = page_loads(cfg);
        let mut collector = PldCollector::new(cfg.proxy_port);
        let mut site_of: HashMap<FlowKey, usize> = HashMap::new();
        for p in trace.iter() {
            if let Label::Attack {
                kind: AttackKind::WebsiteFingerprint,
                instance,
            } = p.label
            {
                site_of.insert(p.key.canonical().0, instance as usize);
                collector.on_packet(p);
            }
        }
        collector
            .readout()
            .into_iter()
            .filter_map(|(k, f)| site_of.get(&k).map(|s| (*s, f)))
            .collect()
    }

    #[test]
    fn classifier_beats_chance_decisively() {
        let sites = 8;
        let train = labelled_features(&WfpConfig::new(sites, 12, 101));
        let test = labelled_features(&WfpConfig::new(sites, 4, 202));
        let clf = WfpClassifier::train(sites as usize, &train);
        let acc = clf.accuracy(&test);
        assert!(
            acc > 0.7,
            "closed-world accuracy should be high with full-resolution PLDs: {acc}"
        );
    }

    #[test]
    fn collector_separates_directions() {
        let mut c = PldCollector::new(22);
        let key = smartwatch_net::FlowKey::tcp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            40000,
            std::net::Ipv4Addr::new(203, 0, 113, 7),
            22,
        );
        let out = smartwatch_net::PacketBuilder::new(key, smartwatch_net::Ts::ZERO)
            .payload(120)
            .build();
        let inb = smartwatch_net::PacketBuilder::new(key.reversed(), smartwatch_net::Ts::ZERO)
            .payload(1200)
            .build();
        c.on_packet(&out);
        c.on_packet(&inb);
        let f = &c.flows[&key.canonical().0];
        assert_eq!(f[120 / 50], 1, "outbound bin");
        assert_eq!(f[WFP_BINS + 1200 / 50], 1, "inbound bin");
    }

    #[test]
    fn empty_payloads_ignored() {
        let mut c = PldCollector::new(22);
        let key = smartwatch_net::FlowKey::tcp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            40000,
            std::net::Ipv4Addr::new(203, 0, 113, 7),
            22,
        );
        c.on_packet(&smartwatch_net::PacketBuilder::new(key, smartwatch_net::Ts::ZERO).build());
        assert!(c.flows.is_empty());
    }
}
