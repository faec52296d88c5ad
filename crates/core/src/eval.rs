//! Detection-rate evaluation (paper §5.4, Table 4).
//!
//! Compares a [`RunReport`]'s alerts (or Sonata's on-switch detections)
//! against the ground-truth labels carried by generated traces. An attack
//! *instance* counts as detected when any alert's subject matches the
//! instance's attacker source, victim, flow, or artefact digest; Sonata
//! detections match when a terminal /32 prefix equals an endpoint of the
//! instance's traffic.

use crate::platform::RunReport;
use smartwatch_detect::Subject;
use smartwatch_net::{AttackKind, FlowKey, Label, Packet};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Ground truth for one attack instance.
#[derive(Clone, Debug, Default)]
pub(crate) struct InstanceTruth {
    /// Canonical flows of the instance.
    pub flows: HashSet<FlowKey>,
    /// Source addresses of labelled packets.
    pub sources: HashSet<Ipv4Addr>,
    /// Destination addresses of labelled packets.
    pub destinations: HashSet<Ipv4Addr>,
    /// Payload digests of labelled packets.
    pub digests: HashSet<u64>,
}

/// Ground truth per (attack kind, instance).
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    instances: HashMap<(AttackKind, u32), InstanceTruth>,
}

impl GroundTruth {
    /// Extract ground truth from a labelled packet stream.
    pub fn from_packets(packets: &[Packet]) -> GroundTruth {
        let mut gt = GroundTruth::default();
        for p in packets {
            if let Label::Attack { kind, instance } = p.label {
                let t = gt.instances.entry((kind, instance)).or_default();
                t.flows.insert(p.key.canonical().0);
                t.sources.insert(p.key.src_ip);
                t.destinations.insert(p.key.dst_ip);
                if p.payload_digest != 0 {
                    t.digests.insert(p.payload_digest);
                }
            }
        }
        gt
    }

    /// Instances of one kind.
    pub(crate) fn instances_of(&self, kind: AttackKind) -> Vec<(u32, &InstanceTruth)> {
        let mut v: Vec<(u32, &InstanceTruth)> = self
            .instances
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|((_, i), t)| (*i, t))
            .collect();
        v.sort_by_key(|(i, _)| *i);
        v
    }

    /// Attack kinds present.
    pub fn kinds(&self) -> Vec<AttackKind> {
        let mut v: Vec<AttackKind> = self.instances.keys().map(|(k, _)| *k).collect();
        v.sort_by_key(|k| k.name());
        v.dedup();
        v
    }
}

/// Does an alert subject implicate an instance?
fn subject_matches(subject: &Subject, t: &InstanceTruth) -> bool {
    match subject {
        Subject::Source(ip) => t.sources.contains(ip),
        Subject::Destination(ip) => t.destinations.contains(ip) || t.sources.contains(ip),
        Subject::Flow(f) => t.flows.contains(f),
        Subject::Digest(d) => t.digests.contains(d),
        Subject::Burst(_) => false,
    }
}

/// Detection rate of `kind` in a report: detected instances / instances.
/// Returns `None` when the trace contains no such instances.
pub fn detection_rate(report: &RunReport, truth: &GroundTruth, kind: AttackKind) -> Option<f64> {
    let instances = truth.instances_of(kind);
    if instances.is_empty() {
        return None;
    }
    let relevant: Vec<&Subject> = report
        .alerts
        .iter()
        .filter(|a| a.kind == kind)
        .map(|a| &a.subject)
        .collect();
    let mut detected = 0usize;
    for (_, t) in &instances {
        let by_alert = relevant.iter().any(|s| subject_matches(s, t));
        let by_sonata = report.sonata_detections.iter().any(|d| {
            let ip = Ipv4Addr::from(d.prefix);
            t.sources.contains(&ip) || t.destinations.contains(&ip)
        });
        if by_alert || by_sonata {
            detected += 1;
        }
    }
    Some(detected as f64 / instances.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployMode;
    use crate::platform::{standard_queries, PlatformConfig, SmartWatch};
    use smartwatch_net::Dur;
    use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
    use smartwatch_trace::background::{preset_trace, Preset};
    use smartwatch_trace::Trace;

    fn labelled_trace() -> Trace {
        let bg = preset_trace(Preset::Caida2018, 300, Dur::from_secs(4), 7);
        let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(40), 80, 4));
        Trace::merge([bg, scan])
    }

    #[test]
    fn ground_truth_extraction() {
        let t = labelled_trace();
        let gt = GroundTruth::from_packets(t.packets());
        let scans = gt.instances_of(AttackKind::StealthyPortScan);
        assert_eq!(scans.len(), 1);
        assert!(!scans[0].1.sources.is_empty());
        assert!(gt.kinds().contains(&AttackKind::StealthyPortScan));
    }

    #[test]
    fn host_mode_has_full_scan_detection() {
        let t = labelled_trace();
        let gt = GroundTruth::from_packets(t.packets());
        let rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::HostOnly), vec![]).run(t.packets());
        let rate = detection_rate(&rep, &gt, AttackKind::StealthyPortScan).unwrap();
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn smartwatch_beats_sonata_on_stateful_detection() {
        let t = labelled_trace();
        let gt = GroundTruth::from_packets(t.packets());
        let host =
            SmartWatch::new(PlatformConfig::new(DeployMode::HostOnly), vec![]).run(t.packets());
        let sw = SmartWatch::new(
            PlatformConfig::new(DeployMode::SmartWatch),
            standard_queries(),
        )
        .run(t.packets());
        let sonata = SmartWatch::new(
            PlatformConfig::new(DeployMode::SwitchHost),
            standard_queries(),
        )
        .run(t.packets());
        // Relative to the host run, as Table 4 reports.
        let rate = |rep| detection_rate(rep, &gt, AttackKind::StealthyPortScan);
        let h = rate(&host).unwrap();
        let r_sw = rate(&sw).unwrap() / h;
        let r_sonata = rate(&sonata).map_or(0.0, |r| r / h);
        assert!(
            r_sw >= r_sonata,
            "SmartWatch ({r_sw}) should be at least Sonata ({r_sonata})"
        );
        assert!(r_sw > 0.5, "SmartWatch relative rate {r_sw}");
    }

    #[test]
    fn missing_kind_yields_none() {
        let t = labelled_trace();
        let gt = GroundTruth::from_packets(t.packets());
        let rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::HostOnly), vec![]).run(t.packets());
        assert!(detection_rate(&rep, &gt, AttackKind::Slowloris).is_none());
    }
}
