//! Volumetric analysis harness (paper §5.3.1, Fig. 10).
//!
//! SmartWatch's pitch for volumetric tasks is *lossless flow logging*: the
//! FlowCache + host aggregation reconstructs exact per-flow counts, so
//! heavy-hitter / heavy-change / flow-size-distribution queries have zero
//! error by construction, while sketches degrade as intervals grow. This
//! module provides the shared evaluation machinery: ground-truth
//! computation, estimator adapters, and the mean-relative-error metric
//! the paper plots.

use smartwatch_net::{FlowKey, Packet};
use std::collections::HashMap;

/// Exact per-flow packet counts of an interval (the ground truth).
pub fn ground_truth(packets: &[Packet]) -> HashMap<FlowKey, u64> {
    let mut m = HashMap::new();
    for p in packets {
        *m.entry(p.key.canonical().0).or_insert(0) += 1;
    }
    m
}

/// Mean relative error of `estimate` against `truth` over the flows in
/// `flows` (the paper computes MRE over the true heavy hitters).
pub fn mean_relative_error(
    truth: &HashMap<FlowKey, u64>,
    flows: &[FlowKey],
    estimate: impl Fn(&FlowKey) -> u64,
) -> f64 {
    if flows.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for f in flows {
        let t = truth.get(f).copied().unwrap_or(0).max(1) as f64;
        let e = estimate(f) as f64;
        total += (e - t).abs() / t;
    }
    total / flows.len() as f64
}

/// True heavy hitters: flows with at least `threshold` packets.
pub fn true_heavy_hitters(truth: &HashMap<FlowKey, u64>, threshold: u64) -> Vec<FlowKey> {
    let mut v: Vec<FlowKey> = truth
        .iter()
        .filter(|(_, c)| **c >= threshold)
        .map(|(k, _)| *k)
        .collect();
    v.sort();
    v
}

/// True heavy changers between two intervals.
pub fn true_heavy_changes(
    a: &HashMap<FlowKey, u64>,
    b: &HashMap<FlowKey, u64>,
    threshold: u64,
) -> Vec<FlowKey> {
    let mut keys: Vec<FlowKey> = a.keys().chain(b.keys()).copied().collect();
    keys.sort();
    keys.dedup();
    keys.retain(|k| {
        a.get(k)
            .copied()
            .unwrap_or(0)
            .abs_diff(b.get(k).copied().unwrap_or(0))
            >= threshold
    });
    keys
}

/// Flow-size-distribution mean relative error across decade buckets:
/// compare per-bucket flow counts.
pub fn fsd_mre(
    truth: &HashMap<FlowKey, u64>,
    estimate: impl Fn(&FlowKey) -> u64,
    decades: usize,
) -> Vec<f64> {
    let mut true_hist = vec![0u64; decades];
    let mut est_hist = vec![0u64; decades];
    for (k, &c) in truth {
        let td = decade(c, decades);
        true_hist[td] += 1;
        let e = estimate(k);
        if e > 0 {
            est_hist[decade(e, decades)] += 1;
        }
    }
    true_hist
        .iter()
        .zip(&est_hist)
        .map(|(&t, &e)| {
            if t == 0 {
                if e == 0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (e as f64 - t as f64).abs() / t as f64
            }
        })
        .collect()
}

fn decade(count: u64, decades: usize) -> usize {
    ((count.max(1) as f64).log10().floor() as usize).min(decades - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn packets(flows: &[(u32, u64)]) -> Vec<Packet> {
        let mut v = Vec::new();
        let mut t = 0u64;
        for (id, count) in flows {
            let key = FlowKey::tcp(
                Ipv4Addr::from(0x0A000000 + id),
                1,
                Ipv4Addr::from(0xAC100001u32),
                80,
            );
            for _ in 0..*count {
                t += 1;
                v.push(PacketBuilder::new(key, Ts::from_micros(t)).build());
            }
        }
        v
    }

    #[test]
    fn ground_truth_counts() {
        let pkts = packets(&[(1, 5), (2, 3)]);
        let t = ground_truth(&pkts);
        assert_eq!(t.len(), 2);
        assert_eq!(t.values().sum::<u64>(), 8);
    }

    #[test]
    fn exact_estimator_has_zero_mre() {
        let pkts = packets(&[(1, 100), (2, 50), (3, 5)]);
        let truth = ground_truth(&pkts);
        let hh = true_heavy_hitters(&truth, 50);
        assert_eq!(hh.len(), 2);
        let mre = mean_relative_error(&truth, &hh, |k| truth[k]);
        assert_eq!(mre, 0.0);
    }

    #[test]
    fn heavy_changes_ground_truth() {
        let a = ground_truth(&packets(&[(1, 100), (2, 10)]));
        let b = ground_truth(&packets(&[(1, 100), (2, 500), (3, 60)]));
        let hc = true_heavy_changes(&a, &b, 50);
        assert_eq!(hc.len(), 2); // flow 2 (+490) and flow 3 (+60)
    }

    #[test]
    fn fsd_zero_error_for_exact() {
        let pkts = packets(&[(1, 5), (2, 50), (3, 500), (4, 7)]);
        let truth = ground_truth(&pkts);
        let errs = fsd_mre(&truth, |k| truth[k], 6);
        assert!(errs.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn fsd_detects_small_flow_distortion() {
        let pkts = packets(&(0..100u32).map(|i| (i, 2u64)).collect::<Vec<_>>());
        let truth = ground_truth(&pkts);
        // An estimator that inflates everything to 100 puts all flows in
        // the wrong decade.
        let errs = fsd_mre(&truth, |_| 100, 6);
        assert!(errs[0] > 0.9, "decade-0 error {}", errs[0]);
    }
}
