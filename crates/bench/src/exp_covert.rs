//! Covert-channel experiments: Fig. 9a (timing-channel ROC vs switch
//! memory) and Fig. 9b (website fingerprinting accuracy vs switch SRAM).

use crate::output::{f, pct, Table};
use crate::ExpCtx;
use smartwatch_detect::covert::{bimodality, CovertChannelDetector, IpdCollector};
use smartwatch_detect::wfp::{PldCollector, WfpClassifier};
use smartwatch_net::{AttackKind, Dur, FlowKey, Label, Ts};
use smartwatch_p4sim::{Feature, FlowLens, NetWarden, SramBudget};
use smartwatch_trace::attacks::covert::{covert_timing, CovertConfig};
use smartwatch_trace::attacks::wfp::{page_loads, WfpConfig};
use std::collections::{HashMap, HashSet};

/// Fig. 9a: covert timing-channel detection across platform variants,
/// memory configurations and modulation depths. The paper's ROC family
/// collapses here to TPR/FPR at a fixed bimodality threshold per depth, plus the
/// switch-SRAM cost of each variant.
pub(crate) fn fig9a(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "fig9a",
        "Covert timing-channel detection vs switch memory and modulation depth",
        &[
            "platform",
            "SRAM (KB)",
            "depth 10µs TPR/FPR",
            "16µs TPR/FPR",
            "48µs TPR/FPR",
        ],
    );
    // platform → (sram, per-depth (tpr, fpr))
    type TprFpr = (f64, f64);
    let mut results: Vec<(String, usize, Vec<TprFpr>)> = Vec::new();
    let depths = [10u64, 16, 48];
    for &depth_us in &depths {
        let cfg = CovertConfig::with_depth(Dur::from_micros(depth_us), (800 * scale) as u32, 0x9A);
        let trace = covert_timing(&cfg);
        let modulated: HashSet<FlowKey> = trace
            .labelled_flows(AttackKind::CovertTimingChannel)
            .into_iter()
            .collect();
        let n_benign = cfg.flows as usize - modulated.len();

        let detector = CovertChannelDetector::new(0.25);

        let mut score = |name: &str, sram: usize, tp: usize, fp: usize| {
            let tpr = tp as f64 / modulated.len().max(1) as f64;
            let fpr = fp as f64 / n_benign.max(1) as f64;
            match results.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push((tpr, fpr)),
                None => results.push((name.to_string(), sram, vec![(tpr, fpr)])),
            }
        };

        // Standalone FlowLens at high (QL0) / low (QL3) switch memory.
        for (name, ql) in [("FlowLens high-mem", 0u8), ("FlowLens low-mem", 3u8)] {
            let mut fl = FlowLens::new(Feature::IpdMicros(128), ql, 1 << 20);
            for p in trace.iter() {
                fl.on_packet(p);
            }
            let sram = fl.sram_bytes();
            // Window: ±8 µs of benign jitter expressed in this QL's bins.
            let window = (8usize >> ql).max(1);
            let (mut tp, mut fp) = (0usize, 0usize);
            for (flow, marker) in fl.readout() {
                if marker.packets < 50 {
                    continue;
                }
                let h: Vec<u64> = marker.bins.iter().map(|&v| u64::from(v)).collect();
                if bimodality(&h, window) > 0.25 {
                    if modulated.contains(&flow) {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
            score(name, sram, tp, fp);
        }

        // SmartWatch_NetWarden: small switch sketches run a range
        // pre-check on the "ones" delay band; flagged flows get sNIC
        // fine bins + the CME bimodality test. Standalone NetWarden stops at the
        // pre-check.
        for standalone in [false, true] {
            let name = if standalone {
                "NetWarden low-mem (standalone)"
            } else {
                "SmartWatch-NetWarden"
            };
            let mut nw = NetWarden::with_memory(32 << 10, 128, 1);
            nw.set_precheck_band(
                (cfg.one_gap.as_micros() as u32).saturating_sub(3),
                cfg.one_gap.as_micros() as u32 + 20,
                0.30,
            );
            let mut snic_bins = IpdCollector::paper_default();
            let mut steered: HashSet<FlowKey> = HashSet::new();
            for p in trace.iter() {
                if nw.on_packet(p) {
                    steered.insert(p.key.canonical().0);
                }
                if !standalone && steered.contains(&p.key.canonical().0) {
                    snic_bins.on_packet(p);
                }
            }
            let (mut tp, mut fp) = (0usize, 0usize);
            if standalone {
                for flow in &steered {
                    if modulated.contains(flow) {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            } else {
                for (flow, hist) in snic_bins.readout() {
                    if detector.classify(flow, &hist, Ts::ZERO).is_some() {
                        if modulated.contains(&flow) {
                            tp += 1;
                        } else {
                            fp += 1;
                        }
                    }
                }
            }
            score(name, nw.sram_bytes(), tp, fp);
        }
    }

    let fmt_pair = |(tpr, fpr): (f64, f64)| format!("{}/{}", pct(tpr), pct(fpr));
    let mut sw_sram = 0usize;
    let mut fl_sram = 0usize;
    let mut sw_deep = 0.0;
    let mut fl_deep = 0.0;
    for (name, sram, per_depth) in &results {
        if name == "SmartWatch-NetWarden" {
            sw_sram = *sram;
            sw_deep = per_depth.last().map(|p| p.0).unwrap_or(0.0);
        }
        if name == "FlowLens high-mem" {
            fl_sram = *sram;
            fl_deep = per_depth.last().map(|p| p.0).unwrap_or(0.0);
        }
        let mut row = vec![name.clone(), f(*sram as f64 / 1024.0, 1)];
        row.extend(per_depth.iter().map(|p| fmt_pair(*p)));
        t.row(row);
    }
    t.note(format!(
        "SmartWatch matches the high-memory baseline at depth 48µs ({} vs {}) with \
         {:.1}× less switch SRAM (paper: ~8×)",
        pct(sw_deep),
        pct(fl_deep),
        fl_sram as f64 / sw_sram.max(1) as f64
    ));
    t.note(
        "modulation depth separates the variants: at 16µs the sNIC's 1µs bins still \
         resolve the channel while the quantized low-memory switch marker cannot; \
         ~10µs hides inside benign jitter for every honest detector",
    );
    t
}

/// Fig. 9b: website fingerprinting accuracy vs P4Switch SRAM occupancy.
pub(crate) fn fig9b(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    let sites = 12u32;
    let train_cfg = WfpConfig::new(sites, (10 * scale) as u32, 0x9B1);
    let test_cfg = WfpConfig::new(sites, (6 * scale) as u32, 0x9B2);
    let budget = SramBudget::default().total() as f64;

    // Feature extraction at a given FlowLens quantization+capacity; QL 255
    // means "SmartWatch": full-resolution PLDs collected on the sNIC, the
    // switch only holding the (tiny) steering state.
    // Returns (labelled features, switch SRAM, total labelled loads): loads
    // the structure could not track still count against accuracy.
    let features =
        |cfg: &WfpConfig, ql: u8, max_flows: usize| -> (Vec<(usize, Vec<u64>)>, usize, usize) {
            let trace = page_loads(cfg);
            let mut site_of: HashMap<FlowKey, usize> = HashMap::new();
            for p in trace.iter() {
                if let Label::Attack {
                    kind: AttackKind::WebsiteFingerprint,
                    instance,
                } = p.label
                {
                    site_of.insert(p.key.canonical().0, instance as usize);
                }
            }
            let total_loads = site_of.len();
            if ql == 255 {
                let mut c = PldCollector::new(cfg.proxy_port);
                for p in trace.iter() {
                    c.on_packet(p);
                }
                let out: Vec<(usize, Vec<u64>)> = c
                    .readout()
                    .into_iter()
                    .filter_map(|(k, f)| site_of.get(&k).map(|s| (*s, f)))
                    .collect();
                // Switch state: one steer rule + per-flow pre-check registers.
                (out, 16 + site_of.len() * 16, total_loads)
            } else {
                let mut fl = FlowLens::new(Feature::Pld, ql, max_flows);
                for p in trace.iter() {
                    fl.on_packet(p);
                }
                let sram = fl.sram_bytes();
                let out: Vec<(usize, Vec<u64>)> = fl
                    .readout()
                    .into_iter()
                    .filter_map(|(k, m)| {
                        site_of.get(&k).map(|s| {
                            // Re-bin the quantized marker onto the classifier's
                            // 30×2 feature layout (out-direction unavailable on
                            // the switch: single histogram doubled).
                            let mut feat = vec![0u64; 60];
                            for (i, v) in m.bins.iter().enumerate() {
                                let len = (i << ql) as u16;
                                let bin = usize::from(len / 50).min(29);
                                feat[30 + bin] += u64::from(*v);
                            }
                            (*s, feat)
                        })
                    })
                    .collect();
                (out, sram, total_loads)
            }
        };

    let mut t = Table::new(
        "fig9b",
        "Website fingerprinting accuracy vs switch SRAM",
        &["platform", "SRAM (KB)", "SRAM (% budget)", "accuracy"],
    );
    let mut results = Vec::new();
    for (name, ql, max_flows) in [
        ("SmartWatch (sNIC full PLD)", 255u8, usize::MAX),
        ("FlowLens QL0 (high mem)", 0, 1 << 20),
        ("FlowLens QL3 (low mem)", 3, 1 << 20),
        ("FlowLens QL5 (starved)", 5, 24),
    ] {
        let (train, _, _) = features(&train_cfg, ql, max_flows);
        let (test, sram, total_loads) = features(&test_cfg, ql, max_flows);
        let clf = WfpClassifier::train(sites as usize, &train);
        // Untracked loads (capacity overflow) count as misclassified.
        let correct = test
            .iter()
            .filter(|(site, feat)| clf.classify(feat) == *site)
            .count();
        let acc = correct as f64 / total_loads.max(1) as f64;
        results.push((name, sram, acc));
        t.row(vec![
            name.into(),
            f(sram as f64 / 1024.0, 1),
            pct(sram as f64 / budget),
            pct(acc),
        ]);
    }
    t.note("paper Fig. 9b: SmartWatch reaches >90% accuracy at ~14% of the SRAM the");
    t.note("standalone switch baselines need (~30%); starved configurations collapse");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9a_smartwatch_uses_less_sram_with_comparable_tpr() {
        let t = fig9a(&ExpCtx::new(1));
        let find = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| {
                    let deep_tpr: f64 = r[4]
                        .split('/')
                        .next()
                        .unwrap()
                        .trim_end_matches('%')
                        .parse()
                        .unwrap();
                    (r[1].parse::<f64>().unwrap(), deep_tpr)
                })
                .unwrap()
        };
        let (sw_sram, sw_tpr) = find("SmartWatch-NetWarden");
        let (fl_sram, fl_tpr) = find("FlowLens high-mem");
        assert!(sw_sram * 3.0 < fl_sram, "{sw_sram} vs {fl_sram}");
        assert!(sw_tpr >= fl_tpr - 10.0, "sw {sw_tpr}% vs fl {fl_tpr}%");
        assert!(sw_tpr > 80.0, "sw tpr {sw_tpr}");
    }

    #[test]
    fn fig9b_smartwatch_accuracy_with_tiny_switch_state() {
        let t = fig9b(&ExpCtx::new(1));
        let sw_acc: f64 = t.rows[0][3].trim_end_matches('%').parse().unwrap();
        let starved_acc: f64 = t.rows[3][3].trim_end_matches('%').parse().unwrap();
        assert!(sw_acc > 70.0, "SmartWatch accuracy {sw_acc}");
        assert!(sw_acc > starved_acc, "starved config should trail");
    }
}
