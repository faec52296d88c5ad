//! Scaling experiments: Fig. 2 (switch state vs steered traffic) and
//! Fig. 3 (resources vs arrival rate).

use crate::output::{f, Table};
use crate::ExpCtx;
use smartwatch_core::deploy::{DeployMode, ScalingModel};
use smartwatch_core::platform::{PlatformConfig, SmartWatch};
use smartwatch_net::{Dur, Ts};
use smartwatch_p4sim::SwitchQuery;
use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::Trace;

/// Fig. 2: P4Switch state (whitelist bytes) vs traffic steered to the
/// sNIC, per CAIDA year, for the SSH-bruteforce (2a) and port-scan (2b)
/// queries. Sweeping the whitelist budget trades switch state for
/// steered volume; the knee appears when all elephants are whitelisted.
pub(crate) fn fig2(ctx: &ExpCtx, portscan_variant: bool) -> Table {
    let scale = ctx.scale;
    let id = if portscan_variant { "fig2b" } else { "fig2a" };
    let attack_name = if portscan_variant {
        "Port Scan"
    } else {
        "SSH Bruteforcing"
    };
    let mut t = Table::new(
        id,
        &format!("P4Switch state vs traffic steered to sNIC ({attack_name})"),
        &["year", "top-k", "state (KB)", "steered (Mb/s)"],
    );
    for preset in Preset::CAIDA_YEARS {
        let bg = preset_trace(preset, 2_500 * scale, Dur::from_secs(10), 0xF16);
        let attack = if portscan_variant {
            portscan(&ScanConfig {
                scanner: 32,
                ..ScanConfig::with_delay(Dur::from_millis(15), 240, 0xF16)
            })
        } else {
            let mut cfg = BruteforceConfig::ssh(
                smartwatch_trace::attacks::victim_ip(0),
                Ts::from_millis(200),
                0xF16,
            );
            cfg.attempt_gap = Dur::from_millis(300);
            bruteforce(&cfg)
        };
        let trace = Trace::merge([bg, attack]);
        let duration = trace.duration().as_secs_f64().max(1e-9);
        let query = if portscan_variant {
            // Victim-side steering: the scanned server /24 crosses the
            // connection-attempt threshold, so its (benign-elephant-
            // carrying) subset is diverted — the state-vs-steering
            // trade-off of Fig. 2b lives in that subset.
            SwitchQuery {
                name: "scan-victims".into(),
                filter: smartwatch_p4sim::Filter::SynOnly,
                key: smartwatch_p4sim::KeyExpr::DstPrefix(24),
                distinct: None,
                threshold: 32,
            }
        } else {
            SwitchQuery::ssh_attempts(8, 10)
        };
        for top_k in [0usize, 32, 128, 512, 2048] {
            let mut cfg = PlatformConfig::new(DeployMode::SmartWatch);
            cfg.whitelist_top_k = top_k;
            cfg.whitelist_min_packets = 20;
            cfg.blacklist_sources = false; // isolate the whitelist effect
            cfg.suite_whitelist = false; // only top-k hoverboard entries
            let rep = SmartWatch::new(cfg, vec![query.clone()]).run(trace.packets());
            let state_kb = rep.whitelist_entries as f64 * 32.0 / 1024.0;
            let steered_mbps = rep.steered_bytes as f64 * 8.0 / duration / 1e6;
            t.row(vec![
                preset.name().into(),
                top_k.to_string(),
                f(state_kb, 1),
                f(steered_mbps, 2),
            ]);
        }
    }
    t.note("paper Fig. 2: steered traffic falls as whitelist state grows, with a knee");
    t.note("beyond which more state stops helping (all elephants already whitelisted)");
    t
}

/// Fig. 3: CPU cores (3a) and sNICs (3b) required vs packet arrival rate
/// for the four deployments.
pub(crate) fn fig3(_ctx: &ExpCtx) -> Table {
    let model = ScalingModel::default();
    let mut t = Table::new(
        "fig3",
        "Resources required vs arrival rate",
        &[
            "rate (Mpps)",
            "Host cores",
            "Host sNICs",
            "No-P4 cores",
            "No-P4 sNICs",
            "SmartWatch cores",
            "SmartWatch sNICs",
            "Sw+Host cores",
            "Sw+Host sNICs",
        ],
    );
    for rate_mpps in [15.0, 30.0, 60.0, 120.0, 240.0, 580.0, 1160.0, 2320.0] {
        let rate = rate_mpps * 1e6;
        let host = model.required(DeployMode::HostOnly, rate);
        let snic = model.required(DeployMode::SnicHost, rate);
        let sw = model.required(DeployMode::SmartWatch, rate);
        let sh = model.required(DeployMode::SwitchHost, rate);
        t.row(vec![
            f(rate_mpps, 0),
            host.cores.to_string(),
            host.snics.to_string(),
            snic.cores.to_string(),
            snic.snics.to_string(),
            sw.cores.to_string(),
            sw.snics.to_string(),
            sh.cores.to_string(),
            sh.snics.to_string(),
        ]);
    }
    let sw = model.required(DeployMode::SmartWatch, 2320.0e6);
    t.note(format!(
        "paper: at 2320 Mpps SmartWatch needs 4 sNICs and 6 cores; model: {} sNICs, {} cores",
        sw.snics, sw.cores
    ));
    t.note("paper: P4Switch reduces sNIC/core needs by ≥14× vs switchless deployments");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_steered_traffic_monotone_nonincreasing_in_topk() {
        let t = fig2(&ExpCtx::new(1), false);
        // For each year, steered traffic with top-k=2048 ≤ top-k=0.
        for year in 0..4 {
            let base: f64 = t.rows[year * 5][3].parse().unwrap();
            let best: f64 = t.rows[year * 5 + 4][3].parse().unwrap();
            assert!(
                best <= base + 1e-9,
                "whitelisting must not increase steering: {base} -> {best}"
            );
        }
    }

    #[test]
    fn fig3_smartwatch_cheapest() {
        let t = fig3(&ExpCtx::new(1));
        let last = t.rows.last().unwrap();
        let host_cores: u32 = last[1].parse().unwrap();
        let sw_cores: u32 = last[5].parse().unwrap();
        assert!(sw_cores * 10 < host_cores);
    }
}
