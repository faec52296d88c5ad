//! Detection experiments: Fig. 8 (SSH latency, RST buffering, port-scan
//! rate vs delay), Table 2 (resource summary) and Table 4 (detection rate
//! relative to host).

use crate::output::{f, pct, Table};
use crate::workloads;
use crate::ExpCtx;
use smartwatch_core::deploy::DeployMode;
use smartwatch_core::eval::{detection_rate, GroundTruth};
use smartwatch_core::platform::{standard_queries, PlatformConfig, SmartWatch};
use smartwatch_detect::rst::{ForgedRstDetector, RstEvent};
use smartwatch_net::{AttackKind, Dur, FlowHasher, Ts};
use smartwatch_trace::attacks::auth::{benign_logins, bruteforce, BruteforceConfig};
use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
use smartwatch_trace::attacks::rst::{forged_rst, ForgedRstConfig};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::Trace;

/// Fig. 8a: SSH packet processing latency, SmartWatch vs baseline Zeek.
pub(crate) fn fig8a(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    let server = smartwatch_trace::attacks::victim_ip(0);
    let bg = preset_trace(Preset::Caida2018, 400 * scale, Dur::from_secs(6), 0x8A);
    let mut campaign = BruteforceConfig::ssh(server, Ts::from_millis(300), 0x8A);
    campaign.attempt_gap = Dur::from_millis(500);
    campaign.final_success = true;
    let benign = benign_logins(server, 22, 15, Ts::from_millis(100), 0x8A);
    let trace = Trace::merge([bg, bruteforce(&campaign), benign]);

    let mut t = Table::new(
        "fig8a",
        "SSH session handling: SmartWatch vs host-based Zeek",
        &[
            "deployment",
            "mean latency (µs)",
            "host pkts",
            "whitelisted flows",
        ],
    );
    let mut latencies = Vec::new();
    for mode in [
        DeployMode::SmartWatch,
        DeployMode::SnicHost,
        DeployMode::HostOnly,
    ] {
        let rep =
            SmartWatch::new(PlatformConfig::new(mode), standard_queries()).run(trace.packets());
        latencies.push(rep.metrics.mean_latency_ns());
        t.row(vec![
            mode.name().into(),
            f(rep.metrics.mean_latency_ns() / 1e3, 2),
            rep.metrics.host_processed.to_string(),
            rep.whitelist_entries.to_string(),
        ]);
    }
    // The paper's "reduce latency by 72.32%" compares the sNIC+host
    // partitioning against everything-on-the-host over the same traffic.
    // (The full-SmartWatch row monitors only the suspicious subset, which
    // is dominated by pre-authentication host escalations — its mean is
    // over a different, far smaller population.)
    let reduction = 1.0 - latencies[1] / latencies[2];
    t.note(format!(
        "sNIC-offload latency reduction vs host-only: {:.1}% (paper: 72.32% overall, 77% for SSH)",
        reduction * 100.0
    ));
    t
}

/// Fig. 8b: forged-RST buffering — Bloom fast-path share and wheel cost
/// as the horizon T grows.
pub(crate) fn fig8b(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "fig8b",
        "RST buffering: fast-path share and buffered population vs T",
        &["T (s)", "RSTs", "fast path", "max buffered", "forged found"],
    );
    for t_secs in [1u64, 2, 4] {
        let trace = Trace::merge([
            preset_trace(Preset::Caida2018, 300 * scale, Dur::from_secs(6), 0x8B),
            forged_rst(&ForgedRstConfig {
                seed: 0x8B,
                forged_victims: 25,
                genuine_rsts: 50,
                race_gap: Dur::from_millis(30),
                rst_retransmit_fraction: 0.3,
                start: Ts::from_millis(100),
            }),
        ]);
        let mut det = ForgedRstDetector::new(Dur::from_secs(t_secs));
        let mut forged = 0u64;
        let mut max_buffered = 0usize;
        for p in trace.iter() {
            for ev in det.on_packet(p) {
                if matches!(ev, RstEvent::ForgedDetected(_)) {
                    forged += 1;
                }
            }
            max_buffered = max_buffered.max(det.buffered());
        }
        let total_rsts = det.fast_path + det.slow_path;
        t.row(vec![
            t_secs.to_string(),
            total_rsts.to_string(),
            pct(det.fast_path as f64 / total_rsts.max(1) as f64),
            max_buffered.to_string(),
            forged.to_string(),
        ]);
    }
    t.note("paper Fig. 8b: larger T ⇒ more RSTs buffered concurrently ⇒ costlier scans;");
    t.note("the Bloom filter keeps most RSTs on the fast path (paper: 69.7%)");
    t
}

/// Fig. 8c: port-scan detection rate vs scan delay, SmartWatch vs
/// standalone P4Switch.
pub(crate) fn fig8c(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(
        "fig8c",
        "Port-scan detection rate vs scan delay",
        &["delay (ms)", "SmartWatch", "P4Switch"],
    );
    let mut sw_slowest = 0.0;
    let mut p4_slowest = 0.0;
    for delay_ms in [5u64, 10, 1_000, 15_000, 300_000] {
        // Probe count scales down with delay (NMAP sweeps take as long as
        // they take); every campaign spans multiple monitoring intervals.
        let probes = (6_000 / delay_ms).clamp(60, 1_200) as u32;
        let bg_secs = (delay_ms * 60 / 1_000).clamp(6, 90);
        // Rate-constant background: the DC link stays busy for the whole
        // campaign, keeping its server subnets steered (which is what
        // lets the sNIC see a paranoid scanner's sparse probes at all).
        let bg = preset_trace(
            Preset::WisconsinDc,
            (100 * bg_secs as usize) * scale,
            Dur::from_secs(bg_secs),
            0x8C,
        );
        let scan = portscan(&ScanConfig {
            scanner: 32,
            ..ScanConfig::with_delay(Dur::from_millis(delay_ms), probes, 0x8C)
        });
        let trace = Trace::merge([bg, scan]);
        let truth = GroundTruth::from_packets(trace.packets());
        let rate = |mode| {
            let rep =
                SmartWatch::new(PlatformConfig::new(mode), standard_queries()).run(trace.packets());
            detection_rate(&rep, &truth, AttackKind::StealthyPortScan).unwrap_or(0.0)
        };
        let sw = rate(DeployMode::SmartWatch);
        let p4 = rate(DeployMode::SwitchHost);
        if delay_ms == 300_000 {
            sw_slowest = sw;
            p4_slowest = p4;
        }
        t.row(vec![delay_ms.to_string(), pct(sw), pct(p4)]);
    }
    t.note(format!(
        "paper Fig. 8c: SmartWatch keeps detecting paranoid scans; switch queries fade \
         (at 300 s delay: SmartWatch {} vs P4Switch {})",
        pct(sw_slowest),
        pct(p4_slowest)
    ));
    t
}

/// Table 2: per-detector resource summary. Cycle shares are *derived*:
/// FlowCache cycles come from the calibrated per-access cost model over
/// the run's actual hit/miss mix; each detector's cycles come from its
/// measured data-path operation count at a fixed per-operation cost.
pub(crate) fn table2(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    use smartwatch_core::suite::DetectorSuite;
    use smartwatch_host::ArtefactRegistry;
    use smartwatch_snic::hw::CycleCosts;
    use smartwatch_snic::{Access, Outcome};

    let (trace, certs, tickets) = workloads::attack_mix_full(scale, 0x72);
    let cfg = PlatformConfig::new(DeployMode::SnicHost);
    let suite = DetectorSuite::with_hasher(FlowHasher::new(cfg.cache.hash_seed))
        .with_cert_registry(
            ArtefactRegistry::from_pairs(certs.iter().map(|a| (a.digest, a.expires_at))),
            Dur::from_secs(30 * 86_400),
        )
        .with_krb_registry(
            ArtefactRegistry::from_pairs(tickets.iter().map(|a| (a.digest, a.expires_at))),
            Dur::from_secs(36_000),
        );
    let mut sw = SmartWatch::new(cfg, vec![]).with_suite(suite);
    for p in trace.packets() {
        sw.on_packet(p);
    }
    let ops = sw.tier.suite.ops;
    let cache_stats = sw.tier.cache().stats();
    let rep = sw.finish(trace.packets().last().unwrap().ts + Dur::from_secs(1));
    let m = rep.metrics;

    // FlowCache cycles from the calibrated cost model over the measured
    // access mix (a representative access per outcome class).
    let costs = CycleCosts::default();
    let hit = |probes| Access {
        outcome: Outcome::PHit,
        probes,
        writes: 1,
        ring_pushes: 0,
        cleaned_row: false,
        packets: 0,
    };
    let miss = Access {
        outcome: Outcome::Miss,
        probes: 12,
        writes: 3,
        ring_pushes: 1,
        cleaned_row: false,
        packets: 0,
    };
    let cache_cycles = cache_stats.p_hits as f64 * costs.busy_cycles(&hit(3)) as f64
        + cache_stats.e_hits as f64 * costs.busy_cycles(&hit(8)) as f64
        + cache_stats.misses as f64 * costs.busy_cycles(&miss) as f64;

    // Detector data-path work: every detector pays a relevance check on
    // every packet (~12 cycles: a port/flag compare) plus a state
    // operation (~140 cycles: a DRAM-resident counter update) on the
    // packets it actually tracks.
    const CHECK_CYCLES: f64 = 12.0;
    const STATE_CYCLES: f64 = 140.0;
    let det = |state_ops: u64| ops.total as f64 * CHECK_CYCLES + state_ops as f64 * STATE_CYCLES;
    let rows: Vec<(&str, f64, f64)> = vec![
        // (name, cycles, host-processed share of this detector's packets)
        ("Zeek SSH Bruteforcing", det(ops.auth / 2), 0.45),
        ("Zeek FTP Bruteforcing", det(ops.auth / 2), 0.45),
        ("Expiring SSL cert + Kerberos", det(ops.artefacts), 0.0),
        ("In-Sequence Forged TCP RST", det(ops.rst), 0.10),
        ("Stealthy Port Scan + TCP Incomplete", det(ops.scan), 0.0),
        ("DNS Amplification", det(ops.dns), 0.0),
        ("EarlyBird Detection Worms", det(ops.worm), 0.0),
        (
            "Slowloris (offline, flow logs)",
            ops.total as f64 * CHECK_CYCLES,
            0.0,
        ),
    ];
    let total_cycles: f64 = cache_cycles + rows.iter().map(|(_, c, _)| c).sum::<f64>();
    let host_pct = m.host_fraction() * 100.0;

    let mut t = Table::new(
        "table2",
        "Resource summary (all detectors running; SnicHost deployment)",
        &["component", "sNIC cycles (%)", "host processed (%)"],
    );
    t.row(vec![
        "FlowCache (flow logging)".into(),
        f(cache_cycles / total_cycles * 100.0, 1),
        "0".into(),
    ]);
    for (name, cycles, host_share) in rows {
        t.row(vec![
            name.into(),
            f(cycles / total_cycles * 100.0, 1),
            f(host_pct * host_share, 2),
        ]);
    }
    t.note(format!(
        "FlowCache share derived from the measured access mix ({} hits / {} misses);          paper: 80.32% with ~2% per detector",
        cache_stats.p_hits + cache_stats.e_hits,
        cache_stats.misses
    ));
    t.note(format!(
        "measured host fraction of sNIC-processed packets: {:.2}% (paper bound: <16%)",
        host_pct
    ));
    t.note(format!(
        "mean monitored-packet latency {:.2} µs over {} packets",
        m.mean_latency_ns() / 1e3,
        m.monitored
    ));
    t
}

/// Table 4: detection rate relative to host, Sonata vs SmartWatch.
pub(crate) fn table4(ctx: &ExpCtx) -> Table {
    let scale = ctx.scale;
    use smartwatch_core::suite::DetectorSuite;
    use smartwatch_host::ArtefactRegistry;

    let (trace, certs, tickets) = workloads::attack_mix_full(scale, 0x74);
    let truth = GroundTruth::from_packets(trace.packets());
    // Every platform below runs the default cache, so one seed serves.
    let seed = PlatformConfig::new(DeployMode::SmartWatch).cache.hash_seed;
    let suite = || {
        DetectorSuite::with_hasher(FlowHasher::new(seed))
            .with_cert_registry(
                ArtefactRegistry::from_pairs(certs.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(30 * 86_400),
            )
            .with_krb_registry(
                ArtefactRegistry::from_pairs(tickets.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(36_000),
            )
    };
    let host = SmartWatch::new(PlatformConfig::new(DeployMode::HostOnly), vec![])
        .with_suite(suite())
        .run(trace.packets());
    // The full-SmartWatch run is the one whose control-loop behaviour the
    // paper evaluates; publish its tier/steering metrics and trace.
    let mut sw_platform = SmartWatch::new(
        PlatformConfig::new(DeployMode::SmartWatch),
        standard_queries(),
    )
    .with_suite(suite());
    sw_platform.attach_telemetry(&ctx.registry);
    sw_platform.attach_tracer(&ctx.tracer);
    let sw = sw_platform.run(trace.packets());
    let sonata = SmartWatch::new(
        PlatformConfig::new(DeployMode::SwitchHost),
        standard_queries(),
    )
    .run(trace.packets());

    let kinds = [
        AttackKind::Slowloris,
        AttackKind::SshBruteforce,
        AttackKind::ExpiringSslCert,
        AttackKind::FtpBruteforce,
        AttackKind::KerberosTicket,
        AttackKind::ForgedTcpRst,
        AttackKind::TcpIncompleteFlows,
        AttackKind::StealthyPortScan,
        AttackKind::DnsAmplification,
        AttackKind::Worm,
    ];
    let mut t = Table::new(
        "table4",
        "Detection rate relative to host",
        &["attack", "host", "Sonata", "SmartWatch"],
    );
    let mut sums = (0.0f64, 0.0f64, 0usize);
    for kind in kinds {
        let h = detection_rate(&host, &truth, kind).unwrap_or(0.0);
        let so = detection_rate(&sonata, &truth, kind).unwrap_or(0.0);
        let s = detection_rate(&sw, &truth, kind).unwrap_or(0.0);
        let (rel_so, rel_sw) = if h > 0.0 { (so / h, s / h) } else { (0.0, 0.0) };
        if h > 0.0 {
            sums.0 += rel_so;
            sums.1 += rel_sw;
            sums.2 += 1;
        }
        t.row(vec![
            kind.name().into(),
            f(h, 2),
            f(rel_so, 2),
            f(rel_sw, 2),
        ]);
    }
    let mean_sonata = sums.0 / sums.2.max(1) as f64;
    let mean_sw = sums.1 / sums.2.max(1) as f64;
    t.note(format!(
        "mean relative detection: SmartWatch {:.2} vs Sonata {:.2} ⇒ {:.2}× better \
         (paper: 2.39×)",
        mean_sw,
        mean_sonata,
        if mean_sonata > 0.0 {
            mean_sw / mean_sonata
        } else {
            f64::INFINITY
        }
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_snic_offload_cuts_latency() {
        let t = fig8a(&ExpCtx::new(1));
        let snic: f64 = t.rows[1][1].parse().unwrap();
        let host: f64 = t.rows[2][1].parse().unwrap();
        assert!(snic < host * 0.5, "sNIC {snic} vs host {host}");
    }

    #[test]
    fn table4_smartwatch_beats_sonata() {
        let t = table4(&ExpCtx::new(1));
        let mut sw_sum = 0.0;
        let mut so_sum = 0.0;
        for row in &t.rows {
            so_sum += row[2].parse::<f64>().unwrap();
            sw_sum += row[3].parse::<f64>().unwrap();
        }
        assert!(
            sw_sum > so_sum * 1.5,
            "SmartWatch {sw_sum} vs Sonata {so_sum} (expect ≥1.5× aggregate)"
        );
    }
}
