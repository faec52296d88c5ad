//! End-to-end integration tests: every attack class travels from its
//! generator, through the full SmartWatch platform, to a correct alert.

use smartwatch::core::platform::{standard_queries, PlatformConfig, SmartWatch};
use smartwatch::core::{detection_rate, DeployMode, GroundTruth};
use smartwatch::net::{AttackKind, Dur, Ts};
use smartwatch::trace::attacks::auth::{bruteforce, BruteforceConfig};
use smartwatch::trace::attacks::dns_amp::{dns_amplification, DnsAmpConfig};
use smartwatch::trace::attacks::portscan::{portscan, ScanConfig};
use smartwatch::trace::attacks::rst::{forged_rst, ForgedRstConfig};
use smartwatch::trace::attacks::slowloris::{slowloris, SlowlorisConfig};
use smartwatch::trace::attacks::worm::{worm_outbreak, WormConfig};
use smartwatch::trace::background::{preset_trace, Preset};
use smartwatch::trace::Trace;

fn run_smartwatch(trace: &Trace) -> (smartwatch::core::platform::RunReport, GroundTruth) {
    let truth = GroundTruth::from_packets(trace.packets());
    let rep = SmartWatch::new(
        PlatformConfig::new(DeployMode::SmartWatch),
        standard_queries(),
    )
    .run(trace.packets());
    (rep, truth)
}

fn with_background(attack: Trace, seed: u64) -> Trace {
    let secs = (attack.duration().as_secs() + 2).clamp(3, 30);
    let bg = preset_trace(Preset::Caida2018, 300, Dur::from_secs(secs), seed);
    Trace::merge([bg, attack])
}

#[test]
fn portscan_detected_through_full_platform() {
    let trace = with_background(
        portscan(&ScanConfig::with_delay(Dur::from_millis(50), 80, 11)),
        11,
    );
    let (rep, truth) = run_smartwatch(&trace);
    let rate = detection_rate(&rep, &truth, AttackKind::StealthyPortScan).unwrap();
    assert_eq!(rate, 1.0, "scan instance missed");
}

#[test]
fn ssh_bruteforce_detected_and_sources_blacklisted() {
    let mut cfg = BruteforceConfig::ssh(
        smartwatch::trace::attacks::victim_ip(0),
        Ts::from_millis(200),
        13,
    );
    cfg.attempt_gap = Dur::from_millis(300);
    let trace = with_background(bruteforce(&cfg), 13);
    let (rep, truth) = run_smartwatch(&trace);
    let rate = detection_rate(&rep, &truth, AttackKind::SshBruteforce).unwrap();
    assert!(rate >= 0.75, "bruteforce rate {rate}");
    assert!(rep.metrics.dropped > 0, "flagged sources should be dropped");
}

#[test]
fn forged_rst_detected() {
    let trace = with_background(forged_rst(&ForgedRstConfig::default()), 17);
    let (rep, truth) = run_smartwatch(&trace);
    // The RST query steers the victim subset; races then surface.
    let rate = detection_rate(&rep, &truth, AttackKind::ForgedTcpRst).unwrap();
    assert!(rate > 0.5, "forged RST rate {rate}");
}

#[test]
fn slowloris_detected_via_flow_logs() {
    let cfg = SlowlorisConfig::new(smartwatch::trace::attacks::victim_ip(1), Ts::ZERO, 19);
    let trace = with_background(slowloris(&cfg), 19);
    let (rep, truth) = run_smartwatch(&trace);
    let rate = detection_rate(&rep, &truth, AttackKind::Slowloris).unwrap();
    assert!(rate > 0.0, "slowloris victim not identified");
}

#[test]
fn dns_amplification_detected() {
    let victim = smartwatch::trace::background::client_ip(77);
    // Stretch the campaign over several monitoring intervals so the
    // coarse query can steer it (steering starts at the next interval).
    let mut amp = DnsAmpConfig::new(victim, Ts::from_millis(100), 23);
    amp.query_gap = Dur::from_millis(80);
    amp.queries_per_resolver = 60;
    let trace = with_background(dns_amplification(&amp), 23);
    let (rep, truth) = run_smartwatch(&trace);
    let rate = detection_rate(&rep, &truth, AttackKind::DnsAmplification).unwrap();
    assert!(rate > 0.5, "amplification rate {rate}");
}

#[test]
fn worm_outbreak_detected() {
    let cfg = WormConfig {
        signature: 0xBEEF_CAFE,
        ..WormConfig::new(29)
    };
    let trace = with_background(worm_outbreak(&cfg), 29);
    let (rep, truth) = run_smartwatch(&trace);
    let rate = detection_rate(&rep, &truth, AttackKind::Worm).unwrap();
    assert!(
        rate > 0.3,
        "worm rate {rate} (signature covers most instances)"
    );
}

#[test]
fn benign_traffic_raises_no_alerts() {
    let trace = preset_trace(Preset::Caida2018, 400, Dur::from_secs(3), 31);
    let (rep, _) = run_smartwatch(&trace);
    assert!(
        rep.alerts.is_empty(),
        "false positives on pure background: {:?}",
        rep.alerts.iter().take(3).collect::<Vec<_>>()
    );
}

#[test]
fn host_fraction_stays_below_paper_bound() {
    // "Less than 16% of packets processed by the sNIC go to the host."
    // (Table 2's deployment: everything flows through the sNIC tier.)
    let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(30), 60, 37));
    let mut ssh = BruteforceConfig::ssh(
        smartwatch::trace::attacks::victim_ip(0),
        Ts::from_millis(100),
        37,
    );
    ssh.attempt_gap = Dur::from_millis(250);
    let trace = with_background(Trace::merge([scan, bruteforce(&ssh)]), 37);
    let rep =
        SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
    assert!(
        rep.metrics.host_fraction() < 0.16,
        "host fraction {:.3}",
        rep.metrics.host_fraction()
    );
}
