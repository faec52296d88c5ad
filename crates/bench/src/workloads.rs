//! Shared workload builders for the reproduction harness.
//!
//! All experiments run on scaled-down stand-ins for the paper's traces
//! (see DESIGN.md §1). `scale` multiplies the default workload size;
//! scale 1 keeps every experiment in seconds on a laptop.

use smartwatch_net::{Dur, Ts};
use smartwatch_trace::attacks::auth::{
    bruteforce, kerberos_tickets, tls_with_certs, ArtefactInfo, BruteforceConfig, KerberosConfig,
    TlsConfig,
};
use smartwatch_trace::attacks::dns_amp::{dns_amplification, DnsAmpConfig};
use smartwatch_trace::attacks::portscan::{incomplete_flows, portscan, ScanConfig};
use smartwatch_trace::attacks::rst::{forged_rst, ForgedRstConfig};
use smartwatch_trace::attacks::slowloris::{slowloris, SlowlorisConfig};
use smartwatch_trace::attacks::worm::{worm_outbreak, WormConfig};
use smartwatch_trace::background::{preset_trace, Preset};
use smartwatch_trace::Trace;

/// A CAIDA-year stand-in sized for FlowCache experiments.
pub fn caida(preset: Preset, scale: usize, seed: u64) -> Trace {
    preset_trace(preset, 25_000 * scale, Dur::from_secs(4), seed)
}

/// The 64-byte stress rewrite of a CAIDA trace (the paper's worst case).
pub fn caida_64b(preset: Preset, scale: usize, seed: u64) -> Trace {
    caida(preset, scale, seed).truncated_64b()
}

/// `n` packets over `n` *distinct* flows in hash-scattered order: the
/// cold-row adversarial workload for the FlowCache. Nearly every lookup
/// probes a different row, so on any table larger than the last-level
/// cache the data path is DRAM-latency-bound — the regime the batched
/// prefetch pipeline exists for.
pub fn scattered_flows(n: usize, seed: u64) -> Vec<smartwatch_net::Packet> {
    use smartwatch_net::{hash::splitmix64, FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;
    (0..n)
        .map(|i| {
            let r = splitmix64(i as u64 ^ seed);
            let key = FlowKey::tcp(
                Ipv4Addr::from(0x0A00_0000 | ((r >> 40) as u32 & 0x00FF_FFFF)),
                ((r >> 24) as u16) | 1,
                Ipv4Addr::new(192, 168, (r >> 8) as u8, r as u8),
                443,
            );
            PacketBuilder::new(key, Ts::from_nanos(i as u64)).build()
        })
        .collect()
}

/// The Table-4 evaluation mix plus the TLS/Kerberos artefact registries
/// the host analyzers resolve against.
pub fn attack_mix_full(scale: usize, seed: u64) -> (Trace, Vec<ArtefactInfo>, Vec<ArtefactInfo>) {
    let base = attack_mix(scale, seed);
    let (tls, certs) = tls_with_certs(&TlsConfig {
        seed: seed + 8,
        sessions: 60,
        expiring_fraction: 0.25,
        window: Dur::from_secs(8),
        now: Ts::from_millis(600),
        horizon: Dur::from_secs(30 * 86_400),
    });
    let (krb, tickets) = kerberos_tickets(&KerberosConfig {
        seed: seed + 9,
        requests: 60,
        suspicious_fraction: 0.25,
        window: Dur::from_secs(8),
        now: Ts::from_millis(700),
        max_lifetime: Dur::from_secs(36_000),
    });
    (Trace::merge([base, tls, krb]), certs, tickets)
}

/// The Table-4 evaluation mix: background plus every labelled attack the
/// relative-detection comparison scores, with disjoint attacker pools.
pub fn attack_mix(scale: usize, seed: u64) -> Trace {
    let bg = preset_trace(Preset::Caida2018, 600 * scale, Dur::from_secs(12), seed);

    let mut ssh = BruteforceConfig::ssh(
        smartwatch_trace::attacks::victim_ip(0),
        Ts::from_millis(300),
        seed,
    );
    ssh.attempt_gap = Dur::from_millis(600);
    ssh.source_base = 0;

    let mut ftp = BruteforceConfig::ftp(
        smartwatch_trace::attacks::victim_ip(2),
        Ts::from_millis(500),
        seed + 1,
    );
    ftp.attempt_gap = Dur::from_millis(700);
    ftp.source_base = 16;

    let scan = portscan(&ScanConfig {
        scanner: 32,
        ..ScanConfig::with_delay(Dur::from_millis(80), 80, seed + 2)
    });

    let rst = forged_rst(&ForgedRstConfig {
        seed: seed + 3,
        forged_victims: 12,
        genuine_rsts: 12,
        race_gap: Dur::from_millis(40),
        rst_retransmit_fraction: 0.3,
        start: Ts::from_secs(1),
    });

    let slow = slowloris(&SlowlorisConfig {
        conns_per_attacker: 28,
        fragments: 8,
        fragment_gap: Dur::from_millis(2_200),
        ..SlowlorisConfig::new(
            smartwatch_trace::attacks::victim_ip(1),
            Ts::from_millis(800),
            seed + 4,
        )
    });

    let mut amp_cfg = DnsAmpConfig::new(
        smartwatch_trace::background::client_ip(999),
        Ts::from_secs(2),
        seed + 5,
    );
    amp_cfg.query_gap = Dur::from_millis(120);
    amp_cfg.queries_per_resolver = 60;
    let amp = dns_amplification(&amp_cfg);

    // Worm sized so the outbreak is detectable but does not flood the
    // whole mix with single-packet flows (the default saturates its pool).
    let worm = worm_outbreak(&WormConfig {
        signature: 0x3333_0000_5EED_0001,
        start: Ts::from_secs(1),
        patient_zeros: 4,
        probe_rate: 8.0,
        infect_prob: 0.08,
        address_pool: 2_000,
        duration: Dur::from_secs(8),
        ..WormConfig::new(seed + 6)
    });

    let incomplete = incomplete_flows(80, Ts::from_millis(400), seed + 7);

    Trace::merge([
        bg,
        bruteforce(&ssh),
        bruteforce(&ftp),
        scan,
        rst,
        slow,
        amp,
        worm,
        incomplete,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::AttackKind;

    #[test]
    fn attack_mix_contains_all_scored_kinds() {
        let t = attack_mix(1, 5);
        for kind in [
            AttackKind::SshBruteforce,
            AttackKind::FtpBruteforce,
            AttackKind::StealthyPortScan,
            AttackKind::ForgedTcpRst,
            AttackKind::Slowloris,
            AttackKind::DnsAmplification,
            AttackKind::Worm,
            AttackKind::TcpIncompleteFlows,
        ] {
            assert!(!t.labelled_flows(kind).is_empty(), "missing {kind}");
        }
    }

    #[test]
    fn attacker_pools_are_disjoint() {
        let t = attack_mix(1, 5);
        use std::collections::{HashMap, HashSet};
        let mut per_kind: HashMap<AttackKind, HashSet<std::net::Ipv4Addr>> = HashMap::new();
        for p in t.iter() {
            if let Some(k) = p.label.kind() {
                if matches!(
                    k,
                    AttackKind::SshBruteforce
                        | AttackKind::FtpBruteforce
                        | AttackKind::StealthyPortScan
                ) {
                    per_kind.entry(k).or_default().insert(p.key.src_ip);
                }
            }
        }
        let ssh = &per_kind[&AttackKind::SshBruteforce];
        let ftp = &per_kind[&AttackKind::FtpBruteforce];
        let scan: HashSet<_> = per_kind[&AttackKind::StealthyPortScan]
            .iter()
            .filter(|ip| u32::from(**ip) >> 17 == 0xC612_0000 >> 17)
            .copied()
            .collect();
        assert!(ssh.is_disjoint(ftp), "ssh/ftp sources overlap");
        assert!(ssh.is_disjoint(&scan), "ssh/scan sources overlap");
    }

    /// 64-bit FNV-1a.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xCBF2_9CE4_8422_2325)
        }

        fn eat(&mut self, bytes: &[u8]) {
            for b in bytes {
                self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }

    /// FNV-1a over every field of every packet, in sequence order.
    fn sequence_digest(packets: &[smartwatch_net::Packet]) -> u64 {
        let mut h = Fnv::new();
        for p in packets {
            h.eat(&p.key.src_ip.octets());
            h.eat(&p.key.dst_ip.octets());
            h.eat(&p.key.src_port.to_le_bytes());
            h.eat(&p.key.dst_port.to_le_bytes());
            h.eat(&[p.key.proto.number(), p.flags.0]);
            h.eat(&p.ts.as_nanos().to_le_bytes());
            h.eat(&p.wire_len.to_le_bytes());
            h.eat(&p.payload_len.to_le_bytes());
            h.eat(&p.seq.to_le_bytes());
            h.eat(&p.ack.to_le_bytes());
            h.eat(&p.payload_digest.to_le_bytes());
            let (kind, instance) = match p.label {
                smartwatch_net::Label::Benign => (0, 0),
                smartwatch_net::Label::Attack { kind, instance } => (1 + kind as u8, instance),
            };
            h.eat(&[kind]);
            h.eat(&instance.to_le_bytes());
        }
        h.0
    }

    /// FNV-1a over every frame of a store and the sideband wire length
    /// (the one sideband field compiling derives rather than copies).
    fn store_digest(store: &smartwatch_net::FrameStore) -> u64 {
        let mut h = Fnv::new();
        for i in 0..store.len() {
            h.eat(store.frame(i));
            h.eat(&store.meta(i).wire_len.to_le_bytes());
        }
        h.0
    }

    /// The two generators the benchmark builds from draw the packet
    /// sequences pinned here: same RNG draws in the same order, same
    /// timestamp sort with ties in generation order. A generator that
    /// reorders or redraws changes these digests.
    #[test]
    fn the_generators_draw_the_pinned_sequences() {
        let caida = caida_64b(Preset::Caida2018, 1, 1);
        let mix = attack_mix(1, 1);
        assert_eq!(
            (caida.len(), sequence_digest(caida.packets())),
            (461_002, 5_651_212_547_905_615_391),
            "caida_64b(Caida2018, 1, 1)"
        );
        assert_eq!(
            (mix.len(), sequence_digest(mix.packets())),
            (25_286, 10_280_300_523_050_424_219),
            "attack_mix(1, 1)"
        );
    }

    /// Compiling those sequences writes the pinned frame bytes, in both
    /// framings.
    #[test]
    fn the_compiler_writes_the_pinned_frames() {
        use smartwatch_trace::compile::compile;
        let caida = caida_64b(Preset::Caida2018, 1, 1);
        let mix = attack_mix(1, 1);
        assert_eq!(
            store_digest(&compile(&caida)),
            300_188_017_721_299_234,
            "caida v4"
        );
        assert_eq!(
            store_digest(&compile(&mix)),
            8_050_264_392_323_711_701,
            "mix v4"
        );
        assert_eq!(
            store_digest(&smartwatch_net::FrameStore::from_packets_v6(mix.packets())),
            16_931_589_460_749_195_538,
            "mix v6"
        );
    }
}

#[cfg(test)]
mod full_mix_tests {
    use super::*;
    use smartwatch_net::AttackKind;

    #[test]
    fn full_mix_carries_artefacts_on_the_wire() {
        let (trace, certs, tickets) = attack_mix_full(1, 5);
        assert!(!certs.is_empty() && !tickets.is_empty());
        // Every registered digest appears on some packet.
        let wire: std::collections::HashSet<u64> = trace
            .iter()
            .map(|p| p.payload_digest)
            .filter(|d| *d != 0)
            .collect();
        for a in certs.iter().chain(&tickets) {
            assert!(wire.contains(&a.digest), "digest {:x} missing", a.digest);
        }
        assert!(!trace.labelled_flows(AttackKind::ExpiringSslCert).is_empty());
        assert!(!trace.labelled_flows(AttackKind::KerberosTicket).is_empty());
    }

    /// The suite tracks each TCP session once: the SSH/FTP analyzer
    /// reads the scan pipeline's connection table instead of keeping a
    /// second one. On the pinned mix that takes the suite's flow tables
    /// from 43 240 lookups over 33 344 slots to these counts, with the
    /// same 570 alerts.
    #[test]
    fn the_suite_tracks_each_session_once_on_the_mix() {
        let mut suite = smartwatch_core::DetectorSuite::new();
        let alerts: usize = attack_mix(1, 1)
            .iter()
            .map(|p| suite.on_packet(p).alerts.len())
            .sum();
        let books = (suite.table_stats().lookups, suite.table_slots(), alerts);
        assert_eq!(books, (41_569, 33_088, 570));
    }
}
