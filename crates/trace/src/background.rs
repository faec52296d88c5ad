//! Background-traffic generation: the CAIDA and Wisconsin-DC stand-ins.
//!
//! The paper's FlowCache results rest on three trace properties it states
//! explicitly in §3.2: (1) a few large flows account for the majority of
//! packets, (2) numerous small flows frequently compete for a hash entry,
//! and (3) packets of elephant flows arrive over several bursts. The
//! generator is parameterised on exactly those properties, with per-"year"
//! presets that track the qualitative evolution of the CAIDA captures
//! (growing flow counts and rates, slightly shifting heavy-tail skew) plus
//! a data-center preset for the Wisconsin trace (fewer, hotter servers and
//! stronger burstiness).

use crate::dist::{weighted_choice, BoundedPareto, Exp, Zipf};
use crate::session::{tcp_session_into, HandshakeOutcome, SessionSpec, Teardown};
use crate::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartwatch_net::{Dur, Packet, Ts};
use std::net::Ipv4Addr;

/// Which real-world trace a generated workload stands in for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preset {
    /// CAIDA passive trace, 2015 vintage.
    Caida2015,
    /// CAIDA passive trace, 2016 vintage.
    Caida2016,
    /// CAIDA passive trace, 2018 vintage (the paper's main workload).
    Caida2018,
    /// CAIDA passive trace, 2019 vintage.
    Caida2019,
    /// University of Wisconsin data-center measurement trace.
    WisconsinDc,
}

impl Preset {
    /// All CAIDA vintages, in year order (Fig. 2 / Fig. 10 sweep these).
    pub const CAIDA_YEARS: [Preset; 4] = [
        Preset::Caida2015,
        Preset::Caida2016,
        Preset::Caida2018,
        Preset::Caida2019,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Caida2015 => "CAIDA-2015",
            Preset::Caida2016 => "CAIDA-2016",
            Preset::Caida2018 => "CAIDA-2018",
            Preset::Caida2019 => "CAIDA-2019",
            Preset::WisconsinDc => "Wisconsin-DC",
        }
    }
}

/// Full parameter set for background generation.
#[derive(Clone, Debug)]
pub(crate) struct BackgroundConfig {
    /// RNG seed; same seed ⇒ identical trace.
    pub seed: u64,
    /// Number of flows to generate.
    pub flows: usize,
    /// Flow start times are spread over this window.
    pub duration: Dur,
    /// Pareto shape of the flow-size distribution (property 1): smaller
    /// α ⇒ heavier elephants. Real backbone traces sit near 1.05–1.2.
    pub zipf_exponent: f64,
    /// Packet-count cap for the largest flows (bounded-Pareto upper
    /// bound). The mean flow stays small (tens of packets), as in
    /// backbone traces, so flow churn is realistic.
    pub max_flow_pkts: u32,
    /// Fraction of flows that are UDP request/response exchanges.
    pub udp_fraction: f64,
    /// Number of distinct client addresses (property 2: more clients per
    /// row ⇒ more hash collisions among mice).
    pub client_space: u32,
    /// Number of distinct server addresses; server choice is Zipf so some
    /// destinations run hot.
    pub server_space: u32,
    /// Mean number of packets per elephant burst (property 3).
    pub burst_len: f64,
    /// Gap between packets inside a burst.
    pub intra_burst_gap: Dur,
    /// Mean gap between bursts of the same flow.
    pub inter_burst_gap: Dur,
    /// Service-port mix as (port, weight) pairs.
    pub port_mix: Vec<(u16, f64)>,
}

impl BackgroundConfig {
    /// Configuration for a preset at a given scale.
    pub(crate) fn preset(
        preset: Preset,
        flows: usize,
        duration: Dur,
        seed: u64,
    ) -> BackgroundConfig {
        // Internet mix: web dominates, plus ssh/dns/ftp/kerberos long tail
        // so the protocol detectors always have some traffic to look at.
        let inet_ports = vec![
            (443u16, 0.45),
            (80, 0.25),
            (22, 0.06),
            (53, 0.08),
            (21, 0.02),
            (88, 0.02),
            (25, 0.03),
            (3306, 0.03),
            (8080, 0.06),
        ];
        let dc_ports = vec![
            (443u16, 0.30),
            (80, 0.15),
            (9092, 0.15),
            (6379, 0.12),
            (3306, 0.10),
            (11211, 0.08),
            (22, 0.05),
            (53, 0.05),
        ];
        match preset {
            Preset::Caida2015 => BackgroundConfig {
                seed,
                flows,
                duration,
                zipf_exponent: 1.04,
                max_flow_pkts: 12_000,
                udp_fraction: 0.18,
                client_space: 40_000,
                server_space: 4_000,
                burst_len: 12.0,
                intra_burst_gap: Dur::from_micros(3),
                inter_burst_gap: Dur::from_millis(12),
                port_mix: inet_ports,
            },
            Preset::Caida2016 => BackgroundConfig {
                seed,
                flows,
                duration,
                zipf_exponent: 1.05,
                max_flow_pkts: 16_000,
                udp_fraction: 0.20,
                client_space: 55_000,
                server_space: 5_000,
                burst_len: 14.0,
                intra_burst_gap: Dur::from_micros(3),
                inter_burst_gap: Dur::from_millis(10),
                port_mix: inet_ports,
            },
            Preset::Caida2018 => BackgroundConfig {
                seed,
                flows,
                duration,
                zipf_exponent: 1.06,
                max_flow_pkts: 24_000,
                udp_fraction: 0.22,
                client_space: 80_000,
                server_space: 6_000,
                burst_len: 16.0,
                intra_burst_gap: Dur::from_micros(2),
                inter_burst_gap: Dur::from_millis(8),
                port_mix: inet_ports,
            },
            Preset::Caida2019 => BackgroundConfig {
                seed,
                flows,
                duration,
                zipf_exponent: 1.08,
                max_flow_pkts: 32_000,
                udp_fraction: 0.25,
                client_space: 100_000,
                server_space: 8_000,
                burst_len: 18.0,
                intra_burst_gap: Dur::from_micros(2),
                inter_burst_gap: Dur::from_millis(6),
                port_mix: inet_ports,
            },
            Preset::WisconsinDc => BackgroundConfig {
                seed,
                flows,
                duration,
                zipf_exponent: 1.03,
                max_flow_pkts: 40_000,
                udp_fraction: 0.10,
                client_space: 2_000,
                server_space: 200,
                burst_len: 40.0,
                intra_burst_gap: Dur::from_micros(1),
                inter_burst_gap: Dur::from_millis(2),
                port_mix: dc_ports,
            },
        }
    }
}

/// Client address for index `i`: spread across sixteen /8s
/// (24.0.0.0–39.255.255.255), so source-aggregated switch queries see a
/// realistic diversity of prefixes rather than one giant /8.
pub fn client_ip(i: u32) -> Ipv4Addr {
    let block = 24 + (i & 0x0F);
    Ipv4Addr::from((block << 24) | ((i >> 4) & 0x00FF_FFFF))
}

/// Server address for index `i`: spread across 172.16.0.0/12.
pub(crate) fn server_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0xAC10_0000u32 | (i & 0x000F_FFFF))
}

/// Generate a background trace from the configuration.
pub(crate) fn generate(cfg: &BackgroundConfig) -> Trace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let size_dist = BoundedPareto::new(2.0, f64::from(cfg.max_flow_pkts.max(3)), cfg.zipf_exponent);
    let server_zipf = Zipf::new(cfg.server_space.max(1) as usize, 1.0);
    let port_weights: Vec<f64> = cfg.port_mix.iter().map(|(_, w)| *w).collect();

    // One reservation for the whole output: growing it by doubling would
    // copy every packet about twice over. A TCP flow is its size plus six
    // handshake and teardown packets; a quarter more than that mean
    // covers the heavy tail's seed-to-seed spread (about ±10 % at the
    // benchmark's 25k flows).
    let per_flow = size_dist.mean() + 6.0;
    let mut packets: Vec<Packet> =
        Vec::with_capacity((cfg.flows as f64 * per_flow * 1.25) as usize);
    for _ in 0..cfg.flows {
        let client = client_ip(rng.gen_range(0..cfg.client_space.max(1)));
        // Scatter the Zipf ranks over the server index space so the hot
        // servers are not all packed into one /24 (they are not, in real
        // networks).
        let rank = server_zipf.sample(&mut rng) as u32 - 1;
        let server = server_ip(rank.wrapping_mul(2_654_435_761) % cfg.server_space.max(1));
        let sport = rng.gen_range(32768..61000);
        let dport = cfg.port_mix[weighted_choice(&mut rng, &port_weights)].0;
        let flow_pkts = size_dist.sample(&mut rng) as u32;
        let start = Ts::from_nanos(rng.gen_range(0..cfg.duration.as_nanos().max(1) * 8 / 10));

        if rng.gen::<f64>() < cfg.udp_fraction || dport == 53 {
            emit_udp_exchange(
                &mut rng,
                &mut packets,
                client,
                sport,
                server,
                dport,
                start,
                flow_pkts.min(64),
            );
        } else {
            emit_tcp_flow(
                &mut rng,
                cfg,
                &mut packets,
                client,
                sport,
                server,
                dport,
                start,
                flow_pkts,
            );
        }
    }
    Trace::from_packets(packets)
}

/// Emit a UDP request/response exchange (DNS-style for port 53).
#[allow(clippy::too_many_arguments)]
fn emit_udp_exchange<R: Rng + ?Sized>(
    rng: &mut R,
    out: &mut Vec<Packet>,
    client: Ipv4Addr,
    sport: u16,
    server: Ipv4Addr,
    dport: u16,
    start: Ts,
    exchanges: u32,
) {
    let gap = Exp::new(Dur::from_millis(5).as_nanos() as f64);
    let mut t = start;
    for _ in 0..exchanges.max(1) {
        let req = smartwatch_net::packet::udp(client, sport, server, dport, t, 60);
        out.push(req);
        t += Dur::from_micros(300);
        let resp_len = if dport == 53 {
            rng.gen_range(80..480)
        } else {
            rng.gen_range(64..1200)
        };
        out.push(smartwatch_net::packet::udp(
            server, dport, client, sport, t, resp_len,
        ));
        t += Dur::from_nanos(gap.sample(rng) as u64);
    }
}

/// Emit one TCP flow, then reshape elephant data timing into bursts.
#[allow(clippy::too_many_arguments)]
fn emit_tcp_flow<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &BackgroundConfig,
    out: &mut Vec<Packet>,
    client: Ipv4Addr,
    sport: u16,
    server: Ipv4Addr,
    dport: u16,
    start: Ts,
    flow_pkts: u32,
) {
    let c2s = flow_pkts / 3;
    let s2c = flow_pkts - c2s;
    let spec = SessionSpec {
        client: (client, sport),
        server: (server, dport),
        start,
        rtt: Dur::from_micros(rng.gen_range(80..2_000)),
        outcome: HandshakeOutcome::Established,
        c2s_data_pkts: c2s,
        s2c_data_pkts: s2c,
        c2s_payload: rng.gen_range(64..512),
        s2c_payload: rng.gen_range(400..1460),
        mean_gap: cfg.intra_burst_gap,
        teardown: Teardown::Fin,
        label: Default::default(),
        s2c_digest: 0,
        c2s_digest: 0,
    };
    let first = out.len();
    tcp_session_into(rng, &spec, out);
    let pkts = &mut out[first..];
    // Property 3: elephants arrive over several bursts spread across the
    // flow's lifetime. Lifetimes scale with flow size (log-scaled), so
    // elephants persist across monitoring intervals the way long-lived
    // CAIDA flows do, while mice stay short. Order (and therefore
    // sequence numbering) is preserved.
    if flow_pkts as f64 > cfg.burst_len * 2.0 {
        let life_frac = ((flow_pkts.max(2) as f64).ln() / (cfg.max_flow_pkts.max(3) as f64).ln())
            .clamp(0.05, 0.85);
        let lifetime_ns = cfg.duration.as_nanos() as f64 * life_frac;
        let n_bursts = (flow_pkts as f64 / cfg.burst_len.max(1.0)).max(1.0);
        let mean_gap_ns = (lifetime_ns / n_bursts).max(cfg.inter_burst_gap.as_nanos() as f64);
        let burst_gap = Exp::new(mean_gap_ns);
        let mut t = pkts[0].ts;
        let mut in_burst = 0u32;
        let burst_target = cfg.burst_len.max(1.0);
        for p in pkts.iter_mut() {
            if in_burst as f64 >= burst_target * (0.5 + rng.gen::<f64>()) {
                t += Dur::from_nanos(burst_gap.sample(rng) as u64);
                in_burst = 0;
            } else {
                t += cfg.intra_burst_gap;
            }
            p.ts = t;
            in_burst += 1;
        }
    }
}

/// Convenience: a ready-made preset trace.
pub fn preset_trace(preset: Preset, flows: usize, duration: Dur, seed: u64) -> Trace {
    generate(&BackgroundConfig::preset(preset, flows, duration, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(preset: Preset) -> Trace {
        preset_trace(preset, 500, Dur::from_secs(2), 11)
    }

    #[test]
    fn generates_requested_scale() {
        let t = small_trace(Preset::Caida2018);
        assert!(
            t.len() > 2_000,
            "500 flows should yield thousands of packets: {}",
            t.len()
        );
        assert!(t.attack_fraction() == 0.0);
    }

    #[test]
    fn heavy_tail_property() {
        // Property 1: top 10% of flows should carry well over half the packets.
        let t = small_trace(Preset::Caida2018);
        let mut counts = std::collections::HashMap::new();
        for p in t.iter() {
            *counts.entry(p.key.canonical().0).or_insert(0u64) += 1;
        }
        let mut sizes: Vec<u64> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sizes.iter().sum();
        let top10: u64 = sizes.iter().take(sizes.len() / 10 + 1).sum();
        assert!(
            top10 as f64 / total as f64 > 0.5,
            "top-10% flows carry {:.2} of packets",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_trace(Preset::Caida2016);
        let b = small_trace(Preset::Caida2016);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.packets()[..50], b.packets()[..50]);
        let c = preset_trace(Preset::Caida2016, 500, Dur::from_secs(2), 12);
        assert_ne!(a.packets()[..50], c.packets()[..50]);
    }

    #[test]
    fn timestamps_sorted() {
        let t = small_trace(Preset::Caida2019);
        for w in t.packets().windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn dc_preset_concentrates_servers() {
        let dc = small_trace(Preset::WisconsinDc);
        let inet = small_trace(Preset::Caida2018);
        let servers = |t: &Trace| {
            let mut s: Vec<_> = t.iter().map(|p| p.key.canonical().0.dst_ip).collect();
            s.sort();
            s.dedup();
            s.len()
        };
        assert!(servers(&dc) < servers(&inet));
    }

    #[test]
    fn contains_tcp_and_udp() {
        let t = small_trace(Preset::Caida2018);
        assert!(t.iter().any(|p| p.is_tcp()));
        assert!(t.iter().any(|p| p.is_udp()));
    }

    #[test]
    fn port_mix_includes_monitored_services() {
        let t = preset_trace(Preset::Caida2018, 2_000, Dur::from_secs(2), 3);
        for port in [22u16, 53, 443, 21] {
            assert!(
                t.iter()
                    .any(|p| p.key.dst_port == port || p.key.src_port == port),
                "no traffic on port {port}"
            );
        }
    }
}
