//! Website-fingerprinting workload (paper §5.2.2).
//!
//! Users fetch pages through an encrypting proxy (the paper uses the
//! classic OpenSSH-tunnel traces), so an observer sees only packet sizes
//! and directions. Each website induces a characteristic packet-length
//! distribution (PLD); the detector classifies destination pages with a
//! multinomial Naive-Bayes over PLD features.
//!
//! This generator synthesises a closed world of `sites` websites. Each site
//! gets a stable (seeded) multinomial over packet-length bins; a page load
//! is a TCP session through the proxy whose segment sizes are drawn from
//! the site's distribution. The ground-truth site id is carried as the
//! label instance.

use crate::dist::weighted_choice;
use crate::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartwatch_net::{AttackKind, Dur, FlowKey, Label, Packet, PacketBuilder, TcpFlags, Ts};
use std::net::Ipv4Addr;

/// Number of packet-length bins in a site profile (MTU 1500 / 50-byte bins).
pub(crate) const PLD_BINS: usize = 30;

/// A website's traffic signature: multinomials over packet-length bins for
/// each direction, plus a typical page size in packets.
#[derive(Clone, Debug)]
pub struct SiteProfile {
    /// Site identifier (the classification target).
    pub site_id: u32,
    /// Outbound (client→proxy) length-bin weights.
    pub out_weights: Vec<f64>,
    /// Inbound (proxy→client) length-bin weights.
    pub in_weights: Vec<f64>,
    /// Mean inbound packets per page load.
    pub mean_in_pkts: u32,
    /// Mean outbound packets per page load.
    pub mean_out_pkts: u32,
}

impl SiteProfile {
    /// Deterministically derive site `site_id`'s profile. Profiles are
    /// sparse (each site concentrates on a few bins) so sites are actually
    /// distinguishable, mirroring real PLD separability.
    pub fn derive(site_id: u32) -> SiteProfile {
        let mut rng = StdRng::seed_from_u64(0x5175_0000 + u64::from(site_id));
        // Moderate peak weights over a non-trivial baseline: sites
        // overlap enough that classification is a real statistical task
        // rather than a lookup.
        let mut make = |peaks: usize| {
            let mut w = vec![0.12f64; PLD_BINS];
            for _ in 0..peaks {
                let bin = rng.gen_range(0..PLD_BINS);
                w[bin] += rng.gen_range(0.8..3.0);
            }
            w
        };
        SiteProfile {
            site_id,
            out_weights: make(3),
            in_weights: make(4),
            mean_in_pkts: rng.gen_range(40..220),
            mean_out_pkts: rng.gen_range(15..60),
        }
    }

    /// Sample a packet length from a direction's distribution.
    fn sample_len<R: Rng + ?Sized>(&self, rng: &mut R, inbound: bool) -> u16 {
        let w = if inbound {
            &self.in_weights
        } else {
            &self.out_weights
        };
        let bin = weighted_choice(rng, w);
        (bin as u16 * 50 + rng.gen_range(1u16..50)).min(1460)
    }
}

/// Workload configuration for the fingerprinting experiment.
#[derive(Clone, Debug)]
pub struct WfpConfig {
    /// RNG seed.
    pub seed: u64,
    /// Closed-world size (number of candidate sites).
    pub sites: u32,
    /// Page loads generated per site.
    pub loads_per_site: u32,
    /// The proxy endpoint every page load tunnels through.
    pub proxy: Ipv4Addr,
    /// Proxy port (22 for the OpenSSH-tunnel setting).
    pub proxy_port: u16,
    /// Workload start.
    pub start: Ts,
}

impl WfpConfig {
    /// Paper-flavoured defaults.
    pub fn new(sites: u32, loads_per_site: u32, seed: u64) -> WfpConfig {
        WfpConfig {
            seed,
            sites,
            loads_per_site,
            proxy: Ipv4Addr::new(203, 0, 113, 7),
            proxy_port: 22,
            start: Ts::ZERO,
        }
    }
}

/// Generate the page-load workload. Every packet of a page load carries
/// `Label::Attack(WebsiteFingerprint, site_id)` as ground truth.
pub fn page_loads(cfg: &WfpConfig) -> Trace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let profiles: Vec<SiteProfile> = (0..cfg.sites).map(SiteProfile::derive).collect();
    let mut packets: Vec<Packet> = Vec::new();
    let mut t = cfg.start;
    let mut port_seq: u16 = 20000;

    for load in 0..cfg.loads_per_site {
        for profile in &profiles {
            port_seq = port_seq.wrapping_add(1).max(20000);
            let client = crate::background::client_ip(rng.gen_range(0..4_000));
            let c2s = FlowKey::tcp(client, port_seq, cfg.proxy, cfg.proxy_port);
            let s2c = c2s.reversed();
            let label = Label::attack(AttackKind::WebsiteFingerprint, profile.site_id);
            let n_out = jitter_count(&mut rng, profile.mean_out_pkts);
            let n_in = jitter_count(&mut rng, profile.mean_in_pkts);
            let total = n_out + n_in;
            let mut t_load = t + Dur::from_micros(rng.gen_range(0..5_000));
            let mut sent_out = 0;
            for i in 0..total {
                t_load += Dur::from_micros(rng.gen_range(50..800));
                let outbound = if sent_out >= n_out {
                    false
                } else {
                    // Requests lead, responses follow.
                    u64::from(i) * u64::from(n_out) / u64::from(total.max(1)) >= u64::from(sent_out)
                };
                let (key, len) = if outbound {
                    sent_out += 1;
                    (c2s, profile.sample_len(&mut rng, false))
                } else {
                    (s2c, profile.sample_len(&mut rng, true))
                };
                packets.push(
                    PacketBuilder::new(key, t_load)
                        .flags(TcpFlags::PSH | TcpFlags::ACK)
                        .payload(len)
                        .label(label)
                        .build(),
                );
            }
            t += Dur::from_millis(rng.gen_range(2..30));
        }
        let _ = load;
    }
    Trace::from_packets(packets)
}

fn jitter_count<R: Rng + ?Sized>(rng: &mut R, mean: u32) -> u32 {
    let lo = (mean as f64 * 0.8) as u32;
    let hi = (mean as f64 * 1.2) as u32 + 1;
    rng.gen_range(lo.max(1)..hi.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_stable_and_distinct() {
        let a1 = SiteProfile::derive(1);
        let a2 = SiteProfile::derive(1);
        let b = SiteProfile::derive(2);
        assert_eq!(a1.in_weights, a2.in_weights);
        assert_ne!(a1.in_weights, b.in_weights);
    }

    #[test]
    fn every_load_goes_through_the_proxy() {
        let cfg = WfpConfig::new(5, 3, 21);
        let t = page_loads(&cfg);
        assert!(t
            .iter()
            .all(|p| p.key.dst_ip == cfg.proxy || p.key.src_ip == cfg.proxy));
    }

    #[test]
    fn site_ids_cover_closed_world() {
        let cfg = WfpConfig::new(6, 2, 22);
        let t = page_loads(&cfg);
        let mut sites: Vec<u32> = t
            .iter()
            .filter_map(|p| match p.label {
                Label::Attack {
                    kind: AttackKind::WebsiteFingerprint,
                    instance,
                } => Some(instance),
                _ => None,
            })
            .collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn packet_lengths_respect_mtu() {
        let t = page_loads(&WfpConfig::new(3, 2, 23));
        assert!(t.iter().all(|p| p.payload_len <= 1460));
        assert!(t.iter().all(|p| p.payload_len > 0));
    }

    #[test]
    fn same_site_loads_have_similar_pld() {
        // The in-direction histogram of two loads of the same site should
        // correlate better than loads of different sites (on average).
        let cfg = WfpConfig::new(2, 4, 24);
        let t = page_loads(&cfg);
        let hist = |site: u32| {
            let mut h = vec![0f64; PLD_BINS];
            for p in t.iter() {
                if let Label::Attack { instance, .. } = p.label {
                    if instance == site && p.key.src_port == cfg.proxy_port {
                        h[usize::from(p.payload_len / 50).min(PLD_BINS - 1)] += 1.0;
                    }
                }
            }
            let n: f64 = h.iter().sum();
            h.iter().map(|v| v / n.max(1.0)).collect::<Vec<_>>()
        };
        let h0 = hist(0);
        let h1 = hist(1);
        let l1: f64 = h0.iter().zip(&h1).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 > 0.3, "site PLDs should differ: L1 distance {l1}");
    }
}
