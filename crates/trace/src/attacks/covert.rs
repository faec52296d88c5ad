//! Covert timing-channel generator (paper §5.2.1).
//!
//! A compromised sender exfiltrates bits by modulating inter-packet delays
//! (IPDs): a large delay encodes a one, a small delay a zero, producing a
//! *bimodal* IPD distribution. Benign traffic has a unimodal (roughly
//! log-normal) IPD distribution. Detectors compare the observed IPD
//! histogram against a known-good distribution with a KS test.
//!
//! The paper's workload: 90% benign flows, 10% modulated, with modulation
//! delays ranging from 1 µs to 100 µs.

use crate::dist::normal;
use crate::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartwatch_net::{AttackKind, Dur, FlowKey, Label, Packet, PacketBuilder, TcpFlags, Ts};

/// Covert timing-channel workload configuration.
#[derive(Clone, Debug)]
pub struct CovertConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total number of flows.
    pub flows: u32,
    /// Fraction of flows that are modulated (0.10 in the paper).
    pub modulated_fraction: f64,
    /// Packets per flow (both benign and modulated).
    pub pkts_per_flow: u32,
    /// IPD encoding a zero bit.
    pub zero_gap: Dur,
    /// IPD encoding a one bit. The modulation depth `one_gap - zero_gap`
    /// is the paper's 1–100 µs sweep variable.
    pub one_gap: Dur,
    /// Mean IPD of benign flows. Each benign flow's own mean is drawn
    /// within ±15% of this (real benign traffic is heterogeneous).
    pub benign_gap: Dur,
    /// Relative jitter applied to every gap (network noise).
    pub jitter: f64,
    /// Workload start.
    pub start: Ts,
}

impl CovertConfig {
    /// Paper-flavoured defaults at a given modulation depth.
    pub fn with_depth(depth: Dur, flows: u32, seed: u64) -> CovertConfig {
        CovertConfig {
            seed,
            flows,
            modulated_fraction: 0.10,
            pkts_per_flow: 400,
            // The stealthiest placement: zeros ride the benign mode and
            // ones sit `depth` above it, so shallow modulations hide
            // inside ordinary jitter.
            zero_gap: Dur::from_micros(45),
            one_gap: Dur::from_micros(45) + depth,
            benign_gap: Dur::from_micros(45),
            jitter: 0.08,
            start: Ts::ZERO,
        }
    }
}

fn jittered<R: Rng + ?Sized>(rng: &mut R, base: Dur, jitter: f64) -> Dur {
    let ns = base.as_nanos() as f64;
    Dur::from_nanos(normal(rng, ns, ns * jitter).max(1.0) as u64)
}

/// Generate the covert-channel workload. Returns the trace; modulated flows
/// are labelled [`AttackKind::CovertTimingChannel`].
pub fn covert_timing(cfg: &CovertConfig) -> Trace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut packets: Vec<Packet> = Vec::new();
    for f in 0..cfg.flows {
        let modulated = (f as f64 / cfg.flows.max(1) as f64) < cfg.modulated_fraction;
        let key = FlowKey::tcp(
            if modulated {
                super::attacker_ip(f)
            } else {
                crate::background::client_ip(f)
            },
            30000 + (f % 30000) as u16,
            super::victim_ip(f % 32),
            443,
        );
        let label = if modulated {
            Label::attack(AttackKind::CovertTimingChannel, f)
        } else {
            Label::Benign
        };
        // Per-flow benign mean: ±15% heterogeneity across flows.
        let flow_gap =
            Dur::from_nanos((cfg.benign_gap.as_nanos() as f64 * rng.gen_range(0.85..1.15)) as u64);
        let mut t = cfg.start + Dur::from_micros(rng.gen_range(0..100_000));
        for _ in 0..cfg.pkts_per_flow {
            packets.push(
                PacketBuilder::new(key, t)
                    .flags(TcpFlags::PSH | TcpFlags::ACK)
                    .payload(512)
                    .label(label)
                    .build(),
            );
            let gap = if modulated {
                // Random bitstream: half ones, half zeros.
                if rng.gen::<bool>() {
                    cfg.one_gap
                } else {
                    cfg.zero_gap
                }
            } else {
                flow_gap
            };
            t += jittered(&mut rng, gap, cfg.jitter);
        }
    }
    Trace::from_packets(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inter-packet delays of one flow.
    fn flow_ipds(trace: &Trace, key: FlowKey) -> Vec<Dur> {
        let canon = key.canonical().0;
        let ipds = trace.iter().filter(|p| p.key.canonical().0 == canon);
        ipds.map(|p| p.ts)
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    fn cfg() -> CovertConfig {
        CovertConfig::with_depth(Dur::from_micros(60), 40, 17)
    }

    #[test]
    fn modulated_fraction_respected() {
        let c = cfg();
        let t = covert_timing(&c);
        let modulated = t.labelled_flows(AttackKind::CovertTimingChannel).len();
        assert_eq!(
            modulated as u32,
            (c.flows as f64 * c.modulated_fraction) as u32
        );
    }

    #[test]
    fn modulated_flows_are_bimodal() {
        let c = cfg();
        let t = covert_timing(&c);
        let key = t.labelled_flows(AttackKind::CovertTimingChannel)[0];
        let ipds = flow_ipds(&t, key);
        assert!(ipds.len() > 100);
        // Split around the midpoint between the two modes.
        let mid = (c.zero_gap.as_nanos() + c.one_gap.as_nanos()) / 2;
        let low = ipds.iter().filter(|d| d.as_nanos() < mid).count();
        let high = ipds.len() - low;
        let ratio = low as f64 / ipds.len() as f64;
        assert!(
            (0.3..=0.7).contains(&ratio),
            "bimodal split should be near 50/50: {low}/{high}"
        );
    }

    #[test]
    fn benign_flows_are_unimodal() {
        let c = cfg();
        let t = covert_timing(&c);
        // Find a benign flow key.
        let benign = t
            .iter()
            .find(|p| p.label.is_benign())
            .map(|p| p.key)
            .unwrap();
        let ipds = flow_ipds(&t, benign);
        let mean = ipds.iter().map(|d| d.as_nanos() as f64).sum::<f64>() / ipds.len() as f64;
        let var = ipds
            .iter()
            .map(|d| (d.as_nanos() as f64 - mean).powi(2))
            .sum::<f64>()
            / ipds.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv < 0.2, "benign IPD coefficient of variation {cv}");
    }
}
