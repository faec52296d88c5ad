//! Well-formed TCP session synthesis.
//!
//! SmartWatch's host subsystem runs a Zeek-style connection state machine,
//! so background and attack traffic must be *protocol-plausible*: real
//! three-way handshakes, monotonically advancing sequence numbers, sensible
//! ACKs, FIN or RST teardowns. This module turns a declarative
//! [`SessionSpec`] into the packet exchange it implies.

use crate::dist::Exp;
use rand::Rng;
use smartwatch_net::{Dur, FlowKey, Label, Packet, PacketBuilder, TcpFlags, Ts};
use std::net::Ipv4Addr;

/// How a TCP session ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Teardown {
    /// Orderly FIN/ACK exchange.
    Fin,
    /// Abortive RST from the client.
    Rst,
    /// Connection is abandoned without teardown (e.g. Slowloris keeps it
    /// open; incomplete flows never progress).
    None,
}

/// How far a connection attempt progresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HandshakeOutcome {
    /// Full SYN → SYN/ACK → ACK establishment.
    Established,
    /// Server answers RST (closed port / refused service).
    Refused,
    /// No response at all (filtered port, dead host).
    NoResponse,
}

/// Declarative description of one TCP session.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// Client address and ephemeral port.
    pub client: (Ipv4Addr, u16),
    /// Server address and service port.
    pub server: (Ipv4Addr, u16),
    /// SYN departure time.
    pub start: Ts,
    /// Round-trip time between client and server.
    pub rtt: Dur,
    /// How the handshake goes.
    pub outcome: HandshakeOutcome,
    /// Number of data segments sent client→server after establishment.
    pub c2s_data_pkts: u32,
    /// Number of data segments sent server→client after establishment.
    pub s2c_data_pkts: u32,
    /// Payload bytes per client→server segment.
    pub c2s_payload: u16,
    /// Payload bytes per server→client segment.
    pub s2c_payload: u16,
    /// Mean gap between successive data segments.
    pub mean_gap: Dur,
    /// How the session ends.
    pub teardown: Teardown,
    /// Ground-truth label stamped on every packet of the session.
    pub label: Label,
    /// Payload digest stamped on server→client data segments (used to model
    /// application-visible artefacts like certificates; zero = none).
    pub s2c_digest: u64,
    /// Payload digest stamped on client→server data segments.
    pub c2s_digest: u64,
}

impl SessionSpec {
    /// The canonical flow key of this session.
    pub fn flow(&self) -> FlowKey {
        FlowKey::tcp(self.client.0, self.client.1, self.server.0, self.server.1)
            .canonical()
            .0
    }
}

/// Synthesise the packets of one session. Data-segment gaps are jittered
/// exponentially around `mean_gap` using `rng`; all other timing is
/// deterministic from the spec.
pub fn tcp_session<R: Rng + ?Sized>(rng: &mut R, spec: &SessionSpec) -> Vec<Packet> {
    let mut pkts = Vec::new();
    tcp_session_into(rng, spec, &mut pkts);
    pkts
}

/// [`tcp_session`] appending to `pkts`: a generator emitting many
/// sessions packs them into its one output buffer.
pub(crate) fn tcp_session_into<R: Rng + ?Sized>(
    rng: &mut R,
    spec: &SessionSpec,
    pkts: &mut Vec<Packet>,
) {
    let c2s = FlowKey::tcp(spec.client.0, spec.client.1, spec.server.0, spec.server.1);
    let s2c = c2s.reversed();
    let half_rtt = Dur::from_nanos(spec.rtt.as_nanos() / 2);
    let mut t = spec.start;

    // Client and server initial sequence numbers, deterministic per flow.
    let mut c_seq: u32 = 0x1000;
    let mut s_seq: u32 = 0x8000;

    // SYN.
    pkts.push(
        PacketBuilder::new(c2s, t)
            .flags(TcpFlags::SYN)
            .seq(c_seq)
            .label(spec.label)
            .build(),
    );
    c_seq = c_seq.wrapping_add(1);

    match spec.outcome {
        HandshakeOutcome::NoResponse => return,
        HandshakeOutcome::Refused => {
            t += half_rtt;
            pkts.push(
                PacketBuilder::new(s2c, t)
                    .flags(TcpFlags::RST_ACK)
                    .seq(0)
                    .ack(c_seq)
                    .label(spec.label)
                    .build(),
            );
            return;
        }
        HandshakeOutcome::Established => {}
    }

    // SYN/ACK.
    t += half_rtt;
    pkts.push(
        PacketBuilder::new(s2c, t)
            .flags(TcpFlags::SYN_ACK)
            .seq(s_seq)
            .ack(c_seq)
            .label(spec.label)
            .build(),
    );
    s_seq = s_seq.wrapping_add(1);

    // Final ACK of the handshake.
    t += half_rtt;
    pkts.push(
        PacketBuilder::new(c2s, t)
            .flags(TcpFlags::ACK)
            .seq(c_seq)
            .ack(s_seq)
            .label(spec.label)
            .build(),
    );

    // Interleave data segments: client requests then server responses, in
    // proportion to the requested counts.
    let gap = Exp::new(spec.mean_gap.as_nanos().max(1) as f64);
    let total = spec.c2s_data_pkts + spec.s2c_data_pkts;
    let mut c_sent = 0u32;
    let mut s_sent = 0u32;
    for i in 0..total {
        t += Dur::from_nanos(gap.sample(rng) as u64);
        // Alternate proportionally so both directions progress together.
        let pick_client = if c_sent >= spec.c2s_data_pkts {
            false
        } else if s_sent >= spec.s2c_data_pkts {
            true
        } else {
            // Deterministic proportional interleave keyed by index.
            (u64::from(i) * u64::from(spec.c2s_data_pkts)) / u64::from(total.max(1))
                >= u64::from(c_sent)
        };
        if pick_client {
            pkts.push(
                PacketBuilder::new(c2s, t)
                    .flags(TcpFlags::PSH | TcpFlags::ACK)
                    .seq(c_seq)
                    .ack(s_seq)
                    .payload(spec.c2s_payload)
                    .payload_digest(spec.c2s_digest)
                    .label(spec.label)
                    .build(),
            );
            c_seq = c_seq.wrapping_add(u32::from(spec.c2s_payload));
            c_sent += 1;
        } else {
            pkts.push(
                PacketBuilder::new(s2c, t)
                    .flags(TcpFlags::PSH | TcpFlags::ACK)
                    .seq(s_seq)
                    .ack(c_seq)
                    .payload(spec.s2c_payload)
                    .payload_digest(spec.s2c_digest)
                    .label(spec.label)
                    .build(),
            );
            s_seq = s_seq.wrapping_add(u32::from(spec.s2c_payload));
            s_sent += 1;
        }
    }

    // Teardown.
    match spec.teardown {
        Teardown::Fin => {
            t += half_rtt;
            pkts.push(
                PacketBuilder::new(c2s, t)
                    .flags(TcpFlags::FIN_ACK)
                    .seq(c_seq)
                    .ack(s_seq)
                    .label(spec.label)
                    .build(),
            );
            c_seq = c_seq.wrapping_add(1);
            t += half_rtt;
            pkts.push(
                PacketBuilder::new(s2c, t)
                    .flags(TcpFlags::FIN_ACK)
                    .seq(s_seq)
                    .ack(c_seq)
                    .label(spec.label)
                    .build(),
            );
            s_seq = s_seq.wrapping_add(1);
            t += half_rtt;
            pkts.push(
                PacketBuilder::new(c2s, t)
                    .flags(TcpFlags::ACK)
                    .seq(c_seq)
                    .ack(s_seq)
                    .label(spec.label)
                    .build(),
            );
        }
        Teardown::Rst => {
            t += half_rtt;
            pkts.push(
                PacketBuilder::new(c2s, t)
                    .flags(TcpFlags::RST)
                    .seq(c_seq)
                    .label(spec.label)
                    .build(),
            );
        }
        Teardown::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Handshake, three data packets each way, FIN teardown.
    fn spec() -> SessionSpec {
        SessionSpec {
            client: (Ipv4Addr::new(10, 0, 0, 5), 40000),
            server: (Ipv4Addr::new(10, 9, 9, 9), 443),
            start: Ts::from_secs(1),
            rtt: Dur::from_micros(200),
            outcome: HandshakeOutcome::Established,
            c2s_data_pkts: 3,
            s2c_data_pkts: 3,
            c2s_payload: 512,
            s2c_payload: 1200,
            mean_gap: Dur::from_millis(1),
            teardown: Teardown::Fin,
            label: Label::Benign,
            s2c_digest: 0,
            c2s_digest: 0,
        }
    }

    fn gen(spec: &SessionSpec) -> Vec<Packet> {
        tcp_session(&mut StdRng::seed_from_u64(1), spec)
    }

    #[test]
    fn established_session_shape() {
        let pkts = gen(&spec());
        // SYN, SYN/ACK, ACK, 6 data, FIN, FIN/ACK, ACK
        assert_eq!(pkts.len(), 3 + 6 + 3);
        assert!(pkts[0].flags.is_syn_only());
        assert!(pkts[1].flags.is_syn_ack());
        assert!(pkts[2].flags.ack() && !pkts[2].flags.syn());
        assert!(pkts[pkts.len() - 3].flags.fin());
    }

    #[test]
    fn timestamps_monotonic() {
        let pkts = gen(&spec());
        for w in pkts.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn sequence_numbers_advance_with_payload() {
        let pkts = gen(&spec());
        let c2s: Vec<&Packet> = pkts
            .iter()
            .filter(|p| p.key.src_port == 40000 && p.payload_len > 0)
            .collect();
        for w in c2s.windows(2) {
            assert_eq!(w[1].seq, w[0].seq.wrapping_add(u32::from(w[0].payload_len)));
        }
    }

    #[test]
    fn refused_yields_syn_rst() {
        let s = SessionSpec {
            outcome: HandshakeOutcome::Refused,
            ..spec()
        };
        let pkts = gen(&s);
        assert_eq!(pkts.len(), 2);
        assert!(pkts[0].flags.is_syn_only());
        assert!(pkts[1].flags.rst());
        // RST comes from the server.
        assert_eq!(pkts[1].key.src_port, 443);
    }

    #[test]
    fn no_response_yields_lone_syn() {
        let s = SessionSpec {
            outcome: HandshakeOutcome::NoResponse,
            ..spec()
        };
        assert_eq!(gen(&s).len(), 1);
    }

    #[test]
    fn rst_teardown() {
        let s = SessionSpec {
            teardown: Teardown::Rst,
            ..spec()
        };
        let pkts = gen(&s);
        assert!(pkts.last().unwrap().flags.rst());
    }

    #[test]
    fn abandoned_session_has_no_teardown() {
        let s = SessionSpec {
            teardown: Teardown::None,
            ..spec()
        };
        let pkts = gen(&s);
        assert!(!pkts.last().unwrap().flags.fin());
        assert!(!pkts.last().unwrap().flags.rst());
    }

    #[test]
    fn all_packets_share_session_flow() {
        let s = spec();
        let flow = s.flow();
        for p in gen(&s) {
            assert_eq!(p.key.canonical().0, flow);
        }
    }

    #[test]
    fn data_counts_respected() {
        let s = SessionSpec {
            c2s_data_pkts: 5,
            s2c_data_pkts: 2,
            ..spec()
        };
        let pkts = gen(&s);
        let c = pkts
            .iter()
            .filter(|p| p.payload_len > 0 && p.key.src_port == 40000)
            .count();
        let v = pkts
            .iter()
            .filter(|p| p.payload_len > 0 && p.key.src_port == 443)
            .count();
        assert_eq!((c, v), (5, 2));
    }

    #[test]
    fn labels_propagate() {
        use smartwatch_net::AttackKind;
        let s = SessionSpec {
            label: Label::attack(AttackKind::Slowloris, 9),
            ..spec()
        };
        assert!(gen(&s)
            .iter()
            .all(|p| p.label.kind() == Some(AttackKind::Slowloris)));
    }
}
