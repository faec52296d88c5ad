//! Host network-function framework (paper §3.4).
//!
//! The host exposes distinct SR-IOV ports, one per supported function
//! (Zeek-style IDS scripts, the timing wheel, big-memory NFs); the sNIC
//! steers escalated packets to the right port. This module provides the
//! dispatch fabric: a [`HostNf`] trait and a synchronous
//! [`HostRuntime`] used by the deterministic experiments. (The threaded
//! side — NFs on worker threads behind a bounded ring — is
//! `smartwatch_runtime::HostPool`.)

use smartwatch_net::Packet;
use std::collections::HashMap;

/// A verdict an NF can hand back to the platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Flow is benign: whitelist it on the switch, unpin on the sNIC.
    Whitelist(smartwatch_net::FlowKey),
    /// Flow (or source) is malicious: blacklist it on the switch.
    Blacklist(smartwatch_net::FlowKey),
    /// Raise an operator alert with a reason string.
    Alert(String),
    /// Drop the packet (e.g. a confirmed-forged RST never reaches the
    /// destination).
    Drop,
}

/// A host network function attached to one SR-IOV port.
pub trait HostNf: Send {
    /// Process one escalated packet, returning any verdicts.
    fn on_packet(&mut self, pkt: &Packet) -> Vec<Verdict>;

    /// Periodic housekeeping at virtual time `now` (timeout sweeps etc.).
    fn on_tick(&mut self, _now: smartwatch_net::Ts) -> Vec<Verdict> {
        Vec::new()
    }

    /// Function name (diagnostics).
    fn name(&self) -> &str;
}

/// Synchronous dispatch runtime: deterministic, used by experiments.
#[derive(Default)]
pub struct HostRuntime {
    ports: HashMap<u16, Box<dyn HostNf>>,
    /// Packets dispatched per port.
    pub dispatched: HashMap<u16, u64>,
    /// Packets that arrived for an unbound port.
    pub unrouted: u64,
}

impl HostRuntime {
    /// Empty runtime.
    pub fn new() -> HostRuntime {
        HostRuntime::default()
    }

    /// Bind an NF to an SR-IOV port id.
    pub fn bind(&mut self, port: u16, nf: Box<dyn HostNf>) {
        self.ports.insert(port, nf);
    }

    /// Dispatch one packet to a port's NF.
    pub fn dispatch(&mut self, port: u16, pkt: &Packet) -> Vec<Verdict> {
        match self.ports.get_mut(&port) {
            Some(nf) => {
                *self.dispatched.entry(port).or_default() += 1;
                nf.on_packet(pkt)
            }
            None => {
                self.unrouted += 1;
                Vec::new()
            }
        }
    }

    /// Tick every NF.
    pub fn tick(&mut self, now: smartwatch_net::Ts) -> Vec<Verdict> {
        let mut out = Vec::new();
        for nf in self.ports.values_mut() {
            out.extend(nf.on_tick(now));
        }
        out
    }

    /// Bound port ids.
    pub fn ports(&self) -> Vec<u16> {
        let mut p: Vec<u16> = self.ports.keys().copied().collect();
        p.sort_unstable();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    struct CountingNf {
        name: String,
        seen: u64,
        alert_every: u64,
    }

    impl HostNf for CountingNf {
        fn on_packet(&mut self, _pkt: &Packet) -> Vec<Verdict> {
            self.seen += 1;
            if self.seen.is_multiple_of(self.alert_every) {
                vec![Verdict::Alert(format!("{}:{}", self.name, self.seen))]
            } else {
                Vec::new()
            }
        }

        fn name(&self) -> &str {
            &self.name
        }
    }

    fn pkt() -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4,
            Ipv4Addr::new(10, 0, 0, 2),
            22,
        );
        PacketBuilder::new(key, Ts::ZERO).build()
    }

    #[test]
    fn dispatch_routes_by_port() {
        let mut rt = HostRuntime::new();
        rt.bind(
            1,
            Box::new(CountingNf {
                name: "zeek".into(),
                seen: 0,
                alert_every: 2,
            }),
        );
        rt.bind(
            2,
            Box::new(CountingNf {
                name: "wheel".into(),
                seen: 0,
                alert_every: 1,
            }),
        );
        assert!(rt.dispatch(1, &pkt()).is_empty());
        let v = rt.dispatch(1, &pkt());
        assert_eq!(v, vec![Verdict::Alert("zeek:2".into())]);
        let v = rt.dispatch(2, &pkt());
        assert_eq!(v, vec![Verdict::Alert("wheel:1".into())]);
        assert_eq!(rt.dispatched[&1], 2);
        assert_eq!(rt.ports(), vec![1, 2]);
    }

    #[test]
    fn unbound_port_counts_unrouted() {
        let mut rt = HostRuntime::new();
        assert!(rt.dispatch(9, &pkt()).is_empty());
        assert_eq!(rt.unrouted, 1);
    }
}
