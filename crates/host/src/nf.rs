//! Host network-function framework (paper §3.4).
//!
//! The host exposes distinct SR-IOV ports, one per supported function
//! (Zeek-style IDS scripts, the timing wheel, big-memory NFs); the sNIC
//! steers escalated packets to the right port. This module holds the
//! contract: the [`HostNf`] trait and the [`Verdict`] it hands back. The
//! wall-clock engine's NF is `smartwatch_runtime::TriageNf`, run on
//! `smartwatch_runtime::HostPool` worker threads behind a bounded ring
//! or inline on the shard.

use smartwatch_net::Packet;

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

    /// Function name (diagnostics).
    fn name(&self) -> &str;
}
