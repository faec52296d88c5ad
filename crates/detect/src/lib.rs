//! # smartwatch-detect
//!
//! Every attack detector in the paper's Tables 2 and 4, plus the
//! statistics toolkit they share.
//!
//! | Detector (paper row) | Module |
//! |---|---|
//! | SSH / FTP bruteforcing (§5.1.1) | [`auth`] |
//! | Expiring SSL certificates, Kerberos tickets | [`auth`] |
//! | In-sequence forged TCP RST (§5.1.2) | [`rst`] |
//! | Stealthy port scan + TCP incomplete flows (§5.1.3) | [`portscan`] |
//! | Slowloris (§2.1.2) | [`slowloris`] |
//! | DNS amplification | [`dnsamp`] |
//! | Covert timing channel (§5.2.1) | [`covert`] |
//! | Website fingerprinting (§5.2.2) | [`wfp`] |
//! | EarlyBird worms | [`worm`] |
//! | Micro-bursts (§5.3.2) | [`microburst`] |
//! | Heavy hitter / change / cardinality / flow size (§5.3.1) | [`volumetric`] |
//! | KS-test, TRW, Naive-Bayes, EWMA | [`stats`] |
//!
//! Detectors are deliberately *transport-agnostic*: they consume packets,
//! connection events, or exported flow records, so the same code runs
//! against the host-only, sNIC-host, and full-SmartWatch deployments in
//! the Table 4 comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod covert;
pub mod dnsamp;
pub mod microburst;
pub mod portscan;
pub mod rst;
pub mod slowloris;
pub mod stats;
pub mod volumetric;
pub mod wfp;
pub mod worm;

use smartwatch_net::{AttackKind, FlowKey, Ts};
use std::net::Ipv4Addr;

/// Count of state entries a detector examined — the handle the
/// constant-work-per-packet tests assert on. Only test builds count;
/// elsewhere `bump` compiles to nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Visited(#[cfg(test)] std::cell::Cell<usize>);

impl Visited {
    #[inline]
    pub(crate) fn bump(&self) {
        #[cfg(test)]
        self.0.set(self.0.get() + 1);
    }

    #[cfg(test)]
    pub(crate) fn get(&self) -> usize {
        self.0.get()
    }
}

/// What an alert points at.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Subject {
    /// A remote source address (scanner, bruteforcer…).
    Source(Ipv4Addr),
    /// A destination/victim address.
    Destination(Ipv4Addr),
    /// A specific connection.
    Flow(FlowKey),
    /// A content digest (worm signature, certificate, ticket).
    Digest(u64),
    /// A microburst event id.
    Burst(u32),
}

/// A detector alert.
#[derive(Clone, PartialEq, Debug)]
pub struct Alert {
    /// Attack class.
    pub kind: AttackKind,
    /// What the alert points at.
    pub subject: Subject,
    /// Virtual time of detection.
    pub ts: Ts,
    /// Human-readable detail.
    pub detail: String,
}

impl Alert {
    /// Construct an alert.
    pub(crate) fn new(
        kind: AttackKind,
        subject: Subject,
        ts: Ts,
        detail: impl Into<String>,
    ) -> Alert {
        Alert {
            kind,
            subject,
            ts,
            detail: detail.into(),
        }
    }
}
