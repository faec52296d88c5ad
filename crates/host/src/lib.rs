//! # smartwatch-host
//!
//! The host half of SmartWatch (paper §3.4): the big-memory backstop for
//! the sNIC and the home of the NFs too complex to offload.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Host flow store: one record per flow across every sNIC export | [`aggregate`] |
//! | Hashed timing wheel for RST buffering (Varghese–Lauck) | [`wheel`] |
//! | Zeek-style TCP connection state machine | [`conn`] |
//! | Zeek session heuristics + certificate/ticket registry | [`zeek`] |
//! | SR-IOV NF contract (trait, verdicts) | [`nf`] |
//! | PCIe / copy / NF cost model | [`cost`] |
//!
//! The paper's Redis flow log is not modelled as a second store: the
//! host keeps one cumulative aggregator for the run, and what an
//! offline analysis would read from the log is that store's records.
//! The aggregator keeps its counts in plain integers and holds no
//! metric handle. It names its metrics in one table —
//! [`aggregate::COUNTERS`] / [`aggregate::GAUGES`] (`host.aggregate.*`)
//! — which its owner (the platform's control loop) publishes at its
//! interval ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod conn;
pub mod cost;
pub mod nf;
pub mod wheel;
pub mod zeek;

pub use aggregate::SnapshotAggregator;
pub use conn::{ConnEvent, ConnRecord, ConnState, ConnTable, Swept};
pub use cost::HostCostModel;
pub use nf::{HostNf, Verdict};
pub use wheel::TimingWheel;
pub use zeek::{ArtefactRegistry, AuthHeuristic, AuthOutcome};
