//! # smartwatch-host
//!
//! The host half of SmartWatch (paper §3.4): the big-memory backstop for
//! the sNIC and the home of the NFs too complex to offload.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Host flow cache + aggregation of repeated sNIC exports | [`aggregate`] |
//! | Redis-backed flow logging per measurement interval | [`flowlog`] |
//! | Hashed timing wheel for RST buffering (Varghese–Lauck) | [`wheel`] |
//! | Zeek-style TCP connection state machine | [`conn`] |
//! | Zeek session heuristics + certificate/ticket registry | [`zeek`] |
//! | SR-IOV NF framework (trait, per-port dispatch) | [`nf`] |
//! | PCIe / copy / NF cost model | [`cost`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod conn;
pub mod cost;
pub mod flowlog;
pub mod nf;
pub mod wheel;
pub mod zeek;

pub use aggregate::SnapshotAggregator;
pub use conn::{ConnEvent, ConnRecord, ConnState, ConnTable, Swept};
pub use cost::HostCostModel;
pub use flowlog::FlowLogStore;
pub use nf::{HostNf, HostRuntime, Verdict};
pub use wheel::TimingWheel;
pub use zeek::{ArtefactRegistry, AuthHeuristic, AuthOutcome};
