//! # smartwatch-core
//!
//! The SmartWatch platform: the paper's primary contribution, wiring the
//! P4Switch simulator, the sNIC FlowCache and the host subsystem into a
//! cooperative two-stage intrusion-prevention monitor.
//!
//! - [`platform`] — the [`platform::SmartWatch`] pipeline with
//!   its switch↔sNIC control loop (steering, whitelisting, blacklisting).
//! - [`suite`] — all online detectors bound to one packet stream, with
//!   per-packet host-escalation decisions (Table 2's partitioning).
//! - [`tier`] — the sNIC tier both clocks step per packet: FlowCache +
//!   suite + §3.2's pinning rule ([`SnicTier`]).
//! - [`deploy`] — the four deployment architectures of Fig. 3 and the
//!   resource-scaling model.
//! - [`eval`] — ground-truth extraction and detection-rate scoring for
//!   the Table 4 comparison.
//!
//! ```
//! use smartwatch_core::deploy::DeployMode;
//! use smartwatch_core::platform::{standard_queries, PlatformConfig, SmartWatch};
//! use smartwatch_trace::background::{preset_trace, Preset};
//! use smartwatch_net::Dur;
//!
//! let trace = preset_trace(Preset::Caida2018, 50, Dur::from_secs(1), 1);
//! let sw = SmartWatch::new(PlatformConfig::new(DeployMode::SmartWatch), standard_queries());
//! let report = sw.run(trace.packets());
//! assert_eq!(report.metrics.total, trace.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod eval;
pub mod platform;
pub mod suite;
pub mod tier;

pub use deploy::{DeployMode, Resources, ScalingModel};
pub use eval::{detection_rate, GroundTruth};
pub use suite::{DetectorSuite, HostNeed, SuiteOutcome};
pub use tier::SnicTier;
