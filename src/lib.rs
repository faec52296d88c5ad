//! # SmartWatch
//!
//! A from-scratch Rust reproduction of *SmartWatch: Accurate Traffic
//! Analysis and Flow-state Tracking for Intrusion Prevention using
//! SmartNICs* (Panda et al., CoNEXT 2021).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! - [`net`] — packet/flow model, symmetric hashing, wire codecs.
//! - [`trace`] — synthetic CAIDA/DC-style workloads and attack generators.
//! - [`sketch`] — baseline sketches (CountMin, Elastic, MV, NitroSketch…).
//! - [`p4sim`] — P4 switch simulator: match-action pipeline, Sonata-style
//!   queries, iterative refinement, FlowLens/NetWarden baselines.
//! - [`snic`] — SmartNIC simulator: the FlowCache, eviction policies,
//!   General/Lite reconfiguration, micro-engine cycle model.
//! - [`host`] — host subsystem: snapshot aggregation, the flow store, timing
//!   wheel, Zeek-style protocol analysis.
//! - [`detect`] — all 17 attack detectors plus the statistics toolkit.
//! - [`core`] — the SmartWatch platform itself: the cooperative two-stage
//!   detector with its switch↔sNIC control loop.
//! - [`runtime`] — the sharded wall-clock engine: the same pipeline on
//!   real OS threads with RSS dispatch, bounded queues, and a host
//!   escalation pool, measured in Mpps.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use smartwatch_core as core;
pub use smartwatch_detect as detect;
pub use smartwatch_host as host;
pub use smartwatch_net as net;
pub use smartwatch_p4sim as p4sim;
pub use smartwatch_runtime as runtime;
pub use smartwatch_sketch as sketch;
pub use smartwatch_snic as snic;
pub use smartwatch_trace as trace;
