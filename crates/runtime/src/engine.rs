//! The engine: one RX dispatcher feeding N shard threads over one
//! bounded SPSC lane each — or C fused run-to-completion cores, each
//! with its own ingest — a host escalation pool, graceful drain, and a
//! wall-clock throughput/latency report.
//!
//! ```text
//!                             ┌─ shard 0: FlowCache + suite ─┐
//! packets → rxq 0:        →   │  shard 1: …                  │ → verdicts
//!           digest+steer      │  shard N-1: …                │   (epoch-
//!           (N SPSC lanes)    └── suspects ─→ host pool ─────┘    stamped log)
//! ```
//!
//! Multi-ingest is the run-to-completion topology's: the offered trace
//! is pre-split into C per-core sub-streams by
//! [`smartwatch_net::hash::shard_for_digest`] — the software model of
//! flow-affine NIC RSS — so each core owns complete flows and
//! intra-flow order survives.
//!
//! Unlike everything else in the workspace, this engine runs on the
//! *wall clock*: `run()` spawns real OS threads, measures elapsed time
//! with `std::time::Instant`, and reports Mpps. Packet `ts` fields are
//! replay metadata here, not the clock. Counters remain exact — the
//! conservation invariant (offered = processed + ingest_drop + shed +
//! steer_drop, per shard, per ingest unit, and in total) holds for every
//! shard count, topology, and pacing mode.
//!
//! Module map: `config` (what to run: [`EngineConfig`], [`Pace`],
//! [`FrameSource`]), `lifecycle` (the [`Engine`], its garage of parked
//! pools and per-shard flow state, and the one open → topology → close
//! segment every `run*` call goes through), `ingest` (the one feed × sink loop both
//! topologies' ingest threads run) and `report` ([`EngineReport`], the
//! conservation law, the `/stats.json` renderers).

mod config;
mod ingest;
mod lifecycle;
mod report;

pub use config::{DatapathMode, EngineConfig, FrameSource, Pace};
pub use lifecycle::Engine;
pub(crate) use report::summary;
pub use report::{hist_value, EngineReport, FlowCacheSummary, StageSnapshot};
