//! The engine: R RX-queue dispatchers feeding N shard threads over an
//! R×N mesh of bounded SPSC lanes, a host escalation pool, graceful
//! drain, and a wall-clock throughput/latency report.
//!
//! ```text
//!            ┌ rxq 0: digest+steer ┐   ┌─ shard 0: FlowCache + suite ─┐
//! packets →  │ rxq 1: …            │ × │  shard 1: …                  │ → verdicts
//! (RSS       │   R×N SPSC lanes    │   │  shard N-1: …                │   (epoch-
//!  split)    └ rxq R-1: …          ┘   └── suspects ─→ host pool ─────┘    stamped log)
//! ```
//!
//! The offered trace is pre-split into R per-queue sub-streams by
//! flow digest ([`smartwatch_net::hash::queue_for_digest`], a salted
//! splitmix64 remix — the software model of multi-queue NIC RSS), so
//! each dispatcher owns complete flows and intra-flow order survives.
//! Every (queue, shard) pair gets its own single-producer ring; shards
//! merge their R lanes under a [`MergePolicy`](crate::MergePolicy).
//!
//! Unlike everything else in the workspace, this engine runs on the
//! *wall clock*: `run()` spawns real OS threads, measures elapsed time
//! with `std::time::Instant`, and reports Mpps. Packet `ts` fields are
//! replay metadata here, not the clock. Counters remain exact — the
//! conservation invariant (offered = processed + ingest_drop + shed +
//! steer_drop, per shard, per queue, and in total) holds for every
//! shard count, queue count, and pacing mode.
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
pub use report::{hist_value, EngineReport, FlowCacheSummary, StageSnapshot};
