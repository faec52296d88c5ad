//! `smartwatch-control` — the wall-clock adaptive control plane.
//!
//! The paper's headline loop (§3.3/§4) is *cooperative*: a CME samples
//! the packet arrival rate, Algorithm 4's EWMA flips the FlowCache
//! between General and Lite, and host verdicts flow back to the switch
//! as whitelist/blacklist ("hoverboard") steering rules. This crate is
//! that loop as a reusable state machine for the runtime engine:
//!
//! * [`Controller`] — the epoch brain. Each epoch it consumes one
//!   [`EpochInput`] (per-shard offered and shed counts, escalation
//!   backlog, host verdicts, heavy-hitter candidates) and emits one
//!   [`EpochDecision`]: the epoch's [`DecisionRecord`] (per-shard
//!   [`Mode`], the operator's shed pin, what it saw) and — when the
//!   steering tables changed — a freshly built snapshot. Its bounded ring of
//!   records is the one account of the epochs: the mode/shed timeline
//!   is what changed from one record to the next. The
//!   controller is pure state: no threads, no clocks, so the same input
//!   stream always yields byte-identical decisions (see [`sim`]). It is
//!   also the one owner of the operator's overrides ([`AdminCmd`],
//!   applied by [`Controller::admin`]) and is built to outlive a burst
//!   of traffic ([`Controller::new_segment`]).
//! * [`SteeringSnapshot`] — the immutable steering table (whitelist +
//!   blacklist digests + shed flag), published RCU-style through a
//!   [`SnapshotCell`]. Readers hold a [`SnapshotReader`] that caches an
//!   `Arc`: the per-packet path dereferences plain memory, and a single
//!   atomic version load per *batch* detects publications — no lock is
//!   ever taken on the packet path.
//! * [`ModeCell`] — one atomic cell per shard carrying the current
//!   Algorithm 4 decision; shards apply it to their live FlowCache at
//!   batch boundaries via `FlowCache::set_mode` (lazy Algorithm 3
//!   cleanup, never a stop-the-world rebuild).
//! * [`sim`] — a deterministic virtual-time drive of the controller
//!   over a synthetic load spike, used by the determinism tests and the
//!   `control-sim` experiment.
//!
//! The wall-clock wiring — the thread that samples shard telemetry,
//! polls the verdict log and publishes decisions — lives in
//! `smartwatch-runtime`, which depends on this crate.
//!
//! Telemetry: the controller keeps its counts in plain integers and
//! holds no metric handle. Its name tables — [`controller::COUNTERS`]
//! (`control.epochs`, `control.mode_switches`,
//! `control.whitelist_promotions`, `control.shed_packets`,
//! `control.whitelist_expired`, `control.blacklist_expired`,
//! `control.snapshot_publishes`), [`controller::GAUGES`]
//! (`control.shed_active`) and [`controller::SHARD_GAUGES`]
//! (`control.smoothed_mpps{shard=N}`, `control.mode{shard=N}`) — are
//! published by the runtime's controller thread once per epoch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod controller;
pub mod sim;
pub mod snapshot;

pub use admin::AdminCmd;
pub use controller::{
    ControlConfig, ControlEvent, ControlReport, Controller, DecisionRecord, EpochDecision,
    EpochInput, ShardSample,
};
pub use sim::{simulate, LoadProfile, SimOutcome};
pub use snapshot::{ModeCell, SnapshotCell, SnapshotReader, SteeringSnapshot};
