//! `smartwatch-runtime` — the sharded wall-clock data-plane engine.
//!
//! Everything else in the workspace runs under simulated time: traces
//! carry their own timestamps and components advance a virtual clock.
//! This crate executes the same pipeline — ingest → RSS shard →
//! FlowCache update → detector suite → host escalation → verdict — on
//! real OS threads at wall-clock speed, measured in Mpps.
//!
//! Layout:
//!
//! * `batch` — the hot-path currency: pre-digested packets (canonical
//!   key + symmetric hash computed once at dispatch), the one-buffer
//!   lane message, and the bounded idle backoff.
//! * [`frame`] — fixed-capacity frame buffers ([`FramePool`]), off the
//!   engine's path: the wire ingest path parses each frame where its
//!   [`smartwatch_net::FrameStore`] holds it. Kept for the benchmark's
//!   layer walk, its one user.
//! * [`spsc`] — bounded single-producer/single-consumer batch queues
//!   with explicit backpressure or accounted drops (never silent loss).
//!   Both halves move values through a slot by exchange, so the ring is
//!   also the batch buffers' return path: a lane holds
//!   `queue_batches + 2` of them and needs no pool beside it.
//! * [`control`] — the epoch-stamped verdict log taking host decisions
//!   to each flow's shard at batch boundaries. Bounded: the applied
//!   prefix compacts away once every registered reader is past it.
//! * [`books`] — where every offered packet's trip ended: the
//!   [`Disposition`] enum, the [`Count`] name table and the one
//!   [`Ledger`] type that is the hot-loop tally, the registry counters,
//!   the report, a `/stats.json` row and a summary line.
//! * [`escalate`] — the host-side worker pool ([`HostPool`]: N threads
//!   each running a [`smartwatch_host::HostNf`]) plus the default
//!   [`TriageNf`] escalation triage.
//! * [`shard`] — the per-thread worker: one FlowCache partition, one
//!   detector suite, no cross-shard synchronisation on the packet path.
//!   A pipeline shard's ingest arrives over one lane. The worker lives for one segment; its per-flow memory (`FlowState`:
//!   cache, suite, verdict sets, triage tables) lives as long as the
//!   engine.
//! * [`reference`] — the engine's oracle: the same shards walked one
//!   packet at a time on one thread ([`reference::walk_shards`]), which every
//!   flat-out inline-triage run must equal byte for byte.
//! * [`engine`] — the [`Engine`]: one RX dispatcher feeding the shards
//!   over one SPSC lane each, pacing ([`Pace`]), graceful drain, and
//!   the merged [`EngineReport`]. A second thread topology,
//!   [`DatapathMode::Rtc`] — the one with many ingest units — fuses
//!   dispatcher and shard into C run-to-completion `sw-core-{i}`
//!   threads (pre-split by `shard_for_digest`, zero queue crossings on
//!   the fast path) with decisions and counters identical to the
//!   pipeline for the same seed. Both topologies run the same
//!   ingest loop (one feed × sink stage) under the same segment
//!   lifecycle; the module splits into `config`, `lifecycle`, `ingest`
//!   and `report`.
//!
//! Both topologies place flows by the *symmetric* shard mapping
//! [`smartwatch_net::hash::shard_for_digest`] over the dispatch-time
//! digest, so both directions of a flow always land on the same shard
//! and per-shard state needs no locks.
//!
//! Telemetry flows through [`smartwatch_telemetry`]: per-shard counters
//! (`runtime.shard.*{shard=N}`) and per-ingest-unit counters
//! (`runtime.queue.*{queue=Q}`), one per [`Count`] the axis keeps,
//! queue-depth gauges, and aggregate per-stage latency histograms
//! (`runtime.stage.*`). Those are sampled by one clock per engine thread
//! (`obs`): one decision per unit of work, one read per sampled
//! boundary, the same readings a chrome-trace span is made of.
//!
//! In service mode the engine stays resident across segments:
//! [`service`] carries the bounded admin mailbox ([`AdminCmd`]) drained
//! by the controller at epoch boundaries, [`Engine::request_drain`]
//! quiesces a running segment gracefully, and the lanes (with the
//! batch buffers in them) and every shard's flow state are
//! parked between runs, each under its thread's index, so steady
//! state allocates nothing: the first segment builds each shard's
//! FlowCache and detector tables, every later one gets them back
//! through an exact in-place reset
//! (`runtime.flowstate.{resets, resident_bytes, table_slots,
//! table_probe_mean}`). The controller is parked the same way — one for the life
//! of the engine, with its epoch counter, rate baselines and the
//! operator's pins — so [`EngineReport::control`] is a lifetime view
//! and a pin holds from the first packet of every later segment.
//!
//! With [`EngineConfig::with_control`] the engine additionally runs the
//! [`smartwatch_control`] adaptive control plane: a controller thread
//! closes the paper's feedback loop each epoch — Algorithm 4 mode
//! switching applied to the live per-shard FlowCaches, heavy-hitter
//! whitelist promotion, RCU-published steering snapshots enforced at
//! dispatch, and the operator's shed pin with accounted drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Scoped to `shard.rs`, which denies it (`clippy.toml`).
#![allow(clippy::disallowed_methods)]

pub(crate) mod batch;
pub mod books;
pub mod control;
pub mod engine;
pub mod escalate;
pub mod frame;
pub(crate) mod obs;
pub mod reference;
pub mod service;
pub mod shard;
pub mod spsc;

pub use control::{ControlLog, LogReader};
pub use engine::{
    hist_value, DatapathMode, Engine, EngineConfig, EngineReport, FlowCacheSummary, FrameSource,
    Pace, StageSnapshot,
};
pub use escalate::{HostPool, TriageNf};
pub use frame::{FramePool, FrameSlot};
pub use smartwatch_control::{
    AdminCmd, ControlConfig, ControlEvent, ControlReport, DecisionRecord,
};
