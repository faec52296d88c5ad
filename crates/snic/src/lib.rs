//! # smartwatch-snic
//!
//! The SmartNIC half of SmartWatch: the FlowCache data structure and a
//! cycle-cost simulator of the micro-engine array it runs on.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | FlowCache: P/E buffers, policies, pinning, rings (§3.2) | [`flowcache`], [`policy`], [`ring`] |
//! | Reconfigurable General/Lite modes, Algorithms 1 & 3 (§3.3) | [`flowcache`] |
//! | The cache's books → `snic.cache.*` / `snic.ring.*`, owner-published | [`publish`] |
//! | One flow hash per packet, every per-flow structure indexed by it (Alg. 1, §3.2) | [`flowtable`] |
//! | CME switch-over, Algorithm 4 (§9.4) | [`cme`] |
//! | sNIC hardware profiles & cycle model (Table 3, §4.1) | [`hw`] |
//! | Throughput / latency / loss simulation (Figs. 4–6, 11b) | [`des`] |
//! | Microburst log `L` and queue trigger (§5.3.2) | [`burstlog`] |
//! | Rejected Cuckoo-hash baseline ablation (§3.2) | [`cuckoo`] |
//!
//! The paper's Algorithm 2 (per-bucket update counters and a
//! test-and-set row lock, §9.1–9.2) exists because the Agilio sprays one
//! flow's packets across many PMEs. Here RSS gives every flow one owning
//! shard, the only writer of its FlowCache row, so single-writer
//! ownership replaces Alg. 2's atomics; [`hw`] still prices the atomic
//! add of an in-place update for the DES.

// `deny` rather than `forbid`: the two scoped exceptions are the
// software prefetch intrinsic in [`prefetch`] (unsafe by signature
// only; see the safety note there) and the `sched_setaffinity` FFI
// declaration in [`affinity`]. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod burstlog;
pub mod cme;
pub mod cuckoo;
pub mod des;
pub mod flowcache;
pub mod flowtable;
pub mod hw;
pub mod policy;
pub mod prefetch;
pub mod publish;
pub mod record;
pub mod ring;

pub use affinity::pin_current_thread;
pub use cme::SwitchOver;
pub use des::{simulate, simulate_instrumented, DesConfig, DesReport, LatencyDist};
pub use flowcache::{Access, CacheStats, FlowCache, FlowCacheConfig, Mode, Outcome, BURST};
pub use flowtable::{FlowTable, Keyed, TableStats};
pub use hw::{CycleCosts, HwProfile, BLUEFIELD, LIQUIDIO_TX2, NETRONOME_AGILIO_LX};
pub use policy::{CachePolicy, Policy};
pub use publish::CachePublisher;
pub use record::FlowRecord;
pub use ring::RingSet;
