//! SmartWatch unified observability.
//!
//! Three pillars, all deterministic and dependency-free:
//!
//! 1. **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!    a lock-free metric registry. Handles are `Arc`-shared atomics, so a
//!    writer records with a relaxed `fetch_add` while the registry can
//!    snapshot at any time. Histograms are log-linear (HDR-style) with a
//!    bounded relative error of 1/32 ≈ 3.2% per recorded value, mergeable
//!    across shards, and queryable for p50/p90/p99/p99.9. The simulated
//!    components keep plain-integer books and hold no handle: their
//!    owner carries those books into the registry through a
//!    [`Publisher`] over the component's name table.
//! 2. **Tracing** ([`Tracer`], [`TraceShard`]): sim-time event traces
//!    stamped with the virtual clock (`net::Ts`), never the wall clock —
//!    two same-seed runs produce byte-identical traces. Each shard is a
//!    fixed-capacity ring that counts what it drops, and the whole trace
//!    exports as chrome-trace-viewer JSON (load in `chrome://tracing` or
//!    Perfetto).
//! 3. **Exporters** ([`export`]): JSON for machines and Prometheus
//!    exposition format for scrapers. Both render a [`Snapshot`] in
//!    deterministic (sorted) order.
//!
//! The experiment harness threads one [`Registry`] + [`Tracer`] pair
//! through the platform tiers; `repro <exp> --metrics-json out.json
//! --trace-out trace.json` dumps both.
//!
//! The wall-clock engine adds three more pieces on the same
//! foundations: [`WallAnchor`] maps real `Instant`s onto the trace
//! axis so OS threads get chrome-trace tracks, [`FlightRecorder`]
//! keeps a black-box ring of drop/mode-switch events per thread,
//! written only on drop and control paths, and [`http::HttpServer`]
//! serves `/metrics`, `/stats.json` and `/flight.json` live from
//! snapshot reads using nothing beyond `std::net`.

#![forbid(unsafe_code)]

pub mod export;
mod flight;
mod hist;
pub mod http;
pub mod mem;
mod metrics;
mod publish;
mod trace;
mod wallclock;

pub use flight::{FlightEvent, FlightKind, FlightRecorder, FlightRing};
pub use hist::{HistSnapshot, Histogram, QUANTILE_ERROR_BOUND};
pub use metrics::{Counter, Gauge, MetricId, Registry};
pub use publish::{Level, Publisher, Tally};
pub use trace::{TraceShard, Tracer};
pub use wallclock::WallAnchor;
