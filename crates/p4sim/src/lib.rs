//! # smartwatch-p4sim
//!
//! The P4Switch half of SmartWatch's cooperative monitoring: a simulator
//! of the Tofino-class programmable switch the paper pairs with the sNIC.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Sonata-style aggregate queries (filter/map/distinct/reduce) | [`query`] |
//! | Pipeline, steering, whitelist/blacklist, SRAM accounting (§3.1) | [`switch`] |
//! | Iterative refinement: Sonata zoom vs SmartWatch steer (§3.1) | [`refine`] |
//! | FlowLens baseline (quantized flow markers) (§5.2) | [`flowlens`] |
//! | NetWarden baseline (per-bin sketches + pre-checks) (§5.2) | [`netwarden`] |
//!
//! The switch model is logical, not timing-accurate: Tofino forwards at
//! line rate regardless of programs; what constrains monitoring is SRAM
//! and the shapes of state a match-action pipeline can hold, which is
//! exactly what this crate accounts for.
//!
//! The switch and each refiner keep their counts in plain integers and
//! hold no metric handle. Their metric names live in one name table
//! each — [`switch::COUNTERS`] and [`switch::GAUGES`] (`p4.switch.*`),
//! [`refine::COUNTERS`] (`p4.refine.*{mode,query}`) — which the owner
//! (the platform's control loop) publishes at its interval ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flowlens;
pub mod netwarden;
pub mod query;
pub mod refine;
pub mod switch;
pub mod table;

pub use flowlens::{Feature, FlowLens, FlowMarker};
pub use netwarden::NetWarden;
pub use query::{decode_prefix_key, DistinctExpr, Filter, KeyExpr, QueryState, SwitchQuery};
pub use refine::{RefineMode, RefineOutcome, Refiner};
pub use switch::{Decision, P4Switch, SramBudget, SteerRule, SwitchStats};
