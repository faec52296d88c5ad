//! # smartwatch-sketch
//!
//! The approximate-measurement baselines SmartWatch is evaluated against,
//! plus the probabilistic helpers the platform itself uses.
//!
//! Baselines (paper §5.3, Figs. 10 and 11b):
//! - [`CountMin`] — the classic conservative count sketch.
//! - [`ElasticSketch`] — heavy part (vote-based hash table) + light part
//!   (counter array); invertible for heavy flows.
//! - [`MvSketch`] — invertible majority-vote sketch for heavy flow
//!   detection.
//! - [`NitroSketch`] — sampled CountMin updates: higher throughput, looser
//!   error, as in the paper's Fig. 11b throughput comparison.
//!
//! Platform helpers:
//! - [`BloomFilter`] — used on the RST fast path (§5.1.2).
//! - [`HyperLogLog`] — cardinality estimation over flow logs.
//!
//! All sketches implement [`FlowCounter`], the estimation interface the
//! volumetric-analysis harness (heavy hitter / heavy change / flow size
//! distribution) is written against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod countmin;
pub mod elastic;
pub mod hll;
pub mod mv;
pub mod nitro;

pub use bloom::BloomFilter;
pub use countmin::CountMin;
pub use elastic::ElasticSketch;
pub use hll::HyperLogLog;
pub use mv::MvSketch;
pub use nitro::NitroSketch;

use smartwatch_net::FlowKey;

/// Common interface over per-flow packet counting structures, whether
/// approximate (sketches) or exact (the FlowCache-backed flow log).
pub trait FlowCounter {
    /// Record `count` packets of `key`.
    fn update(&mut self, key: &FlowKey, count: u64);

    /// Estimated packet count of `key`.
    fn estimate(&self, key: &FlowKey) -> u64;

    /// Bytes of memory the structure occupies (for like-for-like accuracy
    /// comparisons at equal memory, as in Fig. 10).
    fn memory_bytes(&self) -> usize;

    /// Flows whose estimated count is at least `threshold`, if the
    /// structure is invertible (can enumerate candidates without an
    /// external key list). Non-invertible sketches return `None` and must
    /// be probed with a candidate list instead.
    fn heavy_hitters(&self, threshold: u64) -> Option<Vec<(FlowKey, u64)>>;

    /// Reset all state (start of a new monitoring interval).
    fn clear(&mut self);
}
