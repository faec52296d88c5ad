//! Pre-digested packet batches — the zero-alloc hot-path currency
//! between the dispatcher and the shards.
//!
//! The dispatcher canonicalises and hashes every packet exactly once
//! ([`smartwatch_net::FlowHasher::flow_digest`], or its raw-tuple twins
//! on the wire path) and records the whole result next to the packet as
//! a [`DigestedPacket`]: the canonical key, the direction the packet
//! travelled in, and the symmetric digest. Everything downstream — RSS
//! sharding, black/whitelist membership, the FlowCache row lookup, the
//! detector suite's flow tables — reuses that [`FlowDigest`] as carried
//! instead of re-deriving any part of it. The direction rides in the
//! descriptor's padding (the size stays pinned at 80 bytes); before it
//! rode, the shard recomputed it with a full key compare per packet,
//! 1.8 % of a `stress64_rtc` profile.
//!
//! Batches travel as [`Batch`] messages, one `Vec<DigestedPacket>`
//! buffer each, and the lane is the pool: a buffer goes out in a slot
//! of the lane's [`spsc`](crate::spsc) ring and comes back through a
//! slot of the same ring (the shard leaves the buffer it drained last
//! in the slot it pops next), so a lane holds at most
//! `queue_batches + 2` buffers, allocates them all on its first lap and
//! none afterwards, under every thread schedule. They are counted as
//! `runtime.pool.allocated` / `runtime.pool.recycled`.
//!
//! On the consuming side, shards walk each delivered batch in
//! [`EngineConfig::cache_burst`](crate::EngineConfig::cache_burst)-sized
//! chunks: the carried digest lets the shard prefetch every FlowCache
//! row a chunk will touch *before* the first probe (stage A), then
//! process the chunk strictly in sequence (stage B). When more than half
//! of the shard's previous batch missed the FlowCache, stage A instead
//! prefetches the next chunk's tag lines and scan-table home slot words
//! (where a new connection is filed), and, read off this chunk's tags,
//! exactly the slots each probe will touch (where a new record is
//! filed, and the P span a victim is picked from). The prefetch stage is
//! architecturally inert, gate on or off, so decisions, counters and the
//! deterministic summary are byte-identical at any burst width.

use smartwatch_net::{FlowDigest, Packet};
use std::time::{Duration, Instant};

/// A packet plus its dispatch-time flow identity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DigestedPacket {
    /// The packet, as offered.
    pub pkt: Packet,
    /// `FlowHasher::flow_digest(&pkt.key)` under the engine's hash
    /// seed, computed once at dispatch.
    pub flow: FlowDigest,
}

/// One lane message: a buffer of pre-digested packets plus, when the
/// block that made it was sampled, its enqueue reading (queue-wait
/// timing). Every message carries exactly one
/// buffer — the `Stop` marker carries the dispatcher's empty staging
/// buffer — and every slot exchange gives one back, which is what keeps
/// a lane's buffer count fixed across segments.
pub(crate) struct Batch {
    /// The packets, already RSS-filtered for one shard.
    pub pkts: Vec<DigestedPacket>,
    /// When the dispatcher enqueued the batch, if its block was sampled.
    pub sent: Option<Instant>,
    /// Graceful shutdown: no packets, and the lane's last message of
    /// the segment — the shard drains, final-sweeps and exits once
    /// every lane has delivered one.
    pub stop: bool,
}

/// Lane-wait pacing: spin briefly, then yield, then park with doubling
/// timeouts — bounded exponential backoff.
///
/// Its two users are the two lane waits a bench cell crosses: a shard
/// polling an empty lane (`ShardWorker::run`) and a dispatcher blocked
/// on a full one (`spsc::exchange_blocking`). Neither knows when the
/// other end moves, so the first [`Backoff::SPIN_LIMIT`] idle polls spin
/// (latency-optimal when work is about to arrive), the next stretch
/// yields the CPU (the other end may need this very core), and from then
/// on the thread parks, doubling the timeout from [`Backoff::PARK_MIN`]
/// up to [`Backoff::PARK_MAX`] — so a paced low-rate run stops burning a
/// full core per idle shard while the wake-up latency stays bounded. A
/// wait for a known deadline parks straight away instead
/// (`engine::ingest::wait_until`).
pub(crate) struct Backoff {
    polls: u32,
}

impl Backoff {
    /// Idle polls that spin before the first yield.
    const SPIN_LIMIT: u32 = 64;
    /// Idle polls (spins + yields) before the first park.
    const YIELD_LIMIT: u32 = 128;
    /// First park timeout.
    const PARK_MIN: Duration = Duration::from_micros(16);
    /// Park timeout ceiling (bounds both CPU burn and wake-up latency).
    const PARK_MAX: Duration = Duration::from_micros(256);

    /// Fresh (hot) backoff state.
    pub(crate) fn new() -> Backoff {
        Backoff { polls: 0 }
    }

    /// Work arrived: return to the spin phase.
    pub(crate) fn reset(&mut self) {
        self.polls = 0;
    }

    /// One idle poll. Returns `true` when the thread parked (the caller
    /// counts these as `idle_parks`).
    pub(crate) fn idle(&mut self) -> bool {
        self.polls = self.polls.saturating_add(1);
        if self.polls <= Self::SPIN_LIMIT {
            std::hint::spin_loop();
            false
        } else if self.polls <= Self::YIELD_LIMIT {
            std::thread::yield_now();
            false
        } else {
            let doublings = (self.polls - Self::YIELD_LIMIT - 1).min(4);
            let timeout = Self::PARK_MIN
                .saturating_mul(1 << doublings)
                .min(Self::PARK_MAX);
            std::thread::park_timeout(timeout);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The descriptor is copied by value through staging, lane and
    /// shard, so every byte it carries is paid per packet per copy. It
    /// grows only by editing this number.
    #[test]
    fn the_descriptor_size_is_pinned() {
        assert_eq!(std::mem::size_of::<DigestedPacket>(), 80);
    }

    #[test]
    fn backoff_escalates_spin_yield_park_and_resets() {
        let mut b = Backoff::new();
        let mut parked = 0u32;
        for _ in 0..Backoff::YIELD_LIMIT {
            assert!(!b.idle(), "no park during spin/yield phases");
        }
        for _ in 0..8 {
            if b.idle() {
                parked += 1;
            }
        }
        assert_eq!(parked, 8, "past the yield limit every poll parks");
        b.reset();
        assert!(!b.idle(), "reset returns to the spin phase");
    }
}
