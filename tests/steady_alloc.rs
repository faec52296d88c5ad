//! The allocator is off the data path of a resident engine: once the
//! first segments have built and sized the flow state, a whole segment
//! of the FlowCache's worst case — every packet a new flow, every row
//! full, so every access evicts — costs a fixed handful of allocator
//! calls (threads, the verdict log, the report), none per packet.
//!
//! The count comes from a `#[global_allocator]` of this test binary's
//! own, which is why the file holds exactly one test: a second one
//! running on another harness thread would be counted too.

use smartwatch::net::hash::splitmix64;
use smartwatch::net::{FlowKey, Packet, PacketBuilder, Ts};
use smartwatch::runtime::{DatapathMode, Engine, EngineConfig, Pace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls into the allocator that can obtain memory (`alloc`,
/// `alloc_zeroed`, `realloc`), process-wide.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic add and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `n` one-packet flows in hash-scattered order (the benchmark's
/// `scattered_cold` shape): a 0 % hit rate by construction.
fn scattered(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let r = splitmix64(i as u64 ^ 0x5CA7);
            let key = FlowKey::tcp(
                Ipv4Addr::from(0x0A00_0000 | ((r >> 40) as u32 & 0x00FF_FFFF)),
                ((r >> 24) as u16) | 1,
                Ipv4Addr::new(192, 168, (r >> 8) as u8, r as u8),
                443,
            );
            PacketBuilder::new(key, Ts::from_nanos(i as u64)).build()
        })
        .collect()
}

#[test]
fn a_steady_segment_of_pure_misses_stays_off_the_allocator() {
    // 4× the cache's 2^12 × 12 buckets: every row fills, then evicts.
    let packets = scattered(200_000);
    for datapath in [DatapathMode::Rtc, DatapathMode::Pipeline] {
        let mut cfg = EngineConfig::new(1);
        cfg.datapath = datapath;
        cfg.host_workers = 0;
        let engine = Engine::new(cfg);
        let mut calls = Vec::new();
        for _ in 0..4 {
            let before = CALLS.load(Ordering::Relaxed);
            let report = engine.run(&packets, Pace::Flatout);
            calls.push(CALLS.load(Ordering::Relaxed) - before);
            assert!(report.conserved());
            assert_eq!(report.flowcache.p_hits + report.flowcache.e_hits, 0);
            assert!(report.flowcache.ring_pushes > 100_000, "rows overflow");
        }
        // Segment 1 builds the state, segment 2 may still settle a pool;
        // from segment 3 on the count is per segment, not per packet.
        assert!(
            calls[2] < 1_000 && calls[3] < 1_000,
            "{datapath:?}: allocator calls per segment {calls:?}"
        );
        assert!(calls[0] > calls[3], "{datapath:?}: {calls:?}");
    }
}
