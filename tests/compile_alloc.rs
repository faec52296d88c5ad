//! Compiling a trace allocates per store, not per frame: every frame is
//! encoded straight into the buffer that keeps it, so
//! `FrameStore::from_packets`, `from_packets_v6` and `pcap::write` make
//! the same handful of allocator calls whether they compile ten thousand
//! packets or a hundred thousand. A frame encoded on its own and then
//! copied in fails here by count.
//!
//! The count comes from a `#[global_allocator]` of this test binary's
//! own, which is why the file holds exactly one test: a second one
//! running on another harness thread would be counted too.

use smartwatch::net::hash::splitmix64;
use smartwatch::net::{pcap, FlowKey, FrameStore, Packet, PacketBuilder, Proto, TcpFlags, Ts};
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

/// `n` packets of every framing shape: TCP, UDP and ICMP with payloads
/// of up to 22 bytes, so every frame (34 to 96 bytes) fits the arena's
/// reservation of 96 bytes a frame in either framing, as the frames of a
/// 64-byte stress trace do.
fn mixed(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let r = splitmix64(i as u64);
            let proto = [Proto::Tcp, Proto::Udp, Proto::Icmp][(r % 3) as usize];
            let ports = if proto == Proto::Icmp { 0 } else { 1 };
            let key = FlowKey::new(
                Ipv4Addr::from((r >> 32) as u32),
                Ipv4Addr::new(192, 168, (r >> 8) as u8, r as u8),
                ports * ((r >> 16) as u16 | 1),
                ports * 443,
                proto,
            );
            PacketBuilder::new(key, Ts::from_nanos(i as u64))
                .payload((r >> 20) as u16 % 23)
                .flags(TcpFlags::ACK)
                .build()
        })
        .collect()
}

/// Allocator calls `compile` makes on `packets`; it returns the frames
/// what it built holds, and drops that inside the count (a free is not
/// counted).
fn calls(compile: fn(&[Packet]) -> usize, packets: &[Packet]) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    let frames = compile(packets);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(frames, packets.len());
    calls
}

#[test]
fn compiling_allocates_per_store_not_per_frame() {
    // Both inputs are built before any count starts.
    let small = mixed(10_000);
    let large = mixed(100_000);
    for (framing, compile) in [
        (
            "v4",
            (|p| FrameStore::from_packets(p).len()) as fn(&[Packet]) -> usize,
        ),
        ("v6", |p| FrameStore::from_packets_v6(p).len()),
        ("pcap", |p| {
            pcap::records(&pcap::write(p)).map_or(0, Iterator::count)
        }),
    ] {
        let at_10k = calls(compile, &small);
        let at_100k = calls(compile, &large);
        // A store's arena and sideband, a capture's one buffer: one
        // allocation each.
        assert!(
            at_10k <= 2,
            "{framing}: {at_10k} allocator calls for 10 000 packets"
        );
        assert_eq!(
            at_100k, at_10k,
            "{framing}: compiling 10x the packets made more allocator calls"
        );
    }
}
