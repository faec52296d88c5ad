//! The benchmark's own counting allocator.
//!
//! Wraps the system allocator and, only while armed, counts calls and
//! bytes requested. It is armed around one engine segment of a traced
//! run, so `alloc.*_per_mpkt` is what the program allocates per million
//! packets in steady state; disarmed it costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` via this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Run `f` with the counter armed; returns its result with the
/// allocation calls and bytes requested (by any thread) meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (c0, b0) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (
        out,
        COUNT.load(Ordering::Relaxed) - c0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_while_armed() {
        let before = std::hint::black_box(vec![0u8; 4096]);
        let (v, count, bytes) = super::counted(|| std::hint::black_box(vec![0u8; 1 << 20]));
        assert!(
            count >= 1 && bytes >= 1 << 20,
            "count={count} bytes={bytes}"
        );
        drop((before, v));
    }
}
