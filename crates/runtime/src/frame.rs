//! Fixed-capacity frame buffers — an RX-ring model that copies each
//! received frame into a pooled slot before parsing it.
//!
//! The engine does not use it: its wire feed parses every frame where
//! the [`smartwatch_net::FrameStore`] holds it, as a NIC's PMEs read a
//! frame where its DMA put it. The benchmark's layer walk is this
//! module's only user — its `runtime.frame.load` stage prices the copy
//! with a [`FramePool`] — and ROADMAP item 10 deletes the module
//! together with that stage.

use smartwatch_telemetry::{Counter, Registry};

/// Handle to one loaded frame slot. Move-only: releasing consumes it,
/// so a slot cannot be freed twice or read after release.
#[derive(Debug)]
pub struct FrameSlot(u32);

/// An arena of fixed-capacity frame buffers with a free-list recycle
/// path.
///
/// Owned by one dispatcher (no sharing, no atomics on the frame path —
/// only the telemetry counters are shared). The arena grows by one slot
/// on every free-list miss (counted in `allocated`) and never shrinks;
/// hits count as `recycled`. A dispatcher that releases every slot it
/// loads therefore allocates only during its first burst.
pub struct FramePool {
    arena: Vec<u8>,
    lens: Vec<u32>,
    free: Vec<u32>,
    frame_cap: usize,
    /// Fresh slot allocations (free-list misses).
    pub allocated: Counter,
    /// Slots reused from the free list (hits).
    pub recycled: Counter,
}

impl FramePool {
    /// Pool of `frame_cap`-byte slots, publishing
    /// `runtime.frame_pool.*` into `registry`. Slots materialise on
    /// demand; `frame_cap` must cover the largest frame that will be
    /// loaded (e.g. [`smartwatch_net::FrameStore::max_frame_len`]).
    pub fn new(frame_cap: usize, registry: &Registry) -> FramePool {
        FramePool {
            arena: Vec::new(),
            lens: Vec::new(),
            free: Vec::new(),
            frame_cap: frame_cap.max(1),
            allocated: registry.counter("runtime.frame_pool.allocated", &[]),
            recycled: registry.counter("runtime.frame_pool.recycled", &[]),
        }
    }

    /// Slot capacity in bytes.
    pub fn frame_cap(&self) -> usize {
        self.frame_cap
    }

    /// Load (copy) `frame` into a slot — the DMA step of the RX model.
    /// Recycles a free slot when one exists, grows the arena otherwise.
    pub fn load(&mut self, frame: &[u8]) -> FrameSlot {
        assert!(
            frame.len() <= self.frame_cap,
            "frame of {} bytes exceeds the {}-byte slot capacity",
            frame.len(),
            self.frame_cap
        );
        let slot = match self.free.pop() {
            Some(s) => {
                self.recycled.inc();
                s
            }
            None => {
                let s = self.lens.len() as u32;
                self.arena.resize(self.arena.len() + self.frame_cap, 0);
                self.lens.push(0);
                self.allocated.inc();
                s
            }
        };
        let start = slot as usize * self.frame_cap;
        self.arena[start..start + frame.len()].copy_from_slice(frame);
        self.lens[slot as usize] = frame.len() as u32;
        FrameSlot(slot)
    }

    /// Borrow the bytes of a loaded slot.
    #[inline]
    pub fn frame(&self, slot: &FrameSlot) -> &[u8] {
        let start = slot.0 as usize * self.frame_cap;
        &self.arena[start..start + self.lens[slot.0 as usize] as usize]
    }

    /// Return a slot to the free list.
    pub fn release(&mut self, slot: FrameSlot) {
        self.free.push(slot.0);
    }

    /// Slots currently materialised in the arena (allocated − never
    /// freed; the high-water mark of concurrently loaded frames).
    pub fn slots(&self) -> usize {
        self.lens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_pool_recycles_without_growth_after_warmup() {
        let reg = Registry::new();
        let mut pool = FramePool::new(128, &reg);

        // Warm-up: the first burst of an empty pool must allocate.
        let mut in_flight: Vec<FrameSlot> = (0..8u8).map(|i| pool.load(&[i; 64])).collect();
        let warmup_allocs = pool.allocated.get();
        assert_eq!(warmup_allocs, 8);
        assert_eq!(pool.slots(), 8);

        // Steady state: release/load cycles — zero growth.
        for round in 0..1000u32 {
            let slot = in_flight.pop().expect("slot available");
            pool.release(slot);
            let slot = pool.load(&[(round % 251) as u8; 96]);
            assert_eq!(pool.frame(&slot).len(), 96);
            in_flight.push(slot);
        }
        assert_eq!(
            pool.allocated.get(),
            warmup_allocs,
            "steady state must not allocate"
        );
        assert_eq!(pool.recycled.get(), 1000);
        assert_eq!(pool.slots(), 8, "arena never grew past the warm-up");
    }

    #[test]
    fn loaded_frames_read_back_exactly_at_varying_lengths() {
        let reg = Registry::new();
        let mut pool = FramePool::new(256, &reg);
        for len in [1usize, 54, 96, 255, 256] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let slot = pool.load(&data);
            assert_eq!(pool.frame(&slot), &data[..]);
            pool.release(slot);
        }
        // A longer frame loaded into a recycled slot masks the old
        // contents entirely.
        let a = pool.load(&[0xAA; 200]);
        pool.release(a);
        let b = pool.load(&[0xBB; 10]);
        assert_eq!(pool.frame(&b), &[0xBB; 10]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_frame_panics() {
        let reg = Registry::new();
        let mut pool = FramePool::new(64, &reg);
        pool.load(&[0; 65]);
    }
}
