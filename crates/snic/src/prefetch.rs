//! Portable software prefetch — the memory-level-parallelism primitive
//! behind the FlowCache's batched lookups.
//!
//! A FlowCache probe on a cold row is a dependent DRAM miss: the row
//! address is only known after hashing, and nothing else in the pipeline
//! touches that line first. Processed one packet at a time, those misses
//! serialise. Issued as a burst of prefetches *before* the probes, up to
//! BURST of them overlap in the memory system — the same trick hardware
//! flow-offload engines use to sustain tens of Mpps.
//!
//! [`prefetch_read`] is a hint, never a semantic operation: it cannot
//! fault, cannot write, and a wrong or dangling address costs at most a
//! wasted line fill. On x86_64 it lowers to `prefetcht0`; elsewhere it is
//! a `black_box` no-op so call sites need no `cfg` of their own.

/// Hint the CPU to pull the cache line containing `p` toward L1
/// (read intent, all cache levels — `prefetcht0`).
///
/// Safe to call with any pointer, valid or not: prefetch instructions
/// are architecturally side-effect-free and never fault.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    // SAFETY: `_mm_prefetch` is `unsafe` by intrinsic convention only.
    // It performs no load, no store, and raises no exception for any
    // address (the manual specifies the hint is dropped for invalid
    // addresses), so there is no precondition to uphold.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
}

/// No-op fallback for targets without a prefetch intrinsic. The
/// `black_box` keeps the address computation alive so batched callers
/// exercise identical code paths (and benches stay comparable) across
/// architectures.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    core::hint::black_box(p);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_inert_for_any_address() {
        let v = [0u8; 256];
        prefetch_read(v.as_ptr());
        prefetch_read(v.as_ptr().wrapping_add(1 << 20));
        prefetch_read(core::ptr::null::<u64>());
        // Nothing observable: the values are untouched.
        assert!(v.iter().all(|&b| b == 0));
    }
}
