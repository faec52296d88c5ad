//! Resident tables: the reset contract of engine-lifetime per-flow state.
//!
//! A long-running engine keeps its flow tables (FlowCache rings,
//! connection tables, detector maps) for its whole life and *resets*
//! them between segments instead of dropping and regrowing them: a
//! reset table is observably a fresh one — empty, same configuration —
//! but keeps its heap allocation, and a map keeps its hasher's
//! per-instance key. The one thing a reset may give back is memory a
//! flood left behind: a table whose capacity exceeds [`SLACK`] times the
//! high-water length of the segment just ended shrinks to half that
//! bound, so one burst does not pin its peak forever while a steady
//! workload (whose tables grew by doubling to at most ~2.3× their
//! length) never shrinks and never reallocates.
//!
//! The std maps that remain (per-source detector tables, digest sets)
//! keep one wrinkle: `HashMap::clear` does nothing on a map already
//! emptied by removals, so its tombstones survive the reset until later
//! inserts reuse them; the flow-keyed tables (`snic::FlowTable`) delete
//! by backward shift and have none.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::mem::size_of;

/// Capacity a reset tolerates, as a multiple of the segment's high-water
/// length; a table above it shrinks to `SLACK / 2` times that length.
pub const SLACK: usize = 4;

/// A heap table that can be emptied in place under the shrink rule.
pub trait Resident {
    /// Entries held right now.
    fn held(&self) -> usize;

    /// Empty the table, keeping its allocation unless the capacity
    /// exceeds [`SLACK`]`× high_water`, in which case it shrinks to
    /// `SLACK / 2 × high_water`. `high_water` is the most entries the
    /// table held since its last reset.
    fn reset_to(&mut self, high_water: usize);

    /// [`Resident::reset_to`] for a table that only grew since its last
    /// reset: its high-water length is its length now.
    fn reset(&mut self) {
        let high_water = self.held();
        self.reset_to(high_water);
    }

    /// Heap bytes held for the current capacity (maps: entries plus one
    /// control byte each — an estimate, not an allocator read).
    fn resident_bytes(&self) -> usize;
}

/// `Resident` for a std collection: `clear`, then `shrink_to` when the
/// capacity is over the bound; `$entry` is the heap bytes per slot.
macro_rules! resident {
    ([$($generics:tt)*] $table:ty, $entry:expr) => {
        impl<$($generics)*> Resident for $table {
            fn held(&self) -> usize {
                self.len()
            }

            fn reset_to(&mut self, high_water: usize) {
                self.clear();
                if self.capacity() > SLACK * high_water {
                    self.shrink_to(SLACK / 2 * high_water);
                }
            }

            fn resident_bytes(&self) -> usize {
                self.capacity() * $entry
            }
        }
    };
}

resident!([K: Eq + Hash, V, S: BuildHasher] HashMap<K, V, S>, size_of::<(K, V)>() + 1);
resident!([T: Eq + Hash, S: BuildHasher] HashSet<T, S>, size_of::<T>() + 1);
resident!([T] Vec<T>, size_of::<T>());
resident!([T] VecDeque<T>, size_of::<T>());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyedMix;

    #[test]
    fn steady_tables_keep_their_allocation_and_key() {
        let mut m: HashMap<u64, u64, KeyedMix> = HashMap::default();
        for round in 0..3 {
            for i in 0..10_000u64 {
                m.insert(i, i);
            }
            let (cap, key) = (m.capacity(), m.hasher().hash_one(7u64));
            m.reset();
            assert!(m.is_empty());
            assert_eq!(m.capacity(), cap, "round {round}: grown by doubling");
            assert_eq!(m.hasher().hash_one(7u64), key, "the key survives");
        }
    }

    #[test]
    fn a_flood_does_not_pin_its_peak() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        m.extend((0..100_000u64).map(|i| (i, i)));
        m.reset();
        let flood = m.capacity();
        assert!(flood >= 100_000, "the flood's own reset keeps it");
        // The next segment needs a hundredth of that.
        m.extend((0..1_000u64).map(|i| (i, i)));
        m.reset();
        assert!(m.capacity() >= 2_000 && m.capacity() <= SLACK * 1_000);
        // … and a table left unused gives everything back.
        m.reset();
        assert_eq!(m.capacity(), 0);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn the_shrunk_capacity_is_stable() {
        // Shrinking to 2× must land under the 4× bound for every length,
        // or a steady workload would shrink and regrow every segment.
        for n in [1usize, 2, 3, 7, 15, 100, 1_000, 33_333] {
            let mut s: HashSet<usize> = HashSet::with_capacity(64 * n);
            let mut v: Vec<usize> = Vec::with_capacity(64 * n);
            let mut d: VecDeque<usize> = VecDeque::with_capacity(64 * n);
            s.extend(0..n);
            v.extend(0..n);
            d.extend(0..n);
            s.reset();
            v.reset();
            d.reset();
            for (name, cap) in [
                ("set", s.capacity()),
                ("vec", v.capacity()),
                ("deque", d.capacity()),
            ] {
                assert!(cap >= 2 * n && cap <= SLACK * n, "{name} of {n}: {cap}");
            }
            let caps = (s.capacity(), v.capacity(), d.capacity());
            s.extend(0..n);
            v.extend(0..n);
            d.extend(0..n);
            s.reset();
            v.reset();
            d.reset();
            assert_eq!(caps, (s.capacity(), v.capacity(), d.capacity()));
        }
    }

    #[test]
    fn high_water_overrides_the_length_at_reset() {
        // A table that drained before the reset is sized by its peak.
        let mut d: VecDeque<u32> = VecDeque::new();
        d.extend(0..5_000);
        let cap = d.capacity();
        d.clear();
        d.reset_to(5_000);
        assert_eq!(d.capacity(), cap);
    }
}
