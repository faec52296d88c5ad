//! Match-action table primitives.
//!
//! [`ExactTable`] is hash-based exact match (SRAM); whitelists and
//! blacklists live here. Steering rules sit in TCAM, charged per entry at
//! [`TERNARY_ENTRY_BYTES`] — about 4× the SRAM cost per bit.
//!
//! The table is generic over the action type `A`. Memory accounting
//! mirrors how the paper argues about SRAM pressure: every entry has a
//! fixed byte cost, and [`P4Switch`](crate::P4Switch) sums its tables
//! against the stage budget.

use std::collections::HashMap;
use std::hash::Hash;

/// Bytes charged per exact-match entry (key + action + overhead).
pub(crate) const EXACT_ENTRY_BYTES: usize = 32;
/// Bytes charged per ternary entry (TCAM is ~4× SRAM cost per bit).
pub(crate) const TERNARY_ENTRY_BYTES: usize = 64;

/// Hash-based exact-match table.
#[derive(Clone, Debug)]
pub(crate) struct ExactTable<K: Eq + Hash, A> {
    entries: HashMap<K, A>,
    /// Maximum entries (hardware table size); `usize::MAX` = unbounded.
    pub capacity: usize,
}

impl<K: Eq + Hash, A> Default for ExactTable<K, A> {
    fn default() -> Self {
        ExactTable {
            entries: HashMap::new(),
            capacity: usize::MAX,
        }
    }
}

impl<K: Eq + Hash, A> ExactTable<K, A> {
    /// Unbounded table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert an entry; returns false (and does nothing) if full.
    pub(crate) fn insert(&mut self, key: K, action: A) -> bool {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            return false;
        }
        self.entries.insert(key, action);
        true
    }

    /// Look up a key.
    pub(crate) fn lookup(&self, key: &K) -> Option<&A> {
        self.entries.get(key)
    }

    /// Entry count.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// SRAM bytes occupied.
    pub(crate) fn sram_bytes(&self) -> usize {
        self.entries.len() * EXACT_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_table_capacity_enforced() {
        let mut t: ExactTable<u32, &str> = ExactTable {
            capacity: 2,
            ..ExactTable::default()
        };
        assert!(t.insert(1, "a"));
        assert!(t.insert(2, "b"));
        assert!(!t.insert(3, "c"), "full table must refuse");
        assert!(t.insert(1, "a2"), "updates to existing keys allowed");
        assert_eq!(t.lookup(&1), Some(&"a2"));
        assert_eq!(t.sram_bytes(), 2 * EXACT_ENTRY_BYTES);
        t.entries.remove(&1);
        assert!(t.insert(3, "c"));
    }
}
