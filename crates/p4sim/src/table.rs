//! Match-action table primitives.
//!
//! [`ExactTable`] is hash-based exact match (SRAM); whitelists and
//! blacklists live here. Steering rules sit in TCAM, charged per entry at
//! [`TERNARY_ENTRY_BYTES`] — about 4× the SRAM cost per bit.
//!
//! The table is generic over the action type `A`. Memory accounting
//! mirrors how the paper argues about SRAM pressure: every entry has a
//! fixed byte cost, and [`P4Switch`](crate::P4Switch) sums its tables
//! against the stage budget. The budget prices the tables; it does not
//! bound them — an insert never fails.

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
}

impl<K: Eq + Hash, A> ExactTable<K, A> {
    /// Empty table.
    pub(crate) fn new() -> Self {
        ExactTable {
            entries: HashMap::new(),
        }
    }

    /// Insert an entry, or replace the action of a present key.
    pub(crate) fn insert(&mut self, key: K, action: A) {
        self.entries.insert(key, action);
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
    fn exact_table_prices_each_key_once() {
        let mut t: ExactTable<u32, &str> = ExactTable::new();
        t.insert(1, "a");
        t.insert(2, "b");
        t.insert(1, "a2");
        assert_eq!(t.lookup(&1), Some(&"a2"), "an insert updates in place");
        assert_eq!(t.len(), 2);
        assert_eq!(t.sram_bytes(), 2 * EXACT_ENTRY_BYTES);
    }
}
