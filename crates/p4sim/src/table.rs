//! Match-action table primitives.
//!
//! A Tofino-class pipeline stores its state in three table shapes, each
//! with a different SRAM/TCAM cost profile:
//!
//! - [`ExactTable`] — hash-based exact match (SRAM); whitelists and
//!   blacklists live here.
//! - [`LpmTable`] — longest-prefix match (SRAM trie / algorithmic LPM);
//!   routing-style lookups and prefix aggregations.
//! - [`TernaryTable`] — priority-ordered value/mask match (TCAM, charged
//!   at a premium); steering rules with port wildcards live here.
//!
//! The tables are generic over the action type `A`. Memory accounting
//! mirrors how the paper argues about SRAM pressure: every entry has a
//! fixed byte cost, and [`P4Switch`](crate::P4Switch) sums its tables
//! against the stage budget.

use std::collections::HashMap;
use std::hash::Hash;

/// Bytes charged per exact-match entry (key + action + overhead).
pub const EXACT_ENTRY_BYTES: usize = 32;
/// Bytes charged per LPM entry.
pub const LPM_ENTRY_BYTES: usize = 16;
/// Bytes charged per ternary entry (TCAM is ~4× SRAM cost per bit).
pub const TERNARY_ENTRY_BYTES: usize = 64;

/// Hash-based exact-match table.
#[derive(Clone, Debug)]
pub struct ExactTable<K: Eq + Hash, A> {
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
    pub fn new() -> Self {
        Self::default()
    }

    /// Table bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ExactTable {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Insert an entry; returns false (and does nothing) if full.
    pub fn insert(&mut self, key: K, action: A) -> bool {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            return false;
        }
        self.entries.insert(key, action);
        true
    }

    /// Look up a key.
    pub fn lookup(&self, key: &K) -> Option<&A> {
        self.entries.get(key)
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<A> {
        self.entries.remove(key)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// SRAM bytes occupied.
    pub fn sram_bytes(&self) -> usize {
        self.entries.len() * EXACT_ENTRY_BYTES
    }
}

/// Longest-prefix-match table over IPv4 prefixes.
#[derive(Clone, Debug, Default)]
pub struct LpmTable<A> {
    /// Per-width maps, probed from /32 down (first hit wins).
    by_width: Vec<(u8, HashMap<u32, A>)>,
}

impl<A> LpmTable<A> {
    /// Empty table.
    pub fn new() -> Self {
        LpmTable {
            by_width: Vec::new(),
        }
    }

    /// Insert `prefix/width → action` (prefix must be network-aligned).
    pub fn insert(&mut self, prefix: u32, width: u8, action: A) {
        assert!(width <= 32);
        debug_assert_eq!(prefix & mask(width), prefix, "prefix not aligned");
        match self.by_width.iter_mut().find(|(w, _)| *w == width) {
            Some((_, m)) => {
                m.insert(prefix, action);
            }
            None => {
                let mut m = HashMap::new();
                m.insert(prefix, action);
                self.by_width.push((width, m));
                self.by_width.sort_by_key(|(w, _)| std::cmp::Reverse(*w));
            }
        }
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, addr: u32) -> Option<(&A, u8)> {
        for (w, m) in &self.by_width {
            if let Some(a) = m.get(&(addr & mask(*w))) {
                return Some((a, *w));
            }
        }
        None
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.by_width.iter().map(|(_, m)| m.len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// SRAM bytes occupied.
    pub fn sram_bytes(&self) -> usize {
        self.len() * LPM_ENTRY_BYTES
    }
}

fn mask(width: u8) -> u32 {
    if width == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(width))
    }
}

/// One ternary entry: `(value & mask) == (key & mask)` matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TernaryEntry {
    /// Match value.
    pub value: u64,
    /// Care mask (1 bits are compared).
    pub mask: u64,
    /// Priority; higher wins.
    pub priority: i32,
}

impl TernaryEntry {
    /// Does a key match?
    pub fn matches(&self, key: u64) -> bool {
        key & self.mask == self.value & self.mask
    }
}

/// Priority-ordered ternary (TCAM) table.
#[derive(Clone, Debug, Default)]
pub struct TernaryTable<A> {
    entries: Vec<(TernaryEntry, A)>,
}

impl<A> TernaryTable<A> {
    /// Empty table.
    pub fn new() -> Self {
        TernaryTable {
            entries: Vec::new(),
        }
    }

    /// Insert an entry (kept sorted by descending priority; stable for
    /// equal priorities — first inserted wins).
    pub fn insert(&mut self, entry: TernaryEntry, action: A) {
        let pos = self
            .entries
            .partition_point(|(e, _)| e.priority >= entry.priority);
        self.entries.insert(pos, (entry, action));
    }

    /// Highest-priority matching action.
    pub fn lookup(&self, key: u64) -> Option<&A> {
        self.entries
            .iter()
            .find(|(e, _)| e.matches(key))
            .map(|(_, a)| a)
    }

    /// Iterate entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &(TernaryEntry, A)> {
        self.entries.iter()
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// TCAM bytes occupied (charged against the SRAM budget at the
    /// premium rate).
    pub fn sram_bytes(&self) -> usize {
        self.entries.len() * TERNARY_ENTRY_BYTES
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_table_capacity_enforced() {
        let mut t: ExactTable<u32, &str> = ExactTable::with_capacity(2);
        assert!(t.insert(1, "a"));
        assert!(t.insert(2, "b"));
        assert!(!t.insert(3, "c"), "full table must refuse");
        assert!(t.insert(1, "a2"), "updates to existing keys allowed");
        assert_eq!(t.lookup(&1), Some(&"a2"));
        assert_eq!(t.sram_bytes(), 2 * EXACT_ENTRY_BYTES);
        t.remove(&1);
        assert!(t.insert(3, "c"));
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0)), 8, "coarse");
        t.insert(u32::from(std::net::Ipv4Addr::new(10, 1, 0, 0)), 16, "fine");
        let addr = u32::from(std::net::Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(t.lookup(addr), Some((&"fine", 16)));
        let other = u32::from(std::net::Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(t.lookup(other), Some((&"coarse", 8)));
        let miss = u32::from(std::net::Ipv4Addr::new(11, 0, 0, 1));
        assert_eq!(t.lookup(miss), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lpm_default_route() {
        let mut t: LpmTable<&str> = LpmTable::new();
        t.insert(0, 0, "default");
        assert_eq!(t.lookup(0xFFFF_FFFF), Some((&"default", 0)));
    }

    #[test]
    fn ternary_priority_order() {
        let mut t: TernaryTable<&str> = TernaryTable::new();
        t.insert(
            TernaryEntry {
                value: 0x22,
                mask: 0xFF,
                priority: 10,
            },
            "ssh",
        );
        t.insert(
            TernaryEntry {
                value: 0x00,
                mask: 0x00,
                priority: 1,
            },
            "any",
        );
        assert_eq!(t.lookup(0x22), Some(&"ssh"));
        assert_eq!(t.lookup(0x50), Some(&"any"));
        assert_eq!(t.len(), 2);
        assert!(t.sram_bytes() > EXACT_ENTRY_BYTES * 2, "TCAM costs more");
    }

    #[test]
    fn ternary_mask_semantics() {
        let e = TernaryEntry {
            value: 0xAB00,
            mask: 0xFF00,
            priority: 0,
        };
        assert!(e.matches(0xABCD));
        assert!(!e.matches(0xACCD));
    }
}
