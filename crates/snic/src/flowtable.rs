//! The digest-indexed flow table behind every flow-keyed detector table.
//!
//! Ingest hashes a packet's canonical 5-tuple once (Algorithm 1's
//! `hash_digest`) and the FlowCache indexes its rows with that digest.
//! This is the same idea for the detectors' per-flow state — connection
//! tables, the buffered-RST index, the classified-session set: an
//! open-addressed table probed with the digest the packet already
//! carries, so a lookup canonicalises nothing and hashes no 5-tuple.
//!
//! **Layout.** A power-of-two array of 8-byte *slot words* — 0 = empty,
//! else a 32-bit tag above the 32-bit position of the entry — over a
//! dense array of the entries themselves, which carry their own key
//! ([`Keyed`]), with each entry's tag kept beside it. A probe walks the
//! slot words linearly from the home slot, eight to a cache line, and
//! only a matching tag pays the full [`FlowKey`] compare against the
//! entry. A new entry is appended, so a burst of first packets writes
//! the entry array sequentially and touches one random line each — the
//! slot word. Entries are big (a connection record is 72 bytes) and the
//! words are small, so the words can afford a low load — short,
//! predictable probe sequences — while the entries stay packed.
//!
//! **Slot function.** The digest alone must not choose the slot: the
//! engine's hash seed has a public default, so an attacker can compute
//! digests offline and mint flows that share any bits of them (that is
//! the FlowCache's accepted row-collision exposure, bounded there by the
//! row's 12 buckets; a probe sequence has no such bound). Each table
//! therefore draws a secret [`KeyedMix`] and folds the digest through
//! it — one keyed 64×64→128-bit multiply, its high bits folded down
//! onto the low ones. The low 31 bits of the
//! result, with bit 31 set so a live word is never 0, are the tag, and
//! the tag's low bits are the home slot: growing, deleting and sweeping
//! re-derive every home from the tags and never touch a key or a
//! digest.
//!
//! **Equal digests.** The secret separates digests that differ. It
//! cannot separate flows that *share* one, and under a public seed
//! those can be minted as well: the flow hash is three invertible
//! rounds over two 48-bit words, so for any first word the second that
//! reaches a chosen digest can be solved for. Such flows have one tag
//! and one cluster, and every lookup among `n` of them would compare
//! `n` keys. So the table trusts digests only while they behave: an
//! insert whose probe passed [`MAX_TWINS`] entries carrying its tag
//! under other keys turns the table over to tags derived from the
//! secret hash of the entry's *full key* — what the std map this table
//! replaced paid on every lookup — re-tags what it holds once, and
//! stays so until the next [`FlowTable::reset`]. Honest traffic never
//! sees eight equal 31-bit tags in one cluster; an attacker buys at
//! most `MAX_TWINS` key compares per lookup before the switch and one
//! key hash per lookup after it.
//!
//! **No tombstones.** Removing an entry closes the gap in the slot
//! words by backward shift and fills the gap in the entry array with
//! the last entry, so a table emptied by removals is all zero words and
//! [`FlowTable::reset`] — a `fill(0)` of the words under the
//! [`Resident`] shrink rule — leaves a table that probes exactly like a
//! fresh one of its size.

use crate::prefetch::prefetch_read;
use smartwatch_net::resident::SLACK;
use smartwatch_net::{FlowKey, HashDigest, KeyedMix, Resident};
use std::cell::Cell;
use std::hash::BuildHasher;

/// An entry that carries the canonical key of the flow it belongs to.
pub trait Keyed {
    /// The canonical flow key this entry is filed under.
    fn flow(&self) -> &FlowKey;
}

/// A set member: the key is the entry.
impl Keyed for FlowKey {
    fn flow(&self) -> &FlowKey {
        self
    }
}

/// Smallest slot array: two cache lines of words.
pub(crate) const MIN_SLOTS: usize = 16;
/// The slot array doubles before an insert would take it past
/// `MAX_LOAD.0 / MAX_LOAD.1` full (DESIGN.md §2 has the measurement).
pub(crate) const MAX_LOAD: (usize, usize) = (1, 2);
/// Entries carrying the probed tag under other keys that an insert may
/// pass before the table stops deriving tags from digests (module doc,
/// "Equal digests").
pub(crate) const MAX_TWINS: usize = 8;
/// Set in every tag, so no live slot word is the empty sentinel.
const LIVE: u32 = 1 << 31;

/// What a table has counted since it was built, resets included.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TableStats {
    /// Keyed operations (get / insert / remove) that probed the table.
    pub lookups: u64,
    /// Slots those operations examined, terminating empty slot included:
    /// `probes / lookups` is the mean probe length.
    pub probes: u64,
}

impl std::ops::Add for TableStats {
    type Output = TableStats;

    fn add(self, other: TableStats) -> TableStats {
        TableStats {
            lookups: self.lookups + other.lookups,
            probes: self.probes + other.probes,
        }
    }
}

impl std::ops::Sub for TableStats {
    type Output = TableStats;

    /// What was counted between two reads of the same tables' books.
    fn sub(self, earlier: TableStats) -> TableStats {
        TableStats {
            lookups: self.lookups - earlier.lookups,
            probes: self.probes - earlier.probes,
        }
    }
}

/// The part of a table a hint may read: its slot words and what files
/// a key into them. It holds no entry and no book, so nothing reached
/// through it walks a probe sequence or counts a lookup.
#[derive(Clone, Copy)]
struct Slots<'t> {
    words: &'t [u64],
    secret: &'t KeyedMix,
    by_key: bool,
}

impl Slots<'_> {
    /// The tag `canon` is filed under: the secret hash of its digest —
    /// one keyed multiply round — or, once digests are no longer
    /// trusted, of the key itself. See the module doc.
    #[inline]
    fn tag_of(self, canon: &FlowKey, digest: HashDigest) -> u32 {
        let h = if self.by_key {
            self.secret.hash_one(canon)
        } else {
            self.secret.hash_one(digest.0)
        };
        h as u32 | LIVE
    }

    /// See [`FlowTable::prefetch`].
    #[inline]
    fn prefetch(self, canon: &FlowKey, digest: HashDigest) {
        if self.words.is_empty() || self.by_key {
            return;
        }
        let home = self.tag_of(canon, digest) as usize & (self.words.len() - 1);
        prefetch_read(&self.words[home]);
    }
}

/// The slot word of the entry at position `at`, tagged `tag`.
#[inline]
fn word(tag: u32, at: usize) -> u64 {
    u64::from(tag) << 32 | at as u64
}

/// Open-addressed, digest-indexed table of per-flow entries.
///
/// Every keyed operation takes the flow's canonical key *and* its
/// digest, and the caller must present the same digest for the same key
/// every time — in the engine, the symmetric digest ingest computed.
/// Users hold the hasher and debug-assert that at their own entry
/// points; the table hashes a key only once it has stopped trusting
/// digests.
#[derive(Clone, Debug)]
pub struct FlowTable<V> {
    /// `words[i]` is 0 iff slot `i` is empty, else `word(tag, at)` of
    /// the entry `entries[at]`.
    words: Vec<u64>,
    /// The entries, dense, in no particular order.
    entries: Vec<V>,
    /// `tags[at]` is the tag of `entries[at]`.
    tags: Vec<u32>,
    /// Most entries held since the last reset, as of the last removal
    /// (the length only falls there).
    high_water: usize,
    /// The slot function's secret; a clone shares it.
    secret: KeyedMix,
    /// Tags are derived from the entries' keys, not from their digests
    /// (module doc, "Equal digests").
    by_key: bool,
    lookups: Cell<u64>,
    probes: Cell<u64>,
}

impl<V: Keyed + Copy> Default for FlowTable<V> {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl<V: Keyed + Copy> FlowTable<V> {
    /// Empty, unallocated table with a fresh random slot secret.
    pub fn new() -> FlowTable<V> {
        FlowTable::with_secret(KeyedMix::new())
    }

    fn with_secret(secret: KeyedMix) -> FlowTable<V> {
        FlowTable {
            words: Vec::new(),
            entries: Vec::new(),
            tags: Vec::new(),
            high_water: 0,
            secret,
            by_key: false,
            lookups: Cell::new(0),
            probes: Cell::new(0),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slots allocated (0 before the first insert).
    pub fn slots(&self) -> usize {
        self.words.len()
    }

    /// The table's books so far.
    pub fn stats(&self) -> TableStats {
        TableStats {
            lookups: self.lookups.get(),
            probes: self.probes.get(),
        }
    }

    /// Heap bytes held: slot words, entries and their tags.
    pub fn resident_bytes(&self) -> usize {
        self.words.resident_bytes() + self.entries.resident_bytes() + self.tags.resident_bytes()
    }

    /// The slot words, for [`Slots`]' readers.
    #[inline]
    fn slots_view(&self) -> Slots<'_> {
        Slots {
            words: &self.words,
            secret: &self.secret,
            by_key: self.by_key,
        }
    }

    /// The tag `canon` is filed under ([`Slots::tag_of`]).
    #[inline]
    fn tag_of(&self, canon: &FlowKey, digest: HashDigest) -> u32 {
        self.slots_view().tag_of(canon, digest)
    }

    /// Walk the probe sequence of `tag` on an allocated table to the
    /// slot whose entry is filed under `canon` (`true`), or to the empty
    /// slot that ends the sequence (`false`); last, the entries passed
    /// that carry `tag` under another key.
    #[inline]
    fn find(&self, canon: &FlowKey, tag: u32) -> (usize, bool, usize) {
        let mask = self.words.len() - 1;
        let mut slot = tag as usize & mask;
        let (mut walked, mut twins) = (1, 0);
        let hit = loop {
            let w = self.words[slot];
            if w == 0 {
                break false;
            }
            if (w >> 32) as u32 == tag {
                if self.entries[self.at(slot)].flow() == canon {
                    break true;
                }
                twins += 1;
            }
            slot = (slot + 1) & mask;
            walked += 1;
        };
        self.lookups.set(self.lookups.get() + 1);
        self.probes.set(self.probes.get() + walked);
        (slot, hit, twins)
    }

    /// The slot of the entry filed under `canon`; `None` on a miss or
    /// an unallocated table.
    #[inline]
    fn locate(&self, canon: &FlowKey, digest: HashDigest) -> Option<usize> {
        if self.words.is_empty() {
            return None;
        }
        let (slot, hit, _) = self.find(canon, self.tag_of(canon, digest));
        hit.then_some(slot)
    }

    /// Hint the home slot word of `canon` toward L1 — the one random
    /// line an insert or a lookup reads first. Semantically inert: the
    /// hint runs on the slot words alone ([`Slots`]), which reach no
    /// book and no probe walk. Does nothing on an unallocated table,
    /// and nothing on a table filing by key, whose home would cost the
    /// key hash the lookup pays anyway.
    #[inline]
    pub fn prefetch(&self, canon: &FlowKey, digest: HashDigest) {
        self.slots_view().prefetch(canon, digest);
    }

    /// Position in the entry array that live slot `slot` points at.
    #[inline]
    fn at(&self, slot: usize) -> usize {
        self.words[slot] as u32 as usize
    }

    /// First empty slot on the probe sequence of `tag`.
    fn vacancy(&self, tag: u32) -> usize {
        let mask = self.words.len() - 1;
        let mut slot = tag as usize & mask;
        while self.words[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The slot that points at the entry at position `at`.
    fn slot_of(&self, at: usize) -> usize {
        let mask = self.words.len() - 1;
        let tag = self.tags[at];
        let pointer = word(tag, at);
        let mut slot = tag as usize & mask;
        while self.words[slot] != pointer {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The entry filed under `canon`, if any.
    pub fn get(&self, canon: &FlowKey, digest: HashDigest) -> Option<&V> {
        let slot = self.locate(canon, digest)?;
        Some(&self.entries[self.at(slot)])
    }

    /// True when an entry is filed under `canon`.
    pub fn contains(&self, canon: &FlowKey, digest: HashDigest) -> bool {
        self.locate(canon, digest).is_some()
    }

    /// The entry filed under `canon`, created by `make` when there is
    /// none (`make` must return an entry keyed `canon`).
    pub fn get_or_insert_with(
        &mut self,
        canon: &FlowKey,
        digest: HashDigest,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        if self.words.is_empty() {
            self.words = vec![0; MIN_SLOTS];
        }
        let mut tag = self.tag_of(canon, digest);
        let (mut slot, hit, twins) = self.find(canon, tag);
        if hit {
            let at = self.at(slot);
            return &mut self.entries[at];
        }
        let minted = twins >= MAX_TWINS && !self.by_key;
        let full = (self.entries.len() + 1) * MAX_LOAD.1 > self.words.len() * MAX_LOAD.0;
        if minted {
            // Flows are arriving under one digest: file everything by
            // the secret hash of its key from here on.
            self.by_key = true;
            for (tag, entry) in self.tags.iter_mut().zip(&self.entries) {
                *tag = self.secret.hash_one(entry.flow()) as u32 | LIVE;
            }
            tag = self.tag_of(canon, digest);
        }
        if minted || full {
            self.rebuild(self.words.len() * if full { 2 } else { 1 });
            slot = self.vacancy(tag);
        }
        let entry = make();
        debug_assert_eq!(entry.flow(), canon, "entry filed under another key");
        self.words[slot] = word(tag, self.entries.len());
        self.entries.push(entry);
        self.tags.push(tag);
        self.entries.last_mut().expect("just pushed")
    }

    /// File `entry` under its own key, returning the entry it replaced.
    pub fn insert(&mut self, digest: HashDigest, entry: V) -> Option<V> {
        let mut replaced = true;
        let filed = self.get_or_insert_with(entry.flow(), digest, || {
            replaced = false;
            entry
        });
        replaced.then(|| std::mem::replace(filed, entry))
    }

    /// Take out the entry filed under `canon`.
    pub fn remove(&mut self, canon: &FlowKey, digest: HashDigest) -> Option<V> {
        let slot = self.locate(canon, digest)?;
        self.high_water = self.high_water.max(self.entries.len());
        Some(self.unlink(slot))
    }

    /// Take out the entry of live slot `slot`: close the gap the slot
    /// leaves by backward shift, fill the gap in the entry array with
    /// the last entry, and point that entry's slot at its new position.
    fn unlink(&mut self, slot: usize) -> V {
        let at = self.at(slot);
        let mask = self.words.len() - 1;
        let (mut hole, mut j) = (slot, slot);
        loop {
            j = (j + 1) & mask;
            let w = self.words[j];
            if w == 0 {
                break;
            }
            // The word at `j` may fall back into the hole unless its
            // home lies after the hole (cyclically, in `(hole, j]`).
            let home = (w >> 32) as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.words[hole] = w;
                hole = j;
            }
        }
        self.words[hole] = 0;

        let last = self.entries.len() - 1;
        if at < last {
            let moved = self.slot_of(last);
            self.words[moved] = word(self.tags[last], at);
        }
        self.tags.swap_remove(at);
        self.entries.swap_remove(at)
    }

    /// Keep the entries `keep` approves; each entry is shown to `keep`
    /// exactly once, in table order, which the survivors keep. One
    /// sequential pass compacts the entry array in place and, if
    /// anything went, the slot words are rebuilt from the tags of what
    /// was kept — so an end-of-trace sweep that empties the table costs
    /// one pass over the entries and one `fill(0)`, not two slot walks
    /// per entry.
    pub fn sweep(&mut self, mut keep: impl FnMut(&V) -> bool) {
        let before = self.entries.len();
        self.high_water = self.high_water.max(before);
        let mut kept = 0;
        for at in 0..before {
            if keep(&self.entries[at]) {
                if kept < at {
                    self.entries[kept] = self.entries[at];
                    self.tags[kept] = self.tags[at];
                }
                kept += 1;
            }
        }
        if kept < before {
            self.entries.truncate(kept);
            self.tags.truncate(kept);
            self.rebuild(self.words.len());
        }
    }

    /// Entries, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.entries.iter()
    }

    /// Slots a table needs to hold `entries` under the maximum load.
    fn slots_for(entries: usize) -> usize {
        (entries * MAX_LOAD.1)
            .div_ceil(MAX_LOAD.0)
            .next_power_of_two()
            .max(MIN_SLOTS)
    }

    /// Back to the state [`FlowTable::new`] built, in place: no entries,
    /// same slot secret, digests trusted again, the books carried on.
    /// The allocation is kept — zeroing the slot words is the whole
    /// reset, and a table already emptied by removals has no word to
    /// zero (module doc, "No tombstones") — unless it could hold more
    /// than [`SLACK`] times the most entries held since the last reset,
    /// in which case it shrinks to fit `SLACK / 2` times that (a table
    /// never used gives everything back).
    pub fn reset(&mut self) {
        let held = !self.entries.is_empty();
        let high_water = self.high_water.max(self.entries.len());
        self.high_water = 0;
        self.by_key = false;
        self.entries.reset_to(high_water);
        self.tags.reset_to(high_water);
        let capacity = self.words.len() * MAX_LOAD.0 / MAX_LOAD.1;
        let fit = FlowTable::<V>::slots_for(SLACK / 2 * high_water);
        if high_water == 0 {
            self.words = Vec::new();
        } else if capacity > SLACK * high_water && fit < self.words.len() {
            self.words = vec![0; fit];
        } else if held {
            self.words.fill(0);
        } else {
            debug_assert!(
                self.words.iter().all(|&w| w == 0),
                "an empty table holds a word"
            );
        }
    }

    /// Re-seat every entry in a slot array of `slots` words, from the
    /// tags alone.
    fn rebuild(&mut self, slots: usize) {
        assert!(
            slots.is_power_of_two() && slots <= LIVE as usize,
            "flow table of {slots} slots"
        );
        if slots == self.words.len() {
            self.words.fill(0);
        } else {
            self.words = vec![0; slots];
        }
        for at in 0..self.tags.len() {
            let slot = self.vacancy(self.tags[at]);
            self.words[slot] = word(self.tags[at], at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::hash::splitmix64;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// A test entry: its key and a payload the scripts mutate.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Entry {
        key: FlowKey,
        val: u64,
    }

    impl Keyed for Entry {
        fn flow(&self) -> &FlowKey {
            &self.key
        }
    }

    fn key(i: u64) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(i as u32),
            (i >> 32) as u16,
            Ipv4Addr::new(192, 168, 0, 1),
            443,
        )
    }

    /// Identity slot function below 2^32: tag = the digest's low 31
    /// bits, home = its low bits — what a table without a secret would
    /// be, and what lets a script place entries exactly.
    fn unkeyed<V: Keyed + Copy>() -> FlowTable<V> {
        FlowTable::with_secret(KeyedMix::with_key(0, 1))
    }

    impl<V: Keyed + Copy> FlowTable<V> {
        /// Every structural invariant, re-derived from scratch: the live
        /// slot words are exactly one pointer per entry, carrying that
        /// entry's tag, and every entry is reachable from its home slot
        /// without crossing an empty one (no slot is both empty and
        /// inside a cluster). A table that files by key holds exactly
        /// the tags its secret gives the keys.
        fn assert_sound(&self) {
            assert_eq!(self.tags.len(), self.entries.len());
            let live = self.words.iter().filter(|&&w| w != 0).count();
            assert_eq!(live, self.entries.len(), "one live slot per entry");
            if self.words.is_empty() {
                return;
            }
            assert!(self.words.len().is_power_of_two());
            assert!(self.entries.len() * MAX_LOAD.1 <= self.words.len() * MAX_LOAD.0);
            let mask = self.words.len() - 1;
            for at in 0..self.entries.len() {
                let tag = self.tags[at];
                assert_ne!(tag & LIVE, 0);
                if self.by_key {
                    assert_eq!(tag, self.tag_of(self.entries[at].flow(), HashDigest(0)));
                }
                let mut slot = tag as usize & mask;
                while self.words[slot] != word(tag, at) {
                    assert_ne!(self.words[slot], 0, "entry {at} is cut off from its home");
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// The table and its model, driven in lockstep. `digest_of` forges
    /// the digest of key `i`: any function of the key is a legal digest.
    struct Lockstep<D: Fn(u64) -> u64> {
        table: FlowTable<Entry>,
        model: HashMap<FlowKey, Entry>,
        digest_of: D,
        /// Checks that found the table filing by key.
        by_key: usize,
    }

    fn lockstep<D: Fn(u64) -> u64>(table: FlowTable<Entry>, digest_of: D) -> Lockstep<D> {
        Lockstep {
            table,
            model: HashMap::new(),
            digest_of,
            by_key: 0,
        }
    }

    impl<D: Fn(u64) -> u64> Lockstep<D> {
        fn digest(&self, i: u64) -> HashDigest {
            HashDigest((self.digest_of)(i))
        }

        fn agree(&mut self, step: &str) {
            self.table.assert_sound();
            self.by_key += usize::from(self.table.by_key);
            assert_eq!(self.table.len(), self.model.len(), "{step}");
            let mut held: Vec<Entry> = self.table.iter().copied().collect();
            let mut want: Vec<Entry> = self.model.values().copied().collect();
            held.sort_by_key(|e| e.key);
            want.sort_by_key(|e| e.key);
            assert_eq!(held, want, "{step}");
        }

        fn insert(&mut self, i: u64, val: u64) {
            let e = Entry { key: key(i), val };
            assert_eq!(
                self.table.insert(self.digest(i), e),
                self.model.insert(e.key, e),
                "insert {i}"
            );
        }

        fn get(&self, i: u64) {
            let d = self.digest(i);
            assert_eq!(
                self.table.get(&key(i), d),
                self.model.get(&key(i)),
                "get {i}"
            );
            assert_eq!(
                self.table.contains(&key(i), d),
                self.model.contains_key(&key(i))
            );
        }

        fn bump(&mut self, i: u64) {
            let (k, d) = (key(i), self.digest(i));
            let fresh = Entry { key: k, val: 0 };
            self.table.get_or_insert_with(&k, d, || fresh).val += 1;
            self.model.entry(k).or_insert(fresh).val += 1;
        }

        fn remove(&mut self, i: u64) {
            assert_eq!(
                self.table.remove(&key(i), self.digest(i)),
                self.model.remove(&key(i)),
                "remove {i}"
            );
        }

        fn sweep(&mut self, keep: impl Fn(&Entry) -> bool) {
            let mut shown = Vec::new();
            self.table.sweep(|e| {
                shown.push(*e);
                keep(e)
            });
            // Each entry was shown exactly once.
            let mut want: Vec<Entry> = self.model.values().copied().collect();
            shown.sort_by_key(|e| e.key);
            want.sort_by_key(|e| e.key);
            assert_eq!(shown, want, "sweep shows every entry once");
            self.model.retain(|_, e| keep(e));
        }

        fn reset(&mut self) {
            self.table.reset();
            self.model.clear();
        }

        /// `steps` random operations over keys `0..universe`.
        fn run(&mut self, seed: u64, universe: u64, steps: usize) {
            let mut rng = seed;
            let mut next = move |m: u64| {
                rng = splitmix64(rng);
                rng % m
            };
            for step in 0..steps {
                let i = next(universe);
                match next(100) {
                    0..=29 => self.insert(i, next(1_000)),
                    30..=49 => self.bump(i),
                    50..=64 => self.get(i),
                    65..=89 => self.remove(i),
                    90..=93 => {
                        let m = 2 + next(4);
                        self.sweep(|e| e.val % m != 0);
                    }
                    94..=95 => self.sweep(|_| false),
                    96 => self.reset(),
                    // Grow: a run of fresh keys.
                    _ => {
                        let from = next(universe);
                        for j in 0..universe / 2 {
                            self.insert((from + j) % universe, j);
                        }
                    }
                }
                self.agree(&format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn the_table_is_its_model_under_random_scripts() {
        for seed in 1..=6 {
            // Well-spread digests under a random secret.
            let mut spread = lockstep(FlowTable::new(), splitmix64);
            spread.run(seed, 400, 1_500);
            // Distinct keys with *equal* digests, four to a digest:
            // twins, too few for the table to mind.
            let mut fours = lockstep(FlowTable::new(), |i| splitmix64(i / 4));
            fours.run(seed, 200, 1_500);
            // Distinct tags, equal home slots (identity slot function,
            // low 8 bits shared): one long cluster.
            let mut cluster = lockstep(unkeyed(), |i| (i << 8) | 0x5A);
            cluster.run(seed, 120, 1_000);
            // Homes on the last eight slots of the array, whatever its
            // size: every cluster wraps the end.
            let mut wrapped = lockstep(unkeyed(), |i| (i >> 3) << 16 | 0xFFF8 | (i & 7));
            wrapped.run(seed, 120, 1_000);
            let by_key = [spread.by_key, fours.by_key, cluster.by_key, wrapped.by_key];
            assert_eq!(by_key, [0; 4], "seed {seed}: digests were trusted");
            // Thirty-two keys to a digest: the table turns to filing by
            // key on the ninth of a kind and back at every reset.
            let steps = 1_500;
            let mut minted = lockstep(FlowTable::new(), |i| splitmix64(i / 32));
            minted.run(seed, 256, steps);
            assert!(
                0 < minted.by_key && minted.by_key < steps,
                "seed {seed}: {} of {steps} steps by key",
                minted.by_key
            );
        }
    }

    #[test]
    fn a_delete_in_the_middle_of_a_wrapped_cluster_closes_the_gap() {
        // Sixteen slots, identity slot function: homes 13, 13, 14, 15,
        // 15, 0 fill slots 13..=15 and wrap onto 0, 1, 2.
        let mut t = lockstep(unkeyed(), |i| {
            [13, 13 | 1 << 8, 14, 15, 15 | 1 << 8, 0][i as usize]
        });
        for i in 0..6 {
            t.insert(i, i);
        }
        assert_eq!(t.table.slots(), MIN_SLOTS);
        let occupied =
            |t: &FlowTable<Entry>| -> Vec<usize> { (0..16).filter(|&s| t.words[s] != 0).collect() };
        assert_eq!(occupied(&t.table), [0, 1, 2, 13, 14, 15]);
        // Out of the middle: everything behind it that may fall back
        // does, across the end of the array.
        t.remove(2);
        t.agree("after the middle delete");
        assert_eq!(occupied(&t.table), [0, 1, 13, 14, 15]);
        // Deleting the cluster's head pulls back only what is homed at
        // or before the gap: the entries homed at 15 and 0 stay put.
        t.remove(0);
        t.remove(1);
        t.agree("after the head deletes");
        assert_eq!(occupied(&t.table), [0, 1, 15]);
        for i in 0..6 {
            t.get(i);
        }
    }

    /// Mean probe length of inserting then looking up `digests`.
    fn probe_mean(table: &mut FlowTable<Entry>, digests: &[u64]) -> f64 {
        for (i, &d) in digests.iter().enumerate() {
            let e = Entry {
                key: key(i as u64),
                val: 0,
            };
            table.insert(HashDigest(d), e);
        }
        for (i, &d) in digests.iter().enumerate() {
            assert!(table.contains(&key(i as u64), HashDigest(d)));
        }
        let s = table.stats();
        s.probes as f64 / s.lookups as f64
    }

    /// The row-collision mice flood: flows minted offline (the default
    /// hash seed is public) so that their digests share the low 16 bits
    /// — one FlowCache row — or differ only in their top 16 bits, where
    /// the FlowCache's tag byte lives.
    fn minted(n: u64) -> Vec<u64> {
        let one_row = (0..n).map(|i| splitmix64(i) << 16 | 0xBEEF);
        let one_body = (0..n).map(|i| i << 48 | 0x0000_1234_5678_9ABC);
        one_row.chain(one_body).collect()
    }

    /// A fixed sweep of slot secrets, so the verdict does not depend on
    /// the draw: first four under which the minted population probed
    /// 4–63× longer than a random one while `KeyedMix` finished on its
    /// raw state (about one secret in 25 did), then twelve drawn ones.
    #[test]
    fn a_minted_population_probes_like_a_random_one() {
        let n = 1 << 16;
        let random: Vec<u64> = (0..2 * n).map(|i| splitmix64(i ^ 0xABCD)).collect();
        let baseline = probe_mean(&mut FlowTable::new(), &random);
        assert!(baseline < 2.0, "random population: {baseline}");
        let weak = [
            (8_655_936_877_425_688_806, 13_676_963_282_043_052_965),
            (4_836_014_909_795_864_713, 2_663_419_475_998_433_749),
            (11_660_356_100_602_448_417, 7_609_176_468_542_871_265),
            (10_430_179_812_912_058_898, 3_909_611_442_438_097_099),
        ];
        let drawn = (0..12).map(|k| (splitmix64(2 * k), splitmix64(2 * k + 1) | 1));
        for (state, mul) in weak.into_iter().chain(drawn) {
            let mut table = FlowTable::with_secret(KeyedMix::with_key(state, mul));
            let hostile = probe_mean(&mut table, &minted(n));
            assert!(
                hostile < 2.0 * baseline,
                "secret ({state}, {mul}): minted {hostile} vs random {baseline}"
            );
        }
    }

    #[test]
    fn without_the_secret_the_minted_population_degrades_the_table() {
        // Without a secret the slot function is public, so the flood is
        // minted against it: below 2^32 the keyless function is the
        // identity, and digests that share their low 16 bits — one
        // FlowCache row — home on a handful of slots, so the probe
        // sequences grow with the population.
        let n = 1 << 12;
        let random: Vec<u64> = (0..2 * n).map(|i| splitmix64(i ^ 0xABCD)).collect();
        let baseline = probe_mean(&mut unkeyed(), &random);
        let one_row: Vec<u64> = (0..2 * n).map(|i| i << 16 | 0xBEEF).collect();
        let hostile = probe_mean(&mut unkeyed(), &one_row);
        assert!(baseline < 2.0, "random population: {baseline}");
        assert!(
            hostile > 100.0 * baseline,
            "minted {hostile} vs random {baseline}"
        );
    }

    /// A slot secret under which no two of the 4 096 kinds of
    /// `a_flood_under_one_digest_is_bounded` share a tag.
    const SECRET: (u64, u64) = (0x09F1_FD9D_03F0_A9B4, 0xD8DC_0B86_7152_5513);
    /// A secret under which two of those kinds, 131 and 3314, share a
    /// 31-bit tag. Found by looping over secrets: about one in 256 has
    /// such a pair (2^23 pairs of kinds over 2^31 tags).
    const SHARED_TAG: (u64, u64) = (2_341_513_788_045_094_070, 14_718_084_741_485_309_957);

    /// What no slot secret can separate: flows minted under *one*
    /// digest (the flow hash is invertible, its default seed public).
    /// The ninth of a kind turns the table over to filing by key, so
    /// 2^14 of them among as many honest flows probe like a random
    /// population — not the 2^13 slots each that one shared tag costs.
    #[test]
    fn a_flood_under_one_digest_is_bounded() {
        let keyed = |(state, mul): (u64, u64)| KeyedMix::with_key(state, mul);
        let n = 1 << 14;
        let random: Vec<u64> = (0..2 * n).map(|i| splitmix64(i ^ 0xABCD)).collect();
        let baseline = probe_mean(&mut FlowTable::with_secret(keyed(SECRET)), &random);
        let one_digest = |i: u64| if i & 1 == 0 { 0xD16E57 } else { splitmix64(i) };
        let flood: Vec<u64> = (0..2 * n).map(one_digest).collect();
        let mut table = FlowTable::with_secret(keyed(SECRET));
        let hostile = probe_mean(&mut table, &flood);
        assert!(table.by_key, "the flood was noticed");
        assert!(
            hostile < 2.0 * baseline,
            "one digest {hostile} vs random {baseline}"
        );
        // No single lookup walks far either.
        let longest = (0..2 * n).map(|i| {
            let before = table.stats().probes;
            assert!(table.contains(&key(i), HashDigest(one_digest(i))));
            table.stats().probes - before
        });
        assert!(longest.max() < Some(128));
        // The next segment trusts digests again, and the same flood
        // costs the same again.
        table.reset();
        assert!(!table.by_key);
        let before = table.stats();
        probe_mean(&mut table, &flood);
        let again = table.stats() - before;
        assert!((again.probes as f64) < 2.0 * baseline * again.lookups as f64);

        // Kinds kept just under the threshold stay filed by digest and
        // cost what they buy: a lookup passes its twins, no more. The
        // table keeps tags, not digests, so two kinds that share a tag
        // look like one minted digest to it: the second kind's first
        // insert passes the first kind's eight twins, and the table
        // files by key, as sixteen entries under one tag call for.
        let tag = |kind| keyed(SHARED_TAG).hash_one(splitmix64(kind)) as u32 | LIVE;
        assert_eq!(tag(131), tag(3314));
        let kinds: Vec<u64> = (0..2 * n)
            .map(|i| splitmix64(i / MAX_TWINS as u64))
            .collect();
        for (secret, shared) in [(SECRET, false), (SHARED_TAG, true)] {
            let mut table = FlowTable::with_secret(keyed(secret));
            let crowded = probe_mean(&mut table, &kinds);
            assert_eq!(table.by_key, shared, "secret {secret:?}");
            assert!(
                crowded < 2.0 * MAX_TWINS as f64,
                "{MAX_TWINS} to a digest: {crowded}"
            );
        }
    }

    #[test]
    fn reset_follows_the_shrink_rule() {
        let mut t: FlowTable<Entry> = FlowTable::new();
        let fill = |t: &mut FlowTable<Entry>, n: u64| {
            for i in 0..n {
                let e = Entry {
                    key: key(i),
                    val: i,
                };
                t.insert(HashDigest(splitmix64(i)), e);
            }
        };
        // A steady workload keeps its allocation, reset after reset.
        fill(&mut t, 10_000);
        let (slots, bytes) = (t.slots(), t.resident_bytes());
        for _ in 0..3 {
            t.reset();
            assert!(t.is_empty());
            assert_eq!((t.slots(), t.resident_bytes()), (slots, bytes));
            fill(&mut t, 10_000);
            assert_eq!((t.slots(), t.resident_bytes()), (slots, bytes));
        }
        // The flood's own reset keeps the flood's table; the reset after
        // a segment that needed a hundredth of it gives the rest back;
        // a table left unused gives everything back.
        t.reset();
        fill(&mut t, 100);
        t.reset();
        assert!(t.slots() < slots / 16 && t.resident_bytes() < bytes / 16);
        let settled = (t.slots(), t.resident_bytes());
        fill(&mut t, 100);
        t.reset();
        assert_eq!((t.slots(), t.resident_bytes()), settled, "and is stable");
        t.reset();
        assert_eq!((t.slots(), t.resident_bytes()), (0, 0));
        // A sweep that empties the table does not hide the peak.
        fill(&mut t, 10_000);
        t.sweep(|_| false);
        t.reset();
        assert_eq!(t.slots(), slots);
    }

    /// Stage A's hint is inert: on an unallocated table, a populated one
    /// and one filing by key, `prefetch` moves no book, no entry, no
    /// slot word and not the filing mode.
    #[test]
    fn prefetch_changes_nothing_a_lookup_could_see() {
        let filled = |digest_of: fn(u64) -> u64| {
            let mut t = FlowTable::new();
            for i in 0..1_000 {
                t.insert(
                    HashDigest(digest_of(i)),
                    Entry {
                        key: key(i),
                        val: i,
                    },
                );
            }
            t
        };
        let populated = filled(splitmix64);
        let by_key = filled(|i| if i % 2 == 0 { 0xD16E57 } else { splitmix64(i) });
        assert!(!populated.by_key && by_key.by_key);
        for table in [FlowTable::new(), populated, by_key] {
            let view = |t: &FlowTable<Entry>| {
                let entries: Vec<Entry> = t.iter().copied().collect();
                (t.stats(), t.len(), t.by_key, t.words.clone(), entries)
            };
            let before = view(&table);
            for i in 0..2_000 {
                table.prefetch(&key(i), HashDigest(splitmix64(i)));
                table.prefetch(&key(i), HashDigest(0xD16E57));
            }
            assert_eq!(view(&table), before);
        }
    }
}
