//! The sNIC FlowCache (paper §3.2–3.3): a row-partitioned hash table with
//! Primary/Eviction buffers, pluggable eviction policies, pinning, ring
//! buffers, and the reconfigurable General/Lite operating modes with lazy
//! row cleanup.
//!
//! One owner drives each cache: every experiment, and in the wall-clock
//! engine the shard RSS gives the flow to. That single writer per flow
//! replaces the paper's lockless multi-PME update protocol (Algorithm
//! 2), whose atomic add the DES still prices ([`crate::hw`]).
//!
//! ## Structure
//!
//! `2^row_bits` rows × `buckets_per_row` buckets, contiguous, allocated up
//! front (the sNIC allocates its cache at compile time). In **General**
//! mode a row is split into a Primary buffer P (first `primary` buckets)
//! and an Eviction buffer E (next `eviction` buckets). In **Lite** mode the
//! row is subdivided into `buckets_per_row / lite_buckets` logical sub-rows
//! of `lite_buckets` buckets each, selected by the high bits of the hash
//! digest (Algorithm 1) — same memory, shorter probes.
//!
//! ## Per-packet operation (General mode)
//!
//! - **P hit** — update the record in place.
//! - **E hit** — update, then swap the record with P's policy victim so a
//!   hot flow migrates back into P.
//! - **Miss** — evict E's policy victim to a ring buffer, demote P's
//!   policy victim into the freed E slot, insert the new flow in P.
//!
//! Pinned records are never victims; if an insertion finds every candidate
//! pinned, the packet is forwarded to the host instead (counted, because
//! the platform strives to keep this below a few percent).
//!
//! ## Row layout: tag lines over line-sized slots
//!
//! Each row carries a cache-line-aligned header of 8-bit digest tags
//! ([`HashDigest::tag`]), one per bucket, with 0 reserved for "empty",
//! over a slot array aligned so that one 64-byte record is one cache
//! line (a P span of 4 is 4 lines). The tag line is the occupancy
//! truth: `tags[row][b] != 0` iff the bucket holds a record, and then
//! the tag equals that record's own digest tag. A slot under a 0 tag
//! holds whatever bytes it last held, and no reader looks at them —
//! every probe, victim pick, lookup, cleanup, snapshot and drain goes
//! through the tags — so emptying a bucket writes one byte and
//! [`FlowCache::reset`] writes the tag lines alone, never a record.
//!
//! A probe scans the tag line first and performs the full 13-byte key
//! compare only on tag match, so a whole 12-bucket row resolves from one
//! line in the common case.
//!
//! ## Stage A: hints ahead of a burst of probes
//!
//! The engine probes in bursts of [`BURST`] packets and hints each
//! burst's lines before probing any of them, so up to 8 independent
//! DRAM misses overlap instead of serialising. The hints take `&self`
//! and change nothing a probe could see. A warm burst (mostly hits)
//! hints each row's tag line and first P bucket
//! ([`FlowCache::prefetch_row`]). A cold burst (mostly misses) runs at
//! two distances: the tag lines of the *next* burst
//! ([`FlowCache::prefetch_tags`]), then, reading the tags of this one,
//! exactly the slot lines each probe will touch
//! ([`FlowCache::prefetch_probe`]) — the bucket whose tag matches, else
//! the first free P bucket, else the P span plus the first free E
//! bucket.
//!
//! ## Books: who counts, who publishes
//!
//! The cache counts each event once, where it happens, in the plain
//! integers of its own [`CacheStats`] — the packet path writes nothing
//! that another thread writes. It holds no metric handle: the cache's
//! *owner* (an engine shard, the platform simulator, an experiment)
//! holds the publisher [`crate::cache_publisher`] builds and publishes
//! at a boundary it already has — once per batch, at an interval end —
//! which adds what was counted since its last publish to `snic.cache.*`
//! / `snic.ring.*`.
//! One rule makes that sound: the books are **cumulative for the
//! cache's life**. [`FlowCache::reset`] empties the table but rewinds
//! no tally, so published cells never go backwards and any span's
//! share — a segment's, a test's second life — is `later - earlier`
//! ([`CacheStats`] has `Sub`). With nothing shared inside, `Clone` is
//! derived: a cloned cache (a throughput-search probe) carries a copy
//! of the books and cannot reach the cells its original is published to.

// No metric handle and no shared cell (`clippy.toml`).
#![deny(clippy::disallowed_types)]

use crate::policy::CachePolicy;
use crate::prefetch::prefetch_read;
use crate::record::FlowRecord;
use crate::ring::RingSet;
use smartwatch_net::hash::DEFAULT_HASH_SEED;
use smartwatch_net::{FlowHasher, FlowKey, HashDigest, Packet, Resident};
use std::ops::{Range, Sub};

/// Hard ceiling on `buckets_per_row`, sized so one row's tag header is
/// exactly one 64-byte cache line (the paper uses 12 buckets; every
/// configuration in the workspace is far below this).
pub(crate) const MAX_BUCKETS: usize = 64;

/// Number of eviction rings (paper: 8).
const RINGS: usize = 8;

/// Lookups per software-pipeline stage — callers issue this many
/// [`FlowCache::prefetch_row`]s, then probe them in order: the prefetch
/// distance. Matches the dispatcher's 8-frame digest bursts
/// and is comfortably within the miss-level parallelism of the memory
/// subsystems this runs on.
pub const BURST: usize = 8;

/// Lines one [`FlowCache::prefetch_row`] hints: a tag line and a slot.
pub const ROW_HINT_LINES: u64 = 2;

/// One row's probe-tag header: an 8-bit digest tag per bucket, 0 = empty.
/// `#[repr(align(64))]` keeps every header on its own cache line so a
/// tag scan (and its prefetch) touches exactly one line.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct RowTags {
    tags: [u8; MAX_BUCKETS],
}

impl RowTags {
    const EMPTY: RowTags = RowTags {
        tags: [0; MAX_BUCKETS],
    };
}

/// One bucket: a record on a cache line of its own. Its bytes mean
/// something only under a non-zero tag (module doc).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(align(64))]
struct Slot(FlowRecord);

impl Slot {
    /// What a bucket holds before its first record: bytes no reader
    /// sees, under the 0 tag of a fresh row.
    fn vacant() -> Slot {
        let nowhere = std::net::Ipv4Addr::UNSPECIFIED;
        let key = FlowKey::new(nowhere, nowhere, 0, 0, smartwatch_net::Proto::Other(0));
        Slot(FlowRecord::new(key, smartwatch_net::Ts::ZERO, 0))
    }
}

/// FlowCache operating mode (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// (P, E) split with up to 12-bucket probes; lossy only under extreme
    /// rates; fewer evictions.
    General,
    /// Short fixed probes (2 buckets), sustains line rate, more evictions.
    Lite,
}

impl Mode {
    /// Lowercase label for metrics/bench rendering.
    pub fn label(self) -> &'static str {
        match self {
            Mode::General => "general",
            Mode::Lite => "lite",
        }
    }

    /// Stable numeric encoding (General = 0, Lite = 1): what the
    /// `control.mode` gauge, the mode cells and flight-event args carry.
    pub fn code(self) -> u8 {
        match self {
            Mode::General => 0,
            Mode::Lite => 1,
        }
    }
}

/// A mode serialises as its [`Mode::label`].
impl serde::Serialize for Mode {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().into())
    }
}

/// FlowCache geometry and policy configuration.
#[derive(Clone, Debug)]
pub struct FlowCacheConfig {
    /// `x` in Algorithm 1: the table has `2^row_bits` rows. The paper uses
    /// 21; tests use smaller tables.
    pub row_bits: u32,
    /// Primary-buffer buckets per row in General mode (`x` of "(x, y)").
    pub primary: usize,
    /// Eviction-buffer buckets per row in General mode (`y` of "(x, y)").
    pub eviction: usize,
    /// Buckets per Lite sub-row (`b` in Algorithm 1; paper: 2).
    pub lite_buckets: usize,
    /// Eviction policies for P and E.
    pub policy: CachePolicy,
    /// Capacity of each ring (paper: 65 536).
    pub ring_capacity: usize,
    /// Hash seed.
    pub hash_seed: u64,
}

impl FlowCacheConfig {
    /// The paper's General (4,8) LRU-LPC configuration at a reduced number
    /// of rows (pass 21 for the full-size table).
    pub fn general(row_bits: u32) -> FlowCacheConfig {
        FlowCacheConfig {
            row_bits,
            primary: 4,
            eviction: 8,
            lite_buckets: 2,
            policy: CachePolicy::LRU_LPC,
            ring_capacity: 64 * 1024,
            hash_seed: DEFAULT_HASH_SEED,
        }
    }

    /// A flat single-buffer configuration `(buckets, 0)` with one policy
    /// everywhere, for the Fig. 5 policy comparison.
    pub fn flat(row_bits: u32, buckets: usize, policy: CachePolicy) -> FlowCacheConfig {
        FlowCacheConfig {
            row_bits,
            primary: buckets,
            eviction: 0,
            lite_buckets: 2,
            policy,
            ring_capacity: 64 * 1024,
            hash_seed: DEFAULT_HASH_SEED,
        }
    }

    /// A (primary, eviction) split configuration.
    pub fn split(
        row_bits: u32,
        primary: usize,
        eviction: usize,
        policy: CachePolicy,
    ) -> FlowCacheConfig {
        FlowCacheConfig {
            row_bits,
            primary,
            eviction,
            lite_buckets: 2,
            policy,
            ring_capacity: 64 * 1024,
            hash_seed: DEFAULT_HASH_SEED,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        1usize << self.row_bits
    }

    /// Total buckets per row (`B` in Algorithm 1; paper: 12): the
    /// primary buffer then the eviction buffer.
    #[inline]
    pub fn buckets_per_row(&self) -> usize {
        self.primary + self.eviction
    }

    fn validate(&self) {
        assert!(self.row_bits >= 1 && self.row_bits <= 30);
        assert!(self.buckets_per_row() <= MAX_BUCKETS);
        assert!(self.primary >= 1);
        assert!(self.lite_buckets >= 1 && self.lite_buckets <= self.buckets_per_row());
    }
}

/// What happened to one packet (Fig. 4a's three outcomes plus the
/// pinned-row overflow path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Matched in the Primary buffer.
    PHit,
    /// Matched in the Eviction buffer (swapped toward P).
    EHit,
    /// New flow inserted (may have evicted records to a ring).
    Miss,
    /// Row fully pinned — packet must be escalated to the host.
    ToHost,
}

/// Cost-relevant detail of one access, consumed by the DES cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The access outcome.
    pub outcome: Outcome,
    /// Buckets read while searching.
    pub probes: u32,
    /// Bucket writes performed (insert/swap/demote).
    pub writes: u32,
    /// Records pushed to a ring buffer by this access.
    pub ring_pushes: u32,
    /// True if this access had to clean a dirty row first (General→Lite
    /// transition work happening lazily on the data path).
    pub cleaned_row: bool,
    /// The touched record's packet count after this access (0 for
    /// [`Outcome::ToHost`]: no record was touched).
    pub packets: u64,
}

/// The cache's books: one plain tally per event, bumped in place by the
/// thread that owns the cache and cumulative for the cache's life (see
/// the module doc). A span's share is a difference: `later - earlier`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Primary-buffer hits.
    pub p_hits: u64,
    /// Eviction-buffer hits.
    pub e_hits: u64,
    /// Misses (new-flow insertions).
    pub misses: u64,
    /// Packets escalated to the host because their row was fully pinned.
    pub to_host: u64,
    /// Records evicted to ring buffers.
    pub evictions: u64,
    /// Rows cleaned during General→Lite transitions.
    pub rows_cleaned: u64,
    /// Records evicted *by* cleanup collisions.
    pub cleanup_evictions: u64,
    /// Flows pinned (host escalation holds).
    pub pins: u64,
    /// Flows unpinned (host verdict releases).
    pub unpins: u64,
    /// Live General↔Lite mode switches applied (Algorithm 4 decisions).
    pub mode_switches: u64,
}

impl CacheStats {
    /// Total packets processed (excluding to-host escalations).
    pub fn processed(&self) -> u64 {
        self.p_hits + self.e_hits + self.misses
    }

    /// Hit rate over processed packets.
    pub fn hit_rate(&self) -> f64 {
        let p = self.processed();
        if p == 0 {
            0.0
        } else {
            (self.p_hits + self.e_hits) as f64 / p as f64
        }
    }
}

impl Sub for CacheStats {
    type Output = CacheStats;

    /// What was counted between two reads of one cache's books.
    fn sub(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            p_hits: self.p_hits - earlier.p_hits,
            e_hits: self.e_hits - earlier.e_hits,
            misses: self.misses - earlier.misses,
            to_host: self.to_host - earlier.to_host,
            evictions: self.evictions - earlier.evictions,
            rows_cleaned: self.rows_cleaned - earlier.rows_cleaned,
            cleanup_evictions: self.cleanup_evictions - earlier.cleanup_evictions,
            pins: self.pins - earlier.pins,
            unpins: self.unpins - earlier.unpins,
            mode_switches: self.mode_switches - earlier.mode_switches,
        }
    }
}

/// The FlowCache itself.
#[derive(Clone, Debug)]
pub struct FlowCache {
    cfg: FlowCacheConfig,
    /// `slots[row * buckets + b]`: a record when `tags[row].tags[b]` is
    /// not 0, stale bytes when it is.
    slots: Vec<Slot>,
    /// One cache-line tag header per row; `tags[row].tags[b]` is 0 iff
    /// the bucket is empty, else the occupant's digest tag. Written by
    /// every record move (insert / swap / demote / evict / cleanup /
    /// drain / reset).
    tags: Vec<RowTags>,
    /// Occupied buckets — the number of non-zero tags, kept live so
    /// [`FlowCache::occupied`] never scans the table.
    resident: usize,
    dirty: Vec<bool>,
    mode: Mode,
    hasher: FlowHasher,
    rings: RingSet,
    stats: CacheStats,
}

impl FlowCache {
    /// Build a FlowCache in General mode.
    pub fn new(cfg: FlowCacheConfig) -> FlowCache {
        cfg.validate();
        let rows = cfg.rows();
        FlowCache {
            hasher: FlowHasher::new(cfg.hash_seed),
            slots: vec![Slot::vacant(); rows * cfg.buckets_per_row()],
            tags: vec![RowTags::EMPTY; rows],
            resident: 0,
            dirty: vec![false; rows],
            mode: Mode::General,
            rings: RingSet::new(RINGS, cfg.ring_capacity),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// Back to the state [`FlowCache::new`] built, in place: every
    /// bucket empty, every row clean, General mode, rings empty — the
    /// same configuration and hash seed, the books carried on (they are
    /// cumulative for the cache's life), and no allocation. Only the
    /// tag lines are written: a 0 tag empties its bucket whatever the
    /// slot holds. The rings keep their buffers under the [`Resident`]
    /// shrink rule.
    pub fn reset(&mut self) {
        self.tags.fill(RowTags::EMPTY);
        self.resident = 0;
        self.dirty.fill(false);
        self.mode = Mode::General;
        self.rings.reset();
    }

    /// Heap bytes the cache holds: bucket array, tag lines, dirty bits
    /// and ring buffers.
    pub fn resident_bytes(&self) -> usize {
        self.slots.resident_bytes()
            + self.tags.resident_bytes()
            + self.dirty.resident_bytes()
            + self.rings.resident_bytes()
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Configuration.
    pub fn config(&self) -> &FlowCacheConfig {
        &self.cfg
    }

    /// This cache's books so far: every event it has counted since it
    /// was built, resets included.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Memory footprint of the bucket array in bytes (64 B records, as the
    /// paper's 768 MB / 25 M-entry arithmetic implies).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * 64
    }

    /// Number of occupied buckets.
    pub fn occupied(&self) -> usize {
        self.resident
    }

    /// Evictions buffered in the rings, waiting for the host.
    pub fn rings(&mut self) -> &mut RingSet {
        &mut self.rings
    }

    /// The rings' own books, for the publisher.
    pub(crate) fn ring_books(&self) -> &RingSet {
        &self.rings
    }

    /// Algorithm 1: candidate bucket range within the row.
    fn candidates(&self, high: u64) -> Range<usize> {
        match self.mode {
            Mode::General => 0..self.cfg.buckets_per_row(),
            Mode::Lite => {
                let groups = self.cfg.buckets_per_row().div_ceil(self.cfg.lite_buckets);
                let offset = (high as usize % groups) * self.cfg.lite_buckets;
                let end = (offset + self.cfg.lite_buckets).min(self.cfg.buckets_per_row());
                offset..end
            }
        }
    }

    /// The P sub-range of the candidate range (General: `[0, primary)`;
    /// Lite: the whole candidate group acts as P).
    fn p_range(&self, cands: &Range<usize>) -> Range<usize> {
        match self.mode {
            Mode::General => 0..self.cfg.primary,
            Mode::Lite => cands.clone(),
        }
    }

    /// The E sub-range (empty in Lite mode or when `eviction == 0`).
    fn e_range(&self, _cands: &Range<usize>) -> Range<usize> {
        match self.mode {
            Mode::General => self.cfg.primary..self.cfg.buckets_per_row(),
            Mode::Lite => 0..0,
        }
    }

    /// The record in `bucket` of `row` — meaningful only under a
    /// non-zero tag.
    #[inline]
    fn rec(&self, row: usize, bucket: usize) -> &FlowRecord {
        &self.slots[row * self.cfg.buckets_per_row() + bucket].0
    }

    #[inline]
    fn rec_mut(&mut self, row: usize, bucket: usize) -> &mut FlowRecord {
        &mut self.slots[row * self.cfg.buckets_per_row() + bucket].0
    }

    #[inline]
    fn tag_at(&self, row: usize, bucket: usize) -> u8 {
        self.tags[row].tags[bucket]
    }

    #[inline]
    fn set_tag(&mut self, row: usize, bucket: usize, tag: u8) {
        self.tags[row].tags[bucket] = tag;
    }

    /// Digest tag of a resident record, recomputed from its own key —
    /// the invariant-checking oracle (hot paths derive tags from the
    /// packet digest instead of re-hashing).
    #[cfg(test)]
    fn tag_of(&self, rec: &FlowRecord) -> u8 {
        self.hasher.hash_symmetric(&rec.key).tag()
    }

    /// The buckets a probe of `digest` scans first, as indices into
    /// `slots`: the row's P buffer in General mode, the digest's sub-row
    /// in Lite — what a hit is found in and what a miss files into. Lite
    /// mode derives it from [`FlowCache::candidates`] and
    /// [`FlowCache::p_range`], as the probe does; General mode's P does
    /// not depend on the digest, and spelling it out keeps the row hint
    /// free of calls where other crates inline it.
    #[inline]
    fn p_span(&self, digest: HashDigest) -> Range<usize> {
        let base = digest.row(self.cfg.row_bits) * self.cfg.buckets_per_row();
        let p = match self.mode {
            Mode::General => 0..self.cfg.primary,
            Mode::Lite => self.p_range(&self.candidates(digest.high(self.cfg.row_bits))),
        };
        base + p.start..base + p.end
    }

    /// Hint the row addressed by `digest` toward L1: its tag header line
    /// plus the line of the first bucket its probe reads (bucket 0 in
    /// General mode, the first of its sub-row in Lite) —
    /// [`ROW_HINT_LINES`] lines. Semantically inert — this is the
    /// stage-A half of the software pipeline; issue it for a whole burst
    /// of digests before probing any of them and the row fetches overlap
    /// instead of serialising.
    #[inline]
    pub fn prefetch_row(&self, digest: HashDigest) {
        self.prefetch_tags(digest);
        prefetch_read(&self.slots[self.p_span(digest).start]);
    }

    /// Hint the tag line of the row addressed by `digest`: the line
    /// [`FlowCache::prefetch_probe`] reads, so issue it a burst ahead.
    /// Semantically inert.
    #[inline]
    pub fn prefetch_tags(&self, digest: HashDigest) {
        prefetch_read(&self.tags[digest.row(self.cfg.row_bits)]);
    }

    /// Hint exactly the slot lines a probe of `digest` will touch, as
    /// the row's tags stand now; returns how many. The tag line is read,
    /// not hinted, so hint it a burst earlier
    /// ([`FlowCache::prefetch_tags`]). Semantically inert: a record
    /// that moves before the probe costs a wasted line fill, never a
    /// decision.
    #[inline]
    pub fn prefetch_probe(&self, digest: HashDigest) -> u32 {
        self.probe_lines(digest, |i| prefetch_read(&self.slots[i]))
    }

    /// The slots [`FlowCache::prefetch_probe`] hints, each passed to
    /// `hint` as an index into `slots`; returns how many. General
    /// mode: the bucket whose tag matches (a hit reads that record),
    /// else the first free P bucket (a miss files there), else the P
    /// span its victim is picked from plus the first free E bucket the
    /// victim is demoted to. A full E's victim scan is left unhinted: a
    /// whole row's lines cost more than they save. Lite mode hints the
    /// whole sub-row: a dirty row is rearranged before its probe.
    #[inline]
    fn probe_lines(&self, digest: HashDigest, mut hint: impl FnMut(usize)) -> u32 {
        if self.mode == Mode::Lite {
            let span = self.p_span(digest);
            let lines = span.len() as u32;
            span.for_each(hint);
            return lines;
        }
        let row = digest.row(self.cfg.row_bits);
        let base = row * self.cfg.buckets_per_row();
        let tags = &self.tags[row].tags[..self.cfg.buckets_per_row()];
        let free = |span: &[u8]| span.iter().position(|&t| t == 0);
        let tag = digest.tag();
        if let Some(b) = tags.iter().position(|&t| t == tag) {
            hint(base + b);
            return 1;
        }
        let (p, e) = tags.split_at(self.cfg.primary);
        if let Some(b) = free(p) {
            hint(base + b);
            return 1;
        }
        (base..base + p.len()).for_each(&mut hint);
        match free(e) {
            Some(b) => {
                hint(base + p.len() + b);
                p.len() as u32 + 1
            }
            None => p.len() as u32,
        }
    }

    /// Process one packet: update flow state, inserting/evicting as needed.
    pub fn process(&mut self, pkt: &Packet) -> Access {
        let (canon, digest) = self.hasher.digest_symmetric(&pkt.key);
        self.process_digested(pkt, &canon, digest)
    }

    /// [`FlowCache::process`] for a packet whose canonical key and hash
    /// digest were already computed (the runtime engine digests each
    /// packet once at dispatch). `canon` must be `pkt.key.canonical().0`
    /// and `digest` must come from a hasher seeded like this cache's
    /// (`FlowCacheConfig::hash_seed`) — both are debug-asserted.
    pub fn process_digested(
        &mut self,
        pkt: &Packet,
        canon: &FlowKey,
        digest: smartwatch_net::HashDigest,
    ) -> Access {
        debug_assert_eq!(*canon, pkt.key.canonical().0, "canon key mismatch");
        debug_assert_eq!(
            digest,
            self.hasher.hash_symmetric(canon),
            "digest from a differently-seeded hasher"
        );
        let canon = *canon;
        let row = digest.row(self.cfg.row_bits);
        let high = digest.high(self.cfg.row_bits);

        let cleaned = if self.mode == Mode::Lite && self.dirty[row] {
            self.clean_row(row);
            true
        } else {
            false
        };

        let cands = self.candidates(high);
        let p = self.p_range(&cands);
        let e = self.e_range(&cands);
        let tag = digest.tag();
        let mut probes = 0u32;

        // Scan P. The tag line filters: only a matching tag (never the
        // 0 of an empty bucket) pays the full key compare.
        for b in p.clone() {
            probes += 1;
            if self.tag_at(row, b) != tag || !self.rec(row, b).matches(&canon) {
                continue;
            }
            let packets = self.rec_mut(row, b).update(pkt.ts, pkt.wire_len);
            self.stats.p_hits += 1;
            return Access {
                outcome: Outcome::PHit,
                probes,
                writes: 1,
                ring_pushes: 0,
                cleaned_row: cleaned,
                packets,
            };
        }

        // Scan E.
        for b in e.clone() {
            probes += 1;
            if self.tag_at(row, b) != tag || !self.rec(row, b).matches(&canon) {
                continue;
            }
            let packets = self.rec_mut(row, b).update(pkt.ts, pkt.wire_len);
            // Swap with P's policy victim so the hot flow returns to the
            // Primary buffer.
            let mut writes = 1;
            if let Some(victim_b) = self.pick_victim(row, p.clone()) {
                let pb = row * self.cfg.buckets_per_row() + victim_b;
                let eb = row * self.cfg.buckets_per_row() + b;
                self.slots.swap(pb, eb);
                self.tags[row].tags.swap(victim_b, b);
                writes += 2;
            }
            self.stats.e_hits += 1;
            return Access {
                outcome: Outcome::EHit,
                probes,
                writes,
                ring_pushes: 0,
                cleaned_row: cleaned,
                packets,
            };
        }

        // Miss: insert the new flow into P.
        let mut writes = 0u32;
        let mut ring_pushes = 0u32;
        let new_rec = FlowRecord::new(canon, pkt.ts, pkt.wire_len);

        // Empty P slot? (tag 0 ⇔ empty, so this scan stays on the tag line)
        if let Some(b) = p.clone().find(|&b| self.tag_at(row, b) == 0) {
            *self.rec_mut(row, b) = new_rec;
            self.set_tag(row, b, tag);
            self.resident += 1;
            self.stats.misses += 1;
            return Access {
                outcome: Outcome::Miss,
                probes,
                writes: 1,
                ring_pushes: 0,
                cleaned_row: cleaned,
                packets: 1,
            };
        }

        // P full: find a P victim to demote (or evict if no E).
        let Some(p_victim) = self.pick_victim(row, p.clone()) else {
            // Everything pinned: escalate to host.
            self.stats.to_host += 1;
            return Access {
                outcome: Outcome::ToHost,
                probes,
                writes: 0,
                ring_pushes: 0,
                cleaned_row: cleaned,
                packets: 0,
            };
        };

        if e.is_empty() {
            // Flat configuration: evict the P victim straight to a ring.
            self.evict(row, p_victim);
            ring_pushes += 1;
            writes += 1;
        } else {
            // Find room in E: empty slot, else evict E's policy victim.
            let e_slot = match e.clone().find(|&b| self.tag_at(row, b) == 0) {
                Some(b) => Some(b),
                None => match self.pick_victim(row, e.clone()) {
                    Some(b) => {
                        self.evict(row, b);
                        ring_pushes += 1;
                        writes += 1;
                        Some(b)
                    }
                    None => None,
                },
            };
            match e_slot {
                Some(eb) => {
                    // Demote the P victim into E (its tag moves with it;
                    // the new record overwrites its bytes below).
                    *self.rec_mut(row, eb) = *self.rec(row, p_victim);
                    self.set_tag(row, eb, self.tag_at(row, p_victim));
                    writes += 1;
                }
                None => {
                    // E fully pinned: evict P victim directly.
                    self.evict(row, p_victim);
                    ring_pushes += 1;
                    writes += 1;
                }
            }
        }

        *self.rec_mut(row, p_victim) = new_rec;
        self.set_tag(row, p_victim, tag);
        self.resident += 1;
        writes += 1;
        self.stats.misses += 1;
        Access {
            outcome: Outcome::Miss,
            probes,
            writes,
            ring_pushes,
            cleaned_row: cleaned,
            packets: 1,
        }
    }

    /// Pick the policy victim within `range` of `row`, skipping pinned
    /// entries — an eviction victim or, on an E hit, the swap target:
    /// the semantics are identical. Returns `None` if no unpinned
    /// occupant exists in the range. Selects in place: this runs on
    /// every miss into a full row, so it may not allocate.
    fn pick_victim(&self, row: usize, range: Range<usize>) -> Option<usize> {
        let policy = if range.start < self.cfg.primary || self.mode == Mode::Lite {
            self.cfg.policy.primary
        } else {
            self.cfg.policy.eviction
        };
        let base = row * self.cfg.buckets_per_row();
        let tags = &self.tags[row].tags[range.clone()];
        policy.victim(
            self.slots[base + range.start..base + range.end]
                .iter()
                .zip(tags)
                .zip(range)
                .filter(|((_, &tag), _)| tag != 0)
                .map(|((slot, _), b)| (b, &slot.0)),
        )
    }

    /// Evict the occupant of `bucket` to its ring.
    fn evict(&mut self, row: usize, bucket: usize) {
        let victim = *self.rec(row, bucket);
        self.set_tag(row, bucket, 0);
        self.resident -= 1;
        self.rings.push(row, victim);
        self.stats.evictions += 1;
    }

    /// Algorithm 3: reorder a dirty row into Lite-mode layout. Each record
    /// is re-homed to its Lite sub-row (by the high bits of its own hash);
    /// when a sub-row overflows, the most recently active records stay and
    /// the rest are evicted to the rings.
    fn clean_row(&mut self, row: usize) {
        let b = self.cfg.buckets_per_row();
        let lite = self.cfg.lite_buckets;
        let groups = b.div_ceil(lite);
        // Take all records out of the row.
        let mut residents: Vec<FlowRecord> = (0..b)
            .filter(|&bucket| self.tag_at(row, bucket) != 0)
            .map(|bucket| *self.rec(row, bucket))
            .collect();
        self.tags[row] = RowTags::EMPTY;
        let before = residents.len();
        // Most recent first, so overflow drops the stalest (GetOldest).
        residents.sort_by_key(|r| std::cmp::Reverse(r.last_ts));
        for rec in residents {
            let digest = self.hasher.hash_symmetric(&rec.key);
            let group = digest.high(self.cfg.row_bits) as usize % groups;
            let start = group * lite;
            let end = (start + lite).min(b);
            let placed = (start..end).find(|&bucket| self.tag_at(row, bucket) == 0);
            match placed {
                Some(bucket) => {
                    *self.rec_mut(row, bucket) = rec;
                    self.set_tag(row, bucket, digest.tag());
                }
                None => {
                    if rec.pinned {
                        // Pinned records should survive a mode switch:
                        // displace the group's oldest (preferably unpinned)
                        // occupant — the group is full — and export it
                        // instead.
                        let victim = (start..end).min_by_key(|&bucket| {
                            let r = self.rec(row, bucket);
                            (r.pinned, r.last_ts)
                        });
                        if let Some(bucket) = victim {
                            let old = std::mem::replace(self.rec_mut(row, bucket), rec);
                            self.set_tag(row, bucket, digest.tag());
                            self.stats.cleanup_evictions += 1;
                            self.rings.push(row, old);
                            self.stats.evictions += 1;
                        }
                    } else {
                        self.stats.cleanup_evictions += 1;
                        self.rings.push(row, rec);
                        self.stats.evictions += 1;
                    }
                }
            }
        }
        let after = self.tags[row].tags.iter().filter(|&&t| t != 0).count();
        self.resident = self.resident - before + after;
        self.dirty[row] = false;
        self.stats.rows_cleaned += 1;
    }

    /// Switch operating mode (Algorithm 4's effect). General→Lite marks
    /// every row dirty for lazy cleanup (Algorithm 3 runs on the data
    /// path, row by row, as traffic touches each row — never a
    /// stop-the-world rebuild); Lite→General needs no reordering because
    /// Lite candidates are a subset of General candidates. Safe to call
    /// at any packet boundary on a live cache: `get`/`get_mut` search
    /// whole rows while they are dirty, so no resident record is ever
    /// invisible mid-transition.
    pub fn set_mode(&mut self, mode: Mode) {
        if mode == self.mode {
            return;
        }
        if mode == Mode::Lite {
            self.dirty.fill(true);
        } else {
            self.dirty.fill(false);
        }
        self.mode = mode;
        self.stats.mode_switches += 1;
    }

    /// The slot index of `key`'s record, if resident: a bucket whose tag
    /// is the key's and whose record is the key's.
    fn find(&self, key: &FlowKey) -> Option<usize> {
        let canon = key.canonical().0;
        let digest = self.hasher.hash_symmetric(&canon);
        let row = digest.row(self.cfg.row_bits);
        // A dirty row may still hold the record anywhere within it.
        let mut range = if self.mode == Mode::Lite && !self.dirty[row] {
            self.candidates(digest.high(self.cfg.row_bits))
        } else {
            0..self.cfg.buckets_per_row()
        };
        range
            .find(|&b| self.tag_at(row, b) == digest.tag() && self.rec(row, b).key == canon)
            .map(|b| row * self.cfg.buckets_per_row() + b)
    }

    /// Look up a flow without touching statistics or policy metadata.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.find(key).map(|i| &self.slots[i].0)
    }

    /// Mutable lookup for detector state updates (no stats impact).
    pub(crate) fn get_mut(&mut self, key: &FlowKey) -> Option<&mut FlowRecord> {
        self.find(key).map(|i| &mut self.slots[i].0)
    }

    /// Pin a resident flow (returns false if the flow is not cached).
    pub fn pin(&mut self, key: &FlowKey) -> bool {
        if let Some(r) = self.get_mut(key) {
            r.pinned = true;
            self.stats.pins += 1;
            true
        } else {
            false
        }
    }

    /// Unpin a flow.
    pub fn unpin(&mut self, key: &FlowKey) -> bool {
        if let Some(r) = self.get_mut(key) {
            r.pinned = false;
            self.stats.unpins += 1;
            true
        } else {
            false
        }
    }

    /// Periodic snapshot export (§3.4): returns the *delta* since the last
    /// snapshot for every active flow and resets in-place counters, so the
    /// host's aggregation of {evictions ∪ snapshots ∪ final drain} is
    /// exactly the per-flow ground truth.
    ///
    /// The records go into a caller-owned buffer (cleared first). After
    /// the first few epochs the buffer's capacity covers the active-flow
    /// high-water mark and snapshotting stops allocating.
    pub fn snapshot_delta_into(&mut self, out: &mut Vec<FlowRecord>) {
        out.clear();
        let b = self.cfg.buckets_per_row();
        for (row, t) in self.slots.chunks_mut(b).zip(&self.tags) {
            for (Slot(r), _) in row.iter_mut().zip(t.tags).filter(|(_, tag)| *tag != 0) {
                if r.packets > 0 {
                    out.push(*r);
                    r.packets = 0;
                    r.bytes = 0;
                    r.first_ts = r.last_ts;
                }
            }
        }
    }

    /// Final drain: export every resident record and empty the table.
    ///
    /// Convenience wrapper over [`FlowCache::drain_all_into`].
    pub fn drain_all(&mut self) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        self.drain_all_into(&mut out);
        out
    }

    /// [`FlowCache::drain_all`] into a caller-owned buffer (cleared
    /// first): export every resident record with traffic and empty the
    /// table without allocating.
    pub fn drain_all_into(&mut self, out: &mut Vec<FlowRecord>) {
        out.clear();
        out.extend(self.iter().filter(|r| r.packets > 0));
        self.tags.fill(RowTags::EMPTY);
        self.resident = 0;
    }

    /// Iterate over resident records, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRecord> {
        let b = self.cfg.buckets_per_row();
        self.slots.chunks(b).zip(&self.tags).flat_map(|(row, t)| {
            row.iter()
                .zip(t.tags)
                .filter(|(_, tag)| *tag != 0)
                .map(|(Slot(r), _)| r)
        })
    }

    /// Verify the tag-line invariant: the occupancy counter counts the
    /// non-zero tags, and each non-zero tag is its record's own digest
    /// tag, under which no key is resident twice in a row. What a slot
    /// under a 0 tag holds is not checked: no reader looks. Test support.
    #[cfg(test)]
    fn assert_tag_invariant(&self) {
        let b = self.cfg.buckets_per_row();
        let live = self
            .tags
            .iter()
            .flat_map(|t| &t.tags[..b])
            .filter(|&&t| t != 0);
        assert_eq!(
            self.resident,
            live.count(),
            "live occupancy counter drifted"
        );
        assert!(self
            .tags
            .iter()
            .all(|t| t.tags[b..].iter().all(|&t| t == 0)));
        for row in 0..self.cfg.rows() {
            let mut keys = std::collections::HashSet::new();
            for bucket in (0..b).filter(|&bucket| self.tag_at(row, bucket) != 0) {
                let rec = self.rec(row, bucket);
                assert_eq!(
                    self.tag_at(row, bucket),
                    self.tag_of(rec),
                    "stale tag at row {row} bucket {bucket}"
                );
                assert!(keys.insert(rec.key), "row {row} holds a key twice");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, Ts};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + i),
            1000,
            Ipv4Addr::from(0xAC100001),
            80,
        )
    }

    fn pkt(i: u32, ts_us: u64) -> Packet {
        PacketBuilder::new(key(i), Ts::from_micros(ts_us)).build()
    }

    fn small_cache() -> FlowCache {
        FlowCache::new(FlowCacheConfig::split(4, 4, 8, CachePolicy::LRU_LPC))
    }

    #[test]
    fn first_packet_misses_second_hits() {
        let mut fc = small_cache();
        assert_eq!(fc.process(&pkt(1, 1)).outcome, Outcome::Miss);
        assert_eq!(fc.process(&pkt(1, 2)).outcome, Outcome::PHit);
        assert_eq!(fc.get(&key(1)).unwrap().packets, 2);
    }

    #[test]
    fn reverse_direction_hits_same_record() {
        let mut fc = small_cache();
        fc.process(&pkt(1, 1));
        let rev = PacketBuilder::new(key(1).reversed(), Ts::from_micros(2)).build();
        assert_eq!(fc.process(&rev).outcome, Outcome::PHit);
        assert_eq!(fc.get(&key(1)).unwrap().packets, 2);
    }

    #[test]
    fn eviction_to_ring_preserves_counts() {
        // 1 row of (2,2): flood with distinct flows to force evictions.
        let mut fc = FlowCache::new(FlowCacheConfig::split(1, 2, 2, CachePolicy::LRU_LPC));
        let n = 200u32;
        for i in 0..n {
            for t in 0..3 {
                fc.process(&pkt(i, u64::from(i) * 10 + t));
            }
        }
        let stats = fc.stats();
        assert!(stats.evictions > 0);
        // Conservation: everything processed is either resident, in rings,
        // or was a hit on something now evicted — total packets must match.
        let ring_pkts: u64 = fc.rings().drain().iter().map(|r| r.packets).sum();
        let resident_pkts: u64 = fc.iter().map(|r| r.packets).sum();
        assert_eq!(ring_pkts + resident_pkts, u64::from(n) * 3);
    }

    #[test]
    fn no_duplicate_flow_entries_in_a_row() {
        let mut fc = small_cache();
        for i in 0..2000u32 {
            fc.process(&pkt(i % 64, u64::from(i)));
        }
        let mut seen: HashMap<FlowKey, usize> = HashMap::new();
        for r in fc.iter() {
            *seen.entry(r.key).or_default() += 1;
        }
        assert!(seen.values().all(|&c| c == 1), "duplicate flow entries");
    }

    /// First `n` flow ids whose keys share hash row 0 of a cache built
    /// from `cfg` (tests of row-local behaviour need forced collisions).
    fn same_row_ids(cfg: &FlowCacheConfig, n: usize) -> Vec<u32> {
        let h = smartwatch_net::FlowHasher::new(cfg.hash_seed);
        (0u32..)
            .filter(|i| h.hash_symmetric(&key(*i).canonical().0).row(cfg.row_bits) == 0)
            .take(n)
            .collect()
    }

    #[test]
    fn e_hit_swaps_back_into_p() {
        // (1,1): second flow demotes the first into E; a packet for the
        // first then E-hits and swaps back.
        let cfg = FlowCacheConfig::split(1, 1, 1, CachePolicy::LRU_LPC);
        let ids = same_row_ids(&cfg, 2);
        let mut fc = FlowCache::new(cfg);
        fc.process(&pkt(ids[0], 1)); // in P
        fc.process(&pkt(ids[1], 2)); // ids[0] demoted to E, ids[1] in P
        let a = fc.process(&pkt(ids[0], 3));
        assert_eq!(a.outcome, Outcome::EHit);
        // Another packet for ids[0] must now P-hit.
        assert_eq!(fc.process(&pkt(ids[0], 4)).outcome, Outcome::PHit);
    }

    #[test]
    fn pinned_flows_survive_floods() {
        let mut fc = FlowCache::new(FlowCacheConfig::split(1, 2, 2, CachePolicy::LRU_LPC));
        fc.process(&pkt(7, 1));
        assert!(fc.pin(&key(7)));
        for i in 100..400u32 {
            fc.process(&pkt(i, u64::from(i)));
        }
        assert!(fc.get(&key(7)).is_some(), "pinned flow evicted");
    }

    #[test]
    fn fully_pinned_row_escalates_to_host() {
        let mut fc = FlowCache::new(FlowCacheConfig::split(1, 1, 1, CachePolicy::LRU_LPC));
        fc.process(&pkt(1, 1));
        fc.process(&pkt(2, 2));
        assert!(fc.pin(&key(1)));
        assert!(fc.pin(&key(2)));
        // A third distinct flow has nowhere to go.
        let mut escalated = false;
        for i in 3..40u32 {
            if fc.process(&pkt(i, u64::from(i))).outcome == Outcome::ToHost {
                escalated = true;
                break;
            }
        }
        assert!(escalated);
        assert!(fc.stats().to_host > 0);
    }

    #[test]
    fn lru_policy_keeps_recent_lpc_keeps_big() {
        // Flat (2,0) row; two same-row residents; a same-row challenger.
        let run = |policy: CachePolicy| {
            let cfg = FlowCacheConfig::flat(1, 2, policy);
            let ids = same_row_ids(&cfg, 3);
            let mut fc = FlowCache::new(cfg);
            // ids[0]: big but stale. ids[1]: small but fresh.
            for t in 0..10 {
                fc.process(&pkt(ids[0], t));
            }
            fc.process(&pkt(ids[1], 100));
            fc.process(&pkt(ids[2], 200)); // forces one eviction
            (
                fc.get(&key(ids[0])).is_some(),
                fc.get(&key(ids[1])).is_some(),
            )
        };
        let (big_stale, small_fresh) = run(CachePolicy::LRU);
        assert!(!big_stale && small_fresh, "LRU evicts the stale elephant");
        let (big_stale, small_fresh) = run(CachePolicy::LPC);
        assert!(big_stale && !small_fresh, "LPC evicts the small flow");
    }

    #[test]
    fn lite_mode_candidates_are_subset_of_general() {
        let cfg = FlowCacheConfig::general(4);
        let mut fc = FlowCache::new(cfg);
        // Insert in General, then switch to Lite: every resident flow must
        // still be found after (lazy) cleanup.
        for i in 0..100u32 {
            fc.process(&pkt(i, u64::from(i)));
        }
        let resident: Vec<FlowKey> = fc.iter().map(|r| r.key).collect();
        fc.set_mode(Mode::Lite);
        // Touch each flow once: cleanup happens lazily, then the flow must
        // be found (hit) or re-inserted (miss only if cleanup evicted it).
        let mut found = 0;
        for k in &resident {
            let p = PacketBuilder::new(*k, Ts::from_millis(10)).build();
            let a = fc.process(&p);
            if a.outcome != Outcome::Miss {
                found += 1;
            }
        }
        // Cleanup can evict colliding flows (that is its cost), but most
        // should survive with 12→6×2 regrouping at this load factor.
        assert!(
            found * 10 >= resident.len() * 5,
            "too many flows lost in transition: {found}/{}",
            resident.len()
        );
        assert!(fc.stats().rows_cleaned > 0);
    }

    #[test]
    fn lite_to_general_is_free_and_lossless() {
        let mut fc = FlowCache::new(FlowCacheConfig::general(4));
        fc.set_mode(Mode::Lite);
        for i in 0..100u32 {
            fc.process(&pkt(i, u64::from(i)));
        }
        let resident: Vec<FlowKey> = fc.iter().map(|r| r.key).collect();
        let cleaned_before = fc.stats().rows_cleaned;
        fc.set_mode(Mode::General);
        for k in &resident {
            assert!(fc.get(k).is_some(), "flow lost in Lite→General");
        }
        // Lite→General itself requires no reordering work.
        assert_eq!(fc.stats().rows_cleaned, cleaned_before);
    }

    #[test]
    fn lite_mode_probes_fewer_buckets() {
        let mut fc = FlowCache::new(FlowCacheConfig::general(4));
        for i in 0..500u32 {
            fc.process(&pkt(i, u64::from(i)));
        }
        // General-mode misses probe all 12 buckets.
        let a = fc.process(&pkt(9999, 1_000));
        assert_eq!(a.probes, 12);
        fc.set_mode(Mode::Lite);
        let b = fc.process(&pkt(10_000, 1_001));
        assert!(b.probes <= 2, "Lite probes {}", b.probes);
    }

    #[test]
    fn snapshot_delta_plus_evictions_equals_truth() {
        let mut fc = FlowCache::new(FlowCacheConfig::split(3, 2, 2, CachePolicy::LRU_LPC));
        let mut truth: HashMap<FlowKey, u64> = HashMap::new();
        let mut exported: HashMap<FlowKey, u64> = HashMap::new();
        for i in 0..3000u32 {
            let p = pkt(i % 150, u64::from(i));
            if fc.process(&p).outcome != Outcome::ToHost {
                *truth.entry(p.key.canonical().0).or_default() += 1;
            }
            if i % 500 == 499 {
                let mut snap = Vec::new();
                fc.snapshot_delta_into(&mut snap);
                for r in snap {
                    *exported.entry(r.key).or_default() += r.packets;
                }
            }
        }
        for r in fc.rings().drain() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        for r in fc.drain_all() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        assert_eq!(
            truth, exported,
            "export streams must reconstruct exact counts"
        );
    }

    #[test]
    fn process_digested_is_equivalent_to_process() {
        // Same packet stream through the scalar and pre-digested entry
        // points must produce identical outcomes, stats and residency.
        let cfg = FlowCacheConfig::split(4, 2, 2, CachePolicy::LRU_LPC);
        let hasher = smartwatch_net::FlowHasher::new(cfg.hash_seed);
        let mut scalar = FlowCache::new(cfg.clone());
        let mut digested = FlowCache::new(cfg);
        for i in 0..4000u32 {
            let mut p = pkt(i % 300, u64::from(i));
            if i % 3 == 0 {
                p.key = p.key.reversed();
            }
            let (canon, digest) = hasher.digest_symmetric(&p.key);
            let a = scalar.process(&p);
            let b = digested.process_digested(&p, &canon, digest);
            assert_eq!(a.outcome, b.outcome, "packet {i}");
            assert_eq!(a.probes, b.probes, "packet {i}");
            assert_eq!(a.writes, b.writes, "packet {i}");
        }
        let (s, d) = (scalar.stats(), digested.stats());
        assert_eq!(s.p_hits, d.p_hits);
        assert_eq!(s.e_hits, d.e_hits);
        assert_eq!(s.misses, d.misses);
        assert_eq!(s.evictions, d.evictions);
        assert_eq!(scalar.occupied(), digested.occupied());
    }

    #[test]
    fn stats_hit_rate() {
        let mut fc = small_cache();
        fc.process(&pkt(1, 1));
        fc.process(&pkt(1, 2));
        fc.process(&pkt(1, 3));
        let s = fc.stats();
        assert_eq!(s.processed(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn memory_accounting_matches_geometry() {
        let fc = FlowCache::new(FlowCacheConfig::general(10));
        assert_eq!(fc.memory_bytes(), (1 << 10) * 12 * 64);
    }

    #[test]
    fn cleanup_displaces_for_pinned_records() {
        // Build a General-mode row crowded enough that the Lite cleanup
        // has collisions, with pinned records in the overflow: pinned
        // records must survive the transition (unpinned are exported).
        let cfg = FlowCacheConfig::general(1);
        let ids = same_row_ids(&cfg, 12);
        let mut fc = FlowCache::new(cfg);
        for (t, i) in ids.iter().enumerate() {
            fc.process(&pkt(*i, t as u64));
        }
        // Pin every resident flow in the row.
        let mut pinned = Vec::new();
        for i in &ids {
            if fc.get(&key(*i)).is_some() && fc.pin(&key(*i)) {
                pinned.push(*i);
            }
        }
        assert!(pinned.len() >= 6, "row should be well populated");
        fc.set_mode(Mode::Lite);
        // Touch the row to trigger lazy cleanup.
        fc.process(&pkt(ids[0], 1_000));
        // Pinned flows either stayed resident or (pinned-vs-pinned
        // collisions) were exported to a ring — never silently lost.
        let ring_keys: Vec<FlowKey> = fc.rings().drain().iter().map(|r| r.key).collect();
        for i in &pinned {
            let k = key(*i).canonical().0;
            assert!(
                fc.get(&key(*i)).is_some() || ring_keys.contains(&k),
                "pinned flow {i} vanished in cleanup"
            );
        }
        assert!(fc.stats().rows_cleaned >= 1);
    }

    #[test]
    fn get_searches_whole_row_while_dirty() {
        let cfg = FlowCacheConfig::general(2);
        let ids = same_row_ids(&cfg, 6);
        let mut fc = FlowCache::new(cfg);
        for (t, i) in ids.iter().enumerate() {
            fc.process(&pkt(*i, t as u64));
        }
        fc.set_mode(Mode::Lite);
        // Before any packet triggers cleanup, get() must still find every
        // resident record even though Lite candidates are narrower.
        for i in &ids {
            assert!(fc.get(&key(*i)).is_some(), "flow {i} invisible while dirty");
        }
    }

    /// Satellite of the control-plane PR: live General↔Lite flipping
    /// under a sustained update stream must never lose or double-count a
    /// flow record. The invariant checked is full conservation — every
    /// packet that was not escalated is attributable to exactly one
    /// record (resident or rings), and no flow appears twice in the
    /// table. The flip schedule is a seeded LCG so the hammering is
    /// reproducible.
    #[test]
    fn live_mode_flips_conserve_flow_records() {
        let mut fc = FlowCache::new(FlowCacheConfig::general(5));
        let mut truth_packets: u64 = 0;
        let mut rng: u64 = 0xDEAD_BEEF_1234_5678;
        let mut flips = 0u64;
        let mut exported: HashMap<FlowKey, u64> = HashMap::new();
        for i in 0..30_000u32 {
            let p = pkt(i % 700, u64::from(i));
            if fc.process(&p).outcome != Outcome::ToHost {
                truth_packets += 1;
            }
            // xorshift schedule: flip roughly every ~128 packets, pin and
            // unpin a few flows along the way to exercise both cleanup
            // branches of Algorithm 3.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng.is_multiple_of(128) {
                let next = if fc.mode() == Mode::General {
                    Mode::Lite
                } else {
                    Mode::General
                };
                fc.set_mode(next);
                flips += 1;
            }
            if rng.is_multiple_of(97) {
                fc.pin(&key(i % 700));
            }
            if rng.is_multiple_of(89) {
                fc.unpin(&key((i + 350) % 700));
            }
            // Periodically drain the rings like the host would, so ring
            // overflow (which forwards records to the host, invisible to
            // this accounting) never triggers.
            if i % 4096 == 0 {
                for r in fc.rings().drain() {
                    *exported.entry(r.key).or_default() += r.packets;
                }
            }
        }
        assert!(flips >= 100, "schedule must actually hammer set_mode");
        assert_eq!(fc.stats().mode_switches, flips);
        assert_eq!(
            fc.rings.overflow_to_host, 0,
            "accounting requires no overflow"
        );

        // No duplicate flow entries after all that reshuffling.
        let mut seen: HashMap<FlowKey, usize> = HashMap::new();
        for r in fc.iter() {
            *seen.entry(r.key).or_default() += 1;
        }
        assert!(
            seen.values().all(|&c| c == 1),
            "mode flipping duplicated a flow record"
        );

        // Conservation: rings + residents account for every processed
        // packet — nothing lost, nothing double-counted.
        for r in fc.rings().drain() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        for r in fc.drain_all() {
            *exported.entry(r.key).or_default() += r.packets;
        }
        let total: u64 = exported.values().sum();
        assert_eq!(
            total, truth_packets,
            "packets lost or double-counted across live mode flips"
        );
    }

    #[test]
    fn occupancy_tracks_inserts_and_drains() {
        let mut fc = FlowCache::new(FlowCacheConfig::general(6));
        assert_eq!(fc.occupied(), 0);
        for i in 0..40u32 {
            fc.process(&pkt(i, u64::from(i)));
        }
        assert_eq!(fc.occupied(), 40);
        fc.drain_all();
        assert_eq!(fc.occupied(), 0);
    }

    /// Seeded packet stream: mostly a working set of `flows` ids, with a
    /// splitmix-driven scatter of one-off scan flows mixed in so every
    /// outcome (P/E hits, misses, evictions, Lite regrouping) occurs.
    fn seeded_stream(seed: u64, n: usize, flows: u32) -> Vec<Packet> {
        let mut rng = seed;
        (0..n)
            .map(|i| {
                rng = smartwatch_net::hash::splitmix64(rng);
                let id = if rng.is_multiple_of(5) {
                    10_000 + (rng >> 8) as u32 % 4_000
                } else {
                    (rng >> 8) as u32 % flows
                };
                let mut p = pkt(id, i as u64);
                if rng.is_multiple_of(3) {
                    p.key = p.key.reversed();
                }
                p
            })
            .collect()
    }

    /// The two-stage software pipeline the engine's shards run over
    /// `width`-packet chunks: stage A issues its hints, stage B runs the
    /// per-packet [`FlowCache::process_digested`] sequence with the
    /// lines already in flight. Warm, stage A hints each packet's row
    /// ([`FlowCache::prefetch_row`]); cold, it takes the two-distance
    /// path a shard takes after a miss-heavy batch — the next chunk's tag
    /// lines, then this chunk's exact probe lines, read off tags the
    /// probes of the chunk before may since have changed.
    fn process_bursts(
        fc: &mut FlowCache,
        pkts: &[Packet],
        width: usize,
        cold: bool,
    ) -> Vec<Access> {
        let hasher = smartwatch_net::FlowHasher::new(fc.config().hash_seed);
        let digested: Vec<_> = pkts
            .iter()
            .map(|p| hasher.digest_symmetric(&p.key))
            .collect();
        let mut out = Vec::with_capacity(pkts.len());
        if cold {
            for (_, digest) in digested.iter().take(width) {
                fc.prefetch_tags(*digest);
            }
        }
        for (i, chunk) in digested.chunks(width).enumerate() {
            for (_, digest) in chunk {
                if cold {
                    fc.prefetch_probe(*digest);
                } else {
                    fc.prefetch_row(*digest);
                }
            }
            if cold {
                for (_, digest) in digested.iter().skip((i + 1) * width).take(width) {
                    fc.prefetch_tags(*digest);
                }
            }
            for (j, (canon, digest)) in chunk.iter().enumerate() {
                out.push(fc.process_digested(&pkts[i * width + j], canon, *digest));
            }
        }
        out
    }

    /// The prefetch stage has no architectural effect: the burst
    /// pipeline must be observably identical to the sequential
    /// per-packet path — same `Access` sequence, same stats, same ring
    /// contents, same residency — across General/Lite, mode switches
    /// between batches, pinning churn, every batch size 1..=16, both
    /// stage-A paths (warm row hints, cold two-distance hints) and chunk
    /// widths 1, 8 and 16 (sub-, exact- and multi-chunk batches).
    #[test]
    fn burst_pipeline_matches_sequential_ground_truth() {
        let runs = [1u64, 0xBEEF, 0x51CC_2026]
            .into_iter()
            .flat_map(|seed| [1, BURST, 16].map(|width| (seed, width)));
        for (seed, width) in runs {
            let cfg = FlowCacheConfig::general(4);
            let hasher = smartwatch_net::FlowHasher::new(cfg.hash_seed);
            let mut seq = FlowCache::new(cfg.clone());
            let mut bat = FlowCache::new(cfg);
            let stream = seeded_stream(seed, 3_000, 200);
            let mut cursor = 0usize;
            let mut round = 0u64;
            while cursor < stream.len() {
                round += 1;
                // Mode switches and pin/unpin churn between batches,
                // mirrored to both caches (the shard applies control at
                // exactly these boundaries).
                if round.is_multiple_of(13) {
                    let next = if seq.mode() == Mode::General {
                        Mode::Lite
                    } else {
                        Mode::General
                    };
                    seq.set_mode(next);
                    bat.set_mode(next);
                }
                if round.is_multiple_of(7) {
                    let k = key((round as u32 * 11) % 200);
                    seq.pin(&k);
                    bat.pin(&k);
                }
                if round.is_multiple_of(11) {
                    let k = key((round as u32 * 5) % 200);
                    seq.unpin(&k);
                    bat.unpin(&k);
                }
                let size = (round as usize % 16) + 1;
                let batch = &stream[cursor..(cursor + size).min(stream.len())];
                cursor += batch.len();
                let out = process_bursts(&mut bat, batch, width, round.is_multiple_of(2));
                assert_eq!(out.len(), batch.len(), "one Access per packet");
                for (p, got) in batch.iter().zip(&out) {
                    let (canon, digest) = hasher.digest_symmetric(&p.key);
                    let want = seq.process_digested(p, &canon, digest);
                    assert_eq!(
                        want, *got,
                        "Access divergence (seed {seed:#x}, width {width})"
                    );
                }
            }
            let (a, b) = (seq.stats(), bat.stats());
            assert_eq!(a.p_hits, b.p_hits);
            assert_eq!(a.e_hits, b.e_hits);
            assert_eq!(a.misses, b.misses);
            assert_eq!(a.to_host, b.to_host);
            assert_eq!(a.evictions, b.evictions);
            assert_eq!(a.rows_cleaned, b.rows_cleaned);
            assert_eq!(a.cleanup_evictions, b.cleanup_evictions);
            assert_eq!(seq.rings().drain(), bat.rings().drain(), "ring contents");
            bat.assert_tag_invariant();
            let res_a: Vec<FlowRecord> = seq.drain_all();
            let res_b: Vec<FlowRecord> = bat.drain_all();
            assert_eq!(res_a, res_b, "slot-order residency must match");
        }
    }

    /// Stage A points where stage B reads, in both modes: the bucket
    /// [`FlowCache::prefetch_row`] fetches is the first of the probe's P
    /// span, which is where a miss into an empty span files its record —
    /// bucket 0 in General mode, the start of the digest's sub-row in
    /// Lite (every one of the six is met).
    #[test]
    fn prefetch_row_fetches_the_bucket_the_probe_reads_first() {
        let cfg = FlowCacheConfig::general(4);
        let hasher = smartwatch_net::FlowHasher::new(cfg.hash_seed);
        for (mode, starts) in [
            (Mode::General, vec![0]),
            (Mode::Lite, vec![0, 2, 4, 6, 8, 10]),
        ] {
            let mut fc = FlowCache::new(cfg.clone());
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..200u32 {
                fc.reset();
                fc.set_mode(mode);
                let p = pkt(i, u64::from(i));
                let (canon, digest) = hasher.digest_symmetric(&p.key);
                let span = fc.p_span(digest);
                let row = digest.row(cfg.row_bits) * cfg.buckets_per_row();
                assert_eq!(
                    fc.process_digested(&p, &canon, digest).outcome,
                    Outcome::Miss
                );
                assert_ne!(fc.tags[digest.row(cfg.row_bits)].tags[span.start - row], 0);
                assert_eq!(fc.slots[span.start].0.key, canon, "{mode:?}");
                seen.insert(span.start - row);
            }
            assert_eq!(seen.into_iter().collect::<Vec<_>>(), starts, "{mode:?}");
        }
    }

    /// Every stage-A hint is inert: after churn in each mode (Lite with
    /// rows still dirty), a storm of `prefetch_row`, `prefetch_tags` and
    /// `prefetch_probe` over resident and absent flows leaves the books,
    /// the occupancy, every slot and every tag as they were — and each
    /// probe hint names no more lines than the P span plus one.
    #[test]
    fn prefetch_probe_changes_nothing_a_probe_could_see() {
        let hasher = smartwatch_net::FlowHasher::new(0x51CC);
        for (mode, dirty) in [
            (Mode::General, false),
            (Mode::Lite, false),
            (Mode::Lite, true),
        ] {
            let mut fc = FlowCache::new(FlowCacheConfig::general(4));
            if !dirty {
                fc.set_mode(mode);
            }
            for p in &seeded_stream(0x9EAD, 3_000, 300) {
                fc.process(p);
            }
            fc.set_mode(mode);
            assert_eq!(fc.dirty.iter().any(|&d| d), dirty);
            let view = |fc: &FlowCache| {
                let tags: Vec<_> = fc.tags.iter().map(|t| t.tags).collect();
                (fc.stats(), fc.occupied(), fc.slots.clone(), tags)
            };
            let before = view(&fc);
            for i in 0..20_000u32 {
                let (_, digest) = hasher.digest_symmetric(&key(i));
                fc.prefetch_row(digest);
                fc.prefetch_tags(digest);
                let lines = fc.prefetch_probe(digest);
                assert!((1..=5).contains(&lines), "{lines} lines");
            }
            assert!(view(&fc) == before, "{mode:?} dirty={dirty}");
        }
    }

    /// The cold hint is exact: in General mode, a hit or a miss into a
    /// free P bucket lands in the bucket the hint named, and a miss into
    /// a full P with room in E writes only lines it named (the P
    /// victim's bucket and the E bucket it moves to). Left out: E hits
    /// (the swap reads P), evicting misses (E's victim scan is left
    /// unhinted) and the ~1/255 probe whose tag another flow of the row
    /// carries (the hint names that flow's line).
    #[test]
    fn prefetch_probe_names_the_lines_the_probe_writes() {
        let cfg = FlowCacheConfig::general(3);
        let hasher = smartwatch_net::FlowHasher::new(cfg.hash_seed);
        let mut fc = FlowCache::new(cfg);
        let (mut one, mut span) = (0, 0);
        for p in &seeded_stream(0xE8AC, 4_000, 150) {
            let (canon, digest) = hasher.digest_symmetric(&p.key);
            let mut named = Vec::new();
            let lines = fc.probe_lines(digest, |i| named.push(i));
            assert_eq!(lines as usize, named.len());
            let row = digest.row(fc.cfg.row_bits);
            let base = row * fc.cfg.buckets_per_row();
            let twin = (0..fc.cfg.buckets_per_row())
                .any(|b| fc.tag_at(row, b) == digest.tag() && fc.rec(row, b).key != canon);
            let before: Vec<_> = fc.tags.iter().map(|t| t.tags).collect();
            let a = fc.process_digested(p, &canon, digest);
            if a.outcome == Outcome::EHit || a.ring_pushes > 0 || twin {
                continue;
            }
            let written = (0..fc.cfg.buckets_per_row())
                .filter(|&b| {
                    fc.tags[row].tags[b] != before[row][b] || fc.find(&canon) == Some(base + b)
                })
                .map(|b| base + b);
            for i in written {
                assert!(
                    named.contains(&i),
                    "{:?} wrote slot {i}, hinted {named:?}",
                    a.outcome
                );
            }
            if lines == 1 {
                one += 1;
            } else {
                span += 1;
            }
        }
        assert!(one > 200 && span > 20, "both shapes met: {one} / {span}");
    }

    /// Pinned-row insert failures inside a burst: ToHost outcomes must
    /// flow through the pipeline exactly as they do per-packet.
    #[test]
    fn burst_pipeline_propagates_to_host_on_pinned_rows() {
        let cfg = FlowCacheConfig::split(1, 1, 1, CachePolicy::LRU_LPC);
        let mut seq = FlowCache::new(cfg.clone());
        let mut bat = FlowCache::new(cfg.clone());
        let hasher = smartwatch_net::FlowHasher::new(cfg.hash_seed);
        for fc in [&mut seq, &mut bat] {
            fc.process(&pkt(1, 1));
            fc.process(&pkt(2, 2));
            assert!(fc.pin(&key(1)));
            assert!(fc.pin(&key(2)));
        }
        let batch: Vec<Packet> = (3..30u32).map(|i| pkt(i, u64::from(i))).collect();
        let out = process_bursts(&mut bat, &batch, BURST, true);
        let mut to_host = 0;
        for (p, got) in batch.iter().zip(&out) {
            let (canon, digest) = hasher.digest_symmetric(&p.key);
            assert_eq!(seq.process_digested(p, &canon, digest), *got);
            if got.outcome == Outcome::ToHost {
                to_host += 1;
            }
        }
        assert!(to_host > 0, "fully pinned row must escalate inside a batch");
        assert_eq!(bat.stats().to_host, seq.stats().to_host);
        bat.assert_tag_invariant();
    }

    /// The tag array is pure metadata: after arbitrary churn (hits,
    /// evictions, swaps, demotes, mode flips, cleanup, pin displacement,
    /// snapshots) every tag still mirrors its bucket exactly.
    #[test]
    fn tag_invariant_survives_churn_and_mode_flips() {
        let mut fc = FlowCache::new(FlowCacheConfig::general(3));
        let stream = seeded_stream(0xD1CE, 8_000, 120);
        for (i, p) in stream.iter().enumerate() {
            fc.process(p);
            if i % 257 == 0 {
                let next = if fc.mode() == Mode::General {
                    Mode::Lite
                } else {
                    Mode::General
                };
                fc.set_mode(next);
            }
            if i % 101 == 0 {
                fc.pin(&key((i as u32) % 120));
            }
            if i % 113 == 0 {
                fc.unpin(&key((i as u32 + 60) % 120));
            }
            if i % 997 == 0 {
                fc.snapshot_delta_into(&mut Vec::new());
                fc.assert_tag_invariant();
            }
        }
        fc.assert_tag_invariant();
        fc.drain_all();
        fc.assert_tag_invariant();
        assert_eq!(fc.occupied(), 0);
    }

    /// The resident-state contract: a cache that lived a full life —
    /// churn, pins, a General→Lite flip with rows still dirty, rings
    /// holding evictions — and was then `reset()` is observably a fresh
    /// cache: same `Access` sequence, same statistics (as deltas: the
    /// books are cumulative), same ring contents, same slot-order
    /// residency, through mode flips and pin churn of its own.
    #[test]
    fn reset_cache_is_observably_fresh() {
        for seed in [3u64, 0xFEED, 0x51CC_2027] {
            let cfg = FlowCacheConfig::general(4);
            let mut reused = FlowCache::new(cfg.clone());
            // First life. The ring capacity is cut so some overflow too.
            reused.rings = RingSet::new(8, 16);
            for (i, p) in seeded_stream(seed, 4_000, 300).iter().enumerate() {
                reused.process(p);
                if i % 97 == 0 {
                    reused.pin(&p.key);
                }
                if i == 3_990 {
                    reused.set_mode(Mode::Lite);
                }
            }
            assert_eq!(reused.mode(), Mode::Lite);
            assert!(reused.dirty.iter().any(|&d| d), "rows still dirty");
            assert!(
                2 * reused.occupied() > reused.slots.len(),
                "filled past half"
            );
            let b = cfg.buckets_per_row();
            let partial = reused.tags.iter().any(|t| {
                let row = &t.tags[..b];
                row.contains(&0) && row.iter().any(|&tag| tag != 0)
            });
            assert!(partial, "a row holds both records and empty buckets");
            assert!(reused.iter().any(|r| r.pinned), "records still pinned");
            assert!(reused.rings.len() > 0 && reused.rings.overflow_to_host > 0);
            let before = reused.stats();
            let ring_before = (reused.rings.overflow_to_host, reused.rings.pushed);

            let slots_before = reused.slots.clone();
            reused.reset();
            assert!(reused.slots == slots_before, "a reset writes no record");
            reused.assert_tag_invariant();
            assert_eq!(reused.occupied(), 0);
            assert_eq!(reused.mode(), Mode::General);
            assert!(reused.dirty.iter().all(|&d| !d));
            assert_eq!(reused.rings.len(), 0);
            // One rule: the tallies are cumulative, a reset rewinds none.
            assert_eq!(
                (reused.rings.overflow_to_host, reused.rings.pushed),
                ring_before
            );
            reused.rings = RingSet::new(8, cfg.ring_capacity);

            // Second life, beside a cache that never had a first: the
            // first life's records still sit under the 0 tags, and pins
            // pile up until rows are all pinned and send flows to host.
            let mut fresh = FlowCache::new(cfg);
            for (i, p) in seeded_stream(!seed, 4_000, 300).iter().enumerate() {
                assert_eq!(reused.process(p), fresh.process(p), "packet {i}");
                if i % 23 == 0 {
                    assert_eq!(reused.pin(&p.key), fresh.pin(&p.key));
                }
                if i % 101 == 0 {
                    let k = key(i as u32 % 300);
                    assert_eq!(reused.unpin(&k), fresh.unpin(&k));
                }
                if i % 1_300 == 1_299 {
                    let next = if fresh.mode() == Mode::General {
                        Mode::Lite
                    } else {
                        Mode::General
                    };
                    reused.set_mode(next);
                    fresh.set_mode(next);
                }
            }
            assert_eq!(reused.stats() - before, fresh.stats(), "stats deltas");
            assert!(fresh.stats().to_host > 0, "a row was all pinned");
            assert!(fresh.stats().mode_switches >= 2);
            assert_eq!(reused.occupied(), fresh.occupied());
            assert_eq!(
                reused.rings().drain(),
                fresh.rings().drain(),
                "ring contents"
            );
            reused.assert_tag_invariant();
            assert_eq!(
                reused.drain_all(),
                fresh.drain_all(),
                "slot-order residency"
            );
        }
    }

    /// One record is one cache line: a slot is 64 bytes on a 64-byte
    /// boundary, so no record straddles two lines and a P span of 4 is
    /// 4 lines.
    #[test]
    fn a_slot_is_one_cache_line() {
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<Slot>(), align_of::<Slot>()), (64, 64));
        assert!(size_of::<FlowRecord>() <= 64, "a record fits its line");
        assert_eq!(small_cache().slots.as_ptr() as usize % 64, 0);
    }

    /// Tag-as-truth: the bytes under a 0 tag reach no reader. Every
    /// vacant slot of a cache is scribbled with a copy of the row's last
    /// resident — same key, so same tag — but pinned, huge and from the
    /// future, where its clean twin's vacant slots hold unpinned one-
    /// packet records from time zero, which every policy would pick as
    /// its victim; evictions and demotions then leave stale records of
    /// their own. The scribbled cache must read and decide like its
    /// clean twin: `iter`, `get`,
    /// `pin` / `unpin` of resident and evicted flows, snapshots, the
    /// `Access` sequence of a stream through General↔Lite flips (victim
    /// picks, E-hit swaps into a part-empty P, cleanup), the rings and
    /// the final drain.
    #[test]
    fn stale_bytes_under_a_zero_tag_are_invisible() {
        for policy in [CachePolicy::LRU_LPC, CachePolicy::FIFO, CachePolicy::LPC] {
            let mut clean = FlowCache::new(FlowCacheConfig::split(6, 4, 8, policy));
            for p in &seeded_stream(0x57A1E, 300, 100) {
                clean.process(p);
            }
            let mut stale = clean.clone();
            let b = stale.cfg.buckets_per_row();
            let mut scribbled = 0;
            for row in 0..stale.cfg.rows() {
                let Some(last) = (0..b).rfind(|&i| stale.tag_at(row, i) != 0) else {
                    continue;
                };
                let mut ghost = *stale.rec(row, last);
                (ghost.packets, ghost.pinned) = (1 << 40, true);
                let future = Ts::from_secs(1 << 20);
                (ghost.first_ts, ghost.last_ts, ghost.inserted_ts) = (future, future, future);
                for i in 0..b {
                    if stale.tag_at(row, i) == 0 {
                        *stale.rec_mut(row, i) = ghost;
                        scribbled += 1;
                    }
                }
            }
            assert!(scribbled > 300, "{scribbled} vacant slots scribbled");
            let same = |stale: &FlowCache, clean: &FlowCache| {
                assert!(stale.iter().eq(clean.iter()), "iter");
                (0..200)
                    .chain(10_000..14_000)
                    .all(|i| stale.get(&key(i)) == clean.get(&key(i)))
            };
            for (i, p) in seeded_stream(0xD05E, 3_000, 200).iter().enumerate() {
                assert_eq!(stale.process(p), clean.process(p), "packet {i}");
                if i % 31 == 0 {
                    assert_eq!(stale.pin(&p.key), clean.pin(&p.key));
                }
                if i % 17 == 0 {
                    // Mostly flows evicted long ago.
                    let k = key(10_000 + (i as u32 * 7) % 4_000);
                    assert_eq!(stale.pin(&k), clean.pin(&k), "pin {i}");
                    assert_eq!(stale.unpin(&k), clean.unpin(&k), "unpin {i}");
                }
                if i % 150 == 149 {
                    let next = if clean.mode() == Mode::General {
                        Mode::Lite
                    } else {
                        Mode::General
                    };
                    stale.set_mode(next);
                    clean.set_mode(next);
                }
                if i % 500 == 0 {
                    assert!(same(&stale, &clean), "lookups at packet {i}");
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    clean.snapshot_delta_into(&mut a);
                    stale.snapshot_delta_into(&mut b);
                    assert_eq!(a, b, "snapshot at packet {i}");
                }
            }
            let s = clean.stats();
            assert_eq!(stale.stats(), s);
            assert!(
                s.rows_cleaned > 0 && s.evictions > 0 && s.e_hits > 0,
                "{s:?}"
            );
            assert_eq!(
                stale.rings().drain(),
                clean.rings().drain(),
                "ring contents"
            );
            stale.assert_tag_invariant();
            assert_eq!(stale.drain_all(), clean.drain_all(), "final drain");
        }
    }

    /// The `_into` export variants: a reused buffer gets the same stream
    /// as a fresh one (and the allocating drain), and steady-state
    /// snapshot epochs stop growing the scratch buffer's capacity.
    #[test]
    fn snapshot_and_drain_into_match_allocating_forms() {
        let cfg = FlowCacheConfig::split(3, 2, 2, CachePolicy::LRU_LPC);
        let mut a = FlowCache::new(cfg.clone());
        let mut b = FlowCache::new(cfg);
        let stream = seeded_stream(0xA110C, 4_000, 150);
        let mut scratch: Vec<FlowRecord> = Vec::new();
        let mut cap_after_warmup = 0usize;
        for (i, p) in stream.iter().enumerate() {
            a.process(p);
            b.process(p);
            if i % 500 == 499 {
                let mut alloc = Vec::new();
                a.snapshot_delta_into(&mut alloc);
                b.snapshot_delta_into(&mut scratch);
                assert_eq!(alloc, scratch, "snapshot streams must match");
                let epoch = i / 500;
                if epoch == 1 {
                    cap_after_warmup = scratch.capacity();
                } else if epoch > 1 {
                    assert_eq!(
                        scratch.capacity(),
                        cap_after_warmup,
                        "steady-state snapshots must not grow the scratch"
                    );
                }
            }
        }
        assert!(cap_after_warmup > 0, "snapshots saw active flows");
        let drain_a = a.drain_all();
        b.drain_all_into(&mut scratch);
        assert_eq!(drain_a, scratch, "drain streams must match");
        assert_eq!(b.occupied(), 0);
    }
}
