//! Lockless flow-record updates across PMEs (paper Algorithm 2, §9.1–9.2).
//!
//! The sNIC's global load balancer sprays packets of the *same* flow
//! across many PMEs, so counter updates must serialize without a per-row
//! lock (which would stall packet trains). The paper's scheme:
//!
//! - **Updates** use hardware atomic adds on the counters, plus a
//!   per-bucket `up_th_ctr` counting threads currently updating it, so an
//!   eviction can tell when a bucket has in-flight updates.
//! - **Insert/Evict** takes row-exclusive access with a `test_and_set`
//!   (`row` flag), marks the victim's key invalid to stop further updates,
//!   waits for `up_th_ctr` to drain, then swaps records. A thread whose
//!   update raced with the eviction falls back to the insert path.
//!
//! This module implements that protocol with Rust atomics over a
//! fixed-size row of key-digest/counter buckets, and the tests hammer it
//! from many threads asserting *no update is ever lost* — the property the
//! paper's "Correct State-Tracking without Flow Duplicates" section
//! argues for.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of buckets in one concurrent row (the paper's General mode: 12).
pub const ROW_BUCKETS: usize = 12;

/// Reserved key digest meaning "empty / being replaced".
const EMPTY: u64 = 0;

/// One bucket: a key digest, a packet counter, and the update-thread
/// counter from Algorithm 2.
#[derive(Debug, Default)]
pub struct ConcBucket {
    /// Flow key digest (0 = empty). Real deployments store the full
    /// 5-tuple; a 64-bit digest keeps the demo single-word-atomic, as the
    /// ME hardware's atomic engine requires.
    key: AtomicU64,
    /// Packet counter (`f_c` in Algorithm 2), updated with atomic adds.
    packets: AtomicU64,
    /// `up_th_ctr`: threads currently updating this bucket.
    up_th_ctr: AtomicU32,
}

/// Outcome of one concurrent row operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConcOutcome {
    /// Counter updated in place.
    Updated,
    /// New flow inserted into an empty bucket.
    Inserted,
    /// New flow inserted by evicting a victim (its final count returned).
    Evicted {
        /// Digest of the evicted flow.
        victim: u64,
        /// The victim's packet count at eviction (exported to the ring).
        count: u64,
    },
    /// Row was exclusively held and no slot could be taken; caller
    /// retries (maps to the sub-microsecond wait the paper measures).
    Retry,
}

/// A FlowCache row safe for concurrent PME access.
#[derive(Debug, Default)]
pub struct ConcurrentRow {
    buckets: [ConcBucket; ROW_BUCKETS],
    /// `row` flag in Algorithm 2: set while a thread holds exclusive
    /// insert/evict access.
    row_excl: AtomicU32,
}

impl ConcurrentRow {
    /// New empty row.
    pub fn new() -> ConcurrentRow {
        ConcurrentRow::default()
    }

    /// Process one packet of flow `key` (non-zero digest): update its
    /// counter, or insert it, evicting the bucket with the smallest count
    /// if the row is full. Loops internally on benign races, so it always
    /// terminates with `Updated`, `Inserted` or `Evicted`.
    pub fn process(&self, key: u64) -> ConcOutcome {
        assert_ne!(key, EMPTY, "key digest 0 is reserved");
        loop {
            match self.try_process(key) {
                ConcOutcome::Retry => std::hint::spin_loop(),
                done => return done,
            }
        }
    }

    /// One attempt of the Algorithm 2 state machine.
    fn try_process(&self, key: u64) -> ConcOutcome {
        // UPDATE path: find the bucket claiming our key.
        for b in &self.buckets {
            if b.key.load(Ordering::Acquire) == key {
                // Announce the in-flight update (fetch_and_add(up_th_ctr)).
                b.up_th_ctr.fetch_add(1, Ordering::AcqRel);
                // Re-check: an eviction may have invalidated the key
                // between our load and our announcement.
                if b.key.load(Ordering::Acquire) == key {
                    b.packets.fetch_add(1, Ordering::AcqRel);
                    b.up_th_ctr.fetch_sub(1, Ordering::AcqRel);
                    return ConcOutcome::Updated;
                }
                // Raced with an eviction: fall back to insert
                // ("subsequent updates of the recently evicted flow
                // fall back to inserting the flow entry").
                b.up_th_ctr.fetch_sub(1, Ordering::AcqRel);
                break;
            }
        }

        // INSERT path: take row-exclusive access (test_and_set(row)).
        if self.row_excl.swap(1, Ordering::AcqRel) == 1 {
            return ConcOutcome::Retry; // someone else is inserting
        }
        let result = self.insert_locked(key);
        self.row_excl.store(0, Ordering::Release);
        result
    }

    /// Insert/evict with the row flag held.
    fn insert_locked(&self, key: u64) -> ConcOutcome {
        // The flow may have been inserted while we waited for the flag.
        for b in &self.buckets {
            if b.key.load(Ordering::Acquire) == key {
                b.packets.fetch_add(1, Ordering::AcqRel);
                return ConcOutcome::Updated;
            }
        }
        // Empty bucket?
        for b in &self.buckets {
            if b.key.load(Ordering::Acquire) == EMPTY && b.up_th_ctr.load(Ordering::Acquire) == 0 {
                b.packets.store(1, Ordering::Release);
                b.key.store(key, Ordering::Release);
                return ConcOutcome::Inserted;
            }
        }
        // Evict the least-packet-count bucket (LPC within the row).
        let victim = self
            .buckets
            .iter()
            .min_by_key(|b| b.packets.load(Ordering::Acquire))
            .expect("row has buckets");
        let victim_key = victim.key.load(Ordering::Acquire);
        // Invalidate the key first so no new updates begin
        // ("key ← 0: stop further update on this entry").
        victim.key.store(EMPTY, Ordering::Release);
        // Drain in-flight updaters.
        while victim.up_th_ctr.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        let count = victim.packets.swap(1, Ordering::AcqRel);
        victim.key.store(key, Ordering::Release);
        ConcOutcome::Evicted {
            victim: victim_key,
            count,
        }
    }

    /// Snapshot (key, packets) of occupied buckets. Quiescent use only.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .filter_map(|b| {
                let k = b.key.load(Ordering::Acquire);
                (k != EMPTY).then(|| (k, b.packets.load(Ordering::Acquire)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64 as Au64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_thread_update_insert_evict() {
        let row = ConcurrentRow::new();
        // Fill the row.
        for k in 1..=ROW_BUCKETS as u64 {
            assert_eq!(row.process(k), ConcOutcome::Inserted);
        }
        // Update.
        assert_eq!(row.process(1), ConcOutcome::Updated);
        // Overflow evicts the smallest-count entry (everything but flow 1
        // has count 1; deterministically the first such bucket).
        match row.process(999) {
            ConcOutcome::Evicted { victim, count } => {
                assert_ne!(victim, 1, "flow 1 has the highest count");
                assert_eq!(count, 1);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn no_update_lost_under_contention() {
        // 8 threads × 40_000 updates over 8 resident flows: every update
        // must land (no evictions occur because the row has 12 buckets).
        let row = Arc::new(ConcurrentRow::new());
        let threads = 8;
        let per_thread = 40_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let row = Arc::clone(&row);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        row.process(1 + ((i + t) % 8));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        let total: u64 = row.entries().iter().map(|(_, c)| c).sum();
        assert_eq!(total, threads * per_thread, "updates were lost");
    }

    #[test]
    fn conservation_with_evictions() {
        // More flows than buckets: processed = resident + evicted, exactly.
        let row = Arc::new(ConcurrentRow::new());
        let evicted = Arc::new(Au64::new(0));
        let threads = 8;
        let per_thread = 20_000u64;
        let flows = 64u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let row = Arc::clone(&row);
                let evicted = Arc::clone(&evicted);
                thread::spawn(move || {
                    let mut x = 0x1234_5678_9abc_def0u64 ^ t;
                    for _ in 0..per_thread {
                        // xorshift flow choice
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if let ConcOutcome::Evicted { count, .. } = row.process(1 + (x % flows)) {
                            evicted.fetch_add(count, Ordering::AcqRel);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        let resident: u64 = row.entries().iter().map(|(_, c)| c).sum();
        assert_eq!(
            resident + evicted.load(Ordering::Acquire),
            threads * per_thread,
            "packets vanished or were double-counted"
        );
    }

    #[test]
    fn no_duplicate_keys_after_contention() {
        let row = Arc::new(ConcurrentRow::new());
        let handles: Vec<_> = (0..8)
            .map(|t: u64| {
                let row = Arc::clone(&row);
                thread::spawn(move || {
                    for i in 0..30_000u64 {
                        row.process(1 + ((i * 7 + t) % 20));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for (k, _) in row.entries() {
            *seen.entry(k).or_default() += 1;
        }
        assert!(
            seen.values().all(|&c| c == 1),
            "duplicate flow entries in row"
        );
    }
}

/// A full concurrent FlowCache: many [`ConcurrentRow`]s addressed by the
/// same symmetric digest splitting the deterministic cache uses. This is
/// the shape the 80-PME hardware actually runs — rows are independent, so
/// contention only occurs between packets of colliding flows.
#[derive(Debug)]
pub struct ConcurrentCache {
    rows: Vec<ConcurrentRow>,
    row_bits: u32,
}

impl ConcurrentCache {
    /// Cache with `2^row_bits` concurrent rows.
    pub fn new(row_bits: u32) -> ConcurrentCache {
        assert!(row_bits <= 20);
        ConcurrentCache {
            rows: (0..(1usize << row_bits))
                .map(|_| ConcurrentRow::new())
                .collect(),
            row_bits,
        }
    }

    /// Process one packet of the flow with symmetric digest `digest`
    /// (zero digests are remapped, as zero is the empty sentinel).
    pub fn process_digest(&self, digest: u64) -> ConcOutcome {
        let digest = if digest == 0 { 1 } else { digest };
        let row = (digest & ((1u64 << self.row_bits) - 1)) as usize;
        self.rows[row].process(digest)
    }

    /// Total resident packets across all rows (quiescent use only).
    pub fn resident_packets(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| r.entries())
            .map(|(_, c)| c)
            .sum()
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use smartwatch_net::{FlowHasher, FlowKey, Proto};
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// The full-cache version of the conservation property: many threads
    /// spraying packets of many flows across many rows (the global
    /// load-balancer pattern) lose nothing.
    #[test]
    fn multi_row_conservation_under_contention() {
        let cache = Arc::new(ConcurrentCache::new(4));
        let evicted = Arc::new(AtomicU64::new(0));
        let threads = 8u64;
        let per_thread = 30_000u64;
        let hasher = FlowHasher::new(0x51CC);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let evicted = Arc::clone(&evicted);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        let key = FlowKey::new(
                            Ipv4Addr::from(0x0A00_0000 + ((i * 31 + t) % 512) as u32),
                            Ipv4Addr::from(0xAC10_0001u32),
                            1000,
                            443,
                            Proto::Tcp,
                        );
                        let digest = hasher.hash_symmetric(&key).0;
                        if let ConcOutcome::Evicted { count, .. } = cache.process_digest(digest) {
                            evicted.fetch_add(count, Ordering::AcqRel);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(
            cache.resident_packets() + evicted.load(Ordering::Acquire),
            threads * per_thread
        );
    }

    /// Both directions of a flow hash to the same concurrent row.
    #[test]
    fn symmetric_digests_share_rows() {
        let cache = ConcurrentCache::new(4);
        let hasher = FlowHasher::new(1);
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
            Ipv4Addr::new(172, 16, 0, 1),
            22,
        );
        let d1 = hasher.hash_symmetric(&key).0;
        let d2 = hasher.hash_symmetric(&key.reversed()).0;
        assert_eq!(d1, d2);
        cache.process_digest(d1);
        cache.process_digest(d2);
        assert_eq!(cache.resident_packets(), 2);
    }
}

/// A bounded multi-producer/single-consumer eviction ring.
///
/// The deterministic [`crate::RingSet`] models ring *semantics*; this is
/// the concurrent shape the hardware actually needs: 80 PMEs push evicted
/// (digest, count) records with atomic slot reservation while one host
/// thread drains. The paper dedicates 8 such rings to spread contention
/// (§3.2); instantiate several and shard by row, as the FlowCache does.
#[derive(Debug)]
pub struct ConcRing {
    slots: Vec<(AtomicU64, AtomicU64)>,
    /// Slot states: 0 = empty, 1 = being written, 2 = full.
    states: Vec<AtomicU32>,
    head: AtomicU64,
    tail: AtomicU64,
    /// Pushes rejected because the ring was full (these evictions bypass
    /// the ring straight to the host in the paper's design).
    pub overflow: AtomicU64,
}

impl ConcRing {
    /// Ring with `capacity` slots (power of two).
    pub fn new(capacity: usize) -> ConcRing {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        ConcRing {
            slots: (0..capacity)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            states: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Push one evicted record (any PME thread). Returns false when full.
    pub fn push(&self, digest: u64, count: u64) -> bool {
        loop {
            // `head` first, as in `len`: read after a stale `tail` it
            // could have moved past it and the ring would look full.
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            if tail.wrapping_sub(head) >= self.slots.len() as u64 {
                self.overflow.fetch_add(1, Ordering::AcqRel);
                return false;
            }
            // Reserve the slot by advancing tail.
            if self
                .tail
                .compare_exchange_weak(tail, tail + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                std::hint::spin_loop();
                continue;
            }
            let idx = (tail & self.mask()) as usize;
            // The consumer may still be reading an older generation of
            // this slot; wait until it is empty.
            while self.states[idx].load(Ordering::Acquire) != 0 {
                std::hint::spin_loop();
            }
            self.states[idx].store(1, Ordering::Release);
            self.slots[idx].0.store(digest, Ordering::Release);
            self.slots[idx].1.store(count, Ordering::Release);
            self.states[idx].store(2, Ordering::Release);
            return true;
        }
    }

    /// Pop one record (the single host consumer thread).
    pub fn pop(&self) -> Option<(u64, u64)> {
        let head = self.head.load(Ordering::Acquire);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let idx = (head & self.mask()) as usize;
        // Wait for the producer that reserved this slot to finish writing.
        while self.states[idx].load(Ordering::Acquire) != 2 {
            std::hint::spin_loop();
        }
        let digest = self.slots[idx].0.load(Ordering::Acquire);
        let count = self.slots[idx].1.load(Ordering::Acquire);
        self.states[idx].store(0, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        Some((digest, count))
    }

    /// Records currently buffered — a snapshot: with producers and the
    /// consumer running, the two indices cannot be read at one instant.
    /// `head` is read first: it only ever trails `tail`, so the later
    /// `tail` read is never behind it and the difference cannot
    /// underflow (the other order let a concurrent `pop` move `head`
    /// past a stale `tail`); `saturating_sub` keeps the bound explicit.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        self.tail.load(Ordering::Acquire).saturating_sub(head) as usize
    }

    /// True if no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_thread_fifo() {
        let ring = ConcRing::new(8);
        assert!(ring.is_empty());
        for i in 1..=5u64 {
            assert!(ring.push(i, i * 10));
        }
        assert_eq!(ring.len(), 5);
        for i in 1..=5u64 {
            assert_eq!(ring.pop(), Some((i, i * 10)));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn full_ring_overflows() {
        let ring = ConcRing::new(4);
        for i in 1..=4u64 {
            assert!(ring.push(i, 1));
        }
        assert!(!ring.push(99, 1));
        assert_eq!(ring.overflow.load(Ordering::Acquire), 1);
        ring.pop();
        assert!(ring.push(99, 1), "space freed by the consumer");
    }

    /// `producers` "PME" threads push eviction counts (backing off on
    /// `len()` while the ring is nearly full) while one host thread
    /// drains; every pushed count must be consumed exactly once.
    fn contend(producers: u64, per_producer: u64) {
        let ring = Arc::new(ConcRing::new(256));
        let done = Arc::new(AtomicBool::new(false));

        let consumer = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut seen: HashMap<u64, u64> = HashMap::new();
                loop {
                    match ring.pop() {
                        Some((digest, count)) => {
                            *seen.entry(digest).or_default() += count;
                        }
                        None if done.load(Ordering::Acquire) && ring.is_empty() => break,
                        None => std::hint::spin_loop(),
                    }
                }
                seen
            })
        };

        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    let mut pushed = 0u64;
                    for i in 0..per_producer {
                        if ring.push(p + 1, i + 1) {
                            pushed += i + 1;
                        }
                        // Back off when full rather than spinning hot.
                        while ring.len() >= 255 {
                            std::thread::yield_now();
                        }
                    }
                    pushed
                })
            })
            .collect();
        let pushed: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // Release the consumer before judging the producers, so a
        // producer panic fails the test instead of hanging it.
        done.store(true, Ordering::Release);
        let seen = consumer.join().unwrap();
        let pushed_total: u64 = pushed.into_iter().map(|p| p.unwrap()).sum();
        let consumed_total: u64 = seen.values().sum();
        assert_eq!(consumed_total, pushed_total, "records lost or duplicated");
        assert_eq!(
            seen.len() as u64,
            producers,
            "every producer's records arrived"
        );
    }

    #[test]
    fn mpsc_conservation_under_contention() {
        contend(8, 20_000);
    }

    /// `len()` used to read `tail` before `head`: a `pop` in between
    /// moved `head` past the stale `tail` and the subtraction
    /// underflowed — a panic under debug overflow checks (about one run
    /// in three of the test above), a length near `usize::MAX` without
    /// them, which parks the producer's back-off loop on a ring that is
    /// not full. Many short contended runs make that window certain to
    /// be hit.
    #[test]
    fn len_never_underflows_while_the_consumer_pops() {
        for _ in 0..200 {
            contend(4, 2_000);
        }
    }
}
