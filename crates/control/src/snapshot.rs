//! RCU-style steering-state publication.
//!
//! The controller publishes immutable [`SteeringSnapshot`]s through a
//! [`SnapshotCell`]; every ingest unit (the pipeline's one dispatcher,
//! or each fused RTC core) and every shard hold their *own*
//! [`SnapshotReader`] — readers are independent cursors, so an RTC
//! engine hands one to each of its N cores and they refresh (and lag)
//! independently without coordination. The protocol:
//!
//! 1. The publisher builds a fresh snapshot (a new `Arc`), stores it in
//!    the cell's slot, then bumps the version counter (release order).
//! 2. A reader checks the version with one atomic load per *batch*
//!    ([`SnapshotReader::refresh`]). Only when the version moved does it
//!    briefly lock the slot to clone the `Arc` — publications are rare
//!    (one per controller epoch at most), so in the steady state a
//!    refresh is a single uncontended atomic load.
//! 3. The per-*packet* path uses [`SnapshotReader::current`], which is a
//!    plain field access into the cached `Arc` — zero atomics, zero
//!    locks, and immune to concurrent publication by construction.
//!
//! This is safe-Rust RCU: readers never block the publisher, the
//! publisher never blocks readers mid-batch, and old snapshots are freed
//! when the last reader drops its `Arc`.

use smartwatch_net::DigestSet;
use smartwatch_snic::Mode;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The immutable steering table the data path consults.
///
/// Digests are symmetric flow hashes under the engine's hash seed, so a
/// membership probe on the hot path is one identity-hashed `u64` lookup
/// against the pre-computed dispatch digest.
#[derive(Clone, Debug, Default)]
pub struct SteeringSnapshot {
    /// Monotone publication number (0 = the empty boot snapshot).
    pub version: u64,
    /// Load shedding active: the dispatcher forwards only whitelisted
    /// flows and counts everything else as an accounted shed drop.
    pub shed: bool,
    /// Benign flows steered past the detector suite (and kept during
    /// shedding) — the switch-whitelist analogue.
    pub whitelist: DigestSet,
    /// Hostile flows dropped at dispatch — the switch-blacklist
    /// ("hoverboard" rule) analogue.
    pub blacklist: DigestSet,
}

impl SteeringSnapshot {
    /// The empty boot snapshot every reader starts from.
    pub fn empty() -> SteeringSnapshot {
        SteeringSnapshot::default()
    }
}

/// Single-publisher, multi-reader snapshot cell (see module docs).
#[derive(Debug)]
pub struct SnapshotCell<T> {
    version: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Cell seeded with `initial` at version 0.
    pub fn new(initial: T) -> SnapshotCell<T> {
        SnapshotCell {
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// Publish a new snapshot: replace the slot, then bump the version
    /// so readers notice on their next refresh.
    pub fn publish(&self, next: Arc<T>) {
        *self.slot.lock().expect("snapshot slot poisoned") = next;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Publications so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A reader holding the current snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader<T> {
        let version = self.version();
        let cached = Arc::clone(&self.slot.lock().expect("snapshot slot poisoned"));
        SnapshotReader {
            cell: Arc::clone(self),
            seen: version,
            cached,
        }
    }
}

/// A reader-side cache of the latest published snapshot.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    cell: Arc<SnapshotCell<T>>,
    seen: u64,
    cached: Arc<T>,
}

impl<T> SnapshotReader<T> {
    /// One atomic version load; re-clones the `Arc` only when the
    /// publisher moved on. Returns `true` when the cached snapshot
    /// changed. Call once per batch, never per packet.
    #[inline]
    pub fn refresh(&mut self) -> bool {
        let v = self.cell.version.load(Ordering::Acquire);
        if v == self.seen {
            return false;
        }
        self.cached = Arc::clone(&self.cell.slot.lock().expect("snapshot slot poisoned"));
        self.seen = v;
        true
    }

    /// The cached snapshot — a plain dereference, no atomics. This is
    /// the per-packet entry point.
    #[inline]
    pub fn current(&self) -> &T {
        &self.cached
    }
}

/// One shard's live Algorithm 4 decision, applied by the shard thread at
/// its next batch boundary. An `AtomicU8` so the controller's store and
/// the shard's load never contend on anything wider.
#[derive(Debug)]
pub struct ModeCell(AtomicU8);

impl ModeCell {
    /// Cell starting in `mode`.
    pub fn new(mode: Mode) -> ModeCell {
        ModeCell(AtomicU8::new(mode.code()))
    }

    /// Publish a mode decision (controller side).
    pub fn set(&self, mode: Mode) {
        self.0.store(mode.code(), Ordering::Release);
    }

    /// Read the current decision (shard side, once per batch).
    pub fn get(&self) -> Mode {
        match self.0.load(Ordering::Acquire) {
            0 => Mode::General,
            _ => Mode::Lite,
        }
    }
}

impl Default for ModeCell {
    fn default() -> ModeCell {
        ModeCell::new(Mode::General)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_sees_publications_only_after_refresh() {
        let cell = Arc::new(SnapshotCell::new(SteeringSnapshot::empty()));
        let mut reader = cell.reader();
        assert_eq!(reader.current().version, 0);

        let mut next = SteeringSnapshot::empty();
        next.version = 1;
        next.whitelist.insert(42);
        cell.publish(Arc::new(next));

        // Unrefreshed reads keep serving the old snapshot (stability
        // within a batch).
        assert_eq!(reader.current().version, 0);
        assert!(reader.refresh(), "refresh must observe the publication");
        assert_eq!(reader.current().version, 1);
        assert!(reader.current().whitelist.contains(&42));
        assert!(!reader.refresh(), "no further publication, no churn");
    }

    #[test]
    fn concurrent_readers_never_tear() {
        // Publisher spins versions; readers must only ever observe
        // snapshots whose content matches their version stamp.
        let cell = Arc::new(SnapshotCell::new(SteeringSnapshot::empty()));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mut r = cell.reader();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        r.refresh();
                        let snap = r.current();
                        assert!(snap.version >= last, "version must be monotone");
                        assert_eq!(
                            snap.whitelist.len() as u64,
                            snap.version,
                            "snapshot content must match its version atomically"
                        );
                        last = snap.version;
                    }
                })
            })
            .collect();
        let mut wl = DigestSet::default();
        for v in 1..=1000u64 {
            wl.insert(v);
            cell.publish(Arc::new(SteeringSnapshot {
                version: v,
                shed: false,
                whitelist: wl.clone(),
                blacklist: DigestSet::default(),
            }));
        }
        stop.store(1, Ordering::Relaxed);
        for h in readers {
            h.join().expect("reader never panics");
        }
        assert_eq!(cell.version(), 1000);
    }

    #[test]
    fn per_dispatcher_readers_are_independent_cursors() {
        // Every ingest unit holds its own reader — on RTC, one per
        // fused core. One unit refreshing must not advance (or
        // invalidate) another's cached snapshot: each converges on its
        // own schedule.
        let cell = Arc::new(SnapshotCell::new(SteeringSnapshot::empty()));
        let mut readers: Vec<_> = (0..4).map(|_| cell.reader()).collect();

        let mut next = SteeringSnapshot::empty();
        next.version = 1;
        next.blacklist.insert(7);
        cell.publish(Arc::new(next));

        // Refresh only queue 0: the others keep serving the boot
        // snapshot until their own batch boundary comes around.
        assert!(readers[0].refresh());
        assert_eq!(readers[0].current().version, 1);
        for r in &readers[1..] {
            assert_eq!(r.current().version, 0, "unrefreshed readers lag safely");
        }
        for r in &mut readers[1..] {
            assert!(r.refresh());
            assert!(r.current().blacklist.contains(&7));
        }
        assert!(
            readers.iter_mut().all(|r| !r.refresh()),
            "all caught up: refreshes are quiescent again"
        );
    }

    #[test]
    fn mode_cell_round_trips() {
        let cell = ModeCell::default();
        assert_eq!(cell.get(), Mode::General);
        cell.set(Mode::Lite);
        assert_eq!(cell.get(), Mode::Lite);
        cell.set(Mode::General);
        assert_eq!(cell.get(), Mode::General);
    }
}
