//! Epoch-stamped verdicts from the host tier back to the shards.
//!
//! Host NFs (and inline triage) publish [`Verdict`]s into one shared
//! log; each entry's index is its *epoch*. Consumers (every shard, plus
//! the control plane when one is attached) register a [`LogReader`] and
//! poll the tail at batch boundaries, so a verdict reaches the shard
//! that owns its flow (a flow-less one: shard 0) within one batch of
//! being published — the wall-clock analogue of the simulator's
//! per-interval control loop.
//!
//! The log is **bounded**: entries that every registered reader has
//! consumed are compacted away (the buffer retains only the suffix past
//! the minimum reader cursor), so memory stays proportional to the
//! *lag* of the slowest reader, never to the run length. Epoch numbers
//! stay monotone across compaction — the head offset (`base`) keeps
//! counting even as the `VecDeque` shrinks. A reader that exits calls
//! [`ControlLog::release`] so it stops pinning the buffer.
//!
//! Publishing takes a short mutex; readers copy the tail out under the
//! same lock, so the hot per-packet path never touches it.

use smartwatch_host::Verdict;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A released/parked cursor: never pins the buffer.
const RELEASED: u64 = u64::MAX;

#[derive(Debug, Default)]
struct LogInner {
    /// Epoch of `entries[0]` — grows as the applied prefix compacts.
    base: u64,
    entries: VecDeque<Verdict>,
    /// Absolute epoch cursor per registered reader (`RELEASED` once the
    /// reader is gone).
    cursors: Vec<u64>,
}

impl LogInner {
    fn head(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Drop every entry below the minimum live cursor.
    fn compact(&mut self) {
        let min = self.cursors.iter().copied().min().unwrap_or(RELEASED);
        let keep_from = min.min(self.head());
        while self.base < keep_from {
            self.entries.pop_front();
            self.base += 1;
        }
    }
}

/// The shared control-plane log (see module docs).
#[derive(Debug, Default)]
pub struct ControlLog {
    inner: Mutex<LogInner>,
}

/// A registered consumer's handle. Obtain via [`ControlLog::reader`];
/// pass to [`ControlLog::poll`] to consume and to
/// [`ControlLog::release`] when done.
#[derive(Debug)]
pub struct LogReader {
    idx: usize,
}

impl ControlLog {
    /// Empty log.
    pub fn new() -> ControlLog {
        ControlLog::default()
    }

    /// Append one verdict; returns its epoch (position in the log).
    pub fn publish(&self, v: Verdict) -> u64 {
        let mut inner = self.inner.lock().expect("control log poisoned");
        let epoch = inner.head();
        inner.entries.push_back(v);
        // With no registered readers nothing will ever poll: compact
        // immediately so a reader-less log (pure accounting) stays empty.
        if inner.cursors.iter().all(|&c| c == RELEASED) {
            inner.compact();
        }
        epoch
    }

    /// Register a reader. Its cursor starts at the oldest retained entry
    /// (epoch 0 on a fresh log). A shard registering after its siblings
    /// began publishing can miss only their flows' verdicts: it skips
    /// them anyway.
    pub fn reader(&self) -> LogReader {
        let mut inner = self.inner.lock().expect("control log poisoned");
        let start = inner.base;
        inner.cursors.push(start);
        LogReader {
            idx: inner.cursors.len() - 1,
        }
    }

    /// Copy out everything `r` has not consumed yet, advance its cursor,
    /// and compact the prefix every reader is past.
    pub fn poll(&self, r: &LogReader) -> Vec<Verdict> {
        let mut inner = self.inner.lock().expect("control log poisoned");
        let cursor = inner.cursors[r.idx];
        debug_assert!(cursor >= inner.base, "cursor fell behind the buffer");
        let from = (cursor - inner.base) as usize;
        let tail: Vec<Verdict> = inner.entries.iter().skip(from).cloned().collect();
        let head = inner.head();
        inner.cursors[r.idx] = head;
        inner.compact();
        tail
    }

    /// Deregister a reader so it no longer pins the buffer. Entries only
    /// it had not consumed become collectable immediately.
    pub fn release(&self, r: LogReader) {
        let mut inner = self.inner.lock().expect("control log poisoned");
        inner.cursors[r.idx] = RELEASED;
        inner.compact();
    }

    /// Number of verdicts ever published (the next epoch). Monotone —
    /// unaffected by compaction.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("control log poisoned").head() as usize
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently resident in memory (the slowest reader's lag).
    /// The boundedness regression test watches exactly this.
    pub(crate) fn buffered(&self) -> usize {
        self.inner
            .lock()
            .expect("control log poisoned")
            .entries
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::FlowKey;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, n),
            1000,
            Ipv4Addr::new(10, 0, 1, 1),
            22,
        )
    }

    #[test]
    fn epochs_are_sequential_and_readers_independent() {
        let log = ControlLog::new();
        let ra = log.reader();
        let rb = log.reader();
        assert!(log.is_empty());
        assert_eq!(log.publish(Verdict::Blacklist(key(1))), 0);
        assert_eq!(log.publish(Verdict::Whitelist(key(2))), 1);
        assert_eq!(log.poll(&ra).len(), 2);
        assert!(
            log.poll(&ra).is_empty(),
            "nothing new for a caught-up reader"
        );
        assert_eq!(log.poll(&rb).len(), 2, "each reader sees every entry once");
        assert_eq!(log.publish(Verdict::Drop), 2);
        assert_eq!(log.poll(&rb), vec![Verdict::Drop]);
        assert_eq!(log.len(), 3, "len counts all publications ever");
    }

    #[test]
    fn compaction_bounds_memory_to_slowest_reader_lag() {
        let log = ControlLog::new();
        let fast = log.reader();
        let slow = log.reader();
        for i in 0..100u8 {
            log.publish(Verdict::Blacklist(key(i)));
        }
        assert_eq!(log.buffered(), 100, "nothing consumed yet");
        assert_eq!(log.poll(&fast).len(), 100);
        // The slow reader still pins everything.
        assert_eq!(log.buffered(), 100);
        assert_eq!(log.poll(&slow).len(), 100);
        assert_eq!(log.buffered(), 0, "fully consumed prefix compacts away");
        // Epochs keep counting monotonically past compaction.
        assert_eq!(log.publish(Verdict::Drop), 100);
        assert_eq!(log.buffered(), 1);
        assert_eq!(log.poll(&fast), vec![Verdict::Drop]);
        assert_eq!(log.poll(&slow), vec![Verdict::Drop]);
        assert_eq!(log.buffered(), 0);
        assert_eq!(log.len(), 101);
    }

    #[test]
    fn released_reader_stops_pinning() {
        let log = ControlLog::new();
        let live = log.reader();
        let gone = log.reader();
        for i in 0..10u8 {
            log.publish(Verdict::Blacklist(key(i)));
        }
        log.release(gone);
        assert_eq!(log.poll(&live).len(), 10);
        assert_eq!(log.buffered(), 0, "released reader does not retain");
    }

    #[test]
    fn readerless_log_stays_empty_but_counts() {
        let log = ControlLog::new();
        for i in 0..50u8 {
            log.publish(Verdict::Blacklist(key(i)));
        }
        assert_eq!(log.len(), 50);
        assert_eq!(log.buffered(), 0, "no readers, nothing retained");
    }

    #[test]
    fn memory_stays_bounded_over_a_long_run() {
        // The regression the rewrite exists for: a steadily-polling
        // reader over a long publication stream must keep resident
        // entries bounded by the poll interval, not the run length.
        let log = std::sync::Arc::new(ControlLog::new());
        let reader = log.reader();
        let mut peak = 0usize;
        for round in 0..1000u32 {
            for i in 0..16u8 {
                log.publish(Verdict::Blacklist(key(i)));
            }
            peak = peak.max(log.buffered());
            let tail = log.poll(&reader);
            assert_eq!(tail.len(), 16);
            if round % 97 == 0 {
                assert!(log.buffered() <= 16);
            }
        }
        assert_eq!(log.len(), 16_000);
        assert!(
            peak <= 16,
            "resident entries bounded by poll lag, got {peak}"
        );
    }

    #[test]
    fn concurrent_publishers_never_lose_entries() {
        let log = std::sync::Arc::new(ControlLog::new());
        let reader = log.reader();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        log.publish(Verdict::Blacklist(key(t)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(log.len(), 4000);
        assert_eq!(log.poll(&reader).len(), 4000);
        assert_eq!(log.buffered(), 0);
    }
}
