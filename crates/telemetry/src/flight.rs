//! Flight recorder: fixed-capacity per-thread event rings.
//!
//! Every hot thread in the wall-clock engine (dispatchers, shards, host
//! workers, the controller) owns one [`FlightRing`]: a ring of
//! structured events — drops with reasons, mode switches, whitelist
//! promotions and evictions, conservation deltas — written only on drop
//! and control paths, never per packet. When something goes wrong (a
//! conservation failure, unexpected drops in flat-out mode) the recorder
//! is dumped to JSON and the last `capacity` events per thread explain
//! *why*, black-box style.
//!
//! A ring is a `VecDeque` behind one `Mutex`, as a
//! [`TraceShard`](crate::TraceShard) is: a write takes the lock once,
//! and a concurrent reader ([`FlightRing::snapshot`], used by the live
//! `/flight.json` endpoint) copies the resident events under it, so it
//! only ever observes whole events. Each ring has a single writing
//! thread by convention; overwrites of the oldest events are counted,
//! never blocked on.

use serde::{Number, Value};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What happened. Each kind names its payload words via
/// [`FlightKind::arg_names`] so dumps are self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A full SPSC lane forced the dispatcher to drop a batch.
    IngestDrop,
    /// The steering table blacklisted packets at ingest.
    SteerDrop,
    /// The load shedder turned packets away at ingest.
    ShedDrop,
    /// The host escalation queue was full; packet handled inline.
    EscalationDrop,
    /// The controller switched a shard between General and Lite.
    ModeSwitch,
    /// Load shedding engaged.
    ShedOn,
    /// Load shedding released.
    ShedOff,
    /// Heavy-hitter flows promoted to the whitelist this epoch.
    Promotion,
    /// Whitelist entries aged out this epoch.
    WhitelistEvict,
    /// End-of-run conservation check found a non-zero delta.
    ConservationDelta,
    /// End-of-run marker with the conservation verdict.
    RunEnd,
    /// An admin command (steering edit, mode or shed pin) was
    /// applied by the controller at an epoch boundary. `cmd` is the
    /// command's code (1–4 the steering edits, 5 the shed pin, 6 the
    /// mode pin); `arg` the edited digest, the shed pin (1 on, 0
    /// released) or the pinned shard.
    AdminEdit,
    /// An applied blacklist verdict dropped packets on a shard.
    VerdictDrop,
}

impl FlightKind {
    /// Stable snake_case name used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::IngestDrop => "ingest_drop",
            FlightKind::SteerDrop => "steer_drop",
            FlightKind::ShedDrop => "shed_drop",
            FlightKind::EscalationDrop => "escalation_drop",
            FlightKind::ModeSwitch => "mode_switch",
            FlightKind::ShedOn => "shed_on",
            FlightKind::ShedOff => "shed_off",
            FlightKind::Promotion => "promotion",
            FlightKind::WhitelistEvict => "whitelist_evict",
            FlightKind::ConservationDelta => "conservation_delta",
            FlightKind::RunEnd => "run_end",
            FlightKind::AdminEdit => "admin_edit",
            FlightKind::VerdictDrop => "verdict_drop",
        }
    }

    /// JSON field names for the payload words `a`, `b` and — for the
    /// kinds that carry one — `c`.
    pub fn arg_names(self) -> &'static [&'static str] {
        match self {
            FlightKind::IngestDrop => &["shard", "count"],
            FlightKind::SteerDrop => &["count", "block"],
            FlightKind::ShedDrop => &["count", "block"],
            FlightKind::EscalationDrop => &["count", "batch"],
            FlightKind::ModeSwitch => &["shard", "mode", "epoch"],
            FlightKind::ShedOn => &["epoch", "backlog"],
            FlightKind::ShedOff => &["epoch", "backlog"],
            FlightKind::Promotion => &["count", "epoch"],
            FlightKind::WhitelistEvict => &["count", "epoch"],
            FlightKind::ConservationDelta => &["delta", "offered"],
            FlightKind::RunEnd => &["conserved", "offered"],
            FlightKind::AdminEdit => &["cmd", "arg"],
            FlightKind::VerdictDrop => &["count", "batch"],
        }
    }
}

/// An event read back out of a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global per-ring sequence number (0-based, never reused).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// First payload word; meaning per [`FlightKind::arg_names`].
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word; `0` for a kind that names two.
    pub c: u64,
}

/// A ring's resident events, oldest first, and how many it ever took.
struct Log {
    events: VecDeque<FlightEvent>,
    /// Total events ever recorded (next sequence number).
    recorded: u64,
}

struct RingInner {
    name: String,
    cap: usize,
    epoch: Instant,
    log: Mutex<Log>,
}

/// One thread's event ring; cheap to clone.
#[derive(Clone)]
pub struct FlightRing {
    inner: Arc<RingInner>,
}

impl FlightRing {
    /// Record an event stamped "now" (nanoseconds since the recorder
    /// was created).
    pub fn record(&self, kind: FlightKind, a: u64, b: u64) {
        self.record3(kind, a, b, 0);
    }

    /// [`FlightRing::record`] for a kind with a third payload word.
    pub fn record3(&self, kind: FlightKind, a: u64, b: u64, c: u64) {
        let ts = self.inner.epoch.elapsed().as_nanos() as u64;
        self.record_at(ts, kind, [a, b, c]);
    }

    /// Record an event's payload words with an explicit timestamp — the
    /// deterministic entry point used by tests and sim-time callers.
    pub(crate) fn record_at(&self, ts_ns: u64, kind: FlightKind, [a, b, c]: [u64; 3]) {
        let mut log = self.log();
        if log.events.len() == self.inner.cap {
            log.events.pop_front();
        }
        let seq = log.recorded;
        log.recorded += 1;
        log.events.push_back(FlightEvent {
            seq,
            ts_ns,
            kind,
            a,
            b,
            c,
        });
    }

    /// The ring's log. No write can leave it half-updated, so a lock
    /// poisoned by a panicking writer is taken as it stands: recording
    /// a drop never panics.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.inner
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring (thread) name.
    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }

    /// Total events ever recorded into this ring.
    pub(crate) fn recorded(&self) -> u64 {
        self.log().recorded
    }

    /// Events overwritten because the ring wrapped.
    pub(crate) fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.inner.cap as u64)
    }

    /// Every event still resident, oldest first. Safe to call while the
    /// owning thread keeps writing: the copy is taken under the ring's
    /// lock.
    pub(crate) fn snapshot(&self) -> Vec<FlightEvent> {
        self.log().events.iter().copied().collect()
    }
}

struct RecorderInner {
    cap: usize,
    epoch: Instant,
    rings: Mutex<Vec<FlightRing>>,
}

/// The whole recorder: one ring per registered thread, plus the JSON
/// dump path. Clones share the same store.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Default per-ring capacity: enough to hold the interesting tail
    /// of a run without measurable memory cost.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// New recorder whose rings each hold `cap` events.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                cap: cap.max(1),
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Open a named ring (one per thread by convention). Rings are
    /// listed in registration order in dumps. Re-opening a name returns
    /// the *existing* ring, so a long-running service whose worker
    /// threads restart per segment (`sw-shard-0`, `sw-rxq-0`, …) keeps
    /// one bounded ring per thread name instead of growing a new ring
    /// every restart — segment boundaries appear as consecutive events
    /// in the same ring.
    pub fn ring(&self, name: impl Into<String>) -> FlightRing {
        let name = name.into();
        let mut rings = self.inner.rings.lock().unwrap();
        if let Some(existing) = rings.iter().find(|r| r.name() == name) {
            return existing.clone();
        }
        let cap = self.inner.cap;
        let ring = FlightRing {
            inner: Arc::new(RingInner {
                name,
                cap,
                epoch: self.inner.epoch,
                log: Mutex::new(Log {
                    events: VecDeque::with_capacity(cap),
                    recorded: 0,
                }),
            }),
        };
        rings.push(ring.clone());
        ring
    }

    /// Total events recorded across every ring.
    pub fn total_recorded(&self) -> u64 {
        self.inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.recorded())
            .sum()
    }

    /// Total events lost to ring wrap across every ring.
    pub fn total_dropped(&self) -> u64 {
        self.inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped())
            .sum()
    }

    /// Snapshot of every ring, in registration order.
    pub fn snapshot(&self) -> Vec<(String, Vec<FlightEvent>)> {
        self.inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.name().to_string(), r.snapshot()))
            .collect()
    }

    /// JSON dump: one object per ring with its recorded/dropped
    /// accounting and the resident events, each self-describing via
    /// [`FlightKind::arg_names`].
    pub(crate) fn to_json_value(&self) -> Value {
        let rings = self.inner.rings.lock().unwrap();
        let ring_values: Vec<Value> = rings
            .iter()
            .map(|ring| {
                let events: Vec<Value> = ring
                    .snapshot()
                    .into_iter()
                    .map(|ev| {
                        let mut fields = vec![
                            ("seq".to_string(), Value::Number(Number::U(ev.seq))),
                            ("ts_ns".to_string(), Value::Number(Number::U(ev.ts_ns))),
                            (
                                "kind".to_string(),
                                Value::String(ev.kind.label().to_string()),
                            ),
                        ];
                        let words = [ev.a, ev.b, ev.c];
                        for (name, word) in ev.kind.arg_names().iter().zip(words) {
                            fields.push((name.to_string(), Value::Number(Number::U(word))));
                        }
                        Value::Object(fields)
                    })
                    .collect();
                Value::Object(vec![
                    ("thread".to_string(), Value::String(ring.name().to_string())),
                    (
                        "recorded".to_string(),
                        Value::Number(Number::U(ring.recorded())),
                    ),
                    (
                        "dropped".to_string(),
                        Value::Number(Number::U(ring.dropped())),
                    ),
                    ("events".to_string(), Value::Array(events)),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "capacity".to_string(),
                Value::Number(Number::U(self.inner.cap as u64)),
            ),
            ("rings".to_string(), Value::Array(ring_values)),
        ])
    }

    /// Pretty-printed JSON dump.
    pub fn to_json(&self) -> String {
        serde::json::write(&self.to_json_value(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back_in_order() {
        let rec = FlightRecorder::new(8);
        let ring = rec.ring("sw-shard-0");
        ring.record_at(10, FlightKind::IngestDrop, [0, 64, 0]);
        ring.record_at(20, FlightKind::ModeSwitch, [1, 1, 0]);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[0].kind, FlightKind::IngestDrop);
        assert_eq!(evs[0].b, 64);
        assert_eq!(evs[1].ts_ns, 20);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wrap_drops_oldest_and_counts() {
        let rec = FlightRecorder::new(4);
        let ring = rec.ring("r");
        for i in 0..10u64 {
            ring.record_at(i, FlightKind::ShedDrop, [i, 0, 0]);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].seq, 6, "oldest resident is seq 6");
        assert_eq!(evs[3].seq, 9);
    }

    #[test]
    fn json_dump_is_deterministic_and_self_describing() {
        let build = || {
            let rec = FlightRecorder::new(8);
            let a = rec.ring("sw-rxq-0");
            let b = rec.ring("sw-control");
            a.record_at(5, FlightKind::IngestDrop, [1, 32, 0]);
            b.record_at(9, FlightKind::ShedOn, [3, 17, 0]);
            b.record_at(12, FlightKind::ModeSwitch, [0, 1, 7]);
            rec.to_json()
        };
        let j = build();
        assert_eq!(j, build(), "fixed timestamps render byte-identically");
        assert!(j.contains("\"thread\": \"sw-rxq-0\""));
        assert!(j.contains("\"kind\": \"ingest_drop\""));
        assert!(j.contains("\"shard\": 1"));
        assert!(j.contains("\"count\": 32"));
        assert!(j.contains("\"backlog\": 17"));
        assert!(j.contains("\"mode\": 1"));
        assert!(j.contains("\"epoch\": 7"), "a mode switch names its epoch");
        assert_eq!(
            j.matches("\"epoch\"").count(),
            2,
            "shed_on's and the switch's"
        );
    }

    #[test]
    fn concurrent_reader_sees_only_committed_events() {
        let rec = FlightRecorder::new(64);
        let ring = rec.ring("w");
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    ring.record_at(i, FlightKind::EscalationDrop, [i, i ^ 0xFF, !i]);
                }
            })
        };
        let mut checked = 0u64;
        while !writer.is_finished() {
            for ev in ring.snapshot() {
                assert_eq!(ev.ts_ns, ev.a, "torn read: ts/a mismatch");
                assert_eq!(ev.b, ev.a ^ 0xFF, "torn read: a/b mismatch");
                assert_eq!(ev.c, !ev.a, "torn read: a/c mismatch");
                checked += 1;
            }
        }
        writer.join().unwrap();
        assert_eq!(ring.recorded(), 50_000);
        let _ = checked;
    }

    #[test]
    fn reopening_a_name_returns_the_same_bounded_ring() {
        let rec = FlightRecorder::new(8);
        let a = rec.ring("sw-shard-0");
        a.record_at(1, FlightKind::RunEnd, [1, 100, 0]);
        // A second "segment" reopens the ring by name: same storage,
        // events append, and the recorder still lists one ring.
        let b = rec.ring("sw-shard-0");
        b.record_at(2, FlightKind::RunEnd, [1, 200, 0]);
        assert_eq!(rec.snapshot().len(), 1);
        assert_eq!(a.recorded(), 2);
        let evs = a.snapshot();
        assert_eq!(evs[0].b, 100);
        assert_eq!(evs[1].b, 200);
        assert_eq!(
            rec.ring("other").recorded(),
            0,
            "new names still open fresh rings"
        );
        assert_eq!(rec.snapshot().len(), 2);
    }

    #[test]
    fn wallclock_record_stamps_monotonically() {
        let rec = FlightRecorder::new(8);
        let ring = rec.ring("t");
        ring.record(FlightKind::RunEnd, 1, 0);
        ring.record(FlightKind::RunEnd, 1, 0);
        let evs = ring.snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].ts_ns <= evs[1].ts_ns);
    }
}
