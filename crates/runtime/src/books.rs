//! The books: where every offered packet's trip ended, kept once.
//!
//! SmartWatch is a *prevention* system, so packets legitimately stop at
//! the steering stage, at a full host-bound ring and on sNIC verdicts;
//! "which way did this packet's trip end" is a [`Disposition`], and
//! every site that ends a trip records one. The tallies themselves —
//! the fates plus the hand-off counts between stages and a few
//! non-fate events — are a [`Count`] each, named once in the name
//! table, and a [`Ledger`] is one array indexed by it. The same type is
//! the plain-integer tally a hot loop keeps between flushes, the set of
//! registry counters behind `/metrics` (`Ledger<Counter>`), the frozen
//! snapshot, the per-run delta (its `Sub`), and what a `/stats.json`
//! row and a `deterministic_summary` line are rendered from — so a name
//! is spelled once, and a new fate is one variant here plus one
//! recording site: every `match` over [`Disposition`] is exhaustive,
//! and clippy keeps it so.

// The second lint is the first one's blind spot: a `_` that stands for
// exactly one variant today.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use smartwatch_telemetry::{Counter, FlightKind, FlightRing, Registry};
use std::ops::{Index, IndexMut, Sub};

/// The two axes the books are kept on: per ingest unit (the pipeline's
/// one dispatcher, or a fused RTC core) and per shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `runtime.queue.*{queue=Q}` and the `queues` rows of `/stats.json`.
    Queue,
    /// `runtime.shard.*{shard=N}` and the `shards` rows of `/stats.json`.
    Shard,
}

impl Axis {
    /// `queue` / `shard`: the metric family (`runtime.{label}.*`), the
    /// metric's label key and the index key of a `/stats.json` row.
    pub fn label(self) -> &'static str {
        match self {
            Axis::Queue => "queue",
            Axis::Shard => "shard",
        }
    }

    /// Whether this axis keeps `c`: an ingest unit keeps what it was
    /// offered and where that went, a shard everything that happened to
    /// the packets bound for it.
    pub fn keeps(self, c: Count) -> bool {
        let (_, _, queue, shard) = TABLE[c as usize];
        match self {
            Axis::Queue => queue,
            Axis::Shard => shard,
        }
    }

    /// The counts this axis keeps, in table order.
    pub fn counts(self) -> impl Iterator<Item = Count> {
        let all = TABLE.iter().map(|row| row.0);
        all.filter(move |&c| self.keeps(c))
    }

    /// The counts of this axis's `/stats.json` rows — the shard row is
    /// also the `deterministic_summary` line: what the axis keeps,
    /// minus the wall-clock dependent `idle_parks`.
    pub fn row(self) -> impl Iterator<Item = Count> {
        self.counts().filter(|&c| c != Count::IdleParks)
    }
}

/// The six ways an offered packet's trip ends. Exactly one per packet:
/// the conservation law is Σ dispositions = offered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Dropped at a full lane by a paced (open-loop) dispatcher.
    IngestDrop,
    /// Turned away at ingest under controller load shedding.
    Shed,
    /// Dropped at ingest on the published steering blacklist.
    SteerDrop,
    /// Dropped on the shard by an applied blacklist verdict.
    VerdictDrop,
    /// Whitelisted: FlowCache update only, detectors skipped.
    FastPath,
    /// Ran the whole shard pipeline.
    Inspected,
}

impl Disposition {
    /// Every fate: the three that end a trip at the ingest unit — which
    /// enters them in its own books *and* in those of the shard the
    /// packet was bound for — then the three that end it on the shard.
    pub const ALL: [Disposition; 6] = [
        Disposition::IngestDrop,
        Disposition::Shed,
        Disposition::SteerDrop,
        Disposition::VerdictDrop,
        Disposition::FastPath,
        Disposition::Inspected,
    ];

    /// The columns a packet ending this way is entered under: the
    /// fate's own first, then — for a trip that ends on a shard —
    /// `processed`, the shard's hand-off count. `Inspected` is what is
    /// left of `processed` once the two named shard fates are taken
    /// out, so it has no column (and no metric) of its own.
    fn columns(self) -> &'static [Count] {
        match self {
            Disposition::IngestDrop => &[Count::IngestDropped],
            Disposition::Shed => &[Count::Shed],
            Disposition::SteerDrop => &[Count::SteerDropped],
            Disposition::VerdictDrop => &[Count::VerdictDropped, Count::Processed],
            Disposition::FastPath => &[Count::FastPath, Count::Processed],
            Disposition::Inspected => &[Count::Processed],
        }
    }

    /// The black-box record of packets lost this way; `None` for the
    /// two fates that are not losses.
    pub fn flight_kind(self) -> Option<FlightKind> {
        match self {
            Disposition::IngestDrop => Some(FlightKind::IngestDrop),
            Disposition::Shed => Some(FlightKind::ShedDrop),
            Disposition::SteerDrop => Some(FlightKind::SteerDrop),
            Disposition::VerdictDrop => Some(FlightKind::VerdictDrop),
            Disposition::FastPath | Disposition::Inspected => None,
        }
    }

    /// Black-box `(a, b)` under this fate's flight kind.
    pub(crate) fn note(self, flight: &FlightRing, a: u64, b: u64) {
        if let Some(kind) = self.flight_kind() {
            flight.record(kind, a, b);
        }
    }
}

/// Every tally the engine keeps per ingest unit or per shard, in the
/// order `/stats.json` and `deterministic_summary` print them: the
/// fates' columns, the hand-off counts between stages (`offered` →
/// `ingested` → `processed`) and the non-fate events. A [`Ledger`] is
/// indexed by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Packets of the offered trace assigned to an ingest unit.
    Offered,
    /// Packets handed on to a shard (enqueued on a lane, or run in
    /// place by a fused core).
    Ingested,
    /// [`Disposition::IngestDrop`].
    IngestDropped,
    /// [`Disposition::Shed`].
    Shed,
    /// [`Disposition::SteerDrop`].
    SteerDropped,
    /// Packets a shard finished with, whichever way.
    Processed,
    /// [`Disposition::VerdictDrop`].
    VerdictDropped,
    /// [`Disposition::FastPath`].
    FastPath,
    /// Packets escalated toward the host tier.
    Escalated,
    /// Escalations lost to a full host ring (accounted, never silent).
    EscalationDropped,
    /// Control-log verdicts applied: the shard's own flows' (and, on
    /// shard 0, those with no flow), so the shards sum to the log.
    CtrlApplied,
    /// Detector alerts raised.
    Alerts,
    /// Idle-loop park transitions (the backoff's deepest stage).
    IdleParks,
}

/// One row per [`Count`], in its order: the one spelling of its name —
/// the metric is `runtime.{axis}.{name}`, the `/stats.json` key and the
/// summary label are `{name}` — and whether the queue and the shard
/// axis keep it.
const TABLE: [(Count, &str, bool, bool); 13] = [
    (Count::Offered, "offered", true, false),
    (Count::Ingested, "ingested", true, true),
    (Count::IngestDropped, "ingest_dropped", true, true),
    (Count::Shed, "shed", true, true),
    (Count::SteerDropped, "steer_dropped", true, true),
    (Count::Processed, "processed", false, true),
    (Count::VerdictDropped, "verdict_dropped", false, true),
    (Count::FastPath, "fast_path", false, true),
    (Count::Escalated, "escalated", false, true),
    (Count::EscalationDropped, "escalation_dropped", false, true),
    (Count::CtrlApplied, "ctrl_applied", false, true),
    (Count::Alerts, "alerts", false, true),
    (Count::IdleParks, "idle_parks", false, true),
];

// A ledger is indexed by discriminant: the table must be in enum order.
const _: () = {
    let mut i = 0;
    while i < TABLE.len() {
        assert!(TABLE[i].0 as usize == i, "name table out of order");
        i += 1;
    }
};

impl Count {
    /// The count's name (see the table).
    pub fn name(self) -> &'static str {
        TABLE[self as usize].1
    }
}

/// One set of books: a value per [`Count`]. Plain integers by default
/// (a tally, a snapshot, a delta); `Ledger<Counter>` is the live set of
/// registry counters those fold into. A count the ledger's axis does
/// not keep stays zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger<T = u64>([T; TABLE.len()]);

impl<T> Index<Count> for Ledger<T> {
    type Output = T;

    #[inline]
    fn index(&self, c: Count) -> &T {
        &self.0[c as usize]
    }
}

impl IndexMut<Count> for Ledger {
    #[inline]
    fn index_mut(&mut self, c: Count) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

/// The per-run view of cumulative counters: now minus the baseline.
impl Sub for Ledger {
    type Output = Ledger;

    fn sub(self, base: Ledger) -> Ledger {
        Ledger(std::array::from_fn(|i| self.0[i] - base.0[i]))
    }
}

impl Ledger {
    /// End `n` packets' trips as `d`.
    #[inline]
    pub fn record(&mut self, d: Disposition, n: u64) {
        for &c in d.columns() {
            self[c] += n;
        }
    }

    /// Packets whose trip ended as `d`.
    pub fn fate(&self, d: Disposition) -> u64 {
        match d {
            // Saturating: a live reader can catch the three counters
            // mid-flush.
            Disposition::Inspected => self[Count::Processed]
                .saturating_sub(self[Count::VerdictDropped] + self[Count::FastPath]),
            Disposition::IngestDrop
            | Disposition::Shed
            | Disposition::SteerDrop
            | Disposition::VerdictDrop
            | Disposition::FastPath => self[d.columns()[0]],
        }
    }

    /// Σ dispositions: every packet these books saw the end of.
    pub fn accounted(&self) -> u64 {
        Disposition::ALL.into_iter().map(|d| self.fate(d)).sum()
    }

    /// Packets that arrived for these books' owner: Σ dispositions,
    /// counting what was handed on to the shard (`ingested`) where the
    /// law counts what the shard finished (`processed`). An ingest
    /// unit's `offered`, and a shard's share of it — mid-run too, while
    /// lanes hold packets no fate has claimed yet.
    pub fn arrived(&self) -> u64 {
        self.accounted() - self[Count::Processed] + self[Count::Ingested]
    }
}

impl Ledger<Counter> {
    /// The `runtime.{axis}.*{axis=idx}` counters: one per count the
    /// axis keeps (the rest share one detached cell nobody writes).
    pub(crate) fn registered(reg: &Registry, axis: Axis, idx: usize) -> Ledger<Counter> {
        let idx = idx.to_string();
        let labels: &[(&str, &str)] = &[(axis.label(), &idx)];
        let unkept = Counter::detached();
        // One buffer for every name: this runs once per segment, and a
        // steady segment is held to a fixed allocator budget.
        let mut metric = String::with_capacity(48);
        Ledger(std::array::from_fn(|i| {
            let (c, name, ..) = TABLE[i];
            if !axis.keeps(c) {
                return unkept.clone();
            }
            metric.clear();
            metric.extend(["runtime.", axis.label(), ".", name]);
            reg.counter(&metric, labels)
        }))
    }

    /// Freeze the counters into plain values.
    pub(crate) fn snapshot(&self) -> Ledger {
        Ledger(std::array::from_fn(|i| self.0[i].get()))
    }

    /// Fold a plain-integer tally into the shared atomics and zero it —
    /// the only place a hot loop touches contended cache lines.
    pub(crate) fn fold(&self, local: &mut Ledger) {
        for (live, n) in self.0.iter().zip(local.0) {
            if n > 0 {
                live.add(n);
            }
        }
        *local = Ledger::default();
    }
}

/// End `n` packets' trips as `d` at ingest: entered in the books of the
/// shard they were bound for and in the ingest unit's own tally, so
/// conservation includes them on both axes.
#[inline]
pub(crate) fn end_at_ingest(d: Disposition, n: u64, shard: &Ledger<Counter>, unit: &mut Ledger) {
    for &c in d.columns() {
        shard[c].add(n);
    }
    unit.record(d, n);
}
