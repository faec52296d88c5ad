//! The epoch-driven control brain.
//!
//! [`Controller`] is a *pure* state machine: the runtime feeds it one
//! [`EpochInput`] per epoch (cumulative shard counters, host verdicts,
//! heavy-hitter candidates) and it returns one [`EpochDecision`]: the
//! epoch's [`DecisionRecord`] (per-shard Algorithm 4 mode, the shed
//! flag, what was seen) and a fresh [`SteeringSnapshot`] when the
//! steering tables changed. It owns no threads and reads no clocks, so
//! identical input streams produce byte-identical decisions — the
//! property the `control-sim` determinism experiment pins down.
//!
//! Per epoch the controller:
//!
//! 1. Derives each shard's arrival rate from the cumulative counter
//!    deltas and runs it through the paper's Algorithm 4 EWMA
//!    ([`smartwatch_snic::SwitchOver`], α = 0.75 with η₂ < η₁
//!    hysteresis) to pick General or Lite per shard.
//! 2. Applies host verdicts to the steering tables: `Whitelist` inserts
//!    into the aging whitelist, `Blacklist` inserts into the aging
//!    blacklist *and* revokes any whitelist entry (blacklist wins).
//! 3. Promotes sustained heavy hitters: a digest whose reported packets
//!    clear `promote_pkts_per_epoch` for `PROMOTE_EPOCHS` (2) consecutive
//!    epochs joins the whitelist (the paper's benign-elephant
//!    "hoverboard" steering rule).
//! 4. Ages both tables (TTL sweep + capacity bound via
//!    [`smartwatch_net::AgingDigestSet`]).
//!
//! Overload has one automatic answer, the paper's: Algorithm 4's flip
//! to Lite. Load shedding — every shard forced to Lite and the
//! dispatcher passing whitelisted flows only — is the operator's pin
//! ([`AdminCmd::ForceShed`]) and nothing else turns it on.
//!
//! The operator's standing overrides ([`Controller::admin`]) live here
//! too, beside the state they override, so every decision, gauge, event
//! and report says what the data path runs. Precedence per shard:
//! operator's mode pin > shedding (Lite) > Algorithm 4.
//!
//! The bounded ring of [`DecisionRecord`]s is the one account of the
//! epochs: a transition ([`ControlEvent`]) is what changed between two
//! consecutive records, and the timeline is those changes
//! ([`ControlReport::timeline`]).
//!
//! A controller outlives the traffic it steers: between two segments of
//! one engine [`Controller::new_segment`] empties what was learned from
//! the last segment's flows and keeps everything else.

use crate::admin::AdminCmd;
use crate::snapshot::SteeringSnapshot;
use serde::{Serialize, Value};
use smartwatch_host::Verdict;
use smartwatch_net::{AgingDigestSet, BuildDigestHasher, DigestSet, FlowHasher};
use smartwatch_snic::{Mode, SwitchOver};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuning knobs for the control loop. The defaults target the software
/// engine (per-shard Mpps, not the paper's 30 Mpps hardware ceiling) —
/// construct, then override fields as needed. Each field is a row of
/// DESIGN.md's knob ledger, which names the test that needs it; the
/// bounds no caller tuned are the constants below.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Wall-clock epoch period in milliseconds (used by the runtime's
    /// controller thread; the state machine itself is time-free).
    pub epoch_ms: u64,
    /// Per-shard rate above which Algorithm 4 flips to Lite, in Mpps.
    pub eta_lite_mpps: f64,
    /// Per-shard rate below which Algorithm 4 returns to General, in
    /// Mpps. Must be `< eta_lite_mpps` (hysteresis).
    pub eta_general_mpps: f64,
    /// Per-epoch packets a digest's reports must sum to, to count
    /// towards heavy-hitter promotion.
    pub promote_pkts_per_epoch: u64,
}

impl Default for ControlConfig {
    fn default() -> ControlConfig {
        ControlConfig {
            epoch_ms: 5,
            eta_lite_mpps: 2.5,
            eta_general_mpps: 1.8,
            promote_pkts_per_epoch: 2000,
        }
    }
}

/// Consecutive qualifying epochs before a heavy hitter is promoted into
/// the whitelist.
const PROMOTE_EPOCHS: u32 = 2;
/// Whitelist entries untouched for this many epochs expire.
const WHITELIST_TTL_EPOCHS: u64 = 200;
/// Blacklist entries untouched for this many epochs expire.
const BLACKLIST_TTL_EPOCHS: u64 = 1000;
/// Hard capacity bound on either steering table (stalest evicted
/// beyond).
const TABLE_CAPACITY: usize = 65_536;
/// Bound on the retained decision audit (oldest records dropped
/// beyond).
const DECISION_CAPACITY: usize = 512;

/// One shard's telemetry as sampled at an epoch boundary. `offered`,
/// `processed` and `shed` are *cumulative* counters (the controller
/// takes deltas); `escalation_backlog` is instantaneous.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSample {
    /// Packets the dispatcher has offered this shard so far.
    pub offered: u64,
    /// Packets the shard has ingested and processed so far.
    pub processed: u64,
    /// Packets shed at dispatch for this shard so far.
    pub shed: u64,
    /// Current occupancy of the shard's escalation path (queued packets
    /// awaiting host triage).
    pub escalation_backlog: u64,
}

/// Everything the controller consumes for one epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochInput {
    /// Wall-clock (or virtual) seconds since the previous epoch.
    pub elapsed_secs: f64,
    /// One sample per shard, indexed by shard id.
    pub shards: Vec<ShardSample>,
    /// Host verdicts published since the previous epoch.
    pub verdicts: Vec<Verdict>,
    /// Heavy-hitter reports sent by shards since the previous epoch:
    /// `(flow digest, packets)`. May repeat a digest; the controller
    /// sums.
    pub heavy: Vec<(u64, u64)>,
}

/// The controller's output for one epoch.
#[derive(Clone, Debug)]
pub struct EpochDecision {
    /// What this epoch saw and decided — the record the controller's
    /// ring now ends with.
    pub record: DecisionRecord,
    /// Freshly built steering snapshot, present only when the steering
    /// state (tables or shed flag) changed this epoch.
    pub snapshot: Option<Arc<SteeringSnapshot>>,
}

/// One epoch's decision audit: what the controller saw and what it did.
/// The controller keeps the newest of them in one bounded ring
/// ([`Controller::decisions`]), which `/stats.json`, the flight ring's
/// transitions and `BENCH_control.json` all read — the answer to "why
/// did the control plane do *that*?".
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Epoch number (1-based; increments per [`Controller::epoch`]).
    pub epoch: u64,
    /// Aggregate offered rate observed this epoch, Mpps.
    pub offered_mpps: f64,
    /// Per-shard Algorithm 4 EWMA-smoothed rate, Mpps.
    pub smoothed_mpps: Vec<f64>,
    /// Largest instantaneous escalation backlog across shards.
    pub max_backlog: u64,
    /// The mode each shard runs: the operator's pin, else Lite while
    /// shedding, else Algorithm 4's decision.
    pub modes: Vec<Mode>,
    /// Whether the operator's shed pin stood this epoch.
    pub shed: bool,
    /// Heavy hitters promoted into the whitelist this epoch.
    pub promotions: u64,
    /// Whitelist entries expired by TTL this epoch.
    pub whitelist_evictions: u64,
    /// Whitelist size after this epoch.
    pub whitelist_len: usize,
    /// Blacklist size after this epoch.
    pub blacklist_len: usize,
    /// Whether a steering snapshot was published this epoch.
    pub snapshot_published: bool,
}

/// A record serialises as its fields, in declaration order.
impl Serialize for DecisionRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("epoch".into(), self.epoch.to_value()),
            ("offered_mpps".into(), self.offered_mpps.to_value()),
            ("smoothed_mpps".into(), self.smoothed_mpps.to_value()),
            ("max_backlog".into(), self.max_backlog.to_value()),
            ("modes".into(), self.modes.to_value()),
            ("shed".into(), self.shed.to_value()),
            ("promotions".into(), self.promotions.to_value()),
            (
                "whitelist_evictions".into(),
                self.whitelist_evictions.to_value(),
            ),
            ("whitelist_len".into(), self.whitelist_len.to_value()),
            ("blacklist_len".into(), self.blacklist_len.to_value()),
            (
                "snapshot_published".into(),
                self.snapshot_published.to_value(),
            ),
        ])
    }
}

/// A notable control-plane transition: what changed between two
/// consecutive [`DecisionRecord`]s ([`ControlEvent::between`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ControlEvent {
    /// One shard's decided mode changed.
    ModeSwitch {
        /// Epoch of the transition.
        epoch: u64,
        /// Shard that switched.
        shard: usize,
        /// The mode it switched to.
        mode: Mode,
    },
    /// Load shedding engaged.
    ShedOn {
        /// Epoch shedding engaged.
        epoch: u64,
    },
    /// Load shedding released.
    ShedOff {
        /// Epoch shedding released.
        epoch: u64,
    },
}

impl ControlEvent {
    /// The transitions from `before` to `after`, the record of the
    /// epoch that follows it: the shed edge first, then each shard whose
    /// mode changed, in ascending order. `None` is the state
    /// [`Controller::new`] starts in — every shard General, no shed.
    pub fn between<'a>(
        before: Option<&'a DecisionRecord>,
        after: &'a DecisionRecord,
    ) -> impl Iterator<Item = ControlEvent> + 'a {
        let epoch = after.epoch;
        let shed = (after.shed != before.is_some_and(|b| b.shed)).then_some(if after.shed {
            ControlEvent::ShedOn { epoch }
        } else {
            ControlEvent::ShedOff { epoch }
        });
        let was = move |shard: usize| {
            before
                .and_then(|b| b.modes.get(shard).copied())
                .unwrap_or(Mode::General)
        };
        let switches = after
            .modes
            .iter()
            .enumerate()
            .filter(move |&(shard, &mode)| mode != was(shard))
            .map(move |(shard, &mode)| ControlEvent::ModeSwitch { epoch, shard, mode });
        shed.into_iter().chain(switches)
    }

    /// Compact human-readable rendering (`e12 shard3->lite`).
    pub fn render(&self) -> String {
        match self {
            ControlEvent::ModeSwitch { epoch, shard, mode } => {
                format!("e{epoch} shard{shard}->{}", mode.label())
            }
            ControlEvent::ShedOn { epoch } => format!("e{epoch} shed-on"),
            ControlEvent::ShedOff { epoch } => format!("e{epoch} shed-off"),
        }
    }

    /// The epoch the event occurred in.
    pub(crate) fn epoch(&self) -> u64 {
        match self {
            ControlEvent::ModeSwitch { epoch, .. }
            | ControlEvent::ShedOn { epoch }
            | ControlEvent::ShedOff { epoch } => *epoch,
        }
    }
}

/// An event serialises as the epoch it happened in plus its rendering.
impl Serialize for ControlEvent {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("epoch".into(), self.epoch().to_value()),
            ("event".into(), self.render().to_value()),
        ])
    }
}

/// The control plane's accounting since the controller was built — for
/// a controller resident in an engine, over every segment so far. Field
/// order is the key order of the `control` object in
/// `BENCH_control.json`.
#[derive(Clone, Debug, Default)]
pub struct ControlReport {
    /// Epochs executed.
    pub epochs: u64,
    /// Decided per-shard mode transitions.
    pub mode_switches: u64,
    /// Heavy hitters promoted into the whitelist.
    pub whitelist_promotions: u64,
    /// Whitelist entries expired by TTL.
    pub whitelist_expired: u64,
    /// Blacklist entries expired by TTL.
    pub blacklist_expired: u64,
    /// Epochs spent with shedding active.
    pub shed_epochs: u64,
    /// Packets shed at dispatch (summed from shard counters).
    pub shed_packets: u64,
    /// Steering snapshots published.
    pub snapshot_publishes: u64,
    /// Whether shedding was active at the end.
    pub shed_active: bool,
    /// Final decided mode per shard.
    pub final_modes: Vec<Mode>,
    /// Bounded per-epoch decision audit (oldest dropped past the bound).
    pub decisions: Vec<DecisionRecord>,
    /// Decision records dropped because of the bound.
    pub decisions_dropped: u64,
}

/// The `control` object of `BENCH_control.json`: the fields, in
/// declaration order, with the [`ControlReport::timeline`] read from
/// the decisions ahead of them.
impl Serialize for ControlReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("epochs".into(), self.epochs.to_value()),
            ("mode_switches".into(), self.mode_switches.to_value()),
            (
                "whitelist_promotions".into(),
                self.whitelist_promotions.to_value(),
            ),
            (
                "whitelist_expired".into(),
                self.whitelist_expired.to_value(),
            ),
            (
                "blacklist_expired".into(),
                self.blacklist_expired.to_value(),
            ),
            ("shed_epochs".into(), self.shed_epochs.to_value()),
            ("shed_packets".into(), self.shed_packets.to_value()),
            (
                "snapshot_publishes".into(),
                self.snapshot_publishes.to_value(),
            ),
            ("shed_active".into(), self.shed_active.to_value()),
            ("final_modes".into(), self.final_modes.to_value()),
            ("timeline".into(), self.timeline().to_value()),
            ("decisions".into(), self.decisions.to_value()),
            (
                "decisions_dropped".into(),
                self.decisions_dropped.to_value(),
            ),
        ])
    }
}

impl ControlReport {
    /// The transitions between consecutive retained records
    /// ([`ControlEvent::between`]), oldest first: the whole run's while
    /// the ring holds it, else from the first retained record on, which
    /// is then the baseline.
    pub fn timeline(&self) -> Vec<ControlEvent> {
        let first = usize::from(self.decisions_dropped > 0);
        (first..self.decisions.len())
            .flat_map(|i| {
                let before = i.checked_sub(1).map(|b| &self.decisions[b]);
                ControlEvent::between(before, &self.decisions[i])
            })
            .collect()
    }

    /// Counters-only summary: every line is an integer or a mode label,
    /// so two identical seeded drives render byte-identical strings.
    /// (Deliberately excludes floats and the timeline tail.)
    pub(crate) fn summary(&self) -> String {
        let modes: Vec<&str> = self.final_modes.iter().map(|m| m.label()).collect();
        format!(
            "control-summary v1\nepochs={}\nmode_switches={}\nwhitelist_promotions={}\n\
             whitelist_expired={}\nblacklist_expired={}\nshed_epochs={}\nshed_packets={}\n\
             snapshot_publishes={}\nshed_active={}\nfinal_modes={}\n",
            self.epochs,
            self.mode_switches,
            self.whitelist_promotions,
            self.whitelist_expired,
            self.blacklist_expired,
            self.shed_epochs,
            self.shed_packets,
            self.snapshot_publishes,
            self.shed_active,
            modes.join(",")
        )
    }
}

/// Reads one metric's value out of the controller.
type Reading<T> = fn(&Controller) -> T;

/// Reads one gauge out of a shard's `(smoothed Mpps, decided mode)`.
type ShardReading = fn(&(f64, Mode)) -> f64;

/// The controller's counter families: each `control.*` counter and the
/// count it carries, for its owner's publisher.
pub const COUNTERS: [(&str, Reading<u64>); 7] = [
    ("control.epochs", |c| c.epoch),
    ("control.mode_switches", |c| c.mode_switches),
    ("control.whitelist_promotions", |c| c.whitelist_promotions),
    ("control.shed_packets", |c| c.shed_packets),
    ("control.whitelist_expired", |c| c.whitelist_expired),
    ("control.blacklist_expired", |c| c.blacklist_expired),
    ("control.snapshot_publishes", |c| c.snapshot_publishes),
];

/// The controller's gauge: 1 while shedding, else 0.
pub const GAUGES: [(&str, Reading<f64>); 1] =
    [("control.shed_active", |c| f64::from(u8::from(c.shed)))];

/// One shard's gauges (labelled `shard=N`), over that shard's
/// `(smoothed Mpps, decided mode)` as a [`DecisionRecord`] lists them.
pub const SHARD_GAUGES: [(&str, ShardReading); 2] = [
    ("control.smoothed_mpps", |&(mpps, _)| mpps),
    ("control.mode", |&(_, mode)| f64::from(mode.code())),
];

/// Per-shard EWMA state plus the counters the controller diffs against.
struct ShardState {
    switcher: SwitchOver,
    decided: Mode,
    /// Admin override: `Some(m)` pins the shard to `m` whatever
    /// Algorithm 4 and the shed pin say, until released.
    forced: Option<Mode>,
    prev_offered: u64,
    prev_shed: u64,
}

/// The control-plane state machine (see module docs).
pub struct Controller {
    cfg: ControlConfig,
    hasher: FlowHasher,
    epoch: u64,
    mode_switches: u64,
    whitelist_promotions: u64,
    whitelist_expired: u64,
    blacklist_expired: u64,
    shed_packets: u64,
    snapshot_publishes: u64,
    shards: Vec<ShardState>,
    whitelist: AgingDigestSet,
    blacklist: AgingDigestSet,
    /// digest -> (last qualifying epoch, consecutive-epoch streak).
    streaks: HashMap<u64, (u64, u32), BuildDigestHasher>,
    /// The operator's shed pin: set and cleared only by
    /// [`AdminCmd::ForceShed`].
    shed: bool,
    shed_epochs: u64,
    snapshot_version: u64,
    dirty: bool,
    decisions: VecDeque<DecisionRecord>,
    decisions_dropped: u64,
}

impl Controller {
    /// A controller that has run no epoch, digesting verdict keys under
    /// the engine's default flow-hash seed `0x51CC`.
    ///
    /// # Panics
    /// As [`Controller::with_seed`].
    pub fn new(cfg: ControlConfig) -> Controller {
        Controller::with_seed(cfg, 0x51CC)
    }

    /// A controller that has run no epoch, digesting verdict keys under
    /// `hash_seed` — the seed of the engine it steers, so its verdict
    /// digests line up with the engine's dispatch digests.
    ///
    /// # Panics
    /// Panics unless `eta_general_mpps < eta_lite_mpps` (Algorithm 4's
    /// hysteresis needs a band).
    pub fn with_seed(cfg: ControlConfig, hash_seed: u64) -> Controller {
        assert!(
            cfg.eta_general_mpps < cfg.eta_lite_mpps,
            "need eta_general_mpps < eta_lite_mpps for hysteresis"
        );
        Controller {
            hasher: FlowHasher::new(hash_seed),
            whitelist: AgingDigestSet::new(TABLE_CAPACITY, WHITELIST_TTL_EPOCHS),
            blacklist: AgingDigestSet::new(TABLE_CAPACITY, BLACKLIST_TTL_EPOCHS),
            cfg,
            epoch: 0,
            mode_switches: 0,
            whitelist_promotions: 0,
            whitelist_expired: 0,
            blacklist_expired: 0,
            shed_packets: 0,
            snapshot_publishes: 0,
            shards: Vec::new(),
            streaks: HashMap::default(),
            shed: false,
            shed_epochs: 0,
            snapshot_version: 0,
            dirty: false,
            decisions: VecDeque::new(),
            decisions_dropped: 0,
        }
    }

    /// Size the per-shard state now instead of at the first epoch, so
    /// an [`AdminCmd::ForceMode`] applied before any epoch has a shard
    /// to land on.
    pub fn for_shards(mut self, shards: usize) -> Controller {
        self.ensure_shards(shards);
        self
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    fn ensure_shards(&mut self, n: usize) {
        while self.shards.len() < n {
            self.shards.push(ShardState {
                switcher: SwitchOver::new(
                    self.cfg.eta_lite_mpps * 1e6,
                    self.cfg.eta_general_mpps * 1e6,
                ),
                decided: Mode::General,
                forced: None,
                prev_offered: 0,
                prev_shed: 0,
            });
        }
    }

    fn apply_verdicts(&mut self, verdicts: &[Verdict]) {
        for v in verdicts {
            match v {
                Verdict::Whitelist(key) => {
                    let (_, digest) = self.hasher.digest_symmetric(key);
                    if !self.blacklist.contains(&digest.0)
                        && self.whitelist.insert(digest.0, self.epoch)
                    {
                        self.dirty = true;
                    }
                }
                Verdict::Blacklist(key) => {
                    let (_, digest) = self.hasher.digest_symmetric(key);
                    if self.blacklist.insert(digest.0, self.epoch) {
                        self.dirty = true;
                    }
                    // Blacklist wins: revoke any standing whitelist entry
                    // so a flow can't stay on the fast path after the
                    // host flagged it.
                    if self.whitelist.remove(&digest.0) {
                        self.dirty = true;
                    }
                }
                Verdict::Alert(_) | Verdict::Drop => {}
            }
        }
    }

    fn promote_heavy(&mut self, heavy: &[(u64, u64)]) {
        if heavy.is_empty() {
            // Streak pruning still has to run so stale entries don't
            // resurrect later.
            self.prune_streaks();
            return;
        }
        // Sum per digest (shards report independently).
        let mut totals: HashMap<u64, u64, BuildDigestHasher> = HashMap::default();
        for &(digest, est) in heavy {
            *totals.entry(digest).or_insert(0) += est;
        }
        // Deterministic iteration: sort by digest. Promotion order only
        // affects capacity-eviction tie-breaks, but determinism is a
        // contract of this type.
        let mut qualifying: Vec<(u64, u64)> = totals
            .into_iter()
            .filter(|&(_, est)| est >= self.cfg.promote_pkts_per_epoch)
            .collect();
        qualifying.sort_unstable();
        for (digest, _) in qualifying {
            let streak = match self.streaks.get(&digest) {
                Some(&(last, s)) if last + 1 == self.epoch => s + 1,
                _ => 1,
            };
            self.streaks.insert(digest, (self.epoch, streak));
            if streak >= PROMOTE_EPOCHS
                && !self.blacklist.contains(&digest)
                && self.whitelist.insert(digest, self.epoch)
            {
                self.whitelist_promotions += 1;
                self.dirty = true;
            }
        }
        self.prune_streaks();
    }

    fn prune_streaks(&mut self) {
        let epoch = self.epoch;
        self.streaks.retain(|_, &mut (last, _)| last + 1 >= epoch);
    }

    fn age_tables(&mut self) {
        let wl = self.whitelist.sweep(self.epoch);
        let bl = self.blacklist.sweep(self.epoch);
        if wl > 0 {
            self.whitelist_expired += wl;
            self.dirty = true;
        }
        if bl > 0 {
            self.blacklist_expired += bl;
            self.dirty = true;
        }
    }

    fn build_snapshot(&mut self) -> Arc<SteeringSnapshot> {
        self.snapshot_version += 1;
        self.snapshot_publishes += 1;
        let mut whitelist = DigestSet::default();
        whitelist.extend(self.whitelist.iter().copied());
        let mut blacklist = DigestSet::default();
        blacklist.extend(self.blacklist.iter().copied());
        Arc::new(SteeringSnapshot {
            version: self.snapshot_version,
            shed: self.shed,
            whitelist,
            blacklist,
        })
    }

    /// Run one epoch (see module docs for the four stages).
    pub fn epoch(&mut self, input: &EpochInput) -> EpochDecision {
        self.epoch += 1;
        self.ensure_shards(input.shards.len());

        let elapsed = input.elapsed_secs.max(1e-9);
        let mut offered_delta_total = 0u64;
        let mut shed_delta_total = 0u64;
        let mut max_backlog = 0u64;
        for (state, sample) in self.shards.iter_mut().zip(&input.shards) {
            let offered_delta = sample.offered.saturating_sub(state.prev_offered);
            state.prev_offered = sample.offered;
            let shed_delta = sample.shed.saturating_sub(state.prev_shed);
            state.prev_shed = sample.shed;
            offered_delta_total += offered_delta;
            shed_delta_total += shed_delta;
            max_backlog = max_backlog.max(sample.escalation_backlog);
            let rate_pps = offered_delta as f64 / elapsed;
            state.switcher.observe(rate_pps);
        }
        self.shed_packets += shed_delta_total;

        self.apply_verdicts(&input.verdicts);
        let promos_before = self.whitelist_promotions;
        self.promote_heavy(&input.heavy);
        let promotions = self.whitelist_promotions - promos_before;
        let evict_before = self.whitelist_expired;
        self.age_tables();
        let whitelist_evictions = self.whitelist_expired - evict_before;

        let offered_mpps = offered_delta_total as f64 / elapsed / 1e6;
        if self.shed {
            self.shed_epochs += 1;
        }

        // Decide per-shard modes; the shed pin forces Lite everywhere
        // except where the operator pinned a shard's mode.
        let shed = self.shed;
        let mut modes = Vec::with_capacity(self.shards.len());
        for state in &mut self.shards {
            let decided = state.forced.unwrap_or(if shed {
                Mode::Lite
            } else {
                state.switcher.mode()
            });
            if decided != state.decided {
                state.decided = decided;
                self.mode_switches += 1;
            }
            modes.push(decided);
        }

        let snapshot = if self.dirty {
            self.dirty = false;
            Some(self.build_snapshot())
        } else {
            None
        };

        let record = DecisionRecord {
            epoch: self.epoch,
            offered_mpps,
            smoothed_mpps: self
                .shards
                .iter()
                .map(|s| s.switcher.smoothed_rate() / 1e6)
                .collect(),
            max_backlog,
            modes,
            shed,
            promotions,
            whitelist_evictions,
            whitelist_len: self.whitelist.len(),
            blacklist_len: self.blacklist.len(),
            snapshot_published: snapshot.is_some(),
        };
        if self.decisions.len() == DECISION_CAPACITY {
            self.decisions.pop_front();
            self.decisions_dropped += 1;
        }
        self.decisions.push_back(record.clone());
        EpochDecision { record, snapshot }
    }

    /// Open a new segment on a controller that has run one: forget what
    /// was learned from the last segment's flows — both steering tables
    /// and the heavy-hitter streaks, exactly what a shard's
    /// `FlowState::reset` forgets on its side — and return the snapshot
    /// to publish before any packet is offered. Everything that
    /// describes the engine rather than the traffic stays: the epoch
    /// counter, each shard's EWMA and counter baselines (so the first
    /// epoch of the segment measures that epoch, not the engine's
    /// lifetime) and the operator's pins.
    pub fn new_segment(&mut self) -> Arc<SteeringSnapshot> {
        self.whitelist.reset();
        self.blacklist.reset();
        self.streaks.clear();
        self.build_snapshot()
    }

    /// The retained decision audit, oldest first: the newest 512
    /// epochs, or every epoch of a shorter life.
    pub fn decisions(&self) -> &VecDeque<DecisionRecord> {
        &self.decisions
    }

    /// Admin edit: blacklist `digest` directly (no Verdict round-trip).
    /// Revokes any standing whitelist entry (blacklist wins) and marks
    /// the controller dirty so the next epoch republishes the steering
    /// snapshot through the normal lock-free path. Returns whether the
    /// tables changed.
    pub(crate) fn admin_blacklist_insert(&mut self, digest: u64) -> bool {
        let mut changed = self.blacklist.insert(digest, self.epoch);
        changed |= self.whitelist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: drop `digest` from the blacklist.
    pub(crate) fn admin_blacklist_remove(&mut self, digest: u64) -> bool {
        let changed = self.blacklist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: whitelist `digest`. The operator is authoritative,
    /// so a standing blacklist entry is revoked (unlike host verdicts,
    /// where blacklist wins).
    pub(crate) fn admin_whitelist_insert(&mut self, digest: u64) -> bool {
        let mut changed = self.blacklist.remove(&digest);
        changed |= self.whitelist.insert(digest, self.epoch);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: drop `digest` from the whitelist.
    pub(crate) fn admin_whitelist_remove(&mut self, digest: u64) -> bool {
        let changed = self.whitelist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Apply one operator command; its effect shows in the next epoch's
    /// decision. Table edits are entries like any learned one (TTL'd,
    /// gone at [`Controller::new_segment`]); the two pins stand until
    /// released. Returns `false` for a command that names no shard of
    /// this controller.
    pub fn admin(&mut self, cmd: AdminCmd) -> bool {
        match cmd {
            AdminCmd::BlacklistAdd(d) => _ = self.admin_blacklist_insert(d),
            AdminCmd::BlacklistRemove(d) => _ = self.admin_blacklist_remove(d),
            AdminCmd::WhitelistAdd(d) => _ = self.admin_whitelist_insert(d),
            AdminCmd::WhitelistRemove(d) => _ = self.admin_whitelist_remove(d),
            AdminCmd::ForceShed(force) => {
                let shed = force == Some(true);
                self.dirty |= shed != self.shed;
                self.shed = shed;
            }
            AdminCmd::ForceMode { shard, mode } => match self.shards.get_mut(shard) {
                Some(state) => state.forced = mode,
                None => return false,
            },
        }
        true
    }

    /// The report so far. Non-destructive; callable repeatedly.
    pub fn report(&self) -> ControlReport {
        ControlReport {
            epochs: self.epoch,
            mode_switches: self.mode_switches,
            whitelist_promotions: self.whitelist_promotions,
            whitelist_expired: self.whitelist_expired,
            blacklist_expired: self.blacklist_expired,
            shed_epochs: self.shed_epochs,
            shed_packets: self.shed_packets,
            snapshot_publishes: self.snapshot_publishes,
            shed_active: self.shed,
            final_modes: self.shards.iter().map(|s| s.decided).collect(),
            decisions: self.decisions.iter().cloned().collect(),
            decisions_dropped: self.decisions_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::FlowKey;

    fn key(n: u32) -> FlowKey {
        FlowKey::tcp(
            std::net::Ipv4Addr::from(n),
            (n % 60_000) as u16 + 1024,
            std::net::Ipv4Addr::from(n ^ 0xdead_beef),
            443,
        )
    }

    fn input(
        rate_mpps: f64,
        shards: usize,
        epoch_secs: f64,
        prev: &mut Vec<ShardSample>,
    ) -> EpochInput {
        if prev.is_empty() {
            prev.resize(shards, ShardSample::default());
        }
        let per_shard = (rate_mpps * 1e6 * epoch_secs / shards as f64) as u64;
        for s in prev.iter_mut() {
            s.offered += per_shard;
        }
        EpochInput {
            elapsed_secs: epoch_secs,
            shards: prev.clone(),
            verdicts: Vec::new(),
            heavy: Vec::new(),
        }
    }

    #[test]
    fn sustained_overload_flips_lite_then_recovers() {
        let cfg = ControlConfig::default();
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        // Calm: everyone stays General.
        for _ in 0..10 {
            let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
            assert!(d.record.modes.iter().all(|&m| m == Mode::General));
        }
        // Per-shard 4 Mpps > eta_lite 2.5 → Lite within a few epochs.
        let mut saw_lite = false;
        for _ in 0..10 {
            let d = c.epoch(&input(8.0, 2, 0.005, &mut cum));
            saw_lite |= d.record.modes.iter().all(|&m| m == Mode::Lite);
        }
        assert!(saw_lite, "sustained overload must reach Lite");
        // Recovery below eta_general.
        let mut back = false;
        for _ in 0..20 {
            let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
            back |= d.record.modes.iter().all(|&m| m == Mode::General);
        }
        assert!(back, "calm must return to General");
        let r = c.report();
        // 2 shards x (General->Lite, Lite->General) = 4 switches.
        assert_eq!(r.mode_switches, 4);
        assert_eq!(
            r.timeline()
                .iter()
                .filter(|e| matches!(e, ControlEvent::ModeSwitch { .. }))
                .count(),
            4
        );
    }

    /// Overload has one answer, Algorithm 4's: 20 Mpps over two shards
    /// with the escalation path 4 096 deep, for 50 epochs, flips both
    /// shards Lite and sheds nothing; calm brings both back to General.
    #[test]
    fn overload_flips_lite_and_never_sheds() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        let mut records = Vec::new();
        for _ in 0..50 {
            let mut inp = input(20.0, 2, 0.005, &mut cum);
            for s in &mut inp.shards {
                s.escalation_backlog = 4096;
            }
            records.push(c.epoch(&inp).record);
        }
        let lite = records.last().unwrap();
        assert_eq!(lite.modes, [Mode::Lite, Mode::Lite], "Algorithm 4 flips");
        assert_eq!(
            lite.max_backlog, 4096,
            "the audit still records the backlog"
        );
        for _ in 0..20 {
            records.push(c.epoch(&input(0.5, 2, 0.005, &mut cum)).record);
        }
        assert_eq!(
            records.last().unwrap().modes,
            [Mode::General, Mode::General],
            "calm returns General"
        );
        assert!(records.iter().all(|r| !r.shed), "nothing sheds unpinned");
        let r = c.report();
        assert_eq!((r.shed_epochs, r.shed_active), (0, false));
        assert_eq!(r.mode_switches, 4);
    }

    #[test]
    fn verdicts_update_tables_and_blacklist_wins() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        let mut inp = input(1.0, 1, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Whitelist(key(7)), Verdict::Whitelist(key(9))];
        let d = c.epoch(&inp);
        let snap = d.snapshot.expect("table change publishes");
        assert_eq!(snap.whitelist.len(), 2);
        assert!(snap.blacklist.is_empty());

        // Blacklisting key(7) revokes its whitelist entry.
        let mut inp = input(1.0, 1, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Blacklist(key(7))];
        let d = c.epoch(&inp);
        let snap = d.snapshot.expect("table change publishes");
        assert_eq!(snap.whitelist.len(), 1);
        assert_eq!(snap.blacklist.len(), 1);

        // A later whitelist verdict for a blacklisted flow is ignored.
        let mut inp = input(1.0, 1, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Whitelist(key(7))];
        let d = c.epoch(&inp);
        assert!(d.snapshot.is_none(), "no state change, no publication");
        assert_eq!(c.whitelist.len(), 1);
    }

    #[test]
    fn heavy_hitters_promote_after_streak_only() {
        let cfg = ControlConfig {
            promote_pkts_per_epoch: 100,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        for round in 1..=u64::from(PROMOTE_EPOCHS) {
            let mut inp = input(1.0, 1, 0.005, &mut cum);
            // Shard reports digest 0xAB split across two entries; sums
            // to 120 ≥ 100. Digest 0xCD stays below threshold.
            inp.heavy = vec![(0xAB, 70), (0xAB, 50), (0xCD, 30)];
            let d = c.epoch(&inp);
            if round < u64::from(PROMOTE_EPOCHS) {
                assert_eq!(c.whitelist.len(), 0, "no promotion before the streak");
                assert!(d.snapshot.is_none());
            } else {
                assert_eq!(c.whitelist.len(), 1, "promoted on the streak's last epoch");
                assert!(d.snapshot.unwrap().whitelist.contains(&0xAB));
            }
        }
        assert_eq!(c.report().whitelist_promotions, 1);

        // A gap resets the streak: qualifying runs one epoch short of
        // it, each cut by a quiet epoch, never promote.
        let mut c2 = Controller::new(c.config().clone());
        let mut cum2 = Vec::new();
        for round in 0..4 * PROMOTE_EPOCHS {
            let mut inp = input(1.0, 1, 0.005, &mut cum2);
            if round % PROMOTE_EPOCHS != PROMOTE_EPOCHS - 1 {
                inp.heavy = vec![(0xAB, 200)];
            }
            c2.epoch(&inp);
        }
        assert_eq!(c2.whitelist.len(), 0, "interrupted streak never promotes");
    }

    #[test]
    fn ttl_expiry_republishes_without_the_entry() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        let mut inp = input(1.0, 1, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Whitelist(key(1))];
        c.epoch(&inp);
        assert_eq!(c.whitelist.len(), 1);
        // Untouched for its whole TTL, the entry still stands...
        for _ in 0..WHITELIST_TTL_EPOCHS {
            let d = c.epoch(&input(1.0, 1, 0.005, &mut cum));
            assert!(d.snapshot.is_none(), "nothing changed, nothing published");
        }
        assert_eq!(c.whitelist.len(), 1, "alive through its TTL");
        // ...and the next epoch expires it and republishes.
        let d = c.epoch(&input(1.0, 1, 0.005, &mut cum));
        assert_eq!(c.whitelist.len(), 0, "TTL expired the entry");
        let snap = d.snapshot.expect("expiry republishes");
        assert!(snap.whitelist.is_empty());
        assert_eq!(d.record.whitelist_evictions, 1);
        assert_eq!(c.report().whitelist_expired, 1);
    }

    /// The knob guard: every `ControlConfig` field by name, no `..`, so
    /// a field added to the struct does not compile until it is placed
    /// here — and in DESIGN.md's ledger, which `ci/fork_ledger.py`
    /// checks against the struct.
    #[test]
    fn every_control_knob_is_named_and_its_default_pinned() {
        let ControlConfig {
            epoch_ms,
            eta_lite_mpps,
            eta_general_mpps,
            promote_pkts_per_epoch,
        } = ControlConfig::default();
        assert_eq!((epoch_ms, promote_pkts_per_epoch), (5, 2000));
        assert_eq!((eta_lite_mpps, eta_general_mpps), (2.5, 1.8));
    }

    #[test]
    fn decision_audit_records_inputs_and_outputs() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        let d = c.epoch(&input(10.0, 2, 0.005, &mut cum));
        assert_eq!(d.record.epoch, 1);
        assert!(d.record.offered_mpps > 4.0, "audit carries the input rate");
        assert_eq!(d.record.smoothed_mpps.len(), 2);
        assert!(!d.record.shed);
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        for _ in 0..6 {
            c.epoch(&input(10.0, 2, 0.005, &mut cum));
        }
        let r = c.report();
        assert_eq!((r.decisions.len(), r.decisions_dropped), (7, 0));
        assert_eq!(
            r.decisions[0], d.record,
            "the ring holds what epoch returned"
        );
        let last = r.decisions.last().unwrap();
        assert_eq!(last.epoch, 7, "newest record retained");
        assert!(last.shed, "the shed pin shows up in the audit");
        assert!(last.modes.iter().all(|&m| m == Mode::Lite));
    }

    #[test]
    fn the_name_tables_read_the_live_books() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        let mut last = None;
        for _ in 0..6 {
            last = Some(c.epoch(&input(8.0, 2, 0.005, &mut cum)));
        }
        let read = |name: &str| COUNTERS.iter().find(|(n, _)| *n == name).unwrap().1(&c);
        let r = c.report();
        assert_eq!(read("control.epochs"), 6);
        assert_eq!(read("control.mode_switches"), r.mode_switches);
        assert!(r.mode_switches >= 2);
        assert_eq!(read("control.shed_packets"), r.shed_packets);
        assert_eq!(read("control.snapshot_publishes"), r.snapshot_publishes);
        assert_eq!(GAUGES[0].1(&c), 1.0, "shedding under the pin");
        let record = last.unwrap().record;
        let shard0 = (record.smoothed_mpps[0], record.modes[0]);
        assert!(
            SHARD_GAUGES[0].1(&shard0) > 2.5,
            "the EWMA saw 4 Mpps a shard"
        );
        assert_eq!(SHARD_GAUGES[1].1(&shard0), f64::from(Mode::Lite.code()));
    }

    #[test]
    fn admin_edits_mark_dirty_and_publish_next_epoch() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        // Settle: no publications while nothing changes.
        c.epoch(&input(1.0, 2, 0.005, &mut cum));
        let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
        assert!(d.snapshot.is_none(), "steady state publishes nothing");

        assert!(c.admin_blacklist_insert(0xBAD));
        assert!(!c.admin_blacklist_insert(0xBAD), "idempotent");
        let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
        let snap = d.snapshot.expect("admin edit publishes");
        assert!(snap.blacklist.contains(&0xBAD));

        // Whitelisting the same digest revokes the blacklist entry:
        // the operator is authoritative.
        assert!(c.admin_whitelist_insert(0xBAD));
        let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
        let snap = d.snapshot.expect("edit publishes again");
        assert!(!snap.blacklist.contains(&0xBAD));
        assert!(snap.whitelist.contains(&0xBAD));

        assert!(c.admin_whitelist_remove(0xBAD));
        assert!(!c.admin_whitelist_remove(0xBAD));
        let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
        assert!(!d
            .snapshot
            .expect("removal publishes")
            .whitelist
            .contains(&0xBAD));
    }

    #[test]
    fn the_shed_pin_sheds_until_released() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        // Pinned on under calm traffic: sheds from the next epoch and
        // every shard goes Lite.
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert!(d.record.shed, "the pin sheds calm load");
        assert!(d.record.modes.iter().all(|&m| m == Mode::Lite));
        assert!(d.snapshot.expect("shed flip publishes").shed);

        // Off and released both end it, at once, under any load.
        for release in [Some(false), None] {
            assert!(c.admin(AdminCmd::ForceShed(Some(true))));
            c.epoch(&input(50.0, 2, 0.005, &mut cum));
            assert!(c.admin(AdminCmd::ForceShed(release)));
            let d = c.epoch(&input(50.0, 2, 0.005, &mut cum));
            assert!(!d.record.shed, "{release:?} ends the shed");
            assert!(!d.snapshot.expect("shed flip publishes").shed);
        }
    }

    #[test]
    fn operator_mode_pin_outranks_shed_and_algorithm_4() {
        let mut c = Controller::new(ControlConfig::default()).for_shards(2);
        let mut cum = Vec::new();
        // Sized when built: the pin lands before any epoch has run, and
        // a shard this controller does not have is refused.
        let pin = |mode| AdminCmd::ForceMode { shard: 0, mode };
        assert!(c.admin(pin(Some(Mode::General))));
        assert!(!c.admin(AdminCmd::ForceMode {
            shard: 2,
            mode: Some(Mode::Lite),
        }));
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert!(d.record.shed);
        assert_eq!(d.record.modes, [Mode::General, Mode::Lite], "pin > shed");
        // The timeline is what changed from the all-General start.
        assert_eq!(
            c.report().timeline(),
            [
                ControlEvent::ShedOn { epoch: 1 },
                ControlEvent::ModeSwitch {
                    epoch: 1,
                    shard: 1,
                    mode: Mode::Lite
                }
            ]
        );

        // Pinned Lite under calm, unshed load: pin > Algorithm 4.
        assert!(c.admin(AdminCmd::ForceShed(Some(false))));
        assert!(c.admin(pin(Some(Mode::Lite))));
        let before = d.record;
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert_eq!(d.record.modes, [Mode::Lite, Mode::General]);
        assert_eq!(
            ControlEvent::between(Some(&before), &d.record).count(),
            3,
            "shed-off and one switch per shard"
        );
        // Released: straight back to Algorithm 4's standing decision.
        assert!(c.admin(pin(None)));
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert_eq!(d.record.modes, [Mode::General, Mode::General]);
        let r = c.report();
        assert_eq!(r.mode_switches, 4);
        assert_eq!(r.final_modes, d.record.modes);
    }

    #[test]
    fn new_segment_forgets_the_traffic_and_keeps_the_engine() {
        let cfg = ControlConfig {
            promote_pkts_per_epoch: 100,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        assert!(c.admin(AdminCmd::BlacklistAdd(0xBAD)));
        // A streak one epoch short of promotion.
        for round in 1..PROMOTE_EPOCHS {
            let mut inp = input(1.0, 2, 0.005, &mut cum);
            if round == 1 {
                inp.verdicts = vec![Verdict::Whitelist(key(7))];
            }
            inp.heavy = vec![(0xAB, 500)];
            c.epoch(&inp);
        }
        assert_eq!((c.whitelist.len(), c.blacklist.len()), (1, 1));

        let snap = c.new_segment();
        assert!(snap.whitelist.is_empty() && snap.blacklist.is_empty());
        assert!(snap.shed, "the pin is in the snapshot a segment opens on");
        assert_eq!(snap.version, 2, "publications run on");

        // The streak did not survive (one more qualifying epoch would
        // have promoted 0xAB); the baselines did: the same cumulative
        // counters read as one epoch of 1 Mpps, not as a lifetime.
        let mut inp = input(1.0, 2, 0.005, &mut cum);
        inp.heavy = vec![(0xAB, 500)];
        let d = c.epoch(&inp);
        assert_eq!(d.record.epoch, u64::from(PROMOTE_EPOCHS), "epochs run on");
        assert_eq!(c.whitelist.len(), 0);
        assert!((d.record.offered_mpps - 1.0).abs() < 1e-9);
        assert!(d.record.shed, "the shed pin stands");
    }

    /// A seeded drive of `epochs` epochs over four shards: a load that
    /// holds one of four levels for a few epochs at a time, crossing
    /// Algorithm 4's band, with the operator's mode and shed pins set
    /// and released at random in between.
    fn seeded_drive(epochs: u64) -> Controller {
        let mut c = Controller::new(ControlConfig::default()).for_shards(4);
        let mut cum = Vec::new();
        let mut rng = 0x5EED;
        let mut draw = |n: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % n
        };
        let mut rate = 1.0;
        for _ in 0..epochs {
            if draw(6) == 0 {
                rate = [0.5, 4.0, 12.0, 24.0][draw(4) as usize];
            }
            let pin = [None, Some(Mode::General), Some(Mode::Lite)][draw(3) as usize];
            let shed = [None, Some(false), Some(true)][draw(3) as usize];
            match draw(24) {
                0 => {
                    _ = c.admin(AdminCmd::ForceMode {
                        shard: draw(4) as usize,
                        mode: pin,
                    })
                }
                1 => _ = c.admin(AdminCmd::ForceShed(shed)),
                _ => {}
            }
            c.epoch(&input(rate, 4, 0.005, &mut cum));
        }
        c
    }

    /// The timeline read from the records is the controller's own
    /// account: one `ModeSwitch` per counted switch, shed edges that
    /// alternate from on, and a last record that is the final state.
    #[test]
    fn the_timeline_read_from_the_records_agrees_with_the_counts() {
        let r = seeded_drive(400).report();
        assert_eq!(r.decisions_dropped, 0, "the ring holds the whole drive");
        let timeline = r.timeline();
        let switches = timeline
            .iter()
            .filter(|e| matches!(e, ControlEvent::ModeSwitch { .. }))
            .count();
        assert!(switches > 20, "the drive must switch modes: {switches}");
        assert_eq!(switches as u64, r.mode_switches);
        let edges: Vec<bool> = timeline
            .iter()
            .filter_map(|e| match e {
                ControlEvent::ShedOn { .. } => Some(true),
                ControlEvent::ShedOff { .. } => Some(false),
                ControlEvent::ModeSwitch { .. } => None,
            })
            .collect();
        assert!(
            edges.len() >= 4,
            "the drive must shed and release: {edges:?}"
        );
        for (i, &on) in edges.iter().enumerate() {
            assert_eq!(on, i % 2 == 0, "shed edge {i} of {edges:?}");
        }
        assert_eq!(r.shed_active, edges.len() % 2 == 1);
        let last = r.decisions.last().expect("a record per epoch");
        assert_eq!(last.modes, r.final_modes);
        assert_eq!(last.shed, r.shed_active);
    }

    /// Past its bound the ring keeps the newest records and counts the
    /// rest; its first record is then the timeline's baseline.
    #[test]
    fn the_decision_ring_keeps_the_newest_records() {
        let epochs = DECISION_CAPACITY as u64 + 88;
        let c = seeded_drive(epochs);
        let r = c.report();
        assert_eq!(r.decisions.len(), DECISION_CAPACITY);
        assert_eq!(r.decisions_dropped, 88);
        let kept: Vec<u64> = r.decisions.iter().map(|d| d.epoch).collect();
        assert_eq!(kept, (89..=epochs).collect::<Vec<_>>());
        assert_eq!(r.decisions.last().map(|d| &d.modes), Some(&r.final_modes));
        let first = r.timeline().first().map(ControlEvent::epoch);
        assert!(first > Some(89), "no edge is read into the baseline");
    }
}
