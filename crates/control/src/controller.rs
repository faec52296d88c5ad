//! The epoch-driven control brain.
//!
//! [`Controller`] is a *pure* state machine: the runtime feeds it one
//! [`EpochInput`] per epoch (cumulative shard counters, host verdicts,
//! heavy-hitter candidates) and it returns one [`EpochDecision`]
//! (per-shard Algorithm 4 mode, the shed flag, and a fresh
//! [`SteeringSnapshot`] when the steering tables changed). It owns no
//! threads and reads no clocks, so identical input streams produce
//! byte-identical decisions — the property the `control-sim`
//! determinism experiment pins down.
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
//!    clear `promote_pkts_per_epoch` for `promote_epochs` consecutive
//!    epochs joins the whitelist (the paper's benign-elephant
//!    "hoverboard" steering rule).
//! 4. Ages both tables (TTL sweep + capacity bound via
//!    [`smartwatch_net::AgingDigestSet`]).
//! 5. Runs the shed hysteresis: sustained aggregate overload (offered
//!    rate or escalation backlog) turns load shedding on — every shard
//!    is forced to Lite and the dispatcher passes whitelisted flows
//!    only — and sustained calm turns it back off.
//!
//! The operator's standing overrides ([`Controller::admin`]) live here
//! too, beside the state they override, so every decision, gauge, event
//! and report says what the data path runs. Precedence per shard:
//! operator's mode pin > shedding (Lite) > Algorithm 4; the shed pin
//! replaces the hysteresis while it stands.
//!
//! A controller outlives the traffic it steers: between two segments of
//! one engine [`Controller::new_segment`] empties what was learned from
//! the last segment's flows and keeps everything else.

use crate::admin::AdminCmd;
use crate::snapshot::SteeringSnapshot;
use serde::Serialize;
use smartwatch_host::Verdict;
use smartwatch_net::{AgingDigestSet, BuildDigestHasher, DigestSet, FlowHasher};
use smartwatch_snic::{Mode, SwitchOver};
use smartwatch_telemetry::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuning knobs for the control loop. The defaults target the software
/// engine (per-shard Mpps, not the paper's 30 Mpps hardware ceiling) —
/// construct, then override fields as needed.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Wall-clock epoch period in milliseconds (used by the runtime's
    /// controller thread; the state machine itself is time-free).
    pub epoch_ms: u64,
    /// Flow-hash seed — must match the engine's dispatch seed so
    /// verdict digests line up with dispatch digests.
    pub hash_seed: u64,
    /// Per-shard rate above which Algorithm 4 flips to Lite, in Mpps.
    pub eta_lite_mpps: f64,
    /// Per-shard rate below which Algorithm 4 returns to General, in
    /// Mpps. Must be `< eta_lite_mpps` (hysteresis).
    pub eta_general_mpps: f64,
    /// Aggregate offered rate (all shards, Mpps) that counts as
    /// overload for the shed decision.
    pub shed_on_mpps: f64,
    /// Aggregate offered rate below which an epoch counts as calm.
    pub shed_off_mpps: f64,
    /// Escalation-ring backlog (any shard) that also counts as overload.
    pub shed_backlog: u64,
    /// Consecutive overload (resp. calm) epochs required to enter
    /// (resp. leave) shedding.
    pub shed_sustain_epochs: u32,
    /// Per-epoch packets a digest's reports must sum to, to count
    /// towards heavy-hitter promotion.
    pub promote_pkts_per_epoch: u64,
    /// Consecutive qualifying epochs before a heavy hitter is promoted
    /// into the whitelist.
    pub promote_epochs: u32,
    /// Whitelist entries untouched for this many epochs expire.
    pub whitelist_ttl_epochs: u64,
    /// Blacklist entries untouched for this many epochs expire.
    pub blacklist_ttl_epochs: u64,
    /// Hard capacity bound on the whitelist (stalest evicted beyond).
    pub whitelist_capacity: usize,
    /// Hard capacity bound on the blacklist.
    pub blacklist_capacity: usize,
    /// Bound on the retained event timeline (oldest dropped beyond).
    pub timeline_capacity: usize,
    /// Bound on the retained per-epoch decision audit ring (oldest
    /// [`DecisionRecord`]s dropped beyond).
    pub decision_capacity: usize,
}

impl Default for ControlConfig {
    fn default() -> ControlConfig {
        ControlConfig {
            epoch_ms: 5,
            hash_seed: 0x51CC,
            eta_lite_mpps: 2.5,
            eta_general_mpps: 1.8,
            shed_on_mpps: 6.0,
            shed_off_mpps: 2.0,
            shed_backlog: 3072,
            shed_sustain_epochs: 3,
            promote_pkts_per_epoch: 2000,
            promote_epochs: 2,
            whitelist_ttl_epochs: 200,
            blacklist_ttl_epochs: 1000,
            whitelist_capacity: 65_536,
            blacklist_capacity: 65_536,
            timeline_capacity: 4096,
            decision_capacity: 512,
        }
    }
}

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
    /// Epoch number (1-based; increments per [`Controller::epoch`]).
    pub epoch: u64,
    /// The mode each shard runs: the operator's pin, else Lite while
    /// shedding, else Algorithm 4's decision.
    pub modes: Vec<Mode>,
    /// Whether load shedding is active after this epoch.
    pub shed: bool,
    /// Freshly built steering snapshot, present only when the steering
    /// state (tables or shed flag) changed this epoch.
    pub snapshot: Option<Arc<SteeringSnapshot>>,
    /// The transitions of this epoch, in timeline order — the same
    /// events [`ControlReport::timeline`] retains.
    pub events: Vec<ControlEvent>,
    /// Full audit record of the inputs and outputs of this epoch (also
    /// retained in the controller's bounded decision ring).
    pub record: DecisionRecord,
}

/// One epoch's decision audit: what the controller saw and what it did.
/// Bounded copies live in the controller ([`ControlReport::decisions`])
/// and, via the runtime, in `/stats.json` and `BENCH_control.json` —
/// the answer to "why did the control plane do *that*?".
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Aggregate offered rate observed this epoch, Mpps.
    pub offered_mpps: f64,
    /// Per-shard Algorithm 4 EWMA-smoothed rate, Mpps.
    pub smoothed_mpps: Vec<f64>,
    /// Largest instantaneous escalation backlog across shards.
    pub max_backlog: u64,
    /// Decided per-shard mode.
    pub modes: Vec<Mode>,
    /// Shed state after this epoch.
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

/// A notable control-plane transition, kept in a bounded timeline for
/// the bench report's mode timeline.
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
    pub fn epoch(&self) -> u64 {
        match self {
            ControlEvent::ModeSwitch { epoch, .. }
            | ControlEvent::ShedOn { epoch }
            | ControlEvent::ShedOff { epoch } => *epoch,
        }
    }
}

/// An event serialises as the epoch it happened in plus its rendering.
impl Serialize for ControlEvent {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("epoch".into(), self.epoch().to_value()),
            ("event".into(), self.render().to_value()),
        ])
    }
}

/// The control plane's accounting since the controller was built — for
/// a controller resident in an engine, over every segment so far. Field
/// order is the key order of the `control` object in
/// `BENCH_control.json`.
#[derive(Clone, Debug, Default, Serialize)]
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
    /// Bounded event timeline (oldest events dropped past the bound).
    pub timeline: Vec<ControlEvent>,
    /// Events dropped from the timeline because of the bound.
    pub timeline_dropped: u64,
    /// Bounded per-epoch decision audit (oldest dropped past the bound).
    pub decisions: Vec<DecisionRecord>,
    /// Decision records dropped because of the bound.
    pub decisions_dropped: u64,
}

impl ControlReport {
    /// Counters-only summary: every line is an integer or a mode label,
    /// so two identical seeded drives render byte-identical strings.
    /// (Deliberately excludes floats and the timeline tail.)
    pub fn summary(&self) -> String {
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

struct Counters {
    epochs: Counter,
    mode_switches: Counter,
    whitelist_promotions: Counter,
    shed_packets: Counter,
    whitelist_expired: Counter,
    blacklist_expired: Counter,
    snapshot_publishes: Counter,
    shed_active: Gauge,
}

impl Counters {
    fn detached() -> Counters {
        Counters {
            epochs: Counter::detached(),
            mode_switches: Counter::detached(),
            whitelist_promotions: Counter::detached(),
            shed_packets: Counter::detached(),
            whitelist_expired: Counter::detached(),
            blacklist_expired: Counter::detached(),
            snapshot_publishes: Counter::detached(),
            shed_active: Gauge::detached(),
        }
    }

    fn registered(reg: &Registry) -> Counters {
        Counters {
            epochs: reg.counter("control.epochs", &[]),
            mode_switches: reg.counter("control.mode_switches", &[]),
            whitelist_promotions: reg.counter("control.whitelist_promotions", &[]),
            shed_packets: reg.counter("control.shed_packets", &[]),
            whitelist_expired: reg.counter("control.whitelist_expired", &[]),
            blacklist_expired: reg.counter("control.blacklist_expired", &[]),
            snapshot_publishes: reg.counter("control.snapshot_publishes", &[]),
            shed_active: reg.gauge("control.shed_active", &[]),
        }
    }
}

/// Per-shard EWMA state plus the counters the controller diffs against.
struct ShardState {
    switcher: SwitchOver,
    decided: Mode,
    /// Admin override: `Some(m)` pins the shard to `m` whatever
    /// Algorithm 4 and the shed state say, until released.
    forced: Option<Mode>,
    prev_offered: u64,
    prev_shed: u64,
    smoothed_gauge: Option<Gauge>,
    mode_gauge: Option<Gauge>,
}

/// The control-plane state machine (see module docs).
pub struct Controller {
    cfg: ControlConfig,
    hasher: FlowHasher,
    registry: Option<Registry>,
    counters: Counters,
    epoch: u64,
    shards: Vec<ShardState>,
    whitelist: AgingDigestSet,
    blacklist: AgingDigestSet,
    /// digest -> (last qualifying epoch, consecutive-epoch streak).
    streaks: HashMap<u64, (u64, u32), BuildDigestHasher>,
    shed: bool,
    /// Admin override: `Some(v)` pins shedding to `v` and pauses the
    /// hysteresis until cleared.
    force_shed: Option<bool>,
    overload_streak: u32,
    calm_streak: u32,
    shed_epochs: u64,
    snapshot_version: u64,
    dirty: bool,
    timeline: VecDeque<ControlEvent>,
    timeline_dropped: u64,
    /// This epoch's events, handed out with its [`EpochDecision`].
    fresh: Vec<ControlEvent>,
    decisions: VecDeque<DecisionRecord>,
    decisions_dropped: u64,
}

impl Controller {
    /// Controller with detached (unregistered) telemetry.
    ///
    /// # Panics
    /// Panics unless `eta_general_mpps < eta_lite_mpps` and
    /// `shed_off_mpps < shed_on_mpps` (both hystereses need a band).
    pub fn new(cfg: ControlConfig) -> Controller {
        Controller::build(cfg, None)
    }

    /// Controller registering its `control.*` metrics in `reg`.
    pub fn with_registry(cfg: ControlConfig, reg: &Registry) -> Controller {
        Controller::build(cfg, Some(reg.clone()))
    }

    fn build(cfg: ControlConfig, registry: Option<Registry>) -> Controller {
        assert!(
            cfg.eta_general_mpps < cfg.eta_lite_mpps,
            "need eta_general_mpps < eta_lite_mpps for hysteresis"
        );
        assert!(
            cfg.shed_off_mpps < cfg.shed_on_mpps,
            "need shed_off_mpps < shed_on_mpps for hysteresis"
        );
        let counters = match &registry {
            Some(r) => Counters::registered(r),
            None => Counters::detached(),
        };
        Controller {
            hasher: FlowHasher::new(cfg.hash_seed),
            whitelist: AgingDigestSet::new(cfg.whitelist_capacity, cfg.whitelist_ttl_epochs),
            blacklist: AgingDigestSet::new(cfg.blacklist_capacity, cfg.blacklist_ttl_epochs),
            cfg,
            registry,
            counters,
            epoch: 0,
            shards: Vec::new(),
            streaks: HashMap::default(),
            shed: false,
            force_shed: None,
            overload_streak: 0,
            calm_streak: 0,
            shed_epochs: 0,
            snapshot_version: 0,
            dirty: false,
            timeline: VecDeque::new(),
            timeline_dropped: 0,
            fresh: Vec::new(),
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

    fn push_event(&mut self, ev: ControlEvent) {
        self.fresh.push(ev.clone());
        if self.timeline.len() == self.cfg.timeline_capacity {
            self.timeline.pop_front();
            self.timeline_dropped += 1;
        }
        self.timeline.push_back(ev);
    }

    fn ensure_shards(&mut self, n: usize) {
        while self.shards.len() < n {
            let shard = self.shards.len();
            let (smoothed_gauge, mode_gauge) = match &self.registry {
                Some(r) => {
                    let label = shard.to_string();
                    (
                        Some(r.gauge("control.smoothed_mpps", &[("shard", &label)])),
                        Some(r.gauge("control.mode", &[("shard", &label)])),
                    )
                }
                None => (None, None),
            };
            self.shards.push(ShardState {
                switcher: SwitchOver::new(
                    self.cfg.eta_lite_mpps * 1e6,
                    self.cfg.eta_general_mpps * 1e6,
                ),
                decided: Mode::General,
                forced: None,
                prev_offered: 0,
                prev_shed: 0,
                smoothed_gauge,
                mode_gauge,
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
            if streak >= self.cfg.promote_epochs
                && !self.blacklist.contains(&digest)
                && self.whitelist.insert(digest, self.epoch)
            {
                self.counters.whitelist_promotions.inc();
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
            self.counters.whitelist_expired.add(wl);
            self.dirty = true;
        }
        if bl > 0 {
            self.counters.blacklist_expired.add(bl);
            self.dirty = true;
        }
    }

    fn decide_shed(&mut self, offered_mpps: f64, max_backlog: u64) {
        let overload =
            offered_mpps >= self.cfg.shed_on_mpps || max_backlog >= self.cfg.shed_backlog;
        let calm = offered_mpps <= self.cfg.shed_off_mpps && max_backlog < self.cfg.shed_backlog;
        if overload {
            self.overload_streak += 1;
            self.calm_streak = 0;
        } else if calm {
            self.calm_streak += 1;
            self.overload_streak = 0;
        } else {
            // Inside the hysteresis band: hold state, reset streaks.
            self.overload_streak = 0;
            self.calm_streak = 0;
        }
        if !self.shed && self.overload_streak >= self.cfg.shed_sustain_epochs {
            self.shed = true;
            self.dirty = true;
            self.counters.shed_active.set(1.0);
            self.push_event(ControlEvent::ShedOn { epoch: self.epoch });
        } else if self.shed && self.calm_streak >= self.cfg.shed_sustain_epochs {
            self.shed = false;
            self.dirty = true;
            self.counters.shed_active.set(0.0);
            self.push_event(ControlEvent::ShedOff { epoch: self.epoch });
        }
    }

    /// Pin shedding to the admin-forced value; the hysteresis streaks
    /// are cleared so releasing the override decides afresh from the
    /// next epoch's load, not a stale streak.
    fn apply_forced_shed(&mut self, force: bool) {
        self.overload_streak = 0;
        self.calm_streak = 0;
        if force == self.shed {
            return;
        }
        self.shed = force;
        self.dirty = true;
        if force {
            self.counters.shed_active.set(1.0);
            self.push_event(ControlEvent::ShedOn { epoch: self.epoch });
        } else {
            self.counters.shed_active.set(0.0);
            self.push_event(ControlEvent::ShedOff { epoch: self.epoch });
        }
    }

    fn build_snapshot(&mut self) -> Arc<SteeringSnapshot> {
        self.snapshot_version += 1;
        self.counters.snapshot_publishes.inc();
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

    /// Run one epoch (see module docs for the five stages).
    pub fn epoch(&mut self, input: &EpochInput) -> EpochDecision {
        self.epoch += 1;
        self.counters.epochs.inc();
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
            if let Some(g) = &state.smoothed_gauge {
                g.set(state.switcher.smoothed_rate() / 1e6);
            }
        }
        if shed_delta_total > 0 {
            self.counters.shed_packets.add(shed_delta_total);
        }

        self.apply_verdicts(&input.verdicts);
        let promos_before = self.counters.whitelist_promotions.get();
        self.promote_heavy(&input.heavy);
        let promotions = self.counters.whitelist_promotions.get() - promos_before;
        let evict_before = self.counters.whitelist_expired.get();
        self.age_tables();
        let whitelist_evictions = self.counters.whitelist_expired.get() - evict_before;

        let offered_mpps = offered_delta_total as f64 / elapsed / 1e6;
        match self.force_shed {
            Some(force) => self.apply_forced_shed(force),
            None => self.decide_shed(offered_mpps, max_backlog),
        }
        if self.shed {
            self.shed_epochs += 1;
        }

        // Decide per-shard modes; shedding forces Lite everywhere (the
        // whole point is to survive, not to model individual shards)
        // except where the operator pinned a shard.
        let epoch = self.epoch;
        let shed = self.shed;
        let mut modes = Vec::with_capacity(self.shards.len());
        let mut switches = Vec::new();
        for (shard, state) in self.shards.iter_mut().enumerate() {
            let decided = state.forced.unwrap_or(if shed {
                Mode::Lite
            } else {
                state.switcher.mode()
            });
            if decided != state.decided {
                state.decided = decided;
                switches.push((shard, decided));
            }
            if let Some(g) = &state.mode_gauge {
                g.set(f64::from(decided.code()));
            }
            modes.push(decided);
        }
        for (shard, mode) in switches {
            self.counters.mode_switches.inc();
            self.push_event(ControlEvent::ModeSwitch { epoch, shard, mode });
        }

        let snapshot = if self.dirty {
            self.dirty = false;
            Some(self.build_snapshot())
        } else {
            None
        };

        let record = DecisionRecord {
            epoch,
            offered_mpps,
            smoothed_mpps: self
                .shards
                .iter()
                .map(|s| s.switcher.smoothed_rate() / 1e6)
                .collect(),
            max_backlog,
            modes: modes.clone(),
            shed,
            promotions,
            whitelist_evictions,
            whitelist_len: self.whitelist.len(),
            blacklist_len: self.blacklist.len(),
            snapshot_published: snapshot.is_some(),
        };
        if self.decisions.len() == self.cfg.decision_capacity {
            self.decisions.pop_front();
            self.decisions_dropped += 1;
        }
        self.decisions.push_back(record.clone());

        EpochDecision {
            epoch,
            modes,
            shed,
            snapshot,
            events: std::mem::take(&mut self.fresh),
            record,
        }
    }

    /// Open a new segment on a controller that has run one: forget what
    /// was learned from the last segment's flows — both steering tables
    /// and the heavy-hitter streaks, exactly what a shard's
    /// `FlowState::reset` forgets on its side — and return the snapshot
    /// to publish before any packet is offered. Everything that
    /// describes the engine rather than the traffic stays: the epoch
    /// counter, each shard's EWMA and counter baselines (so the first
    /// epoch of the segment measures that epoch, not the engine's
    /// lifetime), the shed state and the operator's pins.
    pub fn new_segment(&mut self) -> Arc<SteeringSnapshot> {
        self.whitelist.reset();
        self.blacklist.reset();
        self.streaks.clear();
        self.build_snapshot()
    }

    /// Current whitelist size (tests/diagnostics).
    pub fn whitelist_len(&self) -> usize {
        self.whitelist.len()
    }

    /// Current blacklist size (tests/diagnostics).
    pub fn blacklist_len(&self) -> usize {
        self.blacklist.len()
    }

    /// Admin edit: blacklist `digest` directly (no Verdict round-trip).
    /// Revokes any standing whitelist entry (blacklist wins) and marks
    /// the controller dirty so the next epoch republishes the steering
    /// snapshot through the normal lock-free path. Returns whether the
    /// tables changed.
    pub fn admin_blacklist_insert(&mut self, digest: u64) -> bool {
        let mut changed = self.blacklist.insert(digest, self.epoch);
        changed |= self.whitelist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: drop `digest` from the blacklist.
    pub fn admin_blacklist_remove(&mut self, digest: u64) -> bool {
        let changed = self.blacklist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: whitelist `digest`. The operator is authoritative,
    /// so a standing blacklist entry is revoked (unlike host verdicts,
    /// where blacklist wins).
    pub fn admin_whitelist_insert(&mut self, digest: u64) -> bool {
        let mut changed = self.blacklist.remove(&digest);
        changed |= self.whitelist.insert(digest, self.epoch);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: drop `digest` from the whitelist.
    pub fn admin_whitelist_remove(&mut self, digest: u64) -> bool {
        let changed = self.whitelist.remove(&digest);
        self.dirty |= changed;
        changed
    }

    /// Admin edit: `Some(v)` pins shedding to `v` from the next epoch
    /// (pausing the hysteresis); `None` hands control back to it.
    pub fn admin_force_shed(&mut self, force: Option<bool>) {
        self.force_shed = force;
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
            AdminCmd::ForceShed(force) => self.admin_force_shed(force),
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
            mode_switches: self.counters.mode_switches.get(),
            whitelist_promotions: self.counters.whitelist_promotions.get(),
            whitelist_expired: self.counters.whitelist_expired.get(),
            blacklist_expired: self.counters.blacklist_expired.get(),
            shed_epochs: self.shed_epochs,
            shed_packets: self.counters.shed_packets.get(),
            snapshot_publishes: self.counters.snapshot_publishes.get(),
            shed_active: self.shed,
            final_modes: self.shards.iter().map(|s| s.decided).collect(),
            timeline: self.timeline.iter().cloned().collect(),
            timeline_dropped: self.timeline_dropped,
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
            s.processed += per_shard;
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
            assert!(d.modes.iter().all(|&m| m == Mode::General));
        }
        // Per-shard 4 Mpps > eta_lite 2.5 → Lite within a few epochs.
        let mut saw_lite = false;
        for _ in 0..10 {
            let d = c.epoch(&input(8.0, 2, 0.005, &mut cum));
            saw_lite |= d.modes.iter().all(|&m| m == Mode::Lite);
        }
        assert!(saw_lite, "sustained overload must reach Lite");
        // Recovery below eta_general.
        let mut back = false;
        for _ in 0..20 {
            let d = c.epoch(&input(1.0, 2, 0.005, &mut cum));
            back |= d.modes.iter().all(|&m| m == Mode::General);
        }
        assert!(back, "calm must return to General");
        let r = c.report();
        // 2 shards x (General->Lite, Lite->General) = 4 switches.
        assert_eq!(r.mode_switches, 4);
        assert_eq!(
            r.timeline
                .iter()
                .filter(|e| matches!(e, ControlEvent::ModeSwitch { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn shed_engages_on_sustained_overload_and_forces_lite() {
        let cfg = ControlConfig {
            shed_on_mpps: 4.0,
            shed_off_mpps: 1.5,
            shed_sustain_epochs: 2,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        // One hot epoch is not enough.
        let d = c.epoch(&input(10.0, 2, 0.005, &mut cum));
        assert!(!d.shed);
        let d = c.epoch(&input(10.0, 2, 0.005, &mut cum));
        assert!(d.shed, "second sustained overload epoch engages shed");
        assert!(d.modes.iter().all(|&m| m == Mode::Lite), "shed forces Lite");
        assert!(
            d.snapshot.as_ref().is_some_and(|s| s.shed),
            "shed flip publishes a snapshot carrying the flag"
        );
        // Band (between off and on) holds the state.
        let d = c.epoch(&input(2.0, 2, 0.005, &mut cum));
        assert!(d.shed);
        // Calm epochs release it.
        let d1 = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        let d2 = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert!(d1.shed && !d2.shed, "sustained calm releases shed");
        let r = c.report();
        assert_eq!(r.shed_epochs, 3);
        assert!(r.timeline.contains(&ControlEvent::ShedOn { epoch: 2 }));
        assert!(r.timeline.contains(&ControlEvent::ShedOff { epoch: 5 }));
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
        assert_eq!(c.whitelist_len(), 1);
    }

    #[test]
    fn heavy_hitters_promote_after_streak_only() {
        let cfg = ControlConfig {
            promote_pkts_per_epoch: 100,
            promote_epochs: 3,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        for round in 1..=3u64 {
            let mut inp = input(1.0, 1, 0.005, &mut cum);
            // Shard reports digest 0xAB split across two entries; sums
            // to 120 ≥ 100. Digest 0xCD stays below threshold.
            inp.heavy = vec![(0xAB, 70), (0xAB, 50), (0xCD, 30)];
            let d = c.epoch(&inp);
            if round < 3 {
                assert_eq!(c.whitelist_len(), 0, "no promotion before the streak");
                assert!(d.snapshot.is_none());
            } else {
                assert_eq!(c.whitelist_len(), 1, "promoted on the 3rd epoch");
                assert!(d.snapshot.unwrap().whitelist.contains(&0xAB));
            }
        }
        assert_eq!(c.report().whitelist_promotions, 1);

        // A gap resets the streak.
        let mut c2 = Controller::new(c.config().clone());
        let mut cum2 = Vec::new();
        for round in 0..4u64 {
            let mut inp = input(1.0, 1, 0.005, &mut cum2);
            if round != 1 {
                inp.heavy = vec![(0xAB, 200)];
            }
            c2.epoch(&inp);
        }
        assert_eq!(c2.whitelist_len(), 0, "interrupted streak never promotes");
    }

    #[test]
    fn ttl_expiry_republishes_without_the_entry() {
        let cfg = ControlConfig {
            whitelist_ttl_epochs: 3,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        let mut inp = input(1.0, 1, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Whitelist(key(1))];
        c.epoch(&inp);
        assert_eq!(c.whitelist_len(), 1);
        let mut last_snap = None;
        for _ in 0..4 {
            if let Some(s) = c.epoch(&input(1.0, 1, 0.005, &mut cum)).snapshot {
                last_snap = Some(s);
            }
        }
        assert_eq!(c.whitelist_len(), 0, "TTL expired the entry");
        let snap = last_snap.expect("expiry republishes");
        assert!(snap.whitelist.is_empty());
        assert_eq!(c.report().whitelist_expired, 1);
    }

    #[test]
    fn timeline_is_bounded() {
        // Shedding thresholds far out of reach so the timeline holds
        // mode switches only.
        let cfg = ControlConfig {
            timeline_capacity: 8,
            eta_lite_mpps: 2.0,
            eta_general_mpps: 1.0,
            shed_on_mpps: 1e9,
            shed_off_mpps: 1e8,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        // Alternate far above / far below the thresholds to force many
        // switches. EWMA needs a couple of epochs per side.
        for round in 0..200u64 {
            let rate = if (round / 4) % 2 == 0 { 10.0 } else { 0.1 };
            c.epoch(&input(rate, 1, 0.005, &mut cum));
        }
        let r = c.report();
        assert!(r.mode_switches > 8, "stress must overflow the bound");
        assert_eq!(r.timeline.len(), 8, "timeline stays at its bound");
        assert_eq!(
            r.timeline_dropped,
            r.mode_switches - 8,
            "drops are accounted"
        );
    }

    #[test]
    fn decision_audit_records_inputs_and_outputs() {
        let cfg = ControlConfig {
            shed_on_mpps: 4.0,
            shed_off_mpps: 1.5,
            shed_sustain_epochs: 2,
            decision_capacity: 4,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        let d = c.epoch(&input(10.0, 2, 0.005, &mut cum));
        assert_eq!(d.record.epoch, 1);
        assert!(d.record.offered_mpps > 4.0, "audit carries the input rate");
        assert_eq!(d.record.smoothed_mpps.len(), 2);
        assert_eq!(d.record.modes, d.modes);
        assert!(!d.record.shed);
        for _ in 0..6 {
            c.epoch(&input(10.0, 2, 0.005, &mut cum));
        }
        let r = c.report();
        assert_eq!(r.decisions.len(), 4, "ring holds its bound");
        assert_eq!(r.decisions_dropped, 3, "overflow is accounted");
        let last = r.decisions.last().unwrap();
        assert_eq!(last.epoch, 7, "newest record retained");
        assert!(last.shed, "sustained overload shows up in the audit");
        assert!(last.modes.iter().all(|&m| m == Mode::Lite));
        // The ring and the per-epoch decision carry identical records.
        assert_eq!(r.decisions[0].epoch, 4);
    }

    #[test]
    fn registered_counters_surface_in_registry() {
        let reg = Registry::new();
        let cfg = ControlConfig {
            shed_on_mpps: 1.0,
            shed_off_mpps: 0.5,
            shed_sustain_epochs: 1,
            ..ControlConfig::default()
        };
        let mut c = Controller::with_registry(cfg, &reg);
        let mut cum = Vec::new();
        for _ in 0..6 {
            c.epoch(&input(8.0, 2, 0.005, &mut cum));
        }
        let snap = reg.snapshot().with_prefix("control.");
        assert_eq!(snap.counter("control.epochs"), Some(6));
        assert!(snap.counter("control.mode_switches").unwrap_or(0) >= 2);
        assert_eq!(snap.gauge("control.shed_active"), Some(1.0));
        assert!(snap.gauge("control.smoothed_mpps{shard=0}").is_some());
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
    fn forced_shed_overrides_hysteresis_both_ways() {
        let mut c = Controller::new(ControlConfig::default());
        let mut cum = Vec::new();
        // Calm traffic, forced shed: engages in one epoch, no sustain
        // streak needed, and every shard goes Lite.
        c.admin_force_shed(Some(true));
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert!(d.shed, "forced shed ignores calm load");
        assert!(d.modes.iter().all(|&m| m == Mode::Lite));
        assert!(d.snapshot.expect("shed flip publishes").shed);

        // Overloaded traffic, forced off: shedding never engages.
        c.admin_force_shed(Some(false));
        for _ in 0..8 {
            let d = c.epoch(&input(50.0, 2, 0.005, &mut cum));
            assert!(!d.shed, "forced-off pins shedding under overload");
        }

        // Released: hysteresis resumes and overload re-engages it.
        c.admin_force_shed(None);
        let mut shed_again = false;
        for _ in 0..8 {
            shed_again |= c.epoch(&input(50.0, 2, 0.005, &mut cum)).shed;
        }
        assert!(shed_again, "hysteresis resumes after release");
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
        assert!(d.shed);
        assert_eq!(d.modes, [Mode::General, Mode::Lite], "pin > shed");
        assert_eq!(d.record.modes, d.modes, "the audit says what runs");
        // The epoch's events are the timeline's.
        assert_eq!(c.report().timeline, d.events);
        assert_eq!(
            d.events,
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
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert_eq!(d.modes, [Mode::Lite, Mode::General]);
        assert_eq!(d.events.len(), 3, "shed-off and one switch per shard");
        // Released: straight back to Algorithm 4's standing decision.
        assert!(c.admin(pin(None)));
        let d = c.epoch(&input(0.5, 2, 0.005, &mut cum));
        assert_eq!(d.modes, [Mode::General, Mode::General]);
        let r = c.report();
        assert_eq!(r.mode_switches, 4);
        assert_eq!(r.final_modes, d.modes);
    }

    #[test]
    fn new_segment_forgets_the_traffic_and_keeps_the_engine() {
        let cfg = ControlConfig {
            promote_pkts_per_epoch: 100,
            promote_epochs: 2,
            ..ControlConfig::default()
        };
        let mut c = Controller::new(cfg);
        let mut cum = Vec::new();
        assert!(c.admin(AdminCmd::ForceShed(Some(true))));
        assert!(c.admin(AdminCmd::BlacklistAdd(0xBAD)));
        let mut inp = input(1.0, 2, 0.005, &mut cum);
        inp.verdicts = vec![Verdict::Whitelist(key(7))];
        inp.heavy = vec![(0xAB, 500)];
        c.epoch(&inp);
        assert_eq!((c.whitelist_len(), c.blacklist_len()), (1, 1));

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
        assert_eq!(d.epoch, 2, "epochs run on");
        assert_eq!(c.whitelist_len(), 0);
        assert!((d.record.offered_mpps - 1.0).abs() < 1e-9);
        assert!(d.shed, "the shed pin stands");
    }
}
