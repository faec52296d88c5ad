//! The SmartWatch platform: switch + sNIC + host wired into the
//! cooperative two-stage detector with its control loop (paper §2.3, §3).
//!
//! Per monitoring interval the control loop:
//!
//! 1. reads the switch queries' over-threshold keys and asks each
//!    [`Refiner`] what to do — SmartWatch-mode refiners install steering
//!    rules (traffic subsets head to the sNIC from the next interval);
//!    Sonata-mode refiners zoom the query instead;
//! 2. snapshots the FlowCache and drains the eviction rings into the
//!    host's one cumulative flow store (`long_term`);
//! 3. whitelists the top-k heavy *benign* flows on the switch (the
//!    "hoverboard" intuition) and blacklists alert sources;
//! 4. runs the interval detectors (Slowloris & friends) over that
//!    store's records, read in place.
//!
//! Per packet, the deployment mode decides the path: everything through
//! the host (HostOnly), everything through sNIC+host (SnicHost), switch
//! pre-filtering with sNIC fine-graining (SmartWatch), or switch-only
//! aggregate detection (SwitchHost / Sonata).
//!
//! Every tier keeps its books in plain integers — the cache's
//! `CacheStats`, the switch's `SwitchStats`, the refiners' and the
//! aggregator's counts, and the platform's own [`TierMetrics`] — and
//! none holds a metric handle. Once [`SmartWatch::attach_telemetry`] is
//! called, the platform publishes them all through one publisher per
//! component at the boundary the control loop already has: attach,
//! every interval end, and `finish`.

use crate::deploy::DeployMode;
use crate::suite::{DetectorSuite, HostNeed};
use crate::tier::SnicTier;
use smartwatch_detect::{Alert, Subject};
use smartwatch_host::{aggregate, HostCostModel, SnapshotAggregator};
use smartwatch_net::{Dur, Packet, Ts};
use smartwatch_p4sim::{
    refine, switch, Decision, P4Switch, RefineMode, RefineOutcome, Refiner, SwitchQuery,
};
use smartwatch_snic::hw::service_time;
use smartwatch_snic::{
    cache_publisher, CycleCosts, FlowCache, FlowCacheConfig, NETRONOME_AGILIO_LX,
};
use smartwatch_telemetry::{Histogram, Level, Publisher, Registry, Tally, TraceShard, Tracer};

/// Platform configuration.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Deployment architecture.
    pub mode: DeployMode,
    /// Switch monitoring interval.
    pub interval: Dur,
    /// How many heavy benign flows to whitelist per interval.
    pub whitelist_top_k: usize,
    /// Minimum cumulative packets before a flow qualifies as "heavy"
    /// enough to whitelist (the hoverboard picks elephants, not mice).
    pub whitelist_min_packets: u64,
    /// FlowCache geometry.
    pub cache: FlowCacheConfig,
    /// Blacklist alert sources on the switch (intrusion *prevention*).
    pub blacklist_sources: bool,
    /// Let detector verdicts (e.g. successful SSH authentication)
    /// whitelist flows on the switch. Disable to isolate the top-k
    /// heavy-flow whitelisting when studying Fig. 2's trade-off.
    pub suite_whitelist: bool,
}

impl PlatformConfig {
    /// Defaults for a given mode: 1-second intervals, a 2^14-row cache
    /// (laptop-sized; pass 21 row bits for the paper's full table).
    pub fn new(mode: DeployMode) -> PlatformConfig {
        PlatformConfig {
            mode,
            interval: Dur::from_secs(1),
            whitelist_top_k: 64,
            whitelist_min_packets: 200,
            cache: FlowCacheConfig::general(14),
            blacklist_sources: true,
            suite_whitelist: true,
        }
    }
}

/// Where packets went and what they cost: the platform's tier ledger,
/// kept in plain integers as the packets go by.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierMetrics {
    /// Total packets offered.
    pub total: u64,
    /// Dropped by the switch blacklist.
    pub dropped: u64,
    /// Forwarded by the switch without monitoring-tier involvement.
    pub forwarded_direct: u64,
    /// Steered into the sNIC tier.
    pub snic_processed: u64,
    /// Escalated to host NFs.
    pub host_processed: u64,
    /// Sum of per-packet processing latency (ns) across monitored
    /// packets; each packet adds whole nanoseconds.
    pub latency_sum_ns: f64,
    /// Monitored packets (denominator for mean latency).
    pub monitored: u64,
    /// Packets whose FlowCache row was fully pinned (not in the host's
    /// flow store).
    pub unlogged: u64,
}

/// The platform's own counter families: the tier ledger (`core.tier.*`)
/// and the control loop's installs and intervals (`core.*`).
const CORE_COUNTERS: [(&str, Tally<SmartWatch>); 11] = [
    ("core.tier.total", |s| s.metrics.total),
    ("core.tier.dropped", |s| s.metrics.dropped),
    ("core.tier.forwarded_direct", |s| s.metrics.forwarded_direct),
    ("core.tier.snic_processed", |s| s.metrics.snic_processed),
    ("core.tier.host_processed", |s| s.metrics.host_processed),
    ("core.tier.latency_ns", |s| s.metrics.latency_sum_ns as u64),
    ("core.tier.monitored", |s| s.metrics.monitored),
    ("core.tier.unlogged", |s| s.metrics.unlogged),
    ("core.whitelist_installs", |s| s.whitelist_installs),
    ("core.blacklist_installs", |s| s.blacklist_installs),
    ("core.intervals", |s| s.interval_idx),
];

/// The platform's derived gauges: `host_processed / snic_processed`
/// (the paper bounds it ≤ 16%) and the steered share of traffic.
const CORE_GAUGES: [(&str, Level<SmartWatch>); 2] = [
    ("core.escalation_rate", |s| s.metrics.host_fraction()),
    ("core.steered_share", |s| {
        let m = s.metrics;
        if m.total == 0 {
            0.0
        } else {
            m.snic_processed as f64 / m.total as f64
        }
    }),
];

/// Every tier's publisher, and the histogram the platform records at
/// the event: held once [`SmartWatch::attach_telemetry`] is called.
struct PlatformTelemetry {
    core: Publisher<SmartWatch>,
    cache: Publisher<FlowCache>,
    switch: Publisher<P4Switch>,
    /// `refiners[i]` publishes the platform's `refiners[i]`.
    refiners: Vec<Publisher<Refiner>>,
    long_term: Publisher<SnapshotAggregator>,
    /// Virtual CPU time per snapshot-aggregation pass (cost model).
    snapshot_cpu_ns: Histogram,
}

impl TierMetrics {
    /// Mean per-packet processing latency over monitored packets, ns.
    pub fn mean_latency_ns(&self) -> f64 {
        if self.monitored == 0 {
            0.0
        } else {
            self.latency_sum_ns / self.monitored as f64
        }
    }

    /// Fraction of sNIC-tier packets that continued to the host.
    pub fn host_fraction(&self) -> f64 {
        if self.snic_processed == 0 {
            0.0
        } else {
            self.host_processed as f64 / self.snic_processed as f64
        }
    }
}

/// One Sonata on-switch detection: (/32 prefix, width, when).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SonataDetection {
    /// Detected prefix value.
    pub prefix: u32,
    /// Prefix width (always the finest ladder level).
    pub width: u8,
    /// Interval-end time of the detection.
    pub ts: Ts,
}

/// Output of a platform run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// All alerts raised (suite + interval detectors).
    pub alerts: Vec<Alert>,
    /// Tier/latency ledger.
    pub metrics: TierMetrics,
    /// Sonata-mode on-switch detections.
    pub sonata_detections: Vec<SonataDetection>,
    /// Bytes the switch steered to the sNIC tier.
    pub steered_bytes: u64,
    /// Whitelist entries installed over the run.
    pub whitelist_entries: usize,
    /// The host's cumulative flow store at the end of the run, the
    /// residual cache drain included: one record per flow, every export
    /// merged (paper §3.4; the offline analysis input).
    pub long_term: SnapshotAggregator,
}

/// The platform.
pub struct SmartWatch {
    cfg: PlatformConfig,
    /// The programmable switch (present in SmartWatch / SwitchHost modes).
    switch: P4Switch,
    /// The sNIC tier: FlowCache, detector suite and pinning rule.
    pub tier: SnicTier,
    /// Cumulative host view across all snapshots (paper §3.4: the host
    /// "collects and stores all flow-related information over multiple
    /// snapshots" — flow *durations* only exist here).
    long_term: SnapshotAggregator,
    refiners: Vec<Refiner>,
    costs: CycleCosts,
    metrics: TierMetrics,
    /// Flows the detector suite's verdicts whitelisted on the switch.
    whitelist_installs: u64,
    /// Alert sources blacklisted on the switch.
    blacklist_installs: u64,
    telemetry: Option<PlatformTelemetry>,
    trace: Option<TraceShard>,
    alerts: Vec<Alert>,
    sonata_detections: Vec<SonataDetection>,
    interval_idx: u64,
    next_interval: Ts,
    whitelist_entries: usize,
    /// Reused export scratch for snapshot/drain batches: after the
    /// first few intervals grow it to the working-set high-water mark,
    /// the per-interval export pass allocates nothing.
    export_scratch: Vec<smartwatch_snic::FlowRecord>,
    /// The cache's `processed` count at the last snapshot: while it has
    /// not moved no record's delta has, and the snapshot is skipped.
    snapshot_processed: u64,
}

impl SmartWatch {
    /// Build a platform; `refiner_specs` are the coarse base queries to
    /// run on the switch (ignored in switch-less modes).
    pub fn new(cfg: PlatformConfig, base_queries: Vec<SwitchQuery>) -> SmartWatch {
        let refine_mode = match cfg.mode {
            DeployMode::SwitchHost => RefineMode::Sonata,
            _ => RefineMode::SmartWatch,
        };
        let mut switch = P4Switch::new();
        let refiners: Vec<Refiner> = base_queries
            .into_iter()
            .map(|q| {
                // Each query's ladder starts at its own coarse width and
                // climbs through the paper's levels above it.
                let base_width = q.key.prefix_width().unwrap_or(8);
                let mut levels: Vec<u8> = std::iter::once(base_width)
                    .chain(
                        Refiner::paper_levels()
                            .into_iter()
                            .filter(|w| *w > base_width),
                    )
                    .collect();
                levels.dedup();
                Refiner::new(refine_mode, q, levels)
            })
            .collect();
        if uses_switch(cfg.mode) {
            for r in &refiners {
                assert!(
                    switch.install_query(r.initial_query()),
                    "monitoring stage budget exhausted at startup"
                );
            }
        }
        SmartWatch {
            tier: SnicTier::new(cfg.cache.clone()),
            switch,
            long_term: SnapshotAggregator::new(),
            refiners,
            costs: CycleCosts::default(),
            metrics: TierMetrics::default(),
            whitelist_installs: 0,
            blacklist_installs: 0,
            telemetry: None,
            trace: None,
            alerts: Vec::new(),
            sonata_detections: Vec::new(),
            interval_idx: 0,
            next_interval: Ts::ZERO + cfg.interval,
            whitelist_entries: 0,
            export_scratch: Vec::new(),
            snapshot_processed: 0,
            cfg,
        }
    }

    /// Replace the default detector suite (e.g. to attach registries).
    /// The suite must digest under the cache's seed — build it with
    /// `DetectorSuite::with_hasher(FlowHasher::new(cfg.cache.hash_seed))`
    /// — so one digest per packet serves both; any other seed panics.
    pub fn with_suite(mut self, suite: DetectorSuite) -> SmartWatch {
        let (theirs, ours) = (suite.hasher().seed(), self.cfg.cache.hash_seed);
        assert!(
            theirs == ours,
            "with_suite: suite seed {theirs:#x}, FlowCache seed {ours:#x}"
        );
        self.tier.suite = suite;
        self
    }

    /// Publish every tier into `registry`: the FlowCache
    /// (`snic.cache.*`), eviction rings (`snic.ring.*`), switch
    /// (`p4.switch.*`), refiners (`p4.refine.*`), the host flow store
    /// (`host.aggregate.*{agg=long_term}`), and the platform's own ledger
    /// and control-loop instruments (`core.*`). The counters and gauges
    /// are published now and at every interval end and
    /// [`SmartWatch::finish`], from books kept whether or not anything is
    /// attached, so attaching mid-run loses nothing. The histogram
    /// (`host.aggregate.snapshot_cpu_ns`) is recorded at the event, so it
    /// holds only events after the attach.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(PlatformTelemetry {
            core: Publisher::new(registry, &[])
                .counters(&CORE_COUNTERS)
                .gauges(&CORE_GAUGES),
            cache: cache_publisher(registry, &self.tier.cache().config().policy),
            switch: Publisher::new(registry, &[])
                .counters(&switch::COUNTERS)
                .gauges(&switch::GAUGES),
            refiners: self
                .refiners
                .iter()
                .map(|r| Publisher::new(registry, &r.labels()).counters(&refine::COUNTERS))
                .collect(),
            long_term: Publisher::new(registry, &[("agg", "long_term")])
                .counters(&aggregate::COUNTERS)
                .gauges(&aggregate::GAUGES),
            snapshot_cpu_ns: registry.histogram("host.aggregate.snapshot_cpu_ns", &[]),
        });
        self.publish();
    }

    /// Emit control-loop events (interval boundaries, refinement
    /// outcomes) onto one track of `tracer`, stamped with the virtual
    /// clock.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace = Some(tracer.shard("control-loop"));
    }

    /// Bring every attached cell up to the tiers' books — at the
    /// boundaries a virtual-time run has: attach, interval end, finish.
    fn publish(&mut self) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        t.core.publish(self);
        t.cache.publish(self.tier.cache());
        t.switch.publish(&self.switch);
        for (books, r) in t.refiners.iter_mut().zip(&self.refiners) {
            books.publish(r);
        }
        t.long_term.publish(&self.long_term);
        self.telemetry = Some(t);
    }

    /// Process one packet.
    pub fn on_packet(&mut self, pkt: &Packet) {
        while pkt.ts >= self.next_interval {
            let at = self.next_interval;
            self.end_interval(at);
            self.next_interval = at + self.cfg.interval;
        }
        self.metrics.total += 1;
        if uses_switch(self.cfg.mode) {
            match self.switch.process(pkt) {
                Decision::Drop => {
                    self.metrics.dropped += 1;
                    return;
                }
                Decision::Forward => {
                    self.metrics.forwarded_direct += 1;
                    return;
                }
                Decision::Steer => {}
            }
        }
        self.metrics.monitored += 1;
        let host_latency = HostCostModel::default().host_path_latency(pkt.wire_len);
        if self.cfg.mode == DeployMode::SwitchHost {
            // Sonata: steered packets burn host CPU but there is no
            // flow-state tier; detection happens via query refinement.
            self.metrics.host_processed += 1;
            self.charge(host_latency.as_nanos());
            return;
        }

        // The sNIC tier, one digest for the FlowCache and the suite.
        // HostOnly sends every packet to the host NFs, which keep their
        // own flow table (the tier stands in for it) so flow-store driven
        // detectors still run; it is charged at host rates only.
        let host_only = self.cfg.mode == DeployMode::HostOnly;
        let flow = self.tier.suite.hasher().flow_digest(&pkt.key);
        let access = self.tier.process(pkt, &flow);
        if !host_only {
            self.metrics.snic_processed += 1;
            if access.outcome == smartwatch_snic::Outcome::ToHost {
                self.metrics.unlogged += 1;
            }
            let (busy, wait) = service_time(&NETRONOME_AGILIO_LX, &self.costs, &access);
            self.charge((busy + wait) as u64);
        }
        let outcome = self.tier.inspect(pkt, &flow);
        let to_host = host_only || outcome.host == HostNeed::Host;
        let alerts = outcome.alerts.clone();
        if self.cfg.suite_whitelist && uses_switch(self.cfg.mode) {
            for flow in &outcome.whitelist {
                self.switch.whitelist(*flow);
                self.whitelist_entries += 1;
                self.whitelist_installs += 1;
            }
        }
        self.ingest_alerts(alerts);
        if to_host {
            self.metrics.host_processed += 1;
            self.charge(host_latency.as_nanos());
        }
    }

    /// Add one packet's processing latency, in whole nanoseconds.
    fn charge(&mut self, ns: u64) {
        self.metrics.latency_sum_ns += ns as f64;
    }

    fn ingest_alerts(&mut self, alerts: Vec<Alert>) {
        for a in alerts {
            if self.cfg.blacklist_sources && uses_switch(self.cfg.mode) {
                if let Subject::Source(src) = a.subject {
                    self.switch.blacklist(src);
                    self.blacklist_installs += 1;
                }
            }
            self.alerts.push(a);
        }
    }

    /// Interval boundary: control loop + exports + interval detectors.
    fn end_interval(&mut self, now: Ts) {
        // 1. Switch query results drive refinement / steering.
        if uses_switch(self.cfg.mode) {
            let results = self.switch.end_interval();
            let mut outcomes = Vec::with_capacity(self.refiners.len());
            for r in &mut self.refiners {
                // Collect this refiner's results under any of its level
                // names (name@width).
                let initial = r.initial_query();
                let base = base_name(&initial.name);
                let over: Vec<(u64, u64)> = results
                    .iter()
                    .filter(|(name, _)| base_name(name) == base)
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect();
                outcomes.push((r.on_results(&over), initial));
            }
            for (outcome, initial) in outcomes {
                // Control-loop decisions land on the trace instead of
                // stderr; restarts are the steady state and stay silent.
                if let Some(shard) = &self.trace {
                    match &outcome {
                        RefineOutcome::SteerSubsets(r) => shard.instant(
                            now,
                            format!("steer {} ({} rules)", initial.name, r.len()),
                            "refine",
                        ),
                        RefineOutcome::NextQuery(q) => {
                            shard.instant(now, format!("zoom {}", q.name), "refine")
                        }
                        RefineOutcome::Detected(p) => shard.instant(
                            now,
                            format!("detected {} ({} prefixes)", initial.name, p.len()),
                            "refine",
                        ),
                        RefineOutcome::Restart(_) => {}
                    }
                }
                match outcome {
                    RefineOutcome::SteerSubsets(rules) => {
                        for rule in rules {
                            self.switch.install_steer(rule);
                        }
                    }
                    RefineOutcome::NextQuery(q) => {
                        // Sonata zoom: swap the installed query.
                        self.replace_refiner_query(q);
                    }
                    RefineOutcome::Detected(prefixes) => {
                        for (prefix, width) in prefixes {
                            self.sonata_detections.push(SonataDetection {
                                prefix,
                                width,
                                ts: now,
                            });
                        }
                        self.replace_refiner_query(initial);
                    }
                    RefineOutcome::Restart(q) => {
                        self.replace_refiner_query(q);
                    }
                }
            }
        }

        // 2. sNIC exports: snapshot deltas + ring drains → the host's
        // cumulative store. The snapshot lands in the reused scratch
        // buffer, so steady-state intervals allocate nothing for it. An
        // interval the cache processed no packet in has no delta to
        // export, so its row scan is skipped.
        let processed = self.tier.cache().stats().processed();
        if processed == self.snapshot_processed {
            self.export_scratch.clear();
        } else {
            self.tier.snapshot_delta_into(&mut self.export_scratch);
            self.snapshot_processed = processed;
        }
        let export_count = self.export_scratch.len();
        self.long_term
            .ingest_batch(self.export_scratch.iter().copied());
        let evicted = self.tier.drain_evicted();
        let export_count = (export_count + evicted.len()) as u64;
        self.long_term.ingest_batch(evicted);
        // Virtual CPU cost of this aggregation pass (the paper's
        // snapshot-thread budget).
        let snapshot_cpu = HostCostModel::default().snapshot_cpu(export_count);
        if let Some(t) = &self.telemetry {
            t.snapshot_cpu_ns.record_dur(snapshot_cpu);
        }
        if let Some(shard) = &self.trace {
            shard.span(
                now,
                snapshot_cpu,
                format!("aggregate {export_count} exports"),
                "host",
            );
        }

        // 3. Whitelist top-k heavy benign flows (hoverboard): elephants
        // by cumulative count, never mice — whitelisting a low-and-slow
        // flow would blind the fine-grained tier to exactly the traffic
        // it exists for. An interval that exported nothing left the
        // store, and so its top k, as the last one whitelisted them.
        if uses_switch(self.cfg.mode) && self.cfg.whitelist_top_k > 0 {
            if export_count > 0 {
                for rec in self.long_term.top_k(self.cfg.whitelist_top_k) {
                    if rec.packets >= self.cfg.whitelist_min_packets {
                        self.switch.whitelist(rec.key);
                    }
                }
            }
            self.whitelist_entries = self.switch.whitelist_len();
        }

        // 4. Run the interval detectors over the *cumulative* records
        // (durations), borrowed from the store.
        let interval_alerts = self.tier.suite.end_interval(self.long_term.iter(), now);
        self.ingest_alerts(interval_alerts);
        self.interval_idx += 1;
        self.publish();
    }

    fn replace_refiner_query(&mut self, q: SwitchQuery) {
        // Remove any same-base query at another level, then install.
        let base = base_name(&q.name);
        let stale: Vec<String> = self
            .switch
            .query_names()
            .into_iter()
            .filter(|n| base_name(n) == base)
            .map(String::from)
            .collect();
        for n in stale {
            self.switch.remove_query(&n);
        }
        // The stale removal freed this query's stages; re-installation at
        // another granularity costs the same, so this cannot fail.
        let installed = self.switch.install_query(q);
        debug_assert!(installed, "refined query lost its stages");
    }

    /// Finish the run: close the last interval and final-sweep detectors.
    pub fn finish(mut self, now: Ts) -> RunReport {
        self.end_interval(now);
        let final_alerts = self.tier.suite.finish(now);
        self.ingest_alerts(final_alerts);
        // Drain the residual cache so the flow store is complete (one last
        // pass through the reused scratch; finish() runs once, but the
        // discipline keeps the allocation profile flat to the end).
        self.tier.drain_all_into(&mut self.export_scratch);
        self.long_term
            .ingest_batch(self.export_scratch.iter().copied());
        self.publish();
        RunReport {
            alerts: self.alerts,
            metrics: self.metrics,
            sonata_detections: self.sonata_detections,
            steered_bytes: self.switch.stats().steered_bytes,
            whitelist_entries: self.whitelist_entries,
            long_term: self.long_term,
        }
    }

    /// Convenience: run a whole packet stream.
    pub fn run(mut self, packets: &[Packet]) -> RunReport {
        for p in packets {
            self.on_packet(p);
        }
        let end = packets.last().map(|p| p.ts).unwrap_or(Ts::ZERO) + Dur::from_secs(1);
        self.finish(end)
    }
}

fn uses_switch(mode: DeployMode) -> bool {
    matches!(mode, DeployMode::SmartWatch | DeployMode::SwitchHost)
}

/// A refined query's name without its `@width` level.
fn base_name(name: &str) -> &str {
    name.split('@').next().unwrap_or("")
}

/// The paper's standing coarse queries for the cooperative experiments.
pub fn standard_queries() -> Vec<SwitchQuery> {
    vec![
        SwitchQuery::ssh_attempts(8, 10),
        SwitchQuery {
            name: "ftp-attempts".into(),
            filter: smartwatch_p4sim::Filter::And(
                Box::new(smartwatch_p4sim::Filter::DstPort(21)),
                Box::new(smartwatch_p4sim::Filter::SynOnly),
            ),
            key: smartwatch_p4sim::KeyExpr::DstPrefix(8),
            distinct: None,
            threshold: 10,
        },
        SwitchQuery::scan_probes(8, 12),
        SwitchQuery {
            name: "conn-attempts".into(),
            filter: smartwatch_p4sim::Filter::SynOnly,
            key: smartwatch_p4sim::KeyExpr::DstPrefix(24),
            distinct: None,
            threshold: 48,
        },
        // RSTs aggregate on their *sender* side: a forged RST spoofs the
        // victim server's address, so the victim /24 accumulates counts
        // even though the targeted clients are scattered.
        SwitchQuery {
            name: "rst".into(),
            filter: smartwatch_p4sim::Filter::Rst,
            key: smartwatch_p4sim::KeyExpr::SrcPrefix(24),
            distinct: None,
            threshold: 8,
        },
        SwitchQuery::dns_responses(24, 48),
        SwitchQuery::conn_fanout(24, 64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::AttackKind;
    use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
    use smartwatch_trace::background::{preset_trace, Preset};
    use smartwatch_trace::Trace;

    fn mixed_trace() -> Trace {
        let bg = preset_trace(Preset::Caida2018, 400, Dur::from_secs(4), 3);
        let scan = portscan(&ScanConfig::with_delay(Dur::from_millis(40), 80, 4));
        Trace::merge([bg, scan])
    }

    #[test]
    fn smartwatch_mode_detects_scan_with_low_monitoring_share() {
        let trace = mixed_trace();
        let sw = SmartWatch::new(
            PlatformConfig::new(DeployMode::SmartWatch),
            standard_queries(),
        );
        let report = sw.run(trace.packets());
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.kind == AttackKind::StealthyPortScan),
            "scan must be detected"
        );
        let m = report.metrics;
        // The switch forwards the bulk directly.
        assert!(
            m.forwarded_direct > m.snic_processed,
            "bulk should bypass the sNIC: fwd={} snic={}",
            m.forwarded_direct,
            m.snic_processed
        );
    }

    #[test]
    fn snic_offload_cuts_processing_latency() {
        // The paper's 72.32% claim compares processing the same traffic
        // on the sNIC+host partitioning vs entirely on the host.
        let trace = mixed_trace();
        let host_rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::HostOnly), vec![]).run(trace.packets());
        let snic_rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
        assert!(host_rep
            .alerts
            .iter()
            .any(|a| a.kind == AttackKind::StealthyPortScan));
        let reduction =
            1.0 - snic_rep.metrics.mean_latency_ns() / host_rep.metrics.mean_latency_ns();
        assert!(
            reduction > 0.5,
            "sNIC offload should cut mean processing latency sharply: {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn snic_host_mode_monitors_everything() {
        let trace = mixed_trace();
        let rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
        assert_eq!(rep.metrics.snic_processed, rep.metrics.total);
        assert!(rep.metrics.host_fraction() < 0.20);
    }

    #[test]
    fn sonata_mode_produces_switch_detections_only() {
        let trace = mixed_trace();
        let rep = SmartWatch::new(
            PlatformConfig::new(DeployMode::SwitchHost),
            standard_queries(),
        )
        .run(trace.packets());
        // Sonata raises no flow-level alerts (no sNIC tier) …
        assert!(rep.alerts.is_empty());
        // … but the zoom pipeline should reach /32 on the scanner.
        assert!(
            !rep.sonata_detections.is_empty(),
            "refinement should reach terminal detections"
        );
    }

    #[test]
    fn blacklisted_scanner_gets_dropped() {
        let trace = mixed_trace();
        let sw = SmartWatch::new(
            PlatformConfig::new(DeployMode::SmartWatch),
            standard_queries(),
        );
        let rep = sw.run(trace.packets());
        // After the alert fires, subsequent scanner packets are dropped at
        // the switch — prevention, not just detection.
        assert!(rep.metrics.dropped > 0, "post-alert packets should drop");
    }

    #[test]
    fn attaching_mid_run_loses_no_count_and_no_gauge() {
        let trace = mixed_trace();
        let platform = || {
            SmartWatch::new(
                PlatformConfig::new(DeployMode::SmartWatch),
                standard_queries(),
            )
        };
        let (early, late) = (Registry::new(), Registry::new());
        let mut a = platform();
        a.attach_telemetry(&early);
        let mut b = platform();
        for p in trace.packets() {
            a.on_packet(p);
            b.on_packet(p);
            if b.interval_idx == 1 && b.telemetry.is_none() {
                b.attach_telemetry(&late);
            }
        }
        assert!(b.telemetry.is_some() && b.interval_idx > 1);
        let end = trace.packets().last().unwrap().ts + Dur::from_secs(1);
        a.finish(end);
        b.finish(end);
        let (early, late) = (early.snapshot(), late.snapshot());
        assert!(early.counter("core.intervals").unwrap() > 1);
        assert!(early.counter("core.blacklist_installs").unwrap() > 0);
        assert!(
            early
                .counter("host.aggregate.exports_in{agg=long_term}")
                .unwrap()
                > 0
        );
        assert_eq!(early.counters, late.counters);
        assert_eq!(early.gauges, late.gauges);
        // The histogram is recorded at the event: the late registry
        // never saw the first interval's aggregation pass.
        let passes = |s: &smartwatch_telemetry::export::Snapshot| {
            s.histogram("host.aggregate.snapshot_cpu_ns").unwrap().count
        };
        assert_eq!(passes(&early), passes(&late) + 1);
    }

    #[test]
    fn interval_exports_reuse_the_scratch_buffer() {
        // Zero-growth discipline for the snapshot path: each interval's
        // snapshot_delta lands in the reused scratch Vec, so once the
        // first intervals have sized it to the working set, snapshots
        // stop allocating — capacity over the second half of the run is
        // flat, and never exceeds the cache's slot count.
        let trace = preset_trace(Preset::Caida2018, 200, Dur::from_secs(6), 21);
        let mut sw = SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]);
        let mut caps = Vec::new();
        let mut last_interval = 0;
        for p in trace.packets() {
            sw.on_packet(p);
            if sw.interval_idx != last_interval {
                last_interval = sw.interval_idx;
                caps.push(sw.export_scratch.capacity());
            }
        }
        assert!(
            caps.len() >= 4,
            "trace must span several snapshot intervals, got {}",
            caps.len()
        );
        let cfg = sw.tier.cache().config();
        let slots = cfg.rows() * cfg.buckets_per_row();
        assert!(caps.iter().all(|&c| c <= slots));
        assert!(*caps.last().unwrap() > 0, "snapshots are non-empty");
        let tail = &caps[caps.len() / 2..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "scratch capacity must stop growing once warmed: {caps:?}"
        );
    }

    /// The platform's half of the shard's `an_authenticated_session_is_released`:
    /// in `SnicHost` mode the successful login of a brute force ends
    /// resident and unpinned.
    #[test]
    fn an_authenticated_session_is_released() {
        use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
        let mut cfg = BruteforceConfig::ssh(std::net::Ipv4Addr::new(10, 0, 0, 1), Ts::ZERO, 5);
        cfg.final_success = true;
        let trace = bruteforce(&cfg);
        let mut sw = SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]);
        let mut sizes = std::collections::HashMap::new();
        for p in trace.packets() {
            sw.on_packet(p);
            *sizes.entry(p.key.canonical().0).or_insert(0u32) += 1;
        }
        let (session, _) = sizes.iter().max_by_key(|(_, n)| **n).unwrap();
        let rec = sw.tier.cache().get(session).expect("resident");
        assert!(!rec.pinned, "the benign verdict released the session");
    }

    /// A suite seeded unlike the cache would need a second digest per
    /// packet: `with_suite` refuses it, naming both seeds.
    #[test]
    fn a_suite_seeded_unlike_the_cache_is_refused() {
        let refused = std::panic::catch_unwind(|| {
            SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![])
                .with_suite(DetectorSuite::new())
        });
        let err = refused
            .err()
            .expect("with_suite(DetectorSuite::new()) panics");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.contains("suite seed 0x0,") && msg.contains("FlowCache seed 0x51cc"),
            "{msg}"
        );
        // The cache's seed is accepted.
        let seed = PlatformConfig::new(DeployMode::SnicHost).cache.hash_seed;
        let suite = DetectorSuite::with_hasher(smartwatch_net::FlowHasher::new(seed));
        SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).with_suite(suite);
    }

    #[test]
    fn flow_logs_reconstruct_monitored_packet_counts() {
        let trace = preset_trace(Preset::Caida2018, 100, Dur::from_secs(2), 9);
        let rep =
            SmartWatch::new(PlatformConfig::new(DeployMode::SnicHost), vec![]).run(trace.packets());
        let logged: u64 = rep.long_term.iter().map(|r| r.packets).sum();
        // Lossless export: every sNIC-processed packet is accounted for
        // in the host's flow store (to-host escalations still update
        // records).
        assert_eq!(logged, rep.metrics.snic_processed - rep.metrics.unlogged);
    }
}
