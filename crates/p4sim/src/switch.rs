//! The P4Switch pipeline simulator.
//!
//! Models what SmartWatch needs from a Tofino-class switch: line-rate
//! forwarding with a match-action pipeline that (a) runs coarse telemetry
//! queries, (b) steers suspicious traffic subsets to the sNIC, (c) holds
//! whitelist/blacklist tables installed by the control loop, and (d)
//! accounts for the SRAM all of this occupies against a Tofino-like
//! budget (the lever behind Figs. 2 and 9).
//!
//! Per-packet behaviour (§3.1 "Selective bump-in-the-wire processing"):
//! blacklisted sources drop; whitelisted flows forward untouched (benign
//! heavy flows skip the sNIC detour); flows matching an installed steer
//! rule go to the sNIC; everything else forwards directly.

use crate::query::{QueryState, SwitchQuery};
use crate::table::{ExactTable, TERNARY_ENTRY_BYTES};
use smartwatch_net::{key::prefix_of, FlowKey, Packet};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Forwarding decision for one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Forward straight to the destination.
    Forward,
    /// Divert through the sNIC-host subsystem ("bump in the wire").
    Steer,
    /// Drop (blacklisted source).
    Drop,
}

/// A traffic-subset steering rule: packets whose destination (or source)
/// prefix matches are diverted to the sNIC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SteerRule {
    /// Prefix value (network-aligned).
    pub prefix: u32,
    /// Prefix width in bits.
    pub width: u8,
    /// Match on source (true) or destination (false) address.
    pub on_src: bool,
    /// Optional service-port constraint.
    pub dst_port: Option<u16>,
}

impl SteerRule {
    /// Destination-prefix rule.
    pub fn dst(prefix: u32, width: u8) -> SteerRule {
        SteerRule {
            prefix,
            width,
            on_src: false,
            dst_port: None,
        }
    }

    /// Source-prefix rule.
    pub fn src(prefix: u32, width: u8) -> SteerRule {
        SteerRule {
            prefix,
            width,
            on_src: true,
            dst_port: None,
        }
    }

    /// Add a destination-port constraint.
    pub(crate) fn with_port(mut self, port: u16) -> SteerRule {
        self.dst_port = Some(port);
        self
    }

    /// Does a packet match?
    ///
    /// Matching is *session-symmetric*: a rule keyed on the suspicious
    /// subset's source (destination) also diverts the reverse-direction
    /// packets of those sessions, because the sNIC's flow-state tracking
    /// needs to see responses (handshake outcomes, racing data). The
    /// switch implements this with the same symmetric hashing the
    /// FlowCache uses (§4).
    pub fn matches(&self, p: &Packet) -> bool {
        if let Some(port) = self.dst_port {
            if p.key.dst_port != port && p.key.src_port != port {
                return false;
            }
        }
        let (fwd, rev) = if self.on_src {
            (p.key.src_ip, p.key.dst_ip)
        } else {
            (p.key.dst_ip, p.key.src_ip)
        };
        prefix_of(fwd, self.width) == self.prefix || prefix_of(rev, self.width) == self.prefix
    }
}

/// Tofino-like SRAM budget.
#[derive(Clone, Copy, Debug)]
pub struct SramBudget {
    /// Match-action stages.
    pub stages: u32,
    /// SRAM per stage, bytes (the paper quotes 32 Mb = 4 MB per stage).
    pub bytes_per_stage: usize,
    /// Stages available to monitoring queries (the rest serve forwarding,
    /// ACLs, encapsulation — the paper's "common data center operations").
    pub monitoring_stages: u32,
}

impl Default for SramBudget {
    fn default() -> SramBudget {
        SramBudget {
            stages: 12,
            bytes_per_stage: 4 * 1024 * 1024,
            monitoring_stages: 10,
        }
    }
}

impl SramBudget {
    /// Total SRAM bytes.
    pub fn total(&self) -> usize {
        self.stages as usize * self.bytes_per_stage
    }
}

/// Pipeline stages one query occupies: one for its filter/reduce pair,
/// one more if it carries a distinct-filter (two sequential memory
/// operations cannot share a stage — the constraint §2.2.1 describes).
pub(crate) fn query_stages(q: &SwitchQuery) -> u32 {
    if q.distinct.is_some() {
        2
    } else {
        1
    }
}

/// The switch's books: per-run packet counts, kept in plain integers
/// as the packets go by.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Packets forwarded directly.
    pub(crate) forwarded: u64,
    /// Packets steered to the sNIC.
    pub(crate) steered: u64,
    /// Packets dropped by the blacklist.
    pub(crate) dropped: u64,
    /// Bytes steered to the sNIC (Fig. 2's x-axis).
    pub steered_bytes: u64,
    /// Packets that bypassed steering due to the whitelist.
    pub(crate) whitelist_hits: u64,
}

/// Reads one metric's value out of the switch.
type Reading<T> = fn(&P4Switch) -> T;

/// The switch's counter families: each `p4.switch.*` counter and the
/// tally of [`SwitchStats`] it carries, for its owner's publisher.
pub const COUNTERS: [(&str, Reading<u64>); 5] = [
    ("p4.switch.forwarded", |s| s.stats.forwarded),
    ("p4.switch.steered", |s| s.stats.steered),
    ("p4.switch.dropped", |s| s.stats.dropped),
    ("p4.switch.steered_bytes", |s| s.stats.steered_bytes),
    ("p4.switch.whitelist_hits", |s| s.stats.whitelist_hits),
];

/// The switch's occupancy gauges: SRAM bytes and fraction, stages used
/// and table sizes, read from the installed state when published (an
/// owner publishes after its interval end, when the query state has
/// just been cleared).
pub const GAUGES: [(&str, Reading<f64>); 6] = [
    ("p4.switch.sram_bytes", |s| s.sram_bytes() as f64),
    ("p4.switch.sram_occupancy", P4Switch::sram_occupancy),
    ("p4.switch.stages_used", |s| f64::from(s.stages_used())),
    ("p4.switch.whitelist_entries", |s| s.whitelist.len() as f64),
    ("p4.switch.blacklist_entries", |s| {
        s.blacklist_src.len() as f64
    }),
    ("p4.switch.steer_rules", |s| s.steer_rules.len() as f64),
];

/// The P4 switch.
#[derive(Clone, Debug)]
pub struct P4Switch {
    queries: Vec<(SwitchQuery, QueryState)>,
    /// Steering rules live in TCAM (ternary prefix + optional port).
    steer_rules: Vec<SteerRule>,
    /// Exact-match whitelist of benign flows.
    whitelist: ExactTable<FlowKey, ()>,
    /// Exact-match source blacklist.
    blacklist_src: ExactTable<Ipv4Addr, ()>,
    budget: SramBudget,
    stats: SwitchStats,
}

impl P4Switch {
    /// Switch with the default Tofino-like budget.
    pub fn new() -> P4Switch {
        P4Switch::with_budget(SramBudget::default())
    }

    /// Switch with an explicit SRAM budget.
    pub(crate) fn with_budget(budget: SramBudget) -> P4Switch {
        P4Switch {
            queries: Vec::new(),
            steer_rules: Vec::new(),
            whitelist: ExactTable::new(),
            blacklist_src: ExactTable::new(),
            budget,
            stats: SwitchStats::default(),
        }
    }

    /// Install a telemetry query (Sonata-interface equivalent). Returns
    /// `false` — installing nothing — if the monitoring stage budget is
    /// exhausted (the hardware constraint that motivates cooperative
    /// monitoring in the first place).
    pub fn install_query(&mut self, q: SwitchQuery) -> bool {
        if self.stages_used() + query_stages(&q) > self.budget.monitoring_stages {
            return false;
        }
        self.queries.push((q, QueryState::default()));
        true
    }

    /// Pipeline stages consumed by installed queries.
    pub(crate) fn stages_used(&self) -> u32 {
        self.queries.iter().map(|(q, _)| query_stages(q)).sum()
    }

    /// Remove a query by name; returns true if it existed.
    pub fn remove_query(&mut self, name: &str) -> bool {
        let before = self.queries.len();
        self.queries.retain(|(q, _)| q.name != name);
        self.queries.len() != before
    }

    /// Installed query names.
    pub fn query_names(&self) -> Vec<&str> {
        self.queries.iter().map(|(q, _)| q.name.as_str()).collect()
    }

    /// Install a steering rule (idempotent).
    pub fn install_steer(&mut self, rule: SteerRule) {
        if !self.steer_rules.contains(&rule) {
            self.steer_rules.push(rule);
        }
    }

    /// Whitelist a benign flow (exact-match table entry).
    pub fn whitelist(&mut self, key: FlowKey) {
        self.whitelist.insert(key.canonical().0, ());
    }

    /// Number of whitelist entries (Fig. 2's switch-state driver).
    pub fn whitelist_len(&self) -> usize {
        self.whitelist.len()
    }

    /// Blacklist a source address.
    pub fn blacklist(&mut self, src: Ipv4Addr) {
        self.blacklist_src.insert(src, ());
    }

    /// Process one packet through the pipeline.
    pub fn process(&mut self, p: &Packet) -> Decision {
        if self.blacklist_src.lookup(&p.key.src_ip).is_some() {
            self.stats.dropped += 1;
            return Decision::Drop;
        }
        // Passive telemetry: queries observe every non-dropped packet.
        for (q, st) in &mut self.queries {
            if q.filter.matches(p) {
                st.update(q, p);
            }
        }
        if self.whitelist.lookup(&p.key.canonical().0).is_some() {
            self.stats.whitelist_hits += 1;
            self.stats.forwarded += 1;
            return Decision::Forward;
        }
        if self.steer_rules.iter().any(|r| r.matches(p)) {
            self.stats.steered += 1;
            self.stats.steered_bytes += u64::from(p.wire_len);
            return Decision::Steer;
        }
        self.stats.forwarded += 1;
        Decision::Forward
    }

    /// End the monitoring interval: return, per query, the keys that
    /// crossed their thresholds, and reset query state.
    pub fn end_interval(&mut self) -> HashMap<String, Vec<(u64, u64)>> {
        let mut out = HashMap::new();
        for (q, st) in &mut self.queries {
            let over = st.over_threshold(q);
            if !over.is_empty() {
                out.insert(q.name.clone(), over);
            }
            st.clear();
        }
        out
    }

    /// Current SRAM occupancy in bytes: query state + exact-match
    /// whitelist/blacklist entries + steering TCAM (charged at the TCAM
    /// premium).
    pub(crate) fn sram_bytes(&self) -> usize {
        let queries: usize = self.queries.iter().map(|(_, st)| st.sram_bytes()).sum();
        queries
            + self.whitelist.sram_bytes()
            + self.blacklist_src.sram_bytes()
            + self.steer_rules.len() * TERNARY_ENTRY_BYTES
    }

    /// Occupancy as a fraction of the budget.
    pub(crate) fn sram_occupancy(&self) -> f64 {
        self.sram_bytes() as f64 / self.budget.total() as f64
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }
}

impl Default for P4Switch {
    fn default() -> Self {
        P4Switch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, TcpFlags, Ts};

    fn pkt(src: [u8; 4], dst: [u8; 4], dport: u16, flags: TcpFlags) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::from(src), 40000, Ipv4Addr::from(dst), dport);
        PacketBuilder::new(key, Ts::ZERO).flags(flags).build()
    }

    #[test]
    fn default_is_forward() {
        let mut sw = P4Switch::new();
        assert_eq!(
            sw.process(&pkt([10, 0, 0, 1], [172, 16, 0, 1], 80, TcpFlags::SYN)),
            Decision::Forward
        );
        assert_eq!(sw.stats().forwarded, 1);
    }

    #[test]
    fn steer_rule_matches_prefix_and_port() {
        let mut sw = P4Switch::new();
        let prefix = u32::from(Ipv4Addr::new(172, 16, 0, 0));
        sw.install_steer(SteerRule::dst(prefix, 16).with_port(22));
        assert_eq!(
            sw.process(&pkt([10, 0, 0, 1], [172, 16, 3, 4], 22, TcpFlags::SYN)),
            Decision::Steer
        );
        // Wrong port: forwarded.
        assert_eq!(
            sw.process(&pkt([10, 0, 0, 1], [172, 16, 3, 4], 80, TcpFlags::SYN)),
            Decision::Forward
        );
        // Wrong prefix: forwarded.
        assert_eq!(
            sw.process(&pkt([10, 0, 0, 1], [172, 17, 3, 4], 22, TcpFlags::SYN)),
            Decision::Forward
        );
        assert_eq!(sw.stats().steered, 1);
        assert!(sw.stats().steered_bytes >= 64);
    }

    #[test]
    fn whitelist_overrides_steer() {
        let mut sw = P4Switch::new();
        let prefix = u32::from(Ipv4Addr::new(172, 16, 0, 0));
        sw.install_steer(SteerRule::dst(prefix, 16));
        let p = pkt([10, 0, 0, 1], [172, 16, 3, 4], 22, TcpFlags::SYN);
        assert_eq!(sw.process(&p), Decision::Steer);
        sw.whitelist(p.key);
        assert_eq!(sw.process(&p), Decision::Forward);
        // Reverse direction is also whitelisted (canonical key).
        let rev = PacketBuilder::new(p.key.reversed(), Ts::ZERO).build();
        assert_eq!(sw.process(&rev), Decision::Forward);
        assert_eq!(sw.stats().whitelist_hits, 2);
    }

    #[test]
    fn blacklist_drops_before_anything() {
        let mut sw = P4Switch::new();
        sw.blacklist(Ipv4Addr::new(198, 18, 0, 1));
        let p = pkt([198, 18, 0, 1], [172, 16, 0, 1], 22, TcpFlags::SYN);
        assert_eq!(sw.process(&p), Decision::Drop);
    }

    #[test]
    fn stage_budget_limits_queries() {
        let mut sw = P4Switch::with_budget(SramBudget {
            monitoring_stages: 3,
            ..SramBudget::default()
        });
        assert!(sw.install_query(SwitchQuery::ssh_attempts(8, 1))); // 1 stage
        assert!(sw.install_query(SwitchQuery::scan_probes(8, 1))); // 2 stages
        assert_eq!(sw.stages_used(), 3);
        assert!(
            !sw.install_query(SwitchQuery::dns_responses(8, 1)),
            "budget full"
        );
        assert!(sw.remove_query("ssh-attempts-d8"));
        assert!(
            sw.install_query(SwitchQuery::dns_responses(8, 1)),
            "freed a stage"
        );
    }

    #[test]
    fn queries_observe_and_report_at_interval_end() {
        let mut sw = P4Switch::new();
        sw.install_query(SwitchQuery::ssh_attempts(16, 3));
        for i in 0..5u8 {
            sw.process(&pkt([10, 0, 0, i], [172, 16, 0, 9], 22, TcpFlags::SYN));
        }
        let results = sw.end_interval();
        assert_eq!(results.len(), 1);
        let over = &results["ssh-attempts-d16"];
        assert_eq!(over[0].1, 5);
        // State reset after interval.
        assert!(sw.end_interval().is_empty());
    }

    #[test]
    fn sram_accounting_grows_with_state() {
        let mut sw = P4Switch::new();
        let empty = sw.sram_bytes();
        sw.install_query(SwitchQuery::ssh_attempts(16, 3));
        for i in 0..50u8 {
            sw.process(&pkt([10, 0, i, 1], [172, 16, i, 9], 22, TcpFlags::SYN));
        }
        let with_queries = sw.sram_bytes();
        assert!(with_queries > empty);
        for i in 0..100u32 {
            sw.whitelist(FlowKey::tcp(
                Ipv4Addr::from(0x0A000000 + i),
                1,
                Ipv4Addr::from(0xAC100001u32),
                80,
            ));
        }
        assert_eq!(sw.sram_bytes(), with_queries + 100 * 32);
        assert!(sw.sram_occupancy() > 0.0 && sw.sram_occupancy() < 1.0);
    }

    #[test]
    fn remove_query_and_steer_management() {
        let mut sw = P4Switch::new();
        sw.install_query(SwitchQuery::dns_responses(16, 5));
        assert!(sw.remove_query("dnsamp-d16"));
        assert!(!sw.remove_query("dnsamp-d16"));
        sw.install_steer(SteerRule::dst(0, 8));
        sw.install_steer(SteerRule::dst(0, 8)); // idempotent
        assert_eq!(sw.steer_rules.len(), 1);
    }
}
