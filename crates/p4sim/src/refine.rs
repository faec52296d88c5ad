//! Iterative query refinement (paper §3.1 "Switch Query Refinement").
//!
//! Both Sonata and SmartWatch start from the same coarse aggregate query
//! (e.g. SSH connection attempts per dIP/8). They diverge on what happens
//! when a key crosses the threshold:
//!
//! - **Sonata** reuses switch memory to re-run the query at the next finer
//!   granularity *restricted to the matched prefixes* ("the rest of the
//!   traffic is not examined"). It takes one interval per refinement
//!   level to reach /32, and anything that starts outside — or expires
//!   before the zoom-in finishes — is missed. This is the mechanism
//!   behind Sonata's lower detection rates in Table 4.
//!
//! - **SmartWatch** keeps the switch at the coarse granularity and
//!   instead *steers* the matched subsets to the sNIC, which performs
//!   flow-level analysis immediately from the next interval on.

use crate::query::{decode_prefix_key, Filter, KeyExpr, SwitchQuery};
use crate::switch::SteerRule;

/// Which refinement strategy to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefineMode {
    /// Zoom in on-switch, Sonata style.
    Sonata,
    /// Steer matched subsets to the sNIC, SmartWatch style.
    SmartWatch,
}

/// What the controller should do after an interval's query results.
#[derive(Clone, Debug, PartialEq)]
pub enum RefineOutcome {
    /// Install this query for the next interval (Sonata zoom-in).
    NextQuery(SwitchQuery),
    /// Install these steering rules (SmartWatch hand-off to the sNIC).
    SteerSubsets(Vec<SteerRule>),
    /// Finest level reached: these prefixes are the on-switch detections
    /// (Sonata's terminal output).
    Detected(Vec<(u32, u8)>),
    /// Nothing crossed the threshold: restart at the coarsest level.
    Restart(SwitchQuery),
}

/// A destination-port constraint appearing anywhere in a filter
/// conjunction (propagated onto steering rules so only the matching
/// service's traffic is diverted).
fn port_constraint(f: &Filter) -> Option<u16> {
    match f {
        Filter::DstPort(p) => Some(*p),
        Filter::And(a, b) => port_constraint(a).or_else(|| port_constraint(b)),
        _ => None,
    }
}

/// Reads one decision count out of a refiner.
type Tally = fn(&Refiner) -> u64;

/// A refiner's counter families: each `p4.refine.*` counter and the
/// decision count it carries, for its owner's publisher (labelled
/// [`Refiner::labels`]).
pub const COUNTERS: [(&str, Tally); 4] = [
    ("p4.refine.steps", |r| r.steps),
    ("p4.refine.steers", |r| r.steers),
    ("p4.refine.detections", |r| r.detections),
    ("p4.refine.restarts", |r| r.restarts),
];

/// The refinement controller for one base query.
#[derive(Clone, Debug)]
pub struct Refiner {
    /// Strategy.
    pub mode: RefineMode,
    /// Granularity ladder, coarsest first (paper: /8 → /16 → /32).
    pub levels: Vec<u8>,
    base: SwitchQuery,
    level_idx: usize,
    focus: Vec<(u32, u8)>,
    /// Zoom-ins to a finer level (Sonata).
    steps: u64,
    /// Intervals whose matches were steered to the sNIC (SmartWatch).
    steers: u64,
    /// Finest-level detections (Sonata).
    detections: u64,
    /// Intervals with nothing over threshold.
    restarts: u64,
}

impl Refiner {
    /// Controller over `base` (whose key must be a prefix aggregation; its
    /// width is replaced by the ladder's levels).
    pub fn new(mode: RefineMode, base: SwitchQuery, levels: Vec<u8>) -> Refiner {
        assert!(!levels.is_empty());
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be increasing"
        );
        assert!(
            base.key.prefix_width().is_some(),
            "refinement requires a prefix-shaped key"
        );
        Refiner {
            mode,
            levels,
            base,
            level_idx: 0,
            focus: Vec::new(),
            steps: 0,
            steers: 0,
            detections: 0,
            restarts: 0,
        }
    }

    /// The labels of this controller's [`COUNTERS`]: its mode and its
    /// base query's name.
    pub fn labels(&self) -> [(&'static str, &str); 2] {
        let mode = match self.mode {
            RefineMode::Sonata => "sonata",
            RefineMode::SmartWatch => "smartwatch",
        };
        [("mode", mode), ("query", &self.base.name)]
    }

    /// The paper's ladder: /8 → /16 → /32.
    pub fn paper_levels() -> Vec<u8> {
        vec![8, 16, 32]
    }

    /// Query to install for the first interval.
    pub fn initial_query(&self) -> SwitchQuery {
        self.query_at(0, &[])
    }

    fn query_at(&self, level_idx: usize, focus: &[(u32, u8)]) -> SwitchQuery {
        let width = self.levels[level_idx];
        let mut q = self.base.clone();
        q.key = q.key.refined(width);
        q.name = format!("{}@{}", self.base.name, width);
        if !focus.is_empty() {
            let window = match q.key {
                KeyExpr::SrcPrefix(_) => Filter::SrcInPrefixes(focus.to_vec()),
                _ => Filter::DstInPrefixes(focus.to_vec()),
            };
            q.filter = Filter::And(Box::new(q.filter), Box::new(window));
        }
        q
    }

    /// Consume one interval's over-threshold keys for the current query
    /// and decide the next step.
    pub fn on_results(&mut self, over: &[(u64, u64)]) -> RefineOutcome {
        if over.is_empty() {
            // Nothing suspicious: return to the widest view.
            self.level_idx = 0;
            self.focus.clear();
            self.restarts += 1;
            return RefineOutcome::Restart(self.initial_query());
        }
        let matched: Vec<(u32, u8)> = over.iter().map(|(k, _)| decode_prefix_key(*k)).collect();

        match self.mode {
            RefineMode::SmartWatch => {
                // Stay coarse; hand the subsets to the sNIC.
                let on_src = matches!(self.base.key, KeyExpr::SrcPrefix(_));
                let rules = matched
                    .iter()
                    .map(|(prefix, width)| {
                        let mut r = if on_src {
                            SteerRule::src(*prefix, *width)
                        } else {
                            SteerRule::dst(*prefix, *width)
                        };
                        if let Some(p) = port_constraint(&self.base.filter) {
                            r = r.with_port(p);
                        }
                        r
                    })
                    .collect();
                self.steers += 1;
                RefineOutcome::SteerSubsets(rules)
            }
            RefineMode::Sonata => {
                if self.level_idx + 1 >= self.levels.len() {
                    // Finest granularity reached: report and restart.
                    self.level_idx = 0;
                    self.focus.clear();
                    self.detections += 1;
                    RefineOutcome::Detected(matched)
                } else {
                    self.level_idx += 1;
                    self.focus = matched;
                    self.steps += 1;
                    RefineOutcome::NextQuery(self.query_at(self.level_idx, &self.focus))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryState;
    use smartwatch_net::{FlowKey, Packet, PacketBuilder, TcpFlags, Ts};
    use std::net::Ipv4Addr;

    fn syn(src: [u8; 4], dst: [u8; 4]) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::from(src), 40000, Ipv4Addr::from(dst), 22);
        PacketBuilder::new(key, Ts::ZERO)
            .flags(TcpFlags::SYN)
            .build()
    }

    fn run_query(q: &SwitchQuery, pkts: &[Packet]) -> Vec<(u64, u64)> {
        let mut st = QueryState::default();
        for p in pkts {
            if q.filter.matches(p) {
                st.update(q, p);
            }
        }
        st.over_threshold(q)
    }

    fn attack_packets() -> Vec<Packet> {
        // 20 SSH SYNs into 172.16.9.0/24 (the suspicious subset) plus
        // scattered background SYNs elsewhere.
        let mut v = Vec::new();
        for i in 0..20u8 {
            v.push(syn([198, 18, 0, i], [172, 16, 9, 7]));
        }
        for i in 0..5u8 {
            v.push(syn([10, 0, 0, i], [172, 200, i, 1]));
        }
        v
    }

    #[test]
    fn smartwatch_steers_after_one_interval() {
        let base = SwitchQuery::ssh_attempts(8, 10);
        let mut r = Refiner::new(RefineMode::SmartWatch, base, Refiner::paper_levels());
        let over = run_query(&r.initial_query(), &attack_packets());
        match r.on_results(&over) {
            RefineOutcome::SteerSubsets(rules) => {
                assert_eq!(rules.len(), 1);
                let rule = rules[0];
                assert_eq!(rule.width, 8);
                assert_eq!(rule.prefix, u32::from(Ipv4Addr::new(172, 0, 0, 0)));
                assert_eq!(rule.dst_port, Some(22));
                // The rule matches the attack traffic.
                assert!(attack_packets().iter().take(20).all(|p| rule.matches(p)));
            }
            other => panic!("expected steering, got {other:?}"),
        }
        // Level never advances in SmartWatch mode.
        assert_eq!(r.levels[r.level_idx], 8);
    }

    #[test]
    fn sonata_zooms_level_by_level() {
        let base = SwitchQuery::ssh_attempts(8, 10);
        let mut r = Refiner::new(RefineMode::Sonata, base, Refiner::paper_levels());
        let pkts = attack_packets();

        // Interval 1 at /8.
        let over = run_query(&r.initial_query(), &pkts);
        let q16 = match r.on_results(&over) {
            RefineOutcome::NextQuery(q) => q,
            other => panic!("expected zoom, got {other:?}"),
        };
        assert_eq!(r.levels[r.level_idx], 16);

        // Interval 2 at /16: focus window excludes the background /8s.
        let over = run_query(&q16, &pkts);
        assert_eq!(over.len(), 1);
        let q32 = match r.on_results(&over) {
            RefineOutcome::NextQuery(q) => q,
            other => panic!("expected second zoom, got {other:?}"),
        };

        // Interval 3 at /32: terminal detection.
        let over = run_query(&q32, &pkts);
        match r.on_results(&over) {
            RefineOutcome::Detected(prefixes) => {
                assert_eq!(prefixes.len(), 1);
                assert_eq!(prefixes[0].0, u32::from(Ipv4Addr::new(172, 16, 9, 7)));
                assert_eq!(prefixes[0].1, 32);
            }
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(
            r.levels[r.level_idx], 8,
            "restarts after terminal detection"
        );
    }

    #[test]
    fn sonata_focus_window_blinds_outside_traffic() {
        // Traffic that becomes suspicious in a *different* /8 during the
        // zoom is invisible to the refined query — the blind-spot Sonata
        // trades for memory.
        let base = SwitchQuery::ssh_attempts(8, 10);
        let mut r = Refiner::new(RefineMode::Sonata, base, Refiner::paper_levels());
        let over = run_query(&r.initial_query(), &attack_packets());
        let q16 = match r.on_results(&over) {
            RefineOutcome::NextQuery(q) => q,
            other => panic!("{other:?}"),
        };
        // A fresh burst in 10.0.0.0/8 while focused on 172/8:
        let outside: Vec<Packet> = (0..30u8)
            .map(|i| syn([198, 18, 1, i], [10, 9, 9, 9]))
            .collect();
        let over = run_query(&q16, &outside);
        assert!(
            over.is_empty(),
            "focused query must not see outside traffic"
        );
    }

    #[test]
    fn quiet_interval_restarts_coarse() {
        let base = SwitchQuery::ssh_attempts(8, 10);
        let mut r = Refiner::new(RefineMode::Sonata, base, Refiner::paper_levels());
        let over = run_query(&r.initial_query(), &attack_packets());
        let _ = r.on_results(&over);
        assert_eq!(r.levels[r.level_idx], 16);
        match r.on_results(&[]) {
            RefineOutcome::Restart(q) => assert!(q.name.ends_with("@8")),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.levels[r.level_idx], 8);
    }
}
