//! Slowloris detection (paper §2.1.2's coarse/fine case study): the
//! Zeek-style fine detector over flow records. It counts *stalling*
//! connections (duration beyond 10 s with almost no payload) per
//! destination; many stalling connections to one server identify the
//! attack, the victim, and the attacker set.

use crate::{Alert, Subject};
use smartwatch_net::{AttackKind, Dur, Resident, Ts};
use smartwatch_snic::FlowRecord;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Fine-grained stalling-connection detector.
#[derive(Clone, Debug)]
pub struct SlowlorisDetector {
    /// A connection older than this with below `max_bytes` payload is
    /// "stalling" (Zeek's HTTP-stall policy uses 10 s).
    pub stall_threshold: Dur,
    /// Maximum bytes for a connection to still count as stalling.
    pub max_bytes: u64,
    /// Stalling connections to one destination that trigger the alert.
    pub conn_threshold: usize,
    alerted: HashSet<Ipv4Addr>,
}

impl SlowlorisDetector {
    /// Paper-flavoured defaults: 10 s stall, ≤ 2 KB, 50 connections.
    pub fn new() -> SlowlorisDetector {
        SlowlorisDetector {
            stall_threshold: Dur::from_secs(10),
            max_bytes: 2_048,
            conn_threshold: 50,
            alerted: HashSet::new(),
        }
    }

    /// Forget the victims already reported, in place, keeping the
    /// thresholds (see [`Resident`]).
    pub fn reset(&mut self) {
        self.alerted.reset();
    }

    /// Heap bytes the reported-victim set holds.
    pub fn resident_bytes(&self) -> usize {
        self.alerted.resident_bytes()
    }

    /// Analyze one interval's flow records at time `now`. Emits at most
    /// one alert per victim server.
    pub fn analyze(&mut self, records: &[FlowRecord], now: Ts) -> Vec<Alert> {
        let mut stalling: HashMap<Ipv4Addr, Vec<&FlowRecord>> = HashMap::new();
        for r in records {
            let dst = server_of(r);
            if r.duration() >= self.stall_threshold && r.bytes <= self.max_bytes {
                stalling.entry(dst).or_default().push(r);
            }
        }
        let mut alerts = Vec::new();
        for (victim, conns) in stalling {
            if conns.len() >= self.conn_threshold && self.alerted.insert(victim) {
                let attackers: HashSet<Ipv4Addr> = conns.iter().map(|r| client_of(r)).collect();
                alerts.push(Alert::new(
                    AttackKind::Slowloris,
                    Subject::Destination(victim),
                    now,
                    format!(
                        "{} stalling connections from {} sources",
                        conns.len(),
                        attackers.len()
                    ),
                ));
            }
        }
        alerts.sort_by_key(|a| format!("{:?}", a.subject));
        alerts
    }
}

impl Default for SlowlorisDetector {
    fn default() -> Self {
        SlowlorisDetector::new()
    }
}

/// The server side of a canonical flow (the well-known-port endpoint).
fn server_of(r: &FlowRecord) -> Ipv4Addr {
    if r.key.dst_port < r.key.src_port {
        r.key.dst_ip
    } else {
        r.key.src_ip
    }
}

fn client_of(r: &FlowRecord) -> Ipv4Addr {
    if r.key.dst_port < r.key.src_port {
        r.key.src_ip
    } else {
        r.key.dst_ip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::FlowKey;

    fn stalling_record(i: u32, server: Ipv4Addr, bytes: u64, dur_s: u64) -> FlowRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0xC6120000 + i),
            10_000 + i as u16,
            server,
            80,
        );
        let mut r = FlowRecord::new(key.canonical().0, Ts::ZERO, 64);
        r.bytes = bytes;
        r.packets = 6;
        r.last_ts = Ts::from_secs(dur_s);
        r
    }

    #[test]
    fn many_stalling_conns_alert_once() {
        let server = Ipv4Addr::new(172, 16, 0, 3);
        let mut d = SlowlorisDetector::new();
        let records: Vec<FlowRecord> = (0..60)
            .map(|i| stalling_record(i, server, 500, 30))
            .collect();
        let alerts = d.analyze(&records, Ts::from_secs(31));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].subject, Subject::Destination(server));
        // Re-analysis of the same interval does not re-alert.
        assert!(d.analyze(&records, Ts::from_secs(32)).is_empty());
    }

    #[test]
    fn short_or_bulky_conns_do_not_count() {
        let server = Ipv4Addr::new(172, 16, 0, 3);
        let mut d = SlowlorisDetector::new();
        // 60 short-lived conns.
        let short: Vec<FlowRecord> = (0..60)
            .map(|i| stalling_record(i, server, 500, 2))
            .collect();
        assert!(d.analyze(&short, Ts::from_secs(3)).is_empty());
        // 60 long but data-heavy conns (ordinary long downloads).
        let bulky: Vec<FlowRecord> = (0..60)
            .map(|i| stalling_record(i, server, 1_000_000, 30))
            .collect();
        assert!(d.analyze(&bulky, Ts::from_secs(31)).is_empty());
    }

    #[test]
    fn below_conn_threshold_is_quiet() {
        let server = Ipv4Addr::new(172, 16, 0, 3);
        let mut d = SlowlorisDetector::new();
        let records: Vec<FlowRecord> = (0..10)
            .map(|i| stalling_record(i, server, 500, 30))
            .collect();
        assert!(d.analyze(&records, Ts::from_secs(31)).is_empty());
    }
}
