//! Stealthy port-scan and TCP-incomplete-flow detection (paper §5.1.3).
//!
//! The port-scan detector is the Jung et al. TRW scheme: the sNIC tracks
//! each connection attempt's outcome φᵢʳ per packet (pinning the flow
//! until the three-way handshake resolves), exports the indicator to the
//! host, and the host runs sequential hypothesis testing per remote node.
//!
//! Crucially for the Fig. 8c comparison: the detector consumes *outcomes*,
//! not rates — a paranoid scanner spacing probes minutes apart still
//! accumulates evidence, which is exactly what volumetric switch queries
//! cannot do.

use crate::stats::{Trw, TrwVerdict};
use crate::{Alert, Subject};
use smartwatch_host::{ConnEvent, ConnTable, Swept};
use smartwatch_net::{AttackKind, Dur, FlowDigest, FlowHasher, KeyedMix, Packet, Resident, Ts};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// What the detector keeps per remote source.
#[derive(Clone, Debug, Default)]
struct Remote {
    walk: Trw,
    /// Distinct `(destination, port)` pairs probed (context for alerts).
    fanout: usize,
}

/// Per-remote TRW port-scan detector.
///
/// Every key comes off the wire, so the tables hash with per-instance
/// randomly keyed [`KeyedMix`] like the connection table feeding them.
#[derive(Clone, Debug, Default)]
pub struct PortscanDetector {
    remotes: HashMap<Ipv4Addr, Remote, KeyedMix>,
    alerted: HashSet<Ipv4Addr, KeyedMix>,
    /// Every distinct `(source, destination, port)` probe seen — one
    /// flat set, so the per-source fan-out is a count in [`Remote`]
    /// rather than a heap set per source.
    probed: HashSet<(Ipv4Addr, Ipv4Addr, u16), KeyedMix>,
}

impl PortscanDetector {
    /// Fresh detector with classic TRW parameters.
    pub(crate) fn new() -> PortscanDetector {
        PortscanDetector::default()
    }

    /// Back to the state [`PortscanDetector::new`] built, in place (see
    /// [`Resident`]).
    pub(crate) fn reset(&mut self) {
        self.remotes.reset();
        self.alerted.reset();
        self.probed.reset();
    }

    /// Heap bytes the detector's tables hold.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.remotes.resident_bytes() + self.alerted.resident_bytes() + self.probed.resident_bytes()
    }

    /// Feed one resolved connection-attempt outcome (`success` = the
    /// handshake completed) from remote `src` towards `(dst, port)`.
    pub(crate) fn observe(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        port: u16,
        success: bool,
        ts: Ts,
    ) -> Option<Alert> {
        let remote = self.remotes.entry(src).or_default();
        if self.probed.insert((src, dst, port)) {
            remote.fanout += 1;
        }
        if remote.walk.observe(success) == TrwVerdict::Scanner && self.alerted.insert(src) {
            return Some(Alert::new(
                AttackKind::StealthyPortScan,
                Subject::Source(src),
                ts,
                format!(
                    "TRW flagged scanner after {} outcomes, fanout {}",
                    remote.walk.observations(),
                    remote.fanout
                ),
            ));
        }
        None
    }
}

/// Drives a [`ConnTable`] over raw packets and feeds resolved outcomes to
/// the TRW detector — the composition the sNIC + host performs online.
#[derive(Debug)]
pub struct ScanPipeline {
    /// Connection tracker (the sNIC's pinned flow-state role).
    pub conns: ConnTable,
    /// TRW (the host's role).
    pub detector: PortscanDetector,
    /// TCP-incomplete-flows detector, fed from the same sweeps.
    pub incomplete: IncompleteFlowDetector,
    /// S0 attempts older than this count as failed (no response).
    pub attempt_timeout: Dur,
    last_sweep: Ts,
}

impl Default for ScanPipeline {
    fn default() -> Self {
        ScanPipeline::new()
    }
}

impl ScanPipeline {
    /// Pipeline with the standard 2-second attempt timeout, digesting
    /// bare keys under the default hash seed.
    pub fn new() -> ScanPipeline {
        ScanPipeline::with_hasher(FlowHasher::default())
    }

    /// [`ScanPipeline::new`] for flows digested by `hasher` — the one
    /// every carried digest must come from.
    pub fn with_hasher(hasher: FlowHasher) -> ScanPipeline {
        ScanPipeline {
            conns: ConnTable::with_hasher(hasher),
            detector: PortscanDetector::new(),
            incomplete: IncompleteFlowDetector::new(8),
            attempt_timeout: Dur::from_secs(2),
            last_sweep: Ts::ZERO,
        }
    }

    /// One pass over the connection table at `now`: S0 attempts idle for
    /// the attempt timeout are failed TRW outcomes *and* incomplete flows;
    /// other connections that never carried data and sat idle for
    /// `dataless_timeout` are incomplete flows only. Alerts are stamped
    /// `stamp`.
    fn sweep(&mut self, now: Ts, dataless_timeout: Dur, stamp: Ts, alerts: &mut Vec<Alert>) {
        let (detector, incomplete) = (&mut self.detector, &mut self.incomplete);
        self.conns
            .sweep(now, self.attempt_timeout, dataless_timeout, |why, rec| {
                if why == Swept::AttemptTimeout {
                    let (src, dst, port) = originator_view(rec);
                    alerts.extend(detector.observe(src, dst, port, false, stamp));
                }
                alerts.extend(incomplete.observe_incomplete(rec, stamp));
            });
    }

    /// Back to the state [`ScanPipeline::new`] built, in place, keeping
    /// the configured timeout and threshold (see [`Resident`]).
    pub fn reset(&mut self) {
        self.conns.reset();
        self.detector.reset();
        self.incomplete.reset();
        self.last_sweep = Ts::ZERO;
    }

    /// Heap bytes the pipeline's tables hold.
    pub fn resident_bytes(&self) -> usize {
        self.conns.resident_bytes()
            + self.detector.resident_bytes()
            + self.incomplete.resident_bytes()
    }

    /// Feed one packet whose flow identity was computed at ingest (see
    /// [`ConnTable::process_digested`]), appending any new alert to the caller's `alerts` and returning the connection
    /// event the packet raised: the suite's SSH/FTP analyzer reads the
    /// same connection record instead of tracking the session a second
    /// time.
    pub fn on_packet_digested(
        &mut self,
        pkt: &Packet,
        flow: &FlowDigest,
        alerts: &mut Vec<Alert>,
    ) -> Option<ConnEvent> {
        // Periodic timeout sweep (every 500 ms of virtual time).
        // Established-but-dataless connections are incomplete too
        // (half-open probes answered by SYN/ACK), on a 4× longer fuse.
        if pkt.ts.since(self.last_sweep) >= Dur::from_millis(500) {
            self.last_sweep = pkt.ts;
            self.sweep(pkt.ts, self.attempt_timeout.mul(4), pkt.ts, alerts);
        }
        let event = self.conns.process_digested(pkt, flow);
        match event {
            Some(ConnEvent::Established) => {
                if let Some(rec) = self.conns.get_digested(flow) {
                    let (src, dst, port) = originator_view(rec);
                    alerts.extend(self.detector.observe(src, dst, port, true, pkt.ts));
                }
            }
            Some(ConnEvent::Rejected) => {
                if let Some(rec) = self.conns.remove_digested(flow) {
                    let (src, dst, port) = originator_view(&rec);
                    alerts.extend(self.detector.observe(src, dst, port, false, pkt.ts));
                }
            }
            _ => {}
        }
        event
    }

    /// Final sweep at end of trace.
    pub fn finish(&mut self, now: Ts) -> Vec<Alert> {
        let mut alerts = Vec::new();
        self.sweep(
            now + self.attempt_timeout,
            self.attempt_timeout,
            now,
            &mut alerts,
        );
        alerts
    }
}

/// (originator addr, responder addr, responder port) of a connection.
fn originator_view(rec: &smartwatch_host::ConnRecord) -> (Ipv4Addr, Ipv4Addr, u16) {
    if rec.orig_is_forward {
        (rec.key.src_ip, rec.key.dst_ip, rec.key.dst_port)
    } else {
        (rec.key.dst_ip, rec.key.src_ip, rec.key.src_port)
    }
}

/// TCP-incomplete-flows detector (Table 2): sources accumulating many
/// connections that open but never carry data.
#[derive(Clone, Debug)]
pub struct IncompleteFlowDetector {
    /// Incomplete connections per source that trigger an alert.
    pub threshold: u32,
    counts: HashMap<Ipv4Addr, u32, KeyedMix>,
    alerted: HashSet<Ipv4Addr, KeyedMix>,
}

impl IncompleteFlowDetector {
    /// Detector alerting after `threshold` incomplete flows per source.
    pub(crate) fn new(threshold: u32) -> IncompleteFlowDetector {
        IncompleteFlowDetector {
            threshold,
            counts: HashMap::default(),
            alerted: HashSet::default(),
        }
    }

    /// Back to the state [`IncompleteFlowDetector::new`] built, in
    /// place, keeping the threshold (see [`Resident`]).
    pub(crate) fn reset(&mut self) {
        self.counts.reset();
        self.alerted.reset();
    }

    /// Heap bytes the detector's tables hold.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.counts.resident_bytes() + self.alerted.resident_bytes()
    }

    /// Report a connection that ended (timed out / was swept) with no
    /// payload in either direction.
    pub(crate) fn observe_incomplete(
        &mut self,
        rec: &smartwatch_host::ConnRecord,
        now: Ts,
    ) -> Option<Alert> {
        if rec.total_bytes() > 0 {
            return None;
        }
        let (src, _, _) = originator_view(rec);
        let c = self.counts.entry(src).or_insert(0);
        *c += 1;
        if *c >= self.threshold && self.alerted.insert(src) {
            Some(Alert::new(
                AttackKind::TcpIncompleteFlows,
                Subject::Source(src),
                now,
                format!("{c} dataless connections"),
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ScanPipeline {
        /// Feed one packet under the table's own hasher.
        fn on_packet(&mut self, pkt: &Packet) -> Vec<Alert> {
            let flow = self.conns.digest(&pkt.key);
            let mut alerts = Vec::new();
            self.on_packet_digested(pkt, &flow, &mut alerts);
            alerts
        }
    }
    use smartwatch_host::ConnRecord;
    use smartwatch_net::{FlowKey, PacketBuilder, TcpFlags};

    fn scanner() -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, 1)
    }

    fn probe(i: u32, ts: Ts, refused: bool) -> Vec<Packet> {
        let key = FlowKey::tcp(
            scanner(),
            30000 + i as u16,
            Ipv4Addr::new(172, 16, 0, (i % 200) as u8 + 1),
            (1 + i * 13 % 1024) as u16,
        );
        let syn = PacketBuilder::new(key, ts).flags(TcpFlags::SYN).build();
        if refused {
            let rst = PacketBuilder::new(key.reversed(), ts + Dur::from_micros(300))
                .flags(TcpFlags::RST_ACK)
                .build();
            vec![syn, rst]
        } else {
            vec![syn]
        }
    }

    /// The pipeline as first written: two sweeps back to back, each
    /// collecting its keys and then removing them — S0 attempt timeouts
    /// (TRW failure + incomplete flow), then dataless connections among
    /// the rest (incomplete flow only). The oracle for the fused sweep.
    struct TwoPassPipeline {
        conns: ConnTable,
        detector: PortscanDetector,
        incomplete: IncompleteFlowDetector,
        last_sweep: Ts,
    }

    const T: Dur = Dur::from_secs(2);

    impl TwoPassPipeline {
        fn take(&mut self, expired: impl Fn(&ConnRecord) -> bool) -> Vec<ConnRecord> {
            let keys: Vec<FlowKey> = self
                .conns
                .table()
                .iter()
                .filter(|r| expired(r))
                .map(|r| r.key)
                .collect();
            let conns = &mut self.conns;
            keys.iter()
                .filter_map(|k| conns.remove_digested(&conns.digest(k)))
                .collect()
        }

        fn sweeps(&mut self, now: Ts, dataless_timeout: Dur, stamp: Ts) -> Vec<Alert> {
            let mut alerts = Vec::new();
            let s0 = smartwatch_host::ConnState::S0;
            for rec in self.take(|r| r.state == s0 && now.since(r.last) >= T) {
                let (src, dst, port) = originator_view(&rec);
                alerts.extend(self.detector.observe(src, dst, port, false, stamp));
                alerts.extend(self.incomplete.observe_incomplete(&rec, stamp));
            }
            for rec in self.take(|r| r.total_bytes() == 0 && now.since(r.last) >= dataless_timeout)
            {
                alerts.extend(self.incomplete.observe_incomplete(&rec, stamp));
            }
            alerts
        }

        fn on_packet(&mut self, pkt: &Packet) -> Vec<Alert> {
            let mut alerts = Vec::new();
            if pkt.ts.since(self.last_sweep) >= Dur::from_millis(500) {
                self.last_sweep = pkt.ts;
                alerts = self.sweeps(pkt.ts, T.mul(4), pkt.ts);
            }
            match self.conns.process(pkt) {
                Some(ConnEvent::Established) => {
                    let rec = self.conns.get_digested(&self.conns.digest(&pkt.key));
                    let (src, dst, port) = originator_view(rec.unwrap());
                    alerts.extend(self.detector.observe(src, dst, port, true, pkt.ts));
                }
                Some(ConnEvent::Rejected) => {
                    let flow = self.conns.digest(&pkt.key);
                    let rec = self.conns.remove_digested(&flow).unwrap();
                    let (src, dst, port) = originator_view(&rec);
                    alerts.extend(self.detector.observe(src, dst, port, false, pkt.ts));
                }
                _ => {}
            }
            alerts
        }
    }

    /// Everything the observations leave behind, in a comparable form:
    /// per-source TRW walk and fan-out, per-source incomplete count.
    fn detector_state(
        d: &PortscanDetector,
        inc: &IncompleteFlowDetector,
    ) -> (Vec<String>, Vec<(Ipv4Addr, u32)>) {
        let mut walks: Vec<String> = d
            .remotes
            .iter()
            .map(|(src, r)| format!("{src} {:?} fanout {}", r.walk, r.fanout))
            .collect();
        walks.sort();
        let mut counts: Vec<(Ipv4Addr, u32)> = inc.counts.iter().map(|(s, c)| (*s, *c)).collect();
        counts.sort();
        (walks, counts)
    }

    #[test]
    fn fused_sweep_makes_the_two_pass_observations() {
        let mut rng = 0x5CA7_u64;
        let mut next = move |m: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % m
        };
        // 40 sources × distinct (dst, port) per connection over 30 s:
        // lone SYNs, refusals, half-opens that never carry data, and
        // sessions that do.
        let mut pkts = Vec::new();
        for i in 0..6_000u32 {
            let key = FlowKey::tcp(
                Ipv4Addr::new(198, 18, 0, next(40) as u8),
                20_000 + (i % 40_000) as u16,
                Ipv4Addr::from(0xAC10_0000 + i),
                (1 + i % 1_000) as u16,
            );
            let at = Ts::from_micros(next(30_000_000));
            let pkt = |k: FlowKey, d_us: u64, flags, payload| {
                PacketBuilder::new(k, at + Dur::from_micros(d_us))
                    .flags(flags)
                    .payload(payload)
                    .build()
            };
            pkts.push(pkt(key, 0, TcpFlags::SYN, 0));
            match next(4) {
                0 => {}
                1 => pkts.push(pkt(key.reversed(), 300, TcpFlags::RST_ACK, 0)),
                kind => {
                    pkts.push(pkt(key.reversed(), 300, TcpFlags::SYN_ACK, 0));
                    if kind == 3 {
                        pkts.push(pkt(key, 600, TcpFlags::PSH | TcpFlags::ACK, 200));
                    }
                }
            }
        }
        pkts.sort_by_key(|p| p.ts);

        let mut fused = ScanPipeline::new();
        let mut oracle = TwoPassPipeline {
            conns: ConnTable::new(),
            detector: PortscanDetector::new(),
            incomplete: IncompleteFlowDetector::new(8),
            last_sweep: Ts::ZERO,
        };
        let by_text = |mut v: Vec<Alert>| {
            v.sort_by_key(|a| format!("{a:?}"));
            v
        };
        let (mut scans, mut incompletes) = (0, 0);
        for (i, p) in pkts.iter().enumerate() {
            let swept = p.ts.since(fused.last_sweep) >= Dur::from_millis(500);
            let got = by_text(fused.on_packet(p));
            assert_eq!(got, by_text(oracle.on_packet(p)), "packet {i}");
            for a in &got {
                match a.kind {
                    AttackKind::StealthyPortScan => scans += 1,
                    AttackKind::TcpIncompleteFlows => incompletes += 1,
                    _ => {}
                }
            }
            if swept {
                assert_eq!(
                    fused.conns.table().len(),
                    oracle.conns.table().len(),
                    "packet {i}"
                );
                assert_eq!(
                    detector_state(&fused.detector, &fused.incomplete),
                    detector_state(&oracle.detector, &oracle.incomplete),
                    "packet {i}"
                );
            }
        }
        assert!(scans >= 5 && incompletes >= 10, "{scans} / {incompletes}");
        // End of trace: both timeouts are T.
        let end = pkts.last().unwrap().ts;
        assert_eq!(
            by_text(fused.finish(end)),
            by_text(oracle.sweeps(end + T, T, end))
        );
        assert_eq!(fused.conns.table().len(), oracle.conns.table().len());
        assert_eq!(
            detector_state(&fused.detector, &fused.incomplete),
            detector_state(&oracle.detector, &oracle.incomplete)
        );
    }

    #[test]
    fn refused_probes_flag_scanner() {
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        for i in 0..10 {
            for pkt in probe(i, Ts::from_millis(u64::from(i) * 10), true) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].subject, Subject::Source(scanner()));
    }

    #[test]
    fn silent_probes_flag_scanner_via_timeout() {
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        // Filtered ports: lone SYNs, spaced 1 s apart so sweeps run.
        for i in 0..10 {
            for pkt in probe(i, Ts::from_secs(u64::from(i)), false) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        alerts.extend(p.finish(Ts::from_secs(30)));
        let scans: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.kind == smartwatch_net::AttackKind::StealthyPortScan)
            .collect();
        assert_eq!(scans.len(), 1, "paranoid scanner must still be caught");
        // The same lone-SYN probes are also (correctly) incomplete flows.
        assert!(alerts
            .iter()
            .any(|a| a.kind == smartwatch_net::AttackKind::TcpIncompleteFlows));
    }

    #[test]
    fn slow_scan_detected_regardless_of_delay() {
        // Fig. 8c's point: outcomes are outcome-count-driven, not
        // rate-driven. 5-minute probe spacing still converges.
        let mut p = ScanPipeline::new();
        let mut alerts = Vec::new();
        for i in 0..10 {
            for pkt in probe(i, Ts::from_secs(u64::from(i) * 300), true) {
                alerts.extend(p.on_packet(&pkt));
            }
        }
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn fanout_counts_distinct_probes_per_source() {
        // Two sources hammer the same three (dst, port) pairs, each pair
        // repeatedly: the flat probe set must still count per source,
        // and count a repeated pair once.
        let mut d = PortscanDetector::new();
        let other = Ipv4Addr::new(198, 18, 0, 2);
        let mut alerts = Vec::new();
        for i in 0..12u8 {
            let dst = Ipv4Addr::new(172, 16, 0, i % 3);
            for src in [scanner(), other] {
                alerts.extend(d.observe(src, dst, 22, false, Ts::from_secs(u64::from(i))));
            }
        }
        assert_eq!(alerts.len(), 2, "one alert per source");
        for a in &alerts {
            assert!(a.detail.ends_with("fanout 3"), "{}", a.detail);
        }
        assert_eq!(d.probed.len(), 6);
    }

    #[test]
    fn benign_clients_not_flagged() {
        let mut d = PortscanDetector::new();
        let benign = Ipv4Addr::new(10, 0, 0, 5);
        for i in 0..50 {
            let a = d.observe(
                benign,
                Ipv4Addr::new(172, 16, 0, 1),
                443,
                true,
                Ts::from_secs(i),
            );
            assert!(a.is_none());
        }
        assert!(d.alerted.is_empty());
    }

    #[test]
    fn incomplete_flow_threshold() {
        let mut d = IncompleteFlowDetector::new(3);
        let key = FlowKey::tcp(scanner(), 1, Ipv4Addr::new(172, 16, 0, 1), 80);
        let rec = smartwatch_host::ConnRecord {
            key: key.canonical().0,
            state: smartwatch_host::ConnState::S0,
            orig_is_forward: key.canonical().1 == smartwatch_net::key::Direction::Forward,
            orig_pkts: 1,
            resp_pkts: 0,
            orig_bytes: 0,
            resp_bytes: 0,
            start: Ts::ZERO,
            last: Ts::ZERO,
            fin_orig: false,
            fin_resp: false,
        };
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_some());
        // Once flagged, silent.
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
    }

    #[test]
    fn connections_with_data_are_not_incomplete() {
        let mut d = IncompleteFlowDetector::new(1);
        let key = FlowKey::tcp(scanner(), 1, Ipv4Addr::new(172, 16, 0, 1), 80);
        let mut rec = smartwatch_host::ConnRecord {
            key: key.canonical().0,
            state: smartwatch_host::ConnState::SF,
            orig_is_forward: true,
            orig_pkts: 5,
            resp_pkts: 5,
            orig_bytes: 100,
            resp_bytes: 100,
            start: Ts::ZERO,
            last: Ts::ZERO,
            fin_orig: true,
            fin_resp: true,
        };
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_none());
        rec.orig_bytes = 0;
        rec.resp_bytes = 0;
        assert!(d.observe_incomplete(&rec, Ts::ZERO).is_some());
    }
}
