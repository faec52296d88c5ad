//! The detector suite: all online detectors wired to one packet stream.
//!
//! This is the "15 attack detectors simultaneously running in SmartWatch"
//! of Table 2. The suite also decides, per packet, whether the host must
//! be involved — the paper's partitioning: SSH/FTP sessions stay on the
//! host only until their authentication outcome is known, RST packets
//! visit the timing wheel, everything else completes on the sNIC.

use smartwatch_detect::auth::{BruteforceDetector, CertExpiryMonitor, KerberosMonitor};
use smartwatch_detect::dnsamp::DnsAmpDetector;
use smartwatch_detect::portscan::ScanPipeline;
use smartwatch_detect::rst::{ForgedRstDetector, RstEvent};
use smartwatch_detect::slowloris::SlowlorisDetector;
use smartwatch_detect::worm::EarlyBirdDetector;
use smartwatch_detect::Alert;
use smartwatch_host::{ArtefactRegistry, AuthHeuristic, AuthOutcome, ConnEvent};
use smartwatch_net::{Dur, FlowDigest, FlowHasher, FlowKey, Packet, Ts};
use smartwatch_snic::{FlowRecord, FlowTable, TableStats};

/// Where a packet finished processing (for tier accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HostNeed {
    /// Fully handled by the sNIC.
    #[default]
    SnicOnly,
    /// Escalated to a host NF (Zeek analysis, timing wheel…).
    Host,
}

/// Per-packet outcome from the suite.
///
/// Also the sink [`DetectorSuite::on_packet_digested`] writes into: a
/// caller that keeps one across packets (a shard does) pays for its
/// vectors once, not per packet.
#[derive(Clone, Debug, Default)]
pub struct SuiteOutcome {
    /// Alerts raised by this packet.
    pub alerts: Vec<Alert>,
    /// Tier the packet needed.
    pub host: HostNeed,
    /// Flows the platform may whitelist on the switch (benign verdicts,
    /// e.g. successful SSH authentication).
    pub whitelist: Vec<FlowKey>,
}

/// Per-detector data-path operation counts, used to derive Table 2's
/// cycle-share column from the cost model instead of asserting it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteOps {
    /// Packets inspected by the scan pipeline (conn tracking + TRW).
    pub scan: u64,
    /// Packets that touched the RST detector (RSTs + racing data).
    pub rst: u64,
    /// UDP/53 packets the DNS-amplification detector accounted.
    pub dns: u64,
    /// Digest-bearing packets the worm detector sighted.
    pub worm: u64,
    /// Packets of auth sessions (SSH/FTP) tracked for outcomes.
    pub auth: u64,
    /// Certificate/ticket digests resolved.
    pub artefacts: u64,
    /// Total packets through the suite.
    pub total: u64,
}

/// The full detector suite.
pub struct DetectorSuite {
    /// TRW port-scan pipeline (sNIC outcome tracking + host hypothesis
    /// test).
    pub scan: ScanPipeline,
    /// Forged-RST detector (host timing wheel + Bloom fast path).
    pub rst: ForgedRstDetector,
    /// DNS amplification.
    pub dns: DnsAmpDetector,
    /// EarlyBird worm detection.
    pub worm: EarlyBirdDetector,
    /// SSH bruteforce.
    pub ssh: BruteforceDetector,
    /// FTP bruteforce.
    pub ftp: BruteforceDetector,
    /// Slowloris (interval-driven, over exported flow records).
    pub slowloris: SlowlorisDetector,
    /// TLS certificate expiry (None disables).
    pub cert: Option<CertExpiryMonitor>,
    /// Kerberos ticket monitoring (None disables).
    pub krb: Option<KerberosMonitor>,
    heuristic: AuthHeuristic,
    /// Auth sessions already classified (no further host escalation).
    classified: FlowTable<FlowKey>,
    /// The RST detector's per-packet events, drained into the outcome
    /// (reused: no vector per packet).
    rst_events: Vec<RstEvent>,
    /// Digests bare packets for [`DetectorSuite::on_packet`]; every
    /// flow-keyed table of the suite is indexed by its digests.
    hasher: FlowHasher,
    /// Data-path operation counters (Table 2 accounting).
    pub ops: SuiteOps,
}

impl DetectorSuite {
    /// Suite with default thresholds and no TLS/Kerberos registries,
    /// digesting bare packets under the default hash seed.
    pub fn new() -> DetectorSuite {
        DetectorSuite::with_hasher(FlowHasher::default())
    }

    /// [`DetectorSuite::new`] for packets digested by `hasher`: the one
    /// every digest handed to [`DetectorSuite::on_packet_digested`]
    /// must come from (the engine passes its ingest hasher).
    pub fn with_hasher(hasher: FlowHasher) -> DetectorSuite {
        DetectorSuite {
            scan: ScanPipeline::with_hasher(hasher),
            rst: ForgedRstDetector::with_hasher(ForgedRstDetector::PAPER_HORIZON, hasher),
            dns: DnsAmpDetector::new(),
            worm: EarlyBirdDetector::paper_default(),
            ssh: BruteforceDetector::ssh(),
            ftp: BruteforceDetector::ftp(),
            slowloris: SlowlorisDetector::new(),
            cert: None,
            krb: None,
            heuristic: AuthHeuristic::default(),
            classified: FlowTable::new(),
            rst_events: Vec::new(),
            hasher,
            ops: SuiteOps::default(),
        }
    }

    /// Back to the state the constructor chain built — [`DetectorSuite::new`]
    /// plus whatever registries were attached — in place: every table
    /// of every detector emptied under the
    /// [`Resident`](smartwatch_net::Resident) contract
    /// (allocation and hasher key kept, flood leftovers shrunk), every
    /// clock and tally zeroed, thresholds and registries untouched. A
    /// reset suite answers any packet stream exactly as a fresh one.
    pub fn reset(&mut self) {
        self.scan.reset();
        self.rst.reset();
        self.dns.reset();
        self.worm.reset();
        self.ssh.reset();
        self.ftp.reset();
        self.slowloris.reset();
        if let Some(c) = self.cert.as_mut() {
            c.reset();
        }
        if let Some(k) = self.krb.as_mut() {
            k.reset();
        }
        self.classified.reset();
        self.ops = SuiteOps::default();
    }

    /// Heap bytes the suite's detector tables hold.
    pub fn resident_bytes(&self) -> usize {
        self.scan.resident_bytes()
            + self.rst.resident_bytes()
            + self.dns.resident_bytes()
            + self.worm.resident_bytes()
            + self.ssh.resident_bytes()
            + self.ftp.resident_bytes()
            + self.slowloris.resident_bytes()
            + self
                .cert
                .as_ref()
                .map_or(0, CertExpiryMonitor::resident_bytes)
            + self.krb.as_ref().map_or(0, KerberosMonitor::resident_bytes)
            + self.classified.resident_bytes()
    }

    /// Attach the TLS certificate registry (enables the expiry monitor).
    pub fn with_cert_registry(mut self, reg: ArtefactRegistry, horizon: Dur) -> DetectorSuite {
        self.cert = Some(CertExpiryMonitor::new(reg, horizon));
        self
    }

    /// Attach the Kerberos ticket registry.
    pub fn with_krb_registry(mut self, reg: ArtefactRegistry, max_lifetime: Dur) -> DetectorSuite {
        self.krb = Some(KerberosMonitor::new(reg, max_lifetime));
        self
    }

    fn is_auth_port(port: u16) -> bool {
        port == 22 || port == 21
    }

    /// The books of the suite's flow-keyed tables — the connection
    /// table, the buffered-RST index, the classified set — summed.
    pub fn table_stats(&self) -> TableStats {
        self.scan.conns.table().stats() + self.rst.table().stats() + self.classified.stats()
    }

    /// Slots those tables have allocated, summed.
    pub fn table_slots(&self) -> usize {
        self.scan.conns.table().slots() + self.rst.table().slots() + self.classified.slots()
    }

    /// Stage A's hint for `pkt`, whose flow identity ingest carried as
    /// `flow`: the scan pipeline's connection table is the one every TCP
    /// packet probes, so its home slot word is fetched toward L1
    /// ([`FlowTable::prefetch`]; inert — no book moves).
    #[inline]
    pub fn prefetch(&self, pkt: &Packet, flow: &FlowDigest) {
        if pkt.is_tcp() {
            self.scan.conns.prefetch(&flow.canon, flow.digest);
        }
    }

    /// The hasher every digest handed to
    /// [`DetectorSuite::on_packet_digested`] must come from.
    pub fn hasher(&self) -> FlowHasher {
        self.hasher
    }

    /// Feed one packet through every online detector: digest it under
    /// the suite's hasher, then [`DetectorSuite::on_packet_digested`]
    /// into a fresh outcome. Both sNIC tiers — the platform's and the
    /// engine shard's — step [`crate::SnicTier`] instead, which digests
    /// once for the cache and the suite and reuses one outcome; this
    /// entry's callers are tests, the suite benches and the benchmark's
    /// layer walk.
    pub fn on_packet(&mut self, pkt: &Packet) -> SuiteOutcome {
        let flow = self.hasher.flow_digest(&pkt.key);
        let mut out = SuiteOutcome::default();
        self.on_packet_digested(pkt, &flow, &mut out);
        out
    }

    /// [`DetectorSuite::on_packet`] for a packet whose flow identity was
    /// computed at ingest, written into `out`: `flow` must be the
    /// [`FlowDigest`] of `pkt.key` under the suite's hasher
    /// (debug-asserted). `out` is cleared first, so whatever the previous
    /// packet left there is gone; a caller that keeps one `out` across
    /// packets allocates nothing per packet for it. Nothing on this path
    /// canonicalises or hashes a 5-tuple again, and a detector runs only
    /// for the packets its gate below admits.
    pub fn on_packet_digested(&mut self, pkt: &Packet, flow: &FlowDigest, out: &mut SuiteOutcome) {
        debug_assert_eq!(
            *flow,
            self.hasher.flow_digest(&pkt.key),
            "flow digest from another key or a differently-seeded hasher"
        );
        out.alerts.clear();
        out.host = HostNeed::SnicOnly;
        out.whitelist.clear();
        self.ops.total += 1;

        // Port scan (conn tracking + TRW). The pipeline owns the suite's
        // one ConnTable, probed with the carried digest; its timeout
        // sweep runs on every packet's clock.
        if pkt.is_tcp() {
            self.ops.scan += 1;
        }
        let mut event = None;
        self.scan
            .on_packet_digested(pkt, flow, &mut out.alerts, &mut event);

        // Forged RST: RST packets visit the host timing wheel.
        if pkt.is_tcp() && (pkt.flags.rst() || pkt.payload_len > 0) {
            self.ops.rst += 1;
            self.rst.on_packet_digested(pkt, flow, &mut self.rst_events);
            for ev in self.rst_events.drain(..) {
                match ev {
                    RstEvent::ForgedDetected(a) | RstEvent::DuplicateRst(a) => out.alerts.push(a),
                    RstEvent::BufferedFast | RstEvent::BufferedSlow => out.host = HostNeed::Host,
                    RstEvent::Released(_) => {}
                }
            }
        }

        // DNS amplification (the detector's own first test, too).
        if pkt.is_udp() && (pkt.key.dst_port == 53 || pkt.key.src_port == 53) {
            self.ops.dns += 1;
            out.alerts.extend(self.dns.on_packet(pkt));
        }

        // Worm signatures (the detector's own first test, too).
        if pkt.payload_digest != 0 && pkt.payload_len > 0 {
            self.ops.worm += 1;
            out.alerts.extend(self.worm.on_packet(pkt));
        }

        // TLS / Kerberos artefacts (server-side data segments).
        if pkt.payload_digest != 0 {
            if pkt.key.src_port == 443 || pkt.key.src_port == 88 {
                self.ops.artefacts += 1;
            }
            if let Some(c) = self.cert.as_mut() {
                if pkt.key.src_port == 443 {
                    out.alerts.extend(c.observe(pkt.payload_digest, pkt.ts));
                }
            }
            if let Some(k) = self.krb.as_mut() {
                if pkt.key.src_port == 88 {
                    out.alerts.extend(k.observe(pkt.payload_digest, pkt.ts));
                }
            }
        }

        // SSH/FTP sessions: packets go to the host (Zeek) until the
        // authentication outcome is determined.
        let auth_port =
            Self::is_auth_port(pkt.key.dst_port) || Self::is_auth_port(pkt.key.src_port);
        if auth_port && pkt.is_tcp() {
            self.ops.auth += 1;
            let canon = flow.canon;
            let already = self.classified.contains(&canon, flow.digest);
            if !already {
                out.host = HostNeed::Host;
            }
            // The scan pipeline tracked this packet's session above.
            // Classify on termination, or once the session has clearly
            // succeeded (long/heavy), whichever comes first.
            let conns = &self.scan.conns;
            let outcome = match event {
                Some(ConnEvent::Finished) | Some(ConnEvent::Reset(_)) => {
                    conns.get_digested(flow).map(|r| self.heuristic.classify(r))
                }
                _ => conns.get_digested(flow).and_then(|r| {
                    let o = self.heuristic.classify(r);
                    (o == AuthOutcome::Success).then_some(o)
                }),
            };
            if let Some(outcome) = outcome {
                if !already && outcome != AuthOutcome::Unknown {
                    self.classified.insert(flow.digest, canon);
                    let rec = conns.get_digested(flow).expect("classified conn exists");
                    let src = if rec.orig_is_forward {
                        rec.key.src_ip
                    } else {
                        rec.key.dst_ip
                    };
                    let service = if rec.orig_is_forward {
                        rec.key.dst_port
                    } else {
                        rec.key.src_port
                    };
                    if outcome == AuthOutcome::Success {
                        // Benign verdict: whitelist so the switch stops
                        // steering this flow (§3.1).
                        out.whitelist.push(canon);
                    }
                    let det = if service == 21 {
                        &mut self.ftp
                    } else {
                        &mut self.ssh
                    };
                    out.alerts.extend(det.observe(src, pkt.ts, outcome));
                }
            }
        }
    }

    /// Interval boundary: run the flow-log detectors (Slowloris) over the
    /// interval's exported records.
    pub fn end_interval(&mut self, records: &[FlowRecord], now: Ts) -> Vec<Alert> {
        self.slowloris.analyze(records, now)
    }

    /// Final sweep at end of trace.
    pub fn finish(&mut self, now: Ts) -> Vec<Alert> {
        let mut alerts = self.scan.finish(now);
        for ev in self.rst.finish(now) {
            if let RstEvent::ForgedDetected(a) | RstEvent::DuplicateRst(a) = ev {
                alerts.push(a);
            }
        }
        alerts
    }
}

impl Default for DetectorSuite {
    fn default() -> Self {
        DetectorSuite::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::AttackKind;
    use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
    use smartwatch_trace::attacks::portscan::{portscan, ScanConfig};
    use smartwatch_trace::attacks::rst::{forged_rst, ForgedRstConfig};

    #[test]
    fn suite_detects_bruteforce_and_escalates_auth_packets() {
        let cfg = BruteforceConfig::ssh(smartwatch_trace::attacks::victim_ip(0), Ts::ZERO, 9);
        let trace = bruteforce(&cfg);
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        let mut host_pkts = 0u64;
        for p in trace.iter() {
            let o = suite.on_packet(p);
            if o.host == HostNeed::Host {
                host_pkts += 1;
            }
            alerts.extend(o.alerts);
        }
        let brute: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.kind == AttackKind::SshBruteforce)
            .collect();
        assert!(!brute.is_empty(), "bruteforce campaign must be flagged");
        assert!(host_pkts > 0, "auth sessions visit the host");
    }

    #[test]
    fn successful_login_whitelists_flow() {
        let mut cfg = BruteforceConfig::ssh(smartwatch_trace::attacks::victim_ip(0), Ts::ZERO, 9);
        cfg.attackers = 1;
        cfg.attempts_per_attacker = 1;
        cfg.final_success = true;
        let trace = bruteforce(&cfg);
        let mut suite = DetectorSuite::new();
        let mut whitelisted = Vec::new();
        for p in trace.iter() {
            whitelisted.extend(suite.on_packet(p).whitelist);
        }
        assert!(
            !whitelisted.is_empty(),
            "successful session gets whitelisted"
        );
    }

    #[test]
    fn suite_detects_scanner() {
        let trace = portscan(&ScanConfig::with_delay(Dur::from_millis(50), 60, 4));
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        alerts.extend(suite.finish(trace.packets().last().unwrap().ts));
        assert!(alerts
            .iter()
            .any(|a| a.kind == AttackKind::StealthyPortScan));
    }

    #[test]
    fn suite_detects_forged_rst() {
        let trace = forged_rst(&ForgedRstConfig::default());
        let mut suite = DetectorSuite::new();
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        assert!(alerts.iter().any(|a| a.kind == AttackKind::ForgedTcpRst));
    }

    #[test]
    fn registry_equipped_suite_flags_certs_and_tickets() {
        use smartwatch_host::ArtefactRegistry;
        use smartwatch_trace::attacks::auth::{
            kerberos_tickets, tls_with_certs, KerberosConfig, TlsConfig,
        };
        let (tls, certs) = tls_with_certs(&TlsConfig {
            seed: 1,
            sessions: 30,
            expiring_fraction: 0.3,
            window: Dur::from_secs(4),
            now: Ts::from_millis(100),
            horizon: Dur::from_secs(30 * 86_400),
        });
        let (krb, tickets) = kerberos_tickets(&KerberosConfig {
            seed: 2,
            requests: 30,
            suspicious_fraction: 0.3,
            window: Dur::from_secs(4),
            now: Ts::from_millis(100),
            max_lifetime: Dur::from_secs(36_000),
        });
        let trace = smartwatch_trace::Trace::merge([tls, krb]);
        let mut suite = DetectorSuite::new()
            .with_cert_registry(
                ArtefactRegistry::from_pairs(certs.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(30 * 86_400),
            )
            .with_krb_registry(
                ArtefactRegistry::from_pairs(tickets.iter().map(|a| (a.digest, a.expires_at))),
                Dur::from_secs(36_000),
            );
        let mut alerts = Vec::new();
        for p in trace.iter() {
            alerts.extend(suite.on_packet(p).alerts);
        }
        assert!(alerts.iter().any(|a| a.kind == AttackKind::ExpiringSslCert));
        assert!(alerts.iter().any(|a| a.kind == AttackKind::KerberosTicket));
        assert!(suite.ops.artefacts > 0, "artefact ops counted");
    }

    #[test]
    fn op_counters_track_detector_relevance() {
        use smartwatch_trace::attacks::dns_amp::{dns_amplification, DnsAmpConfig};
        let amp = dns_amplification(&DnsAmpConfig::new(
            smartwatch_trace::background::client_ip(1),
            Ts::ZERO,
            3,
        ));
        let mut suite = DetectorSuite::new();
        for p in amp.iter() {
            suite.on_packet(p);
        }
        assert_eq!(suite.ops.total, amp.len() as u64);
        assert_eq!(suite.ops.dns, amp.len() as u64, "pure DNS trace");
        assert_eq!(suite.ops.scan, 0, "no TCP in a UDP reflection trace");
    }

    #[test]
    fn benign_traffic_mostly_stays_on_snic() {
        use smartwatch_trace::background::{preset_trace, Preset};
        let trace = preset_trace(Preset::Caida2018, 300, Dur::from_secs(2), 5);
        let mut suite = DetectorSuite::new();
        let mut host = 0u64;
        for p in trace.iter() {
            if suite.on_packet(p).host == HostNeed::Host {
                host += 1;
            }
        }
        let frac = host as f64 / trace.len() as f64;
        assert!(frac < 0.16, "host fraction should be <16%: {frac:.3}");
    }
}
