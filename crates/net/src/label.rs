//! Ground-truth labels for generated traffic.
//!
//! Every attack generator in `smartwatch-trace` stamps its packets with the
//! attack they belong to, so detection-rate experiments (Fig. 8c, Table 4)
//! can compare detector verdicts against ground truth. Labels travel with
//! packets but are **never** visible to the data plane: the switch, the
//! FlowCache and the detectors only ever see headers. Only the evaluation
//! harness reads labels.

use std::fmt;

/// Which attack (if any) a packet belongs to. Mirrors the rows of the
/// paper's Tables 2 and 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttackKind {
    /// Slowloris: many long-lived, low-volume HTTP connections.
    Slowloris,
    /// SSH password guessing from one or more remote nodes.
    SshBruteforce,
    /// TLS sessions presenting certificates about to expire.
    ExpiringSslCert,
    /// FTP password guessing.
    FtpBruteforce,
    /// Suspicious Kerberos ticket activity.
    KerberosTicket,
    /// In-sequence forged TCP RST injection.
    ForgedTcpRst,
    /// TCP connections opened with SYN but never carrying data.
    TcpIncompleteFlows,
    /// Low-and-slow port scanning.
    StealthyPortScan,
    /// DNS amplification reflection.
    DnsAmplification,
    /// Queue-building microburst event.
    Microburst,
    /// Self-propagating worm payload.
    Worm,
    /// Covert timing channel (IPD modulation).
    CovertTimingChannel,
    /// Website fingerprinting target traffic (monitored page set).
    WebsiteFingerprint,
    /// Volumetric heavy-hitter / DDoS style flooding.
    HeavyHitter,
}

impl AttackKind {
    /// Human-readable name matching the paper's table rows.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Slowloris => "Slowloris",
            AttackKind::SshBruteforce => "SSH Bruteforcing",
            AttackKind::ExpiringSslCert => "Expiring SSL certificate",
            AttackKind::FtpBruteforce => "FTP Bruteforcing",
            AttackKind::KerberosTicket => "Kerberos Ticket Monitoring",
            AttackKind::ForgedTcpRst => "In-Sequence Forged TCP RST",
            AttackKind::TcpIncompleteFlows => "TCP Incomplete Flows",
            AttackKind::StealthyPortScan => "Stealthy Port Scan",
            AttackKind::DnsAmplification => "DNS Amplification",
            AttackKind::Microburst => "Micro-bursts",
            AttackKind::Worm => "EarlyBird Detection Worms",
            AttackKind::CovertTimingChannel => "Covert Timing Channel",
            AttackKind::WebsiteFingerprint => "Website Fingerprinting",
            AttackKind::HeavyHitter => "Heavy Hitter",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ground-truth label attached to a generated packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Label {
    /// Ordinary background traffic.
    #[default]
    Benign,
    /// Part of the given attack, with an attack-instance id so multiple
    /// simultaneous instances (e.g. several scanners) stay distinguishable.
    Attack {
        /// The attack class.
        kind: AttackKind,
        /// Generator-assigned instance id.
        instance: u32,
    },
}

impl Label {
    /// Construct an attack label.
    pub fn attack(kind: AttackKind, instance: u32) -> Label {
        Label::Attack { kind, instance }
    }

    /// True for benign packets.
    pub fn is_benign(self) -> bool {
        matches!(self, Label::Benign)
    }

    /// The attack kind, if any.
    pub fn kind(self) -> Option<AttackKind> {
        match self {
            Label::Benign => None,
            Label::Attack { kind, .. } => Some(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AttackKind {
        /// All attack kinds, in Table 2 / Table 4 order.
        const ALL: [AttackKind; 14] = [
            AttackKind::Slowloris,
            AttackKind::SshBruteforce,
            AttackKind::ExpiringSslCert,
            AttackKind::FtpBruteforce,
            AttackKind::KerberosTicket,
            AttackKind::ForgedTcpRst,
            AttackKind::TcpIncompleteFlows,
            AttackKind::StealthyPortScan,
            AttackKind::DnsAmplification,
            AttackKind::Microburst,
            AttackKind::Worm,
            AttackKind::CovertTimingChannel,
            AttackKind::WebsiteFingerprint,
            AttackKind::HeavyHitter,
        ];
    }

    #[test]
    fn label_accessors() {
        assert!(Label::Benign.is_benign());
        assert_eq!(Label::Benign.kind(), None);
        let l = Label::attack(AttackKind::StealthyPortScan, 3);
        assert!(!l.is_benign());
        assert_eq!(l.kind(), Some(AttackKind::StealthyPortScan));
    }

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<_> = AttackKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), AttackKind::ALL.len());
    }
}
