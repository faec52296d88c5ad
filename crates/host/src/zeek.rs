//! Zeek-flavoured application-session heuristics (paper §5.1.1).
//!
//! SSH (and FTP) traffic is encrypted/opaque, so Zeek "heuristically
//! guesses the login attempt outcome by tracking connection state
//! transitions and the amount of data communicated". This module is that
//! heuristic: given a finished [`ConnRecord`], classify the authentication
//! outcome from the session's shape. It also resolves the TLS-certificate
//! and Kerberos-ticket artefacts that the trace generators stamp as
//! payload digests (standing in for Zeek's X.509/KRB parsers).

use crate::conn::ConnRecord;
use smartwatch_net::{Dur, Ts};
use std::collections::HashMap;

/// Authentication outcome guessed from session shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthOutcome {
    /// Short, low-volume session: the login was refused.
    Failure,
    /// Long / data-heavy session: authentication succeeded.
    Success,
    /// Too little information (e.g. handshake only).
    Unknown,
}

/// Tunable thresholds of the SSH/FTP outcome heuristic. The defaults
/// follow the Zeek `detect-bruteforcing` intuition: a failed
/// password attempt exchanges only the banner + a few auth packets.
#[derive(Clone, Copy, Debug)]
pub struct AuthHeuristic {
    /// Sessions moving at least this much server→client payload are
    /// successes (a shell/file listing follows a successful login).
    pub success_resp_bytes: u64,
    /// Sessions alive at least this long are successes.
    pub success_duration: Dur,
    /// Sessions with fewer total payload packets than this and below the
    /// success thresholds are failures.
    pub failure_max_pkts: u64,
}

impl Default for AuthHeuristic {
    fn default() -> AuthHeuristic {
        AuthHeuristic {
            success_resp_bytes: 8_000,
            success_duration: Dur::from_secs(5),
            failure_max_pkts: 20,
        }
    }
}

impl AuthHeuristic {
    /// Classify a (finished or aged-out) session.
    pub fn classify(&self, conn: &ConnRecord) -> AuthOutcome {
        if conn.resp_bytes >= self.success_resp_bytes || conn.duration() >= self.success_duration {
            return AuthOutcome::Success;
        }
        let pkts = conn.orig_pkts + conn.resp_pkts;
        if pkts == 0 || conn.total_bytes() == 0 {
            return AuthOutcome::Unknown;
        }
        if pkts <= self.failure_max_pkts {
            return AuthOutcome::Failure;
        }
        AuthOutcome::Unknown
    }
}

/// Host-side artefact registry: digest → expiry, loaded from the same
/// out-of-band source the trace generator produced (stands in for
/// certificate stores / KDC metadata that Zeek parses from payloads).
#[derive(Clone, Debug, Default)]
pub struct ArtefactRegistry {
    expiry: HashMap<u64, Ts>,
}

impl ArtefactRegistry {
    /// Build from (digest, expires_at) pairs.
    pub fn from_pairs<I: IntoIterator<Item = (u64, Ts)>>(pairs: I) -> ArtefactRegistry {
        ArtefactRegistry {
            expiry: pairs.into_iter().collect(),
        }
    }

    /// Expiry of a digest, if registered.
    pub(crate) fn expires_at(&self, digest: u64) -> Option<Ts> {
        self.expiry.get(&digest).copied()
    }

    /// Zeek `expiring-certs` check: does the certificate behind `digest`
    /// expire within `horizon` of `now`?
    pub fn expires_within(&self, digest: u64, now: Ts, horizon: Dur) -> Option<bool> {
        self.expires_at(digest).map(|e| e <= now + horizon)
    }

    /// Kerberos long-lifetime check: was the ticket behind `digest` issued
    /// with a remaining lifetime beyond `max_lifetime` (golden-ticket
    /// indicator)?
    pub fn lifetime_exceeds(&self, digest: u64, issued: Ts, max_lifetime: Dur) -> Option<bool> {
        self.expires_at(digest)
            .map(|e| e.since(issued) > max_lifetime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::FlowKey;
    use std::net::Ipv4Addr;

    fn conn(resp_bytes: u64, pkts: u64, dur_s: u64) -> ConnRecord {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4,
            Ipv4Addr::new(10, 0, 0, 2),
            22,
        );
        ConnRecord {
            key: key.canonical().0,
            state: crate::conn::ConnState::SF,
            orig_is_forward: true,
            orig_pkts: pkts / 2,
            resp_pkts: pkts - pkts / 2,
            orig_bytes: 300,
            resp_bytes,
            start: Ts::ZERO,
            last: Ts::from_secs(dur_s),
            fin_orig: true,
            fin_resp: true,
        }
    }

    #[test]
    fn short_small_session_is_failure() {
        let h = AuthHeuristic::default();
        assert_eq!(h.classify(&conn(400, 8, 1)), AuthOutcome::Failure);
    }

    #[test]
    fn long_session_is_success() {
        let h = AuthHeuristic::default();
        assert_eq!(h.classify(&conn(500, 10, 60)), AuthOutcome::Success);
    }

    #[test]
    fn data_heavy_session_is_success() {
        let h = AuthHeuristic::default();
        assert_eq!(h.classify(&conn(50_000, 100, 2)), AuthOutcome::Success);
    }

    #[test]
    fn empty_session_is_unknown() {
        let h = AuthHeuristic::default();
        let mut c = conn(0, 2, 0);
        c.orig_bytes = 0;
        assert_eq!(h.classify(&c), AuthOutcome::Unknown);
    }

    #[test]
    fn registry_expiry_checks() {
        let reg =
            ArtefactRegistry::from_pairs([(1, Ts::from_secs(100)), (2, Ts::from_secs(10_000_000))]);
        let now = Ts::from_secs(50);
        let horizon = Dur::from_secs(1_000);
        assert_eq!(reg.expires_within(1, now, horizon), Some(true));
        assert_eq!(reg.expires_within(2, now, horizon), Some(false));
        assert_eq!(reg.expires_within(3, now, horizon), None);
    }

    #[test]
    fn registry_lifetime_checks() {
        let reg = ArtefactRegistry::from_pairs([(7, Ts::from_secs(1_000_000))]);
        assert_eq!(
            reg.lifetime_exceeds(7, Ts::ZERO, Dur::from_secs(36_000)),
            Some(true)
        );
        assert_eq!(
            reg.lifetime_exceeds(7, Ts::from_secs(999_999), Dur::from_secs(36_000)),
            Some(false)
        );
    }

    // Silence the never-read warning for fin fields constructed in tests.
    #[test]
    fn conn_record_duration() {
        assert_eq!(conn(1, 2, 5).duration(), Dur::from_secs(5));
    }
}
