//! The sNIC tier, once: the FlowCache, the detector suite and §3.2's
//! pinning rule, stepped per packet by both clocks — the virtual-time
//! [`SmartWatch`](crate::SmartWatch) platform behind every paper figure
//! and each wall-clock engine shard.
//!
//! A step is two calls on one [`FlowDigest`]: [`SnicTier::process`]
//! (the FlowCache), then [`SnicTier::inspect`] (the suite and the pin
//! rule). The suite digests under the cache's seed by construction
//! ([`SnicTier::new`]), so one digest serves both.
//!
//! The rule (§3.2 "Pinning Flow Records"): while the host works on a
//! flow its record stays sNIC-resident, so a packet the suite sends
//! hostward pins it; a verdict releases it. One packet can carry both:
//! the packet that classifies an SSH/FTP login as successful still goes
//! to the host *and* names its flow benign. `inspect` pins first and
//! releases second, so the benign verdict is the last word. The other
//! order leaves the session pinned until a second verdict arrives —
//! and for a benign source none ever does.
//!
//! The tier owns its FlowCache: every call that changes it — the step,
//! [`SnicTier::release`], the mode switch, the platform's exports — is
//! a method here, and [`SnicTier::cache`] lends it out read-only. So
//! the pin is taken in one place, `inspect`, and a `.pin(` anywhere
//! else does not compile.

use crate::suite::{DetectorSuite, HostNeed, SuiteOutcome};
use smartwatch_net::{FlowDigest, FlowHasher, FlowKey, Packet};
use smartwatch_snic::{Access, FlowCache, FlowCacheConfig, FlowRecord, Mode};

/// One sNIC tier: a FlowCache, the detector suite over the same digests,
/// and the one suite outcome every packet is written into.
pub struct SnicTier {
    cache: FlowCache,
    /// The detector suite, digesting under the cache's seed.
    pub suite: DetectorSuite,
    /// Cleared and refilled by every [`SnicTier::inspect`], so a packet
    /// costs no outcome allocation of its own.
    outcome: SuiteOutcome,
}

impl SnicTier {
    /// A fresh tier whose suite digests under `cfg.hash_seed`.
    pub fn new(cfg: FlowCacheConfig) -> SnicTier {
        SnicTier {
            suite: DetectorSuite::with_hasher(FlowHasher::new(cfg.hash_seed)),
            cache: FlowCache::new(cfg),
            outcome: SuiteOutcome::default(),
        }
    }

    /// The FlowCache, read-only.
    pub fn cache(&self) -> &FlowCache {
        &self.cache
    }

    /// The FlowCache step for `pkt`, whose flow identity is `flow`.
    #[inline]
    pub fn process(&mut self, pkt: &Packet, flow: &FlowDigest) -> Access {
        self.cache.process_digested(pkt, &flow.canon, flow.digest)
    }

    /// Run the suite on `pkt`, whose flow identity is `flow` (under the
    /// suite's hasher), then apply the pin rule to the cache: pin the
    /// flow if the packet needs the host, then release every flow the
    /// suite cleared. Returns what the packet raised.
    #[inline]
    pub fn inspect(&mut self, pkt: &Packet, flow: &FlowDigest) -> &SuiteOutcome {
        self.suite.on_packet_digested(pkt, flow, &mut self.outcome);
        if self.outcome.host == HostNeed::Host {
            self.cache.pin(&flow.canon);
        }
        for cleared in &self.outcome.whitelist {
            self.cache.unpin(cleared);
        }
        &self.outcome
    }

    /// The host is done with `canon` (a verdict, or an escalation that
    /// never left): its record becomes evictable again. False when
    /// nothing was pinned.
    pub fn release(&mut self, canon: &FlowKey) -> bool {
        self.cache.unpin(canon)
    }

    /// Switch the FlowCache to `mode` (Algorithm 4's decision); a no-op
    /// in the mode it is in.
    pub fn set_mode(&mut self, mode: Mode) {
        self.cache.set_mode(mode);
    }

    /// §3.4's snapshot: the records that changed since the last one,
    /// appended to `out`.
    pub fn snapshot_delta_into(&mut self, out: &mut Vec<FlowRecord>) {
        self.cache.snapshot_delta_into(out);
    }

    /// The evicted records the rings hold, taken.
    pub fn drain_evicted(&mut self) -> Vec<FlowRecord> {
        self.cache.rings().drain()
    }

    /// Every resident record, appended to `out`; the cache is left empty.
    pub fn drain_all_into(&mut self, out: &mut Vec<FlowRecord>) {
        self.cache.drain_all_into(out);
    }

    /// Fresh for the next segment, in place: the FlowCache and the
    /// suite start over. (The outcome needs nothing: every `inspect`
    /// clears it first.)
    pub fn reset(&mut self) {
        self.cache.reset();
        self.suite.reset();
    }

    /// Heap bytes held by the FlowCache and the detector tables.
    pub fn resident_bytes(&self) -> usize {
        self.cache.resident_bytes() + self.suite.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::Ts;
    use smartwatch_trace::attacks::auth::{bruteforce, BruteforceConfig};
    use std::net::Ipv4Addr;

    /// A successful login's last escalated packet is also its benign
    /// verdict: the tier leaves that session resident and unpinned.
    #[test]
    fn the_verdict_is_the_last_word_on_a_successful_login() {
        let mut cfg = BruteforceConfig::ssh(Ipv4Addr::new(10, 0, 0, 1), Ts::ZERO, 5);
        cfg.final_success = true;
        let trace = bruteforce(&cfg);
        let mut tier = SnicTier::new(FlowCacheConfig::general(10));
        let hasher = tier.suite.hasher();
        let mut both = None;
        for pkt in trace.packets() {
            let flow = hasher.flow_digest(&pkt.key);
            tier.process(pkt, &flow);
            let out = tier.inspect(pkt, &flow);
            if out.host == HostNeed::Host && out.whitelist.contains(&flow.canon) {
                both = Some(flow.canon);
            }
        }
        let session = both.expect("one packet both escalates and clears its flow");
        let rec = tier
            .cache
            .get(&session)
            .expect("the session stays resident");
        assert!(!rec.pinned, "the verdict released the pin taken with it");
    }
}
