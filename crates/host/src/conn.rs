//! Zeek-style TCP connection state tracking.
//!
//! The host's protocol analyzers (and the sNIC's connection-outcome
//! tracking for port-scan detection) need per-session state machines that
//! classify how each connection attempt ends. States and semantics follow
//! Zeek's `conn_state` vocabulary, which the paper's detectors are written
//! against.

use smartwatch_net::{Dur, FlowDigest, FlowHasher, FlowKey, HashDigest, Packet, Ts};
use smartwatch_snic::{FlowTable, Keyed};

/// Connection states, after Zeek's `conn_state`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ConnState {
    /// SYN seen, no reply yet.
    S0,
    /// Established (SYN → SYN/ACK → ACK), still open.
    S1,
    /// Established and finished with FIN exchange.
    SF,
    /// Connection attempt rejected (SYN answered by RST).
    Rej,
    /// Established, originator aborted with RST.
    Rsto,
    /// Established, responder aborted with RST.
    Rstr,
    /// Traffic seen without a handshake (midstream pickup).
    Oth,
}

/// An event emitted when a connection's classification changes in a way
/// detectors care about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnEvent {
    /// Three-way handshake completed.
    Established,
    /// SYN answered by RST from the responder.
    Rejected,
    /// Orderly termination completed.
    Finished,
    /// Reset after establishment (bool = reset by originator).
    Reset(bool),
    /// S0 connection timed out with no reply (failed attempt confirmed).
    AttemptTimeout,
}

/// Per-connection bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct ConnRecord {
    /// Canonical flow key.
    pub key: FlowKey,
    /// Current state.
    pub state: ConnState,
    /// Originator (first-SYN sender) is the canonical-forward endpoint?
    pub orig_is_forward: bool,
    /// Packets from originator / responder.
    pub orig_pkts: u64,
    /// Packets from responder.
    pub resp_pkts: u64,
    /// Payload bytes from originator.
    pub orig_bytes: u64,
    /// Payload bytes from responder.
    pub resp_bytes: u64,
    /// First packet time.
    pub start: Ts,
    /// Last packet time.
    pub last: Ts,
    /// FIN seen from the originator.
    pub fin_orig: bool,
    /// FIN seen from the responder.
    pub fin_resp: bool,
}

impl ConnRecord {
    /// Total payload bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.orig_bytes + self.resp_bytes
    }

    /// Connection duration so far.
    pub fn duration(&self) -> Dur {
        self.last - self.start
    }
}

/// Why [`ConnTable::sweep`] removed a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Swept {
    /// An S0 attempt that went unanswered for the attempt timeout: a
    /// failed connection attempt (the third port-scan outcome).
    AttemptTimeout,
    /// A connection in any other situation that carried no payload in
    /// either direction and sat idle for the dataless timeout.
    Dataless,
}

impl Keyed for ConnRecord {
    fn flow(&self) -> &FlowKey {
        &self.key
    }
}

/// The connection table: feeds packets, emits classification events.
///
/// A [`FlowTable`] of [`ConnRecord`]s, indexed by the flow digest the
/// packet carries: [`ConnTable::process_digested`] and its siblings
/// canonicalise and hash nothing. The key-only entry points digest with
/// the table's own [`FlowHasher`] first, as `FlowCache::process` does
/// over `process_digested`. Keys come off the wire; the table's slot
/// function is secretly keyed per instance (a clone shares its
/// original's key).
#[derive(Clone, Debug)]
pub struct ConnTable {
    conns: FlowTable<ConnRecord>,
    /// Digests bare keys for the key-only entry points.
    hasher: FlowHasher,
}

impl Default for ConnTable {
    fn default() -> Self {
        ConnTable::new()
    }
}

impl ConnTable {
    /// Empty table, digesting bare keys under the default hash seed.
    pub fn new() -> ConnTable {
        ConnTable::with_hasher(FlowHasher::default())
    }

    /// Empty table for flows digested by `hasher` — the one every
    /// carried digest must come from.
    pub fn with_hasher(hasher: FlowHasher) -> ConnTable {
        ConnTable {
            conns: FlowTable::new(),
            hasher,
        }
    }

    /// Back to the state [`ConnTable::new`] built, in place: no
    /// connections, same hasher and slot key; the table keeps its
    /// allocation under the [`Resident`](smartwatch_net::Resident)
    /// shrink rule, sized by the segment's peak rather than by whatever
    /// the last sweep left.
    pub fn reset(&mut self) {
        self.conns.reset();
    }

    /// Heap bytes the table holds.
    pub fn resident_bytes(&self) -> usize {
        self.conns.resident_bytes()
    }

    /// The underlying table's books and size.
    pub fn table(&self) -> &FlowTable<ConnRecord> {
        &self.conns
    }

    /// Active connection count.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Canonicalise and hash a bare key under the table's hasher.
    pub fn digest(&self, key: &FlowKey) -> FlowDigest {
        self.hasher.flow_digest(key)
    }

    /// Look up a connection.
    pub fn get(&self, key: &FlowKey) -> Option<&ConnRecord> {
        self.get_digested(&self.digest(key))
    }

    /// [`ConnTable::get`] for a flow whose digest was carried.
    pub fn get_digested(&self, flow: &FlowDigest) -> Option<&ConnRecord> {
        self.conns.get(&flow.canon, flow.digest)
    }

    /// Hint the slot word a lookup of `canon` reads first toward L1
    /// ([`FlowTable::prefetch`]; inert). `digest` must be the carried one.
    #[inline]
    pub fn prefetch(&self, canon: &FlowKey, digest: HashDigest) {
        self.conns.prefetch(canon, digest);
    }

    /// Iterate over tracked connections.
    pub fn iter(&self) -> impl Iterator<Item = &ConnRecord> {
        self.conns.iter()
    }

    /// Remove a connection (after its analyzer is done with it).
    pub fn remove(&mut self, key: &FlowKey) -> Option<ConnRecord> {
        let flow = self.digest(key);
        self.remove_digested(&flow)
    }

    /// [`ConnTable::remove`] for a flow whose digest was carried.
    pub fn remove_digested(&mut self, flow: &FlowDigest) -> Option<ConnRecord> {
        self.conns.remove(&flow.canon, flow.digest)
    }

    /// Process one TCP packet; returns an event if the connection's
    /// classification changed.
    pub fn process(&mut self, pkt: &Packet) -> Option<ConnEvent> {
        let flow = self.digest(&pkt.key);
        self.process_digested(pkt, &flow)
    }

    /// [`ConnTable::process`] for a packet whose flow identity was
    /// computed at ingest: `flow` must be the [`FlowDigest`] of
    /// `pkt.key` under this table's hasher (debug-asserted).
    pub fn process_digested(&mut self, pkt: &Packet, flow: &FlowDigest) -> Option<ConnEvent> {
        debug_assert_eq!(
            *flow,
            self.digest(&pkt.key),
            "flow digest from another key or a differently-seeded hasher"
        );
        if !pkt.is_tcp() {
            return None;
        }
        let from_forward = flow.forward;

        let rec = self
            .conns
            .get_or_insert_with(&flow.canon, flow.digest, || ConnRecord {
                key: flow.canon,
                state: if pkt.flags.is_syn_only() {
                    ConnState::S0
                } else {
                    ConnState::Oth
                },
                orig_is_forward: from_forward,
                orig_pkts: 0,
                resp_pkts: 0,
                orig_bytes: 0,
                resp_bytes: 0,
                start: pkt.ts,
                last: pkt.ts,
                fin_orig: false,
                fin_resp: false,
            });

        let from_orig = from_forward == rec.orig_is_forward;
        if from_orig {
            rec.orig_pkts += 1;
            rec.orig_bytes += u64::from(pkt.payload_len);
        } else {
            rec.resp_pkts += 1;
            rec.resp_bytes += u64::from(pkt.payload_len);
        }
        rec.last = pkt.ts;

        // State transitions.
        let old = rec.state;
        let mut event = None;
        match old {
            ConnState::S0 => {
                if !from_orig && pkt.flags.is_syn_ack() {
                    rec.state = ConnState::S1;
                    event = Some(ConnEvent::Established);
                } else if !from_orig && pkt.flags.rst() {
                    rec.state = ConnState::Rej;
                    event = Some(ConnEvent::Rejected);
                }
            }
            ConnState::S1 => {
                if pkt.flags.rst() {
                    rec.state = if from_orig {
                        ConnState::Rsto
                    } else {
                        ConnState::Rstr
                    };
                    event = Some(ConnEvent::Reset(from_orig));
                } else if pkt.flags.fin() {
                    if from_orig {
                        rec.fin_orig = true;
                    } else {
                        rec.fin_resp = true;
                    }
                    if rec.fin_orig && rec.fin_resp {
                        rec.state = ConnState::SF;
                        event = Some(ConnEvent::Finished);
                    }
                }
            }
            _ => {}
        }
        event
    }

    /// One pass over the table at time `now`, removing and reporting
    ///
    /// * S0 connections idle for at least `attempt_timeout` — no-response
    ///   connection attempts ([`Swept::AttemptTimeout`]);
    /// * of the rest, connections (any state) that carried **no payload**
    ///   in either direction and have been idle for at least
    ///   `dataless_timeout` — the "TCP incomplete flows" population:
    ///   opened (or half-opened) but never used ([`Swept::Dataless`]).
    ///
    /// `on_swept` sees each removed record once, in table order.
    pub fn sweep(
        &mut self,
        now: Ts,
        attempt_timeout: Dur,
        dataless_timeout: Dur,
        mut on_swept: impl FnMut(Swept, &ConnRecord),
    ) {
        self.conns.sweep(|r| {
            let idle = now.since(r.last);
            let why = if r.state == ConnState::S0 && idle >= attempt_timeout {
                Swept::AttemptTimeout
            } else if r.total_bytes() == 0 && idle >= dataless_timeout {
                Swept::Dataless
            } else {
                return true;
            };
            on_swept(why, r);
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    fn p(k: FlowKey, ts_us: u64, flags: TcpFlags, payload: u16) -> Packet {
        PacketBuilder::new(k, Ts::from_micros(ts_us))
            .flags(flags)
            .payload(payload)
            .build()
    }

    #[test]
    fn handshake_reaches_s1() {
        let mut t = ConnTable::new();
        assert_eq!(t.process(&p(key(), 1, TcpFlags::SYN, 0)), None);
        assert_eq!(t.get(&key()).unwrap().state, ConnState::S0);
        let ev = t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Established));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::S1);
    }

    #[test]
    fn refusal_reaches_rej() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        let ev = t.process(&p(key().reversed(), 2, TcpFlags::RST_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Rejected));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::Rej);
    }

    #[test]
    fn fin_exchange_reaches_sf() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        t.process(&p(key(), 4, TcpFlags::FIN_ACK, 0));
        let ev = t.process(&p(key().reversed(), 5, TcpFlags::FIN_ACK, 0));
        assert_eq!(ev, Some(ConnEvent::Finished));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::SF);
    }

    #[test]
    fn reset_after_establish_classified_by_side() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        let ev = t.process(&p(key().reversed(), 3, TcpFlags::RST, 0));
        assert_eq!(ev, Some(ConnEvent::Reset(false)));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::Rstr);
    }

    #[test]
    fn byte_and_packet_accounting_by_direction() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        t.process(&p(key().reversed(), 2, TcpFlags::SYN_ACK, 0));
        t.process(&p(key(), 3, TcpFlags::ACK, 0));
        t.process(&p(key(), 4, TcpFlags::PSH | TcpFlags::ACK, 100));
        t.process(&p(key().reversed(), 5, TcpFlags::PSH | TcpFlags::ACK, 500));
        let r = t.get(&key()).unwrap();
        assert_eq!(r.orig_pkts, 3);
        assert_eq!(r.resp_pkts, 2);
        assert_eq!(r.orig_bytes, 100);
        assert_eq!(r.resp_bytes, 500);
    }

    #[test]
    fn midstream_traffic_is_oth() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::PSH | TcpFlags::ACK, 50));
        assert_eq!(t.get(&key()).unwrap().state, ConnState::Oth);
    }

    #[test]
    fn s0_timeout_sweep() {
        let mut t = ConnTable::new();
        t.process(&p(key(), 1, TcpFlags::SYN, 0));
        // Another, younger attempt.
        let k2 = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            1,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        t.process(&p(k2, 3_000_000, TcpFlags::SYN, 0));
        let mut timed_out = Vec::new();
        t.sweep(
            Ts::from_secs(4),
            Dur::from_secs(2),
            Dur::from_secs(8),
            |why, r| timed_out.push((why, r.key)),
        );
        assert_eq!(timed_out, [(Swept::AttemptTimeout, key().canonical().0)]);
        assert_eq!(t.len(), 1);
    }

    impl ConnTable {
        /// The two sweeps the table was first written with, run back to
        /// back: S0 timeouts, then dataless connections among the rest.
        /// The oracle for the fused [`ConnTable::sweep`].
        fn sweep_two_pass(
            &mut self,
            now: Ts,
            attempt_timeout: Dur,
            dataless_timeout: Dur,
        ) -> Vec<(Swept, ConnRecord)> {
            let mut out = Vec::new();
            let mut pass = |why: Swept, expired: &dyn Fn(&ConnRecord) -> bool| {
                let keys: Vec<FlowKey> = self
                    .conns
                    .iter()
                    .filter(|r| expired(r))
                    .map(|r| r.key)
                    .collect();
                out.extend(keys.iter().filter_map(|k| self.remove(k)).map(|r| (why, r)));
            };
            pass(Swept::AttemptTimeout, &|r| {
                r.state == ConnState::S0 && now.since(r.last) >= attempt_timeout
            });
            pass(Swept::Dataless, &|r| {
                r.total_bytes() == 0 && now.since(r.last) >= dataless_timeout
            });
            out
        }
    }

    #[test]
    fn fused_sweep_matches_the_two_pass_sweeps() {
        let mut rng = 0xC0FFEE_u64;
        let mut next = move |m: u64| {
            rng = smartwatch_net::hash::splitmix64(rng);
            rng % m
        };
        // Timeout pairs in both orders: the callers use (T, 4T) and (T, T),
        // and the fused pass must not depend on which is longer.
        for (attempt_ms, dataless_ms) in [(2_000, 8_000), (2_000, 2_000), (3_000, 1_000)] {
            let mut t = ConnTable::new();
            for i in 0..3_000u32 {
                let k = FlowKey::tcp(
                    Ipv4Addr::from(0x0A00_0000 + i),
                    40_000,
                    Ipv4Addr::new(10, 9, 0, 2),
                    80,
                );
                let at = next(10_000_000);
                // Lone SYN / half-open / established, with or without data.
                t.process(&p(k, at, TcpFlags::SYN, 0));
                if next(3) > 0 {
                    t.process(&p(k.reversed(), at + 10, TcpFlags::SYN_ACK, 0));
                    if next(2) == 0 {
                        t.process(&p(k, at + 20, TcpFlags::PSH | TcpFlags::ACK, 100));
                    }
                }
            }
            let mut oracle = t.clone();
            let sort = |v: &mut Vec<(Swept, FlowKey)>| v.sort_by_key(|(w, k)| (*w as u8, *k));
            for now_ms in [9_000, 11_000, 13_000, 30_000] {
                let (now, a, d) = (
                    Ts::from_millis(now_ms),
                    Dur::from_millis(attempt_ms),
                    Dur::from_millis(dataless_ms),
                );
                let mut fused = Vec::new();
                t.sweep(now, a, d, |why, r| fused.push((why, r.key)));
                let mut two_pass: Vec<(Swept, FlowKey)> = oracle
                    .sweep_two_pass(now, a, d)
                    .iter()
                    .map(|(w, r)| (*w, r.key))
                    .collect();
                sort(&mut fused);
                sort(&mut two_pass);
                assert_eq!(fused, two_pass);
                assert_eq!(t.len(), oracle.len());
            }
            assert!(t.len() < 3_000, "the sweeps removed something");
        }
    }

    fn syn(i: u32) -> Packet {
        let k = FlowKey::tcp(Ipv4Addr::from(0x0A00_0000 + i), 9, Ipv4Addr::from(1), 80);
        p(k, u64::from(i), TcpFlags::SYN, 0)
    }

    #[test]
    fn reset_keeps_the_peak_sized_table_and_its_key() {
        let mut t = ConnTable::new();
        for i in 0..5_000 {
            t.process(&syn(i));
        }
        let slots = t.conns.slots();
        // A twin with the same slot key, reset while still full.
        let mut twin = t.clone();
        twin.reset();
        // The end-of-trace sweep all but empties the table before the
        // reset sees it: the peak, not the leftover, decides what is kept.
        t.process(&p(key(), 59_000_000, TcpFlags::SYN, 0));
        t.sweep(
            Ts::from_secs(60),
            Dur::from_secs(2),
            Dur::from_secs(2),
            |_, _| {},
        );
        assert_eq!(t.len(), 1);
        t.reset();
        assert_eq!(t.conns.slots(), slots);
        // Neither reset redrew the key: the same flows land in the same
        // table order in both.
        for i in 0..5_000 {
            t.process(&syn(i));
            twin.process(&syn(i));
        }
        assert!(t.iter().map(|r| r.key).eq(twin.iter().map(|r| r.key)));
        t.reset();
        // A segment that tracks a handful gives the flood's memory back.
        for i in 0..10 {
            t.process(&syn(i));
        }
        t.reset();
        assert!(t.conns.slots() <= 64 && t.is_empty());
    }

    /// The tombstone carry-over, gone: a table the end-of-trace sweep
    /// emptied and `reset()` then cleared is a fresh table of its size.
    /// Its second life costs exactly what the same fill costs a table
    /// that was reset without ever being swept, and a third life costs
    /// the same again; only the first life, which grew the table by
    /// doubling, probed more.
    #[test]
    fn a_swept_table_resets_to_fresh() {
        let fill = |t: &mut ConnTable| {
            let before = t.table().stats();
            for i in 0..50_000 {
                t.process(&syn(i));
            }
            assert_eq!(t.len(), 50_000);
            t.table().stats() - before
        };
        let mut swept = ConnTable::new();
        let first = fill(&mut swept);
        let bytes = swept.resident_bytes();
        let mut unswept = swept.clone();

        swept.sweep(
            Ts::from_secs(60),
            Dur::from_secs(2),
            Dur::from_secs(2),
            |_, _| {},
        );
        assert!(swept.is_empty());
        swept.reset();
        unswept.reset();
        let (second, control) = (fill(&mut swept), fill(&mut unswept));
        assert_eq!(second, control, "swept-then-reset ≡ reset");
        assert_eq!(second.lookups, first.lookups);
        assert!(second.probes <= first.probes, "{second:?} vs {first:?}");
        assert_eq!(swept.resident_bytes(), bytes);

        swept.sweep(
            Ts::from_secs(60),
            Dur::from_secs(2),
            Dur::from_secs(2),
            |_, _| {},
        );
        swept.reset();
        assert_eq!(fill(&mut swept), second, "every later life repeats it");
        assert_eq!(swept.resident_bytes(), bytes);
    }

    #[test]
    fn responder_syn_ack_does_not_create_backwards_conn() {
        // If the first packet we see is the SYN from a scanner, the
        // originator must be the scanner regardless of canonical order.
        let back = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 200),
            55,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let mut t = ConnTable::new();
        t.process(&p(back, 1, TcpFlags::SYN, 0));
        t.process(&p(back.reversed(), 2, TcpFlags::SYN_ACK, 0));
        let r = t.get(&back).unwrap();
        assert_eq!(r.state, ConnState::S1);
        assert_eq!(r.orig_pkts, 1);
        assert_eq!(r.resp_pkts, 1);
    }
}
