//! The host-side escalation tier: a pool of N worker threads, each
//! running a [`smartwatch_host::HostNf`], fed by a bounded MPSC channel
//! that every shard shares.
//!
//! The paper bounds host escalation at ≤ 16% of packets (§3.4); the
//! engine enforces the same shape with a bounded channel — when host
//! workers fall behind, shards count `escalation_dropped` instead of
//! blocking the data path. Worker verdicts are published into the
//! [`ControlLog`](crate::control::ControlLog) with an epoch stamp, from
//! where shards apply them at batch boundaries.

use crate::control::ControlLog;
use crate::obs::{Clocks, Stage};
use smartwatch_host::{HostNf, Verdict};
use smartwatch_net::{FlowKey, Packet, Resident};
use smartwatch_telemetry::Counter;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The engine's default host NF: per-source escalation triage.
///
/// Every escalated packet charges its source address; once a source has
/// crossed `threshold` escalations it is considered hostile and each of
/// its flows is blacklisted on first sight after that point. This is a
/// deliberately simple stand-in for the heavyweight host analyzers (Zeek
/// scripts, the timing wheel) — the point in the runtime is the
/// escalate→verdict→enforce round trip, not the verdict logic.
pub struct TriageNf {
    threshold: u64,
    seen: HashMap<Ipv4Addr, u64>,
    issued: HashSet<FlowKey>,
}

impl TriageNf {
    /// Triage flagging sources after `threshold` escalated packets.
    pub fn new(threshold: u64) -> TriageNf {
        TriageNf {
            threshold: threshold.max(1),
            seen: HashMap::new(),
            issued: HashSet::new(),
        }
    }

    /// Back to the state [`TriageNf::new`] built, in place, keeping the
    /// threshold (see [`Resident`]).
    pub fn reset(&mut self) {
        self.seen.reset();
        self.issued.reset();
    }
}

impl HostNf for TriageNf {
    fn on_packet(&mut self, pkt: &Packet) -> Vec<Verdict> {
        let count = self.seen.entry(pkt.key.src_ip).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            let canon = pkt.key.canonical().0;
            if self.issued.insert(canon) {
                return vec![Verdict::Blacklist(canon)];
            }
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "triage"
    }
}

/// One escalated packet in flight to the host tier. An escalation out
/// of a sampled batch carries the reading the shard handed it off at, so
/// the host worker can account the full shard→host round trip
/// (`runtime.stage.escalate_ns`); any other carries nothing and is not
/// timed.
pub(crate) struct Escalated {
    pub pkt: Packet,
    pub sent: Option<Instant>,
}

/// A pool of host NF workers draining one bounded escalation channel.
pub struct HostPool {
    tx: Option<SyncSender<Escalated>>,
    handles: Vec<JoinHandle<()>>,
    /// Escalated packets actually processed by a host worker.
    pub processed: Counter,
}

impl HostPool {
    /// Escalation ring capacity the engine spawns its pool with, in
    /// packets (shared by the pool's workers).
    pub const QUEUE: usize = 4096;

    /// Spawn `workers` threads, each owning its own NF built by
    /// `make_nf` and its clock (`sw-host-{w}`). `queue` bounds in-flight
    /// escalations across the whole pool (the SR-IOV RX ring stand-in).
    /// Verdicts go straight to `log`.
    pub(crate) fn spawn<F>(
        workers: usize,
        queue: usize,
        log: Arc<ControlLog>,
        processed: Counter,
        clocks: &Clocks,
        make_nf: F,
    ) -> HostPool
    where
        F: Fn() -> Box<dyn HostNf>,
    {
        assert!(workers >= 1, "pool needs at least one worker");
        let (tx, rx) = sync_channel::<Escalated>(queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let log = Arc::clone(&log);
                let mut nf = make_nf();
                let processed = processed.clone();
                let name = format!("sw-host-{w}");
                let mut clock = clocks.thread(&name);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        loop {
                            // The receiver lock is held for one blocking
                            // `recv` and released before the NF runs, so
                            // workers take turns waiting and process side
                            // by side. Once every sender is gone the queue
                            // drains before `recv` fails.
                            let next = rx.lock().expect("pool receiver poisoned").recv();
                            let Ok(esc) = next else { return };
                            processed.inc();
                            for v in nf.on_packet(&esc.pkt) {
                                log.publish(v);
                            }
                            // The full shard→verdict round trip, queueing
                            // included.
                            if let Some(sent) = esc.sent {
                                let now = clock.now();
                                clock.close(Stage::Escalate, sent, now);
                            }
                        }
                    })
                    .expect("spawn host worker")
            })
            .collect();
        HostPool {
            tx: Some(tx),
            handles,
            processed,
        }
    }

    /// A sender clone for a shard thread to own. The pool still shuts
    /// down cleanly only once every clone is dropped, so shards must be
    /// joined before `shutdown()` — the engine does exactly that.
    pub(crate) fn sender(&self) -> SyncSender<Escalated> {
        self.tx.as_ref().expect("pool already shut down").clone()
    }

    /// Close the channel, let workers drain every queued escalation, and
    /// join them. Verdicts published during the drain land in the log.
    pub fn shutdown(mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HostPool {
    fn drop(&mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::{PacketBuilder, Ts};
    use smartwatch_telemetry::Registry;

    fn pkt(src_octet: u8, dport: u16) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, src_octet),
            40_000 + u16::from(src_octet),
            Ipv4Addr::new(10, 0, 1, 1),
            dport,
        );
        PacketBuilder::new(key, Ts::ZERO).build()
    }

    /// Hand one packet to the pool as a shard does; `false` = ring full.
    fn send(pool: &HostPool, pkt: Packet, sent: Option<Instant>) -> bool {
        pool.sender().try_send(Escalated { pkt, sent }).is_ok()
    }

    #[test]
    fn triage_blacklists_after_threshold_once_per_flow() {
        let mut nf = TriageNf::new(3);
        assert!(nf.on_packet(&pkt(1, 22)).is_empty());
        assert!(nf.on_packet(&pkt(1, 22)).is_empty());
        let v = nf.on_packet(&pkt(1, 22));
        assert_eq!(v.len(), 1, "third escalation crosses the threshold");
        assert!(matches!(v[0], Verdict::Blacklist(_)));
        assert!(
            nf.on_packet(&pkt(1, 22)).is_empty(),
            "same flow blacklisted once"
        );
        let other_flow = nf.on_packet(&pkt(1, 23));
        assert_eq!(other_flow.len(), 1, "new flow from a hostile source");
    }

    #[test]
    fn pool_processes_everything_and_times_the_sampled_escalations() {
        let log = Arc::new(ControlLog::new());
        let clocks = Clocks::new(&Registry::new(), 0, None, 0);
        let pool = HostPool::spawn(
            2,
            256,
            Arc::clone(&log),
            Counter::detached(),
            &clocks,
            || Box::new(TriageNf::new(1)),
        );
        let mut sent = 0u64;
        for i in 0..100u8 {
            // Every other escalation comes out of a sampled batch.
            if send(&pool, pkt(i, 22), (i % 2 == 0).then(Instant::now)) {
                sent += 1;
            }
        }
        assert_eq!(sent, 100, "queue of 256 never fills here");
        let processed = pool.processed.clone();
        pool.shutdown();
        assert_eq!(processed.get(), 100, "shutdown drains the queue");
        // threshold=1 and distinct flows ⇒ one blacklist per packet.
        assert_eq!(log.len(), 100);
        let hist = &clocks.hists[Stage::Escalate];
        assert_eq!(hist.count(), 50, "a round trip per stamped escalation");
        assert!(hist.max() > 0, "round-trip latency is a real duration");
    }

    #[test]
    fn full_pool_ring_rejects_without_blocking() {
        struct Stuck;
        impl HostNf for Stuck {
            fn on_packet(&mut self, _pkt: &Packet) -> Vec<Verdict> {
                std::thread::sleep(std::time::Duration::from_millis(250));
                Vec::new()
            }
            fn name(&self) -> &str {
                "stuck"
            }
        }
        let log = Arc::new(ControlLog::new());
        let clocks = Clocks::new(&Registry::new(), 0, None, 0);
        let pool = HostPool::spawn(1, 2, log, Counter::detached(), &clocks, || Box::new(Stuck));
        let mut rejected = false;
        for i in 0..64u8 {
            if !send(&pool, pkt(i, 22), None) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "bounded escalation ring must reject when full");
    }
}
