//! Microburst detection support (paper §5.3.2).
//!
//! Two pieces:
//!
//! - [`EgressQueue`] — a fluid model of the egress port queue. PMEs
//!   compute per-packet queuing delay as (now − MAC ingress timestamp);
//!   in simulation the same quantity falls out of a drain-rate queue
//!   model.
//! - [`BurstLog`] — the linear array `L` of unique 5-tuples that
//!   SmartWatch fills while the queuing delay exceeds the operator
//!   threshold, with the FlowCache↔L double-link replaced by a hash index
//!   (same uniqueness/lookup contract). When the delay falls back under
//!   the threshold the burst ends and the contributing flows are reported.

use smartwatch_net::{Dur, FlowKey, Packet, Ts};

/// Fluid egress-queue model: packets add bytes, the line drains them.
#[derive(Clone, Debug)]
pub struct EgressQueue {
    /// Drain rate in bytes per second.
    pub rate_bps: f64,
    backlog_bytes: f64,
    last: Option<Ts>,
}

impl EgressQueue {
    /// Queue draining at `rate_gbps` gigabits/sec.
    pub fn new(rate_gbps: f64) -> EgressQueue {
        assert!(rate_gbps > 0.0);
        EgressQueue {
            rate_bps: rate_gbps * 1e9 / 8.0,
            backlog_bytes: 0.0,
            last: None,
        }
    }

    /// Account one packet's arrival; returns the queuing delay it sees.
    pub fn on_packet(&mut self, pkt: &Packet) -> Dur {
        if let Some(last) = self.last {
            let elapsed = (pkt.ts - last).as_secs_f64();
            self.backlog_bytes = (self.backlog_bytes - elapsed * self.rate_bps).max(0.0);
        }
        self.last = Some(pkt.ts);
        let delay_s = self.backlog_bytes / self.rate_bps;
        self.backlog_bytes += f64::from(pkt.wire_len);
        Dur::from_secs_f64(delay_s)
    }
}

/// One reported microburst.
#[derive(Clone, Debug)]
pub struct BurstReport {
    /// Monotonically increasing burst id.
    pub id: u32,
    /// When the queuing delay first exceeded the threshold.
    pub start: Ts,
    /// When it fell back below.
    pub end: Ts,
    /// Contributing flows with their in-burst packet counts — exact, no
    /// approximation (the paper's contrast with ConQuest's overestimation).
    pub flows: Vec<(FlowKey, u64)>,
}

/// The linear flow array `L` plus the burst state machine.
#[derive(Clone, Debug)]
pub struct BurstLog {
    /// Operator threshold on queuing delay that opens a burst.
    pub threshold: Dur,
    /// Capacity of `L` (the paper sizes it at 96 MB of 5-tuple entries).
    pub capacity: usize,
    entries: Vec<(FlowKey, u64)>,
    index: std::collections::HashMap<FlowKey, usize>,
    active: Option<(u32, Ts)>,
    next_id: u32,
    reports: Vec<BurstReport>,
    /// Packets that arrived during a burst after `L` filled (truncation
    /// signal; zero in correctly sized deployments).
    pub overflow: u64,
}

impl BurstLog {
    /// Log opening bursts at `threshold` queuing delay, holding up to
    /// `capacity` unique flows per burst.
    pub fn new(threshold: Dur, capacity: usize) -> BurstLog {
        BurstLog {
            threshold,
            capacity,
            entries: Vec::new(),
            index: std::collections::HashMap::new(),
            active: None,
            next_id: 0,
            reports: Vec::new(),
            overflow: 0,
        }
    }

    /// Feed one packet with the queuing delay it experienced. The CME
    /// closes the burst (scanning `L` and emitting a report) when the
    /// delay drops back under the threshold.
    pub fn on_packet(&mut self, pkt: &Packet, queue_delay: Dur) {
        let over = queue_delay >= self.threshold;
        match (self.active, over) {
            (None, true) => {
                self.active = Some((self.next_id, pkt.ts));
                self.next_id += 1;
                self.record(pkt);
            }
            (Some(_), true) => self.record(pkt),
            (Some((id, start)), false) => {
                // Burst ends: the CME scans L and reports.
                let flows = std::mem::take(&mut self.entries);
                self.index.clear();
                self.reports.push(BurstReport {
                    id,
                    start,
                    end: pkt.ts,
                    flows,
                });
                self.active = None;
            }
            (None, false) => {}
        }
    }

    fn record(&mut self, pkt: &Packet) {
        let key = pkt.key.canonical().0;
        match self.index.get(&key) {
            Some(&i) => self.entries[i].1 += 1,
            None => {
                if self.entries.len() >= self.capacity {
                    self.overflow += 1;
                    return;
                }
                self.index.insert(key, self.entries.len());
                self.entries.push((key, 1));
            }
        }
    }

    /// Force-close any active burst at `now` (end of trace).
    pub fn finish(&mut self, now: Ts) {
        if let Some((id, start)) = self.active.take() {
            let flows = std::mem::take(&mut self.entries);
            self.index.clear();
            self.reports.push(BurstReport {
                id,
                start,
                end: now,
                flows,
            });
        }
    }

    /// Completed burst reports.
    pub fn reports(&self) -> &[BurstReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt(flow: u32, ts_us: u64, len: u16) -> Packet {
        let key = FlowKey::tcp(
            Ipv4Addr::from(0x0A000000 + flow),
            5,
            Ipv4Addr::from(0xAC100001u32),
            80,
        );
        let mut p = PacketBuilder::new(key, Ts::from_micros(ts_us)).build();
        p.wire_len = len;
        p
    }

    #[test]
    fn queue_builds_and_drains() {
        let mut q = EgressQueue::new(0.01); // 10 Mbps: slow, builds easily
                                            // 10 × 1250-byte packets back-to-back (1 µs apart): backlog grows.
        let mut last_delay = Dur::ZERO;
        for i in 0..10 {
            last_delay = q.on_packet(&pkt(1, i, 1250));
        }
        assert!(last_delay > Dur::ZERO);
        // A packet after a long idle period sees an empty queue.
        let d = q.on_packet(&pkt(1, 1_000_000, 1250));
        assert_eq!(d, Dur::ZERO);
    }

    #[test]
    fn burst_opens_and_closes_with_threshold() {
        let mut log = BurstLog::new(Dur::from_micros(100), 1024);
        // Below threshold: nothing.
        log.on_packet(&pkt(1, 0, 64), Dur::from_micros(10));
        assert!(log.reports().is_empty());
        // Above: burst opens, two flows contribute.
        log.on_packet(&pkt(1, 10, 64), Dur::from_micros(200));
        log.on_packet(&pkt(2, 20, 64), Dur::from_micros(300));
        log.on_packet(&pkt(1, 30, 64), Dur::from_micros(250));
        // Drops below: burst closes.
        log.on_packet(&pkt(3, 40, 64), Dur::from_micros(5));
        let reports = log.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.flows.len(), 2);
        let f1 = r
            .flows
            .iter()
            .find(|(k, _)| k.src_ip == Ipv4Addr::from(0x0A000001u32));
        assert_eq!(f1.expect("flow 1 present").1, 2);
    }

    #[test]
    fn capacity_overflow_counted() {
        let mut log = BurstLog::new(Dur::from_micros(1), 2);
        for f in 0..5 {
            log.on_packet(&pkt(f, u64::from(f), 64), Dur::from_micros(10));
        }
        assert_eq!(log.overflow, 3);
        log.finish(Ts::from_micros(100));
        assert_eq!(log.reports()[0].flows.len(), 2);
    }

    #[test]
    fn finish_closes_dangling_burst() {
        let mut log = BurstLog::new(Dur::from_micros(1), 16);
        log.on_packet(&pkt(1, 0, 64), Dur::from_micros(10));
        log.finish(Ts::from_micros(50));
        assert_eq!(log.reports().len(), 1);
        let r = &log.reports()[0];
        assert_eq!(r.end - r.start, Dur::from_micros(50));
    }

    #[test]
    fn multiple_bursts_get_distinct_ids() {
        let mut log = BurstLog::new(Dur::from_micros(100), 16);
        for b in 0..3u64 {
            log.on_packet(&pkt(1, b * 100, 64), Dur::from_micros(200));
            log.on_packet(&pkt(1, b * 100 + 50, 64), Dur::ZERO);
        }
        let ids: Vec<u32> = log.reports().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
