//! Microburst detection (paper §5.3.2): composition of the egress-queue
//! model and the sNIC burst log into a packet-in, report-out detector.

use smartwatch_net::{Dur, Packet, Ts};
use smartwatch_snic::burstlog::{BurstLog, BurstReport, EgressQueue};

/// End-to-end microburst detector.
#[derive(Clone, Debug)]
pub struct MicroburstDetector {
    queue: EgressQueue,
    log: BurstLog,
}

impl MicroburstDetector {
    /// Detector watching an egress of `rate_gbps`, classifying bursts at
    /// `threshold` queuing delay, logging up to `capacity` flows each.
    pub fn new(rate_gbps: f64, threshold: Dur, capacity: usize) -> MicroburstDetector {
        MicroburstDetector {
            queue: EgressQueue::new(rate_gbps),
            log: BurstLog::new(threshold, capacity),
        }
    }

    /// Feed one packet.
    pub fn on_packet(&mut self, p: &Packet) {
        let delay = self.queue.on_packet(p);
        self.log.on_packet(p, delay);
    }

    /// Close any in-progress burst and return all reports.
    pub fn finish(&mut self, now: Ts) -> &[BurstReport] {
        self.log.finish(now);
        self.log.reports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartwatch_trace::attacks::microburst::{burst_flows, microbursts, MicroburstConfig};

    #[test]
    fn generated_bursts_are_found_with_high_flow_capture() {
        let cfg = MicroburstConfig::new(6, 55);
        let trace = microbursts(&cfg);
        // Egress sized so in-burst load exceeds drain: 24 flows × 12 pkts
        // × ~1254 B in 150 µs ≈ 19 Gbps instantaneous; use a 10 G egress.
        let mut det = MicroburstDetector::new(10.0, Dur::from_micros(20), 4096);
        for p in trace.iter() {
            det.on_packet(p);
        }
        let last = trace.packets().last().unwrap().ts;
        let reports = det.finish(last + Dur::from_secs(1)).to_vec();
        assert!(
            reports.len() >= cfg.bursts as usize,
            "found {} bursts of {}",
            reports.len(),
            cfg.bursts
        );
        // Flow capture: the union of reported flows must cover nearly all
        // ground-truth flows of each burst (Fig. 11a at permissive
        // thresholds reaches 100%).
        let mut reported: Vec<_> = reports
            .iter()
            .flat_map(|r| r.flows.iter().map(|(k, _)| *k))
            .collect();
        reported.sort();
        reported.dedup();
        let mut total = 0usize;
        let mut captured = 0usize;
        for b in 0..cfg.bursts {
            for f in burst_flows(&trace, b) {
                total += 1;
                if reported.binary_search(&f).is_ok() {
                    captured += 1;
                }
            }
        }
        let rate = captured as f64 / total as f64;
        assert!(rate > 0.9, "captured {rate:.2} of burst flows");
    }

    #[test]
    fn idle_traffic_reports_nothing() {
        let mut det = MicroburstDetector::new(40.0, Dur::from_micros(100), 1024);
        // Sparse packets on a fat pipe never build queue.
        for i in 0..1000u64 {
            let key = smartwatch_net::FlowKey::tcp(
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                1,
                std::net::Ipv4Addr::new(172, 16, 0, 1),
                80,
            );
            let p = smartwatch_net::PacketBuilder::new(key, Ts::from_micros(i * 500))
                .payload(1200)
                .build();
            det.on_packet(&p);
        }
        assert!(det.finish(Ts::from_secs(1)).is_empty());
    }

    #[test]
    fn higher_threshold_misses_flows() {
        // Fig. 11a's shape: stricter (higher) classification thresholds
        // open the burst later and capture fewer member flows... inverted
        // axis in the paper; here: a very high threshold finds nothing.
        let cfg = MicroburstConfig::new(3, 56);
        let trace = microbursts(&cfg);
        let mut strict = MicroburstDetector::new(10.0, Dur::from_millis(50), 4096);
        for p in trace.iter() {
            strict.on_packet(p);
        }
        let last = trace.packets().last().unwrap().ts;
        assert!(
            strict.finish(last).is_empty(),
            "50 ms threshold can never trip"
        );
    }
}
