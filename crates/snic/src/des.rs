//! Discrete-event simulation of the sNIC micro-engine array.
//!
//! Drives a [`FlowCache`] with a packet stream, costing every access via
//! the [`hw`](crate::hw) model and simulating the PME pool as a bank of
//! parallel servers with a bounded ingress buffer. Outputs the numbers the
//! paper's Figs. 4b, 5, 6, 11b and Table 3 report: achieved throughput
//! (Mpps), loss, and the packet-latency distribution.
//!
//! The PME pool is modelled as `pmes` servers whose per-packet holding
//! time is `max(busy, (busy + wait) / threads)` — threads overlap memory
//! waits but a core can never beat its CPU-bound rate. Packets that would
//! wait longer than the ingress buffer horizon are dropped, which is how
//! "violating the cycle budget leads to dropping of packets at higher
//! arrival rates" (§2.3.2) manifests.

use crate::cme::SwitchOver;
use crate::flowcache::{FlowCache, Outcome};
use crate::hw::{service_time, CycleCosts, HwProfile};
use smartwatch_net::{Dur, Packet};
use smartwatch_telemetry::{Histogram, Registry, TraceShard};
use std::collections::BinaryHeap;

/// Ingress buffering horizon: a packet that would wait longer than this
/// is dropped.
const MAX_QUEUE_DELAY: Dur = Dur::from_micros(12);

/// DES configuration.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// Hardware profile to cost against.
    pub hw: HwProfile,
    /// Per-operation cycle costs.
    pub costs: CycleCosts,
    /// PMEs dedicated to packet processing (paper: 80 total MEs, 3 kept as
    /// CMEs ⇒ 77–80 swept in Fig. 6b).
    pub pmes: u32,
    /// Offered rate in packets/sec: packet timestamps are re-spaced
    /// uniformly at this rate (MoonGen-style replay).
    pub offered_pps: f64,
    /// Optional Algorithm 4 controller that reconfigures the cache while
    /// the simulation runs (sampled every `rate_sample_every` packets).
    pub switchover: Option<SwitchOver>,
    /// Arrival-rate sampling stride for the controller.
    pub rate_sample_every: usize,
    /// Packet-sampling fraction for the FlowCache (1.0 = every packet).
    /// Sampling buys throughput the way NitroSketch does — and exactly as
    /// the paper notes (§2.3.2), it forfeits flow-state tracking: sampled-
    /// out packets never reach the cache.
    pub sampling: f64,
}

impl DesConfig {
    /// Netronome defaults with a fixed offered rate.
    pub fn netronome(offered_pps: f64) -> DesConfig {
        DesConfig {
            hw: crate::hw::NETRONOME_AGILIO_LX,
            costs: CycleCosts::default(),
            pmes: 80,
            offered_pps,
            switchover: None,
            rate_sample_every: 4096,
            sampling: 1.0,
        }
    }
}

/// Latency percentiles in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyDist {
    /// Mean latency.
    pub mean_ns: f64,
    /// 50th percentile.
    pub p50_ns: u64,
    /// 75th percentile.
    pub p75_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum observed.
    pub max_ns: u64,
}

impl LatencyDist {
    /// Summarise a recorded [`Histogram`]. Quantiles inherit the
    /// histogram's bounded relative error
    /// ([`smartwatch_telemetry::QUANTILE_ERROR_BOUND`]); mean and max are
    /// exact.
    pub(crate) fn from_histogram(h: &Histogram) -> LatencyDist {
        LatencyDist {
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p75_ns: h.quantile(0.75),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
        }
    }

    /// Build from raw latency samples.
    pub fn from_samples(samples: Vec<u64>) -> LatencyDist {
        let h = Histogram::new();
        for v in samples {
            h.record(v);
        }
        LatencyDist::from_histogram(&h)
    }
}

/// Simulation output.
#[derive(Clone, Debug, Default)]
pub struct DesReport {
    /// Packets offered to the NIC.
    pub offered: u64,
    /// Packets fully processed.
    pub completed: u64,
    /// Packets dropped at ingress (buffer horizon exceeded).
    pub dropped: u64,
    /// Packets skipped by sampling (forwarded unmonitored).
    pub sampled_out: u64,
    /// Offered rate over the run, packets/sec.
    pub offered_pps: f64,
    /// Achieved (completed) rate, packets/sec.
    pub achieved_pps: f64,
    /// Overall latency distribution.
    pub latency: LatencyDist,
    /// Latency distribution of cache hits only (Fig. 4b).
    pub hit_latency: LatencyDist,
    /// Latency distribution of misses only (Fig. 4b).
    pub miss_latency: LatencyDist,
    /// Mode switches performed by the controller during the run.
    pub mode_switches: u32,
}

impl DesReport {
    /// Loss fraction.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Achieved throughput in Mpps.
    pub fn achieved_mpps(&self) -> f64 {
        self.achieved_pps / 1e6
    }
}

/// Run the simulation: feed `packets` through `cache` on the configured
/// hardware.
pub fn simulate(cache: &mut FlowCache, packets: &[Packet], cfg: &DesConfig) -> DesReport {
    simulate_instrumented(cache, packets, cfg, None, None)
}

/// [`simulate`] with observability: when `registry` is given, the run's
/// latency/queue-wait distributions, outcome counters, per-PME busy and
/// stall nanoseconds, and the controller's mode switches are published
/// under `snic.des.*` / `snic.pme.*`; when `trace` is given, mode
/// switches become virtual-clock instants on that shard. Metrics
/// accumulate across calls sharing a registry, so back-to-back runs
/// aggregate — use a fresh registry per run for per-run dumps.
pub fn simulate_instrumented(
    cache: &mut FlowCache,
    packets: &[Packet],
    cfg: &DesConfig,
    registry: Option<&Registry>,
    trace: Option<&TraceShard>,
) -> DesReport {
    let mut report = DesReport {
        offered: packets.len() as u64,
        ..Default::default()
    };
    if packets.is_empty() {
        return report;
    }

    // Server pool: min-heap of (next-free time ns, PME id). BinaryHeap is
    // a max-heap, so entries are wrapped in Reverse; the id tie-break
    // keeps pop order deterministic.
    use std::cmp::Reverse;
    let mut servers: BinaryHeap<Reverse<(u64, u32)>> =
        (0..cfg.pmes).map(|id| Reverse((0u64, id))).collect();
    let mut pme_busy_ns = vec![0u64; cfg.pmes as usize];
    let mut pme_stall_ns = vec![0u64; cfg.pmes as usize];

    let lat_all = Histogram::new();
    let lat_hit = Histogram::new();
    let lat_miss = Histogram::new();
    let queue_wait_hist = Histogram::new();
    let mut busy_peak = 0usize;
    let mut switchover = cfg.switchover.clone();
    let mut window_start_ns = 0u64;
    let mut window_count = 0u64;

    let t0 = packets[0].ts.as_nanos();
    let gap_ns = 1e9 / cfg.offered_pps;
    let mut first_arrival = u64::MAX;
    let mut last_arrival = 0u64;

    for (i, pkt) in packets.iter().enumerate() {
        let arrival = t0 + (i as f64 * gap_ns) as u64;
        first_arrival = first_arrival.min(arrival);
        last_arrival = last_arrival.max(arrival);

        // Algorithm 4 controller: sample the arrival rate periodically.
        if let Some(ctrl) = switchover.as_mut() {
            window_count += 1;
            if window_count as usize >= cfg.rate_sample_every {
                let span = arrival.saturating_sub(window_start_ns).max(1);
                let rate = window_count as f64 * 1e9 / span as f64;
                if let Some(mode) = ctrl.observe(rate) {
                    cache.set_mode(mode);
                    report.mode_switches += 1;
                    if let Some(shard) = trace {
                        let name = match mode {
                            crate::flowcache::Mode::General => "mode->general",
                            crate::flowcache::Mode::Lite => "mode->lite",
                        };
                        shard.instant(smartwatch_net::Ts::from_nanos(arrival), name, "cme");
                    }
                }
                window_start_ns = arrival;
                window_count = 0;
            }
        }

        // Run-queue depth proxy, sampled on a fixed stride: how many PMEs
        // are still busy when this packet arrives.
        if registry.is_some() && i % 1024 == 0 {
            let busy_now = servers
                .iter()
                .filter(|Reverse((f, _))| *f > arrival)
                .count();
            busy_peak = busy_peak.max(busy_now);
        }

        let Reverse((free_at, pme)) = servers.pop().expect("non-empty pool");
        let start = free_at.max(arrival);
        let queue_wait = start - arrival;
        if queue_wait > MAX_QUEUE_DELAY.as_nanos() {
            // Drop at ingress; the server's schedule is unchanged.
            servers.push(Reverse((free_at, pme)));
            report.dropped += 1;
            continue;
        }
        // Time this PME sat idle waiting for work.
        pme_stall_ns[pme as usize] += arrival.saturating_sub(free_at);
        queue_wait_hist.record(queue_wait);

        // Deterministic stride sampling (NitroSketch-style throughput
        // relief): sampled-out packets pay only the forwarding pipeline.
        let sampled_out = cfg.sampling < 1.0 && (i as f64 * cfg.sampling).fract() >= cfg.sampling;
        let (access, busy, wait) = if sampled_out {
            report.sampled_out += 1;
            let a = crate::flowcache::Access {
                outcome: Outcome::PHit,
                probes: 0,
                writes: 0,
                ring_pushes: 0,
                cleaned_row: false,
                packets: 0,
            };
            let busy = f64::from(cfg.costs.pipeline) / (cfg.hw.clock_ghz * cfg.hw.perf_factor);
            (a, busy, 0.0)
        } else {
            let access = cache.process(pkt);
            let (busy, wait) = service_time(&cfg.hw, &cfg.costs, &access);
            (access, busy, wait)
        };
        // Per-packet holding time on its PME: threads overlap this
        // packet's memory waits with other packets' work, so the server is
        // held for the larger of its CPU-bound and thread-shared time.
        let hold = busy.max((busy + wait) / f64::from(cfg.hw.overlap_contexts));
        // The packet itself experiences the full busy+wait latency.
        let service_latency = (busy + wait) as u64;
        let done = start + hold as u64;
        pme_busy_ns[pme as usize] += hold as u64;
        servers.push(Reverse((done, pme)));

        let latency = queue_wait + service_latency;
        lat_all.record(latency);
        if !sampled_out {
            match access.outcome {
                Outcome::PHit | Outcome::EHit => lat_hit.record(latency),
                Outcome::Miss => lat_miss.record(latency),
                Outcome::ToHost => {}
            }
        }
        report.completed += 1;
    }

    let span_ns = (last_arrival - first_arrival).max(1);
    report.offered_pps = report.offered as f64 * 1e9 / span_ns as f64;
    report.achieved_pps = report.completed as f64 * 1e9 / span_ns as f64;
    report.latency = LatencyDist::from_histogram(&lat_all);
    report.hit_latency = LatencyDist::from_histogram(&lat_hit);
    report.miss_latency = LatencyDist::from_histogram(&lat_miss);

    if let Some(reg) = registry {
        reg.histogram("snic.des.latency_ns", &[("class", "all")])
            .merge_from(&lat_all);
        reg.histogram("snic.des.latency_ns", &[("class", "hit")])
            .merge_from(&lat_hit);
        reg.histogram("snic.des.latency_ns", &[("class", "miss")])
            .merge_from(&lat_miss);
        reg.histogram("snic.des.queue_wait_ns", &[])
            .merge_from(&queue_wait_hist);
        reg.counter("snic.des.offered", &[]).add(report.offered);
        reg.counter("snic.des.completed", &[]).add(report.completed);
        reg.counter("snic.des.dropped", &[]).add(report.dropped);
        reg.counter("snic.des.sampled_out", &[])
            .add(report.sampled_out);
        reg.counter("snic.des.mode_switches", &[])
            .add(u64::from(report.mode_switches));
        reg.gauge("snic.des.busy_pmes_peak", &[])
            .set_max(busy_peak as f64);
        for (id, (&busy, &stall)) in pme_busy_ns.iter().zip(&pme_stall_ns).enumerate() {
            let label = format!("{id:02}");
            reg.counter("snic.pme.busy_ns", &[("pme", &label)])
                .add(busy);
            reg.counter("snic.pme.stall_ns", &[("pme", &label)])
                .add(stall);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowcache::FlowCacheConfig;
    use crate::policy::CachePolicy;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn packets(n: usize, flows: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let key = FlowKey::tcp(
                    Ipv4Addr::from(0x0A000000 + (i as u32 % flows)),
                    1000,
                    Ipv4Addr::from(0xAC100001u32),
                    80,
                );
                PacketBuilder::new(key, Ts::from_nanos(i as u64 * 50)).build()
            })
            .collect()
    }

    fn cache() -> FlowCache {
        FlowCache::new(FlowCacheConfig::split(10, 4, 8, CachePolicy::LRU_LPC))
    }

    #[test]
    fn low_rate_is_lossless() {
        let mut fc = cache();
        let cfg = DesConfig::netronome(1.0e6);
        let rep = simulate(&mut fc, &packets(20_000, 500), &cfg);
        assert_eq!(rep.dropped, 0);
        assert!(rep.achieved_mpps() > 0.9 && rep.achieved_mpps() < 1.1);
    }

    #[test]
    fn absurd_rate_drops_packets() {
        let mut fc = cache();
        let cfg = DesConfig::netronome(500.0e6); // 500 Mpps >> capacity
        let rep = simulate(&mut fc, &packets(50_000, 500), &cfg);
        assert!(rep.loss_rate() > 0.5, "loss {}", rep.loss_rate());
    }

    #[test]
    fn hits_are_faster_than_misses() {
        let mut fc = cache();
        let cfg = DesConfig::netronome(5.0e6);
        let rep = simulate(&mut fc, &packets(50_000, 2_000), &cfg);
        assert!(rep.hit_latency.mean_ns > 0.0 && rep.miss_latency.mean_ns > 0.0);
        assert!(
            rep.miss_latency.mean_ns > rep.hit_latency.mean_ns,
            "miss {} !> hit {}",
            rep.miss_latency.mean_ns,
            rep.hit_latency.mean_ns
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut fc = cache();
        let cfg = DesConfig::netronome(20.0e6);
        let rep = simulate(&mut fc, &packets(100_000, 5_000), &cfg);
        let l = rep.latency;
        assert!(l.p50_ns <= l.p75_ns);
        assert!(l.p75_ns <= l.p99_ns);
        assert!(l.p99_ns <= l.p999_ns);
        assert!(l.p999_ns <= l.max_ns);
    }

    #[test]
    fn fewer_pmes_less_throughput() {
        let run = |pmes: u32| {
            let mut fc = cache();
            let mut cfg = DesConfig::netronome(60.0e6);
            cfg.pmes = pmes;
            simulate(&mut fc, &packets(100_000, 2_000), &cfg).achieved_mpps()
        };
        assert!(run(20) < run(80) * 0.6);
    }

    #[test]
    fn controller_switches_modes_under_overload() {
        let mut fc = cache();
        let mut cfg = DesConfig::netronome(43.0e6);
        cfg.switchover = Some(SwitchOver::paper_default());
        cfg.rate_sample_every = 2_000;
        let rep = simulate(&mut fc, &packets(100_000, 2_000), &cfg);
        assert!(rep.mode_switches >= 1, "should have switched to Lite");
        assert_eq!(fc.mode(), crate::flowcache::Mode::Lite);
    }

    #[test]
    fn empty_input_is_empty_report() {
        let mut fc = cache();
        let rep = simulate(&mut fc, &[], &DesConfig::netronome(1.0e6));
        assert_eq!(rep.offered, 0);
        assert_eq!(rep.completed, 0);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use crate::flowcache::{FlowCache, FlowCacheConfig};
    use crate::policy::CachePolicy;
    use smartwatch_net::{FlowKey, PacketBuilder, Ts};
    use std::net::Ipv4Addr;

    fn packets(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let key = FlowKey::tcp(
                    Ipv4Addr::from(0x0A000000 + (i as u32 % 700)),
                    1000,
                    Ipv4Addr::from(0xAC100001u32),
                    80,
                );
                PacketBuilder::new(key, Ts::from_nanos(i as u64 * 40)).build()
            })
            .collect()
    }

    #[test]
    fn sampling_skips_the_right_fraction() {
        let mut fc = FlowCache::new(FlowCacheConfig::split(10, 4, 8, CachePolicy::LRU_LPC));
        let mut cfg = DesConfig::netronome(10.0e6);
        cfg.sampling = 0.25;
        let rep = simulate(&mut fc, &packets(40_000), &cfg);
        let frac = rep.sampled_out as f64 / rep.completed.max(1) as f64;
        assert!((frac - 0.75).abs() < 0.02, "sampled-out fraction {frac}");
        // The cache saw only the sampled quarter.
        let processed = fc.stats().processed();
        assert!(
            (processed as f64 - rep.completed as f64 * 0.25).abs() < rep.completed as f64 * 0.02,
            "cache processed {processed} of {}",
            rep.completed
        );
    }

    #[test]
    fn sampling_raises_achievable_throughput() {
        let run = |sampling: f64| {
            let mut fc = FlowCache::new(FlowCacheConfig::split(10, 4, 8, CachePolicy::LRU_LPC));
            let mut cfg = DesConfig::netronome(90.0e6);
            cfg.sampling = sampling;
            simulate(&mut fc, &packets(60_000), &cfg).achieved_mpps()
        };
        let lossless = run(1.0);
        let sampled = run(0.1);
        assert!(
            sampled > lossless * 1.3,
            "1/10 sampling should lift throughput: {lossless} -> {sampled}"
        );
    }

    #[test]
    fn sampling_one_is_identity() {
        let mut a = FlowCache::new(FlowCacheConfig::split(8, 4, 8, CachePolicy::LRU_LPC));
        let mut b = FlowCache::new(FlowCacheConfig::split(8, 4, 8, CachePolicy::LRU_LPC));
        let pkts = packets(5_000);
        let cfg = DesConfig::netronome(5.0e6);
        let mut cfg1 = cfg.clone();
        cfg1.sampling = 1.0;
        let r1 = simulate(&mut a, &pkts, &cfg1);
        let r2 = simulate(&mut b, &pkts, &cfg);
        assert_eq!(r1.sampled_out, 0);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(a.stats().processed(), b.stats().processed());
    }
}
