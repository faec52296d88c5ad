//! Probes of the layers the single-threaded walk cannot reach: the
//! cross-thread lane, the verdict log, the per-batch counter fold, the
//! controller's epoch and the steering-snapshot refresh — each a fixed
//! amount of work timed from outside through public functions — plus
//! the calibration kernel that lets numbers from different machines be
//! normalised.

use crate::stats::median;
use smartwatch_control::{
    ControlConfig, Controller, EpochInput, ShardSample, SnapshotCell, SteeringSnapshot,
};
use smartwatch_host::Verdict;
use smartwatch_net::hash::splitmix64;
use smartwatch_net::FlowKey;
use smartwatch_runtime::spsc::spsc;
use smartwatch_runtime::ControlLog;
use smartwatch_telemetry::Registry;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Packets per batch and lane capacity in batches: the engine defaults
/// every workload runs with.
const BATCH: usize = 64;
const LANE_BATCHES: usize = 64;

/// The `i`-th of a family of distinct SSH flows toward one server.
fn flow(i: u64) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::from(0x0A00_0000 | (i as u32 & 0x00FF_FFFF)),
        40_000,
        Ipv4Addr::new(10, 0, 0, 1),
        22,
    )
}

/// Two-thread batch ping through the SPSC lane: a producer pushes
/// `batches` 64-entry buffers with the flat-out policy (retry on full),
/// a consumer pops them and sends each buffer home over a second lane,
/// as the engine's recycle path does. Returns (ns per batch end to end,
/// share of push attempts that found the lane full).
pub fn spsc_ping(batches: u64) -> (f64, f64) {
    let (tx, rx) = spsc::<Vec<u64>>(LANE_BATCHES);
    let (home_tx, home_rx) = spsc::<Vec<u64>>(LANE_BATCHES + 2);
    let mut full = 0u64;
    let mut attempts = 0u64;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut seen = 0u64;
            while seen < batches {
                if let Some(buf) = rx.try_pop() {
                    seen += 1;
                    black_box(buf.len());
                    // The home lane holds every buffer in existence, so
                    // this push cannot find it full.
                    home_tx.try_push(buf).expect("home lane has room");
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut spare: Vec<Vec<u64>> = (0..LANE_BATCHES + 1).map(|_| vec![0u64; BATCH]).collect();
        let mut sent = 0u64;
        while sent < batches {
            let mut buf = match spare.pop().or_else(|| home_rx.try_pop()) {
                Some(buf) => buf,
                None => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            buf[0] = sent;
            loop {
                attempts += 1;
                match tx.try_push(buf) {
                    Ok(()) => break,
                    Err(back) => {
                        full += 1;
                        buf = back;
                        std::hint::spin_loop();
                    }
                }
            }
            sent += 1;
        }
    });
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / batches as f64, full as f64 / attempts as f64)
}

/// Mean ns to publish one verdict into a [`ControlLog`] with one
/// registered reader polling every 64 publications (so the log compacts
/// as it does under a live shard).
pub fn control_publish_ns(verdicts: u64) -> f64 {
    let log = ControlLog::new();
    let reader = log.reader();
    let t0 = Instant::now();
    for i in 0..verdicts {
        log.publish(Verdict::Blacklist(flow(i)));
        if i % 64 == 63 {
            black_box(log.poll(&reader).len());
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    log.release(reader);
    ns / verdicts as f64
}

/// Mean ns of one per-batch telemetry fold as a shard performs it: seven
/// counter adds plus three histogram `record_all` calls carrying the
/// 1-in-16 sampled stage timings of a 64-packet batch.
pub fn hist_flush_ns_per_batch(batches: u64) -> f64 {
    let reg = Registry::new();
    let labels: &[(&str, &str)] = &[("shard", "0")];
    let counters: Vec<_> = [
        "processed",
        "verdict_dropped",
        "fast_path",
        "escalated",
        "escalation_dropped",
        "alerts",
        "host",
    ]
    .iter()
    .map(|n| reg.counter(&format!("probe.shard.{n}"), labels))
    .collect();
    let hists = [
        reg.histogram("probe.stage.cache_ns", &[]),
        reg.histogram("probe.stage.detect_ns", &[]),
        reg.histogram("probe.stage.escalate_ns", &[]),
    ];
    let t0 = Instant::now();
    for b in 0..batches {
        for c in &counters {
            c.add(black_box(BATCH as u64));
        }
        let samples = [57 + (b & 7), 99 + (b & 15), 140, 260 + (b & 31)];
        for h in &hists {
            h.record_all(black_box(&samples));
        }
    }
    t0.elapsed().as_nanos() as f64 / batches as f64
}

/// Median µs of one controller epoch over a one-shard sample with a
/// handful of fresh verdicts and heavy-hitter candidates, as the
/// engine's control thread feeds it every epoch.
pub fn controller_epoch_us(epochs: usize) -> f64 {
    let mut ctl = Controller::new(ControlConfig::default());
    let mut times = Vec::with_capacity(epochs);
    for e in 0..epochs as u64 {
        let input = EpochInput {
            elapsed_secs: 0.01,
            shards: vec![ShardSample {
                offered: 2_500 * (e + 1),
                processed: 2_500 * (e + 1),
                shed: 0,
                escalation_backlog: 0,
            }],
            verdicts: (0..4)
                .map(|i| Verdict::Blacklist(flow(e * 4 + i)))
                .collect(),
            heavy: (0..8).map(|i| (splitmix64(e * 8 + i), 640)).collect(),
        };
        let t0 = Instant::now();
        black_box(ctl.epoch(&input));
        times.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&times)
}

/// Mean ns of a steering-snapshot `refresh()` that finds nothing new —
/// what every shard batch and every dispatcher checkpoint pays.
pub fn snapshot_refresh_ns(calls: u64) -> f64 {
    let cell = Arc::new(SnapshotCell::new(SteeringSnapshot::empty()));
    let mut reader = cell.reader();
    let t0 = Instant::now();
    for _ in 0..calls {
        black_box(reader.refresh());
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// The calibration kernel: a dependent chain of 64-bit mixes, best of
/// five, in iterations per microsecond. Fixed work, no memory traffic:
/// it tracks core clock and IPC only, for cross-machine normalisation —
/// never for gating.
pub fn calib_score() -> f64 {
    const ITERS: u64 = 10_000_000;
    let mut best = f64::MAX;
    for round in 0..5u64 {
        let t0 = Instant::now();
        let mut x = black_box(round);
        for _ in 0..ITERS {
            x = splitmix64(x);
        }
        black_box(x);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    ITERS as f64 / (best / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_finite_numbers() {
        let (xfer, full) = spsc_ping(2_000);
        assert!(xfer > 0.0 && xfer.is_finite());
        assert!((0.0..1.0).contains(&full));
        for v in [
            control_publish_ns(1_000),
            hist_flush_ns_per_batch(1_000),
            controller_epoch_us(20),
            snapshot_refresh_ns(10_000),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{v}");
        }
    }
}
