//! Covert timing-channel detection (paper §5.2.1): switch pre-check +
//! sNIC fine-grained bins + CME bimodality test.
//!
//! 90% of flows are benign; 10% modulate inter-packet delays to leak
//! data. The NetWarden-style switch structure runs a cheap range
//! pre-check; flagged flows get fine (1 µs) IPD bins on the sNIC, and a
//! bimodality test of each flow against its own median makes the call.
//!
//! ```sh
//! cargo run --release --example covert_channel
//! ```

use smartwatch::detect::covert::{CovertChannelDetector, IpdCollector};
use smartwatch::net::Dur as D;
use smartwatch::net::{AttackKind, Dur, Ts};
use smartwatch::p4sim::NetWarden;
use smartwatch::trace::attacks::covert::{covert_timing, CovertConfig};

fn main() {
    println!(
        "{:>12} | {:>6} | {:>6} | {:>8}",
        "depth (µs)", "TPR %", "FPR %", "steered %"
    );
    println!("{:-<12}-+-{:-<6}-+-{:-<6}-+-{:-<8}", "", "", "", "");

    for depth_us in [2u64, 10, 30, 60, 100] {
        let cfg = CovertConfig::with_depth(Dur::from_micros(depth_us), 200, 5);
        let trace = covert_timing(&cfg);
        let modulated: std::collections::HashSet<_> = trace
            .labelled_flows(AttackKind::CovertTimingChannel)
            .into_iter()
            .collect();

        let detector = CovertChannelDetector::new(0.25);

        // Switch stage: NetWarden pre-check steers suspicious flows. The
        // range check targets the band where modulated "one" bits live.
        let mut nw = NetWarden::with_memory(512 << 10, 192, 1);
        nw.set_precheck_band(
            (cfg.one_gap.as_micros() as u32).saturating_sub(3),
            cfg.one_gap.as_micros() as u32 + 25,
            0.30,
        );
        let mut snic_bins = IpdCollector::new(D::from_micros(1), 192);
        let mut steered = std::collections::HashSet::new();
        for p in trace.iter() {
            if nw.on_packet(p) {
                steered.insert(p.key.canonical().0);
            }
            if steered.contains(&p.key.canonical().0) {
                snic_bins.on_packet(p);
            }
        }

        // CME stage: bimodality test on the fine bins.
        let mut tp = 0usize;
        let mut fp = 0usize;
        for (flow, hist) in snic_bins.readout() {
            if detector.classify(flow, &hist, Ts::ZERO).is_some() {
                if modulated.contains(&flow) {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let benign_total = 200 - modulated.len();
        println!(
            "{:>12} | {:>5.0}% | {:>5.1}% | {:>7.1}%",
            depth_us,
            tp as f64 / modulated.len().max(1) as f64 * 100.0,
            fp as f64 / benign_total.max(1) as f64 * 100.0,
            steered.len() as f64 / 200.0 * 100.0
        );
    }
    println!("\nDeeper modulation separates faster (Fig. 9a's ROC family),");
    println!("while the pre-check keeps the sNIC's share of flows small.");
}
