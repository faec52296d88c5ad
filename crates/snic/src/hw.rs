//! SmartNIC hardware profiles and the per-packet cost model.
//!
//! The paper's cross-sNIC study (§4.1, Table 3) models FlowCache cycle
//! consumption measured on the Netronome and projects packet throughput
//! for BlueField and LiquidIO from their clock speeds, core counts and
//! memory access latencies. This module is that model, made explicit:
//!
//! - [`HwProfile`] carries the Table 3 datasheet numbers.
//! - [`CycleCosts`] carries the per-operation micro-engine cycle costs,
//!   calibrated so the Netronome profile reproduces the paper's measured
//!   envelope (≈43 Mpps in Lite mode, ≈30 Mpps loss-free in General mode,
//!   64 B packets).
//! - [`service_time`] converts a [`crate::flowcache::Access`] into
//!   (busy, memory-wait) nanoseconds; the DES ([`crate::des`]) folds in
//!   the threads-hide-reads property of the micro-engine ("for a read the
//!   calling thread yields so that another thread can continue its work",
//!   §3.2): a PME is held `max(busy, (busy + wait) / overlap_contexts)`
//!   per packet.

use crate::flowcache::Access;
use serde::{Deserialize, Serialize};

/// Datasheet description of one SmartNIC (paper Table 3).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HwProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Packet-processing cores (micro-engines / ARM / cnMIPS).
    pub cores: u32,
    /// Hardware threads per core (datasheet value; Netronome MEs run 4
    /// contexts).
    pub threads_per_core: u32,
    /// Latency-hiding contexts the model credits the core with: hardware
    /// threads for the MEs/cnMIPS, or the effective out-of-order/prefetch
    /// overlap window for the wide ARM cores (BlueField has no SMT but its
    /// A72s overlap several outstanding misses).
    pub overlap_contexts: u32,
    /// L1 access latency in ns.
    pub l1_ns: f64,
    /// L2 access latency in ns.
    pub l2_ns: f64,
    /// DRAM access latency in ns.
    pub dram_ns: f64,
    /// DRAM size in bytes (bounds the FlowCache footprint).
    pub dram_bytes: u64,
    /// Per-cycle work factor relative to a Netronome micro-engine: wide
    /// out-of-order ARM cores retire several times the work per cycle of a
    /// narrow in-order ME. Calibrated so the model lands on the paper's
    /// Table 3 projections (40.7 / 42.2 / 43 Mpps).
    pub perf_factor: f64,
}

/// Netronome Agilio LX (NFP-6000): the paper's measurement platform.
/// 80 of the 96 cores are usable as packet-processing MEs.
pub const NETRONOME_AGILIO_LX: HwProfile = HwProfile {
    name: "Netronome Agilio LX",
    clock_ghz: 1.2,
    cores: 80,
    threads_per_core: 4,
    overlap_contexts: 4,
    l1_ns: 13.0,
    l2_ns: 51.0,
    dram_ns: 137.0,
    dram_bytes: 8 * 1024 * 1024 * 1024,
    perf_factor: 1.0,
};

/// NVIDIA/Mellanox BlueField MBF1L516A (16 × Cortex-A72 @ 2.5 GHz).
pub const BLUEFIELD: HwProfile = HwProfile {
    name: "BlueField MBF1L516A-ESNAT",
    clock_ghz: 2.5,
    cores: 16,
    threads_per_core: 1,
    overlap_contexts: 4,
    l1_ns: 5.0,
    l2_ns: 25.6,
    dram_ns: 132.0,
    dram_bytes: 16 * 1024 * 1024 * 1024,
    perf_factor: 2.55,
};

/// Marvell LiquidIO III OCTEON TX2 (36 cores @ 2.2 GHz).
pub const LIQUIDIO_TX2: HwProfile = HwProfile {
    name: "LiquidIO OCTEON TX2 DPU",
    clock_ghz: 2.2,
    cores: 36,
    threads_per_core: 2,
    overlap_contexts: 2,
    l1_ns: 8.3,
    l2_ns: 55.8,
    dram_ns: 115.0,
    dram_bytes: 16 * 1024 * 1024 * 1024,
    perf_factor: 1.22,
};

/// All three profiles in Table 3 column order.
pub const ALL_PROFILES: [HwProfile; 3] = [BLUEFIELD, LIQUIDIO_TX2, NETRONOME_AGILIO_LX];

/// A projected 100 GbE Netronome-class part (the paper's stated plan for
/// higher packet rates, §2.3.2): same micro-engine architecture with a
/// half-again larger ME array and faster DRAM.
pub const NETRONOME_100G: HwProfile = HwProfile {
    name: "Netronome 100G (projected)",
    clock_ghz: 1.2,
    cores: 120,
    threads_per_core: 4,
    overlap_contexts: 4,
    l1_ns: 13.0,
    l2_ns: 51.0,
    dram_ns: 110.0,
    dram_bytes: 16 * 1024 * 1024 * 1024,
    perf_factor: 1.0,
};

/// Per-operation micro-engine cycle costs (Netronome-reference cycles).
///
/// The split follows the paper's accounting: the *pipeline* share (RX,
/// load-balance, P4 match-action tables, TX) is everything that is not
/// FlowCache, and FlowCache's own operations dominate the remainder
/// (80.32% of cycles, Table 2).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CycleCosts {
    /// Fixed per-packet pipeline cost outside the FlowCache.
    pub pipeline: u32,
    /// Hash computation.
    pub hash: u32,
    /// CPU work per bucket probed (compare + iterate); the DRAM read
    /// latency itself is accounted as hideable memory wait.
    pub per_probe: u32,
    /// In-place record update (atomic add + timestamps).
    pub update_write: u32,
    /// Each insert/demote/swap bucket write.
    pub insert_write: u32,
    /// Pushing one evicted record to a ring buffer.
    pub ring_push: u32,
    /// Per-bucket cost of an Algorithm 3 row cleanup.
    pub cleanup_per_bucket: u32,
}

impl Default for CycleCosts {
    fn default() -> CycleCosts {
        // Calibrated against the paper's measured envelope; see
        // EXPERIMENTS.md ("Calibration").
        CycleCosts {
            pipeline: 1150,
            hash: 120,
            per_probe: 170,
            update_write: 520,
            insert_write: 560,
            ring_push: 260,
            cleanup_per_bucket: 140,
        }
    }
}

impl CycleCosts {
    /// Busy (non-hideable) cycles for one access.
    pub fn busy_cycles(&self, a: &Access) -> u64 {
        let mut c = u64::from(self.pipeline) + u64::from(self.hash);
        c += u64::from(self.per_probe) * u64::from(a.probes);
        match a.outcome {
            crate::flowcache::Outcome::PHit | crate::flowcache::Outcome::EHit => {
                c += u64::from(self.update_write);
                // E-hit swap writes beyond the update itself.
                c += u64::from(self.insert_write) * u64::from(a.writes.saturating_sub(1));
            }
            crate::flowcache::Outcome::Miss => {
                c += u64::from(self.insert_write) * u64::from(a.writes);
            }
            crate::flowcache::Outcome::ToHost => {}
        }
        c += u64::from(self.ring_push) * u64::from(a.ring_pushes);
        if a.cleaned_row {
            c += u64::from(self.cleanup_per_bucket) * 12;
        }
        c
    }

    /// Memory operations (reads, writes) implied by one access.
    pub fn memory_ops(&self, a: &Access) -> (u32, u32) {
        (a.probes, a.writes + a.ring_pushes)
    }
}

/// (busy_ns, wait_ns) for one access on the given hardware.
///
/// Reads hit DRAM but the issuing thread yields, so read latency is
/// *hideable* wait; writes serialize (the paper: "sNIC write operations
/// are relatively expensive compared to reads"), so half of each write's
/// latency is charged as busy on top of the instruction cost.
pub fn service_time(hw: &HwProfile, costs: &CycleCosts, a: &Access) -> (f64, f64) {
    let busy_cycles = costs.busy_cycles(a) as f64;
    let mut busy_ns = busy_cycles / (hw.clock_ghz * hw.perf_factor);
    let (reads, writes) = costs.memory_ops(a);
    let wait_ns = f64::from(reads) * hw.dram_ns + f64::from(writes) * hw.dram_ns * 0.5;
    busy_ns += f64::from(writes) * hw.dram_ns * 0.5;
    (busy_ns, wait_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowcache::{Access, Outcome};

    /// Sustainable packets/second for one core given a mean (busy, wait)
    /// profile: threads overlap waits, but a core can never beat `1/busy`.
    fn pme_rate_pps(hw: &HwProfile, busy_ns: f64, wait_ns: f64) -> f64 {
        let latency_bound = f64::from(hw.overlap_contexts) * 1e9 / (busy_ns + wait_ns);
        let cpu_bound = 1e9 / busy_ns;
        latency_bound.min(cpu_bound)
    }

    fn hit(probes: u32) -> Access {
        Access {
            outcome: Outcome::PHit,
            probes,
            writes: 1,
            ring_pushes: 0,
            cleaned_row: false,
            packets: 0,
        }
    }

    fn miss(probes: u32, writes: u32, rings: u32) -> Access {
        Access {
            outcome: Outcome::Miss,
            probes,
            writes,
            ring_pushes: rings,
            cleaned_row: false,
            packets: 0,
        }
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let c = CycleCosts::default();
        assert!(c.busy_cycles(&miss(12, 3, 1)) > c.busy_cycles(&hit(2)));
    }

    #[test]
    fn netronome_lite_envelope_near_43mpps() {
        // Lite-mode hit: ~1.5 probes, one update write.
        let hw = NETRONOME_AGILIO_LX;
        let c = CycleCosts::default();
        let (busy, wait) = service_time(&hw, &c, &hit(2));
        let total = pme_rate_pps(&hw, busy, wait) * 80.0 / 1e6;
        assert!(
            (38.0..50.0).contains(&total),
            "Lite-mode hit envelope should be ≈43 Mpps, got {total:.1}"
        );
    }

    #[test]
    fn netronome_general_envelope_near_30mpps() {
        // General-mode mix: hits probe ~3, misses probe 12 with swaps.
        let hw = NETRONOME_AGILIO_LX;
        let c = CycleCosts::default();
        let (hb, hw_wait) = service_time(&hw, &c, &hit(3));
        let (mb, mw) = service_time(&hw, &c, &miss(12, 3, 1));
        let busy = 0.8 * hb + 0.2 * mb;
        let wait = 0.8 * hw_wait + 0.2 * mw;
        let total = pme_rate_pps(&hw, busy, wait) * 80.0 / 1e6;
        assert!(
            (24.0..36.0).contains(&total),
            "General-mode envelope should be ≈30 Mpps, got {total:.1}"
        );
    }

    #[test]
    fn table3_ordering_netronome_fastest() {
        // Same access mix on all three NICs: Netronome ≥ LiquidIO ≥
        // BlueField (Table 3: 43 / 42.2 / 40.7 Mpps).
        let c = CycleCosts::default();
        let rate = |hw: &HwProfile| {
            let (hb, hwt) = service_time(hw, &c, &hit(2));
            let (mb, mw) = service_time(hw, &c, &miss(2, 2, 1));
            pme_rate_pps(hw, 0.85 * hb + 0.15 * mb, 0.85 * hwt + 0.15 * mw) * f64::from(hw.cores)
        };
        let n = rate(&NETRONOME_AGILIO_LX);
        let l = rate(&LIQUIDIO_TX2);
        let b = rate(&BLUEFIELD);
        assert!(
            n > l && l > b,
            "ordering violated: N={n:.0} L={l:.0} B={b:.0}"
        );
        // And they should all be within ~15% of each other, as in Table 3.
        assert!(
            b / n > 0.80,
            "BlueField too slow relative to Netronome: {}",
            b / n
        );
    }

    #[test]
    fn threads_hide_read_latency() {
        let hw = NETRONOME_AGILIO_LX;
        let single = HwProfile {
            overlap_contexts: 1,
            ..hw
        };
        let busy = 500.0;
        let wait = 1500.0;
        assert!(pme_rate_pps(&hw, busy, wait) > pme_rate_pps(&single, busy, wait));
        // With enough threads the core is CPU-bound.
        let many = HwProfile {
            overlap_contexts: 8,
            ..hw
        };
        assert!((pme_rate_pps(&many, busy, wait) - 1e9 / busy).abs() < 1.0);
    }

    #[test]
    fn cleanup_adds_cost() {
        let c = CycleCosts::default();
        let mut a = hit(2);
        let plain = c.busy_cycles(&a);
        a.cleaned_row = true;
        assert!(c.busy_cycles(&a) > plain + 1000);
    }
}
