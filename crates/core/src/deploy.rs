//! Deployment modes and the Fig. 3 resource-scaling model.
//!
//! The paper simulates four deployments sustaining 15 → 2320 Mpps and
//! counts the CPU cores and sNICs each needs. The driving constants:
//! a 40 GbE sNIC sustains ≈43 Mpps of FlowCache processing; a host core
//! sustains a few Mpps of fine-grained NF processing; the P4Switch
//! forwards the bulk of traffic so only the steered fraction hits the
//! sNIC tier; and of sNIC-processed packets, under 16% continue to the
//! host.

/// Which system architecture processes the traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeployMode {
    /// Everything on host CPUs (DPDK + Zeek-style NFs).
    HostOnly,
    /// sNICs in front of the host, no programmable switch
    /// ("SmartWatch (No P4Switch)" in Fig. 3).
    SnicHost,
    /// The full cooperative platform: P4Switch + sNIC + host.
    SmartWatch,
    /// Programmable switch steering suspicious subsets straight to host
    /// CPUs (Sonata-style, "P4Switch and Host" in Fig. 3).
    SwitchHost,
}

impl DeployMode {
    /// Display name matching the figure legend.
    pub fn name(self) -> &'static str {
        match self {
            DeployMode::HostOnly => "Host",
            DeployMode::SnicHost => "SmartWatch (No P4Switch)",
            DeployMode::SmartWatch => "SmartWatch",
            DeployMode::SwitchHost => "P4Switch and Host",
        }
    }
}

/// Scaling-model constants (calibrated to the paper's stated end points:
/// at 2320 Mpps SmartWatch needs 4 sNICs + 6 cores, ≥14× fewer than the
/// switchless deployments).
#[derive(Clone, Copy, Debug)]
pub struct ScalingModel {
    /// Packets/sec one sNIC sustains (Netronome Lite mode).
    pub snic_capacity_pps: f64,
    /// Packets/sec one host core sustains doing fine-grained NF work.
    pub core_capacity_pps: f64,
    /// Fraction of total traffic the switch steers to the monitoring tier
    /// in SmartWatch mode (suspicious subsets only).
    pub steer_fraction: f64,
    /// Fraction of sNIC-processed packets escalated to the host (< 0.16).
    pub host_fraction: f64,
}

impl Default for ScalingModel {
    fn default() -> ScalingModel {
        ScalingModel {
            snic_capacity_pps: 43.0e6,
            core_capacity_pps: 12.0e6,
            steer_fraction: 0.065,
            host_fraction: 0.16,
        }
    }
}

/// Resources one deployment needs at a given offered rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resources {
    /// Host CPU cores.
    pub cores: u32,
    /// SmartNICs.
    pub snics: u32,
}

impl ScalingModel {
    /// Fig. 3's y-axes: resources to sustain `rate_pps` in `mode`.
    pub fn required(&self, mode: DeployMode, rate_pps: f64) -> Resources {
        let ceil = |x: f64| x.ceil().max(if x > 0.0 { 1.0 } else { 0.0 }) as u32;
        match mode {
            DeployMode::HostOnly => Resources {
                // Host does everything: per-packet NF work on every packet,
                // plus kernel-bypass RX on ordinary NICs (counted in the
                // sNIC column as the paper does).
                cores: ceil(rate_pps / self.core_capacity_pps),
                snics: ceil(rate_pps / self.snic_capacity_pps),
            },
            DeployMode::SnicHost => Resources {
                // sNICs absorb everything; the host sees the <16% residue.
                cores: ceil(rate_pps * self.host_fraction / self.core_capacity_pps),
                snics: ceil(rate_pps / self.snic_capacity_pps),
            },
            DeployMode::SmartWatch => {
                let steered = rate_pps * self.steer_fraction;
                Resources {
                    cores: ceil(steered * self.host_fraction / self.core_capacity_pps).max(1),
                    snics: ceil(steered / self.snic_capacity_pps),
                }
            }
            DeployMode::SwitchHost => {
                // Switch pre-filters, but everything steered needs host
                // CPU processing directly (no sNIC tier).
                let steered = rate_pps * self.steer_fraction;
                Resources {
                    cores: ceil(steered / self.core_capacity_pps).max(1),
                    snics: 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DeployMode {
        /// All four modes in Fig. 3's legend order.
        const ALL: [DeployMode; 4] = [
            DeployMode::HostOnly,
            DeployMode::SnicHost,
            DeployMode::SmartWatch,
            DeployMode::SwitchHost,
        ];
    }

    #[test]
    fn smartwatch_endpoint_matches_paper() {
        // "The number of required sNIC and CPU cores are 4 and 6" at 2320
        // Mpps — allow the ballpark (same order, single digits).
        let m = ScalingModel::default();
        let r = m.required(DeployMode::SmartWatch, 2320.0e6);
        assert!(r.snics >= 3 && r.snics <= 5, "snics {}", r.snics);
        assert!(r.cores >= 2 && r.cores <= 8, "cores {}", r.cores);
    }

    #[test]
    fn p4switch_saves_an_order_of_magnitude() {
        // Paper: "the P4Switch helps SmartWatch reduce the number of sNIC
        // and CPU cores by at least 14 times" at 2320 Mpps (their counts:
        // ~54 vs 4 sNICs, ~194 vs 6 cores; the sNIC ratio is ≈13.5 before
        // rounding). Assert an ≥12× saving on both axes.
        let m = ScalingModel::default();
        let sw = m.required(DeployMode::SmartWatch, 2320.0e6);
        let no_sw = m.required(DeployMode::SnicHost, 2320.0e6);
        let host = m.required(DeployMode::HostOnly, 2320.0e6);
        assert!(
            no_sw.snics >= sw.snics * 12,
            "{} vs {}",
            no_sw.snics,
            sw.snics
        );
        assert!(
            host.cores >= sw.cores * 14,
            "{} vs {}",
            host.cores,
            sw.cores
        );
    }

    #[test]
    fn host_mode_needs_most_cores() {
        let m = ScalingModel::default();
        for rate in [15.0e6, 120.0e6, 1160.0e6] {
            let host = m.required(DeployMode::HostOnly, rate).cores;
            for mode in [
                DeployMode::SnicHost,
                DeployMode::SmartWatch,
                DeployMode::SwitchHost,
            ] {
                assert!(m.required(mode, rate).cores <= host, "{mode:?} at {rate}");
            }
        }
    }

    #[test]
    fn switchhost_needs_no_snics_but_more_cores_than_smartwatch() {
        let m = ScalingModel::default();
        let sh = m.required(DeployMode::SwitchHost, 580.0e6);
        let sw = m.required(DeployMode::SmartWatch, 580.0e6);
        assert_eq!(sh.snics, 0);
        assert!(sh.cores >= sw.cores);
    }

    #[test]
    fn resources_monotone_in_rate() {
        let m = ScalingModel::default();
        for mode in DeployMode::ALL {
            let lo = m.required(mode, 15.0e6);
            let hi = m.required(mode, 2320.0e6);
            assert!(hi.cores >= lo.cores && hi.snics >= lo.snics, "{mode:?}");
        }
    }
}
