//! CME-side mode switch-over (paper Algorithm 4, Appendix 9.4).
//!
//! A custom micro-engine periodically samples the packet arrival rate,
//! smooths it with an EWMA (α = 0.75 over a window of 100 samples), and
//! flips the FlowCache between General and Lite mode when the smoothed
//! rate crosses the thresholds: above η₁ → Lite (survive the burst), below
//! η₂ → General (recover the low-eviction regime). η₂ < η₁ provides
//! hysteresis so the cache does not flap at the boundary.
//!
//! `smartwatch-control`'s `Controller` is the one driver: it keeps one
//! [`SwitchOver`] per shard, feeds it each epoch's arrival rate and
//! hands the shard its [`mode`](SwitchOver::mode).

use crate::flowcache::Mode;

/// The Algorithm 4 controller.
#[derive(Clone, Debug)]
pub struct SwitchOver {
    /// EWMA weight on the newest sample (paper: 0.75).
    alpha: f64,
    /// Rate above which to switch to Lite mode, in packets/sec.
    eta_lite: f64,
    /// Rate below which to return to General mode, in packets/sec.
    eta_general: f64,
    /// Smoothed rate estimate F_t.
    smoothed: f64,
    /// Samples consumed (the paper warms up over a 100-sample window).
    samples: u64,
    /// Current mode decision.
    mode: Mode,
}

impl SwitchOver {
    /// Controller with the paper's α and the given thresholds.
    ///
    /// # Panics
    /// Panics unless `eta_general < eta_lite` (hysteresis requires it).
    pub fn new(eta_lite: f64, eta_general: f64) -> SwitchOver {
        assert!(
            eta_general < eta_lite,
            "need eta_general < eta_lite for hysteresis"
        );
        SwitchOver {
            alpha: 0.75,
            eta_lite,
            eta_general,
            smoothed: 0.0,
            samples: 0,
            mode: Mode::General,
        }
    }

    /// Feed one arrival-rate sample (packets/sec); [`mode`](Self::mode)
    /// then reads the decision.
    pub fn observe(&mut self, rate_pps: f64) {
        // F_{t+1} = α·A_t + (1-α)·F_t
        self.smoothed = self.alpha * rate_pps + (1.0 - self.alpha) * self.smoothed;
        self.samples += 1;
        // Warm-up: don't flap before the estimate has any history.
        if self.samples < 4 {
            return;
        }
        if self.smoothed > self.eta_lite {
            self.mode = Mode::Lite;
        } else if self.smoothed < self.eta_general {
            self.mode = Mode::General;
        }
    }

    /// Current smoothed rate estimate.
    pub fn smoothed_rate(&self) -> f64 {
        self.smoothed
    }

    /// Current mode decision.
    pub fn mode(&self) -> Mode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-flavoured thresholds: Lite above 30 Mpps (General mode's
    /// loss-free ceiling), back to General below 24 Mpps.
    fn paper() -> SwitchOver {
        SwitchOver::new(30.0e6, 24.0e6)
    }

    #[test]
    fn switches_to_lite_on_sustained_high_rate() {
        let mut c = paper();
        for _ in 0..20 {
            c.observe(43.0e6);
        }
        assert_eq!(c.mode(), Mode::Lite);
    }

    #[test]
    fn returns_to_general_when_rate_drops() {
        let mut c = paper();
        for _ in 0..20 {
            c.observe(43.0e6);
        }
        assert_eq!(c.mode(), Mode::Lite);
        for _ in 0..40 {
            c.observe(10.0e6);
        }
        assert_eq!(c.mode(), Mode::General);
    }

    #[test]
    fn hysteresis_band_does_not_flap() {
        let mut c = paper();
        for _ in 0..20 {
            c.observe(43.0e6); // → Lite
        }
        // Rate inside the (24, 30) Mpps band: stay Lite.
        for _ in 0..50 {
            c.observe(27.0e6);
            assert_eq!(c.mode(), Mode::Lite);
        }
    }

    #[test]
    fn single_spike_is_smoothed_away() {
        let mut c = paper();
        for _ in 0..10 {
            c.observe(5.0e6);
        }
        // One 100 Mpps outlier: EWMA jumps but α=0.75 needs ~2 consecutive
        // high samples to cross 30 M from 5 M; a single spike then a drop
        // must not leave us stuck in Lite.
        c.observe(100.0e6);
        for _ in 0..10 {
            c.observe(5.0e6);
        }
        assert_eq!(c.mode(), Mode::General);
    }

    #[test]
    fn warmup_suppresses_early_decisions() {
        let mut c = paper();
        for _ in 0..3 {
            c.observe(100.0e6);
            assert_eq!(c.mode(), Mode::General);
        }
        c.observe(100.0e6);
        assert_eq!(c.mode(), Mode::Lite, "the fourth sample decides");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        SwitchOver::new(10.0, 20.0);
    }
}
