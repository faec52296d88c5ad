//! Statistics toolkit backing the detectors.
//!
//! - [`Trw`] — Threshold Random Walk sequential hypothesis testing (Jung
//!   et al.), the port-scan detector's core (§5.1.3).
//! - [`NaiveBayes`] — multinomial Naive-Bayes over histogram features
//!   (website fingerprinting, §5.2.2).

/// Threshold Random Walk sequential hypothesis test (Jung et al. 2004).
///
/// For each remote host, connection-attempt outcomes update a likelihood
/// ratio; crossing the upper threshold declares a scanner, the lower a
/// benign host. Operates in log space for numerical robustness.
#[derive(Clone, Debug)]
pub(crate) struct Trw {
    /// P(success | benign), θ₀ in the paper (default 0.8).
    pub theta0: f64,
    /// P(success | scanner), θ₁ (default 0.2).
    pub theta1: f64,
    log_lambda: f64,
    log_upper: f64,
    log_lower: f64,
    decided: Option<bool>,
    observations: u32,
}

/// TRW verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TrwVerdict {
    /// Evidence insufficient so far.
    Pending,
    /// Declared a scanner.
    Scanner,
    /// Declared benign.
    Benign,
}

impl Trw {
    /// Detector with the classic parameters: θ₀=0.8, θ₁=0.2, target false
    /// positive α=0.01 and detection β=0.99.
    pub(crate) fn new() -> Trw {
        Trw::with_params(0.8, 0.2, 0.01, 0.99)
    }

    /// Fully parameterised TRW.
    pub(crate) fn with_params(theta0: f64, theta1: f64, alpha: f64, beta: f64) -> Trw {
        assert!(
            theta1 < theta0,
            "scanners fail more often than benign hosts"
        );
        Trw {
            theta0,
            theta1,
            log_lambda: 0.0,
            log_upper: (beta / alpha).ln(),
            log_lower: ((1.0 - beta) / (1.0 - alpha)).ln(),
            decided: None,
            observations: 0,
        }
    }

    /// Feed one connection-attempt outcome; returns the current verdict.
    pub(crate) fn observe(&mut self, success: bool) -> TrwVerdict {
        if let Some(s) = self.decided {
            return if s {
                TrwVerdict::Scanner
            } else {
                TrwVerdict::Benign
            };
        }
        self.observations += 1;
        self.log_lambda += if success {
            (self.theta1 / self.theta0).ln()
        } else {
            ((1.0 - self.theta1) / (1.0 - self.theta0)).ln()
        };
        if self.log_lambda >= self.log_upper {
            self.decided = Some(true);
            TrwVerdict::Scanner
        } else if self.log_lambda <= self.log_lower {
            self.decided = Some(false);
            TrwVerdict::Benign
        } else {
            TrwVerdict::Pending
        }
    }

    /// Outcomes consumed.
    pub(crate) fn observations(&self) -> u32 {
        self.observations
    }
}

impl Default for Trw {
    fn default() -> Self {
        Trw::new()
    }
}

/// Multinomial Naive-Bayes over fixed-width histogram features.
#[derive(Clone, Debug)]
pub(crate) struct NaiveBayes {
    /// log P(class).
    priors: Vec<f64>,
    /// log P(bin | class), Laplace-smoothed.
    log_likelihood: Vec<Vec<f64>>,
    n_bins: usize,
}

impl NaiveBayes {
    /// Train from `(class, histogram)` examples. Classes must be
    /// 0..n_classes; every histogram must have `n_bins` bins.
    pub(crate) fn train(
        n_classes: usize,
        n_bins: usize,
        examples: &[(usize, Vec<u64>)],
    ) -> NaiveBayes {
        assert!(n_classes > 0 && n_bins > 0 && !examples.is_empty());
        let mut class_counts = vec![0u64; n_classes];
        let mut bin_counts = vec![vec![1u64; n_bins]; n_classes]; // Laplace
        for (c, h) in examples {
            assert!(*c < n_classes && h.len() == n_bins);
            class_counts[*c] += 1;
            for (b, v) in h.iter().enumerate() {
                bin_counts[*c][b] += v;
            }
        }
        let total_examples: u64 = class_counts.iter().sum();
        let priors = class_counts
            .iter()
            .map(|&c| ((c.max(1)) as f64 / total_examples as f64).ln())
            .collect();
        let log_likelihood = bin_counts
            .iter()
            .map(|bins| {
                let total: u64 = bins.iter().sum();
                bins.iter()
                    .map(|&b| (b as f64 / total as f64).ln())
                    .collect()
            })
            .collect();
        NaiveBayes {
            priors,
            log_likelihood,
            n_bins,
        }
    }

    /// Most likely class for a histogram.
    pub(crate) fn classify(&self, hist: &[u64]) -> usize {
        assert_eq!(hist.len(), self.n_bins);
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.priors.len() {
            let mut score = self.priors[c];
            for (b, &v) in hist.iter().enumerate() {
                if v > 0 {
                    score += v as f64 * self.log_likelihood[c][b];
                }
            }
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trw_flags_failing_host_quickly() {
        let mut t = Trw::new();
        let mut verdict = TrwVerdict::Pending;
        let mut needed = 0;
        for i in 1..=20 {
            verdict = t.observe(false);
            if verdict != TrwVerdict::Pending {
                needed = i;
                break;
            }
        }
        assert_eq!(verdict, TrwVerdict::Scanner);
        assert!(
            needed <= 5,
            "classic TRW flags after ~4 failures, took {needed}"
        );
    }

    #[test]
    fn trw_clears_succeeding_host() {
        let mut t = Trw::new();
        let mut verdict = TrwVerdict::Pending;
        for _ in 0..20 {
            verdict = t.observe(true);
            if verdict != TrwVerdict::Pending {
                break;
            }
        }
        assert_eq!(verdict, TrwVerdict::Benign);
    }

    #[test]
    fn trw_decision_is_sticky() {
        let mut t = Trw::new();
        for _ in 0..10 {
            t.observe(false);
        }
        assert_eq!(t.decided, Some(true));
        // Later successes cannot un-flag.
        for _ in 0..100 {
            assert_eq!(t.observe(true), TrwVerdict::Scanner);
        }
    }

    #[test]
    fn trw_mixed_outcomes_need_more_evidence() {
        let mut t = Trw::new();
        let mut n = 0;
        // Alternate failure/success: drifts slowly toward scanner
        // (failure moves +ln4, success −ln4 exactly cancels; use 2:1).
        loop {
            n += 1;
            let success = n % 3 == 0;
            if t.observe(success) != TrwVerdict::Pending {
                break;
            }
            assert!(n < 200, "must decide eventually");
        }
        assert!(t.observations() > 5, "mixed evidence should take longer");
    }

    #[test]
    fn naive_bayes_separates_clear_classes() {
        // Class 0 concentrates mass in bins 0–4; class 1 in bins 5–9.
        let mut examples = Vec::new();
        for i in 0..20u64 {
            let mut h0 = vec![0u64; 10];
            h0[(i % 5) as usize] = 50;
            examples.push((0usize, h0));
            let mut h1 = vec![0u64; 10];
            h1[5 + (i % 5) as usize] = 50;
            examples.push((1usize, h1));
        }
        let nb = NaiveBayes::train(2, 10, &examples);
        let mut probe0 = vec![0u64; 10];
        probe0[2] = 30;
        assert_eq!(nb.classify(&probe0), 0);
        let mut probe1 = vec![0u64; 10];
        probe1[7] = 30;
        assert_eq!(nb.classify(&probe1), 1);
        assert_eq!(nb.priors.len(), 2);
    }
}
