//! Random distributions used by the workload generators.
//!
//! Implemented in-repo (rather than pulling `rand_distr`) per the
//! dependency policy in DESIGN.md §5. Everything here is driven by a caller
//! supplied [`rand::Rng`], so generation stays deterministic under a fixed
//! seed.
//!
//! The three distributions the paper's traffic model leans on (§3.2):
//! Zipf (few elephants carry most packets), exponential (inter-arrival
//! gaps), and bounded Pareto (packet/transfer sizes).

use rand::Rng;

/// Zipf distribution over ranks `1..=n` with skew `s`.
///
/// Sampled by inversion against the precomputed CDF, O(log n) per sample.
/// With `s ≈ 1.0–1.3` this reproduces the "few large flows account for a
/// majority of the packets" property of DC traces.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over `n` ranks with exponent `s > 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `1..=n` (rank 1 is the most probable).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// Exponential distribution with the given mean, sampled by inversion.
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// Exponential with mean `mean` (> 0).
    pub fn new(mean: f64) -> Exp {
        assert!(mean.is_finite() && mean > 0.0);
        Exp { mean }
    }

    /// Sample a non-negative value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Clamp away u == 0 to avoid ln(0).
        let u: f64 = rng.gen::<f64>().max(1e-12);
        -self.mean * u.ln()
    }
}

/// Bounded Pareto on `[lo, hi]` with shape `alpha`, sampled by inversion.
/// Used for transfer sizes: mostly small, occasional huge.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Bounded Pareto with `0 < lo < hi` and shape `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> BoundedPareto {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        BoundedPareto { lo, hi, alpha }
    }

    /// The distribution's mean.
    pub(crate) fn mean(&self) -> f64 {
        let (lo, hi, a) = (self.lo, self.hi, self.alpha);
        let scale = lo.powf(a) / (1.0 - (lo / hi).powf(a));
        if (a - 1.0).abs() < 1e-9 {
            scale * (hi / lo).ln()
        } else {
            scale * a / (a - 1.0) * (lo.powf(1.0 - a) - hi.powf(1.0 - a))
        }
    }

    /// Sample a value in `[lo, hi]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Normal sample via Box–Muller.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Weighted choice: returns an index into `weights` with probability
/// proportional to the weight.
pub fn weighted_choice<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1000, 1.2);
        let mut r = rng();
        let mut rank1 = 0;
        for _ in 0..10_000 {
            if z.sample(&mut r) == 1 {
                rank1 += 1;
            }
        }
        // P(rank 1) = 1 / Σ k^-s, ~0.23 for s=1.2, n=1000; allow wide slack.
        let expected = 1.0 / (1..=1000).map(|k| f64::from(k).powf(-1.2)).sum::<f64>();
        assert!((rank1 as f64 / 10_000.0 - expected).abs() < 0.03);
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(10, 2.0);
        let mut r = rng();
        for _ in 0..1000 {
            let s = z.sample(&mut r);
            assert!((1..=10).contains(&s));
        }
    }

    #[test]
    fn exp_mean_converges() {
        let e = Exp::new(5.0);
        let mut r = rng();
        let mean: f64 = (0..20_000).map(|_| e.sample(&mut r)).sum::<f64>() / 20_000.0;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn pareto_respects_bounds() {
        let p = BoundedPareto::new(64.0, 1500.0, 1.1);
        let mut r = rng();
        for _ in 0..5000 {
            let s = p.sample(&mut r);
            assert!((63.9..=1500.1).contains(&s), "{s}");
        }
    }

    #[test]
    fn pareto_is_right_skewed() {
        let p = BoundedPareto::new(64.0, 1500.0, 1.2);
        let mut r = rng();
        let below_200 = (0..10_000).filter(|_| p.sample(&mut r) < 200.0).count();
        assert!(
            below_200 > 6_000,
            "most samples should be small: {below_200}"
        );
    }

    #[test]
    fn pareto_mean_matches_the_sample_mean() {
        let mut r = rng();
        for alpha in [1.0, 1.06, 1.2] {
            let p = BoundedPareto::new(64.0, 1500.0, alpha);
            let n = 50_000;
            let mean = (0..n).map(|_| p.sample(&mut r)).sum::<f64>() / f64::from(n);
            let rel = (mean - p.mean()).abs() / p.mean();
            assert!(
                rel < 0.02,
                "alpha {alpha}: sample {mean}, closed form {}",
                p.mean()
            );
        }
    }

    #[test]
    fn weighted_choice_proportions() {
        let mut r = rng();
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_choice(&mut r, &w)] += 1;
        }
        assert!((counts[2] as f64 / 30_000.0 - 0.6).abs() < 0.03);
        assert!((counts[0] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
