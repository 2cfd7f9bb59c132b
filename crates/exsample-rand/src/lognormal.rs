//! LogNormal distribution.
//!
//! Both the paper's Figure 2 validation (per-instance frame probabilities `p_i`)
//! and its Figure 3 workload grid (instance durations in frames) are generated from
//! LogNormal distributions, because object visibility durations in real video are
//! heavily right-skewed: most objects are visible for a few seconds, a few (e.g. a
//! red light the camera is stopped at) for minutes.

use crate::error::{ensure_finite, ensure_positive, DistributionError};
use crate::normal::StandardNormal;
use crate::Sampler;
use rand::Rng;

/// LogNormal distribution: `exp(N(mu, sigma^2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a LogNormal from the underlying normal's parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistributionError> {
        ensure_finite("LogNormal", "mu", mu)?;
        ensure_positive("LogNormal", "sigma", sigma)?;
        Ok(LogNormal { mu, sigma })
    }

    /// Create a LogNormal whose *arithmetic* mean equals `mean`, with log-space
    /// standard deviation `sigma`.
    ///
    /// The Figure 3 workload specifies durations by their target mean (e.g. "mean
    /// duration 700 frames"); given a fixed log-space sigma this solves for `mu`
    /// such that `E[X] = exp(mu + sigma^2 / 2) = mean`.
    pub fn with_mean(mean: f64, sigma: f64) -> Result<Self, DistributionError> {
        ensure_positive("LogNormal", "mean", mean)?;
        ensure_positive("LogNormal", "sigma", sigma)?;
        let mu = mean.ln() - sigma * sigma / 2.0;
        Ok(LogNormal { mu, sigma })
    }
}

impl Sampler<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * StandardNormal.sample(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn with_mean_hits_target_mean() {
        let d = LogNormal::with_mean(700.0, 1.0).unwrap();
        assert!((d.mean() - 700.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(41);
        let mut s = Summary::new();
        for _ in 0..400_000 {
            s.push(d.sample(&mut rng));
        }
        // Within a few percent of the target mean.
        assert!((s.mean() - 700.0).abs() / 700.0 < 0.03, "mean {}", s.mean());
    }

    #[test]
    fn samples_are_positive_and_skewed() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut s = Summary::new();
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!(x > 0.0);
            s.push(x);
        }
        // Mean exceeds the median for a right-skewed distribution.
        assert!(s.mean() > s.percentile(0.5));
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(2.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let mut s = Summary::new();
        for _ in 0..100_000 {
            s.push(d.sample(&mut rng));
        }
        let median = 2.0_f64.exp();
        assert!(
            (s.median() - median).abs() / median < 0.01,
            "median {}",
            s.median()
        );
    }

    #[test]
    fn variance_formula_matches_samples() {
        let d = LogNormal::new(0.5, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let mut s = Summary::new();
        for _ in 0..400_000 {
            s.push(d.sample(&mut rng));
        }
        assert!((s.variance() - d.variance()).abs() / d.variance() < 0.05);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::with_mean(0.0, 1.0).is_err());
        assert!(LogNormal::with_mean(-5.0, 1.0).is_err());
    }

    /// The closed-form moments the sampler tests compare their draws against.
    impl LogNormal {
        /// Arithmetic mean `exp(mu + sigma^2/2)`.
        fn mean(&self) -> f64 {
            (self.mu + self.sigma * self.sigma / 2.0).exp()
        }

        /// Arithmetic variance `(exp(sigma^2) - 1) * exp(2 mu + sigma^2)`.
        fn variance(&self) -> f64 {
            let s2 = self.sigma * self.sigma;
            (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
        }
    }
}
