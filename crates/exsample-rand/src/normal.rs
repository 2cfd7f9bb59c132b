//! Normal (Gaussian) distribution via the Marsaglia polar method.
//!
//! The Figure 3 workload of the paper places object instances along the frame axis
//! according to a Normal distribution whose standard deviation controls the
//! *instance skew* of the dataset.  The Gamma sampler also consumes standard-normal
//! draws internally (Marsaglia–Tsang).

use crate::error::{ensure_finite, ensure_positive, DistributionError};
use crate::Sampler;
use rand::Rng;

/// The standard Normal distribution `N(0, 1)`.
///
/// Uses the Marsaglia polar method: draw a uniform point in the unit disc and
/// transform it into two independent standard-normal variates.  One of the pair is
/// returned and the other discarded; the sampler is stateless so it can be shared
/// freely across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StandardNormal;

impl Sampler<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            // Uniform point in the square [-1, 1) x [-1, 1).
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return u * factor;
            }
        }
    }
}

/// A Normal distribution with arbitrary mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a Normal distribution `N(mean, std_dev^2)`.
    ///
    /// `std_dev` must be strictly positive.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistributionError> {
        ensure_finite("Normal", "mean", mean)?;
        ensure_positive("Normal", "std_dev", std_dev)?;
        Ok(Normal { mean, std_dev })
    }
}

impl Sampler<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * StandardNormal.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw_summary<S: Sampler<f64>>(dist: &S, n: usize, seed: u64) -> Summary {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Summary::new();
        for _ in 0..n {
            s.push(dist.sample(&mut rng));
        }
        s
    }

    #[test]
    fn standard_normal_moments() {
        let s = draw_summary(&StandardNormal, 200_000, 11);
        assert!(s.mean().abs() < 0.02, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.03, "var {}", s.variance());
    }

    #[test]
    fn parameterised_normal_moments() {
        let d = Normal::new(5.0, 2.5).unwrap();
        let s = draw_summary(&d, 200_000, 12);
        assert!((s.mean() - 5.0).abs() < 0.05);
        assert!((s.variance() - 6.25).abs() < 0.2);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn cdf_matches_known_values() {
        let d = Normal::new(0.0, 1.0).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((d.cdf(1.0) - 0.841_344_7).abs() < 1e-4);
        assert!((d.cdf(-1.0) - 0.158_655_3).abs() < 1e-4);
        assert!((d.cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-4);
    }

    /// The analytic CDF the sampler tests compare empirical frequencies against.
    impl Normal {
        /// Cumulative distribution function evaluated at `x`.
        ///
        /// Uses the complementary-error-function expansion (Abramowitz & Stegun 7.1.26),
        /// accurate to about `1.5e-7`.
        pub(crate) fn cdf(&self, x: f64) -> f64 {
            let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
            0.5 * (1.0 + erf(z))
        }
    }

    /// Error function approximation (Abramowitz & Stegun formula 7.1.26).
    ///
    /// Maximum absolute error ~1.5e-7 over the real line.
    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();

        const A1: f64 = 0.254829592;
        const A2: f64 = -0.284496736;
        const A3: f64 = 1.421413741;
        const A4: f64 = -1.453152027;
        const A5: f64 = 1.061405429;
        const P: f64 = 0.3275911;

        let t = 1.0 / (1.0 + P * x);
        let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
        sign * y
    }
}
