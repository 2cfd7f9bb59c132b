//! Gamma distribution via the Marsaglia–Tsang method.
//!
//! The Gamma distribution is the heart of ExSample's decision step: the belief over
//! a chunk's future reward `R_j(n_j + 1)` is modelled as
//! `Gamma(alpha = N1_j + alpha0, beta = n_j + beta0)` (Eq. III.4), and Thompson
//! sampling draws one value from each chunk's belief per iteration.  The paper uses
//! the *rate* parameterisation (mean `alpha / beta`, variance `alpha / beta^2`),
//! and so do we.

use crate::error::{ensure_positive, DistributionError};
use crate::ziggurat::{fast_exponential, fast_standard_normal};
use crate::{uniform_open01, Sampler};
use rand::Rng;

/// Gamma distribution with shape `alpha` and **rate** `beta`.
///
/// * mean  = `alpha / beta`
/// * variance = `alpha / beta^2`
///
/// Sampling uses Marsaglia & Tsang's squeeze method for `alpha >= 1` and the
/// `Gamma(alpha + 1) * U^(1/alpha)` boost for `alpha < 1` (the ExSample prior
/// `alpha0 = 0.1` routinely puts us in that branch early in a query).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Create a Gamma distribution with the given shape (`alpha`) and rate (`beta`).
    pub fn new(shape: f64, rate: f64) -> Result<Self, DistributionError> {
        ensure_positive("Gamma", "shape", shape)?;
        ensure_positive("Gamma", "rate", rate)?;
        Ok(Gamma { shape, rate })
    }

    /// Create the ExSample belief distribution for a chunk.
    ///
    /// `n1` is the number of objects seen exactly once in the chunk, `n` the number
    /// of frames sampled from it, and `alpha0`/`beta0` the smoothing constants of
    /// Eq. III.4 (the paper uses `alpha0 = 0.1`, `beta0 = 1.0`).
    pub fn belief(n1: f64, n: f64, alpha0: f64, beta0: f64) -> Result<Self, DistributionError> {
        Gamma::new(n1 + alpha0, n + beta0)
    }

    /// Shape parameter `alpha`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `beta`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean of the distribution, `alpha / beta`.
    pub fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    /// Variance of the distribution, `alpha / beta^2`.
    pub fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    /// The `q`-quantile (inverse CDF).
    ///
    /// Used by the Bayes-UCB policy, which ranks chunks by an upper quantile of the
    /// belief distribution rather than by a Thompson draw.  Delegates to
    /// [`crate::quantile::gamma_quantile`]
    /// (Wilson–Hilferty seed + Halley refinement); the rate is a pure scale
    /// parameter, so the unit-rate quantile is divided by it.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
        crate::quantile::gamma_quantile(self.shape, q) / self.rate
    }
}

impl Sampler<f64> for Gamma {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (d, c, boost_inv_shape) = mt_constants(self.shape);
        gamma_draw(rng, d, c, boost_inv_shape, self.rate)
    }
}

/// The analytic CDF the quantile and sampler tests compare against.
#[cfg(test)]
impl Gamma {
    /// Cumulative distribution function at `x` (regularised lower incomplete gamma).
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        lower_incomplete_gamma_regularized(self.shape, self.rate * x)
    }
}

/// The Marsaglia–Tsang constants for `Gamma(shape, 1)` sampling.
///
/// Returns `(d, c, boost_inv_shape)` where `d = s − 1/3`, `c = 1/√(9d)` for the
/// *boosted* shape `s` (`shape + 1` when `shape < 1`, else `shape`), and
/// `boost_inv_shape` is `1/shape` when the boost branch applies and `0.0`
/// otherwise.  These are the per-distribution constants cached by
/// `exsample-core`'s per-chunk belief cache; [`gamma_draw`] on them is
/// bitwise [`Gamma::sample`].
#[inline]
pub fn mt_constants(shape: f64) -> (f64, f64, f64) {
    let boost = shape < 1.0;
    let s = if boost { shape + 1.0 } else { shape };
    let d = s - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    (d, c, if boost { 1.0 / shape } else { 0.0 })
}

/// One accepted Marsaglia–Tsang draw of `Gamma(s, 1)` (`s ≥ 1`), given the
/// precomputed constants `d = s − 1/3` and `c = 1/√(9d)`.  Returns `d·v³`.
#[inline]
pub fn mt_draw_unit<R: Rng + ?Sized>(rng: &mut R, d: f64, c: f64) -> f64 {
    loop {
        let x = fast_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = uniform_open01(rng);
        // Squeeze test (fast accept).
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v3;
        }
        // Full acceptance test in log space.
        if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Complete Gamma draw from cached constants: Marsaglia–Tsang body, the
/// `shape < 1` boost, and the rate division.
///
/// The boost uses the identity `U^(1/shape) = exp(−E/shape)` with
/// `E ~ Exponential(1)` drawn from the ziggurat — distributionally identical to
/// the textbook uniform-power form but with a much cheaper random variate, and
/// (critically for the chunk-selection hot path) the expensive `exp` can be
/// *skipped by callers that only need an upper bound*, because
/// `exp(−E/shape) ≤ 1` makes `d·v³/rate` an upper bound on the final draw.
#[inline]
pub fn gamma_draw<R: Rng + ?Sized>(
    rng: &mut R,
    d: f64,
    c: f64,
    boost_inv_shape: f64,
    rate: f64,
) -> f64 {
    let mut raw = mt_draw_unit(rng, d, c);
    if boost_inv_shape > 0.0 {
        let e = fast_exponential(rng);
        raw *= (-e * boost_inv_shape).exp();
    }
    raw / rate
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7, n = 9).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Coefficients for the Lanczos approximation.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularised lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for the
/// complement otherwise (Numerical Recipes style).
pub fn lower_incomplete_gamma_regularized(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        (lower_series(a, x).ln() + a * x.ln() - x - ln_gamma(a))
            .exp()
            .min(1.0)
    } else {
        let q = (a * x.ln() - x - ln_gamma(a)).exp() * upper_fraction(a, x);
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Term cap of the two expansions below.  Near `x = a + 1` both need about
/// `9·√a` terms; a cap of 500 silently truncated them from shape ~3000 on
/// (`P(50 000, x)` jumped by 0.012 where they switch), un-invertibly.
const MAX_TERMS: usize = 10_000;

/// The series `Σ xⁿ / (a·(a+1)⋯(a+n))`, with `P(a, x) = x^a e^{−x}/Γ(a)` times
/// it.  Converges for every `x > 0`, in about `e·x + 35` terms at small `a`.
pub(crate) fn lower_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..MAX_TERMS {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum
}

/// The continued fraction `h` with `Q(a, x) = x^a e^{−x}/Γ(a) · h` (modified
/// Lentz evaluation).  Meant for `x ≥ a + 1`, where it needs about `85/x`
/// terms; it yields the upper tail itself, to full relative precision.
pub(crate) fn upper_fraction(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / 1e-300;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..MAX_TERMS {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(shape: f64, rate: f64, n: usize, seed: u64) -> (f64, f64) {
        let d = Gamma::new(shape, rate).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Summary::new();
        for _ in 0..n {
            s.push(d.sample(&mut rng));
        }
        (s.mean(), s.variance())
    }

    #[test]
    fn mean_and_variance_large_shape() {
        let (m, v) = moments(9.0, 2.0, 200_000, 31);
        assert!((m - 4.5).abs() < 0.05, "mean {m}");
        assert!((v - 2.25).abs() < 0.1, "variance {v}");
    }

    #[test]
    fn mean_and_variance_shape_below_one() {
        // ExSample's prior-only belief: Gamma(0.1, 1.0).
        let (m, v) = moments(0.1, 1.0, 400_000, 32);
        assert!((m - 0.1).abs() < 0.01, "mean {m}");
        assert!((v - 0.1).abs() < 0.02, "variance {v}");
    }

    #[test]
    fn belief_constructor_matches_paper_parameterisation() {
        let belief = Gamma::belief(5.0, 120.0, 0.1, 1.0).unwrap();
        assert!((belief.mean() - 5.1 / 121.0).abs() < 1e-12);
        assert!((belief.variance() - 5.1 / (121.0 * 121.0)).abs() < 1e-12);
    }

    #[test]
    fn samples_are_positive() {
        let d = Gamma::new(0.1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn cached_sampler_matches_uncached_draw_for_draw() {
        // Same seed => bitwise-identical draw sequences from the cached
        // constants (what exsample-core's belief cache stores) and from
        // `Gamma::sample`, for both the plain branch (shape >= 1) and the
        // boost branch (shape < 1).
        for &(shape, rate) in &[(5.1, 106.0), (0.1, 1.0), (0.1, 400.0), (37.1, 1_201.0)] {
            let dist = Gamma::new(shape, rate).unwrap();
            let (d, c, boost_inv_shape) = mt_constants(shape);
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            for i in 0..5_000 {
                let a = dist.sample(&mut rng_a);
                let b = gamma_draw(&mut rng_b, d, c, boost_inv_shape, rate);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "draw {i} of Gamma({shape}, {rate})"
                );
            }
        }
    }

    #[test]
    fn mt_constants_match_documented_formulas() {
        let (d, c, boost) = mt_constants(2.5);
        assert!((d - (2.5 - 1.0 / 3.0)).abs() < 1e-15);
        assert!((c - 1.0 / (9.0 * d).sqrt()).abs() < 1e-15);
        assert_eq!(boost, 0.0);
        let (d, _, boost) = mt_constants(0.1);
        assert!((d - (1.1 - 1.0 / 3.0)).abs() < 1e-15);
        assert!((boost - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(1) = 1, Gamma(2) = 1, Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let d = Gamma::new(2.5, 1.5).unwrap();
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.1;
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!(d.cdf(100.0) > 0.999_999);
    }

    #[test]
    fn cdf_exponential_special_case() {
        // Gamma(1, rate) is Exponential(rate): CDF(x) = 1 - exp(-rate x).
        let d = Gamma::new(1.0, 2.0).unwrap();
        for &x in &[0.1_f64, 0.5, 1.0, 3.0] {
            let expected = 1.0 - (-2.0 * x).exp();
            assert!((d.cdf(x) - expected).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Gamma::new(3.0, 2.0).unwrap();
        for &q in &[0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let x = d.quantile(q);
            assert!((d.cdf(x) - q).abs() < 1e-9, "q = {q}");
        }
    }

    #[test]
    fn quantile_monotone_in_level() {
        let d = Gamma::new(0.1, 1.0).unwrap();
        assert!(d.quantile(0.9) > d.quantile(0.5));
        assert!(d.quantile(0.5) > d.quantile(0.1));
    }

    #[test]
    fn empirical_cdf_agrees_with_analytic_cdf() {
        let d = Gamma::new(2.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(35);
        let n = 100_000;
        let threshold = d.mean();
        let count = (0..n).filter(|_| d.sample(&mut rng) <= threshold).count();
        let empirical = count as f64 / n as f64;
        assert!((empirical - d.cdf(threshold)).abs() < 0.01);
    }
}
