//! Property-based coverage for the incomplete-gamma / quantile pair.
//!
//! The hybrid belief-class fold leans on `gamma_quantile` / `GammaTail` being
//! faithful inverses of the incomplete gamma across the whole shape range
//! ExSample produces — from the `α₀ = 0.1` prior up to beliefs with tens of
//! thousands of observations — and on the max-of-k draw staying exact from
//! singleton classes to billion-member ones.  These properties pin round-trip
//! tolerance, monotonicity in every argument, and extreme-shape behaviour,
//! and that the max-of-k draw's floor test skips only draws that could not
//! have exceeded the floor.

use exsample_rand::gamma::lower_incomplete_gamma_regularized;
use exsample_rand::{gamma_max_of_k, gamma_quantile, Gamma, GammaTail};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// An RNG whose every uniform variate is `mantissa · 2⁻⁵³`.
struct FixedUniform(u64);

impl RngCore for FixedUniform {
    fn next_u64(&mut self) -> u64 {
        self.0 << 11
    }
}

/// The whole grid of the max-of-k draw: k from a singleton to a billion, the
/// shapes of the prior / one hit / five hits / a long-run belief, and the
/// smallest, middle and largest uniform the generator can produce.  Every draw
/// is finite and positive, moves up with U and with k, and its tail
/// probability `Q(shape, x·rate)` equals `q = 1 − U^(1/k)` to 1e-8 *relative*
/// — at `k = 10⁹`, `U = 1 − 2⁻⁵³` that is a tail of 1e-25.
#[test]
fn max_of_k_is_exact_and_monotone_from_singletons_to_a_billion() {
    const KS: [u64; 5] = [1, 16, 1_000, 1_000_000, 1_000_000_000];
    const MANTISSAS: [u64; 3] = [1, 1 << 52, (1 << 53) - 1];
    const RATE: f64 = 3.0;
    for shape in [0.1, 1.1, 5.1, 64.0] {
        let tail = GammaTail::new(shape);
        let mut draws = [[0.0f64; KS.len()]; MANTISSAS.len()];
        for (row, &mantissa) in draws.iter_mut().zip(&MANTISSAS) {
            let u = mantissa as f64 / (1u64 << 53) as f64;
            for (draw, &k) in row.iter_mut().zip(&KS) {
                let x = tail.max_of_k(&mut FixedUniform(mantissa), RATE, k);
                assert!(x.is_finite() && x > 0.0, "shape {shape}, k {k}, U {u}: {x}");
                assert_eq!(
                    x,
                    gamma_max_of_k(&mut FixedUniform(mantissa), shape, RATE, k),
                    "the free function is the prepared draw"
                );
                let ln_q = (-(u.ln() / k as f64).exp_m1()).ln();
                let ratio = (tail.ln_survival(x * RATE) - ln_q).exp();
                assert!(
                    (ratio - 1.0).abs() < 1e-8,
                    "shape {shape}, k {k}, U {u}: x {x}, Q/q = {ratio}"
                );
                *draw = x;
            }
            assert!(
                row.windows(2).all(|w| w[0] <= w[1]),
                "shape {shape}, U {u}: not monotone in k: {row:?}"
            );
        }
        for col in 0..KS.len() {
            assert!(
                draws.windows(2).all(|w| w[0][col] <= w[1][col]),
                "shape {shape}, k {}: not monotone in U",
                KS[col]
            );
        }
    }
}

/// The floor test of `max_of_k_above` is sound: with a fixed uniform, a
/// skipped draw (`None`) is one the ungated draw puts at or below the floor,
/// and a returned draw is bit-equal to the ungated one.  Floors sit at the
/// max-of-k distribution's own quantiles, from one nearly every draw beats to
/// one nearly none does, and the uniforms include a few ulps either side of
/// each floor's level, where the draw lands on the floor itself.
#[test]
fn max_of_k_above_skips_only_draws_that_cannot_exceed_the_floor() {
    const KS: [u64; 4] = [16, 100, 1_000, 1_000_000];
    const LEVELS: [f64; 4] = [0.01, 0.5, 0.99, 1.0 - 1e-6];
    const RATE: f64 = 3.0;
    const SCALE: f64 = (1u64 << 53) as f64;
    let mut mantissas: Vec<u64> = (1..64).map(|i| i * ((1 << 53) / 64)).collect();
    mantissas.extend([1, (1 << 53) - 1]);
    for level in LEVELS {
        let at = (level * SCALE) as u64;
        mantissas.extend((at - 3..=at + 3).filter(|&m| m > 0 && m < 1 << 53));
    }
    let (mut skipped, mut returned) = (0usize, 0usize);
    for shape in [0.1, 1.1, 5.1, 64.0] {
        let tail = GammaTail::new(shape);
        for k in KS {
            for level in LEVELS {
                // F_max⁻¹(level): the draw whose uniform is `level`.
                let floor = tail.upper_quantile(-(level.ln() / k as f64).exp_m1()) / RATE;
                for &mantissa in &mantissas {
                    let draw = tail.max_of_k(&mut FixedUniform(mantissa), RATE, k);
                    let case = format!(
                        "shape {shape}, k {k}, floor {floor} (level {level}), U {}",
                        mantissa as f64 / SCALE
                    );
                    match tail.max_of_k_above(&mut FixedUniform(mantissa), RATE, k, floor) {
                        None => {
                            skipped += 1;
                            assert!(draw <= floor, "{case}: skipped a draw of {draw}");
                        }
                        Some(x) => {
                            returned += 1;
                            assert_eq!(x.to_bits(), draw.to_bits(), "{case}: {x} vs {draw}");
                        }
                    }
                }
            }
        }
    }
    // The test decides both ways on this grid: most uniforms sit below the
    // upper floors' levels, and the lowest floor is beaten by almost all.
    assert!(
        skipped > returned / 2 && returned > skipped / 4,
        "skipped {skipped}, returned {returned}"
    );
}

/// `ln_survival` against closed forms (integer shapes: `Q(n, x) = e^{−x} Σ
/// xⁱ/i!`), on both sides of the series / continued-fraction switch and far
/// into the tail, and against `1 − P` where that still has digits.
#[test]
fn ln_survival_matches_closed_forms_and_the_lower_function() {
    for x in [0.05, 0.5, 1.9, 2.1, 3.9, 4.1, 12.5, 40.0, 300.0] {
        let exponential = GammaTail::new(1.0).ln_survival(x);
        assert!((exponential + x).abs() < 1e-12 * x.max(1.0), "Q(1, {x})");
        let erlang3 = GammaTail::new(3.0).ln_survival(x);
        let expected = (1.0 + x + 0.5 * x * x).ln() - x;
        assert!(
            (erlang3 - expected).abs() < 1e-11 * x.max(1.0),
            "Q(3, {x}): {erlang3} vs {expected}"
        );
    }
    for shape in [0.1, 0.7, 1.1, 5.1, 64.0] {
        for scale in [0.2, 0.9, 1.0, 1.5, 3.0] {
            let x = (shape + 1.0) * scale;
            let q = 1.0 - lower_incomplete_gamma_regularized(shape, x);
            if q > 1e-6 {
                let got = GammaTail::new(shape).ln_survival(x).exp();
                assert!(
                    (got / q - 1.0).abs() < 1e-9,
                    "Q({shape}, {x}): {got} vs {q}"
                );
            }
        }
    }
    assert_eq!(GammaTail::new(2.0).ln_survival(0.0), 0.0);
}

proptest! {
    /// cdf(quantile(p)) ≈ p for any shape and interior probability.
    #[test]
    fn cdf_of_quantile_recovers_p(shape in 0.05f64..200.0, p in 1e-6f64..0.999_999) {
        let x = gamma_quantile(shape, p);
        prop_assert!(x.is_finite() && x > 0.0, "quantile({shape}, {p}) = {x}");
        let back = lower_incomplete_gamma_regularized(shape, x);
        prop_assert!(
            (back - p).abs() < 1e-9,
            "shape {shape}, p {p}: x {x}, cdf back {back}"
        );
    }

    /// quantile(cdf(x)) ≈ x wherever the CDF is not saturated.
    #[test]
    fn quantile_of_cdf_recovers_x(shape in 0.05f64..200.0, scale in 0.05f64..6.0) {
        // Probe a point proportional to the mean so every shape is exercised
        // in its own body rather than a fixed absolute range.
        let x = shape * scale;
        let p = lower_incomplete_gamma_regularized(shape, x);
        // Saturated p amplifies the inverse by 1/pdf; the comparison in x is
        // only meaningful while the CDF still has resolution.
        prop_assume!(p > 1e-9 && p < 1.0 - 1e-9);
        let back = gamma_quantile(shape, p);
        prop_assert!(
            (back - x).abs() < 1e-7 * x.max(1.0),
            "shape {shape}, x {x}: p {p}, back {back}"
        );
    }

    /// The quantile is strictly monotone in the probability level.
    #[test]
    fn quantile_monotone_in_p(shape in 0.05f64..200.0, p in 1e-6f64..0.99, gap in 1e-4f64..0.009) {
        let lo = gamma_quantile(shape, p);
        let hi = gamma_quantile(shape, p + gap);
        prop_assert!(hi > lo, "shape {shape}: q({}) = {hi} !> q({p}) = {lo}", p + gap);
    }

    /// At a fixed level the quantile is monotone in the shape: more expected
    /// events shift the whole distribution right.
    #[test]
    fn quantile_monotone_in_shape(shape in 0.05f64..100.0, p in 1e-4f64..0.999) {
        let lo = gamma_quantile(shape, p);
        let hi = gamma_quantile(shape * 1.5, p);
        prop_assert!(hi > lo, "p {p}: q(shape {}) = {hi} !> q(shape {shape}) = {lo}", shape * 1.5);
    }

    /// Extreme shapes stay finite, positive and ordered: tiny shapes (the
    /// all-prior belief is Gamma(0.1, 1)) and huge shapes (long-run beliefs)
    /// both round-trip.
    #[test]
    fn extreme_shapes_round_trip(p in 1e-4f64..0.9999) {
        for shape in [0.01, 0.1, 1_000.0, 50_000.0] {
            let x = gamma_quantile(shape, p);
            prop_assert!(x.is_finite() && x >= 0.0, "shape {shape}, p {p}: x {x}");
            if x > 0.0 {
                let back = lower_incomplete_gamma_regularized(shape, x);
                prop_assert!(
                    (back - p).abs() < 1e-8,
                    "shape {shape}, p {p}: x {x}, back {back}"
                );
            }
        }
    }

    /// `upper_quantile(q)` inverts the tail to 1e-8 relative in `q`, across
    /// the median hand-off to `gamma_quantile` and down to tails of 1e-30.
    #[test]
    fn upper_quantile_inverts_the_tail(shape in 0.05f64..200.0, ln_q in -69.0f64..-0.01) {
        let tail = GammaTail::new(shape);
        let x = tail.upper_quantile(ln_q.exp());
        prop_assert!(x.is_finite() && x > 0.0, "upper_quantile({shape}, e^{ln_q}) = {x}");
        let back = tail.ln_survival(x);
        prop_assert!(
            ((back - ln_q).exp() - 1.0).abs() < 1e-8,
            "shape {shape}, ln q {ln_q}: x {x}, ln Q back {back}"
        );
    }

    /// The closed-form bound behind the floor test never undercuts the
    /// exact tail, from the body down to tails of 1e-30: at every `x` for
    /// shapes up to 1, and above `a − 1` beyond (where the bound holds).
    #[test]
    fn survival_bound_is_never_below_the_tail(shape in 0.05f64..200.0, ln_q in -69.0f64..-0.01) {
        let tail = GammaTail::new(shape);
        let x = tail.upper_quantile(ln_q.exp());
        prop_assume!(shape <= 1.0 || x > shape - 1.0);
        let exact = tail.ln_survival(x);
        let bound = tail.ln_survival_bound(x);
        prop_assert!(
            bound >= exact - 1e-12 * exact.abs().max(1.0),
            "shape {shape}, x {x}: bound {bound} < ln Q {exact}"
        );
    }

    /// The floor test against the ungated draw over random shapes, rates,
    /// class sizes and floors near the draw: `None` only at or below the
    /// floor, `Some` bit-equal to the ungated draw.
    #[test]
    fn max_of_k_above_agrees_with_the_ungated_draw(
        shape in 0.05f64..200.0,
        rate in 0.05f64..500.0,
        k in 1u64..1_000_000,
        seed in 0u64..1_000,
        ratio in 0.5f64..2.0,
    ) {
        let tail = GammaTail::new(shape);
        let draw = tail.max_of_k(&mut StdRng::seed_from_u64(seed), rate, k);
        // A floor near the draw's median, so both answers occur.
        let floor = ratio * tail.upper_quantile(-(0.5f64.ln() / k as f64).exp_m1()) / rate;
        match tail.max_of_k_above(&mut StdRng::seed_from_u64(seed), rate, k, floor) {
            None => prop_assert!(draw <= floor, "skipped {draw} > floor {floor}"),
            Some(x) => prop_assert_eq!(x.to_bits(), draw.to_bits()),
        }
    }

    /// `Gamma::quantile` agrees with the free function under rate scaling.
    #[test]
    fn distribution_quantile_is_scaled_unit_quantile(
        shape in 0.05f64..100.0,
        rate in 0.05f64..500.0,
        p in 1e-4f64..0.9999,
    ) {
        let dist = Gamma::new(shape, rate).unwrap();
        let expected = gamma_quantile(shape, p) / rate;
        let got = dist.quantile(p);
        prop_assert!(
            (got - expected).abs() <= 1e-12 * expected.abs().max(1.0),
            "shape {shape}, rate {rate}, p {p}: {got} vs {expected}"
        );
    }

    /// A max-of-k draw stochastically dominates the probability mass below any
    /// fixed quantile: it exceeds the plain distribution's `p`-quantile with
    /// probability `1 - p^k` — in particular it is always within the support.
    #[test]
    fn max_of_k_draws_are_finite_positive(
        shape in 0.05f64..100.0,
        rate in 0.05f64..100.0,
        k in 1u64..100_000,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = gamma_max_of_k(&mut rng, shape, rate, k);
        prop_assert!(x.is_finite() && x > 0.0, "max-of-{k} draw {x}");
    }

    /// For the same underlying uniform, raising k can only move the draw up:
    /// U^(1/k) is increasing in k, and the quantile is monotone.
    #[test]
    fn max_of_k_is_monotone_in_k(
        shape in 0.05f64..100.0,
        k in 1u64..10_000,
        seed in 0u64..1_000,
    ) {
        let lo = gamma_max_of_k(&mut StdRng::seed_from_u64(seed), shape, 1.0, k);
        let hi = gamma_max_of_k(&mut StdRng::seed_from_u64(seed), shape, 1.0, k * 4);
        prop_assert!(hi >= lo, "k {k}: max-of-{} draw {hi} < max-of-{k} draw {lo}", k * 4);
    }
}
