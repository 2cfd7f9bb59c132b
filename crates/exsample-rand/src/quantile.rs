//! Gamma quantiles and exact max-of-k Gamma draws.
//!
//! ExSample's hybrid belief-class fold (see `exsample-core::policy`) replaces
//! the per-chunk Thompson draws of every *large* belief class by one draw: all
//! chunks sharing one `(N1, n)` posterior are exchangeable, so the maximum of
//! their `k` iid Gamma draws can be drawn *exactly* in one step from the
//! order-statistic identity
//!
//! ```text
//! max(X_1, …, X_k)  ~  F⁻¹(U^(1/k)),   U ~ Uniform(0, 1)
//! ```
//!
//! That draw competes with `k` cached Marsaglia–Tsang draws at ~16 ns each, so
//! it has to be cheap as well as trustworthy.  This module provides:
//!
//! * `standard_normal_quantile` — Acklam's rational approximation of `Φ⁻¹`
//!   (absolute error < 1.2e-9 before refinement), used only as a seed;
//! * [`GammaTail`] — `Gamma(shape, 1)` prepared for inversion.  `ln Γ(shape)`
//!   is computed once per shape instead of once per incomplete-gamma
//!   evaluation, and the root is found by Halley's method on
//!   `ln F(x) − ln target` for whichever tail `F` is the smaller — where a
//!   maximum lives: `q = 1 − U^(1/k)` is 0.04 at k = 16 and 1e-25 at k = 10⁹ —
//!   from a Wilson–Hilferty seed (power-law / asymptotic-tail seeds below
//!   shape 1): two or three evaluations, each preferring the pipelined lower
//!   series to the division-bound continued fraction wherever `1 − P` keeps
//!   its digits.  Accurate to 1e-9 relative in the smaller tail from well
//!   below the ExSample prior `α₀ = 0.1` up to shapes in the tens of
//!   thousands;
//! * [`gamma_quantile`] — the same inversion addressed by the lower tail `p`
//!   (Bayes-UCB's index uses it);
//! * [`gamma_max_of_k`] — the exact max-of-k draw, spending one uniform variate
//!   regardless of `k`.  At shape 0.1 it costs about 0.3 µs for
//!   k ∈ {16, 100, 900}, against 1.1 / 2.6 / 2.0 µs when `(1 − Q) − p` was
//!   refined in linear space with `ln Γ` recomputed per evaluation;
//! * [`GammaTail::max_of_k_above`] — the same draw behind a floor: on the
//!   same uniform it returns the same value, or `None` without inverting when
//!   a tail test (a closed-form bound, [`GammaTail::ln_survival_bound`], then
//!   `ln Q` itself) shows the draw cannot exceed the floor.  The fold passes
//!   its running best, and most large-class draws lose to it.
//!
//! Round-trip (`quantile(cdf(x)) ≈ x`) and chi-square tests against `k`
//! independent Marsaglia–Tsang draws pin the implementation down; proptests in
//! `tests/quantile_props.rs` cover tolerance, monotonicity, extreme shapes,
//! the whole `k × shape × U` grid of the draw up to `k = 10⁹`, and the floor
//! test's soundness (a skipped draw is never above its floor, a returned one
//! is bit-equal to the ungated draw, the bound is never below `Q`).

use crate::gamma::{ln_gamma, lower_series, upper_fraction};
use crate::uniform_open01;
use rand::Rng;

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's rational approximation: three branches (lower tail, central,
/// upper tail) with absolute error below `1.2e-9` over `(0, 1)`.  The Gamma
/// quantile only uses this as an initial guess, so the approximation error is
/// removed by the Halley refinement there.
///
/// Returns `-∞` for `p <= 0` and `+∞` for `p >= 1`.
pub(crate) fn standard_normal_quantile(p: f64) -> f64 {
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let tail = |q: f64| -> f64 {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// Halley iteration cap.  Typical inputs converge in 2–3 steps; the cap only
/// matters for extreme tail probabilities at extreme shapes.
const MAX_HALLEY_STEPS: usize = 16;

/// Distance `|ln F(x) − ln target|` at which the inversion stops.  Halley
/// converges cubically in that distance, so a step taken from 1e-4 away lands
/// within ~1e-12 — far inside the 1e-8 round-trip pins — and the evaluation
/// that would merely confirm it is skipped.
const HALLEY_CUBIC_BREAK: f64 = 1e-4;

/// Upper-tail probability above which the lower series may stand in for the
/// continued fraction out to [`SERIES_REACH`]: `1 − P` then keeps ten digits.
const SERIES_MIN_TAIL: f64 = 1e-5;

/// How far past `a + 1` the series is preferred when precision allows.  The
/// continued fraction needs `85/x` terms of two dependent divisions each, the
/// series `e·x + 35` pipelined ones; per max-of-k draw the series keeps winning
/// up to about 12 (shape 0.1, k = 100: 1270 ns at 0, 360 at 4.5, 290 at 12).
const SERIES_REACH: f64 = 12.0;

/// The reach of the lower series when `Q` is evaluated on the way to the
/// upper-tail level `q`: [`SERIES_REACH`] while `1 − P` keeps its digits
/// there, none (the continued fraction from `a + 1` on) below
/// [`SERIES_MIN_TAIL`].  The inversion and the floor test of
/// [`GammaTail::max_of_k_above`] both choose their evaluator through it.
#[inline]
fn series_reach(q: f64) -> f64 {
    if q >= SERIES_MIN_TAIL {
        SERIES_REACH
    } else {
        0.0
    }
}

/// Margin in `ln Q` by which a max-of-k draw must fall short of its floor
/// before [`GammaTail::max_of_k_above`] skips inverting it: 1000× the ~1e-12
/// residual the inversion lands within, so every skipped draw would have
/// come out at or below the floor had it been inverted.
const FLOOR_MARGIN: f64 = 1e-9;

/// Quantile (inverse CDF) of `Gamma(shape, 1)`: the `x` with `P(shape, x) = p`,
/// where `P` is the regularised lower incomplete gamma function — consistent
/// with `crate::Gamma::cdf` to better than 1e-9 relative accuracy in the
/// smaller of `p` and `1 − p` (round-trip tested).  See [`GammaTail`] for the
/// method; callers that invert one shape repeatedly should hold one.
///
/// For a `Gamma(shape, rate)` quantile divide the result by `rate` (the rate
/// is a pure scale parameter); [`crate::Gamma::quantile`] does exactly that.
///
/// Returns `0` for `p <= 0` and `+∞` for `p >= 1`.
///
/// # Panics
/// Panics if `shape` is not a positive finite number or `p` is NaN.
pub fn gamma_quantile(shape: f64, p: f64) -> f64 {
    assert!(!p.is_nan(), "gamma_quantile needs a non-NaN probability");
    GammaTail::new(shape).invert(p, 1.0 - p)
}

/// `Gamma(shape, 1)` prepared for inversion, with `ln Γ(shape)` hoisted.
///
/// `ln Γ` costs a Lanczos evaluation (plus a reflection below ½) — more than
/// the rest of an incomplete-gamma evaluation — and a belief class's shape
/// changes only with its `N1`, so `exsample-core` keeps one `GammaTail` per
/// distinct `N1` and the hybrid fold's max-of-k draws never recompute it.
///
/// Inversion is Halley's method on `ln F(x) − ln target`, where `F` is
/// whichever of `P` and `Q` is the smaller at the root.  In log space a tail
/// is almost linear (`ln Q ≈ −x + (a−1)·ln x − ln Γ(a)`), so the iteration
/// converges from any seed, cubically near the root, and *relative to the
/// tail*: `Q = 1e-25` is solved as precisely as `Q = 0.3`, which
/// `(1 − Q) − p` cannot do once `p` rounds to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaTail {
    shape: f64,
    ln_gamma: f64,
}

impl GammaTail {
    /// Prepare `Gamma(shape, ·)`.
    ///
    /// # Panics
    /// Panics if `shape` is not a positive finite number.
    pub fn new(shape: f64) -> Self {
        assert!(
            shape > 0.0 && shape.is_finite(),
            "GammaTail needs a positive finite shape, got {shape}"
        );
        GammaTail {
            shape,
            ln_gamma: ln_gamma(shape),
        }
    }

    /// `ln Q(shape, x)`: the log of the regularised upper incomplete gamma
    /// function, i.e. the log survival function of `Gamma(shape, 1)`.
    /// Relative precision holds however small the tail gets.
    pub fn ln_survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        self.ln_tail_and_slope(x, true, 0.0).0
    }

    /// `(ln F(x), F′(x)/F(x))` at `x > 0` for `F = Q` (`upper`) or `F = P`.
    /// Below `max(a + 1, reach)` the lower series gives `P` (and `Q = 1 − P`);
    /// above it the continued fraction gives `Q` (and `P = 1 − Q`).
    fn ln_tail_and_slope(&self, x: f64, upper: bool, reach: f64) -> (f64, f64) {
        let a = self.shape;
        // `x^a e^{−x} / Γ(a)`: shared by the series, the continued fraction
        // and the density (`pdf = kernel / x`).
        let ln_kernel = a * x.ln() - x - self.ln_gamma;
        let series = x < (a + 1.0).max(reach);
        let factor = if series {
            lower_series(a, x)
        } else {
            upper_fraction(a, x)
        };
        if series != upper {
            // The tail the expansion yields directly: no cancellation.
            let slope = 1.0 / (x * factor);
            (ln_kernel + factor.ln(), if upper { -slope } else { slope })
        } else {
            let kernel = ln_kernel.exp();
            let tail = 1.0 - (factor * kernel).min(1.0);
            let slope = kernel / (x * tail);
            (tail.ln(), if upper { -slope } else { slope })
        }
    }

    /// The `x` with `Q(shape, x) = q`: the quantile of `Gamma(shape, 1)`
    /// addressed by its *upper* tail probability, to 1e-9 relative in the
    /// smaller of `q` and `1 − q`.
    ///
    /// Returns `+∞` for `q <= 0` and `0` for `q >= 1`.
    ///
    /// # Panics
    /// Panics if `q` is NaN.
    pub fn upper_quantile(&self, q: f64) -> f64 {
        assert!(!q.is_nan(), "upper_quantile needs a non-NaN probability");
        self.invert(1.0 - q, q)
    }

    /// The `x` with `P(shape, x) = p` and `Q(shape, x) = q`, given both tails
    /// (`p + q = 1`; the smaller one carries the precision).
    fn invert(&self, p: f64, q: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if q <= 0.0 {
            return f64::INFINITY;
        }
        let a = self.shape;
        let a1 = a - 1.0;
        let upper = q <= 0.5;
        let ln_target = if upper { q.ln() } else { p.ln() };
        let reach = if upper { series_reach(q) } else { 0.0 };
        let mut x = if a > 1.0 {
            // Wilson–Hilferty: a Gamma variate is approximately the cube of a
            // shifted, scaled normal variate.
            let z = if upper {
                -standard_normal_quantile(q)
            } else {
                standard_normal_quantile(p)
            };
            let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
            (a * t * t * t).max(1e-3)
        } else {
            // Below shape 1 the cube seed is unusable.  Far enough out,
            // `Q(a, x) ≈ x^(a−1)·e^(−x) / Γ(a)` inverted once around
            // `y = −ln(q·Γ(a))`; otherwise the power-law body, scaled by
            // `t ≈ P(a, 1)`.
            let y = -q.ln() - self.ln_gamma;
            if y > 1.0 {
                y + a1 * y.ln()
            } else {
                let t = 1.0 - a * (0.253 + a * 0.12);
                (p / t).powf(1.0 / a).min(1.0)
            }
        };
        for _ in 0..MAX_HALLEY_STEPS {
            if x <= 0.0 {
                return 0.0;
            }
            let (ln_tail, slope) = self.ln_tail_and_slope(x, upper, reach);
            if !(ln_tail.is_finite() && slope.is_finite() && slope != 0.0) {
                break;
            }
            // Newton's step on `f = ln F − ln target` (`f′ = slope`),
            // corrected by half of `f″/f′ = (a−1)/x − 1 − slope`.
            let distance = ln_tail - ln_target;
            let u = distance / slope;
            let step = u / (1.0 - 0.5 * (u * (a1 / x - 1.0 - slope)).min(1.0));
            x -= step;
            if x <= 0.0 {
                // Bounce off the support boundary instead of leaving it.
                x = 0.5 * (x + step);
            }
            if distance.abs() < HALLEY_CUBIC_BREAK {
                break;
            }
        }
        x
    }

    /// A closed-form upper bound on `ln Q(shape, x)`: one `ln`, no series.
    ///
    /// Above `x` the density's power factor `t^(a−1)` is at most `x^(a−1)`
    /// when `a ≤ 1`, and at most `x^(a−1)·e^((a−1)(t−x)/x)` when `a > 1`, so
    /// integrating `e^(−t)` against it gives
    ///
    /// ```text
    /// Q(a, x) ≤ x^(a−1)·e^(−x) / Γ(a)                    (a ≤ 1)
    /// Q(a, x) ≤ x^(a−1)·e^(−x) / Γ(a) · x / (x − a + 1)    (a > 1, x > a − 1)
    /// ```
    ///
    /// and the trivial `Q ≤ 1` (a bound of `0`) elsewhere.  Within about
    /// `(1 − a)/x` of the exact tail far out, which is where the maxima of
    /// large belief classes land.
    pub fn ln_survival_bound(&self, x: f64) -> f64 {
        let a = self.shape;
        if x <= 0.0 {
            return 0.0;
        }
        let ln_bound = (a - 1.0) * x.ln() - x - self.ln_gamma;
        if a <= 1.0 {
            ln_bound
        } else if x > a - 1.0 {
            ln_bound + (x / (x - a + 1.0)).ln()
        } else {
            0.0
        }
    }

    /// Draw the maximum of `k` iid `Gamma(shape, rate)` variates exactly,
    /// spending one uniform variate: see [`gamma_max_of_k`].
    ///
    /// # Panics
    /// Panics if `rate` is not positive finite, or `k == 0`.
    pub fn max_of_k<R: Rng + ?Sized>(&self, rng: &mut R, rate: f64, k: u64) -> f64 {
        self.upper_quantile(max_of_k_tail(rng, rate, k)) / rate
    }

    /// [`GammaTail::max_of_k`], returned only if it can exceed `floor`: the
    /// draw, bit for bit, or `None` when it would come out at or below
    /// `floor` — decided without inverting it.
    ///
    /// The draw spends its one uniform `U` either way, so the RNG stream is
    /// the same as [`GammaTail::max_of_k`]'s.  Its unit-rate value `X` solves
    /// `Q(a, X) = q` with `q = −expm1(ln U / k)`, and `Q` is strictly
    /// decreasing, so the draw exceeds `floor` iff `q < Q(a, floor·rate)`.
    /// The test runs in two steps and stops at the first that settles it:
    ///
    /// 1. [`GammaTail::ln_survival_bound`], one `ln` — it settles almost every
    ///    loser whose floor is not within a few per cent of the draw;
    /// 2. `ln Q` itself, through the evaluator the inversion would use
    ///    (the lower series out to `SERIES_REACH` while the tail keeps its
    ///    digits, else the continued fraction).
    ///
    /// `None` only when `ln q` clears the tested `ln Q` by a margin of 1e-9,
    /// 1000× the inversion's residual; anything closer is inverted in full.
    /// So `Some(x)` is exactly what [`GammaTail::max_of_k`] returns for the
    /// same `U`, and `None` means that value is `≤ floor`.  A floor that is
    /// not positive (or NaN) is never tested.  A loser settled by the bound
    /// costs about a fifth of a full draw, one settled by `ln Q` a third to
    /// a half; a winner pays the test on top of the inversion.
    ///
    /// # Panics
    /// Panics if `rate` is not positive finite, or `k == 0`.
    pub fn max_of_k_above<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        rate: f64,
        k: u64,
        floor: f64,
    ) -> Option<f64> {
        let q = max_of_k_tail(rng, rate, k);
        if floor > 0.0 {
            let (ln_q, y) = (q.ln(), floor * rate);
            if ln_q >= self.ln_survival_bound(y) + FLOOR_MARGIN
                || ln_q >= self.ln_tail_and_slope(y, true, series_reach(q)).0 + FLOOR_MARGIN
            {
                return None;
            }
        }
        Some(self.upper_quantile(q) / rate)
    }
}

/// The upper-tail level `q = 1 − U^(1/k)` of one max-of-k draw, formed from
/// one uniform without ever rounding `U^(1/k)` to 1.
fn max_of_k_tail<R: Rng + ?Sized>(rng: &mut R, rate: f64, k: u64) -> f64 {
    assert!(k > 0, "the maximum of zero draws is undefined");
    assert!(
        rate > 0.0 && rate.is_finite(),
        "gamma_max_of_k needs a positive finite rate, got {rate}"
    );
    -(uniform_open01(rng).ln() / k as f64).exp_m1()
}

/// Draw the maximum of `k` iid `Gamma(shape, rate)` variates exactly, spending
/// one uniform variate.
///
/// Uses the order-statistic identity `max ~ F⁻¹(U^(1/k))`: the CDF of the
/// maximum of `k` iid draws is `F(x)^k`, so pushing the `k`-th root of one
/// uniform through the quantile reproduces the max distribution *exactly* —
/// not approximately — for every `k ≥ 1`.  The draw works on the upper tail
/// directly: `q = 1 − U^(1/k) = −expm1(ln U / k)` keeps full relative
/// precision even for billion-member classes (where `U^(1/k)` is within ulps
/// of 1), and [`GammaTail::upper_quantile`] solves `Q(shape, x) = q`.
///
/// This is the draw behind ExSample's hybrid belief-class fold: one call
/// replaces the `k` per-chunk Marsaglia–Tsang draws of a large class.  Callers
/// that draw repeatedly from one shape should hold a [`GammaTail`].
///
/// # Panics
/// Panics if `shape` or `rate` is not positive finite, or `k == 0`.
pub fn gamma_max_of_k<R: Rng + ?Sized>(rng: &mut R, shape: f64, rate: f64, k: u64) -> f64 {
    GammaTail::new(shape).max_of_k(rng, rate, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::lower_incomplete_gamma_regularized;
    use crate::{Gamma, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shapes spanning the boost branch, the exponential special case, and
    /// large near-normal beliefs — the issue's 0.3..=64 pin plus the ExSample
    /// prior 0.1.
    const SHAPES: [f64; 8] = [0.1, 0.3, 0.5, 1.0, 2.0, 5.1, 17.0, 64.0];

    #[test]
    fn normal_quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((standard_normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((standard_normal_quantile(0.841_344_746) - 1.0).abs() < 1e-6);
        assert!(standard_normal_quantile(1e-12) < -6.0);
        assert_eq!(standard_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(standard_normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn normal_quantile_is_antisymmetric() {
        for &p in &[1e-6, 1e-3, 0.05, 0.2, 0.45] {
            let lower = standard_normal_quantile(p);
            let upper = standard_normal_quantile(1.0 - p);
            assert!((lower + upper).abs() < 1e-8, "p = {p}");
        }
    }

    #[test]
    fn quantile_round_trips_through_the_cdf() {
        // quantile(cdf(x)) ≈ x across shapes and a wide x grid.
        for &shape in &SHAPES {
            for i in 1..=40 {
                // Cover ~0.05× to ~4× the mean (the mean of Gamma(a, 1) is a).
                let x = shape * 0.1 * i as f64;
                let p = lower_incomplete_gamma_regularized(shape, x);
                if p <= 1e-12 || p >= 1.0 - 1e-9 {
                    // Saturated p: the inverse amplifies by 1/pdf, so the
                    // round-trip comparison stops being meaningful in x.
                    continue;
                }
                let back = gamma_quantile(shape, p);
                assert!(
                    (back - x).abs() < 1e-8 * x.max(1.0),
                    "shape {shape}, x {x}: round-trip gave {back} (p = {p})"
                );
            }
        }
    }

    #[test]
    fn cdf_round_trips_through_the_quantile() {
        // cdf(quantile(p)) ≈ p, including deep tails.
        for &shape in &SHAPES {
            for &p in &[
                1e-9,
                1e-4,
                0.01,
                0.1,
                0.25,
                0.5,
                0.75,
                0.9,
                0.99,
                1.0 - 1e-6,
            ] {
                let x = gamma_quantile(shape, p);
                let back = lower_incomplete_gamma_regularized(shape, x);
                assert!(
                    (back - p).abs() < 1e-9,
                    "shape {shape}, p {p}: got x {x}, back {back}"
                );
            }
        }
    }

    #[test]
    fn quantile_is_monotone_in_p() {
        for &shape in &SHAPES {
            let mut prev = 0.0;
            for i in 1..200 {
                let p = i as f64 / 200.0;
                let x = gamma_quantile(shape, p);
                assert!(
                    x >= prev,
                    "shape {shape}: quantile not monotone at p = {p} ({x} < {prev})"
                );
                prev = x;
            }
        }
    }

    #[test]
    fn quantile_edge_probabilities() {
        assert_eq!(gamma_quantile(2.0, 0.0), 0.0);
        assert_eq!(gamma_quantile(2.0, 1.0), f64::INFINITY);
        assert_eq!(gamma_quantile(0.1, -0.5), 0.0);
        assert_eq!(gamma_quantile(0.1, 1.5), f64::INFINITY);
    }

    #[test]
    fn quantile_exponential_special_case() {
        // Gamma(1, 1) is Exponential(1): quantile(p) = −ln(1 − p).
        for &p in &[0.01_f64, 0.1, 0.5, 0.9, 0.999] {
            let expected = -(1.0 - p).ln();
            let got = gamma_quantile(1.0, p);
            assert!(
                (got - expected).abs() < 1e-10 * expected.max(1.0),
                "p = {p}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn quantile_median_of_large_shape_is_near_the_mean() {
        // For large shape the Gamma is nearly normal: median ≈ a − 1/3.
        let median = gamma_quantile(1_000.0, 0.5);
        assert!(
            (median - (1_000.0 - 1.0 / 3.0)).abs() < 0.1,
            "median {median}"
        );
    }

    #[test]
    #[should_panic(expected = "positive finite shape")]
    fn quantile_rejects_bad_shape() {
        let _ = gamma_quantile(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "maximum of zero draws")]
    fn max_of_zero_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = gamma_max_of_k(&mut rng, 1.0, 1.0, 0);
    }

    #[test]
    fn max_of_one_matches_the_plain_distribution_in_moments() {
        // k = 1 is just an inverse-CDF draw of the Gamma itself.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 60_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += gamma_max_of_k(&mut rng, 2.0, 3.0, 1);
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0 / 3.0).abs() < 0.01, "mean {mean}");
    }

    /// Two-sample chi-square over analytic equal-probability bins: the bin
    /// edges are the quantiles of the max distribution itself
    /// (`F_max⁻¹(i/B) = F⁻¹((i/B)^(1/k))`), so both samples should spread
    /// uniformly across the bins.
    fn chi_square_max_vs_independent(shape: f64, rate: f64, k: u64, seed: u64) -> f64 {
        const BINS: usize = 8;
        const N: usize = 4_000;
        let edges: Vec<f64> = (1..BINS)
            .map(|i| {
                let p = (i as f64 / BINS as f64).powf(1.0 / k as f64);
                gamma_quantile(shape, p) / rate
            })
            .collect();
        let bin_of = |x: f64| edges.partition_point(|&e| e < x);
        let dist = Gamma::new(shape, rate).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order_stat = [0usize; BINS];
        for _ in 0..N {
            order_stat[bin_of(gamma_max_of_k(&mut rng, shape, rate, k))] += 1;
        }
        let mut independent = [0usize; BINS];
        for _ in 0..N {
            let mut max = f64::NEG_INFINITY;
            for _ in 0..k {
                max = max.max(dist.sample(&mut rng));
            }
            independent[bin_of(max)] += 1;
        }
        let mut chi = 0.0;
        for (&a, &b) in order_stat.iter().zip(&independent) {
            let total = (a + b) as f64;
            if total > 0.0 {
                let diff = a as f64 - b as f64;
                chi += diff * diff / total;
            }
        }
        chi
    }

    #[test]
    fn max_of_k_matches_k_independent_draws_in_distribution() {
        // df = 7, 99.99 % quantile ≈ 29.9; fixed seeds make each run
        // deterministic.  Shapes cover the boost branch through near-normal.
        for (i, &(shape, k)) in [
            (0.3_f64, 4_u64),
            (0.3, 64),
            (1.0, 16),
            (5.1, 7),
            (8.0, 100),
            (64.0, 3),
        ]
        .iter()
        .enumerate()
        {
            let chi = chi_square_max_vs_independent(shape, 1.7, k, 1_000 + i as u64);
            assert!(
                chi < 29.9,
                "shape {shape}, k {k}: chi-square {chi:.2} rejects equivalence"
            );
        }
    }

    #[test]
    fn max_of_large_k_is_finite_and_beyond_the_body() {
        // U^(1/k) for k = 10^6 sits within ulps of 1; the log-space form must
        // keep resolution rather than collapsing to p = 1 (infinite quantile).
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let x = gamma_max_of_k(&mut rng, 0.1, 1.0, 1_000_000);
            assert!(x.is_finite(), "max-of-10^6 draw must stay finite");
            assert!(x > 0.0);
        }
    }
}
