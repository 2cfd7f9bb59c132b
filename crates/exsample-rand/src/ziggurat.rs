//! Ziggurat samplers for the standard Normal and Exponential distributions
//! (Marsaglia & Tsang, "The Ziggurat Method for Generating Random Variables",
//! 2000).
//!
//! These exist for one reason: ExSample's chunk-selection step draws one Gamma
//! sample *per chunk per pick*, and each Gamma draw consumes a standard-normal
//! variate (Marsaglia–Tsang squeeze) plus, for `shape < 1`, an exponential
//! variate for the boost factor.  The polar-method standard normal of
//! [`crate::normal`] costs a rejection loop with two uniforms, a `ln` and a
//! `sqrt` per variate; the ziggurat costs a single `u64` draw, two table loads
//! and one multiply in ~98 % of cases.  At 10 000 chunks per pick the
//! difference dominates the whole selection hot path.
//!
//! The layer tables are precomputed and embedded as statics (see
//! `ziggurat_tables.rs`), so lookups are direct loads: no lazy initialisation,
//! and the layer index is masked to the table size so the compiler elides
//! bounds checks.  The rare wedge/tail fall-throughs are outlined with
//! `#[cold]` to keep the fast path small enough to inline.
//! [`crate::normal`] keeps the polar method so existing
//! workload-generation streams are unaffected; the Gamma sampler (and
//! therefore Thompson sampling) uses the ziggurat variants below.

use crate::uniform_open01;
use crate::ziggurat_tables::{EXP_X, EXP_Y, NORMAL_X, NORMAL_Y};
use rand::Rng;

/// Rightmost strip boundary for the 128-layer normal ziggurat.
const NORMAL_R: f64 = 3.442_619_855_899;
/// Rightmost strip boundary for the 256-layer exponential ziggurat.
const EXP_R: f64 = 7.697_117_470_131_05;

const U53: f64 = 1.0 / (1u64 << 53) as f64;

/// Draw a standard-normal variate via the 128-layer ziggurat.
///
/// Identical distribution to [`crate::normal::StandardNormal`], roughly 3–4×
/// faster.  Consumes one `u64` in the ~98 % fast path.
#[inline]
pub(crate) fn fast_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        // Bit budget of one u64: 7 bits of layer index, 1 sign bit, 53 bits of
        // uniform mantissa (bits 11..64) — all disjoint.
        let i = (bits & 0x7F) as usize;
        let sign = if bits & 0x80 == 0 { 1.0 } else { -1.0 };
        let u = (bits >> 11) as f64 * U53;
        let z = u * NORMAL_X[i];
        if z < NORMAL_X[i + 1] {
            return sign * z;
        }
        if let Some(value) = normal_slow_path(rng, i, z, sign) {
            return value;
        }
    }
}

/// Tail and wedge handling for the normal ziggurat (~2 % of draws).
#[cold]
fn normal_slow_path<R: Rng + ?Sized>(rng: &mut R, i: usize, z: f64, sign: f64) -> Option<f64> {
    if i == 0 {
        // Tail beyond R (Marsaglia's exact tail method).
        loop {
            let e1 = -uniform_open01(rng).ln() / NORMAL_R;
            let e2 = -uniform_open01(rng).ln();
            if 2.0 * e2 >= e1 * e1 {
                return Some(sign * (NORMAL_R + e1));
            }
        }
    }
    // Wedge: strip i spans densities [y[i], y[i+1]].
    let u2: f64 = rng.gen();
    if NORMAL_Y[i] + u2 * (NORMAL_Y[i + 1] - NORMAL_Y[i]) < (-0.5 * z * z).exp() {
        return Some(sign * z);
    }
    None
}

/// Draw an `Exponential(1)` variate via the 256-layer ziggurat.
///
/// Consumes one `u64` in the ~98 % fast path; the tail loops back with an
/// offset (memorylessness: the tail of an exponential is an exponential).
#[inline]
pub fn fast_exponential<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut offset = 0.0;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        let u = (bits >> 11) as f64 * U53;
        let z = u * EXP_X[i];
        if z < EXP_X[i + 1] {
            return offset + z;
        }
        match exp_slow_path(rng, i, z) {
            SlowPath::Accept(value) => return offset + value,
            SlowPath::Tail => offset += EXP_R,
            SlowPath::Retry => {}
        }
    }
}

enum SlowPath {
    Accept(f64),
    Tail,
    Retry,
}

/// Tail and wedge handling for the exponential ziggurat (~2 % of draws).
#[cold]
fn exp_slow_path<R: Rng + ?Sized>(rng: &mut R, i: usize, z: f64) -> SlowPath {
    if i == 0 {
        // Tail: X > R is distributed as R + Exponential(1).
        return SlowPath::Tail;
    }
    let u2: f64 = rng.gen();
    if EXP_Y[i] + u2 * (EXP_Y[i + 1] - EXP_Y[i]) < (-z).exp() {
        SlowPath::Accept(z)
    } else {
        SlowPath::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_boundaries_satisfy_the_layer_recurrence() {
        // Spot-check the embedded tables against their defining equations.
        let f = |x: f64| (-0.5 * x * x).exp();
        assert!((NORMAL_X[1] - NORMAL_R).abs() < 1e-12);
        assert_eq!(NORMAL_X[128], 0.0);
        let v = 9.91256303526217e-3;
        for i in 2..128 {
            let expected = (-2.0 * (v / NORMAL_X[i - 1] + f(NORMAL_X[i - 1])).ln()).sqrt();
            assert!((NORMAL_X[i] - expected).abs() < 1e-12, "normal layer {i}");
            assert!(NORMAL_X[i] < NORMAL_X[i - 1], "normal layers must decrease");
            assert!((NORMAL_Y[i] - f(NORMAL_X[i])).abs() < 1e-15);
        }
        let fe = |x: f64| (-x).exp();
        let ve = 3.949_659_822_581_557e-3;
        assert!((EXP_X[1] - EXP_R).abs() < 1e-12);
        assert_eq!(EXP_X[256], 0.0);
        for i in 2..256 {
            let expected = -(ve / EXP_X[i - 1] + fe(EXP_X[i - 1])).ln();
            assert!((EXP_X[i] - expected).abs() < 1e-12, "exp layer {i}");
            assert!((EXP_Y[i] - fe(EXP_X[i])).abs() < 1e-15);
        }
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut s = Summary::new();
        for _ in 0..400_000 {
            s.push(fast_standard_normal(&mut rng));
        }
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.02, "var {}", s.variance());
    }

    #[test]
    fn normal_cdf_agrees_with_analytic() {
        // Empirical CDF at several points vs the analytic Normal CDF; this
        // catches wedge/tail mistakes that moments alone would miss.
        let d = crate::Normal::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400_000;
        let points = [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 3.5];
        let mut counts = [0usize; 8];
        for _ in 0..n {
            let z = fast_standard_normal(&mut rng);
            for (k, &p) in points.iter().enumerate() {
                if z <= p {
                    counts[k] += 1;
                }
            }
        }
        for (k, &p) in points.iter().enumerate() {
            let empirical = counts[k] as f64 / n as f64;
            assert!(
                (empirical - d.cdf(p)).abs() < 0.005,
                "point {p}: empirical {empirical} vs {}",
                d.cdf(p)
            );
        }
    }

    #[test]
    fn normal_tail_is_exercised() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut beyond = 0usize;
        let n = 2_000_000;
        for _ in 0..n {
            if fast_standard_normal(&mut rng).abs() > NORMAL_R {
                beyond += 1;
            }
        }
        // P(|Z| > 3.4426) ≈ 5.74e-4.
        let rate = beyond as f64 / n as f64;
        assert!((rate - 5.74e-4).abs() < 2e-4, "tail rate {rate}");
    }

    #[test]
    fn exponential_moments_and_cdf() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut s = Summary::new();
        let n = 400_000;
        let mut below_one = 0usize;
        let mut beyond_tail = 0usize;
        for _ in 0..n {
            let e = fast_exponential(&mut rng);
            assert!(e >= 0.0);
            if e <= 1.0 {
                below_one += 1;
            }
            if e > EXP_R {
                beyond_tail += 1;
            }
            s.push(e);
        }
        assert!((s.mean() - 1.0).abs() < 0.01, "mean {}", s.mean());
        assert!((s.variance() - 1.0).abs() < 0.03, "var {}", s.variance());
        let p1 = below_one as f64 / n as f64;
        assert!((p1 - (1.0 - (-1.0f64).exp())).abs() < 0.005, "P(X<=1) {p1}");
        // P(X > R) = exp(-R) ≈ 4.54e-4: the tail path must fire.
        let pt = beyond_tail as f64 / n as f64;
        assert!((pt - (-EXP_R).exp()).abs() < 2e-4, "tail rate {pt}");
    }
}
