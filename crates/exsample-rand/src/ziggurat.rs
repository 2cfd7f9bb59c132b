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
//! The layer tables are derived at build time from the Marsaglia–Tsang layer
//! recurrence (see the crate's `build.rs`) and embedded as statics, so lookups
//! are direct loads: no lazy initialisation, and the layer index is masked to
//! the table size so the compiler elides bounds checks.  The rare wedge/tail
//! fall-throughs are outlined with `#[cold]` to keep the fast path small
//! enough to inline.  [`crate::normal`] keeps the polar method so existing
//! workload-generation streams are unaffected; the Gamma sampler (and
//! therefore Thompson sampling) uses the ziggurat variants below.

use crate::uniform_open01;
use rand::Rng;

// `NORMAL_X`/`NORMAL_Y` (128 layers) and `EXP_X`/`EXP_Y` (256 layers), the
// layer boundaries and densities `build.rs` derives, and `NORMAL_R`/`EXP_R`,
// the right edge of each base strip, where the tail begins.
include!(concat!(env!("OUT_DIR"), "/ziggurat_tables.rs"));

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

    /// FNV-1a over the `to_bits()` of every entry of `NORMAL_X`, `NORMAL_Y`,
    /// `EXP_X` and `EXP_Y`, in that order: pins the four layer tables bit for
    /// bit, so any change to how they are produced shows here, naming the
    /// table whose bits moved.  `build.rs` derives the tables with the build
    /// host's `exp` and `ln`: a libm that rounds a last bit differently fails
    /// here rather than drawing from other tables.
    #[test]
    fn layer_tables_are_pinned() {
        for (x, y, r) in [
            (&NORMAL_X[..], &NORMAL_Y[..], NORMAL_R),
            (&EXP_X, &EXP_Y, EXP_R),
        ] {
            let n = x.len() - 1;
            assert_eq!((x[1], x[n], y[n]), (r, 0.0, 1.0), "{n}-layer ziggurat");
            assert!(x.windows(2).all(|w| w[1] < w[0]), "{n} layers must narrow");
        }
        const GOLDEN: [(&str, u64); 4] = [
            ("NORMAL_X", 0x5816_45bd_8055_ad22),
            ("NORMAL_Y", 0x662f_47ff_fd34_e19d),
            ("EXP_X", 0x73c3_9b12_ba88_2027),
            ("EXP_Y", 0x5b50_ea77_68bd_07f8),
        ];
        fn fold(digest: u64, value: u64) -> u64 {
            value.to_le_bytes().into_iter().fold(digest, |d, byte| {
                (d ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let tables: [&[f64]; 4] = [&NORMAL_X, &NORMAL_Y, &EXP_X, &EXP_Y];
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for ((name, golden), table) in GOLDEN.into_iter().zip(tables) {
            digest = table.iter().fold(digest, |d, x| fold(d, x.to_bits()));
            assert_eq!(digest, golden, "{name}: digest {digest:#018x}");
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
