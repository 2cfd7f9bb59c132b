//! The future-reward estimator `R̂` and the theoretical quantities around it.
//!
//! Section III-A of the paper defines, for a chunk from which `n` frames have been
//! sampled:
//!
//! * `R(n+1)` — the expected number of *new* (not-yet-seen) objects in one more
//!   random frame: `R(n+1) = Σ_i p_i · [i ∉ seen(n)]`;
//! * the estimator `R̂(n+1) = N1(n) / n` where `N1(n)` is the number of objects seen
//!   exactly once so far;
//! * a bias bound (Eq. III.2): `0 ≤ E[R̂ − R] / R̂ ≤ max_i p_i` and
//!   `≤ √N (µ_p + σ_p)`;
//! * a variance bound (Eq. III.3): `Var[R̂(n+1)] ≤ E[R̂(n+1)] / n`.
//!
//! The functions in this module compute all of those quantities — the estimator
//! itself for the sampler, and the ground-truth-side quantities (`π_i(n)`, the true
//! `R`, the expectation of `N1`) for the Figure 2 validation experiment and the
//! property tests that verify the bounds hold.

/// The point estimate `R̂(n+1) = N1 / n` (Eq. III.1).
///
/// Returns `None` when `n == 0` (the estimator is undefined before any samples,
/// which is exactly why the belief distribution carries a prior).
pub(crate) fn point_estimate(n1: u64, n: u64) -> Option<f64> {
    if n == 0 {
        None
    } else {
        Some(n1 as f64 / n as f64)
    }
}

/// The variance bound of Eq. III.3: `Var[R̂(n+1)] ≤ E[R̂(n+1)] / n`.
///
/// Given an estimate of `E[R̂]` (in practice the point estimate itself) and the
/// sample count, returns the bound's right-hand side.
pub fn variance_bound(expected_estimate: f64, n: u64) -> f64 {
    assert!(n > 0, "variance bound requires at least one sample");
    expected_estimate / n as f64
}

/// `π_i(n+1) = p_i (1 − p_i)^n`: the probability that instance `i` is seen for the
/// first time on the `(n+1)`-th sample (missed on the first `n`).
pub(crate) fn pi_next(p: f64, n: u64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    p * (1.0 - p).powi(n as i32)
}

/// The conditional `R(n+1) = Σ_{i ∉ seen} p_i` for a *particular* run in which the
/// instances in `seen` have already been found (`seen[i]` true ⇔ instance `i`
/// seen).  This is what the Figure 2 experiment histograms.
pub fn realized_r_next(probabilities: &[f64], seen: &[bool]) -> f64 {
    assert_eq!(probabilities.len(), seen.len());
    probabilities
        .iter()
        .zip(seen)
        .filter(|(_, &s)| !s)
        .map(|(&p, _)| p)
        .sum()
}

/// The expected number of *distinct* instances found after `n` uniform samples,
/// `E[N(n)] = Σ_i 1 − (1 − p_i)^n` — the curve random sampling follows (Section
/// IV-A).
pub fn expected_distinct(probabilities: &[f64], n: u64) -> f64 {
    probabilities
        .iter()
        .map(|&p| 1.0 - (1.0 - p).powi(n as i32))
        .sum()
}

/// The upper bias bound of Eq. III.2 in its two forms: returns
/// `(max_i p_i, √N · (µ_p + σ_p))`.  The expected relative bias of `R̂` is
/// guaranteed to lie in `[0, min(of the two)]`… the paper states both forms because
/// either can be the tighter one depending on skew.
pub fn bias_bounds(probabilities: &[f64]) -> (f64, f64) {
    let n = probabilities.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let max_p = probabilities.iter().copied().fold(0.0, f64::max);
    let mean = probabilities.iter().sum::<f64>() / n as f64;
    let var = probabilities
        .iter()
        .map(|&p| (p - mean) * (p - mean))
        .sum::<f64>()
        / n as f64;
    let sigma = var.sqrt();
    (max_p, (n as f64).sqrt() * (mean + sigma))
}

/// The expected relative bias `E[R̂ − R] / E[R̂]` computed exactly from the true
/// probabilities:
///
/// `E[N1(n)/n − R(n+1)] = Σ_i p_i π_i(n)`, and `E[R̂] = Σ_i π_i(n)` (with
/// `π_i(n) = p_i (1−p_i)^{n−1}` for `n ≥ 1`).
///
/// Used by tests to verify the Eq. III.2 bounds really do bound the bias.
pub fn exact_relative_bias(probabilities: &[f64], n: u64) -> f64 {
    assert!(n > 0);
    let pi_n: Vec<f64> = probabilities.iter().map(|&p| pi_next(p, n - 1)).collect();
    let e_estimate: f64 = pi_n.iter().sum();
    if e_estimate == 0.0 {
        return 0.0;
    }
    let e_error: f64 = probabilities
        .iter()
        .zip(&pi_n)
        .map(|(&p, &pi)| p * pi)
        .sum();
    e_error / e_estimate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probabilities() -> Vec<f64> {
        vec![0.001, 0.002, 0.01, 0.05, 0.1, 0.0005]
    }

    #[test]
    fn point_estimate_basic() {
        assert_eq!(point_estimate(5, 0), None);
        assert_eq!(point_estimate(0, 10), Some(0.0));
        assert!((point_estimate(5, 100).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn variance_bound_shrinks_with_n() {
        assert!(variance_bound(0.1, 10) > variance_bound(0.1, 1000));
        assert!((variance_bound(0.2, 100) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn pi_next_decays_geometrically() {
        let p = 0.1;
        assert!((pi_next(p, 0) - 0.1).abs() < 1e-12);
        assert!((pi_next(p, 1) - 0.09).abs() < 1e-12);
        assert!(pi_next(p, 100) < pi_next(p, 10));
    }

    #[test]
    fn expected_r_decreases_with_samples() {
        let ps = probabilities();
        let r0 = expected_r_next(&ps, 0);
        let r100 = expected_r_next(&ps, 100);
        let r1000 = expected_r_next(&ps, 1000);
        assert!(r0 > r100 && r100 > r1000);
        // Before any samples, R(1) is just the sum of probabilities.
        assert!((r0 - ps.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn realized_r_excludes_seen_instances() {
        let ps = probabilities();
        let mut seen = vec![false; ps.len()];
        let all = realized_r_next(&ps, &seen);
        assert!((all - ps.iter().sum::<f64>()).abs() < 1e-12);
        seen[4] = true; // remove the 0.1 instance
        let rest = realized_r_next(&ps, &seen);
        assert!((all - rest - 0.1).abs() < 1e-12);
        let everything_seen = vec![true; ps.len()];
        assert_eq!(realized_r_next(&ps, &everything_seen), 0.0);
    }

    #[test]
    fn expected_n1_rises_then_falls() {
        // With a single instance of probability p, E[N1(n)] = n p (1-p)^(n-1),
        // which peaks near n = 1/p and then decays.
        let ps = vec![0.01];
        let early = expected_n1(&ps, 10);
        let peak = expected_n1(&ps, 100);
        let late = expected_n1(&ps, 2_000);
        assert!(peak > early);
        assert!(peak > late);
        assert_eq!(expected_n1(&ps, 0), 0.0);
    }

    #[test]
    fn expected_distinct_saturates_at_instance_count() {
        let ps = probabilities();
        let n_inf = expected_distinct(&ps, 1_000_000);
        assert!((n_inf - ps.len() as f64).abs() < 1e-6);
        assert!(expected_distinct(&ps, 10) < expected_distinct(&ps, 100));
        assert_eq!(expected_distinct(&ps, 0), 0.0);
    }

    #[test]
    fn bias_is_positive_and_bounded_by_eq_iii_2() {
        let ps = probabilities();
        let (max_p, sqrtn_bound) = bias_bounds(&ps);
        for n in [1u64, 5, 20, 100, 1_000, 10_000] {
            let bias = exact_relative_bias(&ps, n);
            assert!(bias >= -1e-15, "bias must be non-negative (n = {n})");
            assert!(
                bias <= max_p + 1e-12,
                "max_p bound violated at n = {n}: {bias} > {max_p}"
            );
            assert!(
                bias <= sqrtn_bound + 1e-12,
                "sqrt-N bound violated at n = {n}: {bias} > {sqrtn_bound}"
            );
        }
    }

    #[test]
    fn bias_bounds_of_empty_input() {
        assert_eq!(bias_bounds(&[]), (0.0, 0.0));
    }

    #[test]
    fn estimator_tracks_expectation_identity() {
        // E[N1(n)] / n should equal E[R(n+1)] + E[error]; verify the identity
        // E[N1(n)/n] - E[R(n+1)] = Σ p π(n) from the proof of Eq. III.2.
        let ps = probabilities();
        for n in [1u64, 10, 50, 500] {
            let lhs = expected_n1(&ps, n) / n as f64 - expected_r_next(&ps, n);
            let rhs: f64 = ps.iter().map(|&p| p * pi_next(p, n - 1)).sum();
            assert!((lhs - rhs).abs() < 1e-10, "identity failed at n = {n}");
        }
    }

    /// The expectation `E[R(n+1)] = Σ_i π_i(n+1)` over all instances — the quantity the
    /// estimator tries to track, computable only with knowledge of the true `p_i`.
    /// The reference the Eq. III bound tests compare against.
    fn expected_r_next(probabilities: &[f64], n: u64) -> f64 {
        probabilities.iter().map(|&p| pi_next(p, n)).sum()
    }

    /// The expectation `E[N1(n)] = Σ_i n · p_i (1 − p_i)^{n−1}` of the number of
    /// instances seen exactly once after `n` samples.  A test reference, like
    /// [`expected_r_next`].
    fn expected_n1(probabilities: &[f64], n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        probabilities
            .iter()
            .map(|&p| n as f64 * p * (1.0 - p).powi((n - 1) as i32))
            .sum()
    }
}
