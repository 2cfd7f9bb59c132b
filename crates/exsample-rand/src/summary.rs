//! Summary statistics over experiment trials.
//!
//! The paper reports medians, 25–75 percentile bands (Figure 3), geometric means of
//! savings ratios (Section V-C: "geometric mean of savings overall is 1.9"), and
//! percentiles over query collections (".9 percentile over the 100 bars is 3.7x").
//! This module provides the small statistics toolkit those aggregations need.

/// Accumulates a set of `f64` observations and answers summary queries.
///
/// Observations are stored (not streamed) because experiments need exact
/// percentiles; the largest collections in this workspace are a few hundred
/// thousand values, which is negligible memory.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Create a summary from an existing vector of observations.
    pub fn from_values(values: Vec<f64>) -> Self {
        Summary {
            values,
            sorted: false,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Minimum observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Percentile by linear interpolation between closest ranks.
    ///
    /// `q` is in `[0, 1]`; `q = 0.5` is the median.  Returns 0 for an empty summary.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "percentile level must be in [0, 1]"
        );
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN observation in Summary"));
            self.sorted = true;
        }
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let rank = q * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let weight = rank - lo as f64;
        self.values[lo] * (1.0 - weight) + self.values[hi] * weight
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }
}

/// Geometric mean of a slice of positive values.
///
/// Used for the paper's headline "1.9x average savings" number, which is a
/// geometric mean over per-query savings ratios.  Non-positive values are skipped
/// (a savings ratio can never legitimately be <= 0).
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_set() {
        let s = Summary::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample (unbiased) variance of this classic set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = Summary::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(1.0) - 4.0).abs() < 1e-12);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.percentile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_single_value() {
        let mut s = Summary::from_values(vec![3.5]);
        assert_eq!(s.percentile(0.1), 3.5);
        assert_eq!(s.percentile(0.9), 3.5);
    }

    #[test]
    fn empty_summary_is_benign() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn push_invalidates_sort_order() {
        let mut s = Summary::new();
        s.push(5.0);
        s.push(1.0);
        assert!((s.median() - 3.0).abs() < 1e-12);
        s.push(100.0);
        assert!((s.median() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        // gm(2, 8) = 4
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // gm(1, 1, 1) = 1
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // zero / negative values are ignored
        assert!((geometric_mean(&[2.0, 8.0, 0.0, -3.0]) - 4.0).abs() < 1e-12);
        // all invalid -> 0
        assert_eq!(geometric_mean(&[0.0]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn min_max() {
        let s = Summary::from_values(vec![3.0, -1.0, 7.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
        // Empty summaries report 0, as documented (not +/- infinity).
        let empty = Summary::new();
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
    }

    /// The moments the distribution tests compare their draws against.
    impl Summary {
        /// Arithmetic mean. Returns 0 for an empty summary.
        pub(crate) fn mean(&self) -> f64 {
            if self.values.is_empty() {
                return 0.0;
            }
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }

        /// Unbiased sample variance. Returns 0 for fewer than two observations.
        pub(crate) fn variance(&self) -> f64 {
            if self.values.len() < 2 {
                return 0.0;
            }
            let mean = self.mean();
            let sum_sq: f64 = self.values.iter().map(|v| (v - mean) * (v - mean)).sum();
            sum_sq / (self.values.len() - 1) as f64
        }
    }
}
