//! The independent-occurrence workload of the Figure 2 validation experiment.
//!
//! Section III-D validates the estimator with a purely probabilistic model: there
//! are `N` instances, instance `i` appears in any sampled frame independently with
//! probability `p_i`, and the `p_i` are drawn from a LogNormal to create realistic
//! skew (the paper's run has 1000 instances with `min p = 3e-6`, `max p = 0.15`,
//! `µ_p = 3e-3`, `σ_p = 8e-3` over a 1-million-frame, ~10 hour dataset).  This
//! module reproduces that model: it generates the `p_i` and simulates frame samples
//! as independent coin tosses.

use exsample_rand::{LogNormal, Sampler};
use rand::Rng;

/// A workload in which instances appear independently per sampled frame.
#[derive(Debug, Clone)]
pub struct IndependentWorkload {
    probabilities: Vec<f64>,
}

impl IndependentWorkload {
    /// Generate `instances` probabilities from a LogNormal in probability space,
    /// reproducing the paper's skewed `p_i` (Section III-D).
    ///
    /// `median_p` is the median hit probability and `sigma` the log-space standard
    /// deviation; the paper's configuration corresponds roughly to
    /// `median_p = 6e-4`, `sigma = 1.75` over 1000 instances (giving a mean near
    /// `3e-3` and a standard deviation near `8e-3`).  Probabilities are capped at
    /// 0.5 so no instance is found in essentially every frame.
    pub(crate) fn generate<R: Rng + ?Sized>(
        instances: usize,
        median_p: f64,
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        assert!(instances > 0, "need at least one instance");
        assert!(
            median_p > 0.0 && median_p < 1.0,
            "median probability must be in (0, 1)"
        );
        let dist = LogNormal::new(median_p.ln(), sigma).expect("validated parameters");
        let probabilities = (0..instances).map(|_| dist.sample(rng).min(0.5)).collect();
        IndependentWorkload { probabilities }
    }

    /// Generate the paper's Figure 2 configuration: 1000 instances whose `p_i` span
    /// roughly `3e-6` to `0.15` with mean `~3e-3`.
    pub fn paper_figure2<R: Rng + ?Sized>(rng: &mut R) -> Self {
        IndependentWorkload::generate(1_000, 6e-4, 1.75, rng)
    }

    /// The per-instance hit probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// Whether the workload has no instances.
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// Mean of the `p_i` (the paper's `µ_p`).
    pub fn mean_p(&self) -> f64 {
        if self.probabilities.is_empty() {
            return 0.0;
        }
        self.probabilities.iter().sum::<f64>() / self.probabilities.len() as f64
    }

    /// Standard deviation of the `p_i` (the paper's `σ_p`).
    pub fn sigma_p(&self) -> f64 {
        if self.probabilities.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_p();
        let var = self
            .probabilities
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            / self.probabilities.len() as f64;
        var.sqrt()
    }

    /// Largest hit probability (the paper's `max p_i`).
    pub fn max_p(&self) -> f64 {
        self.probabilities.iter().copied().fold(0.0, f64::max)
    }

    /// Simulate sampling one frame: each instance appears independently with its
    /// own probability.  Returns the indices of the instances visible in the frame.
    pub fn sample_frame<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        self.probabilities
            .iter()
            .enumerate()
            .filter(|(_, &p)| rng.gen::<f64>() < p)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(probabilities: Vec<f64>) -> IndependentWorkload {
        IndependentWorkload { probabilities }
    }

    #[test]
    fn explicit_probabilities_round_trip() {
        let w = workload(vec![0.1, 0.01, 0.5]);
        assert_eq!(w.len(), 3);
        assert!((w.max_p() - 0.5).abs() < 1e-12);
        assert!((w.mean_p() - 0.61 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "median probability must be in (0, 1)")]
    fn invalid_probability_panics() {
        let mut rng = StdRng::seed_from_u64(200);
        let _ = IndependentWorkload::generate(10, 1.5, 1.0, &mut rng);
    }

    #[test]
    fn generated_workload_is_skewed_like_the_paper() {
        let mut rng = StdRng::seed_from_u64(201);
        let w = IndependentWorkload::paper_figure2(&mut rng);
        assert_eq!(w.len(), 1_000);
        // Orders of magnitude as described in Section III-D: mean of a few 1e-3,
        // sigma within an order of magnitude of 8e-3, max well above the mean.
        assert!(
            w.mean_p() > 5e-4 && w.mean_p() < 2e-2,
            "mean_p {}",
            w.mean_p()
        );
        assert!(
            w.sigma_p() > 1e-3 && w.sigma_p() < 5e-2,
            "sigma_p {}",
            w.sigma_p()
        );
        assert!(
            w.max_p() > 10.0 * w.mean_p(),
            "max_p {} mean_p {}",
            w.max_p(),
            w.mean_p()
        );
        assert!(w.probabilities().iter().all(|&p| p > 0.0 && p <= 0.5));
    }

    #[test]
    fn sample_frame_hits_instances_at_their_rate() {
        let w = workload(vec![0.5, 0.01]);
        let mut rng = StdRng::seed_from_u64(202);
        let trials = 20_000;
        let mut hits = [0u32; 2];
        for _ in 0..trials {
            for idx in w.sample_frame(&mut rng) {
                hits[idx] += 1;
            }
        }
        let rate0 = f64::from(hits[0]) / trials as f64;
        let rate1 = f64::from(hits[1]) / trials as f64;
        assert!((rate0 - 0.5).abs() < 0.02, "rate0 {rate0}");
        assert!((rate1 - 0.01).abs() < 0.005, "rate1 {rate1}");
    }

    #[test]
    fn zero_probability_instance_never_appears() {
        let w = workload(vec![0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(203);
        for _ in 0..100 {
            let visible = w.sample_frame(&mut rng);
            assert_eq!(visible, vec![1]);
        }
    }
}
