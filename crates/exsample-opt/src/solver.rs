//! Projected gradient ascent for the Eq. IV.1 allocation problem.

use crate::objective::{expected_found, gradient, InstanceChunkProbabilities};
use crate::simplex::project_to_simplex;

/// Options controlling the projected-gradient solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum number of gradient iterations.
    pub max_iterations: usize,
    /// Stop when the objective improves by less than this (absolute) amount.
    pub tolerance: f64,
    /// Initial step size (adapted multiplicatively during the run).
    pub initial_step: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 500,
            tolerance: 1e-9,
            initial_step: 1.0,
        }
    }
}

/// The result of solving Eq. IV.1 for a fixed sample budget `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalAllocation {
    /// The optimal chunk weights (a point on the probability simplex).
    pub weights: Vec<f64>,
    /// The expected number of distinct instances found with those weights.
    pub expected_found: f64,
    /// Number of iterations the solver used.
    pub iterations: usize,
}

/// Solve Eq. IV.1: find chunk weights maximising the expected number of distinct
/// instances found after `n` samples.
///
/// The objective is concave on the simplex (each term `1 − (1 − p·w)^n` is concave
/// in `w`), so projected gradient ascent with a backtracking step converges to the
/// global optimum.
///
/// # Panics
/// Panics if the probability matrix has no chunks or `n == 0`.
pub fn optimal_weights(
    probs: &InstanceChunkProbabilities,
    n: u64,
    options: SolverOptions,
) -> OptimalAllocation {
    assert!(n > 0, "the sample budget must be positive");
    let chunks = probs.chunks();
    // Start from the uniform allocation (what random sampling uses).
    let mut weights = vec![1.0 / chunks as f64; chunks];
    let mut value = expected_found(probs, &weights, n);
    let mut step = options.initial_step;
    let mut iterations = 0;

    for _ in 0..options.max_iterations {
        iterations += 1;
        let grad = gradient(probs, &weights, n);
        // Normalise the gradient so the step size is scale-free across problems.
        let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if norm == 0.0 {
            break;
        }
        // Backtracking line search on the projected step.
        let mut improved = false;
        while step > 1e-12 {
            let candidate: Vec<f64> = weights
                .iter()
                .zip(&grad)
                .map(|(w, g)| w + step * g / norm)
                .collect();
            let candidate = project_to_simplex(&candidate);
            let candidate_value = expected_found(probs, &candidate, n);
            if candidate_value > value {
                // Accept and gently expand the step for the next iteration.
                weights = candidate;
                let gain = candidate_value - value;
                value = candidate_value;
                step *= 1.5;
                improved = true;
                if gain < options.tolerance {
                    return OptimalAllocation {
                        weights,
                        expected_found: value,
                        iterations,
                    };
                }
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
    }

    OptimalAllocation {
        weights,
        expected_found: value,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two chunks; all instances in chunk 0.
    fn one_sided() -> InstanceChunkProbabilities {
        InstanceChunkProbabilities::new(vec![vec![0.01, 0.0]; 50], 2)
    }

    /// Uniform spread: every instance equally likely in every chunk.
    fn uniform_spread() -> InstanceChunkProbabilities {
        InstanceChunkProbabilities::new(vec![vec![0.01, 0.01, 0.01, 0.01]; 40], 4)
    }

    #[test]
    fn all_mass_goes_to_the_only_productive_chunk() {
        let alloc = optimal_weights(&one_sided(), 200, SolverOptions::default());
        assert!(alloc.weights[0] > 0.99, "weights {:?}", alloc.weights);
        assert!((alloc.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // And it beats the uniform allocation.
        let uniform_value = expected_found(&one_sided(), &[0.5, 0.5], 200);
        assert!(alloc.expected_found > uniform_value);
    }

    #[test]
    fn uniform_data_keeps_uniform_weights() {
        let alloc = optimal_weights(&uniform_spread(), 300, SolverOptions::default());
        for &w in &alloc.weights {
            assert!((w - 0.25).abs() < 0.02, "weights {:?}", alloc.weights);
        }
    }

    #[test]
    fn skewed_data_beats_uniform_allocation_substantially() {
        // 90% of instances in chunk 0, 10% in chunk 1, durations equal.
        let mut rows = vec![vec![0.02, 0.0]; 90];
        rows.extend(vec![vec![0.0, 0.02]; 10]);
        let probs = InstanceChunkProbabilities::new(rows, 2);
        let n = 150;
        let optimal = optimal_weights(&probs, n, SolverOptions::default());
        let uniform = expected_found(&probs, &[0.5, 0.5], n);
        assert!(
            optimal.expected_found > uniform * 1.08,
            "optimal {} vs uniform {uniform}",
            optimal.expected_found
        );
        // Most weight on the chunk with most instances.
        assert!(optimal.weights[0] > 0.6, "weights {:?}", optimal.weights);
    }

    #[test]
    fn optimal_weights_depend_on_budget() {
        // With a tiny budget the solver should chase the dense chunk; with a huge
        // budget the dense chunk saturates and the rare chunk earns weight.
        let mut rows = vec![vec![0.05, 0.0]; 20];
        rows.extend(vec![vec![0.0, 0.001]; 20]);
        let probs = InstanceChunkProbabilities::new(rows, 2);
        let small = optimal_weights(&probs, 20, SolverOptions::default());
        let large = optimal_weights(&probs, 20_000, SolverOptions::default());
        assert!(
            large.weights[1] > small.weights[1],
            "rare chunk weight should grow with the budget: {:?} -> {:?}",
            small.weights,
            large.weights
        );
    }

    #[test]
    fn curve_is_monotone_in_budget() {
        let probs = uniform_spread();
        // The optimal weights depend on `n`, so each budget is solved afresh.
        let found: Vec<f64> = [10, 100, 1_000]
            .iter()
            .map(|&n| optimal_weights(&probs, n, SolverOptions::default()).expected_found)
            .collect();
        assert!(found[0] < found[1] && found[1] < found[2]);
    }

    #[test]
    fn solver_never_leaves_the_simplex() {
        let alloc = optimal_weights(&one_sided(), 1_000, SolverOptions::default());
        assert!(alloc.weights.iter().all(|&w| w >= 0.0));
        assert!((alloc.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(alloc.iterations >= 1);
    }

    #[test]
    #[should_panic(expected = "sample budget")]
    fn zero_budget_panics() {
        let _ = optimal_weights(&one_sided(), 0, SolverOptions::default());
    }
}
