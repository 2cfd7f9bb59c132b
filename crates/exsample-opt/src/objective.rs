//! The Eq. IV.1 objective: expected distinct instances found under a fixed
//! chunk-weight allocation.

/// Per-instance, per-chunk conditional hit probabilities.
///
/// Entry `(i, j)` is the probability of seeing instance `i` when sampling one frame
/// uniformly from chunk `j` — i.e. the number of the instance's visible frames that
/// fall inside chunk `j`, divided by the chunk's length.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceChunkProbabilities {
    chunks: usize,
    /// Row-major `instances x chunks` matrix.
    rows: Vec<Vec<f64>>,
}

impl InstanceChunkProbabilities {
    /// Create a matrix from per-instance rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths or contain values outside `[0, 1]`.
    pub fn new(rows: Vec<Vec<f64>>, chunks: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        for row in &rows {
            assert_eq!(
                row.len(),
                chunks,
                "every instance needs one probability per chunk"
            );
            assert!(
                row.iter().all(|p| (0.0..=1.0).contains(p)),
                "probabilities must lie in [0, 1]"
            );
        }
        InstanceChunkProbabilities { chunks, rows }
    }

    /// Build the matrix from instance frame intervals and chunk boundaries.
    ///
    /// `instances` are `(first_frame, last_frame)` inclusive intervals; `chunks` are
    /// `(start, end)` half-open global frame ranges covering the repository.
    pub fn from_intervals(instances: &[(u64, u64)], chunks: &[(u64, u64)]) -> Self {
        assert!(!chunks.is_empty());
        let rows = instances
            .iter()
            .map(|&(first, last)| {
                assert!(last >= first, "instance interval is inverted");
                chunks
                    .iter()
                    .map(|&(start, end)| {
                        assert!(end > start, "chunk range is empty");
                        let overlap_start = first.max(start);
                        let overlap_end = (last + 1).min(end);
                        let overlap = overlap_end.saturating_sub(overlap_start);
                        overlap as f64 / (end - start) as f64
                    })
                    .collect()
            })
            .collect();
        InstanceChunkProbabilities::new(rows, chunks.len())
    }

    /// Number of instances.
    pub(crate) fn instances(&self) -> usize {
        self.rows.len()
    }

    /// Number of chunks.
    pub(crate) fn chunks(&self) -> usize {
        self.chunks
    }

    /// The row for instance `i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// The probability of seeing instance `i` in one sample drawn with chunk
    /// weights `w`: the dot product `p_i · w`.
    pub(crate) fn hit_probability(&self, i: usize, weights: &[f64]) -> f64 {
        self.rows[i]
            .iter()
            .zip(weights)
            .map(|(p, w)| p * w)
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }
}

/// The Eq. IV.1 objective: expected number of distinct instances found after `n`
/// samples allocated with weights `w`.
pub fn expected_found(probs: &InstanceChunkProbabilities, weights: &[f64], n: u64) -> f64 {
    assert_eq!(
        weights.len(),
        probs.chunks(),
        "weight vector has wrong length"
    );
    (0..probs.instances())
        .map(|i| {
            let hit = probs.hit_probability(i, weights);
            1.0 - (1.0 - hit).powi(n as i32)
        })
        .sum()
}

/// Gradient of [`expected_found`] with respect to the weights:
/// `∂/∂w_j = Σ_i n · p_ij · (1 − p_i·w)^{n−1}`.
pub(crate) fn gradient(probs: &InstanceChunkProbabilities, weights: &[f64], n: u64) -> Vec<f64> {
    assert_eq!(weights.len(), probs.chunks());
    let mut grad = vec![0.0; probs.chunks()];
    for i in 0..probs.instances() {
        let hit = probs.hit_probability(i, weights);
        let factor = n as f64 * (1.0 - hit).powi((n.saturating_sub(1)) as i32);
        for (g, &p) in grad.iter_mut().zip(probs.row(i)) {
            *g += factor * p;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_chunk_probs() -> InstanceChunkProbabilities {
        // Three instances: two only in chunk 0, one only in chunk 1.
        InstanceChunkProbabilities::new(vec![vec![0.01, 0.0], vec![0.02, 0.0], vec![0.0, 0.05]], 2)
    }

    #[test]
    fn from_intervals_computes_conditional_probabilities() {
        // Chunks of 100 frames each; instance spans frames 50..=149 (50 frames in
        // each chunk).
        let probs =
            InstanceChunkProbabilities::from_intervals(&[(50, 149)], &[(0, 100), (100, 200)]);
        assert_eq!(probs.instances(), 1);
        assert!((probs.row(0)[0] - 0.5).abs() < 1e-12);
        assert!((probs.row(0)[1] - 0.5).abs() < 1e-12);
        // An instance entirely inside chunk 1.
        let probs =
            InstanceChunkProbabilities::from_intervals(&[(120, 139)], &[(0, 100), (100, 200)]);
        assert_eq!(probs.row(0)[0], 0.0);
        assert!((probs.row(0)[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn expected_found_monotone_in_samples() {
        let probs = two_chunk_probs();
        let w = vec![0.5, 0.5];
        assert!(expected_found(&probs, &w, 100) < expected_found(&probs, &w, 1_000));
        assert!(expected_found(&probs, &w, 0) == 0.0);
        // Saturates at the instance count.
        assert!(expected_found(&probs, &w, 10_000_000) <= 3.0 + 1e-9);
    }

    #[test]
    fn better_weights_find_more() {
        let probs = two_chunk_probs();
        // Chunk 0 has two (rarer) instances, chunk 1 one more common instance; a
        // lopsided allocation toward chunk 1 wastes samples once its instance is
        // found.
        let balanced = expected_found(&probs, &[0.6, 0.4], 200);
        let lopsided = expected_found(&probs, &[0.0, 1.0], 200);
        assert!(balanced > lopsided);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let probs = two_chunk_probs();
        let w = vec![0.3, 0.7];
        let n = 50;
        let grad = gradient(&probs, &w, n);
        let eps = 1e-6;
        for j in 0..2 {
            let mut w_hi = w.clone();
            w_hi[j] += eps;
            let mut w_lo = w.clone();
            w_lo[j] -= eps;
            let fd =
                (expected_found(&probs, &w_hi, n) - expected_found(&probs, &w_lo, n)) / (2.0 * eps);
            assert!(
                (grad[j] - fd).abs() < 1e-4,
                "gradient component {j}: analytic {} vs fd {fd}",
                grad[j]
            );
        }
    }

    #[test]
    fn hit_probability_is_dot_product() {
        let probs = two_chunk_probs();
        assert!((probs.hit_probability(0, &[1.0, 0.0]) - 0.01).abs() < 1e-12);
        assert!((probs.hit_probability(2, &[0.5, 0.5]) - 0.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one probability per chunk")]
    fn ragged_rows_panic() {
        let _ = InstanceChunkProbabilities::new(vec![vec![0.1, 0.2], vec![0.3]], 2);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn out_of_range_probability_panics() {
        let _ = InstanceChunkProbabilities::new(vec![vec![1.5, 0.0]], 2);
    }
}
