//! Placement helpers that create (and measure) instance skew across chunks.
//!
//! Section IV-B identifies *instance skew* — how unevenly instances are spread over
//! the dataset — as the key data property governing ExSample's gains.  Figure 6
//! summarises each query's skew with a single number `S`, defined from the minimum
//! set of chunks that covers half the instances.  This module provides:
//!
//! * the skew metric `S` itself ([`skew_metric`]);
//! * Gaussian temporal placement used by the Figure 3 grid (`normal_center`);
//! * a "hot chunk" weight profile that produces a target skew `S`
//!   (`hot_chunk_weights`), used when synthesising the real-dataset analogs.

use exsample_rand::{Normal, Sampler};
use rand::Rng;

/// The paper's skew metric `S`.
///
/// Let `k` be the smallest number of chunks whose instance counts sum to at least
/// half of all instances (the blue bars of Figure 6), and `M` the number of chunks.
/// Then `S = 0.5 · M / k`: a perfectly uniform spread needs half the chunks
/// (`k = M/2`, `S = 1`), while a query whose instances are concentrated in a few
/// chunks gets a large `S` (e.g. dashcam/bicycle has `S ≈ 14`).
///
/// Returns 0 for an empty histogram or one with no instances.
pub fn skew_metric(instances_per_chunk: &[usize]) -> f64 {
    let total: usize = instances_per_chunk.iter().sum();
    if total == 0 || instances_per_chunk.is_empty() {
        return 0.0;
    }
    let mut counts: Vec<usize> = instances_per_chunk.to_vec();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let half = total.div_ceil(2);
    let mut covered = 0usize;
    let mut k = 0usize;
    for c in counts {
        covered += c;
        k += 1;
        if covered >= half {
            break;
        }
    }
    0.5 * instances_per_chunk.len() as f64 / k as f64
}

/// Draw an instance's centre frame from a Normal centred in the dataset whose
/// spread is chosen so that ~95 % of instances fall within the central
/// `concentration` fraction of the frame axis (the Figure 3 construction).
///
/// `concentration = 1.0` (or anything ≥ 1) means no skew and falls back to a
/// uniform draw.  The result is clamped to `[0, total_frames)`.
pub(crate) fn normal_center<R: Rng + ?Sized>(
    total_frames: u64,
    concentration: f64,
    rng: &mut R,
) -> u64 {
    assert!(total_frames > 0);
    assert!(concentration > 0.0, "concentration must be positive");
    if concentration >= 1.0 {
        return rng.gen_range(0..total_frames);
    }
    let mid = total_frames as f64 / 2.0;
    // 95% of a Normal lies within ±1.96 sigma; we want that to span the central
    // `concentration` fraction of the dataset.
    let sigma = concentration * total_frames as f64 / (2.0 * 1.96);
    let normal = Normal::new(mid, sigma).expect("sigma positive");
    let drawn = normal.sample(rng);
    drawn.clamp(0.0, (total_frames - 1) as f64) as u64
}

/// Chunk-selection weights that realise a target skew `S` with a simple
/// "hot fraction" profile: half of the instances land uniformly in the hottest
/// `M / (2S)` chunks, the other half uniformly across the remaining chunks.
///
/// With that split the minimum chunk set covering half the mass is exactly the hot
/// set, so the expected [`skew_metric`] equals the target (up to rounding of the
/// hot-chunk count).  `S = 1` degenerates to uniform weights.
pub(crate) fn hot_chunk_weights(num_chunks: usize, target_skew: f64) -> Vec<f64> {
    assert!(num_chunks > 0);
    assert!(target_skew >= 1.0, "skew below 1 is not meaningful");
    let hot_chunks = ((num_chunks as f64 / (2.0 * target_skew)).round() as usize)
        .clamp(1, num_chunks / 2 + num_chunks % 2);
    if hot_chunks >= num_chunks {
        return vec![1.0 / num_chunks as f64; num_chunks];
    }
    let hot_weight = 0.5 / hot_chunks as f64;
    let cold_weight = 0.5 / (num_chunks - hot_chunks) as f64;
    let mut weights = vec![cold_weight; num_chunks];
    for w in weights.iter_mut().take(hot_chunks) {
        *w = hot_weight;
    }
    // Normalise exactly (guards against rounding drift).
    let sum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    weights
}

/// Sample an index according to a (normalised) weight vector.
pub(crate) fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skew_metric_uniform_is_one() {
        let counts = vec![10usize; 64];
        assert!((skew_metric(&counts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_metric_concentrated() {
        // All instances in one of 64 chunks: k = 1, S = 32.
        let mut counts = vec![0usize; 64];
        counts[10] = 100;
        assert!((skew_metric(&counts) - 32.0).abs() < 1e-12);
        // Half the instances in one chunk, half spread out: k = 1 still covers half.
        let mut counts = vec![1usize; 64];
        counts[0] = 64;
        assert!(skew_metric(&counts) > 10.0);
    }

    #[test]
    fn skew_metric_empty_inputs() {
        assert_eq!(skew_metric(&[]), 0.0);
        assert_eq!(skew_metric(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn normal_center_concentrates_mass() {
        let mut rng = StdRng::seed_from_u64(301);
        let total = 1_000_000u64;
        let concentration = 1.0 / 32.0;
        let mut inside = 0;
        let trials = 5_000;
        for _ in 0..trials {
            let c = normal_center(total, concentration, &mut rng);
            let lo = total / 2 - total / 64;
            let hi = total / 2 + total / 64;
            if c >= lo && c < hi {
                inside += 1;
            }
        }
        let frac = inside as f64 / trials as f64;
        assert!(
            (frac - 0.95).abs() < 0.03,
            "fraction inside central band: {frac}"
        );
    }

    #[test]
    fn normal_center_uniform_when_no_skew() {
        let mut rng = StdRng::seed_from_u64(302);
        let total = 100_000u64;
        let mut first_half = 0;
        for _ in 0..10_000 {
            if normal_center(total, 1.0, &mut rng) < total / 2 {
                first_half += 1;
            }
        }
        assert!((first_half as f64 / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn hot_chunk_weights_sum_to_one_and_realise_skew() {
        let mut rng = StdRng::seed_from_u64(303);
        for &target in &[1.0, 2.0, 4.0, 14.0, 25.0] {
            let weights = hot_chunk_weights(128, target);
            assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // Generate instance counts from the weights and measure realised skew.
            let mut counts = vec![0usize; 128];
            for _ in 0..20_000 {
                counts[sample_weighted(&weights, &mut rng)] += 1;
            }
            let realised = skew_metric(&counts);
            if target == 1.0 {
                assert!(realised < 1.3, "target 1, realised {realised}");
            } else {
                assert!(
                    realised > target * 0.5 && realised < target * 1.6,
                    "target {target}, realised {realised}"
                );
            }
        }
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = StdRng::seed_from_u64(304);
        let weights = vec![0.1, 0.7, 0.2];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[sample_weighted(&weights, &mut rng)] += 1;
        }
        assert!((f64::from(counts[1]) / 10_000.0 - 0.7).abs() < 0.03);
        assert!((f64::from(counts[0]) / 10_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "skew below 1")]
    fn sub_one_skew_panics() {
        let _ = hot_chunk_weights(10, 0.5);
    }
}
