//! Uniform random and `random+` sampling over the whole repository.
//!
//! Uniform random sampling without replacement is the paper's efficient baseline:
//! "iteratively process frames uniformly sampled from the video repository (without
//! replacement)".  `random+` (Section III-F) additionally avoids sampling
//! temporally close to previous samples and is both evaluated as a separate
//! baseline and used inside ExSample's chunks.

use crate::method::SamplingMethod;
use exsample_track::MatchOutcome;
use exsample_video::{FrameId, FrameSampler, UniformSampler};
use rand::RngCore;

/// Uniform random sampling without replacement over `0..total_frames`.
#[derive(Debug, Clone)]
pub struct RandomSampler {
    inner: UniformSampler,
}

impl RandomSampler {
    /// Create a sampler over a repository of `total_frames` frames.
    pub fn new(total_frames: u64) -> Self {
        RandomSampler {
            inner: UniformSampler::new(total_frames),
        }
    }
}

impl SamplingMethod for RandomSampler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_frame(&mut self, rng: &mut dyn RngCore) -> Option<FrameId> {
        self.inner.next_frame(rng)
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}
}

/// `random+` sampling over the whole repository (Section III-F).
#[derive(Debug, Clone)]
pub struct RandomPlusSampler {
    inner: exsample_video::RandomPlusSampler,
}

impl RandomPlusSampler {
    /// Create a sampler over a repository of `total_frames` frames.
    pub fn new(total_frames: u64) -> Self {
        RandomPlusSampler {
            inner: exsample_video::RandomPlusSampler::new(total_frames),
        }
    }
}

impl SamplingMethod for RandomPlusSampler {
    fn name(&self) -> &'static str {
        "random+"
    }

    fn next_frame(&mut self, rng: &mut dyn RngCore) -> Option<FrameId> {
        self.inner.next_frame(rng)
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn random_covers_repository_without_repeats() {
        let mut method = RandomSampler::new(500);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        while let Some(f) = method.next_frame(&mut rng) {
            assert!(f < 500);
            assert!(seen.insert(f));
        }
        assert_eq!(seen.len(), 500);
        assert_eq!(method.inner.remaining(), 0);
    }

    #[test]
    fn random_plus_covers_repository_without_repeats() {
        let mut method = RandomPlusSampler::new(333);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = HashSet::new();
        while let Some(f) = method.next_frame(&mut rng) {
            assert!(f < 333);
            assert!(seen.insert(f));
        }
        assert_eq!(seen.len(), 333);
    }

    #[test]
    fn names_and_costs() {
        assert_eq!(RandomSampler::new(10).name(), "random");
        assert_eq!(RandomPlusSampler::new(10).name(), "random+");
        assert_eq!(RandomSampler::new(10).upfront_scan_frames(), 0);
        assert_eq!(RandomPlusSampler::new(10).upfront_scan_frames(), 0);
    }

    #[test]
    fn feedback_is_ignored_without_effect() {
        let mut method = RandomSampler::new(50);
        let mut rng = StdRng::seed_from_u64(3);
        let before = method.inner.remaining();
        method.record(7, &MatchOutcome::default());
        assert_eq!(method.inner.remaining(), before);
        let _ = method.next_frame(&mut rng);
        assert_eq!(method.inner.remaining(), before - 1);
    }
}
