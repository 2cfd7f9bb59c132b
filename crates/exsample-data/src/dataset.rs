//! The `Dataset` bundle consumed by query runners and experiments.

use exsample_detect::{GroundTruth, ObjectClass};
use exsample_video::{Chunking, VideoRepository};
use std::sync::Arc;

/// A fully materialised search workload: a simulated video repository, its chunk
/// partition, and the ground-truth object instances that live in it.
#[derive(Debug, Clone)]
pub struct Dataset {
    repository: VideoRepository,
    chunking: Chunking,
    ground_truth: Arc<GroundTruth>,
}

impl Dataset {
    /// Assemble a dataset.
    ///
    /// # Panics
    /// Panics if the ground truth's frame count disagrees with the repository.
    pub(crate) fn new(
        repository: VideoRepository,
        chunking: Chunking,
        ground_truth: Arc<GroundTruth>,
    ) -> Self {
        assert_eq!(
            repository.total_frames(),
            ground_truth.total_frames(),
            "ground truth and repository disagree on the total frame count"
        );
        Dataset {
            repository,
            chunking,
            ground_truth,
        }
    }

    /// The simulated video repository.
    pub fn repository(&self) -> &VideoRepository {
        &self.repository
    }

    /// The chunk partition used by ExSample on this dataset.
    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// The ground-truth instance set.
    pub fn ground_truth(&self) -> &Arc<GroundTruth> {
        &self.ground_truth
    }

    /// Total number of frames.
    pub fn total_frames(&self) -> u64 {
        self.repository.total_frames()
    }

    /// The lengths of every chunk, as needed to construct an ExSample sampler.
    pub fn chunk_lengths(&self) -> Vec<u64> {
        self.chunking.chunk_lengths()
    }

    /// The classes present in the ground truth.
    pub fn classes(&self) -> Vec<ObjectClass> {
        self.ground_truth.classes()
    }

    /// Number of ground-truth instances of `class`.
    pub fn instance_count(&self, class: &ObjectClass) -> usize {
        self.ground_truth.count_of_class(class)
    }

    /// Per-chunk instance counts for `class`: how many instances of the class have
    /// at least one visible frame in each chunk.  This is the histogram Figure 6
    /// plots and the input to the skew metric.
    pub fn instances_per_chunk(&self, class: &ObjectClass) -> Vec<usize> {
        self.chunking
            .chunks()
            .iter()
            .map(|chunk| {
                self.ground_truth
                    .count_in_range(class, chunk.start(), chunk.end())
            })
            .collect()
    }

    /// The per-instance hit probabilities `p_i` for `class` over the whole
    /// repository.
    pub fn hit_probabilities(&self, class: &ObjectClass) -> Vec<f64> {
        self.ground_truth.hit_probabilities(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_detect::ObjectInstance;
    use exsample_video::ChunkingPolicy;

    fn dataset() -> Dataset {
        let repo = VideoRepository::single_clip(1_000);
        let chunking = Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks: 4 });
        let truth = Arc::new(GroundTruth::from_instances(
            1_000,
            vec![
                ObjectInstance::simple(0, "car", 0, 99),
                ObjectInstance::simple(1, "car", 600, 899),
                ObjectInstance::simple(2, "bus", 240, 260),
            ],
        ));
        Dataset::new(repo, chunking, truth)
    }

    #[test]
    fn accessors() {
        let d = dataset();
        assert_eq!(d.total_frames(), 1_000);
        assert_eq!(d.chunk_lengths(), vec![250, 250, 250, 250]);
        assert_eq!(d.classes().len(), 2);
        assert_eq!(d.instance_count(&ObjectClass::from("car")), 2);
    }

    #[test]
    fn instances_per_chunk_counts_overlaps() {
        let d = dataset();
        let car = ObjectClass::from("car");
        // Instance 0 in chunk 0; instance 1 spans chunks 2 and 3.
        assert_eq!(d.instances_per_chunk(&car), vec![1, 0, 1, 1]);
        // The bus instance (frames 240-260) straddles the chunk 0 / chunk 1 border.
        let bus = ObjectClass::from("bus");
        assert_eq!(d.instances_per_chunk(&bus), vec![1, 1, 0, 0]);
    }

    #[test]
    fn hit_probabilities_match_durations() {
        let d = dataset();
        let probs = d.hit_probabilities(&ObjectClass::from("car"));
        assert_eq!(probs.len(), 2);
        assert!((probs[0] - 0.1).abs() < 1e-12);
        assert!((probs[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "disagree on the total frame count")]
    fn mismatched_truth_panics() {
        let repo = VideoRepository::single_clip(1_000);
        let chunking = Chunking::new(&repo, ChunkingPolicy::PerClip);
        let truth = Arc::new(GroundTruth::new(500));
        let _ = Dataset::new(repo, chunking, truth);
    }
}
