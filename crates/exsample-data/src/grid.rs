//! The Figure 3 / Figure 4 simulation workload.
//!
//! Section IV-B fixes 2000 instances in a 16-million-frame repository, places their
//! centres according to a Normal distribution whose spread controls the *instance
//! skew* (none, or 95 % of instances in the central 1/4, 1/32, 1/256 of frames),
//! draws their durations from a LogNormal with a target mean (14, 100, 700 or 4900
//! frames), and splits the repository into 128 chunks (Figure 4 varies this from
//! 1 to 1024).  [`GridWorkload`] reproduces that construction and materialises it
//! as a [`Dataset`].

use crate::dataset::Dataset;
use crate::skewgen;
use exsample_detect::{BBox, GroundTruth, InstanceId, ObjectClass, ObjectInstance};
use exsample_rand::{LogNormal, Sampler, SeedSequence};
use exsample_video::{Chunking, ChunkingPolicy, VideoRepository};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The instance-skew settings of Figure 3's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkewLevel {
    /// No skew: instance centres are uniform over the frame axis.
    None,
    /// 95 % of instances in the central 1/4 of the dataset.
    Quarter,
    /// 95 % of instances in the central 1/32 of the dataset.
    ThirtySecond,
    /// 95 % of instances in the central 1/256 of the dataset.
    TwoFiftySixth,
    /// 95 % of instances in the central `1/fraction_inverse` of the dataset.
    Custom {
        /// The denominator of the concentration fraction (e.g. 32 means the central
        /// 1/32 of frames).
        fraction_inverse: f64,
    },
}

impl SkewLevel {
    /// The concentration fraction (`1.0` means no skew).
    pub(crate) fn concentration(&self) -> f64 {
        match self {
            SkewLevel::None => 1.0,
            SkewLevel::Quarter => 1.0 / 4.0,
            SkewLevel::ThirtySecond => 1.0 / 32.0,
            SkewLevel::TwoFiftySixth => 1.0 / 256.0,
            SkewLevel::Custom { fraction_inverse } => 1.0 / fraction_inverse,
        }
    }

    /// A short label used in dataset names and experiment tables.
    pub fn label(&self) -> String {
        match self {
            SkewLevel::None => "none".to_string(),
            SkewLevel::Quarter => "1/4".to_string(),
            SkewLevel::ThirtySecond => "1/32".to_string(),
            SkewLevel::TwoFiftySixth => "1/256".to_string(),
            SkewLevel::Custom { fraction_inverse } => format!("1/{fraction_inverse}"),
        }
    }

    /// The four levels of Figure 3's columns, in order of increasing skew.
    pub fn figure3_columns() -> [SkewLevel; 4] {
        [
            SkewLevel::None,
            SkewLevel::Quarter,
            SkewLevel::ThirtySecond,
            SkewLevel::TwoFiftySixth,
        ]
    }
}

/// Errors returned by [`GridWorkloadBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridWorkloadError {
    /// The repository must contain at least one frame.
    NoFrames,
    /// The workload must contain at least one instance.
    NoInstances,
    /// At least one chunk is required.
    NoChunks,
    /// The mean duration must be at least one frame and shorter than the dataset.
    BadDuration,
}

impl std::fmt::Display for GridWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridWorkloadError::NoFrames => write!(f, "workload needs at least one frame"),
            GridWorkloadError::NoInstances => write!(f, "workload needs at least one instance"),
            GridWorkloadError::NoChunks => write!(f, "workload needs at least one chunk"),
            GridWorkloadError::BadDuration => write!(
                f,
                "mean duration must be >= 1 frame and smaller than the dataset"
            ),
        }
    }
}

impl std::error::Error for GridWorkloadError {}

/// Log-space standard deviation of the instance-duration LogNormal.
const DURATION_SIGMA: f64 = 1.0;

/// Builder for [`GridWorkload`].
#[derive(Debug, Clone)]
pub struct GridWorkloadBuilder {
    frames: u64,
    instances: usize,
    chunks: u32,
    mean_duration: f64,
    skew: SkewLevel,
    seed: u64,
}

impl Default for GridWorkloadBuilder {
    /// The paper's Figure 3 defaults: 16 M frames, 2000 instances, 128 chunks, mean
    /// duration 700 frames, log-space sigma 1.0, skew 1/32.
    fn default() -> Self {
        GridWorkloadBuilder {
            frames: 16_000_000,
            instances: 2_000,
            chunks: 128,
            mean_duration: 700.0,
            skew: SkewLevel::ThirtySecond,
            seed: 0,
        }
    }
}

impl GridWorkloadBuilder {
    /// Total number of frames in the repository.
    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// Number of object instances.
    pub fn instances(mut self, instances: usize) -> Self {
        self.instances = instances;
        self
    }

    /// Number of chunks the repository is split into.
    pub fn chunks(mut self, chunks: u32) -> Self {
        self.chunks = chunks;
        self
    }

    /// Target mean instance duration in frames.
    pub fn mean_duration(mut self, mean: f64) -> Self {
        self.mean_duration = mean;
        self
    }

    /// Instance-skew level.
    pub fn skew(mut self, skew: SkewLevel) -> Self {
        self.skew = skew;
        self
    }

    /// Seed controlling instance placement and durations.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the configuration.
    pub fn build(self) -> Result<GridWorkload, GridWorkloadError> {
        if self.frames == 0 {
            return Err(GridWorkloadError::NoFrames);
        }
        if self.instances == 0 {
            return Err(GridWorkloadError::NoInstances);
        }
        if self.chunks == 0 {
            return Err(GridWorkloadError::NoChunks);
        }
        if self.mean_duration < 1.0 || self.mean_duration >= self.frames as f64 {
            return Err(GridWorkloadError::BadDuration);
        }
        Ok(GridWorkload { spec: self })
    }
}

/// A validated Figure 3-style workload specification.
#[derive(Debug, Clone)]
pub struct GridWorkload {
    spec: GridWorkloadBuilder,
}

impl GridWorkload {
    /// Start building a workload (defaults match the paper's Figure 3 setup).
    pub fn builder() -> GridWorkloadBuilder {
        GridWorkloadBuilder::default()
    }

    /// The class every generated instance belongs to.
    pub fn class() -> ObjectClass {
        ObjectClass::from("object")
    }

    /// Materialise the workload as a [`Dataset`].
    pub fn generate(&self) -> Dataset {
        let spec = &self.spec;
        let seeds = SeedSequence::new(spec.seed).derive("grid-workload");
        let mut rng = StdRng::seed_from_u64(seeds.seed());

        let repo = VideoRepository::single_clip(spec.frames);
        let chunking = Chunking::new(
            &repo,
            ChunkingPolicy::FixedCount {
                chunks: spec.chunks,
            },
        );

        let duration_dist = LogNormal::with_mean(spec.mean_duration, DURATION_SIGMA)
            .expect("builder validated the mean duration");
        let concentration = spec.skew.concentration();
        let class = Self::class();

        let mut truth = GroundTruth::new(spec.frames);
        for i in 0..spec.instances {
            let duration = duration_dist
                .sample(&mut rng)
                .round()
                .clamp(1.0, (spec.frames / 2) as f64) as u64;
            let center = skewgen::normal_center(spec.frames, concentration, &mut rng);
            let half = duration / 2;
            let first = center.saturating_sub(half);
            let last = (first + duration - 1).min(spec.frames - 1);
            // Random static box so that the tracking discriminator can distinguish
            // co-occurring instances by position.
            let bbox = BBox::from_center(
                0.1 + rng.gen::<f64>() * 0.8,
                0.1 + rng.gen::<f64>() * 0.8,
                0.05 + rng.gen::<f64>() * 0.1,
                0.05 + rng.gen::<f64>() * 0.1,
            );
            truth.push(ObjectInstance::new(
                InstanceId(i as u64),
                class.clone(),
                first,
                last,
                bbox,
                1.0,
            ));
        }

        Dataset::new(repo, chunking, Arc::new(truth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GridWorkloadBuilder {
        GridWorkload::builder()
            .frames(100_000)
            .instances(300)
            .chunks(16)
            .mean_duration(100.0)
            .seed(5)
    }

    #[test]
    fn defaults_match_paper() {
        let b = GridWorkloadBuilder::default();
        assert_eq!(b.frames, 16_000_000);
        assert_eq!(b.instances, 2_000);
        assert_eq!(b.chunks, 128);
        assert_eq!(b.mean_duration, 700.0);
    }

    #[test]
    fn generated_dataset_has_requested_shape() {
        let dataset = small().build().unwrap().generate();
        assert_eq!(dataset.total_frames(), 100_000);
        assert_eq!(dataset.chunk_lengths().len(), 16);
        assert_eq!(dataset.instance_count(&GridWorkload::class()), 300);
        // All instances stay within the repository.
        for inst in dataset.ground_truth().instances() {
            assert!(inst.last_frame() < 100_000);
        }
    }

    #[test]
    fn durations_average_near_target() {
        let dataset = small().instances(2_000).build().unwrap().generate();
        let durations: Vec<f64> = dataset
            .ground_truth()
            .instances()
            .iter()
            .map(|i| i.duration() as f64)
            .collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        assert!((mean - 100.0).abs() / 100.0 < 0.15, "mean duration {mean}");
        // LogNormal durations are skewed: max far above the mean.
        let max = durations.iter().copied().fold(0.0, f64::max);
        assert!(max > 3.0 * mean);
    }

    #[test]
    fn skew_levels_concentrate_instances() {
        let class = GridWorkload::class();
        let uniform = small().skew(SkewLevel::None).build().unwrap().generate();
        let skewed = small()
            .skew(SkewLevel::ThirtySecond)
            .build()
            .unwrap()
            .generate();
        let s_uniform = skewgen::skew_metric(&uniform.instances_per_chunk(&class).to_vec());
        let s_skewed = skewgen::skew_metric(&skewed.instances_per_chunk(&class).to_vec());
        assert!(s_uniform < 1.7, "uniform skew {s_uniform}");
        assert!(s_skewed > 4.0, "skewed skew {s_skewed}");
        assert!(s_skewed > s_uniform);
    }

    #[test]
    fn same_seed_reproduces_dataset() {
        let a = small().build().unwrap().generate();
        let b = small().build().unwrap().generate();
        assert_eq!(a.ground_truth().instances(), b.ground_truth().instances());
        let c = small().seed(6).build().unwrap().generate();
        assert_ne!(a.ground_truth().instances(), c.ground_truth().instances());
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            GridWorkload::builder().frames(0).build().unwrap_err(),
            GridWorkloadError::NoFrames
        );
        assert_eq!(
            GridWorkload::builder().instances(0).build().unwrap_err(),
            GridWorkloadError::NoInstances
        );
        assert_eq!(
            GridWorkload::builder().chunks(0).build().unwrap_err(),
            GridWorkloadError::NoChunks
        );
        assert_eq!(
            GridWorkload::builder()
                .mean_duration(0.5)
                .build()
                .unwrap_err(),
            GridWorkloadError::BadDuration
        );
        assert_eq!(
            small().frames(50).mean_duration(100.0).build().unwrap_err(),
            GridWorkloadError::BadDuration
        );
    }

    #[test]
    fn skew_level_labels_and_concentrations() {
        assert_eq!(SkewLevel::None.concentration(), 1.0);
        assert_eq!(SkewLevel::Quarter.concentration(), 0.25);
        assert_eq!(SkewLevel::TwoFiftySixth.label(), "1/256");
        assert_eq!(
            SkewLevel::Custom {
                fraction_inverse: 8.0
            }
            .concentration(),
            0.125
        );
        assert_eq!(SkewLevel::figure3_columns().len(), 4);
    }
}
