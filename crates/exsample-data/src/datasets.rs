//! Statistical analogs of the paper's six evaluation datasets.
//!
//! The paper evaluates on real video from dashcams (dashcam, BDD-1k, BDD MOT) and
//! fixed street cameras (amsterdam, archie, night-street).  That video, the
//! fine-tuned Faster-RCNN detectors, and the GPU cluster used to pre-compute ground
//! truth are not available here, so — per the reproduction's substitution policy —
//! each dataset is replaced by a **statistical analog** that matches the properties
//! ExSample's behaviour actually depends on:
//!
//! * total duration / frame count and chunking granularity (Section V-A);
//! * the number of distinct instances per object class (Figure 6 where reported,
//!   plausible magnitudes otherwise);
//! * the distribution of instance durations (long-lived objects in static cameras,
//!   short-lived in moving cameras) — LogNormal, as in the paper's simulations;
//! * the skew of instances across chunks, expressed with the paper's `S` metric
//!   (Figure 6) and realised with a hot-chunk placement profile.
//!
//! The calibration constants below are encoded in [`DatasetSpec`] values and are
//! deliberately easy to audit and adjust.

use crate::dataset::Dataset;
use crate::skewgen;
use exsample_detect::{BBox, GroundTruth, InstanceId, ObjectClass, ObjectInstance};
use exsample_rand::{LogNormal, Sampler, SeedSequence};
use exsample_video::{Chunking, ChunkingPolicy, VideoClip, VideoRepository};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-class calibration of a dataset analog.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// The object class.
    pub class: &'static str,
    /// Number of distinct instances of this class in the dataset.
    pub instances: usize,
    /// Mean visibility duration in frames.
    pub mean_duration: f64,
    /// Log-space standard deviation of the duration LogNormal.
    pub duration_sigma: f64,
    /// Target skew metric `S` of the class across chunks (>= 1).
    pub skew: f64,
}

/// How the analog's clips are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClipLayout {
    /// A small number of long recordings (dashcam drives, static cameras), chunked
    /// into fixed-duration chunks.
    LongRecordings {
        /// Number of recordings.
        clips: u32,
        /// Chunk duration in seconds (the paper uses 20 minutes).
        chunk_seconds: f64,
    },
    /// Many short clips, one chunk per clip (the BDD datasets).
    ShortClips {
        /// Number of clips.
        clips: u32,
    },
}

/// Full specification of a dataset analog.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Total number of frames (before scaling).
    pub total_frames: u64,
    /// Clip / chunk layout.
    pub layout: ClipLayout,
    /// Per-class calibration.
    pub classes: Vec<ClassSpec>,
}

/// 10 hours of dashcam video over several drives (Section V-A), ~1.1 M frames,
/// 20-minute chunks.
pub fn dashcam() -> DatasetSpec {
    DatasetSpec {
        name: "dashcam",
        total_frames: 1_080_000,
        layout: ClipLayout::LongRecordings {
            clips: 10,
            chunk_seconds: 1200.0,
        },
        classes: vec![
            class("bicycle", 249, 150.0, 1.0, 14.0),
            class("bus", 120, 220.0, 1.0, 6.0),
            class("fire hydrant", 300, 60.0, 0.8, 4.0),
            class("person", 1_500, 120.0, 1.0, 5.0),
            class("stop sign", 400, 90.0, 0.8, 6.0),
            class("traffic light", 900, 180.0, 1.0, 4.0),
            class("truck", 400, 250.0, 1.0, 3.0),
        ],
    }
}

/// 1000 random ~40-second clips from the Berkeley Deep Drive dataset, one chunk per
/// clip.
pub fn bdd1k() -> DatasetSpec {
    DatasetSpec {
        name: "BDD 1k",
        total_frames: 1_200_000,
        layout: ClipLayout::ShortClips { clips: 1_000 },
        classes: vec![
            class("bike", 300, 120.0, 0.9, 10.0),
            class("bus", 350, 150.0, 0.9, 8.0),
            class("motor", 509, 100.0, 0.9, 19.0),
            class("person", 4_000, 200.0, 1.0, 4.0),
            class("rider", 400, 120.0, 0.9, 10.0),
            class("traffic light", 3_000, 150.0, 1.0, 3.0),
            class("traffic sign", 5_000, 120.0, 1.0, 2.5),
            class("truck", 1_200, 200.0, 1.0, 4.0),
        ],
    }
}

/// 1600 short (~200 frame) BDD multi-object-tracking clips with labelled instance
/// ids, one chunk per clip.
pub fn bdd_mot() -> DatasetSpec {
    DatasetSpec {
        name: "BDD MOT",
        total_frames: 320_000,
        layout: ClipLayout::ShortClips { clips: 1_600 },
        classes: vec![
            class("bicycle", 250, 80.0, 0.8, 12.0),
            class("bus", 300, 100.0, 0.8, 8.0),
            class("car", 8_000, 120.0, 0.9, 1.5),
            class("motorcycle", 180, 70.0, 0.8, 15.0),
            class("pedestrian", 3_000, 100.0, 0.9, 3.0),
            class("rider", 350, 80.0, 0.8, 10.0),
            class("trailer", 100, 90.0, 0.8, 18.0),
            class("train", 40, 60.0, 0.8, 25.0),
            class("truck", 900, 110.0, 0.9, 5.0),
        ],
    }
}

/// 20 hours from a fixed camera over an Amsterdam canal, 20-minute chunks.
pub fn amsterdam() -> DatasetSpec {
    DatasetSpec {
        name: "amsterdam",
        total_frames: 2_160_000,
        layout: ClipLayout::LongRecordings {
            clips: 1,
            chunk_seconds: 1200.0,
        },
        classes: vec![
            class("bicycle", 3_000, 300.0, 1.0, 2.0),
            class("boat", 588, 3_000.0, 1.0, 1.6),
            class("car", 4_000, 500.0, 1.0, 1.5),
            class("dog", 250, 200.0, 0.9, 3.0),
            class("motorcycle", 200, 250.0, 0.9, 4.0),
            class("person", 8_000, 400.0, 1.0, 2.0),
            class("truck", 800, 350.0, 1.0, 2.5),
        ],
    }
}

/// 20 hours from a fixed camera over an urban intersection ("archie"), 20-minute
/// chunks.
pub fn archie() -> DatasetSpec {
    DatasetSpec {
        name: "archie",
        total_frames: 2_160_000,
        layout: ClipLayout::LongRecordings {
            clips: 1,
            chunk_seconds: 1200.0,
        },
        classes: vec![
            class("bicycle", 1_500, 250.0, 1.0, 2.5),
            class("bus", 600, 300.0, 1.0, 3.0),
            class("car", 33_546, 400.0, 1.0, 1.1),
            class("motorcycle", 250, 200.0, 0.9, 4.0),
            class("person", 10_000, 300.0, 1.0, 2.0),
            class("truck", 700, 300.0, 1.0, 2.5),
        ],
    }
}

/// 20 hours from a fixed night-time street camera (aka town-square), 20-minute
/// chunks.
pub fn night_street() -> DatasetSpec {
    DatasetSpec {
        name: "night street",
        total_frames: 2_160_000,
        layout: ClipLayout::LongRecordings {
            clips: 1,
            chunk_seconds: 1200.0,
        },
        classes: vec![
            class("bus", 500, 400.0, 1.0, 3.0),
            class("car", 15_000, 500.0, 1.0, 1.3),
            class("dog", 150, 250.0, 0.9, 5.0),
            class("motorcycle", 80, 300.0, 0.9, 6.0),
            class("person", 2_078, 600.0, 1.0, 4.5),
            class("truck", 600, 400.0, 1.0, 3.0),
        ],
    }
}

/// All six dataset analogs in the order the paper lists them.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![
        bdd1k(),
        bdd_mot(),
        amsterdam(),
        archie(),
        dashcam(),
        night_street(),
    ]
}

fn class(
    name: &'static str,
    instances: usize,
    mean_duration: f64,
    duration_sigma: f64,
    skew: f64,
) -> ClassSpec {
    ClassSpec {
        class: name,
        instances,
        mean_duration,
        duration_sigma,
        skew,
    }
}

/// Generator turning a [`DatasetSpec`] into a concrete [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetAnalog {
    spec: DatasetSpec,
    scale: f64,
    seed: u64,
}

impl DatasetAnalog {
    /// The largest scale [`DatasetAnalog::with_scale`] accepts: scales lie in
    /// `(0, MAX_SCALE]`.
    pub const MAX_SCALE: f64 = 4.0;

    /// Whether [`DatasetAnalog::with_scale`] accepts `scale` (never for NaN).
    pub fn valid_scale(scale: f64) -> bool {
        scale > 0.0 && scale <= Self::MAX_SCALE
    }

    /// Create a generator for `spec` at full scale.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        DatasetAnalog {
            spec,
            scale: 1.0,
            seed,
        }
    }

    /// Scale the dataset down (or up): total frames, clip counts and instance
    /// counts are all multiplied by `scale`, which keeps every per-instance hit
    /// probability (and therefore the relative behaviour of the samplers) intact
    /// while making experiments and tests proportionally cheaper.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(
            Self::valid_scale(scale),
            "scale must be in (0, {}]",
            Self::MAX_SCALE
        );
        self.scale = scale;
        self
    }

    /// Materialise the dataset analog.
    pub fn generate(&self) -> Dataset {
        let seeds = SeedSequence::new(self.seed)
            .derive("dataset-analog")
            .derive(self.spec.name);
        let mut rng = StdRng::seed_from_u64(seeds.seed());

        let (repo, chunking) = self.build_repository();
        let total_frames = repo.total_frames();
        let chunks = chunking.chunks().to_vec();

        let mut truth = GroundTruth::new(total_frames);
        let mut next_instance = 0u64;
        for class_spec in &self.spec.classes {
            let instance_count =
                ((class_spec.instances as f64 * self.scale).round() as usize).max(1);
            let weights = skewgen::hot_chunk_weights(chunks.len(), class_spec.skew.max(1.0));
            // Shuffle which chunks are "hot" per class so different classes peak in
            // different parts of the dataset, as they do in real data.
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let duration_dist =
                LogNormal::with_mean(class_spec.mean_duration, class_spec.duration_sigma)
                    .expect("spec durations are positive");
            let object_class = ObjectClass::from(class_spec.class);

            for _ in 0..instance_count {
                let weight_idx = skewgen::sample_weighted(&weights, &mut rng);
                let chunk = &chunks[order[weight_idx]];
                let duration = duration_dist
                    .sample(&mut rng)
                    .round()
                    .clamp(1.0, chunk.len() as f64) as u64;
                let slack = chunk.len() - duration;
                let first = chunk.start()
                    + if slack == 0 {
                        0
                    } else {
                        rng.gen_range(0..=slack)
                    };
                let last = first + duration - 1;
                let bbox = BBox::from_center(
                    0.1 + rng.gen::<f64>() * 0.8,
                    0.1 + rng.gen::<f64>() * 0.8,
                    0.03 + rng.gen::<f64>() * 0.12,
                    0.03 + rng.gen::<f64>() * 0.12,
                );
                truth.push(ObjectInstance::new(
                    InstanceId(next_instance),
                    object_class.clone(),
                    first,
                    last,
                    bbox,
                    1.0,
                ));
                next_instance += 1;
            }
        }

        Dataset::new(repo, chunking, Arc::new(truth))
    }

    fn build_repository(&self) -> (VideoRepository, Chunking) {
        let total_frames = ((self.spec.total_frames as f64 * self.scale).round() as u64).max(1);
        match self.spec.layout {
            ClipLayout::LongRecordings {
                clips,
                chunk_seconds,
            } => {
                let clips = clips.max(1);
                let frames_per_clip = (total_frames / u64::from(clips)).max(1);
                let video_clips = vec![VideoClip::with_defaults(frames_per_clip); clips as usize];
                let repo = VideoRepository::from_clips(video_clips);
                // Scale the chunk duration together with the dataset so the chunk
                // *count* (and therefore the achievable skew structure, which is
                // what ExSample exploits) is preserved at reduced scales.
                let chunking = Chunking::new(
                    &repo,
                    ChunkingPolicy::FixedDuration {
                        seconds: (chunk_seconds * self.scale).max(1.0),
                    },
                );
                (repo, chunking)
            }
            ClipLayout::ShortClips { clips } => {
                // Clip count is part of the dataset's identity (BDD = 1000 chunks),
                // so scaling shrinks the clips rather than removing them unless the
                // scale is so small that clips would drop below ~30 frames.
                let mut clip_count = clips.max(1);
                let mut frames_per_clip = (total_frames / u64::from(clip_count)).max(1);
                if frames_per_clip < 30 {
                    clip_count = ((total_frames / 30).max(1)).min(u64::from(clips)) as u32;
                    frames_per_clip = (total_frames / u64::from(clip_count)).max(1);
                }
                let video_clips =
                    vec![VideoClip::with_defaults(frames_per_clip); clip_count as usize];
                let repo = VideoRepository::from_clips(video_clips);
                let chunking = Chunking::new(&repo, ChunkingPolicy::PerClip);
                (repo, chunking)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_video::DEFAULT_FPS;

    #[test]
    fn catalog_covers_six_datasets_and_42_plus_queries() {
        let specs = all_datasets();
        assert_eq!(specs.len(), 6);
        let total_queries: usize = specs.iter().map(|s| s.classes.len()).sum();
        assert!(total_queries >= 42, "total queries {total_queries}");
        // Names match the paper.
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert!(names.contains(&"dashcam"));
        assert!(names.contains(&"BDD 1k"));
        assert!(names.contains(&"night street"));
    }

    #[test]
    fn figure6_calibration_points_are_present() {
        assert_eq!(dashcam().class("bicycle").unwrap().instances, 249);
        assert_eq!(bdd1k().class("motor").unwrap().instances, 509);
        assert_eq!(night_street().class("person").unwrap().instances, 2_078);
        assert_eq!(archie().class("car").unwrap().instances, 33_546);
        assert_eq!(amsterdam().class("boat").unwrap().instances, 588);
        assert!((archie().class("car").unwrap().skew - 1.1).abs() < 1e-9);
        assert!((dashcam().class("bicycle").unwrap().skew - 14.0).abs() < 1e-9);
    }

    #[test]
    fn bdd_layout_gives_one_chunk_per_clip() {
        let dataset = DatasetAnalog::new(bdd1k(), 1).with_scale(0.05).generate();
        // The clip count (and hence chunk count) is preserved under mild scaling.
        assert_eq!(dataset.chunking().len(), 1_000);
        assert_eq!(dataset.repository().clip_count(), 1_000);
    }

    #[test]
    fn long_recording_layout_preserves_chunk_count_under_scaling() {
        // At full scale amsterdam is 20 hours in 20-minute chunks = 60 chunks; the
        // chunk duration scales with the dataset so the chunk count (and with it
        // the skew structure) is identical at reduced scale.
        let full = DatasetAnalog::new(amsterdam(), 1).generate();
        let small = DatasetAnalog::new(amsterdam(), 1)
            .with_scale(0.1)
            .generate();
        assert_eq!(full.chunking().len(), 60);
        assert_eq!(small.chunking().len(), 60);
        let full_chunk_frames = (1200.0 * DEFAULT_FPS) as u64;
        assert!(full
            .chunking()
            .chunks()
            .iter()
            .all(|c| c.len() <= full_chunk_frames));
    }

    #[test]
    fn scaling_preserves_instance_density() {
        let full = DatasetAnalog::new(dashcam(), 3).with_scale(0.2).generate();
        let small = DatasetAnalog::new(dashcam(), 3).with_scale(0.1).generate();
        let class = ObjectClass::from("traffic light");
        let full_density = full.instance_count(&class) as f64 / full.total_frames() as f64;
        let small_density = small.instance_count(&class) as f64 / small.total_frames() as f64;
        assert!((full_density - small_density).abs() / full_density < 0.1);
    }

    #[test]
    fn skewed_classes_realise_higher_skew_than_uniform_classes() {
        let dataset = DatasetAnalog::new(dashcam(), 7).with_scale(0.25).generate();
        let bicycle = dataset.instances_per_chunk(&ObjectClass::from("bicycle"));
        let truck = dataset.instances_per_chunk(&ObjectClass::from("truck"));
        let s_bicycle = skewgen::skew_metric(&bicycle);
        let s_truck = skewgen::skew_metric(&truck);
        assert!(
            s_bicycle > s_truck,
            "bicycle (target 14) should be more skewed than truck (target 3): {s_bicycle} vs {s_truck}"
        );
        assert!(s_bicycle > 3.0, "bicycle skew {s_bicycle}");
    }

    #[test]
    fn instance_counts_scale_with_scale_factor() {
        let dataset = DatasetAnalog::new(bdd_mot(), 5).with_scale(0.1).generate();
        let cars = dataset.instance_count(&ObjectClass::from("car"));
        assert!((cars as f64 - 800.0).abs() < 1.0, "cars {cars}");
        // Everything fits inside the repository.
        for inst in dataset.ground_truth().instances() {
            assert!(inst.last_frame() < dataset.total_frames());
        }
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = DatasetAnalog::new(night_street(), 11)
            .with_scale(0.05)
            .generate();
        let b = DatasetAnalog::new(night_street(), 11)
            .with_scale(0.05)
            .generate();
        assert_eq!(a.ground_truth().len(), b.ground_truth().len());
        assert_eq!(
            a.ground_truth().instances()[100],
            b.ground_truth().instances()[100]
        );
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_panics() {
        let _ = DatasetAnalog::new(dashcam(), 1).with_scale(0.0);
    }

    /// Class lookup for the calibration tests.
    impl DatasetSpec {
        /// Look up a class spec by name.
        fn class(&self, name: &str) -> Option<&ClassSpec> {
            self.classes.iter().find(|c| c.class == name)
        }
    }
}
