//! Object detectors: the trait and its simulated implementations.
//!
//! ExSample regards the detector as "a black box with a costly runtime" (Section
//! II-A).  The [`Detector`] trait captures the only interface the sampling loop
//! needs — frame id in, detections out — so a real GPU-backed detector could be
//! dropped in behind it.  The two provided implementations drive that interface
//! from ground truth:
//!
//! * [`PerfectDetector`] reports exactly the ground-truth boxes for every visible
//!   instance.  Used for controlled simulations (Figures 2–4) where detector noise
//!   would only obscure the sampling behaviour under study.
//! * [`SimulatedDetector`] adds the imperfections of a real detector: per-instance
//!   misses, spurious false-positive boxes and localisation jitter.  Crucially it is
//!   **deterministic per frame** — running the detector twice on the same frame
//!   yields identical detections, just like re-running a real (deterministic) neural
//!   network on the same pixels would.

use crate::bbox::BBox;
use crate::class::ObjectClass;
use crate::detection::{Detection, FrameDetections};
use crate::ground_truth::GroundTruth;
use exsample_rand::SeedSequence;
use exsample_video::FrameId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// A typed detection failure from the fallible [`Detector::try_detect_batch`]
/// entry point.
///
/// Real inference backends fail in two qualitatively different ways, and the
/// retry machinery upstream needs to tell them apart:
///
/// * [`DetectError::Transient`] — the *call* failed (a timeout, an exhausted
///   queue, a dropped connection).  Retrying the same frame may succeed.
/// * [`DetectError::Permanent`] — the *frame* fails (corrupt input, an
///   unservable request).  Every retry will fail the same way; callers should
///   give up on the frame immediately.
///
/// Both variants name the offending frame so engines can attribute the
/// failure, retry at frame granularity, and report degraded runs precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectError {
    /// A transient failure: retrying the same frame may succeed.
    Transient {
        /// The frame whose detection attempt failed.
        frame: FrameId,
        /// Backend-specific description of the failure.
        message: String,
    },
    /// A permanent failure: retrying the same frame will fail again.
    Permanent {
        /// The frame whose detection attempt failed.
        frame: FrameId,
        /// Backend-specific description of the failure.
        message: String,
    },
}

impl DetectError {
    /// The frame whose detection attempt failed.
    pub fn frame(&self) -> FrameId {
        match self {
            DetectError::Transient { frame, .. } | DetectError::Permanent { frame, .. } => *frame,
        }
    }

    /// Whether retrying the same frame may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DetectError::Transient { .. })
    }
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::Transient { frame, message } => {
                write!(f, "transient detection failure on frame {frame}: {message}")
            }
            DetectError::Permanent { frame, message } => {
                write!(f, "permanent detection failure on frame {frame}: {message}")
            }
        }
    }
}

impl std::error::Error for DetectError {}

/// An object detector restricted to one class of interest.
///
/// Distinct-object queries target a single class ("find 20 traffic lights"), so the
/// detector interface is parameterised the same way: implementations only report
/// detections of the query class.
///
/// # Thread safety
///
/// `Detector` is `Send + Sync`: execution engines share one detector instance
/// across the concurrently running lanes of a worker pool, so detection
/// must be callable through `&self` from several threads at once.  Both
/// simulated implementations satisfy this for free — they are pure functions
/// of the frame id over immutable ground truth.  An implementation that keeps
/// interior state (an invocation counter, a GPU handle) must synchronise it
/// itself (atomics, a mutex); detection results must remain a deterministic
/// function of the frame id regardless of invocation order, which is the
/// property every engine determinism guarantee is built on.
pub trait Detector: Send + Sync {
    /// Run the detector on `frame` and return its detections of the query class.
    fn detect(&self, frame: FrameId) -> FrameDetections;

    /// Run the detector on a batch of frames, appending one [`FrameDetections`]
    /// per input frame to `out` (in input order).
    ///
    /// This is the invocation shape batched execution engines use: a GPU-backed
    /// implementation would submit the whole batch in one inference call.  The
    /// default implementation simply loops over [`Detector::detect`], which is
    /// exact for the simulated detectors (they are deterministic per frame, so
    /// batching cannot change any result).
    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        out.reserve(frames.len());
        for &frame in frames {
            out.push(self.detect(frame));
        }
    }

    /// Fallible batched detection: the entry point execution engines use.
    ///
    /// A real inference backend can fail — a timeout, a lost connection, a
    /// corrupt frame — and a panic is the wrong vocabulary for that.  This
    /// method surfaces such failures as typed [`DetectError`]s so engines can
    /// retry, drop the frame, or fail the run.  The default
    /// implementation wraps the infallible [`Detector::detect_batch`] path and
    /// never fails, so existing detectors keep working unchanged.
    ///
    /// On `Err` the contents of `out` are unspecified; callers must clear or
    /// discard the buffer before reusing it.  Implementations must stay
    /// deterministic: for a fixed internal state, whether a given
    /// (frame, attempt) fails may not depend on wall-clock time or on which
    /// thread issued the call (see [`crate::fault::FaultInjectingDetector`]
    /// for the reference fault schedule shape).
    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        self.detect_batch(frames, out);
        Ok(())
    }

    /// The class this detector instance reports.
    fn class(&self) -> &ObjectClass;
}

/// Boxed detectors forward every method — including the fallible entry point
/// — so wrapping a `Box<dyn Detector>` (e.g. in a
/// [`crate::fault::FaultInjectingDetector`]) never silently reverts a method
/// to its infallible default.
impl<D: Detector + ?Sized> Detector for Box<D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        (**self).detect(frame)
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        (**self).detect_batch(frames, out);
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        (**self).try_detect_batch(frames, out)
    }

    fn class(&self) -> &ObjectClass {
        (**self).class()
    }
}

/// A detector that reports the ground truth exactly.
#[derive(Debug, Clone)]
pub struct PerfectDetector {
    truth: Arc<GroundTruth>,
    class: ObjectClass,
}

impl PerfectDetector {
    /// Create a perfect detector for `class` over the given ground truth.
    pub fn new(truth: Arc<GroundTruth>, class: ObjectClass) -> Self {
        PerfectDetector { truth, class }
    }
}

impl Detector for PerfectDetector {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        let detections = self
            .truth
            .visible_of_class_at(frame, &self.class)
            .filter_map(|inst| {
                let bbox = inst.bbox_at(frame)?;
                Some(Detection::with_truth(
                    bbox,
                    self.class.clone(),
                    1.0,
                    inst.id(),
                ))
            })
            .collect();
        FrameDetections::new(frame, detections)
    }

    fn class(&self) -> &ObjectClass {
        &self.class
    }
}

/// Noise configuration for [`SimulatedDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorNoise {
    /// Probability that a visible instance is *missed* in a given frame, on top of
    /// the instance's own detectability.
    pub miss_rate: f64,
    /// Expected number of false-positive boxes per frame (one Bernoulli draw per
    /// unit of this budget, the last one taking the fractional remainder).
    pub false_positives_per_frame: f64,
    /// Standard deviation of the localisation jitter applied to box centres, as a
    /// fraction of frame size.
    pub localization_sigma: f64,
    /// Lowest confidence score assigned to a true-positive detection.
    pub min_true_score: f64,
}

impl Default for DetectorNoise {
    fn default() -> Self {
        DetectorNoise {
            miss_rate: 0.05,
            false_positives_per_frame: 0.02,
            localization_sigma: 0.01,
            min_true_score: 0.5,
        }
    }
}

impl DetectorNoise {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.miss_rate),
            "miss_rate must be a probability"
        );
        assert!(
            self.false_positives_per_frame >= 0.0,
            "false positive rate must be non-negative"
        );
        assert!(
            self.localization_sigma >= 0.0,
            "localisation sigma must be non-negative"
        );
        assert!((0.0..=1.0).contains(&self.min_true_score));
    }
}

/// A noisy, ground-truth-driven object detector.
#[derive(Debug, Clone)]
pub struct SimulatedDetector {
    truth: Arc<GroundTruth>,
    class: ObjectClass,
    noise: DetectorNoise,
    seeds: SeedSequence,
}

impl SimulatedDetector {
    /// Create a simulated detector.
    ///
    /// `seed` fixes the detector's noise pattern; the same seed always misses the
    /// same instances in the same frames.
    pub fn new(
        truth: Arc<GroundTruth>,
        class: ObjectClass,
        noise: DetectorNoise,
        seed: u64,
    ) -> Self {
        noise.validate();
        SimulatedDetector {
            truth,
            class,
            noise,
            seeds: SeedSequence::new(seed).derive("simulated-detector"),
        }
    }

    /// Deterministic per-frame RNG.
    fn frame_rng(&self, frame: FrameId) -> StdRng {
        StdRng::seed_from_u64(self.seeds.index(frame).seed())
    }
}

impl Detector for SimulatedDetector {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        let mut rng = self.frame_rng(frame);
        let mut detections = Vec::new();

        let visible = self
            .truth
            .visible_of_class_at(frame, &self.class)
            .filter_map(|inst| Some((inst, inst.bbox_at(frame)?)));
        for (inst, truth_box) in visible {
            // The instance's own detectability models persistent difficulty (small
            // object, occlusion); the detector's miss rate models per-frame noise.
            let keep: f64 = rng.gen();
            let detect_prob = inst.detectability() * (1.0 - self.noise.miss_rate);
            if keep >= detect_prob {
                continue;
            }
            let jitter = self.noise.localization_sigma;
            let bbox = if jitter > 0.0 {
                let dx = (rng.gen::<f64>() - 0.5) * 2.0 * jitter;
                let dy = (rng.gen::<f64>() - 0.5) * 2.0 * jitter;
                truth_box.translated(dx, dy).clamp_to_frame()
            } else {
                truth_box
            };
            let score =
                self.noise.min_true_score + rng.gen::<f64>() * (1.0 - self.noise.min_true_score);
            detections.push(Detection::with_truth(
                bbox,
                self.class.clone(),
                score,
                inst.id(),
            ));
        }

        // False positives: expected count is small (well below one per frame), so a
        // simple two-slot Bernoulli scheme reproduces the expectation exactly while
        // staying deterministic per frame.
        let mut fp_budget = self.noise.false_positives_per_frame;
        while fp_budget > 0.0 {
            let p = fp_budget.min(1.0);
            if rng.gen::<f64>() < p {
                let bbox = BBox::from_center(
                    rng.gen::<f64>(),
                    rng.gen::<f64>(),
                    0.02 + rng.gen::<f64>() * 0.1,
                    0.02 + rng.gen::<f64>() * 0.1,
                )
                .clamp_to_frame();
                let score = self.noise.min_true_score * rng.gen::<f64>();
                detections.push(Detection::new(bbox, self.class.clone(), score));
            }
            fp_budget -= 1.0;
        }

        FrameDetections::new(frame, detections)
    }

    fn class(&self) -> &ObjectClass {
        &self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ObjectInstance;

    fn truth() -> Arc<GroundTruth> {
        Arc::new(GroundTruth::from_instances(
            10_000,
            vec![
                ObjectInstance::simple(0, "car", 0, 999),
                ObjectInstance::simple(1, "car", 500, 1_499),
                ObjectInstance::simple(2, "bus", 500, 1_499),
            ],
        ))
    }

    #[test]
    fn perfect_detector_reports_all_visible_instances_of_class() {
        let det = PerfectDetector::new(truth(), ObjectClass::from("car"));
        assert_eq!(det.detect(750).len(), 2);
        assert_eq!(det.detect(100).len(), 1);
        assert_eq!(det.detect(2_000).len(), 0);
        assert_eq!(det.class().name(), "car");
        // Ground-truth linkage is populated.
        assert!(det.detect(750).detections.iter().all(|d| d.truth.is_some()));
    }

    #[test]
    fn detect_batch_matches_per_frame_detection() {
        let det = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise::default(),
            17,
        );
        let frames = [750u64, 100, 2_000, 750];
        let mut batched = Vec::new();
        det.detect_batch(&frames, &mut batched);
        assert_eq!(batched.len(), frames.len());
        for (&frame, result) in frames.iter().zip(&batched) {
            assert_eq!(result, &det.detect(frame), "frame {frame}");
        }
    }

    #[test]
    fn simulated_detector_is_deterministic_per_frame() {
        let det = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise::default(),
            42,
        );
        let a = det.detect(750);
        let b = det.detect(750);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let noisy = DetectorNoise {
            miss_rate: 0.5,
            ..DetectorNoise::default()
        };
        let det_a = SimulatedDetector::new(truth(), ObjectClass::from("car"), noisy, 1);
        let det_b = SimulatedDetector::new(truth(), ObjectClass::from("car"), noisy, 2);
        // Over many frames the two seeds should not produce identical outcomes.
        let mut differ = false;
        for frame in 500..600 {
            if det_a.detect(frame).len() != det_b.detect(frame).len() {
                differ = true;
                break;
            }
        }
        assert!(differ);
    }

    #[test]
    fn zero_noise_matches_perfect_detector_counts() {
        let none = DetectorNoise {
            miss_rate: 0.0,
            false_positives_per_frame: 0.0,
            localization_sigma: 0.0,
            min_true_score: 1.0,
        };
        let det = SimulatedDetector::new(truth(), ObjectClass::from("car"), none, 7);
        let perfect = PerfectDetector::new(truth(), ObjectClass::from("car"));
        for frame in [0u64, 400, 750, 1_200, 5_000] {
            assert_eq!(
                det.detect(frame).len(),
                perfect.detect(frame).len(),
                "frame {frame}"
            );
        }
    }

    #[test]
    fn miss_rate_reduces_detections() {
        let lossy = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise {
                miss_rate: 0.9,
                false_positives_per_frame: 0.0,
                localization_sigma: 0.0,
                min_true_score: 0.5,
            },
            3,
        );
        let total: usize = (0..1_000u64).map(|f| lossy.detect(f).len()).sum();
        // Perfect detection over frames 0..1000 of instance 0 (plus instance 1 after
        // frame 500) would be ~1500 detections; with 90% misses expect ~150.
        assert!(total < 400, "total detections {total}");
        assert!(total > 20, "total detections {total}");
    }

    #[test]
    fn false_positives_have_no_truth_link() {
        let fp_only = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise {
                miss_rate: 1.0,
                false_positives_per_frame: 0.5,
                localization_sigma: 0.0,
                min_true_score: 0.5,
            },
            9,
        );
        let mut saw_fp = false;
        for frame in 0..200u64 {
            for d in &fp_only.detect(frame).detections {
                assert_eq!(d.truth, None);
                saw_fp = true;
            }
        }
        assert!(saw_fp, "expected at least one false positive in 200 frames");
    }

    #[test]
    fn localisation_jitter_moves_boxes_but_keeps_overlap() {
        let jittery = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise {
                miss_rate: 0.0,
                false_positives_per_frame: 0.0,
                localization_sigma: 0.02,
                min_true_score: 0.5,
            },
            11,
        );
        let perfect = PerfectDetector::new(truth(), ObjectClass::from("car"));
        let noisy_box = jittery.detect(100).detections[0].bbox;
        let true_box = perfect.detect(100).detections[0].bbox;
        assert!(
            noisy_box.iou(&true_box) > 0.5,
            "jittered box should still overlap heavily"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_noise_panics() {
        let _ = SimulatedDetector::new(
            truth(),
            ObjectClass::from("car"),
            DetectorNoise {
                miss_rate: 1.5,
                ..DetectorNoise::default()
            },
            1,
        );
    }
}
