//! The distinct-object discriminator.
//!
//! Algorithm 1 of the paper passes every frame's detections through a
//! discriminator which reports two sets:
//!
//! * `d0` — detections that match **no** previously found object (these are new
//!   distinct results), and
//! * `d1` — detections that match an object which had been seen **exactly once**
//!   before (these decrement the chunk's `N1` statistic, because that object is no
//!   longer "seen exactly once").
//!
//! The discriminator the paper describes runs a SORT-like tracker forwards and
//! backwards through the video from each newly found object to compute its position
//! in every frame where it is visible; future detections are discarded if they
//! match those positions.  [`TrackingDiscriminator`] reproduces that behaviour in
//! the simulated pipeline: accepted objects expose their per-frame positions (the
//! tracker's output is exact in simulation), and future detections are matched
//! against those positions by IoU.  [`OracleDiscriminator`] instead matches on
//! ground-truth instance ids, which isolates the sampling behaviour from matching
//! noise in the controlled simulation experiments (Figures 2–4).

use exsample_detect::{Detection, FrameDetections, GroundTruth, InstanceId};
use exsample_video::FrameId;
use std::collections::HashMap;
use std::sync::Arc;

/// The discriminator's verdict on one frame's detections.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// Detections that matched no previously found object (`d0` in Algorithm 1).
    pub new: Vec<Detection>,
    /// Detections whose matched object had been seen exactly once before (`d1`).
    pub matched_once: Vec<Detection>,
    /// Detections whose matched object had already been seen two or more times.
    pub matched_more: Vec<Detection>,
}

impl MatchOutcome {
    /// `|d0|`: the number of new distinct objects found in this frame.
    pub(crate) fn d0(&self) -> usize {
        self.new.len()
    }

    /// `|d1|`: the number of detections matching an object previously seen exactly
    /// once.
    pub(crate) fn d1(&self) -> usize {
        self.matched_once.len()
    }

    /// The increment ExSample applies to the sampled chunk's `N1` statistic,
    /// `|d0| - |d1|` (which may be negative).
    pub fn n1_delta(&self) -> i64 {
        self.d0() as i64 - self.d1() as i64
    }
}

/// Decides whether detections correspond to new or previously seen objects.
pub trait Discriminator {
    /// Process the detections of one (sampled) frame and update internal state.
    fn observe(&mut self, detections: &FrameDetections) -> MatchOutcome;

    /// Total number of distinct objects found so far (including any objects created
    /// from false-positive detections).
    fn distinct_count(&self) -> usize;

    /// The ground-truth instances found so far.  Excludes objects created from
    /// false positives; this is the quantity recall is computed over.
    fn found_instances(&self) -> Vec<InstanceId>;
}

/// A discriminator that matches detections by ground-truth instance id.
///
/// False-positive detections (no ground-truth link) are ignored entirely.
#[derive(Debug, Clone, Default)]
pub struct OracleDiscriminator {
    sightings: HashMap<InstanceId, u32>,
}

impl OracleDiscriminator {
    /// Create an empty oracle discriminator.
    pub fn new() -> Self {
        OracleDiscriminator::default()
    }

    /// Number of instances seen exactly once so far — the global `N1` statistic of
    /// Section III-A, before it is split per chunk.
    pub fn seen_exactly_once(&self) -> usize {
        self.sightings.values().filter(|&&count| count == 1).count()
    }
}

impl Discriminator for OracleDiscriminator {
    fn observe(&mut self, detections: &FrameDetections) -> MatchOutcome {
        let mut outcome = MatchOutcome::default();
        for det in &detections.detections {
            let Some(id) = det.truth else { continue };
            let count = self.sightings.entry(id).or_insert(0);
            match *count {
                0 => outcome.new.push(det.clone()),
                1 => outcome.matched_once.push(det.clone()),
                _ => outcome.matched_more.push(det.clone()),
            }
            *count += 1;
        }
        outcome
    }

    fn distinct_count(&self) -> usize {
        self.sightings.len()
    }

    fn found_instances(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self.sightings.keys().copied().collect();
        ids.sort();
        ids
    }
}

/// A track created from a false-positive detection.
#[derive(Debug, Clone)]
struct FalsePositiveTrack {
    frame: FrameId,
    bbox: exsample_detect::BBox,
    sightings: u32,
}

/// The paper-faithful discriminator: IoU matching against stored track positions.
///
/// When a detection is accepted as a new object, the discriminator obtains the
/// object's position in every frame where it is visible (in the real system, by
/// running a SORT-like tracker forwards and backwards; in this simulation, directly
/// from ground truth, which is exactly what an ideal tracker would return).  Later
/// detections are matched against those positions by IoU and are *not* reported as
/// new results.
#[derive(Debug, Clone)]
pub struct TrackingDiscriminator {
    truth: Arc<GroundTruth>,
    /// Minimum IoU for a detection to match a stored track position.
    min_iou: f64,
    /// Sighting counts of accepted ground-truth-backed tracks.
    instance_sightings: HashMap<InstanceId, u32>,
    /// Tracks created from false positives (matched only near their frame).
    false_positive_tracks: Vec<FalsePositiveTrack>,
    /// Temporal window (frames) within which a false-positive track can be matched.
    fp_window: u64,
}

impl TrackingDiscriminator {
    /// Create a tracking discriminator with the given IoU threshold.
    pub(crate) fn new(truth: Arc<GroundTruth>, min_iou: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_iou));
        TrackingDiscriminator {
            truth,
            min_iou,
            instance_sightings: HashMap::new(),
            false_positive_tracks: Vec::new(),
            fp_window: 30,
        }
    }

    /// Create a discriminator with the defaults used in the evaluation (IoU 0.5).
    pub fn with_defaults(truth: Arc<GroundTruth>) -> Self {
        TrackingDiscriminator::new(truth, 0.5)
    }

    /// Try to match a detection against accepted instance tracks at this frame.
    fn match_instance_track(&self, frame: FrameId, det: &Detection) -> Option<InstanceId> {
        let mut best: Option<(InstanceId, f64)> = None;
        for inst in self.truth.visible_at(frame) {
            if !self.instance_sightings.contains_key(&inst.id()) {
                continue;
            }
            let Some(track_box) = inst.bbox_at(frame) else {
                continue;
            };
            let iou = det.bbox.iou(&track_box);
            if iou >= self.min_iou && best.is_none_or(|(_, b)| iou > b) {
                best = Some((inst.id(), iou));
            }
        }
        best.map(|(id, _)| id)
    }

    /// Try to match a detection against false-positive tracks near this frame.
    fn match_fp_track(
        &mut self,
        frame: FrameId,
        det: &Detection,
    ) -> Option<&mut FalsePositiveTrack> {
        let min_iou = self.min_iou;
        let window = self.fp_window;
        self.false_positive_tracks
            .iter_mut()
            .find(|t| frame.abs_diff(t.frame) <= window && det.bbox.iou(&t.bbox) >= min_iou)
    }
}

impl Discriminator for TrackingDiscriminator {
    fn observe(&mut self, detections: &FrameDetections) -> MatchOutcome {
        let frame = detections.frame;
        let mut outcome = MatchOutcome::default();
        for det in &detections.detections {
            // 1) Match against accepted instance-backed tracks by position.
            if let Some(id) = self.match_instance_track(frame, det) {
                let count = self
                    .instance_sightings
                    .get_mut(&id)
                    .expect("matched track must be accepted");
                match *count {
                    1 => outcome.matched_once.push(det.clone()),
                    _ => outcome.matched_more.push(det.clone()),
                }
                *count += 1;
                continue;
            }
            // 2) Match against false-positive tracks.
            if let Some(track) = self.match_fp_track(frame, det) {
                match track.sightings {
                    1 => outcome.matched_once.push(det.clone()),
                    _ => outcome.matched_more.push(det.clone()),
                }
                track.sightings += 1;
                continue;
            }
            // 3) A new object.  Accept it and record its track.
            match det.truth {
                Some(id) => {
                    // Guard against two detections of the same not-yet-accepted
                    // instance arriving in a single frame (possible only with
                    // duplicate boxes); treat the second as a repeat sighting.
                    let count = self.instance_sightings.entry(id).or_insert(0);
                    if *count == 0 {
                        outcome.new.push(det.clone());
                    } else if *count == 1 {
                        outcome.matched_once.push(det.clone());
                    } else {
                        outcome.matched_more.push(det.clone());
                    }
                    *count += 1;
                }
                None => {
                    self.false_positive_tracks.push(FalsePositiveTrack {
                        frame,
                        bbox: det.bbox,
                        sightings: 1,
                    });
                    outcome.new.push(det.clone());
                }
            }
        }
        outcome
    }

    fn distinct_count(&self) -> usize {
        self.instance_sightings.len() + self.false_positive_tracks.len()
    }

    fn found_instances(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self.instance_sightings.keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_detect::{BBox, Detector, ObjectClass, ObjectInstance, PerfectDetector};

    fn truth() -> Arc<GroundTruth> {
        Arc::new(GroundTruth::from_instances(
            10_000,
            vec![
                ObjectInstance::simple(0, "car", 0, 999),
                ObjectInstance::simple(1, "car", 2_000, 2_999),
            ],
        ))
    }

    fn detect_at(truth: &Arc<GroundTruth>, frame: FrameId) -> FrameDetections {
        PerfectDetector::new(Arc::clone(truth), ObjectClass::from("car")).detect(frame)
    }

    #[test]
    fn oracle_counts_first_second_and_later_sightings() {
        let truth = truth();
        let mut d = OracleDiscriminator::new();

        let o = d.observe(&detect_at(&truth, 100));
        assert_eq!((o.d0(), o.d1()), (1, 0));
        assert_eq!(o.n1_delta(), 1);

        let o = d.observe(&detect_at(&truth, 200));
        assert_eq!((o.d0(), o.d1()), (0, 1));
        assert_eq!(o.n1_delta(), -1);

        let o = d.observe(&detect_at(&truth, 300));
        assert_eq!((o.d0(), o.d1()), (0, 0));
        assert_eq!(o.matched_more.len(), 1);

        assert_eq!(d.distinct_count(), 1);
        assert_eq!(d.found_instances(), vec![InstanceId(0)]);
    }

    #[test]
    fn oracle_ignores_false_positives() {
        let mut d = OracleDiscriminator::new();
        let fp = FrameDetections::new(
            5,
            vec![Detection::new(
                BBox::new(0.1, 0.1, 0.1, 0.1),
                ObjectClass::from("car"),
                0.4,
            )],
        );
        let o = d.observe(&fp);
        assert_eq!(o.d0(), 0);
        assert_eq!(d.distinct_count(), 0);
    }

    #[test]
    fn tracking_discriminator_matches_repeat_sightings_by_position() {
        let truth = truth();
        let mut d = TrackingDiscriminator::with_defaults(Arc::clone(&truth));

        let o = d.observe(&detect_at(&truth, 100));
        assert_eq!(o.d0(), 1);
        // Same object 500 frames later: positions identical (static motion), so it
        // must match and count as the second sighting.
        let o = d.observe(&detect_at(&truth, 600));
        assert_eq!((o.d0(), o.d1()), (0, 1));
        // A different object in a different time range is new.
        let o = d.observe(&detect_at(&truth, 2_500));
        assert_eq!(o.d0(), 1);

        assert_eq!(d.distinct_count(), 2);
        assert_eq!(d.found_instances(), vec![InstanceId(0), InstanceId(1)]);
        assert_eq!(d.false_positive_tracks.len(), 0);
    }

    #[test]
    fn tracking_discriminator_counts_false_positive_objects() {
        let truth = truth();
        let mut d = TrackingDiscriminator::with_defaults(Arc::clone(&truth));
        let fp_box = BBox::new(0.7, 0.7, 0.05, 0.05);
        let fp = FrameDetections::new(
            50,
            vec![Detection::new(fp_box, ObjectClass::from("car"), 0.4)],
        );
        let o = d.observe(&fp);
        assert_eq!(o.d0(), 1);
        assert_eq!(d.false_positive_tracks.len(), 1);
        // The same spurious box a few frames later matches the stored FP track.
        let fp2 = FrameDetections::new(
            60,
            vec![Detection::new(fp_box, ObjectClass::from("car"), 0.4)],
        );
        let o = d.observe(&fp2);
        assert_eq!((o.d0(), o.d1()), (0, 1));
        // But far away in time it is treated as a new object again.
        let fp3 = FrameDetections::new(
            5_000,
            vec![Detection::new(fp_box, ObjectClass::from("car"), 0.4)],
        );
        let o = d.observe(&fp3);
        assert_eq!(o.d0(), 1);
        // Found ground-truth instances exclude false positives.
        assert!(d.found_instances().is_empty());
        assert_eq!(d.distinct_count(), 2);
    }

    #[test]
    fn tracking_discriminator_two_detections_same_frame_same_instance() {
        let truth = truth();
        let mut d = TrackingDiscriminator::with_defaults(Arc::clone(&truth));
        // Duplicate boxes for the same instance in one frame: the first is new, the
        // second is a repeat sighting, never two new objects.
        let dets = detect_at(&truth, 100);
        let doubled = FrameDetections::new(
            100,
            vec![dets.detections[0].clone(), dets.detections[0].clone()],
        );
        let o = d.observe(&doubled);
        assert_eq!(o.d0(), 1);
        assert_eq!(o.d1(), 1);
        assert_eq!(d.distinct_count(), 1);
    }

    #[test]
    fn n1_delta_can_go_negative() {
        let truth = truth();
        let mut d = OracleDiscriminator::new();
        d.observe(&detect_at(&truth, 100));
        let o = d.observe(&detect_at(&truth, 101));
        assert_eq!(o.n1_delta(), -1);
    }

    #[test]
    fn overlapping_instances_can_be_merged_by_position_matching() {
        // Two distinct instances share the same static box over overlapping
        // intervals.  After the first is accepted, a detection of the second at an
        // overlapping frame matches the first track by IoU: the discriminator
        // reports a repeat sighting, not a new object.  This mirrors the real
        // system's behaviour (and its potential for under-counting).
        let truth = Arc::new(GroundTruth::from_instances(
            1_000,
            vec![
                ObjectInstance::simple(0, "car", 0, 500),
                ObjectInstance::simple(1, "car", 400, 900),
            ],
        ));
        let mut d = TrackingDiscriminator::with_defaults(Arc::clone(&truth));
        let o = d.observe(&detect_at(&truth, 100));
        assert_eq!(o.d0(), 1);
        // Frame 450: both instances visible with identical boxes; both detections
        // match the accepted track for instance 0.
        let o = d.observe(&detect_at(&truth, 450));
        assert_eq!(o.d0(), 0);
        assert_eq!(d.distinct_count(), 1);
    }
}
