//! Ground-truth object instances.
//!
//! The paper reasons about search in terms of *instances*: one physical object
//! (a particular traffic light, a particular pedestrian) that is visible to the
//! camera for a contiguous interval of frames.  Instance `i`'s visibility duration
//! determines its probability `p_i` of being hit by a random frame sample, the core
//! quantity of Section III.  The simulated detector and the discriminator both work
//! off these instances.

use crate::bbox::BBox;
use crate::class::ObjectClass;
use exsample_video::FrameId;

/// Identifier of a ground-truth object instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// How an instance's bounding box moves over its visibility interval.
#[derive(Debug, Clone, PartialEq)]
pub enum MotionModel {
    /// The box stays put for the whole interval (typical of infrastructure seen by a
    /// fixed camera, e.g. a parked car).
    Static {
        /// The box in every visible frame.
        bbox: BBox,
    },
    /// The box interpolates linearly from `start` to `end` over the interval
    /// (typical of objects passing a fixed camera, or infrastructure approached by a
    /// dashcam).
    Linear {
        /// Box in the first visible frame.
        start: BBox,
        /// Box in the last visible frame.
        end: BBox,
    },
}

impl MotionModel {
    /// The box at interpolation parameter `t` in `[0, 1]` across the interval.
    pub(crate) fn bbox_at(&self, t: f64) -> BBox {
        let t = t.clamp(0.0, 1.0);
        match self {
            MotionModel::Static { bbox } => *bbox,
            MotionModel::Linear { start, end } => BBox::new(
                start.x + t * (end.x - start.x),
                start.y + t * (end.y - start.y),
                start.w + t * (end.w - start.w),
                start.h + t * (end.h - start.h),
            ),
        }
    }
}

/// A ground-truth object instance: one distinct result of a distinct-object query.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInstance {
    id: InstanceId,
    class: ObjectClass,
    /// First global frame in which the object is visible.
    first_frame: FrameId,
    /// Last global frame (inclusive) in which the object is visible.
    last_frame: FrameId,
    motion: MotionModel,
    /// Per-frame probability that a detector of nominal quality actually fires on
    /// this instance when it is visible (models small/occluded objects).
    detectability: f64,
}

impl ObjectInstance {
    /// Create an instance visible over `[first_frame, last_frame]` (inclusive).
    ///
    /// # Panics
    /// Panics if the interval is inverted or `detectability` is outside `[0, 1]`.
    pub fn new(
        id: InstanceId,
        class: ObjectClass,
        first_frame: FrameId,
        last_frame: FrameId,
        motion: MotionModel,
        detectability: f64,
    ) -> Self {
        assert!(
            last_frame >= first_frame,
            "instance interval is inverted: [{first_frame}, {last_frame}]"
        );
        assert!(
            (0.0..=1.0).contains(&detectability),
            "detectability must be a probability, got {detectability}"
        );
        ObjectInstance {
            id,
            class,
            first_frame,
            last_frame,
            motion,
            detectability,
        }
    }

    /// Convenience constructor: a fully detectable static instance.
    pub fn simple(
        id: u64,
        class: impl Into<ObjectClass>,
        first_frame: FrameId,
        last_frame: FrameId,
    ) -> Self {
        ObjectInstance::new(
            InstanceId(id),
            class.into(),
            first_frame,
            last_frame,
            MotionModel::Static {
                bbox: BBox::new(0.4, 0.4, 0.2, 0.2),
            },
            1.0,
        )
    }

    /// Instance identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Object class.
    pub fn class(&self) -> &ObjectClass {
        &self.class
    }

    /// First visible frame.
    pub fn first_frame(&self) -> FrameId {
        self.first_frame
    }

    /// Last visible frame (inclusive).
    pub fn last_frame(&self) -> FrameId {
        self.last_frame
    }

    /// Number of frames the instance is visible for.
    pub fn duration(&self) -> u64 {
        self.last_frame - self.first_frame + 1
    }

    /// Per-frame detection probability when visible.
    pub(crate) fn detectability(&self) -> f64 {
        self.detectability
    }

    /// Whether the instance is visible in `frame`.
    pub fn visible_at(&self, frame: FrameId) -> bool {
        frame >= self.first_frame && frame <= self.last_frame
    }

    /// The instance's bounding box in `frame`, or `None` if not visible there.
    pub fn bbox_at(&self, frame: FrameId) -> Option<BBox> {
        if !self.visible_at(frame) {
            return None;
        }
        let t = if self.duration() == 1 {
            0.0
        } else {
            (frame - self.first_frame) as f64 / (self.duration() - 1) as f64
        };
        Some(self.motion.bbox_at(t))
    }

    /// The probability `p_i` of hitting this instance with one uniform frame sample
    /// from a range of `total_frames` frames (Section III-A).
    pub fn hit_probability(&self, total_frames: u64) -> f64 {
        assert!(total_frames > 0);
        self.duration() as f64 / total_frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_inclusive() {
        let i = ObjectInstance::simple(1, "car", 10, 10);
        assert_eq!(i.duration(), 1);
        let i = ObjectInstance::simple(1, "car", 10, 19);
        assert_eq!(i.duration(), 10);
    }

    #[test]
    fn visibility_interval() {
        let i = ObjectInstance::simple(1, "car", 100, 200);
        assert!(!i.visible_at(99));
        assert!(i.visible_at(100));
        assert!(i.visible_at(150));
        assert!(i.visible_at(200));
        assert!(!i.visible_at(201));
    }

    #[test]
    fn static_motion_box_is_constant() {
        let i = ObjectInstance::simple(1, "car", 0, 9);
        assert_eq!(i.bbox_at(0), i.bbox_at(9));
        assert_eq!(i.bbox_at(100), None);
    }

    #[test]
    fn linear_motion_interpolates() {
        let start = BBox::new(0.0, 0.0, 0.1, 0.1);
        let end = BBox::new(0.8, 0.4, 0.1, 0.1);
        let i = ObjectInstance::new(
            InstanceId(2),
            ObjectClass::from("bus"),
            0,
            10,
            MotionModel::Linear { start, end },
            1.0,
        );
        let mid = i.bbox_at(5).unwrap();
        assert!((mid.x - 0.4).abs() < 1e-12);
        assert!((mid.y - 0.2).abs() < 1e-12);
        assert_eq!(i.bbox_at(0).unwrap(), start);
        assert_eq!(i.bbox_at(10).unwrap(), end);
    }

    #[test]
    fn single_frame_linear_motion_does_not_divide_by_zero() {
        let i = ObjectInstance::new(
            InstanceId(3),
            ObjectClass::from("dog"),
            7,
            7,
            MotionModel::Linear {
                start: BBox::new(0.0, 0.0, 0.1, 0.1),
                end: BBox::new(0.5, 0.5, 0.1, 0.1),
            },
            1.0,
        );
        assert_eq!(i.bbox_at(7).unwrap(), BBox::new(0.0, 0.0, 0.1, 0.1));
    }

    #[test]
    fn hit_probability_is_duration_over_total() {
        let i = ObjectInstance::simple(1, "car", 0, 299);
        assert!((i.hit_probability(3000) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        let _ = ObjectInstance::simple(1, "car", 10, 9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_detectability_panics() {
        let _ = ObjectInstance::new(
            InstanceId(1),
            ObjectClass::from("car"),
            0,
            1,
            MotionModel::Static {
                bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
            },
            1.5,
        );
    }

    #[test]
    fn display_of_instance_id() {
        assert_eq!(InstanceId(12).to_string(), "obj12");
    }
}
