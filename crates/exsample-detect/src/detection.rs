//! Detections: the output of an object detector on one frame.

use crate::bbox::BBox;
use crate::class::ObjectClass;
use crate::instance::InstanceId;
use exsample_video::FrameId;

/// One detection produced by an object detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Bounding box of the detection in normalised frame coordinates.
    pub bbox: BBox,
    /// Predicted object class.
    pub class: ObjectClass,
    /// Detector confidence score in `[0, 1]`.
    pub score: f64,
    /// Ground-truth instance this detection corresponds to, if any.
    ///
    /// Populated by the simulated detector so that experiments can compute exact
    /// recall; `None` for false positives.  A real detector would always report
    /// `None` here — nothing in the sampling pipeline reads this field, it exists
    /// purely for evaluation.
    pub truth: Option<InstanceId>,
}

impl Detection {
    /// Create a detection without ground-truth linkage.
    pub fn new(bbox: BBox, class: ObjectClass, score: f64) -> Self {
        Detection {
            bbox,
            class,
            score,
            truth: None,
        }
    }

    /// Create a detection linked to a ground-truth instance.
    pub(crate) fn with_truth(
        bbox: BBox,
        class: ObjectClass,
        score: f64,
        truth: InstanceId,
    ) -> Self {
        Detection {
            bbox,
            class,
            score,
            truth: Some(truth),
        }
    }
}

/// All detections produced for a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDetections {
    /// The frame the detector was run on.
    pub frame: FrameId,
    /// Detections in no particular order.
    pub detections: Vec<Detection>,
}

impl FrameDetections {
    /// Create an empty result for a frame.
    pub fn empty(frame: FrameId) -> Self {
        FrameDetections {
            frame,
            detections: Vec::new(),
        }
    }

    /// Create a result from a list of detections.
    pub fn new(frame: FrameId, detections: Vec<Detection>) -> Self {
        FrameDetections { frame, detections }
    }

    /// Number of detections.
    pub fn len(&self) -> usize {
        self.detections.len()
    }

    /// Whether the detector found nothing.
    pub fn is_empty(&self) -> bool {
        self.detections.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(class: &str, score: f64) -> Detection {
        Detection::new(
            BBox::new(0.1, 0.1, 0.2, 0.2),
            ObjectClass::from(class),
            score,
        )
    }

    #[test]
    fn false_positive_flag() {
        let fp = det("car", 0.5);
        assert_eq!(fp.truth, None);
        let tp = Detection::with_truth(
            BBox::new(0.0, 0.0, 0.1, 0.1),
            ObjectClass::from("car"),
            0.9,
            InstanceId(3),
        );
        assert_eq!(tp.truth, Some(InstanceId(3)));
    }

    #[test]
    fn empty_frame_result() {
        let fd = FrameDetections::empty(42);
        assert!(fd.is_empty());
        assert_eq!(fd.len(), 0);
        assert_eq!(fd.frame, 42);
        let fd = FrameDetections::new(5, vec![det("car", 0.9), det("bus", 0.8)]);
        assert_eq!(fd.len(), 2);
        assert!(!fd.is_empty());
    }
}
