//! Naive sequential execution.
//!
//! "A straightforward method is to process frames sequentially, applying the object
//! detector on each frame of each video […] A natural extension is to sample only
//! one out of every n frames."  (Section II-B.)  Sequential execution exhibits high
//! variance: it can get stuck in long stretches of video with no objects, and
//! repeatedly detects the same long-lived object.

use exsample_video::FrameId;

/// Process frames in temporal order, visiting one frame out of every `stride`.
#[derive(Debug, Clone)]
pub struct SequentialScan {
    total_frames: u64,
    stride: u64,
    next: u64,
}

impl SequentialScan {
    /// Scan one frame out of every `stride` (e.g. `stride = 30` is one frame per
    /// second of 30 fps video).
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn with_stride(total_frames: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        SequentialScan {
            total_frames,
            stride,
            next: 0,
        }
    }

    /// The next frame in temporal order, or `None` past the last frame.
    pub fn next_frame(&mut self) -> Option<FrameId> {
        if self.next >= self.total_frames {
            return None;
        }
        let frame = self.next;
        self.next += self.stride;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_frame_in_order() {
        let mut scan = SequentialScan::with_stride(5, 1);
        let frames: Vec<FrameId> = std::iter::from_fn(|| scan.next_frame()).collect();
        assert_eq!(frames, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stride_skips_frames() {
        let mut scan = SequentialScan::with_stride(10, 3);
        let frames: Vec<FrameId> = std::iter::from_fn(|| scan.next_frame()).collect();
        assert_eq!(frames, vec![0, 3, 6, 9]);
    }

    #[test]
    fn empty_repository_yields_nothing() {
        let mut scan = SequentialScan::with_stride(0, 1);
        assert_eq!(scan.next_frame(), None);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = SequentialScan::with_stride(10, 0);
    }
}
