//! A single encoded video clip.

use crate::DEFAULT_FPS;

/// A single encoded video file.
///
/// The sampling pipeline only needs a clip's length and frame rate: the length
/// places it on the repository's global frame axis, and the frame rate converts
/// duration-based chunk sizes into frames.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoClip {
    frame_count: u64,
    fps: f64,
}

impl VideoClip {
    /// Create a clip with explicit parameters.
    ///
    /// # Panics
    /// Panics if `frame_count == 0` or `fps <= 0`.
    pub(crate) fn new(frame_count: u64, fps: f64) -> Self {
        assert!(frame_count > 0, "a clip must contain at least one frame");
        assert!(fps > 0.0, "fps must be positive");
        VideoClip { frame_count, fps }
    }

    /// Create a clip with the paper's default frame rate (30 fps).
    pub fn with_defaults(frame_count: u64) -> Self {
        VideoClip::new(frame_count, DEFAULT_FPS)
    }

    /// Number of frames in the clip.
    pub(crate) fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Frames per second.
    pub(crate) fn fps(&self) -> f64 {
        self.fps
    }

    /// Duration of the clip in seconds.
    pub(crate) fn duration_secs(&self) -> f64 {
        self.frame_count as f64 / self.fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = VideoClip::with_defaults(0);
    }
}
