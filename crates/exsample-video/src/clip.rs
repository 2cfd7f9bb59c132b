//! A single encoded video clip.

use crate::DEFAULT_FPS;

/// A single encoded video file.
///
/// The sampling pipeline only needs a clip's length: it places the clip on
/// the repository's global frame axis.  Every clip plays at [`DEFAULT_FPS`],
/// which converts duration-based chunk sizes into frames.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoClip {
    frame_count: u64,
}

impl VideoClip {
    /// Create a clip of `frame_count` frames at the paper's default frame
    /// rate (30 fps).
    ///
    /// # Panics
    /// Panics if `frame_count == 0`.
    pub fn with_defaults(frame_count: u64) -> Self {
        assert!(frame_count > 0, "a clip must contain at least one frame");
        VideoClip { frame_count }
    }

    /// Number of frames in the clip.
    pub(crate) fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Duration of the clip in seconds.
    pub(crate) fn duration_secs(&self) -> f64 {
        self.frame_count as f64 / DEFAULT_FPS
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
