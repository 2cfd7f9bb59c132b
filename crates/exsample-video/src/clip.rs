//! A single encoded video clip.

use crate::{DEFAULT_FPS, DEFAULT_GOP};

/// Identifier of a clip within a [`crate::VideoRepository`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClipId(pub u32);

impl std::fmt::Display for ClipId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "clip{}", self.0)
    }
}

/// A single encoded video file.
///
/// The only encoding property that matters to the sampling pipeline is the GOP
/// (group-of-pictures) structure: decoding a random frame requires decoding forward
/// from the nearest preceding keyframe, so the keyframe interval bounds the cost of
/// random access.  The paper re-encodes all its datasets with a keyframe every 20
/// frames precisely to keep this cost low.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoClip {
    id: ClipId,
    frame_count: u64,
    fps: f64,
    gop_size: u32,
}

impl VideoClip {
    /// Create a clip with explicit parameters.
    ///
    /// # Panics
    /// Panics if `frame_count == 0`, `fps <= 0`, or `gop_size == 0`.
    pub(crate) fn new(id: ClipId, frame_count: u64, fps: f64, gop_size: u32) -> Self {
        assert!(frame_count > 0, "a clip must contain at least one frame");
        assert!(fps > 0.0, "fps must be positive");
        assert!(gop_size > 0, "GOP size must be positive");
        VideoClip {
            id,
            frame_count,
            fps,
            gop_size,
        }
    }

    /// Create a clip with the paper's defaults (30 fps, keyframe every 20 frames).
    pub fn with_defaults(id: ClipId, frame_count: u64) -> Self {
        VideoClip::new(id, frame_count, DEFAULT_FPS, DEFAULT_GOP)
    }

    /// Create a clip of the given duration in seconds with the paper's defaults.
    pub fn from_duration_secs(id: ClipId, seconds: f64) -> Self {
        let frames = (seconds * DEFAULT_FPS).round().max(1.0) as u64;
        VideoClip::with_defaults(id, frames)
    }

    /// Clip identifier.
    pub fn id(&self) -> ClipId {
        self.id
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

    /// Whether the local frame index is a keyframe.
    pub fn is_keyframe(&self, local_frame: u64) -> bool {
        local_frame.is_multiple_of(u64::from(self.gop_size))
    }

    /// Number of frames that must be decoded to materialise `local_frame` when
    /// seeking to it cold (i.e. not already positioned on the previous frame).
    ///
    /// Decoding must start at the nearest preceding keyframe, so the cost is the
    /// offset within the GOP plus one (for the target frame itself).
    pub fn random_access_decode_frames(&self, local_frame: u64) -> u64 {
        assert!(
            local_frame < self.frame_count,
            "frame {local_frame} out of range for clip with {} frames",
            self.frame_count
        );
        local_frame % u64::from(self.gop_size) + 1
    }

    /// Convert a local frame index to a timestamp in seconds from the clip start.
    pub fn frame_to_secs(&self, local_frame: u64) -> f64 {
        local_frame as f64 / self.fps
    }

    /// Convert a timestamp (seconds from clip start) to the local frame index,
    /// clamped to the clip's range.
    pub fn secs_to_frame(&self, secs: f64) -> u64 {
        if secs <= 0.0 {
            return 0;
        }
        ((secs * self.fps) as u64).min(self.frame_count - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip() -> VideoClip {
        VideoClip::new(ClipId(3), 100, 30.0, 20)
    }

    #[test]
    fn keyframes_every_gop() {
        let c = clip();
        assert!(c.is_keyframe(0));
        assert!(c.is_keyframe(20));
        assert!(c.is_keyframe(80));
        assert!(!c.is_keyframe(1));
        assert!(!c.is_keyframe(19));
    }

    #[test]
    fn random_access_cost_is_offset_in_gop_plus_one() {
        let c = clip();
        assert_eq!(c.random_access_decode_frames(0), 1);
        assert_eq!(c.random_access_decode_frames(19), 20);
        assert_eq!(c.random_access_decode_frames(20), 1);
        assert_eq!(c.random_access_decode_frames(39), 20);
        assert_eq!(c.random_access_decode_frames(99), 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn random_access_out_of_range_panics() {
        clip().random_access_decode_frames(100);
    }

    #[test]
    fn duration_and_timestamp_round_trip() {
        let c = clip();
        assert!((c.duration_secs() - 100.0 / 30.0).abs() < 1e-12);
        assert_eq!(c.secs_to_frame(c.frame_to_secs(57)), 57);
        assert_eq!(c.secs_to_frame(0.0), 0);
        assert_eq!(c.secs_to_frame(1e9), 99);
        assert_eq!(c.secs_to_frame(-5.0), 0);
    }

    #[test]
    fn from_duration_secs_rounds_to_frames() {
        let c = VideoClip::from_duration_secs(ClipId(0), 10.0);
        assert_eq!(c.frame_count(), 300);
        let c = VideoClip::from_duration_secs(ClipId(0), 0.001);
        assert_eq!(c.frame_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = VideoClip::with_defaults(ClipId(0), 0);
    }

    #[test]
    fn display_of_clip_id() {
        assert_eq!(ClipId(7).to_string(), "clip7");
    }
}
