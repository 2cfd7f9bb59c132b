//! A repository of video clips with a global frame index.

use crate::clip::VideoClip;
use crate::FrameId;

/// An ordered collection of video clips forming one searchable repository.
///
/// Global frame ids run consecutively across clips in insertion order; this is the
/// coordinate system in which chunks, ground-truth object instances and sampling
/// decisions are all expressed.
#[derive(Debug, Clone, Default)]
pub struct VideoRepository {
    clips: Vec<VideoClip>,
    /// `offsets[i]` is the global frame id of the first frame of `clips[i]`.
    offsets: Vec<FrameId>,
    total_frames: u64,
}

impl VideoRepository {
    /// Create an empty repository.
    pub(crate) fn new() -> Self {
        VideoRepository::default()
    }

    /// Create a repository from a list of clips.
    pub fn from_clips(clips: Vec<VideoClip>) -> Self {
        let mut repo = VideoRepository::new();
        for clip in clips {
            repo.push_clip(clip);
        }
        repo
    }

    /// Convenience constructor: a repository consisting of a single clip of
    /// `frame_count` frames with default encoding parameters.
    pub fn single_clip(frame_count: u64) -> Self {
        VideoRepository::from_clips(vec![VideoClip::with_defaults(frame_count)])
    }

    /// Append a clip to the repository.
    pub(crate) fn push_clip(&mut self, clip: VideoClip) {
        self.offsets.push(self.total_frames);
        self.total_frames += clip.frame_count();
        self.clips.push(clip);
    }

    /// Number of clips.
    pub fn clip_count(&self) -> usize {
        self.clips.len()
    }

    /// All clips in order.
    pub(crate) fn clips(&self) -> &[VideoClip] {
        &self.clips
    }

    /// Total number of frames across all clips.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Total duration of the repository in seconds.
    pub(crate) fn total_duration_secs(&self) -> f64 {
        self.clips.iter().map(VideoClip::duration_secs).sum()
    }

    /// Total duration of the repository in hours.
    pub fn total_duration_hours(&self) -> f64 {
        self.total_duration_secs() / 3600.0
    }

    /// The global frame id of the first frame of clip `index`.
    pub(crate) fn clip_offset(&self, index: usize) -> FrameId {
        self.offsets[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> VideoRepository {
        VideoRepository::from_clips(vec![
            VideoClip::with_defaults(100),
            VideoClip::with_defaults(50),
            VideoClip::with_defaults(200),
        ])
    }

    #[test]
    fn total_frames_and_offsets() {
        let r = repo();
        assert_eq!(r.total_frames(), 350);
        assert_eq!(r.clip_offset(0), 0);
        assert_eq!(r.clip_offset(1), 100);
        assert_eq!(r.clip_offset(2), 150);
    }

    #[test]
    fn duration_sums_clips() {
        let r = repo();
        assert!((r.total_duration_secs() - 350.0 / 30.0).abs() < 1e-9);
        assert!((r.total_duration_hours() - 350.0 / 30.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn single_clip_constructor() {
        let r = VideoRepository::single_clip(1_000);
        assert_eq!(r.clip_count(), 1);
        assert_eq!(r.total_frames(), 1_000);
    }

    #[test]
    fn empty_repository() {
        let r = VideoRepository::new();
        assert_eq!(r.total_frames(), 0);
        assert_eq!(r.clip_count(), 0);
        assert_eq!(r.total_duration_secs(), 0.0);
    }
}
