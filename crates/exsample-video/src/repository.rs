//! A repository of video clips with a global frame index.

use crate::clip::{ClipId, VideoClip};
use crate::FrameId;

/// Resolution of a global frame id into (clip, local frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Which clip the frame belongs to.
    pub clip: ClipId,
    /// Index of the clip within the repository's clip list.
    pub clip_index: usize,
    /// Frame index within the clip (0-based).
    pub local_frame: u64,
    /// The original global frame id.
    pub global_frame: FrameId,
}

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
        VideoRepository::from_clips(vec![VideoClip::with_defaults(ClipId(0), frame_count)])
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

    /// Resolve a global frame id into a [`FrameRef`].
    ///
    /// # Panics
    /// Panics if `frame` is out of range.
    pub fn resolve(&self, frame: FrameId) -> FrameRef {
        assert!(
            frame < self.total_frames,
            "frame {frame} out of range (repository has {} frames)",
            self.total_frames
        );
        // Binary search over clip offsets: partition_point returns the first clip
        // whose offset is greater than `frame`, so the containing clip is one less.
        let idx = self.offsets.partition_point(|&off| off <= frame) - 1;
        FrameRef {
            clip: self.clips[idx].id(),
            clip_index: idx,
            local_frame: frame - self.offsets[idx],
            global_frame: frame,
        }
    }

    /// Number of frames that must be decoded to materialise `frame` via random
    /// access (see [`VideoClip::random_access_decode_frames`]).
    pub fn random_access_decode_frames(&self, frame: FrameId) -> u64 {
        let r = self.resolve(frame);
        self.clips[r.clip_index].random_access_decode_frames(r.local_frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> VideoRepository {
        VideoRepository::from_clips(vec![
            VideoClip::with_defaults(ClipId(0), 100),
            VideoClip::with_defaults(ClipId(1), 50),
            VideoClip::with_defaults(ClipId(2), 200),
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
    fn resolve_maps_global_to_local() {
        let r = repo();
        let f = r.resolve(0);
        assert_eq!((f.clip_index, f.local_frame), (0, 0));
        let f = r.resolve(99);
        assert_eq!((f.clip_index, f.local_frame), (0, 99));
        let f = r.resolve(100);
        assert_eq!((f.clip_index, f.local_frame), (1, 0));
        assert_eq!(f.clip, ClipId(1));
        let f = r.resolve(349);
        assert_eq!((f.clip_index, f.local_frame), (2, 199));
        assert_eq!(f.global_frame, 349);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn resolve_out_of_range_panics() {
        repo().resolve(350);
    }

    #[test]
    fn resolve_round_trips_for_all_frames() {
        let r = repo();
        for frame in 0..r.total_frames() {
            let f = r.resolve(frame);
            assert_eq!(r.clip_offset(f.clip_index) + f.local_frame, frame);
        }
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
    fn decode_cost_respects_clip_boundaries() {
        let r = repo();
        // Frame 100 is local frame 0 of clip 1 -> keyframe -> cost 1.
        assert_eq!(r.random_access_decode_frames(100), 1);
        // Frame 119 is local frame 19 of clip 1 -> cost 20.
        assert_eq!(r.random_access_decode_frames(119), 20);
    }

    #[test]
    fn empty_repository() {
        let r = VideoRepository::new();
        assert_eq!(r.total_frames(), 0);
        assert_eq!(r.clip_count(), 0);
        assert_eq!(r.total_duration_secs(), 0.0);
    }
}
