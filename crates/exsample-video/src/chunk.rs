//! Partitioning a video repository into temporal chunks.
//!
//! ExSample maintains one `(N1_j, n_j)` statistic pair per chunk and Thompson-samples
//! over chunks, so the chunking policy is the one structural knob the user chooses
//! ahead of time (Section IV-C studies its effect).  The paper uses:
//!
//! * 20-minute chunks for the long dashcam / static-camera datasets ("drives longer
//!   than 20 minutes are split into 20 minute chunks", "about 60 chunks" for each
//!   20-hour static-camera dataset);
//! * one chunk per clip for BDD, whose clips are under a minute long (1000 chunks);
//! * a fixed chunk count (e.g. 128) for the simulation experiments of Figures 3–4.

use crate::clip::VideoClip;
use crate::repository::VideoRepository;
use crate::FrameId;

/// Identifier of a chunk within a [`Chunking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

/// A contiguous range of global frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    id: ChunkId,
    /// Global frame range `[start, end)`.
    start: FrameId,
    end: FrameId,
}

impl Chunk {
    /// Chunk identifier.
    pub(crate) fn id(&self) -> ChunkId {
        self.id
    }

    /// First global frame id of the chunk.
    pub fn start(&self) -> FrameId {
        self.start
    }

    /// One-past-the-last global frame id of the chunk.
    pub fn end(&self) -> FrameId {
        self.end
    }

    /// Number of frames in the chunk.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the chunk is empty (never true for chunks built by [`Chunking`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the chunk contains the global frame id.
    pub(crate) fn contains(&self, frame: FrameId) -> bool {
        frame >= self.start && frame < self.end
    }
}

/// How to partition a repository into chunks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkingPolicy {
    /// Split every clip into chunks of at most this many seconds (the paper's
    /// default is 20 minutes = 1200 seconds).
    FixedDuration {
        /// Maximum chunk duration in seconds.
        seconds: f64,
    },
    /// Split every clip into chunks of at most this many frames.
    FixedFrames {
        /// Maximum chunk length in frames.
        frames: u64,
    },
    /// One chunk per clip (used for the BDD datasets, whose clips are short).
    PerClip,
    /// Split the whole repository into exactly this many equal-length chunks,
    /// ignoring clip boundaries (used by the Figure 3 / Figure 4 simulations, which
    /// model the repository as one long frame axis).
    FixedCount {
        /// Total number of chunks.
        chunks: u32,
    },
}

/// A complete partition of a repository's frames into chunks.
#[derive(Debug, Clone)]
pub struct Chunking {
    chunks: Vec<Chunk>,
}

impl Chunking {
    /// Partition `repo` according to `policy`.
    ///
    /// Every frame of the repository belongs to exactly one chunk and every chunk is
    /// non-empty.
    ///
    /// # Panics
    /// Panics if the repository is empty, if `FixedCount` requests zero chunks, or if
    /// a duration/frame bound is non-positive.
    pub fn new(repo: &VideoRepository, policy: ChunkingPolicy) -> Self {
        assert!(repo.total_frames() > 0, "cannot chunk an empty repository");
        let chunks = match policy {
            ChunkingPolicy::FixedDuration { seconds } => {
                assert!(seconds > 0.0, "chunk duration must be positive");
                Self::per_clip_split(repo, |clip| ((seconds * clip.fps()).floor() as u64).max(1))
            }
            ChunkingPolicy::FixedFrames { frames } => {
                assert!(frames > 0, "chunk frame bound must be positive");
                Self::per_clip_split(repo, |_| frames)
            }
            ChunkingPolicy::PerClip => Self::per_clip_split(repo, VideoClip::frame_count),
            ChunkingPolicy::FixedCount { chunks } => {
                assert!(chunks > 0, "chunk count must be positive");
                Self::fixed_count_split(repo, u64::from(chunks))
            }
        };
        Chunking { chunks }
    }

    fn per_clip_split(repo: &VideoRepository, max_len: impl Fn(&VideoClip) -> u64) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        for (clip_index, clip) in repo.clips().iter().enumerate() {
            let clip_start = repo.clip_offset(clip_index);
            let limit = max_len(clip).max(1);
            let mut local = 0u64;
            while local < clip.frame_count() {
                let len = limit.min(clip.frame_count() - local);
                let id = ChunkId(chunks.len() as u32);
                chunks.push(Chunk {
                    id,
                    start: clip_start + local,
                    end: clip_start + local + len,
                });
                local += len;
            }
        }
        chunks
    }

    fn fixed_count_split(repo: &VideoRepository, count: u64) -> Vec<Chunk> {
        let total = repo.total_frames();
        let count = count.min(total);
        let mut chunks = Vec::with_capacity(count as usize);
        for i in 0..count {
            // Near-equal split: sizes differ by at most one, with the
            // remainder frames landing on the later chunks.
            let start = i * total / count;
            let end = (i + 1) * total / count;
            chunks.push(Chunk {
                id: ChunkId(i as u32),
                start,
                end,
            });
        }
        chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether there are no chunks (never true for a constructed chunking).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// All chunks in temporal order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The lengths (in frames) of every chunk, indexed by chunk id.
    pub fn chunk_lengths(&self) -> Vec<u64> {
        self.chunks.iter().map(Chunk::len).collect()
    }

    /// Find the chunk containing a global frame id.
    pub fn chunk_of_frame(&self, frame: FrameId) -> ChunkId {
        let idx = self.chunks.partition_point(|c| c.end <= frame);
        assert!(
            idx < self.chunks.len() && self.chunks[idx].contains(frame),
            "frame {frame} is not covered by any chunk"
        );
        self.chunks[idx].id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> VideoRepository {
        VideoRepository::from_clips(vec![
            VideoClip::new(100, 30.0),
            VideoClip::new(45, 30.0),
            VideoClip::new(250, 30.0),
        ])
    }

    fn assert_partition(repo: &VideoRepository, chunking: &Chunking) {
        // Every frame covered exactly once, chunks non-empty and ordered.
        let mut covered = 0u64;
        let mut prev_end = 0;
        for chunk in chunking.chunks() {
            assert!(!chunk.is_empty());
            assert_eq!(chunk.start(), prev_end);
            prev_end = chunk.end();
            covered += chunk.len();
        }
        assert_eq!(prev_end, repo.total_frames());
        assert_eq!(covered, repo.total_frames());
    }

    #[test]
    fn per_clip_gives_one_chunk_per_clip() {
        let r = repo();
        let c = Chunking::new(&r, ChunkingPolicy::PerClip);
        assert_eq!(c.len(), 3);
        assert_partition(&r, &c);
        assert_eq!(c.chunks()[1].start(), r.clip_offset(1));
        assert_eq!(c.chunks()[1].len(), 45);
    }

    #[test]
    fn fixed_frames_splits_within_clips() {
        let r = repo();
        let c = Chunking::new(&r, ChunkingPolicy::FixedFrames { frames: 60 });
        // clip a: 60 + 40, clip b: 45, clip c: 60*4 + 10 -> total 2 + 1 + 5 = 8 chunks.
        assert_eq!(c.len(), 8);
        assert_partition(&r, &c);
        // No chunk crosses a clip boundary.
        for chunk in c.chunks() {
            for clip in 0..r.clip_count() {
                let boundary = r.clip_offset(clip);
                assert!(!(chunk.start() < boundary && boundary < chunk.end()));
            }
        }
    }

    #[test]
    fn fixed_duration_converts_seconds_to_frames() {
        let r = repo();
        // 1 second at 30 fps = 30-frame chunks.
        let c = Chunking::new(&r, ChunkingPolicy::FixedDuration { seconds: 1.0 });
        assert_partition(&r, &c);
        assert!(c.chunks().iter().all(|ch| ch.len() <= 30));
    }

    #[test]
    fn twenty_minute_default_policy() {
        // The paper's default for long video: 20-minute (1200 s) chunks, which at
        // 30 fps split a 50-minute clip into 36 000 + 36 000 + 18 000 frames.
        let r = VideoRepository::single_clip(50 * 60 * 30);
        let c = Chunking::new(&r, ChunkingPolicy::FixedDuration { seconds: 1200.0 });
        assert_partition(&r, &c);
        assert_eq!(c.chunk_lengths(), vec![36_000, 36_000, 18_000]);
    }

    #[test]
    fn fixed_count_splits_evenly() {
        let r = repo();
        let c = Chunking::new(&r, ChunkingPolicy::FixedCount { chunks: 7 });
        assert_eq!(c.len(), 7);
        assert_partition(&r, &c);
        let lengths = c.chunk_lengths();
        let min = *lengths.iter().min().unwrap();
        let max = *lengths.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "fixed-count chunks should be within one frame of equal"
        );
    }

    #[test]
    fn fixed_count_never_exceeds_frame_count() {
        let r = VideoRepository::single_clip(5);
        let c = Chunking::new(&r, ChunkingPolicy::FixedCount { chunks: 100 });
        assert_eq!(c.len(), 5);
        assert_partition(&r, &c);
    }

    #[test]
    fn chunk_of_frame_finds_containing_chunk() {
        let r = repo();
        let c = Chunking::new(&r, ChunkingPolicy::FixedFrames { frames: 60 });
        for frame in 0..r.total_frames() {
            let id = c.chunk_of_frame(frame);
            assert!(c.chunks()[id.0 as usize].contains(frame));
        }
    }

    #[test]
    #[should_panic(expected = "empty repository")]
    fn chunking_empty_repository_panics() {
        let r = VideoRepository::new();
        let _ = Chunking::new(&r, ChunkingPolicy::PerClip);
    }

    #[test]
    #[should_panic(expected = "chunk count must be positive")]
    fn zero_chunk_count_panics() {
        let r = repo();
        let _ = Chunking::new(&r, ChunkingPolicy::FixedCount { chunks: 0 });
    }

    #[test]
    fn chunk_display() {
        assert_eq!(ChunkId(4).to_string(), "chunk4");
    }
}
