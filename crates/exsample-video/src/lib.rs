//! # exsample-video
//!
//! A simulated video-repository substrate for the ExSample reproduction.
//!
//! ExSample (Moll et al., ICDE 2022) searches *un-indexed* video repositories: large
//! collections of video files ("clips") from dashcams, drones and fixed street
//! cameras.  The algorithm never inspects pixels itself — it asks the repository for
//! a frame, pays the cost of decoding it, and hands the decoded frame to an object
//! detector.  This crate models exactly that interface:
//!
//! * [`clip`] — a single encoded video file: its length and frame rate.
//! * [`repository`] — an ordered collection of clips with a global frame index.
//! * [`chunk`] — partitioning the repository into the temporal chunks over which
//!   ExSample maintains its per-chunk statistics (20-minute chunks for long video,
//!   one chunk per clip for short-clip datasets like BDD).
//! * [`cost`] — the throughput cost model (sequential scan vs. sampled
//!   processing).
//! * [`sampler`] — within-chunk frame samplers: uniform-without-replacement and the
//!   paper's `random+` hierarchical sampler (Section III-F).
//! * [`shard`] — assigning the chunk axis to shards: [`ShardSpec`], the
//!   round-robin or contiguous-range chunk→shard map the engine's per-shard
//!   report view groups its tallies by.
//!
//! Everything is deterministic given a seed and completely independent of any real
//! video codec: what matters for reproducing the paper is *which frame indexes are
//! read in which order and at what cost*, not the pixel contents.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chunk;
pub mod clip;
pub mod cost;
pub mod repository;
pub mod sampler;
pub mod shard;

pub use chunk::{Chunk, ChunkId, Chunking, ChunkingPolicy};
pub use clip::VideoClip;
pub use cost::DecodeCostModel;
pub use repository::VideoRepository;
pub use sampler::{FrameSampler, RandomPlusSampler, UniformSampler};
pub use shard::{ShardPartitioner, ShardSpec};

/// A global frame index into a [`VideoRepository`].
///
/// Frames are numbered consecutively across clips in clip order, starting at zero.
pub type FrameId = u64;

/// Frames per second used throughout the paper's datasets (30 fps video).
pub const DEFAULT_FPS: f64 = 30.0;
