//! The [`SamplingPolicy`] trait and its implementations.
//!
//! Every sampling strategy in the workspace — ExSample itself, the
//! whole-repository `random`/`random+` samplers, the sequential scan and the
//! proxy order — speaks this one object-safe interface to the engine:
//! *fill a batch of global frame ids* / *hear back what the discriminator
//! said about a frame* / *report how many frames are left*.  The engine
//! never learns which strategy it is driving, which is what lets one
//! [`crate::QueryEngine`] multiplex heterogeneous queries over a shared
//! repository.
//!
//! * [`ExSamplePolicy`] — wraps [`ExSample`] over a concrete [`Chunking`],
//!   translating `(chunk, offset)` picks into global frame ids and routing
//!   feedback back to the sampled chunk.  Batch 1 takes the exact single-pick
//!   hot path, so an engine running batch 1 consumes the same RNG stream as
//!   the paper's per-frame loop, pick for pick.
//! * [`FrameSamplerPolicy`] — lifts any within-range [`FrameSampler`]
//!   (uniform without replacement, `random+`) to a whole-repository policy.
//! * [`SequentialScan`] and [`ProxyBaseline`] — the `exsample-baselines`
//!   frame orders, which draw no randomness and ignore feedback.

use crate::error::{ChunkCountMismatch, EngineError};
use exsample_baselines::{ProxyBaseline, SequentialScan};
use exsample_core::{ExSample, ExSampleConfig, FramePick, SelectionTelemetry};
use exsample_track::MatchOutcome;
use exsample_video::{Chunking, FrameId, FrameSampler, RandomPlusSampler, UniformSampler};
use rand::RngCore;

/// An object-safe sampling strategy, as seen by the execution engine.
///
/// Implementations hand out each frame of their range at most once (the
/// without-replacement contract every underlying sampler already obeys), and
/// must tolerate [`SamplingPolicy::record`] calls for any frame they produced,
/// in production order.
///
/// A policy is `Send` because under
/// [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel) the engine
/// moves each live query's policy, with its RNG, to a worker lane for the
/// stage's PICK and takes it back before FAN-OUT.  It is never shared: one
/// thread at a time calls it, and every call of a query still sees the
/// query's own state in the serial order, so where a pick runs never changes
/// what it picks.
pub trait SamplingPolicy: Send {
    /// Short human-readable name ("exsample", "random", …), used in reports.
    fn name(&self) -> &'static str;

    /// Frames that must be scanned (decoded + proxy-scored) before the policy
    /// can produce its first pick.  Non-zero only for proxy-style policies.
    fn upfront_scan_frames(&self) -> u64 {
        0
    }

    /// Clear `picks` and fill it with up to `batch` global frame ids to process
    /// in one engine stage.  Producing fewer than `batch` picks signals that
    /// the repository is (about to be) exhausted; producing none ends the
    /// query.
    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>);

    /// Feed back the discriminator outcome for a frame previously produced by
    /// [`SamplingPolicy::next_batch_into`].
    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome);

    /// Number of frames the policy can still produce, if it knows it.
    fn remaining(&self) -> Option<u64>;

    /// Chunk-selection telemetry (class-max vs per-chunk picks, dedup
    /// savings), for policies that track it.  `None` for policies without a
    /// chunk-selection step; the default.
    fn selection_telemetry(&self) -> Option<SelectionTelemetry> {
        None
    }
}

/// ExSample adapted to the engine interface.
#[derive(Debug)]
pub struct ExSamplePolicy {
    sampler: ExSample,
    chunk_starts: Vec<u64>,
    chunk_ends: Vec<u64>,
    scratch: Vec<FramePick>,
}

impl ExSamplePolicy {
    /// Build a fresh sampler for `chunking` with the given configuration.
    pub fn new(config: ExSampleConfig, chunking: &Chunking) -> Self {
        let sampler = ExSample::new(config, &chunking.chunk_lengths());
        ExSamplePolicy::from_sampler(sampler, chunking)
            .expect("sampler was built from this chunking")
    }

    /// Wrap an already-configured sampler (for example one whose posterior
    /// was seeded from a belief store).
    ///
    /// # Errors
    /// Returns [`EngineError::ChunkCountMismatch`] if the sampler's chunk count
    /// does not match `chunking`.
    pub fn from_sampler(sampler: ExSample, chunking: &Chunking) -> Result<Self, EngineError> {
        let chunk_count = sampler.chunk_count();
        if chunk_count != chunking.len() {
            return Err(ChunkCountMismatch {
                sampler_chunks: chunk_count,
                chunking_chunks: chunking.len(),
            }
            .into());
        }
        Ok(ExSamplePolicy {
            sampler,
            chunk_starts: chunking.chunks().iter().map(|c| c.start()).collect(),
            chunk_ends: chunking.chunks().iter().map(|c| c.end()).collect(),
            scratch: Vec::new(),
        })
    }

    /// Which chunk a global frame id belongs to.
    ///
    /// # Panics
    /// Panics if `frame` lies outside the chunking, which can only happen when
    /// feedback is routed to the wrong policy.
    fn chunk_of(&self, frame: FrameId) -> usize {
        match self.chunk_ends.partition_point(|&end| end <= frame) {
            idx if idx < self.chunk_starts.len() && frame >= self.chunk_starts[idx] => idx,
            _ => panic!("frame {frame} is not covered by the chunking"),
        }
    }
}

impl SamplingPolicy for ExSamplePolicy {
    fn name(&self) -> &'static str {
        "exsample"
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        picks.clear();
        if batch == 1 {
            // The direct single-pick path: identical RNG consumption to the
            // paper's per-frame loop, which is what makes a batch-1 engine
            // run reproduce that loop pick for pick.
            if let Some(pick) = self.sampler.next_frame(rng) {
                picks.push(self.chunk_starts[pick.chunk] + pick.offset);
            }
            return;
        }
        self.sampler.next_batch_into(rng, batch, &mut self.scratch);
        picks.extend(
            self.scratch
                .iter()
                .map(|p| self.chunk_starts[p.chunk] + p.offset),
        );
    }

    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome) {
        let chunk = self.chunk_of(frame);
        self.sampler.record(chunk, outcome.n1_delta());
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.sampler.remaining_frames())
    }

    fn selection_telemetry(&self) -> Option<SelectionTelemetry> {
        Some(self.sampler.selection_telemetry())
    }
}

/// A whole-repository [`FrameSampler`] as a sampling policy.
///
/// The global `random` and `random+` baselines are exactly the within-chunk
/// samplers applied to the repository as a single range, so this adapter (plus
/// the shared without-replacement bookkeeping inside `exsample-video`) replaces
/// the per-baseline wrapper types.
#[derive(Debug, Clone)]
pub struct FrameSamplerPolicy<S: FrameSampler> {
    name: &'static str,
    inner: S,
}

impl FrameSamplerPolicy<UniformSampler> {
    /// Uniform random sampling without replacement over `0..total_frames`.
    pub fn uniform(total_frames: u64) -> Self {
        FrameSamplerPolicy {
            name: "random",
            inner: UniformSampler::new(total_frames),
        }
    }
}

impl FrameSamplerPolicy<RandomPlusSampler> {
    /// `random+` hierarchical sampling over `0..total_frames`.
    pub fn random_plus(total_frames: u64) -> Self {
        FrameSamplerPolicy {
            name: "random+",
            inner: RandomPlusSampler::new(total_frames),
        }
    }
}

/// Batching shim for pick-at-a-time sources: clear `picks`, then draw up to
/// `batch` frames, stopping early when the source runs dry.
fn fill_batch(batch: usize, picks: &mut Vec<FrameId>, next: impl FnMut() -> Option<FrameId>) {
    picks.clear();
    picks.extend(std::iter::from_fn(next).take(batch));
}

impl<S: FrameSampler + Send> SamplingPolicy for FrameSamplerPolicy<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        fill_batch(batch, picks, || self.inner.next_frame(rng))
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}

    fn remaining(&self) -> Option<u64> {
        Some(self.inner.remaining())
    }
}

/// Sequential scan: frames in temporal order, one out of every `stride`.
impl SamplingPolicy for SequentialScan {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn next_batch_into(&mut self, _rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        fill_batch(batch, picks, || self.next_frame())
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}

    fn remaining(&self) -> Option<u64> {
        None
    }
}

/// Proxy order: every frame scored upfront, then frames by descending score.
impl SamplingPolicy for ProxyBaseline {
    fn name(&self) -> &'static str {
        "proxy"
    }

    fn upfront_scan_frames(&self) -> u64 {
        ProxyBaseline::upfront_scan_frames(self)
    }

    fn next_batch_into(&mut self, _rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        fill_batch(batch, picks, || self.next_frame())
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}

    fn remaining(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_baselines::ProxyConfig;
    use exsample_detect::{GroundTruth, ObjectClass, ObjectInstance};
    use exsample_video::{ChunkingPolicy, VideoRepository};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn chunking(frames: u64, chunks: u32) -> Chunking {
        let repo = VideoRepository::single_clip(frames);
        Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks })
    }

    #[test]
    fn exsample_policy_batch_one_matches_raw_sampler_stream() {
        let chunking = chunking(10_000, 8);
        let mut policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        let mut raw = ExSample::new(ExSampleConfig::default(), &chunking.chunk_lengths());
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut picks = Vec::new();
        for _ in 0..500 {
            policy.next_batch_into(&mut rng_a, 1, &mut picks);
            let pick = raw.next_frame(&mut rng_b).unwrap();
            let frame = chunking.chunks()[pick.chunk].start() + pick.offset;
            assert_eq!(picks, vec![frame]);
            policy.record(frame, &MatchOutcome::default());
            raw.record(pick.chunk, 0);
        }
    }

    #[test]
    fn exsample_policy_feedback_reaches_the_right_chunk() {
        let chunking = chunking(1_000, 4);
        let mut policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        // Frame 900 belongs to chunk 3.
        policy.record(
            900,
            &MatchOutcome {
                new: Vec::new(),
                matched_once: Vec::new(),
                matched_more: Vec::new(),
            },
        );
        assert_eq!(policy.sampler.stats().chunk(3).samples(), 1);
    }

    #[test]
    fn exsample_policy_rejects_mismatched_chunking() {
        let chunking = chunking(1_000, 4);
        let sampler = ExSample::new(ExSampleConfig::default(), &[10, 10]);
        let err = ExSamplePolicy::from_sampler(sampler, &chunking).unwrap_err();
        assert!(matches!(err, EngineError::ChunkCountMismatch(_)));
    }

    #[test]
    fn exsample_policy_batched_picks_are_distinct_and_exhaustive() {
        let chunking = chunking(64, 4);
        let mut policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        let mut rng = StdRng::seed_from_u64(7);
        let mut picks = Vec::new();
        let mut seen = HashSet::new();
        loop {
            policy.next_batch_into(&mut rng, 10, &mut picks);
            if picks.is_empty() {
                break;
            }
            for &frame in &picks {
                assert!(frame < 64);
                assert!(seen.insert(frame), "frame {frame} produced twice");
            }
        }
        assert_eq!(seen.len(), 64);
        assert_eq!(policy.remaining(), Some(0));
    }

    #[test]
    fn frame_sampler_policy_covers_range_without_repeats() {
        let policies: [Box<dyn SamplingPolicy>; 2] = [
            Box::new(FrameSamplerPolicy::uniform(300)),
            Box::new(FrameSamplerPolicy::random_plus(300)),
        ];
        for mut policy in policies {
            assert_eq!(policy.upfront_scan_frames(), 0);
            let mut rng = StdRng::seed_from_u64(9);
            let mut picks = Vec::new();
            let mut seen = HashSet::new();
            loop {
                policy.next_batch_into(&mut rng, 32, &mut picks);
                if picks.is_empty() {
                    break;
                }
                for &f in &picks {
                    assert!(f < 300);
                    assert!(seen.insert(f));
                    // Feedback is ignored: it never shrinks the pool.
                    let before = policy.remaining();
                    policy.record(f, &MatchOutcome::default());
                    assert_eq!(policy.remaining(), before);
                }
            }
            assert_eq!(seen.len(), 300, "policy {}", policy.name());
            assert_eq!(policy.remaining(), Some(0));
        }
        assert_eq!(FrameSamplerPolicy::uniform(10).name(), "random");
        assert_eq!(FrameSamplerPolicy::random_plus(10).name(), "random+");
    }

    #[test]
    fn method_policy_delegates_name_cost_and_order() {
        let mut policy = SequentialScan::with_stride(10, 3);
        assert_eq!(SamplingPolicy::name(&policy), "sequential");
        assert_eq!(SamplingPolicy::upfront_scan_frames(&policy), 0);
        assert_eq!(policy.remaining(), None);
        let mut rng = StdRng::seed_from_u64(11);
        let mut picks = Vec::new();
        policy.next_batch_into(&mut rng, 8, &mut picks);
        assert_eq!(picks, vec![0, 3, 6, 9]);
        policy.next_batch_into(&mut rng, 8, &mut picks);
        assert!(picks.is_empty());

        // The proxy pays for scoring the whole repository upfront and
        // ignores feedback: recording a frame changes nothing it emits.
        let truth =
            GroundTruth::from_instances(500, vec![ObjectInstance::simple(0, "car", 10, 40)]);
        let proxy =
            || ProxyBaseline::new(&truth, &ObjectClass::from("car"), ProxyConfig::default());
        let (mut fed, mut unfed) = (proxy(), proxy());
        assert_eq!(SamplingPolicy::name(&fed), "proxy");
        assert_eq!(SamplingPolicy::upfront_scan_frames(&fed), 500);
        assert_eq!(fed.remaining(), None);
        let mut rest = Vec::new();
        fed.next_batch_into(&mut rng, 4, &mut picks);
        for &frame in &picks {
            fed.record(frame, &MatchOutcome::default());
        }
        fed.next_batch_into(&mut rng, 600, &mut rest);
        picks.extend_from_slice(&rest);
        unfed.next_batch_into(&mut rng, 1_000, &mut rest);
        assert_eq!(picks, rest);
        assert_eq!(rest.len(), 500);
    }
}
