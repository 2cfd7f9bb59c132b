//! The ExSample sampler state machine.
//!
//! [`ExSample`] exposes the algorithm as an incremental *pick / record* interface:
//! callers ask for the next frame to process ([`ExSample::next_frame`] or
//! [`ExSample::next_batch`]) and report back what the discriminator said about that
//! frame ([`ExSample::record`]).  Keeping the detector and discriminator outside
//! the state machine lets the same sampler drive the pure simulations of Figures
//! 2–4 (where "processing a frame" is a coin-flip per instance) and the full video
//! pipeline of Section V (where it is a detector + discriminator call), and makes
//! the batched-sampling optimisation a natural extension rather than a special
//! mode.

use crate::config::{ExSampleConfig, WithinChunkSampling};
use crate::policy::{self, Served};
use crate::stats::ChunkStatsSet;
use exsample_video::{FrameSampler, RandomPlusSampler, UniformSampler};
use rand::Rng;

/// A frame chosen by the sampler: chunk index plus the frame's offset within that
/// chunk.  Callers translate the offset into a global frame id by adding the
/// chunk's start frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePick {
    /// Index of the selected chunk.
    pub chunk: usize,
    /// Offset of the selected frame within the chunk (`0 ≤ offset < chunk length`).
    pub offset: u64,
}

/// Counters describing how chunk selection spent its draws.
///
/// Accumulated by [`ExSample`] across every pick and surfaced on reports so
/// experiments can show dedup savings next to recall.  `draws_saved` counts,
/// for each pick served by the hybrid belief-class fold, the difference
/// between the eligible chunk count (what a per-chunk fold would have drawn)
/// and the draws the fold issued (one per large class plus one per member of
/// every small class) — the headline number of the belief-class optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectionTelemetry {
    /// Picks served by the hybrid belief-class fold: every Thompson pick over
    /// more than `policy::SMALL_M_CHUNKS` chunks.
    pub class_max_picks: u64,
    /// Picks served by a per-chunk path (small repositories, other policies).
    pub per_chunk_picks: u64,
    /// Per-chunk Gamma draws the hybrid fold did not issue, summed over picks.
    pub draws_saved: u64,
    /// Distinct belief classes at the most recent pick.
    pub class_count: u64,
}

impl SelectionTelemetry {
    /// Merge another telemetry record into this one (used when aggregating
    /// across queries or shards).  `class_count` keeps the maximum, as a
    /// "classes live at once" summary.
    pub fn merge(&mut self, other: &SelectionTelemetry) {
        self.class_max_picks += other.class_max_picks;
        self.per_chunk_picks += other.per_chunk_picks;
        self.draws_saved += other.draws_saved;
        self.class_count = self.class_count.max(other.class_count);
    }
}

/// Within-chunk sampler, chosen by [`WithinChunkSampling`].
#[derive(Debug, Clone)]
enum WithinSampler {
    Uniform(UniformSampler),
    RandomPlus(RandomPlusSampler),
}

impl WithinSampler {
    fn new(strategy: WithinChunkSampling, len: u64) -> Self {
        match strategy {
            WithinChunkSampling::Uniform => WithinSampler::Uniform(UniformSampler::new(len)),
            WithinChunkSampling::RandomPlus => {
                WithinSampler::RandomPlus(RandomPlusSampler::new(len))
            }
        }
    }

    fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        match self {
            WithinSampler::Uniform(s) => s.next_frame(rng),
            WithinSampler::RandomPlus(s) => s.next_frame(rng),
        }
    }

    fn remaining(&self) -> u64 {
        match self {
            WithinSampler::Uniform(s) => s.remaining(),
            WithinSampler::RandomPlus(s) => s.remaining(),
        }
    }
}

/// The ExSample adaptive sampler (Algorithm 1's state).
///
/// # Hot-path state
///
/// Beyond the per-chunk statistics, the sampler maintains incrementally:
///
/// * `eligible` / `eligible_count` — which chunks still hold unsampled frames,
///   updated the moment a chunk's last frame is handed out;
/// * `remaining` — the total number of unsampled frames, so
///   [`ExSample::remaining_frames`] is O(1) instead of an O(M) sum over the
///   within-chunk samplers;
/// * reusable scratch buffers for batched selection.
///
/// Together with the belief cache in [`ChunkStatsSet`], this makes chunk
/// selection in [`ExSample::next_frame`] and [`ExSample::next_batch_into`]
/// allocation-free after the first batched call.  What allocates is the
/// within-chunk samplers' own state, and only as it grows: `random+` reuses
/// its round buffers and enlarges them by doubling, the uniform sampler's
/// sparse map grows with its draws.
#[derive(Debug, Clone)]
pub struct ExSample {
    config: ExSampleConfig,
    stats: ChunkStatsSet,
    samplers: Vec<WithinSampler>,
    chunk_lengths: Vec<u64>,
    /// Maintained eligibility mask: `eligible[j]` iff chunk `j` has unsampled frames.
    eligible: Vec<bool>,
    /// Number of `true` entries in `eligible`.
    eligible_count: usize,
    /// Maintained count of unsampled frames across all chunks.
    remaining: u64,
    /// Scratch buffer for batched chunk selection (chunk indices).
    scratch_chunks: Vec<usize>,
    /// Scratch buffer for batched chunk selection (running best draws).
    scratch_draws: Vec<f64>,
    /// Accumulated chunk-selection telemetry (hybrid-fold vs per-chunk picks).
    telemetry: SelectionTelemetry,
}

impl ExSample {
    /// Create a sampler over chunks with the given lengths (in frames).
    ///
    /// Zero-length chunks are permitted (they are simply never selected), but at
    /// least one chunk must be non-empty.
    ///
    /// # Panics
    /// Panics if `chunk_lengths` is empty, all chunks are empty, or the
    /// configuration is invalid.
    pub fn new(config: ExSampleConfig, chunk_lengths: &[u64]) -> Self {
        config.validate();
        assert!(
            !chunk_lengths.is_empty(),
            "ExSample needs at least one chunk"
        );
        assert!(
            chunk_lengths.iter().any(|&l| l > 0),
            "at least one chunk must contain frames"
        );
        let samplers: Vec<WithinSampler> = chunk_lengths
            .iter()
            .map(|&len| WithinSampler::new(config.within_chunk, len))
            .collect();
        let eligible: Vec<bool> = chunk_lengths.iter().map(|&len| len > 0).collect();
        let eligible_count = eligible.iter().filter(|&&e| e).count();
        let remaining = chunk_lengths.iter().sum();
        ExSample {
            config,
            stats: ChunkStatsSet::with_priors(chunk_lengths.len(), config.alpha0, config.beta0),
            samplers,
            chunk_lengths: chunk_lengths.to_vec(),
            eligible,
            eligible_count,
            remaining,
            scratch_chunks: Vec::new(),
            scratch_draws: Vec::new(),
            telemetry: SelectionTelemetry::default(),
        }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> &ExSampleConfig {
        &self.config
    }

    /// The per-chunk statistics accumulated so far.
    pub fn stats(&self) -> &ChunkStatsSet {
        &self.stats
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_lengths.len()
    }

    /// Total frames not yet sampled, across all chunks.  O(1): maintained as a
    /// running counter rather than a sum over the within-chunk samplers.
    pub fn remaining_frames(&self) -> u64 {
        self.remaining
    }

    /// Chunk-selection telemetry accumulated since construction.
    pub fn selection_telemetry(&self) -> SelectionTelemetry {
        self.telemetry
    }

    /// Account `picks` chunk selections to the path that served them.
    ///
    /// Must run *before* the picked frames are taken, while `eligible_count`
    /// still reflects the mask the selection saw — `draws_saved` is the
    /// per-pick gap between the eligible chunk count and the draws issued.
    #[inline]
    fn note_selection(&mut self, picks: u64, served: Served) {
        match served {
            Served::Hybrid { draws } => {
                self.telemetry.class_max_picks += picks;
                self.telemetry.draws_saved += picks * (self.eligible_count - draws) as u64;
            }
            Served::PerChunk => self.telemetry.per_chunk_picks += picks,
        }
        self.telemetry.class_count = self.stats.class_count() as u64;
    }

    /// Book-keeping after a frame was handed out from `chunk`.
    #[inline]
    fn note_frame_taken(&mut self, chunk: usize) {
        self.remaining -= 1;
        if self.samplers[chunk].remaining() == 0 {
            debug_assert!(self.eligible[chunk]);
            self.eligible[chunk] = false;
            self.eligible_count -= 1;
        }
    }

    /// Choose the next frame to process (lines 3–7 of Algorithm 1).
    ///
    /// Returns `None` once every frame in the repository has been sampled.
    /// This is the direct single-pick hot path: chunk selection reads the
    /// maintained eligibility mask and the cached belief constants, performing
    /// no heap allocation.
    pub fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<FramePick> {
        if self.eligible_count == 0 {
            return None;
        }
        // The maintained counter stands in for the `eligible.iter().all(..)`
        // scan the public `select_chunk` would run on every pick.
        let all_eligible = Some(self.eligible_count == self.eligible.len());
        let (chunk, served) = policy::select_chunk_known(
            &self.config,
            &self.stats,
            &self.eligible,
            all_eligible,
            rng,
        );
        let chunk = chunk?;
        self.note_selection(1, served);
        let offset = self.samplers[chunk]
            .next_frame(rng)
            .expect("selected chunk was eligible, so it has frames remaining");
        self.note_frame_taken(chunk);
        Some(FramePick { chunk, offset })
    }

    /// Choose up to `batch` frames to process in one batched detector invocation
    /// (the batched-sampling optimisation of Section III-F).
    ///
    /// Convenience wrapper around [`ExSample::next_batch_into`] that allocates
    /// the result vector.
    pub fn next_batch<R: Rng + ?Sized>(&mut self, rng: &mut R, batch: usize) -> Vec<FramePick> {
        let mut picks = Vec::with_capacity(batch);
        self.next_batch_into(rng, batch, &mut picks);
        picks
    }

    /// Fill `picks` with up to `batch` frames to process in one batched detector
    /// invocation, reusing the caller's buffer (and the sampler's internal
    /// scratch space) so the call is allocation-free once buffers are warm.
    ///
    /// The chunk indices are drawn with the same Thompson-sampling distribution as
    /// `batch` consecutive calls to [`ExSample::next_frame`] *without* intermediate
    /// state updates; per-chunk frame draws are still without replacement.  Fewer
    /// than `batch` picks are produced only when the repository runs out of frames.
    pub fn next_batch_into<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        batch: usize,
        picks: &mut Vec<FramePick>,
    ) {
        picks.clear();
        while picks.len() < batch && self.eligible_count > 0 {
            let want = batch - picks.len();
            // `want > 0` and `eligible_count > 0` hold here: the two facts
            // the public `select_batch_into` scans for.
            let served = policy::select_batch_known(
                &self.config,
                &self.stats,
                &self.eligible,
                Some(self.eligible_count == self.eligible.len()),
                want,
                rng,
                &mut self.scratch_chunks,
                &mut self.scratch_draws,
            );
            self.note_selection(self.scratch_chunks.len() as u64, served);
            let mut made_progress = false;
            for i in 0..self.scratch_chunks.len() {
                let chunk = self.scratch_chunks[i];
                // A chunk may run out of frames part-way through the batch; skip
                // those picks and let the outer loop re-select.
                if let Some(offset) = self.samplers[chunk].next_frame(rng) {
                    self.note_frame_taken(chunk);
                    picks.push(FramePick { chunk, offset });
                    made_progress = true;
                    if picks.len() == batch {
                        break;
                    }
                }
            }
            if !made_progress {
                break;
            }
        }
    }

    /// Record the discriminator outcome for a frame sampled from `chunk` (lines
    /// 11–12 of Algorithm 1): `n1_delta` is `|d0| − |d1|`.
    pub fn record(&mut self, chunk: usize, n1_delta: i64) {
        self.stats.record(chunk, n1_delta);
    }

    /// Apply an `N1` adjustment to a chunk without charging it a sample.
    ///
    /// This implements the technical-report refinement for objects spanning
    /// multiple chunks: when an object originally found in chunk `j` is re-seen
    /// from a frame of a different chunk, `j`'s `N1` should be decremented even
    /// though the sample was charged elsewhere.
    pub fn adjust_n1(&mut self, chunk: usize, n1_delta: i64) {
        self.stats.adjust_n1(chunk, n1_delta);
    }

    /// Warm-start `chunk` with the accumulated `(Σ n1_delta, Σ samples)` of a
    /// previous run, recovered from a durable belief store.
    ///
    /// Only the posterior is seeded: the chunk's frame pool is untouched, so
    /// the warm sampler may re-pick frames the previous run already saw (its
    /// discriminator simply re-matches them).  What warm starting buys is the
    /// belief — the sampler skips the exploration the first run already paid
    /// for and concentrates on the chunks known to be productive.
    pub fn apply_prior(&mut self, chunk: usize, n1_delta: i64, samples_delta: u64) {
        self.stats.seed_chunk(chunk, n1_delta, samples_delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChunkSelectionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn adapts_towards_productive_chunk() {
        let mut sampler =
            ExSample::new(ExSampleConfig::default(), &[10_000, 10_000, 10_000, 10_000]);
        let mut rng = StdRng::seed_from_u64(101);
        // Chunk 3 yields a new object on every sample; others never do.
        for _ in 0..400 {
            let pick = sampler.next_frame(&mut rng).unwrap();
            let delta = if pick.chunk == 3 { 1 } else { 0 };
            sampler.record(pick.chunk, delta);
        }
        let samples_to_best = sampler.stats().chunk(3).samples();
        assert!(
            samples_to_best > 250,
            "expected most samples on chunk 3, got {samples_to_best}"
        );
    }

    #[test]
    fn single_chunk_behaves_like_plain_sampling() {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[100]);
        let mut rng = StdRng::seed_from_u64(102);
        let mut seen = HashSet::new();
        while let Some(pick) = sampler.next_frame(&mut rng) {
            assert_eq!(pick.chunk, 0);
            assert!(seen.insert(pick.offset), "no frame sampled twice");
            sampler.record(0, 0);
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(sampler.remaining_frames(), 0);
    }

    #[test]
    fn exhausted_chunks_are_skipped() {
        // One tiny chunk and one large chunk; once the tiny chunk is exhausted only
        // the large one is picked, and the sampler terminates exactly at the end.
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[3, 50]);
        let mut rng = StdRng::seed_from_u64(103);
        let mut count = 0;
        while let Some(pick) = sampler.next_frame(&mut rng) {
            sampler.record(pick.chunk, 0);
            count += 1;
            assert!(
                count <= 53,
                "sampler must not produce more picks than frames"
            );
        }
        assert_eq!(count, 53);
        assert_eq!(sampler.remaining_frames(), 0);
        assert_eq!(sampler.stats().chunk(0).samples(), 3);
        assert_eq!(sampler.stats().chunk(1).samples(), 50);
    }

    #[test]
    fn zero_length_chunks_are_allowed_but_never_picked() {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[0, 10, 0]);
        let mut rng = StdRng::seed_from_u64(104);
        let mut count = 0;
        while let Some(pick) = sampler.next_frame(&mut rng) {
            assert_eq!(pick.chunk, 1);
            sampler.record(pick.chunk, 0);
            count += 1;
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn offsets_are_within_chunk_bounds() {
        let lengths = [7u64, 13, 29];
        let mut sampler = ExSample::new(ExSampleConfig::default(), &lengths);
        let mut rng = StdRng::seed_from_u64(105);
        while let Some(pick) = sampler.next_frame(&mut rng) {
            assert!(pick.offset < lengths[pick.chunk]);
            sampler.record(pick.chunk, 0);
        }
    }

    #[test]
    fn batched_picks_cover_batch_size_and_respect_exhaustion() {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[5, 5]);
        let mut rng = StdRng::seed_from_u64(106);
        let first = sampler.next_batch(&mut rng, 8);
        assert_eq!(first.len(), 8);
        let second = sampler.next_batch(&mut rng, 8);
        assert_eq!(second.len(), 2, "only two frames remain in the repository");
        assert!(sampler.next_batch(&mut rng, 4).is_empty());
        // All ten frames distinct.
        let all: HashSet<(usize, u64)> = first
            .iter()
            .chain(second.iter())
            .map(|p| (p.chunk, p.offset))
            .collect();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn batched_distribution_matches_statistics() {
        // With strongly skewed statistics, most batched picks should target the
        // productive chunk, mirroring the sequential behaviour.
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[100_000, 100_000]);
        for _ in 0..50 {
            sampler.record(0, 0);
            sampler.record(1, 1);
        }
        let mut rng = StdRng::seed_from_u64(107);
        let picks = sampler.next_batch(&mut rng, 200);
        let to_productive = picks.iter().filter(|p| p.chunk == 1).count();
        assert!(
            to_productive > 150,
            "got {to_productive}/200 picks on the productive chunk"
        );
    }

    #[test]
    fn cross_chunk_adjustment_does_not_charge_samples() {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[10, 10]);
        sampler.record(0, 1);
        sampler.adjust_n1(0, -1);
        assert_eq!(sampler.stats().chunk(0).samples(), 1);
        assert_eq!(sampler.stats().chunk(0).n1(), 0);
    }

    #[test]
    fn uniform_policy_distributes_samples_evenly() {
        let config = ExSampleConfig::default().with_policy(ChunkSelectionPolicy::UniformChunk);
        let mut sampler = ExSample::new(config, &[100_000; 4]);
        let mut rng = StdRng::seed_from_u64(108);
        for _ in 0..2_000 {
            let pick = sampler.next_frame(&mut rng).unwrap();
            // Feed it heavily skewed feedback; the uniform policy must ignore it.
            let delta = if pick.chunk == 0 { 1 } else { 0 };
            sampler.record(pick.chunk, delta);
        }
        for j in 0..4 {
            let share = sampler.stats().chunk(j).samples() as f64 / 2_000.0;
            assert!((share - 0.25).abs() < 0.06, "chunk {j} share {share}");
        }
    }

    #[test]
    fn remaining_counter_stays_consistent_with_samplers() {
        // The O(1) counter must agree with the O(M) sum over the within-chunk
        // samplers after every pick, across both single and batched picking.
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[40, 0, 25, 60]);
        let mut rng = StdRng::seed_from_u64(109);
        let sum_remaining =
            |s: &ExSample| -> u64 { s.samplers.iter().map(WithinSampler::remaining).sum() };
        assert_eq!(sampler.remaining_frames(), 125);
        assert_eq!(sampler.remaining_frames(), sum_remaining(&sampler));
        let mut taken = 0u64;
        while let Some(pick) = sampler.next_frame(&mut rng) {
            sampler.record(pick.chunk, 0);
            taken += 1;
            assert_eq!(sampler.remaining_frames(), 125 - taken);
            assert_eq!(sampler.remaining_frames(), sum_remaining(&sampler));
            if taken == 50 {
                break;
            }
        }
        let mut picks = Vec::new();
        while sampler.remaining_frames() > 0 {
            sampler.next_batch_into(&mut rng, 7, &mut picks);
            taken += picks.len() as u64;
            assert_eq!(sampler.remaining_frames(), 125 - taken);
            assert_eq!(sampler.remaining_frames(), sum_remaining(&sampler));
        }
        assert_eq!(taken, 125);
        assert_eq!(sampler.remaining_frames(), 0);
    }

    #[test]
    fn next_batch_into_reuses_buffers_and_matches_next_batch_semantics() {
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[1_000; 8]);
        let mut rng = StdRng::seed_from_u64(110);
        let mut picks = Vec::new();
        sampler.next_batch_into(&mut rng, 16, &mut picks);
        assert_eq!(picks.len(), 16);
        // Warm buffers: repeated calls must not grow any of them.
        let cap = picks.capacity();
        let scratch_cap = (
            sampler.scratch_chunks.capacity(),
            sampler.scratch_draws.capacity(),
        );
        for _ in 0..100 {
            sampler.next_batch_into(&mut rng, 16, &mut picks);
            assert_eq!(picks.len(), 16);
            for p in &picks {
                sampler.record(p.chunk, 0);
            }
        }
        assert_eq!(picks.capacity(), cap);
        assert_eq!(
            (
                sampler.scratch_chunks.capacity(),
                sampler.scratch_draws.capacity()
            ),
            scratch_cap
        );
    }

    #[test]
    fn telemetry_counts_per_chunk_picks_by_default() {
        // Up to SMALL_M_CHUNKS chunks the per-chunk paths serve every pick,
        // single or batched, and nothing is saved.
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[100; policy::SMALL_M_CHUNKS]);
        let mut rng = StdRng::seed_from_u64(111);
        for _ in 0..10 {
            let pick = sampler.next_frame(&mut rng).unwrap();
            sampler.record(pick.chunk, 0);
        }
        let picks = sampler.next_batch(&mut rng, 6);
        let t = sampler.selection_telemetry();
        assert_eq!(t.class_max_picks, 0);
        assert_eq!(t.per_chunk_picks, 10 + picks.len() as u64);
        assert_eq!(t.draws_saved, 0);
        assert!(t.class_count >= 1);
    }

    #[test]
    fn telemetry_tracks_class_max_savings() {
        const M: usize = 128;
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[1_000; M]);
        let mut rng = StdRng::seed_from_u64(112);
        // First pick: one all-prior class covering all 128 chunks, one draw.
        let pick = sampler.next_frame(&mut rng).unwrap();
        let t = sampler.selection_telemetry();
        assert_eq!(t.class_max_picks, 1);
        assert_eq!(t.per_chunk_picks, 0);
        assert_eq!(t.class_count, 1);
        assert_eq!(t.draws_saved, (M - 1) as u64);
        sampler.record(pick.chunk, 0);
        // Second pick: 127 all-prior chunks draw once, the (0, 1) singleton
        // draws for itself — two draws issued, 126 saved.
        let pick = sampler.next_frame(&mut rng).unwrap();
        let t = sampler.selection_telemetry();
        assert_eq!(t.class_count, 2);
        assert_eq!(t.draws_saved, (M - 1 + M - 2) as u64);
        sampler.record(pick.chunk, 0);
        // Keep sampling; the fold serves every pick and keeps saving.
        for _ in 0..49 {
            let pick = sampler.next_frame(&mut rng).unwrap();
            sampler.record(pick.chunk, 0);
        }
        let t = sampler.selection_telemetry();
        assert_eq!((t.class_max_picks, t.per_chunk_picks), (51, 0));
        assert!(t.draws_saved > 51 * (M as u64 / 2), "telemetry {t:?}");
        // Batched picks flow through the same counters.
        let picks = sampler.next_batch(&mut rng, 16);
        assert_eq!(picks.len(), 16);
        let t2 = sampler.selection_telemetry();
        assert_eq!((t2.class_max_picks, t2.per_chunk_picks), (51 + 16, 0));
        assert!(t2.draws_saved > t.draws_saved);
    }

    #[test]
    fn class_max_run_visits_everything_and_adapts() {
        // End-to-end sanity above SMALL_M_CHUNKS: the hybrid fold still
        // exhausts the repository without repeats — through every stage of
        // partial eligibility, down to the last chunk — and still concentrates
        // on a productive chunk.
        let mut sampler = ExSample::new(ExSampleConfig::default(), &[50; 100]);
        let mut rng = StdRng::seed_from_u64(113);
        let mut seen = HashSet::new();
        let mut productive_rank = 0usize;
        while let Some(pick) = sampler.next_frame(&mut rng) {
            assert!(seen.insert((pick.chunk, pick.offset)), "frame repeated");
            if pick.chunk == 7 && sampler.stats().chunk(7).samples() == 49 {
                productive_rank = seen.len();
            }
            sampler.record(pick.chunk, i64::from(pick.chunk == 7));
        }
        assert_eq!(seen.len(), 50 * 100);
        assert!(
            productive_rank < 50 * 100 / 4,
            "chunk 7 exhausted only after {productive_rank} picks"
        );
        let t = sampler.selection_telemetry();
        assert_eq!((t.class_max_picks, t.per_chunk_picks), (5_000, 0));
        assert!(t.draws_saved > 0);
    }

    #[test]
    fn telemetry_merge_accumulates() {
        let mut a = SelectionTelemetry {
            class_max_picks: 5,
            per_chunk_picks: 2,
            draws_saved: 600,
            class_count: 3,
        };
        let b = SelectionTelemetry {
            class_max_picks: 1,
            per_chunk_picks: 7,
            draws_saved: 100,
            class_count: 9,
        };
        a.merge(&b);
        assert_eq!(a.class_max_picks, 6);
        assert_eq!(a.per_chunk_picks, 9);
        assert_eq!(a.draws_saved, 700);
        assert_eq!(a.class_count, 9);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn empty_chunk_list_panics() {
        let _ = ExSample::new(ExSampleConfig::default(), &[]);
    }

    #[test]
    #[should_panic(expected = "at least one chunk must contain frames")]
    fn all_empty_chunks_panics() {
        let _ = ExSample::new(ExSampleConfig::default(), &[0, 0]);
    }
}
