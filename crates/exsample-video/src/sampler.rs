//! Within-chunk frame samplers.
//!
//! ExSample picks a chunk via Thompson sampling and then a frame *within* that
//! chunk.  The paper uses two within-chunk strategies:
//!
//! * plain uniform sampling **without replacement** ([`UniformSampler`]), which is
//!   also the global `random` baseline when applied to the whole repository as a
//!   single chunk; and
//! * **`random+`** ([`RandomPlusSampler`], Section III-F), which avoids sampling
//!   temporally close to previous samples by working through a hierarchy of
//!   progressively finer segments: first one random frame from the whole range,
//!   then one from each unsampled half, then from each quarter, and so on until the
//!   full range is exhausted.

use crate::FrameId;
use rand::Rng;
use std::collections::HashMap;

/// Shared without-replacement progress bookkeeping.
///
/// Every [`FrameSampler`] must hand out each of its `len` offsets exactly once;
/// the counters that enforce this (range length, draws so far, exhaustion) are
/// identical across implementations, so they live here instead of being
/// duplicated per sampler.  The strategy-specific part — *which* untaken offset
/// the next draw returns — stays with the individual samplers.
#[derive(Debug, Clone)]
struct WithoutReplacement {
    len: u64,
    drawn: u64,
}

impl WithoutReplacement {
    fn new(len: u64) -> Self {
        WithoutReplacement { len, drawn: 0 }
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn sampled(&self) -> u64 {
        self.drawn
    }

    fn is_exhausted(&self) -> bool {
        self.drawn >= self.len
    }

    /// Record one completed draw, returning its position in the output sequence
    /// (which doubles as the sparse Fisher–Yates cursor).
    fn note_drawn(&mut self) -> u64 {
        debug_assert!(!self.is_exhausted());
        let position = self.drawn;
        self.drawn += 1;
        position
    }
}

/// A sampler producing frame offsets `0..len` in some order, without replacement.
///
/// Offsets are relative to the start of the range being sampled (a chunk or the
/// whole repository); callers add the chunk's start frame to obtain global ids.
pub trait FrameSampler {
    /// Total number of frames in the range.
    fn len(&self) -> u64;

    /// Whether the range is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of frames already produced.
    fn sampled(&self) -> u64;

    /// Number of frames not yet produced.
    fn remaining(&self) -> u64 {
        self.len() - self.sampled()
    }

    /// Produce the next frame offset, or `None` when the range is exhausted.
    fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<FrameId>;
}

/// Uniform sampling without replacement over `0..len`.
///
/// Implemented as a sparse Fisher–Yates shuffle: the virtual array `0..len` is
/// shuffled lazily, storing only the entries that have been displaced.  Memory is
/// proportional to the number of frames *sampled*, not to the length of the range,
/// which matters because simulated repositories reach tens of millions of frames
/// while queries typically sample only thousands.
#[derive(Debug, Clone)]
pub struct UniformSampler {
    progress: WithoutReplacement,
    /// Sparse representation of the partially shuffled array.
    displaced: HashMap<u64, u64>,
}

impl UniformSampler {
    /// Create a sampler over the range `0..len`.
    pub fn new(len: u64) -> Self {
        UniformSampler {
            progress: WithoutReplacement::new(len),
            displaced: HashMap::new(),
        }
    }
}

impl FrameSampler for UniformSampler {
    fn len(&self) -> u64 {
        self.progress.len()
    }

    fn sampled(&self) -> u64 {
        self.progress.sampled()
    }

    fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<FrameId> {
        if self.progress.is_exhausted() {
            return None;
        }
        // Classic sparse Fisher-Yates: pick a position in [cursor, len), swap its
        // value with the cursor position, return the value at the picked slot.
        let cursor = self.progress.note_drawn();
        let pick = rng.gen_range(cursor..self.progress.len());
        let picked_value = *self.displaced.get(&pick).unwrap_or(&pick);
        let current_value = *self.displaced.get(&cursor).unwrap_or(&cursor);
        self.displaced.insert(pick, current_value);
        self.displaced.remove(&cursor);
        Some(picked_value)
    }
}

/// The `random+` sampler of Section III-F.
///
/// Maintains a frontier of segments.  Each *round* visits every segment in random
/// order and draws one not-yet-sampled frame from it; segments are then split in
/// half for the next round.  Early samples are therefore spread out across the
/// whole range (one per segment) instead of clustering the way independent uniform
/// draws can, while the eventual ordering still covers every frame exactly once.
///
/// All per-round state lives in four buffers the sampler owns and reuses: the
/// two segment queues and two arenas of taken offsets.  Once they have grown to
/// a round's size, drawing allocates nothing.
#[derive(Debug, Clone)]
pub struct RandomPlusSampler {
    progress: WithoutReplacement,
    /// Segments remaining to be visited in the current round, in randomised order.
    current_round: Vec<Segment>,
    /// Segments queued for the next round, each with this round's draw.
    next_round: Vec<Segment>,
    /// Every live segment's offsets from earlier rounds, one contiguous run each.
    taken: Vec<u64>,
    /// Where [`Self::advance_round`] lays out the next round's runs before it
    /// swaps them into `taken`.
    spare_taken: Vec<u64>,
}

/// A contiguous sub-range and where its already-sampled offsets are.
///
/// A segment is visited once per round and split each round, so its run of
/// taken offsets stays short (at most the number of rounds, i.e. `log2(len)`).
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u64,
    end: u64,
    /// The segment's run in the sampler's `taken` arena: offsets (absolute,
    /// within `0..len`) drawn from it in earlier rounds.
    taken_at: usize,
    taken_len: usize,
    /// The offset drawn from the segment this round, once it has been visited.
    drawn: u64,
}

impl Segment {
    fn len(&self) -> u64 {
        self.end - self.start
    }

    /// The segment's run of earlier rounds' offsets in the `taken` arena.
    fn taken<'a>(&self, arena: &'a [u64]) -> &'a [u64] {
        &arena[self.taken_at..self.taken_at + self.taken_len]
    }

    /// Untaken offsets left after this round's draw.
    fn available_after_draw(&self) -> u64 {
        self.len() - self.taken_len as u64 - 1
    }

    /// Draw one untaken offset uniformly from this segment and record it as
    /// this round's draw.
    fn draw<R: Rng + ?Sized>(&mut self, arena: &[u64], rng: &mut R) -> u64 {
        debug_assert!(self.len() > self.taken_len as u64);
        let taken = self.taken(arena);
        // Rejection sampling is fine: at most log2(len) offsets are ever taken from
        // a segment, so the acceptance probability stays close to one except for
        // tiny (few-frame) segments, where the loop still terminates quickly.
        loop {
            let candidate = rng.gen_range(self.start..self.end);
            if !taken.contains(&candidate) {
                self.drawn = candidate;
                return candidate;
            }
        }
    }
}

impl RandomPlusSampler {
    /// Create a `random+` sampler over the range `0..len`.
    pub fn new(len: u64) -> Self {
        let current_round = if len > 0 {
            vec![Segment {
                start: 0,
                end: len,
                taken_at: 0,
                taken_len: 0,
                drawn: 0,
            }]
        } else {
            Vec::new()
        };
        RandomPlusSampler {
            progress: WithoutReplacement::new(len),
            current_round,
            next_round: Vec::new(),
            taken: Vec::new(),
            spare_taken: Vec::new(),
        }
    }

    /// Advance to the next round: split every pending segment in half and shuffle
    /// the order in which the halves that still hold untaken frames are visited.
    ///
    /// A half's run is the stable filter of its parent's run and this round's
    /// draw; the runs are laid out in `spare_taken`, which then becomes `taken`.
    fn advance_round<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        debug_assert!(self.current_round.is_empty());
        self.spare_taken.clear();
        for parent in &self.next_round {
            // A segment that outlives its draw has at least two frames.
            debug_assert!(parent.len() > 1);
            let run = parent.taken(&self.taken);
            let mid = parent.start + parent.len() / 2;
            for (start, end) in [(parent.start, mid), (mid, parent.end)] {
                let taken_at = self.spare_taken.len();
                let inside = |o: &u64| (start..end).contains(o);
                self.spare_taken.extend(run.iter().filter(|o| inside(o)));
                if inside(&parent.drawn) {
                    self.spare_taken.push(parent.drawn);
                }
                let child = Segment {
                    start,
                    end,
                    taken_at,
                    taken_len: self.spare_taken.len() - taken_at,
                    drawn: 0,
                };
                if child.len() > child.taken_len as u64 {
                    self.current_round.push(child);
                } else {
                    self.spare_taken.truncate(taken_at);
                }
            }
        }
        self.next_round.clear();
        std::mem::swap(&mut self.taken, &mut self.spare_taken);
        // Visit segments in random order within the round (Fisher–Yates).
        for i in (1..self.current_round.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.current_round.swap(i, j);
        }
    }
}

impl FrameSampler for RandomPlusSampler {
    fn len(&self) -> u64 {
        self.progress.len()
    }

    fn sampled(&self) -> u64 {
        self.progress.sampled()
    }

    fn next_frame<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<FrameId> {
        if self.progress.is_exhausted() {
            return None;
        }
        if self.current_round.is_empty() {
            self.advance_round(rng);
        }
        let mut segment = self.current_round.pop()?;
        let offset = segment.draw(&self.taken, rng);
        if segment.available_after_draw() > 0 {
            self.next_round.push(segment);
        }
        self.progress.note_drawn();
        Some(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn drain<S: FrameSampler>(sampler: &mut S, rng: &mut StdRng) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(f) = sampler.next_frame(rng) {
            out.push(f);
        }
        out
    }

    #[test]
    fn uniform_covers_range_without_repeats() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut s = UniformSampler::new(1000);
        let drawn = drain(&mut s, &mut rng);
        assert_eq!(drawn.len(), 1000);
        let unique: HashSet<u64> = drawn.iter().copied().collect();
        assert_eq!(unique.len(), 1000);
        assert!(drawn.iter().all(|&f| f < 1000));
        assert_eq!(s.remaining(), 0);
        assert!(s.next_frame(&mut rng).is_none());
    }

    #[test]
    fn uniform_first_draw_is_uniform() {
        // Draw the first sample from a fresh sampler many times; the empirical
        // distribution over 10 buckets should be close to uniform.
        let mut rng = StdRng::seed_from_u64(82);
        let mut buckets = [0u32; 10];
        for _ in 0..20_000 {
            let mut s = UniformSampler::new(100);
            let f = s.next_frame(&mut rng).unwrap();
            buckets[(f / 10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((f64::from(b) - 2000.0).abs() < 250.0, "bucket count {b}");
        }
    }

    #[test]
    fn uniform_memory_is_proportional_to_draws() {
        let mut rng = StdRng::seed_from_u64(83);
        let mut s = UniformSampler::new(10_000_000);
        for _ in 0..100 {
            s.next_frame(&mut rng).unwrap();
        }
        assert!(s.displaced.len() <= 200);
    }

    #[test]
    fn uniform_empty_range() {
        let mut rng = StdRng::seed_from_u64(84);
        let mut s = UniformSampler::new(0);
        assert!(s.is_empty());
        assert!(s.next_frame(&mut rng).is_none());
    }

    #[test]
    fn random_plus_covers_range_without_repeats() {
        let mut rng = StdRng::seed_from_u64(85);
        for len in [1u64, 2, 3, 7, 64, 100, 1023] {
            let mut s = RandomPlusSampler::new(len);
            let drawn = drain(&mut s, &mut rng);
            assert_eq!(drawn.len() as u64, len, "len {len}");
            let unique: HashSet<u64> = drawn.iter().copied().collect();
            assert_eq!(unique.len() as u64, len, "len {len}");
            assert!(drawn.iter().all(|&f| f < len));
        }
    }

    #[test]
    fn random_plus_spreads_early_samples() {
        // The first 32 samples include a full round of 16 segments of 64 frames
        // each; those 16 samples necessarily land in 16 distinct 32-frame stripes,
        // so the first 32 samples of a 1024-frame range must hit at least 16
        // distinct stripes. (Uniform sampling gives no such guarantee.)
        let mut rng = StdRng::seed_from_u64(86);
        let mut s = RandomPlusSampler::new(1024);
        let mut stripes = HashSet::new();
        for _ in 0..32 {
            let f = s.next_frame(&mut rng).unwrap();
            stripes.insert(f / 32);
        }
        assert!(stripes.len() >= 16, "stripes hit: {}", stripes.len());
    }

    #[test]
    fn random_plus_first_sample_spread_beats_uniform_on_average() {
        // Average number of distinct 1/32 stripes hit by the first 32 samples,
        // across many trials: random+ should dominate uniform.
        let trials = 200;
        let mut rng = StdRng::seed_from_u64(87);
        let mut rp_total = 0usize;
        let mut uni_total = 0usize;
        for _ in 0..trials {
            let mut rp = RandomPlusSampler::new(4096);
            let mut uni = UniformSampler::new(4096);
            let mut rp_stripes = HashSet::new();
            let mut uni_stripes = HashSet::new();
            for _ in 0..32 {
                rp_stripes.insert(rp.next_frame(&mut rng).unwrap() / 128);
                uni_stripes.insert(uni.next_frame(&mut rng).unwrap() / 128);
            }
            rp_total += rp_stripes.len();
            uni_total += uni_stripes.len();
        }
        assert!(
            rp_total > uni_total,
            "random+ stripes {rp_total} vs uniform {uni_total}"
        );
    }

    #[test]
    fn random_plus_empty_and_single() {
        let mut rng = StdRng::seed_from_u64(88);
        let mut s = RandomPlusSampler::new(0);
        assert!(s.next_frame(&mut rng).is_none());
        let mut s = RandomPlusSampler::new(1);
        assert_eq!(s.next_frame(&mut rng), Some(0));
        assert!(s.next_frame(&mut rng).is_none());
    }

    /// FNV-1a over `random+`'s full draw sequence for every length `0..400`
    /// and four larger ones, eight seeds each (three for the 2^20-frame range,
    /// which dominates the test's run time): every offset, the `None` at
    /// exhaustion, and one RNG word drawn after the sampler stops (so a
    /// change in how many RNG calls a sampler makes shows even when its
    /// offsets do not).  Pins the draw order bit for bit across rewrites of
    /// the sampler's bookkeeping.
    #[test]
    fn random_plus_draw_sequence_is_pinned() {
        const GOLDEN: u64 = 0xcc23_51ff_f29f_5b59;
        fn fold(digest: u64, value: u64) -> u64 {
            value.to_le_bytes().into_iter().fold(digest, |d, byte| {
                (d ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let lens = (0..400u64).chain([1_000, 4_097, 30_000, 1 << 20]);
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for len in lens {
            let seeds: u64 = if len > 100_000 { 3 } else { 8 };
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ len);
                let mut s = RandomPlusSampler::new(len);
                digest = fold(digest, len);
                while let Some(f) = s.next_frame(&mut rng) {
                    digest = fold(digest, f);
                }
                digest = fold(digest, u64::MAX);
                digest = fold(digest, rng.gen::<u64>());
            }
        }
        assert_eq!(digest, GOLDEN, "random+ draw sequence: {digest:#018x}");
    }

    #[test]
    fn samplers_report_progress() {
        let mut rng = StdRng::seed_from_u64(89);
        let mut s = RandomPlusSampler::new(10);
        assert_eq!(s.sampled(), 0);
        assert_eq!(s.remaining(), 10);
        s.next_frame(&mut rng);
        s.next_frame(&mut rng);
        assert_eq!(s.sampled(), 2);
        assert_eq!(s.remaining(), 8);
    }
}
