//! Shard routing, per-shard tallies, and the slice — the unit of DETECT work.
//!
//! Shards are a **reporting view**.  A [`ShardRouter`] maps a frame to the
//! shard owning its chunk, and the engine reads it in exactly one kind of
//! place: where a tally is recorded, to decide which shard's
//! [`ShardReport`] it is added to.  Nothing executes per
//! shard: PICK is global (per-query policies span the full chunk space and
//! own their RNG streams), DETECT runs over one set of lanes — one per
//! logical detector group — and FAN-OUT stays in registration/pick order, so
//! every stage executes the same way for any router, and the global report
//! cannot depend on it.
//!
//! A stage's DETECT is:
//!
//! 1. `Lanes::probe` (coordinator) — sort and deduplicate each lane's frames
//!    (one lane per registry slot, so this is the coalescing) and answer what
//!    it can from the cross-stage cache (a membership read plus a
//!    hit/miss tally per frame — never a recency or membership mutation),
//!    recording each lane's hits and misses as commit *intents*;
//! 2. `gather_slices` (coordinator) — lay the lanes' misses end to end in
//!    canonical `(group, frame)` order and cut that flat list into one
//!    contiguous `Slice` of equal frame count per lane.  A batch never spans
//!    groups and a group is cut only where a lane boundary falls inside it,
//!    so a stage issues at most `groups + lanes − 1` batch probes — and
//!    exactly `groups` when serial — and the lanes are evenly loaded however
//!    skewed the picks;
//! 3. `Slice::run` (any thread — the slices travel to the persistent per-run
//!    pool of [`crate::runtime`], carrying frames and detector references
//!    only) — one batched detector invocation per batch; a failed one tries
//!    each of its frames once on its own, and the first frame that fails
//!    that try aborts the stage;
//! 4. `scatter_slices` (coordinator) — apply the outcomes to the lanes and
//!    the tallies in the same canonical order, stopping at the first failed
//!    frame;
//! 5. `Lanes::commit` (coordinator) — sort every recorded hit and fresh
//!    result into canonical `(slot, frame)` order, then apply all touches
//!    followed by all inserts to the cache.  The order depends only on
//!    *which* frames were probed and detected, never on the lane count, so
//!    cache accounting is bitwise-identical across thread counts.
//!
//! Only step 3 leaves the coordinator, and a slice's outcome is a pure
//! function of its frames and detectors, so where the lane boundaries fall —
//! and which thread runs which slice — changes the *physical* invocation
//! shape and nothing else.
//!
//! A one-group stage without pool helpers is one batch, so there is nothing
//! to cut: `Lanes::detect_in_place` does steps 2–4 as that one call.
//!
//! Lane results are held by position in the lane's frame list, and every
//! miss carries its position, so neither the scatter nor the commit
//! searches.  A fresh detection stays owned until the cache commit shares
//! it as an `Arc`; a cache hit is an `Arc` bump.

use crate::cache::{CacheActivity, DetectionCache, DetectorSlot, Key};
use crate::error::EngineError;
use crate::merge::{BatchStats, DetectorInvocations, ShardQueryTally, ShardReport};
use exsample_detect::{DetectError, Detector, FrameDetections};
use exsample_video::{Chunking, FrameId, ShardSpec};
use std::sync::Arc;

/// A frame that failed its batch probe and its one per-frame try, parked on
/// the [`Lanes`]: [`scatter_slices`] stops at the first one in canonical
/// order and the engine aborts the stage with
/// [`EngineError::DetectorFailed`].
#[derive(Debug)]
pub(crate) struct DetectFailure {
    /// Registry slot of the failing detector.
    pub slot: DetectorSlot,
    /// The frame that failed.
    pub frame: FrameId,
    /// The error its per-frame try returned.
    pub error: DetectError,
}

/// Maps global frame ids to the shard owning them — the key the per-shard
/// report view groups tallies by.
///
/// Built from a [`ShardSpec`] over a [`Chunking`]: a frame's shard is the
/// shard of its chunk.  The 1-shard router ([`ShardRouter::single`]) is the
/// unsharded view and attributes everything to shard 0 without a lookup.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// One-past-the-end frame id of each run of consecutive chunks owned by
    /// one shard (ascending): one run per shard for a contiguous layout, one
    /// per chunk for round-robin.
    bounds: Vec<FrameId>,
    /// `shards[r]` = shard owning run `r`.
    shards: Vec<u32>,
    shard_count: usize,
}

impl ShardRouter {
    /// The unsharded router: every frame belongs to shard 0.
    pub fn single() -> Self {
        ShardRouter {
            bounds: Vec::new(),
            shards: Vec::new(),
            shard_count: 1,
        }
    }

    /// Route frames according to `spec` over `chunking`.
    ///
    /// # Errors
    /// Returns [`EngineError::ShardSpecMismatch`] if the spec's chunk count
    /// does not match the chunking.
    pub fn new(chunking: &Chunking, spec: &ShardSpec) -> Result<Self, EngineError> {
        if spec.chunk_count() != chunking.len() {
            return Err(EngineError::ShardSpecMismatch {
                spec_chunks: spec.chunk_count(),
                chunking_chunks: chunking.len(),
            });
        }
        let mut bounds: Vec<FrameId> = Vec::new();
        let mut shards: Vec<u32> = Vec::new();
        for (chunk, &shard) in chunking.chunks().iter().zip(spec.shard_assignment()) {
            match (shards.last(), bounds.last_mut()) {
                (Some(&owner), Some(end)) if owner == shard => *end = chunk.end(),
                _ => {
                    bounds.push(chunk.end());
                    shards.push(shard);
                }
            }
        }
        Ok(ShardRouter {
            bounds,
            shards,
            shard_count: spec.shard_count() as usize,
        })
    }

    /// The common construction in one call: a contiguous-range
    /// [`ShardSpec`] over `chunking`, or the bounds-free
    /// [`ShardRouter::single`] router for `shards <= 1` (the "one shard means
    /// unsharded" convention every harness uses).
    pub fn contiguous(chunking: &Chunking, shards: u32) -> Self {
        if shards <= 1 {
            return ShardRouter::single();
        }
        ShardRouter::new(chunking, &ShardSpec::contiguous(chunking.len(), shards))
            .expect("the spec was built from this chunking")
    }

    /// Number of shards tallies are grouped into.
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning `frame`.
    ///
    /// # Panics
    /// Panics if the router was built from a chunking and `frame` lies beyond
    /// it (a policy produced a frame id outside the repository).  The
    /// bounds-free [`ShardRouter::single`] router cannot perform this check —
    /// any chunking-built router does, even at shard count 1.
    #[inline]
    pub(crate) fn shard_of(&self, frame: FrameId) -> usize {
        if self.bounds.is_empty() {
            return 0;
        }
        let run = self.bounds.partition_point(|&end| end <= frame);
        assert!(
            run < self.shards.len(),
            "frame {frame} is beyond the sharded chunking"
        );
        self.shards[run] as usize
    }
}

/// The per-shard view of a run: one cumulative [`ShardReport`] per shard of
/// the router, each tally added — where it is recorded — to the shard owning
/// the frame it was paid for.  Reading the router is all the view does; it
/// never changes what executes.
#[derive(Debug)]
pub(crate) struct ShardView {
    router: ShardRouter,
    /// Cumulative tallies per shard.  `per_query` grows on demand and
    /// `per_detector` is indexed by registry slot; [`ShardView::publish`]
    /// turns both into their report shape.
    shards: Vec<ShardReport>,
}

impl ShardView {
    pub(crate) fn new(router: ShardRouter) -> Self {
        let shards = (0..router.shard_count() as u32)
            .map(|shard| ShardReport {
                shard,
                ..ShardReport::default()
            })
            .collect();
        ShardView { router, shards }
    }

    /// The tallies of the shard owning `frame`.
    #[inline]
    fn of(&mut self, frame: FrameId) -> &mut ShardReport {
        let shard = self.router.shard_of(frame);
        &mut self.shards[shard]
    }

    /// `count` physical invocations of `frames` frames each against `slot`,
    /// attributed to the shard owning the batch's first frame `first`.
    fn call(&mut self, slot: DetectorSlot, first: FrameId, frames: u64, count: u64) {
        let tally = self.of(first);
        tally.detector_calls += count;
        tally.batches.record_repeat(frames, count);
        detector_entry(tally, slot).calls += count;
    }

    fn detected(&mut self, slot: DetectorSlot, frame: FrameId) {
        let tally = self.of(frame);
        tally.detector_frames += 1;
        detector_entry(tally, slot).frames += 1;
    }

    fn probed(&mut self, frame: FrameId, hit: bool) {
        let cache = &mut self.of(frame).cache;
        if hit {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
    }

    fn committed(&mut self, frame: FrameId, outcome: CacheActivity) {
        self.of(frame).cache.absorb(outcome);
    }

    /// One frame of query `query` observed (with `new_hits` ground-truth
    /// instances first found on it).
    #[inline]
    pub(crate) fn observed(&mut self, query: usize, frame: FrameId, new_hits: u64) {
        let tally = query_entry(self.of(frame), query);
        tally.frames += 1;
        tally.hits += new_hits;
    }

    /// The per-shard reports of a run over `queries` registered queries:
    /// per-query tallies padded to the query count, per-detector tallies of
    /// the detectors this shard paid for, labelled by `class(slot)`.
    pub(crate) fn publish(
        &self,
        queries: usize,
        class: impl Fn(usize) -> String,
    ) -> Vec<ShardReport> {
        self.shards
            .iter()
            .map(|tally| {
                let mut report = tally.clone();
                report.per_query.resize(queries, Default::default());
                report.per_detector.retain(|d| d.frames > 0 || d.calls > 0);
                for detector in &mut report.per_detector {
                    detector.class = class(detector.detector as usize);
                }
                report
            })
            .collect()
    }
}

fn detector_entry(tally: &mut ShardReport, slot: DetectorSlot) -> &mut DetectorInvocations {
    let slot = slot as usize;
    if tally.per_detector.len() <= slot {
        let len = tally.per_detector.len();
        tally
            .per_detector
            .extend((len..=slot).map(|detector| DetectorInvocations {
                detector: detector as u32,
                ..DetectorInvocations::default()
            }));
    }
    &mut tally.per_detector[slot]
}

fn query_entry(tally: &mut ShardReport, query: usize) -> &mut ShardQueryTally {
    if tally.per_query.len() <= query {
        tally.per_query.resize(query + 1, Default::default());
    }
    &mut tally.per_query[query]
}

/// One frame's detections in a lane: owned when freshly detected, shared
/// when they came from the cache or were handed to it.
#[derive(Debug)]
enum Held {
    Owned(FrameDetections),
    Shared(Arc<FrameDetections>),
}

impl Held {
    fn get(&self) -> &FrameDetections {
        match self {
            Held::Owned(detections) => detections,
            Held::Shared(detections) => detections,
        }
    }

    /// A shared handle to the detections, turning owned ones into an `Arc`
    /// in place the first time something shares them.
    fn share(&mut self) -> Arc<FrameDetections> {
        let shared = match std::mem::replace(self, Held::Owned(FrameDetections::empty(0))) {
            Held::Owned(detections) => Arc::new(detections),
            Held::Shared(detections) => detections,
        };
        *self = Held::Shared(Arc::clone(&shared));
        shared
    }
}

/// One logical detector group's frames and results for one stage.  Slots
/// and their allocations are reused across stages.
#[derive(Debug, Default)]
struct Lane {
    /// The group's picks; sorted and deduplicated by [`Lanes::probe`].
    frames: Vec<FrameId>,
    /// Frames of this lane not answered by the cache ([`Lanes::probe`]), in
    /// lane order — this lane's share of the stage's detector demand.
    misses: Vec<FrameId>,
    /// The position in `frames` of each entry of `misses`.
    miss_at: Vec<usize>,
    /// Frames of this lane answered by the cache, in probe order — the
    /// touch intents replayed by [`Lanes::commit`].
    hits: Vec<FrameId>,
    /// One slot per entry of `frames`: its detections, once detected or
    /// answered by the cache.
    results: Vec<Option<Held>>,
}

/// A stage's DETECT state: one lane per logical detector group, and what the
/// stage has paid so far.  Lives on the coordinator for the whole run —
/// DETECT work leaves it as [`Slice`]s.  Every tally recorded here is also
/// attributed to the [`ShardView`] passed alongside.
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    /// Lanes in use this stage (dead slots keep their allocations).
    live: usize,
    /// Frames detected for each logical group this stage.
    pub detected: Vec<u64>,
    /// This stage's physical batch-size statistics.
    pub batches: BatchStats,
    /// This stage's cache activity: probe hits/misses plus the
    /// evictions its commit triggered.
    pub cache: CacheActivity,
    /// The stage's first failed frame; the engine aborts the stage on
    /// finding one.
    pub fatal: Option<DetectFailure>,
    /// [`Lanes::detect_in_place`]'s batch output, reused across stages.
    batch_out: Vec<FrameDetections>,
}

impl Lanes {
    /// Prepare for a stage with `groups` logical detector groups.
    pub(crate) fn begin_stage(&mut self, groups: usize) {
        if self.lanes.len() < groups {
            self.lanes.resize_with(groups, Lane::default);
        }
        for lane in &mut self.lanes[..groups] {
            lane.frames.clear();
            lane.misses.clear();
            lane.miss_at.clear();
            lane.hits.clear();
            lane.results.clear();
        }
        self.live = groups;
        self.detected.clear();
        self.detected.resize(groups, 0);
        self.batches = BatchStats::default();
        self.cache = CacheActivity::default();
        self.fatal = None;
    }

    /// Append picked frames to the lane of logical group `group`, after
    /// [`Lanes::begin_stage`].
    pub(crate) fn push_frames(&mut self, group: usize, frames: &[FrameId]) {
        self.lanes[group].frames.extend_from_slice(frames);
    }

    /// Sort and deduplicate each lane's frames — queries sharing a detector
    /// share its lane, and so the detector bill — and split the lane into
    /// cache hits (answered in place with an `Arc` clone of the cached entry,
    /// and recorded in probe order as touch intents) and misses (this lane's
    /// share of the stage's detector demand, see [`gather_slices`]).
    ///
    /// Runs once per stage, on the coordinator, before the gather — which
    /// needs its result — and only *reads* cache membership while tallying
    /// hits and misses, so probe outcomes are a pure function of the
    /// membership set.
    pub(crate) fn probe(
        &mut self,
        detector_slots: &[DetectorSlot],
        mut cache: Option<&mut DetectionCache>,
        view: &mut ShardView,
    ) {
        for (lane, &slot) in self.lanes[..self.live].iter_mut().zip(detector_slots) {
            lane.frames.sort_unstable();
            lane.frames.dedup();
            lane.results.resize_with(lane.frames.len(), || None);
            let Some(cache) = cache.as_deref_mut() else {
                lane.misses.extend_from_slice(&lane.frames);
                lane.miss_at.extend(0..lane.frames.len());
                continue;
            };
            for (at, &frame) in lane.frames.iter().enumerate() {
                let hit = match cache.probe((slot, frame)) {
                    Some(detections) => {
                        lane.results[at] = Some(Held::Shared(detections));
                        lane.hits.push(frame);
                        self.cache.hits += 1;
                        true
                    }
                    None => {
                        lane.misses.push(frame);
                        lane.miss_at.push(at);
                        self.cache.misses += 1;
                        false
                    }
                };
                view.probed(frame, hit);
            }
        }
    }

    /// Record `count` physical invocations of `frames` frames each whose
    /// batch starts at frame `first`, whatever their outcome.
    fn record_call(
        &mut self,
        view: &mut ShardView,
        slot: DetectorSlot,
        first: FrameId,
        frames: u64,
        count: u64,
    ) {
        self.batches.record_repeat(frames, count);
        view.call(slot, first, frames, count);
    }

    /// Take the detections of one frame, at position `at` of logical group
    /// `group`'s lane (registry slot `slot`).
    fn absorb_detection(
        &mut self,
        view: &mut ShardView,
        (group, slot, at): (usize, DetectorSlot, usize),
        frame: FrameId,
        detections: FrameDetections,
    ) {
        self.detected[group] += 1;
        view.detected(slot, frame);
        self.lanes[group].results[at] = Some(Held::Owned(detections));
    }

    /// Take one frame's per-frame try after a failed batch probe: the try is
    /// a physical call, a recovered frame lands in the group's lane results,
    /// and a failed one gains no result — so it can never be committed to
    /// the cache or fanned out — and is parked in [`Lanes::fatal`].
    fn absorb_recovery(
        &mut self,
        view: &mut ShardView,
        (group, slot, at): (usize, DetectorSlot, usize),
        frame: FrameId,
        recovery: Result<FrameDetections, DetectError>,
    ) {
        self.record_call(view, slot, frame, 1, 1);
        match recovery {
            Ok(detections) => self.absorb_detection(view, (group, slot, at), frame, detections),
            Err(error) => self.fatal = Some(DetectFailure { slot, frame, error }),
        }
    }

    /// DETECT of a one-batch stage (one group, no pool helpers) in place:
    /// exactly what gathering lane 0's misses into one slice, running it and
    /// scattering it would do, through the same absorb calls in the same
    /// order — there is just nothing to cut.
    pub(crate) fn detect_in_place(
        &mut self,
        view: &mut ShardView,
        detector: &dyn Detector,
        slot: DetectorSlot,
    ) {
        let misses = std::mem::take(&mut self.lanes[0].misses);
        let miss_at = std::mem::take(&mut self.lanes[0].miss_at);
        if let Some(&first) = misses.first() {
            let mut out = std::mem::take(&mut self.batch_out);
            let probe = detector.try_detect_batch(&misses, &mut out);
            self.record_call(view, slot, first, misses.len() as u64, 1);
            let frames = misses.iter().zip(&miss_at);
            // An `Ok` without one detection set per frame asked is a failed
            // probe too: its frames go through per-frame recovery.
            if probe.is_ok() && out.len() == misses.len() {
                for ((&frame, &at), detections) in frames.zip(out.drain(..)) {
                    self.absorb_detection(view, (0, slot, at), frame, detections);
                }
            } else {
                out.clear();
                for (&frame, &at) in frames {
                    let recovery = recover_frame(detector, frame);
                    self.absorb_recovery(view, (0, slot, at), frame, recovery);
                    if self.fatal.is_some() {
                        break;
                    }
                }
            }
            self.batch_out = out;
        }
        self.lanes[0].misses = misses;
        self.lanes[0].miss_at = miss_at;
    }

    /// Serial cache commit: every recorded probe hit (touch intent) and fresh
    /// detection (insert intent), each kind sorted into canonical
    /// `(slot, frame)` order, touches first.  Keys are unique — a stage has
    /// one lane per registry slot, and [`Lanes::probe`] deduplicates each
    /// lane — so the canonical order, and with it every recency update and
    /// eviction, depends only on the set of frames probed and detected this
    /// stage, never on which thread ran which slice.
    ///
    /// Cache hygiene under faults: a stage with a failed frame aborts before
    /// its commit, and a frame recovered by its per-frame try has one result
    /// — so only frames with an actual result reach the LRU, and each
    /// exactly once per stage.
    pub(crate) fn commit(
        &mut self,
        detector_slots: &[DetectorSlot],
        cache: &mut DetectionCache,
        view: &mut ShardView,
    ) {
        let live = &mut self.lanes[..self.live];
        let mut touches: Vec<Key> = live
            .iter()
            .zip(detector_slots)
            .flat_map(|(lane, &slot)| lane.hits.iter().map(move |&frame| (slot, frame)))
            .collect();
        touches.sort_unstable();
        let mut inserts: Vec<(Key, Arc<FrameDetections>)> = Vec::new();
        for (lane, &slot) in live.iter_mut().zip(detector_slots) {
            for (&frame, &at) in lane.misses.iter().zip(&lane.miss_at) {
                // A miss without a result failed its per-frame try (the
                // engine aborts such a stage before its commit).
                if let Some(held) = lane.results[at].as_mut() {
                    inserts.push(((slot, frame), held.share()));
                }
            }
        }
        inserts.sort_unstable_by_key(|&(key, _)| key);
        debug_assert!(
            touches.windows(2).all(|pair| pair[0] != pair[1])
                && inserts.windows(2).all(|pair| pair[0].0 != pair[1].0),
            "a cache key repeats within one stage's commit"
        );
        for key in touches {
            cache.touch(key);
        }
        for (key, detections) in inserts {
            let outcome = cache.insert(key, detections);
            self.cache.absorb(outcome);
            view.committed(key.1, outcome);
        }
    }

    /// Frames detected this stage (the sum of the per-group counts).
    pub(crate) fn detected_frames(&self) -> u64 {
        self.detected.iter().sum()
    }

    /// The detections of `frame` in logical group `group`, if it was
    /// detected (or cache-answered) this stage.  The lane is sorted, so the
    /// frame is found by binary search.
    #[inline]
    pub(crate) fn result(&self, group: usize, frame: FrameId) -> Option<&FrameDetections> {
        let lane = self.lanes.get(group)?;
        let at = lane.frames.binary_search(&frame).ok()?;
        lane.results.get(at)?.as_ref().map(Held::get)
    }
}

/// The one per-frame try of a frame whose batch probe failed — shared by
/// [`Slice::run`] and [`Lanes::detect_in_place`], and a pure function of
/// `(detector, frame)`.  It identifies which frames of a failed batch
/// actually fail: an error, or an `Ok` that does not carry exactly one
/// detection set (a [`DetectError::Permanent`] naming the frame), fails the
/// frame and so aborts the stage.  Because the frame's attempt history is
/// always one batch probe plus this one try, the outcome — and the failure
/// the engine reports — is identical however the failed batch was composed:
/// the engine's fault determinism guarantee.
fn recover_frame(detector: &dyn Detector, frame: FrameId) -> Result<FrameDetections, DetectError> {
    let mut buf = Vec::with_capacity(1);
    detector.try_detect_batch(std::slice::from_ref(&frame), &mut buf)?;
    match buf.len() {
        1 => Ok(buf.remove(0)),
        answered => Err(DetectError::Permanent {
            frame,
            message: format!("answered {answered} detection sets for one frame"),
        }),
    }
}

/// One physical batched invocation of a [`Slice`]: `len` consecutive frames
/// of the slice, all of logical group `group`.
struct Batch<'a> {
    group: usize,
    detector: &'a dyn Detector,
    len: usize,
}

/// What running one [`Batch`] produced, in batch order.
enum BatchOutcome {
    /// The batch probe succeeded: one detection set per frame — the
    /// fault-free path.
    Detected(Vec<FrameDetections>),
    /// The batch probe failed somewhere: every frame went through
    /// [`recover_frame`], and the list ends at the first frame that failed.
    Recovered(Vec<Result<FrameDetections, DetectError>>),
}

/// The unit of DETECT work: one lane's contiguous span of a stage's gathered
/// detector demand, as the batches it cuts into — built by
/// [`gather_slices`], run on whichever thread the pool gives it, applied by
/// [`scatter_slices`].  It carries frame ids and detector references only, so
/// its outcomes are a pure function of what it was handed.
pub(crate) struct Slice<'a> {
    frames: Vec<FrameId>,
    batches: Vec<Batch<'a>>,
    /// One outcome per batch run, in batch order (shorter than `batches`
    /// only when a failed frame stopped the run).
    outcomes: Vec<BatchOutcome>,
}

impl Slice<'_> {
    /// Run the slice's batches in order: one batched
    /// [`Detector::try_detect_batch`] call each — the fault-free path,
    /// identical in cost and behaviour to the pre-fault-tolerance engine —
    /// and, when that probe errs or answers a frame count other than the
    /// batch's, [`recover_frame`] for each of the batch's frames in order.
    /// The run stops at the first frame that fails: nothing after it in
    /// canonical order will be applied.
    pub(crate) fn run(&mut self) {
        let mut start = 0;
        for batch in &self.batches {
            let frames = &self.frames[start..start + batch.len];
            start += batch.len;
            let mut detections = Vec::with_capacity(frames.len());
            let probe = batch.detector.try_detect_batch(frames, &mut detections);
            // As in `Lanes::detect_in_place`: a miscounted `Ok` is a failed probe.
            if probe.is_ok() && detections.len() == frames.len() {
                self.outcomes.push(BatchOutcome::Detected(detections));
                continue;
            }
            let mut recoveries = Vec::with_capacity(frames.len());
            let mut fatal = false;
            for &frame in frames {
                let recovery = recover_frame(batch.detector, frame);
                fatal = recovery.is_err();
                recoveries.push(recovery);
                if fatal {
                    break;
                }
            }
            self.outcomes.push(BatchOutcome::Recovered(recoveries));
            if fatal {
                return;
            }
        }
    }
}

/// Gather the stage's detector demand — every lane's misses, in canonical
/// `(group, frame-within-lane)` order — and cut it into `lanes` contiguous
/// [`Slice`]s of equal frame count (the first `total % lanes` get the odd
/// frame).  Never builds an empty slice: `slices` ends up with
/// `min(lanes, total)` entries, none at all when every frame was a cache hit.
///
/// A batch never spans groups, and a group is cut only where a lane boundary
/// falls inside it — so the slices hold at most `groups + lanes − 1` batches
/// between them, exactly `groups` of them when `lanes` is 1.
/// `detectors[g]` is logical group `g`'s detector.
pub(crate) fn gather_slices<'a>(
    demand: &Lanes,
    detectors: &[&'a dyn Detector],
    lanes: usize,
    slices: &mut Vec<Slice<'a>>,
) {
    let groups = &demand.lanes[..detectors.len()];
    let total: usize = groups.iter().map(|lane| lane.misses.len()).sum();
    let spans = lanes.min(total);
    // Recycle last stage's slices: their buffers keep their allocations.
    slices.resize_with(spans, || Slice {
        frames: Vec::new(),
        batches: Vec::new(),
        outcomes: Vec::new(),
    });
    for slice in slices.iter_mut() {
        slice.frames.clear();
        slice.batches.clear();
        slice.outcomes.clear();
    }
    if spans == 0 {
        return;
    }
    let quota = |span: usize| total / spans + usize::from(span < total % spans);
    let mut span = 0;
    let mut room = quota(0);
    for (group, (&detector, lane)) in detectors.iter().zip(groups).enumerate() {
        let mut misses = lane.misses.as_slice();
        while !misses.is_empty() {
            if room == 0 {
                span += 1;
                room = quota(span);
            }
            let (taken, rest) = misses.split_at(misses.len().min(room));
            misses = rest;
            room -= taken.len();
            let slice = &mut slices[span];
            slice.frames.extend_from_slice(taken);
            match slice.batches.last_mut() {
                Some(batch) if batch.group == group => batch.len += taken.len(),
                _ => slice.batches.push(Batch {
                    group,
                    detector,
                    len: taken.len(),
                }),
            }
        }
    }
}

/// Apply the run slices' outcomes to the lanes, in the canonical order
/// [`gather_slices`] laid the frames out in.  Results land in their group's
/// lane, logical tallies (detected frames, per-group counts) on the stage
/// and on the shard owning each frame — so they are identical for any lane count — and each
/// *physical* batch probe (with its batch statistics) on the shard owning the
/// batch's first frame, so per-shard call counts stay well-defined and
/// `batches.count` keeps tracking `detector_calls` everywhere.
///
/// The pass stops at the first failed frame in canonical order, parked as
/// [`Lanes::fatal`]: whatever lanes ran beyond it is
/// discarded, which makes the reported failure independent of the lane
/// count, and the engine abandons the stage before any commit.
pub(crate) fn scatter_slices(
    lanes: &mut Lanes,
    view: &mut ShardView,
    detector_slots: &[DetectorSlot],
    slices: &mut [Slice<'_>],
) {
    // The gather laid each group's misses out contiguously, in group order:
    // the `k`-th frame the slices hold for a group is its lane's `k`-th miss.
    let (mut group_now, mut next_miss) = (usize::MAX, 0);
    for slice in slices.iter_mut() {
        let mut start = 0;
        for (batch, outcome) in slice.batches.iter().zip(slice.outcomes.drain(..)) {
            let group = batch.group;
            if group != group_now {
                (group_now, next_miss) = (group, 0);
            }
            let slot = detector_slots[group];
            let frames = &slice.frames[start..start + batch.len];
            start += batch.len;
            let first_miss = next_miss;
            next_miss += batch.len;
            let place =
                |lanes: &Lanes, i: usize| (group, slot, lanes.lanes[group].miss_at[first_miss + i]);
            lanes.record_call(view, slot, frames[0], batch.len as u64, 1);
            match outcome {
                BatchOutcome::Detected(detections) => {
                    for (i, (&frame, detections)) in frames.iter().zip(detections).enumerate() {
                        lanes.absorb_detection(view, place(lanes, i), frame, detections);
                    }
                }
                BatchOutcome::Recovered(recoveries) => {
                    for (i, (&frame, recovery)) in frames.iter().zip(recoveries).enumerate() {
                        lanes.absorb_recovery(view, place(lanes, i), frame, recovery);
                        if lanes.fatal.is_some() {
                            return;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_detect::ObjectClass;
    use exsample_video::{ChunkingPolicy, ShardPartitioner, VideoRepository};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn chunking(frames: u64, chunks: u32) -> Chunking {
        let repo = VideoRepository::single_clip(frames);
        Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks })
    }

    /// A detector with hand-placed faults: each listed transient frame fails
    /// its first `n` attempts, each permanent frame fails every attempt.
    /// Every `try_detect_batch` call charges one attempt to every frame in
    /// the batch, exactly like `FaultInjectingDetector`.
    struct FlakyDetector {
        class: ObjectClass,
        attempts: Mutex<HashMap<FrameId, u32>>,
        transient_until: Vec<(FrameId, u32)>,
        permanent: Vec<FrameId>,
        calls: AtomicU64,
    }

    impl FlakyDetector {
        fn new(transient_until: Vec<(FrameId, u32)>, permanent: Vec<FrameId>) -> Self {
            FlakyDetector {
                class: ObjectClass::from("car"),
                attempts: Mutex::new(HashMap::new()),
                transient_until,
                permanent,
                calls: AtomicU64::new(0),
            }
        }

        fn attempts_on(&self, frame: FrameId) -> u32 {
            *self.attempts.lock().unwrap().get(&frame).unwrap_or(&0)
        }
    }

    impl Detector for FlakyDetector {
        fn detect(&self, frame: FrameId) -> FrameDetections {
            FrameDetections::empty(frame)
        }

        fn class(&self) -> &ObjectClass {
            &self.class
        }

        fn try_detect_batch(
            &self,
            frames: &[FrameId],
            out: &mut Vec<FrameDetections>,
        ) -> Result<(), exsample_detect::DetectError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut attempts = self.attempts.lock().unwrap();
            let mut first: Option<exsample_detect::DetectError> = None;
            for &frame in frames {
                let counter = attempts.entry(frame).or_insert(0);
                let current = *counter;
                *counter += 1;
                if first.is_none() {
                    if self.permanent.contains(&frame) {
                        first = Some(exsample_detect::DetectError::Permanent {
                            frame,
                            message: "weights corrupted".to_string(),
                        });
                    } else if self
                        .transient_until
                        .iter()
                        .any(|&(f, until)| f == frame && current < until)
                    {
                        first = Some(exsample_detect::DetectError::Transient {
                            frame,
                            message: "timeout".to_string(),
                        });
                    }
                }
            }
            match first {
                Some(err) => Err(err),
                None => {
                    out.extend(frames.iter().map(|&f| FrameDetections::empty(f)));
                    Ok(())
                }
            }
        }
    }

    /// The unsharded view.
    fn view() -> ShardView {
        ShardView::new(ShardRouter::single())
    }

    /// One stage with `frames` in group 0, probed against `cache`.
    fn stage(frames: &[FrameId], cache: Option<&mut DetectionCache>) -> (Lanes, ShardView) {
        let mut lanes = Lanes::default();
        let mut view = view();
        lanes.begin_stage(1);
        lanes.push_frames(0, frames);
        lanes.probe(&[0], cache, &mut view);
        (lanes, view)
    }

    /// One stage's DETECT over probed `lanes`: gather over `count` lanes, run
    /// every slice, scatter.  Returns each slice's frame count.
    fn detect_stage(
        lanes: &mut Lanes,
        view: &mut ShardView,
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
        count: usize,
    ) -> Vec<usize> {
        let mut slices = Vec::new();
        gather_slices(lanes, detectors, count, &mut slices);
        slices.iter_mut().for_each(Slice::run);
        let sizes = slices.iter().map(|slice| slice.frames.len()).collect();
        scatter_slices(lanes, view, slots, &mut slices);
        sizes
    }

    /// One stage's DETECT without pool helpers, as the engine runs it: in
    /// place for one group, else [`detect_stage`] on one lane.
    fn detect(
        lanes: &mut Lanes,
        view: &mut ShardView,
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
    ) {
        if let ([detector], [slot]) = (detectors, slots) {
            lanes.detect_in_place(view, *detector, *slot);
        } else {
            detect_stage(lanes, view, detectors, slots, 1);
        }
    }

    /// Whether `frame` of group `group` has a result this stage.
    fn resolved(lanes: &Lanes, group: usize, frame: FrameId) -> bool {
        let lane = &lanes.lanes[group];
        let at = lane.frames.iter().position(|&f| f == frame);
        at.is_some_and(|at| lane.results[at].is_some())
    }

    #[test]
    fn failed_frames_are_never_cached_and_a_recovered_retry_commits_once() {
        // Frame 5 fails its batch probe only, frames 1 and 9 are healthy:
        // the failed probe tries each frame once on its own, and all three
        // recover.
        let detector = FlakyDetector::new(vec![(5, 1)], Vec::new());
        let mut cache = DetectionCache::new(8);
        let (mut lanes, mut view) = stage(&[1, 5, 9], Some(&mut cache));
        detect(&mut lanes, &mut view, &[&detector], &[0]);
        assert!(lanes.fatal.is_none());
        for frame in [1, 5, 9] {
            assert!(resolved(&lanes, 0, frame));
            assert_eq!(detector.attempts_on(frame), 2, "probe + one try");
        }
        assert_eq!(lanes.detected_frames(), 3);
        // The probe and the three per-frame tries are physical calls.
        assert_eq!(lanes.batches.count, 4);
        assert_eq!(view.shards[0].detector_calls, 4);

        // Cache hygiene: the recovered frame is committed exactly once.
        lanes.commit(&[0], &mut cache, &mut view);
        let held = cache.probe((0, 5)).expect("recovered frame is cached");
        // Cache entry + lane result + our handle.
        assert_eq!(Arc::strong_count(&held), 3);
        // Releasing the lane leaves exactly one committed handle (plus ours):
        // the per-frame try committed once, not once per attempt.
        lanes.begin_stage(1);
        assert_eq!(Arc::strong_count(&held), 2);
        assert_eq!(cache.stats().len, 3);

        // A follow-up stage over the same frames is answered by the cache.
        let calls_before = detector.calls.load(Ordering::SeqCst);
        let (mut lanes, mut view) = stage(&[1, 5, 9], Some(&mut cache));
        detect(&mut lanes, &mut view, &[&detector], &[0]);
        assert_eq!(detector.calls.load(Ordering::SeqCst), calls_before);
        assert_eq!(lanes.detected_frames(), 0);

        // A frame that fails its per-frame try gains no result, so even a
        // commit of its stage could not cache it.
        let detector = FlakyDetector::new(Vec::new(), vec![11]);
        let (mut lanes, mut view) = stage(&[11], Some(&mut cache));
        detect(&mut lanes, &mut view, &[&detector], &[0]);
        assert!(lanes.fatal.is_some());
        lanes.commit(&[0], &mut cache, &mut view);
        assert!(
            cache.probe((0, 11)).is_none(),
            "failed frame must not be cached"
        );
    }

    #[test]
    fn commit_touches_hits_in_slot_order_whatever_the_group_order() {
        // Group 0 is registry slot 1 and group 1 is slot 0, as when a stage's
        // first picking query uses the later-registered detector.  Both
        // groups hit; the canonical commit touches (0, 7) before (1, 3), so
        // the stage's one insert, (0, 9), evicts (0, 7), whatever order the
        // lanes hold the hits in.  (0, 7) went in last, so only the touches
        // can make it the least recently used entry.
        let detector = FlakyDetector::new(vec![], vec![]);
        let mut cache = DetectionCache::new(2);
        for (slot, frame) in [(1, 3), (0, 7)] {
            cache.insert((slot, frame), Arc::new(FrameDetections::empty(frame)));
        }
        let (mut lanes, mut view) = (Lanes::default(), view());
        lanes.begin_stage(2);
        lanes.push_frames(0, &[3]);
        lanes.push_frames(1, &[7, 9]);
        let slots = [1, 0];
        lanes.probe(&slots, Some(&mut cache), &mut view);
        detect(&mut lanes, &mut view, &[&detector, &detector], &slots);
        lanes.commit(&slots, &mut cache, &mut view);
        assert_eq!(lanes.cache.evictions, 1);
        assert!(cache.probe((0, 7)).is_none(), "the LRU hit is evicted");
        assert!(cache.probe((1, 3)).is_some());
        assert!(cache.probe((0, 9)).is_some());
    }

    #[test]
    fn fail_fast_records_the_first_failure_and_stops_the_lane() {
        let detector = FlakyDetector::new(Vec::new(), vec![9]);
        let mut cache = DetectionCache::new(8);
        let (mut lanes, mut view) = stage(&[2, 9, 14], Some(&mut cache));
        detect(&mut lanes, &mut view, &[&detector], &[0]);
        let fatal = lanes.fatal.as_ref().expect("fail-fast records the failure");
        assert_eq!(fatal.frame, 9);
        assert_eq!(fatal.slot, 0);
        assert_eq!(
            detector.attempts_on(9),
            2,
            "batch probe + one per-frame try"
        );
        assert!(!fatal.error.is_transient());
        // The lane stopped at the failure: frame 14 was never attempted
        // per-frame (only the probe charged it) and nothing after the
        // failure can reach the cache.
        assert_eq!(detector.attempts_on(14), 1);
        lanes.commit(&[0], &mut cache, &mut view);
        assert!(cache.probe((0, 9)).is_none());
        assert!(cache.probe((0, 14)).is_none());
    }

    #[test]
    fn retries_off_fails_transient_frames_without_retrying() {
        // Frame 5 fails its probe and its per-frame try: there is no third
        // attempt, so the transient fault fails the stage.
        let detector = FlakyDetector::new(vec![(5, 2)], Vec::new());
        let (mut lanes, mut view) = stage(&[5], None);
        detect(&mut lanes, &mut view, &[&detector], &[0]);
        assert!(!resolved(&lanes, 0, 5));
        let fatal = lanes.fatal.as_ref().expect("the stage fails");
        assert_eq!(fatal.frame, 5);
        assert!(fatal.error.is_transient());
        // Probe + the single per-frame try.
        assert_eq!(detector.attempts_on(5), 2);
    }

    #[test]
    fn slices_are_even_and_never_empty_however_skewed_the_routing() {
        // Four contiguous shards of 25 frames, every frame on shard 2: the
        // lanes still share evenly, and the view attributes everything to
        // the shard owning the frames.
        let chunking = chunking(100, 4);
        let router = ShardRouter::new(&chunking, &ShardSpec::contiguous(4, 4)).unwrap();
        let detector = FlakyDetector::new(Vec::new(), Vec::new());
        let frames: Vec<FrameId> = (50..59).collect();
        for (count, expected) in [
            (1usize, vec![9usize]),
            (2, vec![5, 4]),
            (4, vec![3, 2, 2, 2]),
            (16, vec![1; 9]),
        ] {
            let mut lanes = Lanes::default();
            let mut view = ShardView::new(router.clone());
            lanes.begin_stage(1);
            lanes.push_frames(0, &frames);
            lanes.probe(&[0], None, &mut view);
            let sizes = detect_stage(&mut lanes, &mut view, &[&detector], &[0], count);
            assert_eq!(sizes, expected, "{count} lanes");
            // One group, so one batch per slice, all attributed to the shard
            // owning the frames; nothing was lost or detected twice.
            assert_eq!(lanes.batches.count, expected.len() as u64);
            assert_eq!(view.shards[2].batches.count, expected.len() as u64);
            assert_eq!(view.shards[2].detector_frames, 9);
            assert_eq!(lanes.detected_frames(), 9);
            for &frame in &frames {
                assert!(resolved(&lanes, 0, frame));
            }
        }
        // No demand, no slice: nothing is ever handed an empty batch.
        let (mut idle, mut view) = stage(&[], None);
        let calls = detector.calls.load(Ordering::SeqCst);
        let sizes = detect_stage(&mut idle, &mut view, &[&detector], &[0], 4);
        assert!(sizes.is_empty());
        assert_eq!(detector.calls.load(Ordering::SeqCst), calls);
    }

    #[test]
    fn a_group_is_cut_only_where_a_lane_boundary_falls_inside_it() {
        // Three groups of 2, 5 and 4 frames, cut over 3 lanes (4 + 4 + 3):
        // slice 0 holds group 0 and the head of group 1, slice 1 the rest of
        // group 1 and one frame of group 2, slice 2 the tail — 3 groups + 2
        // cuts = 5 batches, and none spans two groups.
        let detectors: Vec<FlakyDetector> = (0..3)
            .map(|_| FlakyDetector::new(Vec::new(), Vec::new()))
            .collect();
        let refs: Vec<&dyn Detector> = detectors.iter().map(|d| d as &dyn Detector).collect();
        let mut lanes = Lanes::default();
        let mut view = view();
        lanes.begin_stage(3);
        for (group, count) in [(0usize, 2u64), (1, 5), (2, 4)] {
            let frames: Vec<FrameId> = (0..count).map(|f| group as u64 * 100 + f).collect();
            lanes.push_frames(group, &frames);
        }
        lanes.probe(&[0, 1, 2], None, &mut view);
        let sizes = detect_stage(&mut lanes, &mut view, &refs, &[0, 1, 2], 3);
        assert_eq!(sizes, vec![4, 4, 3]);
        let calls: Vec<u64> = detectors
            .iter()
            .map(|d| d.calls.load(Ordering::SeqCst))
            .collect();
        assert_eq!(calls, vec![1, 2, 2]);
        assert_eq!(lanes.batches.count, 5);
        assert_eq!(lanes.detected, vec![2, 5, 4]);
    }

    #[test]
    fn slice_composition_never_changes_fault_tallies() {
        // Frames 5 and 7 fail their batch probe only, the rest are healthy:
        // however the ten frames are cut over lanes (and so whichever
        // healthy frames share a failed batch), every logical tally is the
        // same.  Only the physical call count moves.
        let frames: Vec<FrameId> = (0..10).collect();
        let run = |count: usize| {
            let detector = FlakyDetector::new(vec![(5, 1), (7, 1)], Vec::new());
            let (mut lanes, mut view) = stage(&frames, None);
            detect_stage(&mut lanes, &mut view, &[&detector], &[0], count);
            assert!(lanes.fatal.is_none(), "{count} lanes");
            let resolved: Vec<bool> = frames
                .iter()
                .map(|&frame| resolved(&lanes, 0, frame))
                .collect();
            (
                lanes.detected_frames(),
                resolved,
                view.shards[0].per_detector[0].frames,
            )
        };
        let serial = run(1);
        assert_eq!(serial, (10, vec![true; 10], 10), "every fault recovers");
        for count in [2usize, 3, 5, 10] {
            assert_eq!(run(count), serial, "{count} lanes");
        }
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure_in_canonical_order_for_any_lane_count() {
        // Frames 9 and 11 both fail permanently.  Whichever lanes they fall
        // into, the stage reports frame 9 — first in gather order — and
        // applies nothing after it, even what another lane did detect.
        let frames = [2u64, 4, 9, 11, 16];
        for count in [1usize, 2, 3, 5] {
            let detector = FlakyDetector::new(Vec::new(), vec![9, 11]);
            let (mut lanes, mut view) = stage(&frames, None);
            detect_stage(&mut lanes, &mut view, &[&detector], &[0], count);
            let fatal = lanes.fatal.as_ref().expect("fail-fast parks it");
            assert_eq!(fatal.frame, 9, "{count} lanes");
            assert_eq!(detector.attempts_on(9), 2, "{count} lanes");
            for before in [2u64, 4] {
                assert!(resolved(&lanes, 0, before), "{count} lanes");
            }
            for after in [11u64, 16] {
                assert!(!resolved(&lanes, 0, after), "{count} lanes");
            }
        }
    }

    #[test]
    fn single_router_maps_everything_to_shard_zero() {
        let router = ShardRouter::single();
        assert_eq!(router.shard_count(), 1);
        for frame in [0u64, 17, u64::MAX] {
            assert_eq!(router.shard_of(frame), 0);
        }
    }

    #[test]
    fn router_agrees_with_the_shard_spec() {
        let chunking = chunking(1_000, 10);
        for p in [ShardPartitioner::RoundRobin, ShardPartitioner::Contiguous] {
            let spec = ShardSpec::new(p, chunking.len(), 3);
            let router = ShardRouter::new(&chunking, &spec).unwrap();
            assert_eq!(router.shard_count(), 3);
            for frame in 0..1_000 {
                let chunk = chunking.chunk_of_frame(frame).0 as usize;
                assert_eq!(
                    router.shard_of(frame) as u32,
                    spec.shard_assignment()[chunk],
                    "{p:?} frame {frame}"
                );
            }
        }
    }

    #[test]
    fn mismatched_spec_is_a_typed_error() {
        let chunking = chunking(100, 4);
        let spec = ShardSpec::contiguous(5, 2);
        let err = ShardRouter::new(&chunking, &spec).unwrap_err();
        assert!(matches!(err, EngineError::ShardSpecMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "beyond the sharded chunking")]
    fn out_of_range_frame_panics() {
        let chunking = chunking(100, 4);
        let spec = ShardSpec::contiguous(4, 2);
        let router = ShardRouter::new(&chunking, &spec).unwrap();
        let _ = router.shard_of(100);
    }

    #[test]
    #[should_panic(expected = "beyond the sharded chunking")]
    fn chunking_built_single_shard_router_still_checks_bounds() {
        let chunking = chunking(100, 4);
        let spec = ShardSpec::contiguous(4, 1);
        let router = ShardRouter::new(&chunking, &spec).unwrap();
        assert_eq!(router.shard_of(99), 0);
        let _ = router.shard_of(100);
    }
}
