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
//! 1. `Lanes::probe` (coordinator) — coalesce each lane's frames and answer
//!    what it can from the cross-stage cache
//!    ([`StripedDetectionCache::probe`], membership reads plus per-stripe
//!    tallies — never a recency or membership mutation), recording each
//!    lane's hits and misses as commit *intents*;
//! 2. `gather_slices` (coordinator) — lay the lanes' misses end to end in
//!    canonical `(group, frame)` order and cut that flat list into one
//!    contiguous `Slice` of equal frame count per lane.  A batch never spans
//!    groups and a group is cut only where a lane boundary falls inside it,
//!    so a stage issues at most `groups + lanes − 1` batch probes — and
//!    exactly `groups` when serial — and the lanes are evenly loaded however
//!    skewed the picks;
//! 3. `Slice::run` (any thread — the slices travel to the persistent per-run
//!    pool of [`crate::runtime`], carrying frames and detector references
//!    only) — one batched detector invocation per batch, with per-frame
//!    recovery of a failed one;
//! 4. `scatter_slices` (coordinator) — apply the outcomes to the lanes and
//!    the tallies in the same canonical order, stopping at the first
//!    exhausted frame under fail-fast;
//! 5. `Lanes::commit` (coordinator, under one [`crate::cache::CacheTxn`]) —
//!    sort every recorded hit and fresh result into canonical `(slot, frame)`
//!    order, then apply all touches followed by all inserts.  The order
//!    depends only on *which* frames were probed and detected, never on the
//!    lane count, so cache accounting is bitwise-identical across thread
//!    counts.
//!
//! Only step 3 leaves the coordinator, and a slice's outcome is a pure
//! function of its frames and detectors, so where the lane boundaries fall —
//! and which thread runs which slice — changes the *physical* invocation
//! shape and nothing else.
//!
//! Lane results are held as `Arc<FrameDetections>`: a cache hit keeps the
//! cached allocation with a reference-count bump instead of deep-copying the
//! detection list, and the same handles are shared back into the cache on
//! commit.

use crate::cache::{CacheActivity, CommitOutcome, DetectorSlot, StripedDetectionCache};
use crate::error::EngineError;
use crate::merge::{BatchStats, DetectorInvocations, ShardQueryTally, ShardReport};
use exsample_detect::{DetectError, Detector, FrameDetections};
use exsample_video::{Chunking, FrameId, ShardSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// How DETECT handles detector failures — the engine's
/// [`crate::RetryPolicy`] and [`crate::FailureMode`] flattened into the
/// `Copy` form every [`Slice`] carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DetectPolicy {
    /// Per-frame attempt budget (batch probe excluded); `1` means no retries.
    pub max_attempts: u32,
    /// Cost units charged for the `k`-th retry of a frame:
    /// `backoff_cost * 2^(k-1)` (deterministic exponential backoff).
    pub backoff_cost: u64,
    /// Whether an exhausted frame aborts the stage (fail-fast) instead of
    /// being dropped from fan-out and tallied.
    pub fail_fast: bool,
}

impl DetectPolicy {
    /// The pre-fault-tolerance behaviour: no retries, first failure is fatal.
    #[cfg(test)]
    pub(crate) fn infallible() -> Self {
        DetectPolicy {
            max_attempts: 1,
            backoff_cost: 0,
            fail_fast: true,
        }
    }

    /// Backoff cost of the `retry`-th retry (1-based) of one frame.
    #[inline]
    fn retry_cost(&self, retry: u32) -> u64 {
        self.backoff_cost
            .saturating_mul(1u64 << u64::from(retry - 1).min(62))
    }
}

/// A fatal detect failure under fail-fast, parked on the [`Lanes`]:
/// [`scatter_slices`] stops at the first one in canonical order and the
/// engine surfaces it as [`EngineError::DetectorFailed`].
#[derive(Debug)]
pub(crate) struct DetectFailure {
    /// Registry slot of the failing detector.
    pub slot: DetectorSlot,
    /// The frame whose attempts were exhausted.
    pub frame: FrameId,
    /// Total attempts on the frame this stage, batch probe included.
    pub attempts: u32,
    /// The final error the detector returned.
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
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Whether this router validates frame ids against chunk bounds
    /// (chunking-built routers do; [`ShardRouter::single`] cannot).
    pub fn checks_bounds(&self) -> bool {
        !self.bounds.is_empty()
    }

    /// The shard owning `frame`.
    ///
    /// # Panics
    /// Panics if the router was built from a chunking and `frame` lies beyond
    /// it (a policy produced a frame id outside the repository).  The
    /// bounds-free [`ShardRouter::single`] router cannot perform this check —
    /// any chunking-built router does, even at shard count 1.
    #[inline]
    pub fn shard_of(&self, frame: FrameId) -> usize {
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

    pub(crate) fn router(&self) -> &ShardRouter {
        &self.router
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

    fn recovered(&mut self, frame: FrameId, retries: u64, backoff: u64) {
        let tally = self.of(frame);
        tally.retries += retries;
        tally.backoff_cost += backoff;
    }

    fn failed(&mut self, slot: DetectorSlot, frame: FrameId) {
        let tally = self.of(frame);
        tally.failed_frames += 1;
        detector_entry(tally, slot).failures += 1;
    }

    fn probed(&mut self, frame: FrameId, hit: bool) {
        let cache = &mut self.of(frame).cache;
        if hit {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
    }

    fn committed(&mut self, frame: FrameId, outcome: CommitOutcome) {
        let cache = &mut self.of(frame).cache;
        cache.evictions += outcome.evicted;
        cache.admission_rejects += u64::from(outcome.rejected);
    }

    /// One frame of query `query` observed (with `new_hits` ground-truth
    /// instances first found on it).
    #[inline]
    pub(crate) fn observed(&mut self, query: usize, frame: FrameId, new_hits: u64) {
        let tally = query_entry(self.of(frame), query);
        tally.frames += 1;
        tally.hits += new_hits;
    }

    /// One pick of query `query` dropped from fan-out because its detection
    /// failed (degraded failure modes).
    pub(crate) fn dropped(&mut self, query: usize, frame: FrameId) {
        query_entry(self.of(frame), query).dropped += 1;
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
                report
                    .per_detector
                    .retain(|d| d.frames > 0 || d.calls > 0 || d.failures > 0);
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

/// One logical detector group's frames and results for one stage.  Slots
/// and their allocations are reused across stages.  Results are shared
/// handles: a cache hit is an `Arc` clone of the cached entry, a fresh
/// detection is wrapped once and later shared back into the cache the same
/// way.
#[derive(Debug, Default)]
struct Lane {
    frames: Vec<FrameId>,
    /// Frames of this lane not answered by the cache ([`Lanes::probe`]), in
    /// lane order — this lane's share of the stage's detector demand.
    misses: Vec<FrameId>,
    /// Frames of this lane that an earlier same-detector lane already missed
    /// (cache on, coalescing off): they ride that lane's detection instead
    /// of being demanded — or tallied — a second time.
    joined: Vec<FrameId>,
    /// Frames of this lane answered by the cache, in probe order — the
    /// touch intents replayed by [`Lanes::commit`].
    hits: Vec<FrameId>,
    results: HashMap<FrameId, Arc<FrameDetections>>,
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
    /// Frames *failed* for each logical group this stage (after exhausting
    /// retries); the engine folds these into its per-detector quarantine
    /// accounting.
    pub failed: Vec<u64>,
    /// This stage's per-frame retry attempts.
    pub retries: u64,
    /// This stage's backoff cost units.
    pub backoff: u64,
    /// This stage's physical batch-size statistics.
    pub batches: BatchStats,
    /// This stage's cache activity: probe hits/misses plus the
    /// evictions/admission-rejects its commit triggered.
    pub cache: CacheActivity,
    /// The stage's fatal failure under fail-fast; the engine aborts the
    /// stage on finding one.
    pub fatal: Option<DetectFailure>,
    /// The fast path's detections, one per pick in pick order (see
    /// [`Lanes::detect_direct`]); fan-out drains them.
    pub direct: Vec<FrameDetections>,
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
            lane.joined.clear();
            lane.hits.clear();
            lane.results.clear();
        }
        self.live = groups;
        self.detected.clear();
        self.detected.resize(groups, 0);
        self.failed.clear();
        self.failed.resize(groups, 0);
        self.retries = 0;
        self.backoff = 0;
        self.batches = BatchStats::default();
        self.cache = CacheActivity::default();
        self.fatal = None;
    }

    /// Put one picked frame into the lane of logical group `group` (unit
    /// tests load lanes directly; the engine stages whole lanes and hands
    /// them over with [`Lanes::adopt_frames`]).
    #[cfg(test)]
    pub(crate) fn push_frame(&mut self, group: usize, frame: FrameId) {
        self.lanes[group].frames.push(frame);
    }

    /// Adopt a staged frame buffer as the lane of logical group `group`,
    /// handing the lane's previous (cleared) buffer back for recycling.
    ///
    /// Stages are planned into engine-side buffers (under overlap, while the
    /// previous stage's DETECT is still running), then loaded here right
    /// after [`Lanes::begin_stage`]; swapping keeps both sides' allocations
    /// alive across stages.
    #[inline]
    pub(crate) fn adopt_frames(&mut self, group: usize, frames: &mut Vec<FrameId>) {
        std::mem::swap(&mut self.lanes[group].frames, frames);
    }

    /// Coalesce each lane and split it into cache hits (answered in place
    /// with an `Arc` clone of the cached entry, and recorded in probe order as
    /// touch intents) and misses (this lane's share of the stage's detector
    /// demand, see [`gather_slices`]).
    ///
    /// When `coalesce` is set, each lane's frames are sorted and deduplicated
    /// first (queries sharing a detector share the detector bill).  Runs once
    /// per stage, on the coordinator, before the gather — which needs its
    /// result — and only *reads* cache membership while tallying per-stripe
    /// counters, so probe outcomes are a pure function of the membership set.
    ///
    /// With coalescing *off*, two same-stage lanes can carry the same
    /// detector; a later lane dedupes against earlier same-slot lanes at
    /// probe time instead of probing the cache again: a frame an earlier
    /// lane hit is shared immediately, a frame an earlier lane missed is
    /// *joined* to that lane's detection untallied (`share_joined` hands it
    /// the outcome once the stage has detected).  Each distinct
    /// `(detector, frame)` pair therefore counts — and is detected, and can
    /// fail — exactly once per stage.  Without a cache, uncoalesced lanes
    /// deliberately pay the full bill (that is what "uncoalesced detector
    /// work" measures).
    pub(crate) fn probe(
        &mut self,
        detector_slots: &[DetectorSlot],
        coalesce: bool,
        cache: Option<&StripedDetectionCache>,
        view: &mut ShardView,
    ) {
        for g in 0..self.live {
            let (earlier, rest) = self.lanes.split_at_mut(g);
            let lane = &mut rest[0];
            if lane.frames.is_empty() {
                continue;
            }
            if coalesce {
                lane.frames.sort_unstable();
                lane.frames.dedup();
            }
            let Some(cache) = cache else {
                lane.misses.extend_from_slice(&lane.frames);
                continue;
            };
            let slot = detector_slots[g];
            let dedupe = detector_slots[..g].contains(&slot);
            lane.results.reserve(lane.frames.len());
            'frames: for i in 0..lane.frames.len() {
                let frame = lane.frames[i];
                if dedupe {
                    // An earlier same-slot lane already probed this frame:
                    // reuse its outcome without touching the cache tallies.
                    for (other, &s) in earlier.iter().zip(detector_slots) {
                        if s != slot {
                            continue;
                        }
                        if let Some(detections) = other.results.get(&frame) {
                            lane.results.insert(frame, Arc::clone(detections));
                            continue 'frames;
                        }
                        if other.misses.contains(&frame) {
                            lane.joined.push(frame);
                            continue 'frames;
                        }
                    }
                }
                let hit = match cache.probe(slot, frame) {
                    Some(detections) => {
                        lane.results.insert(frame, detections);
                        lane.hits.push(frame);
                        self.cache.hits += 1;
                        true
                    }
                    None => {
                        lane.misses.push(frame);
                        self.cache.misses += 1;
                        false
                    }
                };
                view.probed(frame, hit);
            }
        }
    }

    /// Hand every joined frame (see [`Lanes::probe`]) the result the earlier
    /// same-slot lane it rides on got this stage.  A frame that lane failed
    /// stays without a result here too, so fan-out drops it for both
    /// queries alike.
    fn share_joined(&mut self, detector_slots: &[DetectorSlot]) {
        for g in 1..self.live {
            let (earlier, rest) = self.lanes.split_at_mut(g);
            let Lane {
                joined, results, ..
            } = &mut rest[0];
            for &frame in joined.iter() {
                let shared = earlier
                    .iter()
                    .zip(detector_slots)
                    .filter(|&(_, &slot)| slot == detector_slots[g])
                    .find_map(|(other, _)| other.results.get(&frame));
                if let Some(detections) = shared {
                    results.insert(frame, Arc::clone(detections));
                }
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

    /// Take the detections of one frame of logical group `group` (registry
    /// slot `slot`).
    fn absorb_detection(
        &mut self,
        view: &mut ShardView,
        group: usize,
        slot: DetectorSlot,
        frame: FrameId,
        detections: FrameDetections,
    ) {
        self.detected[group] += 1;
        view.detected(slot, frame);
        self.lanes[group]
            .results
            .insert(frame, Arc::new(detections));
    }

    /// Take one frame's [`FrameRecovery`] after a failed batch probe: its
    /// per-frame tries are physical calls, every try but the first is a
    /// retry charged its deterministic backoff cost, a recovered frame lands
    /// in the group's lane results, and an exhausted one gains no result —
    /// so it can never be committed to the cache or fanned out — and, under
    /// fail-fast, is parked in [`Lanes::fatal`].
    fn absorb_recovery(
        &mut self,
        view: &mut ShardView,
        group: usize,
        slot: DetectorSlot,
        frame: FrameId,
        recovery: FrameRecovery,
        policy: DetectPolicy,
    ) {
        let tries = u64::from(recovery.tries);
        let backoff: u64 = (1..recovery.tries).map(|k| policy.retry_cost(k)).sum();
        self.record_call(view, slot, frame, 1, tries);
        self.retries += tries - 1;
        self.backoff += backoff;
        view.recovered(frame, tries - 1, backoff);
        match recovery.outcome {
            Ok(detections) => self.absorb_detection(view, group, slot, frame, detections),
            Err(error) => {
                self.failed[group] += 1;
                view.failed(slot, frame);
                if policy.fail_fast {
                    self.fatal = Some(DetectFailure {
                        slot,
                        frame,
                        // Batch probe + per-frame tries.
                        attempts: recovery.tries + 1,
                        error,
                    });
                }
            }
        }
    }

    /// The fast path's DETECT: one batched call over a single query's picks,
    /// in pick order, straight into [`Lanes::direct`] — no coalescing, result
    /// map or `Arc` per frame (see the engine's stage planning for when it is
    /// taken).  Returns whether `direct` now holds one detection set per
    /// pick.
    ///
    /// A failed probe falls back to [`recover_frame`] for every frame of
    /// lane 0, laid out as the lane path would have gathered the picks —
    /// sorted and deduplicated when `coalesce` is set, in pick order when
    /// not — so the recovered frames, and the frame a fail-fast run stops at,
    /// are exactly what [`scatter_slices`] would have left, and the caller
    /// fans out through the lane like any other stage.
    pub(crate) fn detect_direct(
        &mut self,
        view: &mut ShardView,
        detector: &dyn Detector,
        slot: DetectorSlot,
        picks: &[FrameId],
        coalesce: bool,
        policy: DetectPolicy,
    ) -> bool {
        self.direct.clear();
        let probe = detector.try_detect_batch(picks, &mut self.direct);
        self.record_call(view, slot, picks[0], picks.len() as u64, 1);
        if probe.is_ok() {
            self.detected[0] += picks.len() as u64;
            for &frame in picks {
                view.detected(slot, frame);
            }
            return true;
        }
        self.direct.clear();
        let frames = &mut self.lanes[0].frames;
        frames.clear();
        frames.extend_from_slice(picks);
        if coalesce {
            frames.sort_unstable();
            frames.dedup();
        }
        for i in 0..self.lanes[0].frames.len() {
            let frame = self.lanes[0].frames[i];
            let recovery = recover_frame(detector, frame, policy);
            self.absorb_recovery(view, 0, slot, frame, recovery, policy);
            if self.fatal.is_some() {
                break;
            }
        }
        false
    }

    /// Serial cache commit under one [`crate::cache::CacheTxn`]: every
    /// recorded probe hit (touch intent) and fresh detection (insert intent),
    /// each kind sorted into canonical `(slot, frame)` order, touches first.
    /// Keys are unique (uncoalesced same-slot lanes dedupe at probe time), so
    /// the canonical order — and with it every recency update, eviction and
    /// admission decision — depends only on the set of frames probed and
    /// detected this stage, never on which thread ran which slice.
    ///
    /// Cache hygiene under faults: a frame whose detect attempts failed has
    /// no result, so a failed attempt can never be committed — only frames
    /// with an actual result reach the LRU, and each exactly once per stage.
    pub(crate) fn commit(
        &mut self,
        detector_slots: &[DetectorSlot],
        cache: &StripedDetectionCache,
        view: &mut ShardView,
    ) {
        let live = &self.lanes[..self.live];
        let mut touches: Vec<(DetectorSlot, FrameId)> = live
            .iter()
            .zip(detector_slots)
            .flat_map(|(lane, &slot)| lane.hits.iter().map(move |&frame| (slot, frame)))
            .collect();
        touches.sort_unstable();
        let mut inserts: Vec<(DetectorSlot, FrameId, Arc<FrameDetections>)> = live
            .iter()
            .zip(detector_slots)
            .flat_map(|(lane, &slot)| {
                // A frame without a result exhausted its attempts (or a
                // fail-fast stage stopped before reaching it).
                lane.misses.iter().filter_map(move |frame| {
                    let detections = lane.results.get(frame)?;
                    Some((slot, *frame, Arc::clone(detections)))
                })
            })
            .collect();
        inserts.sort_unstable_by_key(|&(slot, frame, _)| (slot, frame));
        let mut txn = cache.begin();
        for (slot, frame) in touches {
            txn.touch(slot, frame);
        }
        for (slot, frame, detections) in inserts {
            let outcome = txn.insert(slot, frame, detections);
            self.cache.evictions += outcome.evicted;
            self.cache.admission_rejects += u64::from(outcome.rejected);
            view.committed(frame, outcome);
        }
    }

    /// Frames detected this stage (the sum of the per-group counts).
    pub(crate) fn detected_frames(&self) -> u64 {
        self.detected.iter().sum()
    }

    /// The detections of `frame` for logical group `group`, if it was
    /// detected (or cache-answered) this stage.
    #[inline]
    pub(crate) fn result(&self, group: usize, frame: FrameId) -> Option<&FrameDetections> {
        self.lanes
            .get(group)
            .and_then(|lane| lane.results.get(&frame))
            .map(Arc::as_ref)
    }
}

/// One frame's per-frame recovery after the batch probe carrying it failed.
pub(crate) struct FrameRecovery {
    /// Per-frame tries issued (the batch probe excluded; at least one).
    tries: u32,
    /// The frame's detections, or the error its last try returned.
    outcome: Result<FrameDetections, DetectError>,
}

/// Per-frame recovery of one frame after a failed batch probe — the one
/// retry loop every detect path shares ([`Slice::run`]'s batches and
/// [`Lanes::detect_direct`]), and a pure function of
/// `(detector, frame, policy)`.  The frame is attempted individually up to
/// `policy.max_attempts` times; a permanent error stops retrying
/// immediately.  Because the frame's attempt history is always one batch
/// probe plus its own per-frame tries, the record — and every tally
/// [`Lanes::absorb_recovery`] derives from it — is identical however the
/// failed batch was composed: the engine's fault determinism guarantee.
fn recover_frame(detector: &dyn Detector, frame: FrameId, policy: DetectPolicy) -> FrameRecovery {
    let max_attempts = policy.max_attempts.max(1);
    let mut buf = Vec::with_capacity(1);
    let mut tries = 0u32;
    let outcome = loop {
        tries += 1;
        buf.clear();
        match detector.try_detect_batch(std::slice::from_ref(&frame), &mut buf) {
            Ok(()) => break Ok(buf.pop().expect("one detection set per detected frame")),
            Err(err) => {
                if !err.is_transient() || tries >= max_attempts {
                    break Err(err);
                }
            }
        }
    };
    FrameRecovery { tries, outcome }
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
    /// [`recover_frame`].  Under fail-fast the list ends at the first
    /// exhausted frame.
    Recovered(Vec<FrameRecovery>),
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
    /// only when a fail-fast failure stopped the run).
    outcomes: Vec<BatchOutcome>,
    policy: DetectPolicy,
}

impl Slice<'_> {
    /// Run the slice's batches in order: one batched
    /// [`Detector::try_detect_batch`] call each — the fault-free path,
    /// identical in cost and behaviour to the pre-fault-tolerance engine —
    /// and, when that probe errs, [`recover_frame`] for each of the batch's
    /// frames in order.  Under fail-fast the run stops at the first exhausted
    /// frame: nothing after it in canonical order will be applied.
    pub(crate) fn run(&mut self) {
        let mut start = 0;
        for batch in &self.batches {
            let frames = &self.frames[start..start + batch.len];
            start += batch.len;
            let mut detections = Vec::with_capacity(frames.len());
            if batch
                .detector
                .try_detect_batch(frames, &mut detections)
                .is_ok()
            {
                self.outcomes.push(BatchOutcome::Detected(detections));
                continue;
            }
            let mut recoveries = Vec::with_capacity(frames.len());
            let mut fatal = false;
            for &frame in frames {
                let recovery = recover_frame(batch.detector, frame, self.policy);
                fatal = self.policy.fail_fast && recovery.outcome.is_err();
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
    policy: DetectPolicy,
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
        policy,
    });
    for slice in slices.iter_mut() {
        slice.frames.clear();
        slice.batches.clear();
        slice.outcomes.clear();
        slice.policy = policy;
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
/// lane, logical tallies (detected frames, per-group counts,
/// retry/backoff/failure telemetry) on the stage and on the shard owning
/// each frame — so they are identical for any lane count — and each
/// *physical* batch probe (with its batch statistics) on the shard owning the
/// batch's first frame, so per-shard call counts stay well-defined and
/// `batches.count` keeps tracking `detector_calls` everywhere.
///
/// Under fail-fast the pass stops at the first exhausted frame in canonical
/// order, parked as [`Lanes::fatal`]: whatever lanes ran beyond it is
/// discarded, which makes the reported failure independent of the lane
/// count, and the engine abandons the stage before any commit.
pub(crate) fn scatter_slices(
    lanes: &mut Lanes,
    view: &mut ShardView,
    detector_slots: &[DetectorSlot],
    share_lanes: bool,
    slices: &mut [Slice<'_>],
) {
    for slice in slices.iter_mut() {
        let policy = slice.policy;
        let mut start = 0;
        for (batch, outcome) in slice.batches.iter().zip(slice.outcomes.drain(..)) {
            let group = batch.group;
            let slot = detector_slots[group];
            let frames = &slice.frames[start..start + batch.len];
            start += batch.len;
            lanes.record_call(view, slot, frames[0], batch.len as u64, 1);
            match outcome {
                BatchOutcome::Detected(detections) => {
                    for (&frame, detections) in frames.iter().zip(detections) {
                        lanes.absorb_detection(view, group, slot, frame, detections);
                    }
                }
                BatchOutcome::Recovered(recoveries) => {
                    for (&frame, recovery) in frames.iter().zip(recoveries) {
                        lanes.absorb_recovery(view, group, slot, frame, recovery, policy);
                        if lanes.fatal.is_some() {
                            return;
                        }
                    }
                }
            }
        }
    }
    if share_lanes {
        lanes.share_joined(detector_slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use exsample_detect::ObjectClass;
    use exsample_video::{ChunkingPolicy, ShardPartitioner, VideoRepository};
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

    /// One stage with `frames` in group 0, in pick order (coalescing off keeps
    /// the lane in insertion order, so the tests can pin exactly which frames
    /// are attempted before a fail-fast abort), probed against `cache`.
    fn stage(frames: &[FrameId], cache: Option<&StripedDetectionCache>) -> (Lanes, ShardView) {
        let mut lanes = Lanes::default();
        let mut view = view();
        lanes.begin_stage(1);
        for &frame in frames {
            lanes.push_frame(0, frame);
        }
        lanes.probe(&[0], false, cache, &mut view);
        (lanes, view)
    }

    /// One stage's DETECT over probed `lanes`: gather over `count` lanes, run
    /// every slice, scatter.  Returns each slice's frame count.
    fn detect_stage(
        lanes: &mut Lanes,
        view: &mut ShardView,
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
        policy: DetectPolicy,
        count: usize,
    ) -> Vec<usize> {
        let mut slices = Vec::new();
        gather_slices(lanes, detectors, count, policy, &mut slices);
        slices.iter_mut().for_each(Slice::run);
        let sizes = slices.iter().map(|slice| slice.frames.len()).collect();
        scatter_slices(lanes, view, slots, true, &mut slices);
        sizes
    }

    /// [`detect_stage`] on one lane.
    fn detect(
        lanes: &mut Lanes,
        view: &mut ShardView,
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
        policy: DetectPolicy,
    ) {
        detect_stage(lanes, view, detectors, slots, policy, 1);
    }

    fn failed_frames(lanes: &Lanes) -> u64 {
        lanes.failed.iter().sum()
    }

    #[test]
    fn failed_frames_are_never_cached_and_a_recovered_retry_commits_once() {
        // Frame 5 fails its first two attempts (batch probe + first per-frame
        // try), frame 9 fails permanently, frame 1 is healthy.
        let detector = FlakyDetector::new(vec![(5, 2)], vec![9]);
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let (mut lanes, mut view) = stage(&[1, 5, 9], Some(&cache));
        let policy = DetectPolicy {
            max_attempts: 3,
            backoff_cost: 4,
            fail_fast: false,
        };
        detect(&mut lanes, &mut view, &[&detector], &[0], policy);

        // Frame 5 recovered on its retry; frame 9 exhausted its attempts.
        assert!(lanes.result(0, 1).is_some());
        assert!(lanes.result(0, 5).is_some());
        assert!(lanes.result(0, 9).is_none());
        assert_eq!(lanes.detected_frames(), 2);
        assert_eq!(failed_frames(&lanes), 1);
        assert_eq!(lanes.retries, 1, "frame 5 needed one retry");
        assert_eq!(lanes.backoff, 4, "first retry costs backoff_cost * 1");
        assert_eq!(view.shards[0].failed_frames, 1);
        assert_eq!(view.shards[0].per_detector[0].failures, 1);
        // Permanent errors stop retrying immediately: probe + one per-frame
        // try, despite the 3-attempt budget.
        assert_eq!(detector.attempts_on(9), 2);

        // Cache hygiene: the failed frame is never committed; the recovered
        // one is committed exactly once.
        lanes.commit(&[0], &cache, &mut view);
        assert!(
            cache.probe(0, 9).is_none(),
            "failed frame must not be cached"
        );
        let held = cache.probe(0, 5).expect("recovered frame is cached");
        // Cache entry + lane result + our handle.
        assert_eq!(Arc::strong_count(&held), 3);
        // Releasing the lane leaves exactly one committed handle (plus ours):
        // the retry committed once, not once per attempt.
        lanes.begin_stage(1);
        assert_eq!(Arc::strong_count(&held), 2);
        assert_eq!(cache.stats().len, 2);

        // A follow-up stage over the same frames re-detects only frame 9.
        let calls_before = detector.calls.load(Ordering::SeqCst);
        let (mut lanes, mut view) = stage(&[1, 5, 9], Some(&cache));
        detect(&mut lanes, &mut view, &[&detector], &[0], policy);
        assert!(
            detector.calls.load(Ordering::SeqCst) > calls_before,
            "frame 9 still misses the cache"
        );
        assert_eq!(lanes.detected_frames(), 0, "only frame 9 was missed");
        assert_eq!(failed_frames(&lanes), 1);
    }

    #[test]
    fn fail_fast_records_the_first_failure_and_stops_the_lane() {
        let detector = FlakyDetector::new(Vec::new(), vec![9]);
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let (mut lanes, mut view) = stage(&[2, 9, 4], Some(&cache));
        detect(
            &mut lanes,
            &mut view,
            &[&detector],
            &[0],
            DetectPolicy::infallible(),
        );
        let fatal = lanes.fatal.as_ref().expect("fail-fast records the failure");
        assert_eq!(fatal.frame, 9);
        assert_eq!(fatal.slot, 0);
        assert_eq!(fatal.attempts, 2, "batch probe + one per-frame try");
        assert!(!fatal.error.is_transient());
        // The lane stopped at the failure: frame 4 was never attempted
        // per-frame (only the probe charged it) and nothing after the
        // failure can reach the cache.
        assert_eq!(detector.attempts_on(4), 1);
        lanes.commit(&[0], &cache, &mut view);
        assert!(cache.probe(0, 9).is_none());
        assert!(cache.probe(0, 4).is_none());
    }

    #[test]
    fn retries_off_fails_transient_frames_without_retrying() {
        let detector = FlakyDetector::new(vec![(5, 2)], Vec::new());
        let (mut lanes, mut view) = stage(&[5], None);
        let policy = DetectPolicy {
            max_attempts: 1,
            backoff_cost: 10,
            fail_fast: false,
        };
        detect(&mut lanes, &mut view, &[&detector], &[0], policy);
        assert!(lanes.result(0, 5).is_none());
        assert_eq!(failed_frames(&lanes), 1);
        assert_eq!(lanes.retries, 0, "no retry budget, no retries");
        assert_eq!(lanes.backoff, 0);
        // Probe + the single allowed per-frame try.
        assert_eq!(detector.attempts_on(5), 2);
    }

    #[test]
    fn uncoalesced_same_slot_lanes_dedupe_at_probe_time() {
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        // Warm frame 3 so the shared frames cover both a hit and a miss.
        cache
            .begin()
            .insert(0, 3, Arc::new(FrameDetections::empty(3)));
        let mut lanes = Lanes::default();
        let mut view = view();
        lanes.begin_stage(2);
        for &frame in &[3u64, 7] {
            lanes.push_frame(0, frame);
            lanes.push_frame(1, frame);
        }
        // Two lanes carry the same detector slot (coalescing off).
        lanes.probe(&[0, 0], false, Some(&cache), &mut view);
        // Each distinct (detector, frame) probes once: 1 hit (frame 3),
        // 1 miss (frame 7) — not two of each, matching the single physical
        // detection frame 7 will cost.
        assert_eq!((lanes.cache.hits, lanes.cache.misses), (1, 1));
        assert_eq!(view.shards[0].cache, lanes.cache);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The second lane shares the hit's result immediately...
        assert!(lanes.result(1, 3).is_some());
        // ...and detect resolves the shared miss once, sharing it across
        // both lanes with a single commit.
        let detector = FlakyDetector::new(Vec::new(), Vec::new());
        detect(
            &mut lanes,
            &mut view,
            &[&detector, &detector],
            &[0, 0],
            DetectPolicy::infallible(),
        );
        assert!(lanes.result(0, 7).is_some());
        assert!(lanes.result(1, 7).is_some());
        assert_eq!(lanes.detected_frames(), 1, "frame 7 detected once");
        lanes.commit(&[0, 0], &cache, &mut view);
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().misses, 1, "commit does not re-probe");
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
            for &frame in &frames {
                lanes.push_frame(0, frame);
            }
            lanes.probe(&[0], false, None, &mut view);
            let sizes = detect_stage(
                &mut lanes,
                &mut view,
                &[&detector],
                &[0],
                DetectPolicy::infallible(),
                count,
            );
            assert_eq!(sizes, expected, "{count} lanes");
            // One group, so one batch per slice, all attributed to the shard
            // owning the frames; nothing was lost or detected twice.
            assert_eq!(lanes.batches.count, expected.len() as u64);
            assert_eq!(view.shards[2].batches.count, expected.len() as u64);
            assert_eq!(view.shards[2].detector_frames, 9);
            assert_eq!(lanes.detected_frames(), 9);
            for &frame in &frames {
                assert!(lanes.result(0, frame).is_some());
            }
        }
        // No demand, no slice: nothing is ever handed an empty batch.
        let (mut idle, mut view) = stage(&[], None);
        let calls = detector.calls.load(Ordering::SeqCst);
        let sizes = detect_stage(
            &mut idle,
            &mut view,
            &[&detector],
            &[0],
            DetectPolicy::infallible(),
            4,
        );
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
            for frame in 0..count {
                lanes.push_frame(group, group as u64 * 100 + frame);
            }
        }
        lanes.probe(&[0, 1, 2], true, None, &mut view);
        let sizes = detect_stage(
            &mut lanes,
            &mut view,
            &refs,
            &[0, 1, 2],
            DetectPolicy::infallible(),
            3,
        );
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
        // Frame 5 fails its probe and its first per-frame try, frame 9 fails
        // permanently, the rest are healthy: however the ten frames are cut
        // over lanes (and so whichever healthy frames share a failed batch),
        // every logical tally is the same.  Only the physical call count
        // moves.
        let frames: Vec<FrameId> = (0..10).collect();
        let policy = DetectPolicy {
            max_attempts: 3,
            backoff_cost: 4,
            fail_fast: false,
        };
        let run = |count: usize| {
            let detector = FlakyDetector::new(vec![(5, 2)], vec![9]);
            let (mut lanes, mut view) = stage(&frames, None);
            detect_stage(&mut lanes, &mut view, &[&detector], &[0], policy, count);
            let resolved: Vec<bool> = frames
                .iter()
                .map(|&frame| lanes.result(0, frame).is_some())
                .collect();
            (
                lanes.detected_frames(),
                failed_frames(&lanes),
                lanes.retries,
                lanes.backoff,
                resolved,
            )
        };
        let serial = run(1);
        assert_eq!(
            (serial.0, serial.1, serial.2, serial.3),
            (9, 1, 1, 4),
            "frame 5 recovers on its one retry, frame 9 is dropped"
        );
        for count in [2usize, 3, 5, 10] {
            assert_eq!(run(count), serial, "{count} lanes");
        }
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure_in_canonical_order_for_any_lane_count() {
        // Frames 9 and 11 both fail permanently.  Whichever lanes they fall
        // into, the stage reports frame 9 — first in gather order — and
        // applies nothing after it, even what another lane did detect.
        let frames = [2u64, 9, 4, 11, 6];
        for count in [1usize, 2, 3, 5] {
            let detector = FlakyDetector::new(Vec::new(), vec![9, 11]);
            let (mut lanes, mut view) = stage(&frames, None);
            detect_stage(
                &mut lanes,
                &mut view,
                &[&detector],
                &[0],
                DetectPolicy::infallible(),
                count,
            );
            let fatal = lanes.fatal.as_ref().expect("fail-fast parks it");
            assert_eq!((fatal.frame, fatal.attempts), (9, 2), "{count} lanes");
            assert!(lanes.result(0, 2).is_some(), "{count} lanes");
            for after in [4u64, 11, 6] {
                assert!(lanes.result(0, after).is_none(), "{count} lanes");
            }
            assert_eq!(failed_frames(&lanes), 1, "{count} lanes");
        }
    }

    #[test]
    fn a_joined_frame_shares_the_failure_of_the_lane_it_rides_on() {
        // Coalescing off, cache on: lane 1 joins lane 0's misses.  Frame 9
        // fails permanently — once, for lane 0 — and lane 1 is left without
        // a result too instead of demanding the frame a second time.
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let detector = FlakyDetector::new(Vec::new(), vec![9]);
        let mut lanes = Lanes::default();
        let mut view = view();
        lanes.begin_stage(2);
        for &frame in &[3u64, 9] {
            lanes.push_frame(0, frame);
            lanes.push_frame(1, frame);
        }
        lanes.probe(&[0, 0], false, Some(&cache), &mut view);
        let policy = DetectPolicy {
            max_attempts: 1,
            backoff_cost: 0,
            fail_fast: false,
        };
        detect(
            &mut lanes,
            &mut view,
            &[&detector, &detector],
            &[0, 0],
            policy,
        );
        assert!(lanes.result(0, 3).is_some() && lanes.result(1, 3).is_some());
        assert!(lanes.result(0, 9).is_none() && lanes.result(1, 9).is_none());
        assert_eq!(failed_frames(&lanes), 1);
        assert_eq!(detector.attempts_on(9), 2, "one probe, one per-frame try");
        lanes.commit(&[0, 0], &cache, &mut view);
        assert_eq!(cache.stats().len, 1, "only frame 3 is committed, once");
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
