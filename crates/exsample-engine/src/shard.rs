//! Shard routing, per-shard tallies, and the slice — the unit of DETECT work.
//!
//! A sharded engine routes every picked frame to the shard owning its chunk
//! (the [`ShardRouter`]); each shard's [`ShardWorker`] keeps the frames
//! routed to it this stage, their results, and the shard's own cost and hit
//! tallies.  PICK stays global (per-query policies span the full chunk space
//! and own their RNG streams) and FAN-OUT stays in registration/pick order,
//! which is what makes a merged sharded run bitwise-identical to the
//! unsharded run — see the crate docs for the full determinism argument.
//!
//! Shards own *accounting*, not execution.  A stage's DETECT is:
//!
//! 1. [`ShardWorker::probe`] (coordinator) — coalesce each lane's frames and
//!    answer what it can from the cross-stage cache
//!    ([`StripedDetectionCache::probe`], membership reads plus per-stripe
//!    tallies — never a recency or membership mutation), recording each
//!    lane's hits and misses as this worker's commit *intents*;
//! 2. [`gather_slices`] (coordinator) — concatenate every shard's misses per
//!    logical detector group in canonical `(group, shard, frame)` order and
//!    cut that flat list into one contiguous [`Slice`] of equal frame count
//!    per lane.  A batch never spans groups and a group is cut only where a
//!    lane boundary falls inside it, so a stage issues at most
//!    `groups + lanes − 1` batch probes — and exactly `groups` when serial —
//!    whatever the shard count, and the lanes are evenly loaded however
//!    skewed the routing was;
//! 3. [`Slice::run`] (any thread — the slices travel to the persistent
//!    per-run pool of `crate::runtime`, carrying frames and detector
//!    references, never a `ShardWorker`) — one batched detector invocation
//!    per batch, with per-frame recovery of a failed one;
//! 4. [`scatter_slices`] (coordinator) — apply the outcomes to the owning
//!    shards' lanes and tallies in the same canonical order, stopping at the
//!    first exhausted frame under fail-fast;
//! 5. [`arbitrate_cache`] (coordinator, under one [`crate::cache::CacheTxn`])
//!    — collect every worker's recorded hits and fresh results as intents,
//!    sort each kind into canonical `(slot, frame)` order, then apply all
//!    touches followed by all inserts.  The canonical order depends only on
//!    *which* frames were probed and detected — never on how they were
//!    partitioned across shards or lanes — so cache accounting is
//!    bitwise-identical across shard counts, partitioners and thread counts.
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
//!
//! Workers are engine-internal execution state; their accumulated tallies are
//! published as [`crate::merge::ShardReport`]s and combined by the
//! [`crate::merge`] layer.

use crate::cache::{CacheActivity, DetectorSlot, StripedDetectionCache};
use crate::error::EngineError;
use crate::merge::BatchStats;
use exsample_detect::{DetectError, Detector, FrameDetections};
use exsample_video::{Chunking, FrameId, ShardSpec, ShardedRepository};
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

/// A fatal detect failure under fail-fast, parked on the worker owning the
/// frame: [`scatter_slices`] stops at the first one in canonical order and
/// the engine surfaces it as [`EngineError::DetectorFailed`].
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

/// Routes global frame ids to the shard owning them.
///
/// Built from a [`ShardSpec`] over a [`Chunking`]: a frame's shard is the
/// shard of its chunk.  The 1-shard router ([`ShardRouter::single`]) is the
/// unsharded case and routes everything to shard 0 without a lookup.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// One-past-the-end frame id of each chunk (ascending).
    bounds: Vec<FrameId>,
    /// `shards[j]` = shard owning chunk `j`.
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
        Ok(ShardRouter {
            bounds: chunking.chunks().iter().map(|c| c.end()).collect(),
            shards: spec.shard_assignment().to_vec(),
            shard_count: spec.shard_count() as usize,
        })
    }

    /// Route frames according to a bound [`ShardedRepository`] (whose spec and
    /// chunking are consistent by construction).
    pub fn from_repository(repo: &ShardedRepository) -> Self {
        ShardRouter::new(repo.chunking(), repo.spec())
            .expect("a ShardedRepository binds a spec to its own chunking")
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

    /// Number of shards frames are routed across.
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
        let chunk = self.bounds.partition_point(|&end| end <= frame);
        assert!(
            chunk < self.shards.len(),
            "frame {frame} is beyond the sharded chunking"
        );
        self.shards[chunk] as usize
    }
}

/// Cumulative per-query tallies kept by one worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerQueryTally {
    /// Frames of this query observed on this shard.
    pub frames: u64,
    /// New ground-truth instances first observed on this shard's frames.
    pub hits: u64,
    /// Picks of this query dropped from fan-out because their detection
    /// failed (degraded failure modes only).
    pub dropped: u64,
}

/// Cumulative per-detector tallies kept by one worker (indexed by the
/// engine's detector registry slot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerDetectorTally {
    pub frames: u64,
    pub calls: u64,
    /// Frames whose detect attempts were exhausted without success.
    pub failures: u64,
}

/// One detector group's routed frames and results on one shard, for one
/// stage.  Lanes are indexed by the stage's *logical* group index (the
/// engine's cross-shard detector grouping), so the same logical group can
/// have a lane on every shard; slots and their allocations are reused across
/// stages.  Results are shared handles: a cache hit is an `Arc` clone of the
/// cached entry, a fresh detection is wrapped once and later shared back into
/// the cache the same way.
#[derive(Debug, Default)]
struct Lane {
    frames: Vec<FrameId>,
    /// Frames of this lane not answered by the cache ([`ShardWorker::probe`]),
    /// in lane order — this lane's contribution to the stage's gathered
    /// detector demand.
    misses: Vec<FrameId>,
    /// Frames of this lane that an earlier same-detector lane of this worker
    /// already missed (cache on, coalescing off): they ride that lane's
    /// detection instead of being demanded — or tallied — a second time.
    joined: Vec<FrameId>,
    /// Frames of this lane answered by the cache, in probe order — the
    /// worker's recorded touch intents, replayed during commit arbitration.
    hits: Vec<FrameId>,
    results: HashMap<FrameId, Arc<FrameDetections>>,
}

/// One insert intent collected for [`arbitrate_cache`]: a fresh detection a
/// worker wants published into the cross-stage cache, tagged with the
/// owning worker's index for outcome attribution.
struct CacheInsert {
    slot: DetectorSlot,
    frame: FrameId,
    worker: usize,
    detections: Arc<FrameDetections>,
}

/// Phase 3 — serial commit arbitration over the striped cache.
///
/// Collects every worker's recorded probe hits (touch intents) and fresh
/// detections (insert intents), sorts each kind into canonical
/// `(slot, frame)` order, then applies all touches followed by all inserts
/// under one [`crate::cache::CacheTxn`].  Keys are unique across workers (a frame is
/// routed to exactly one shard, and uncoalesced same-slot lanes dedupe at
/// probe time), so the canonical order — and with it every recency update,
/// eviction and admission decision — depends only on the set of frames
/// probed and detected this stage, never on the shard layout or on which
/// thread ran which lane.  That is what makes cache accounting
/// bitwise-identical across shard counts and partitioners, not merely
/// across thread counts at a fixed layout.
pub(crate) fn arbitrate_cache(
    workers: &mut [ShardWorker],
    detector_slots: &[DetectorSlot],
    cache: &StripedDetectionCache,
) {
    let mut txn = cache.begin();
    let mut touches: Vec<(DetectorSlot, FrameId)> = Vec::new();
    for worker in workers.iter() {
        worker.collect_cache_touches(detector_slots, &mut touches);
    }
    touches.sort_unstable();
    for (slot, frame) in touches {
        txn.touch(slot, frame);
    }
    let mut inserts: Vec<CacheInsert> = Vec::new();
    for (index, worker) in workers.iter().enumerate() {
        worker.collect_cache_inserts(detector_slots, index, &mut inserts);
    }
    inserts.sort_unstable_by_key(|intent| (intent.slot, intent.frame));
    for intent in inserts {
        let outcome = txn.insert(intent.slot, intent.frame, intent.detections);
        workers[intent.worker].absorb_commit_outcome(outcome);
    }
}

/// Per-shard state: the frames routed to this shard in the current stage and
/// their results, plus the shard's cumulative cost and hit tallies.  Lives on
/// the coordinator for the whole run — DETECT work leaves it as [`Slice`]s.
#[derive(Debug)]
pub(crate) struct ShardWorker {
    shard: u32,
    lanes: Vec<Lane>,
    /// Lanes in use this stage (dead slots keep their allocations).
    live_lanes: usize,
    /// Frames this worker detected for each logical group this stage; the
    /// engine folds the cross-shard sums into its logical accounting.
    pub lane_detected: Vec<u64>,
    /// Frames this worker *failed* for each logical group this stage (after
    /// exhausting retries); the engine folds these into its per-detector
    /// quarantine accounting.
    pub lane_failed: Vec<u64>,
    /// Cumulative frames actually run through detectors on this shard.
    pub detector_frames: u64,
    /// Cumulative physical `detect_batch` invocations issued by this shard.
    pub detector_calls: u64,
    /// Cumulative per-frame retry attempts issued on this shard.
    pub retries: u64,
    /// Cumulative backoff cost units charged on this shard.
    pub backoff: u64,
    /// Cumulative frames whose detect attempts were exhausted on this shard.
    pub failed_frames: u64,
    /// This stage's retry attempts (reset by [`ShardWorker::begin_stage`]).
    pub stage_retries: u64,
    /// This stage's backoff cost units (reset by
    /// [`ShardWorker::begin_stage`]).
    pub stage_backoff: u64,
    /// Cumulative batch-size statistics over the physical invocations
    /// attributed to this shard (`batches.count` tracks
    /// [`ShardWorker::detector_calls`] exactly; the merge layer checks it).
    pub batches: BatchStats,
    /// This stage's batch-size statistics (reset by
    /// [`ShardWorker::begin_stage`]).
    pub stage_batches: BatchStats,
    /// This stage's cache activity attributed to this shard (reset by
    /// [`ShardWorker::begin_stage`]): probe hits/misses plus the
    /// evictions/admission-rejects this shard's commits triggered.
    pub stage_cache: CacheActivity,
    /// Cumulative cache activity attributed to this shard; summing every
    /// shard's tally reproduces the engine totals exactly (the merge layer
    /// cross-checks this).
    pub cache_tally: CacheActivity,
    /// The stage's fatal failure under fail-fast, if this worker owns the
    /// failing frame; the engine aborts the stage on finding one.
    pub fatal: Option<DetectFailure>,
    /// Per-query tallies, indexed by query registration index.
    pub per_query: Vec<WorkerQueryTally>,
    /// Per-detector tallies, indexed by detector registry slot.
    pub per_detector: Vec<WorkerDetectorTally>,
}

impl ShardWorker {
    pub(crate) fn new(shard: u32) -> Self {
        ShardWorker {
            shard,
            lanes: Vec::new(),
            live_lanes: 0,
            lane_detected: Vec::new(),
            lane_failed: Vec::new(),
            detector_frames: 0,
            detector_calls: 0,
            retries: 0,
            backoff: 0,
            failed_frames: 0,
            stage_retries: 0,
            stage_backoff: 0,
            batches: BatchStats::default(),
            stage_batches: BatchStats::default(),
            stage_cache: CacheActivity::default(),
            cache_tally: CacheActivity::default(),
            fatal: None,
            per_query: Vec::new(),
            per_detector: Vec::new(),
        }
    }

    pub(crate) fn shard(&self) -> u32 {
        self.shard
    }

    /// Prepare for a stage with `groups` logical detector groups over
    /// `queries` registered queries.
    pub(crate) fn begin_stage(&mut self, groups: usize, queries: usize) {
        while self.lanes.len() < groups {
            self.lanes.push(Lane::default());
        }
        for lane in &mut self.lanes[..groups] {
            lane.frames.clear();
            lane.misses.clear();
            lane.joined.clear();
            lane.hits.clear();
            lane.results.clear();
        }
        self.live_lanes = groups;
        self.lane_detected.clear();
        self.lane_detected.resize(groups, 0);
        self.lane_failed.clear();
        self.lane_failed.resize(groups, 0);
        self.stage_retries = 0;
        self.stage_backoff = 0;
        self.stage_batches = BatchStats::default();
        self.stage_cache = CacheActivity::default();
        if self.per_query.len() < queries {
            self.per_query.resize(queries, WorkerQueryTally::default());
        }
    }

    /// Route one picked frame into the lane of logical group `group` (unit
    /// tests load lanes directly; the engine stages whole lanes and hands
    /// them over with [`ShardWorker::adopt_frames`]).
    #[cfg(test)]
    pub(crate) fn push_frame(&mut self, group: usize, frame: FrameId) {
        self.lanes[group].frames.push(frame);
    }

    /// Coalesce each lane and split it into cache hits (answered in place
    /// with an `Arc` clone of the cached entry, and recorded in probe order as
    /// this worker's touch intents) and misses (this lane's share of the
    /// stage's detector demand, see [`gather_slices`]).
    ///
    /// When `coalesce` is set, each lane's frames are sorted and deduplicated
    /// first (queries on the same shard share the detector bill).  Runs once
    /// per worker per stage, on the coordinator, before the gather — which
    /// needs its result — and only *reads* cache membership while tallying
    /// per-stripe counters, so probe outcomes are a pure function of the
    /// membership set.
    ///
    /// With coalescing *off*, two same-stage lanes of this worker can carry
    /// the same detector; a later lane dedupes against earlier same-slot
    /// lanes at probe time instead of probing the cache again: a frame an
    /// earlier lane hit is shared immediately, a frame an earlier lane
    /// missed is *joined* to that lane's detection untallied
    /// ([`ShardWorker::share_joined`] hands it the outcome once the stage
    /// has detected).  Each distinct `(detector, frame)` pair therefore
    /// counts — and is detected, and can fail — exactly once per stage.
    /// Without a cache, uncoalesced lanes deliberately pay the full bill
    /// (that is what "uncoalesced detector work" measures).
    pub(crate) fn probe(
        &mut self,
        detector_slots: &[DetectorSlot],
        coalesce: bool,
        cache: Option<&StripedDetectionCache>,
    ) {
        for g in 0..self.live_lanes {
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
                match cache.probe(slot, frame) {
                    Some(detections) => {
                        lane.results.insert(frame, detections);
                        lane.hits.push(frame);
                        self.stage_cache.hits += 1;
                        self.cache_tally.hits += 1;
                    }
                    None => {
                        lane.misses.push(frame);
                        self.stage_cache.misses += 1;
                        self.cache_tally.misses += 1;
                    }
                }
            }
        }
    }

    /// Hand every joined frame (see [`ShardWorker::probe`]) the result the
    /// earlier same-slot lane it rides on got this stage.  A frame that lane
    /// failed stays without a result here too, so fan-out drops it for both
    /// queries alike.
    fn share_joined(&mut self, detector_slots: &[DetectorSlot]) {
        for g in 1..self.live_lanes {
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

    /// Take the detections of one frame of logical group `group` (registry
    /// slot `slot`) whose batch probe succeeded.
    fn absorb_detection(
        &mut self,
        group: usize,
        slot: DetectorSlot,
        frame: FrameId,
        detections: FrameDetections,
    ) {
        self.record_detected(group, slot, 1);
        self.lanes[group]
            .results
            .insert(frame, Arc::new(detections));
    }

    /// Take one frame's [`FrameRecovery`] after a failed batch probe, charged
    /// to this worker (the frame's owner): its per-frame tries are physical
    /// calls, every try but the first is a retry charged its deterministic
    /// backoff cost, a recovered frame lands in the group's lane results, and
    /// an exhausted one gains no result — so it can never be committed to the
    /// cache or fanned out — and, under fail-fast, is parked in
    /// [`ShardWorker::fatal`].
    fn absorb_recovery(
        &mut self,
        group: usize,
        slot: DetectorSlot,
        frame: FrameId,
        recovery: FrameRecovery,
        policy: DetectPolicy,
    ) {
        let tries = u64::from(recovery.tries);
        let retries = tries - 1;
        let backoff: u64 = (1..recovery.tries).map(|k| policy.retry_cost(k)).sum();
        self.detector_calls += tries;
        self.record_batches(1, tries);
        self.per_detector_entry(slot).calls += tries;
        self.stage_retries += retries;
        self.retries += retries;
        self.stage_backoff += backoff;
        self.backoff += backoff;
        match recovery.outcome {
            Ok(detections) => self.absorb_detection(group, slot, frame, detections),
            Err(error) => {
                self.failed_frames += 1;
                self.lane_failed[group] += 1;
                self.per_detector_entry(slot).failures += 1;
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
    /// in pick order, straight into `out` — no coalescing, result map or
    /// `Arc` per frame (see the engine's stage planning for when it is
    /// taken).  Returns whether `out` now holds one detection set per pick.
    ///
    /// A failed probe falls back to [`recover_frame`] for every pick, so the
    /// recovered frames (and any fail-fast failure) land in lane 0 exactly as
    /// [`scatter_slices`] would have left them and the caller fans out
    /// through the lane like any 1-shard stage.
    pub(crate) fn detect_direct(
        &mut self,
        detector: &dyn Detector,
        slot: DetectorSlot,
        picks: &[FrameId],
        policy: DetectPolicy,
        out: &mut Vec<FrameDetections>,
    ) -> bool {
        out.clear();
        let probe = detector.try_detect_batch(picks, out);
        self.record_call(slot, picks.len() as u64);
        if probe.is_ok() {
            self.record_detected(0, slot, picks.len() as u64);
            return true;
        }
        out.clear();
        for &frame in picks {
            let recovery = recover_frame(detector, frame, policy);
            self.absorb_recovery(0, slot, frame, recovery, policy);
            if self.fatal.is_some() {
                break;
            }
        }
        false
    }

    fn per_detector_entry(&mut self, slot: DetectorSlot) -> &mut WorkerDetectorTally {
        if self.per_detector.len() <= slot as usize {
            self.per_detector
                .resize(slot as usize + 1, WorkerDetectorTally::default());
        }
        &mut self.per_detector[slot as usize]
    }

    /// Record `count` physical invocations of `frames` frames each into this
    /// shard's batch statistics (stage and cumulative).
    fn record_batches(&mut self, frames: u64, count: u64) {
        self.stage_batches.record_repeat(frames, count);
        self.batches.record_repeat(frames, count);
    }

    /// Record one physical batched invocation of `frames` frames against
    /// registry slot `slot`, whatever its outcome.
    fn record_call(&mut self, slot: DetectorSlot, frames: u64) {
        self.detector_calls += 1;
        self.record_batches(frames, 1);
        self.per_detector_entry(slot).calls += 1;
    }

    /// Record `frames` successfully detected frames of logical group `group`
    /// (registry slot `slot`).
    fn record_detected(&mut self, group: usize, slot: DetectorSlot, frames: u64) {
        self.detector_frames += frames;
        self.lane_detected[group] += frames;
        self.per_detector_entry(slot).frames += frames;
    }

    /// Adopt a staged frame buffer as the lane of logical group `group`,
    /// handing the lane's previous (cleared) buffer back for recycling.
    ///
    /// Overlap-mode stages route picks into engine-side staging buffers while
    /// the previous stage's DETECT is still running, then load them here
    /// right after [`ShardWorker::begin_stage`]; swapping keeps both sides'
    /// allocations alive across stages.
    #[inline]
    pub(crate) fn adopt_frames(&mut self, group: usize, frames: &mut Vec<FrameId>) {
        std::mem::swap(&mut self.lanes[group].frames, frames);
    }

    /// Export this worker's recorded probe hits as touch intents for
    /// [`arbitrate_cache`], which sorts all workers' intents into canonical
    /// `(slot, frame)` order before applying any of them.
    fn collect_cache_touches(
        &self,
        detector_slots: &[DetectorSlot],
        out: &mut Vec<(DetectorSlot, FrameId)>,
    ) {
        for (g, lane) in self.lanes[..self.live_lanes].iter().enumerate() {
            let slot = detector_slots[g];
            out.extend(lane.hits.iter().map(|&frame| (slot, frame)));
        }
    }

    /// Export this stage's fresh detections as insert intents for
    /// [`arbitrate_cache`] (an `Arc` clone per miss, no deep copy), tagged
    /// with this worker's index so eviction/admission outcomes can be folded
    /// back into the right shard's tallies.
    ///
    /// Cache hygiene under faults: a frame whose detect attempts failed has
    /// no result, so a failed attempt can never be committed — only frames
    /// with an actual result reach the LRU, and each exactly once per stage.
    fn collect_cache_inserts(
        &self,
        detector_slots: &[DetectorSlot],
        worker: usize,
        out: &mut Vec<CacheInsert>,
    ) {
        for (g, lane) in self.lanes[..self.live_lanes].iter().enumerate() {
            let slot = detector_slots[g];
            for &frame in &lane.misses {
                let Some(detections) = lane.results.get(&frame) else {
                    // The frame's detect attempts were exhausted (or a
                    // fail-fast stage stopped before reaching it).
                    continue;
                };
                out.push(CacheInsert {
                    slot,
                    frame,
                    worker,
                    detections: Arc::clone(detections),
                });
            }
        }
    }

    /// Fold one insert's eviction/admission outcome into this shard's cache
    /// tallies (called by [`arbitrate_cache`] for each of this worker's
    /// insert intents).
    fn absorb_commit_outcome(&mut self, outcome: crate::cache::CommitOutcome) {
        self.stage_cache.evictions += outcome.evicted;
        self.cache_tally.evictions += outcome.evicted;
        self.stage_cache.admission_rejects += u64::from(outcome.rejected);
        self.cache_tally.admission_rejects += u64::from(outcome.rejected);
    }

    /// Frames this worker ran through detectors this stage (the sum of its
    /// per-group detected counts).
    pub(crate) fn stage_detected_frames(&self) -> u64 {
        self.lane_detected.iter().sum()
    }

    /// Frames this worker failed this stage (the sum of its per-group failed
    /// counts).
    #[cfg(test)]
    pub(crate) fn stage_failed_frames(&self) -> u64 {
        self.lane_failed.iter().sum()
    }

    /// The detections of `frame` for logical group `group`, if this worker
    /// detected (or cache-answered) it this stage.
    #[inline]
    pub(crate) fn result(&self, group: usize, frame: FrameId) -> Option<&FrameDetections> {
        self.lanes
            .get(group)
            .and_then(|lane| lane.results.get(&frame))
            .map(Arc::as_ref)
    }

    /// Record one observed frame (and any newly found instances) for query
    /// `query` on this shard.
    #[inline]
    pub(crate) fn record_observation(&mut self, query: usize, new_hits: u64) {
        if self.per_query.len() <= query {
            self.per_query
                .resize(query + 1, WorkerQueryTally::default());
        }
        let tally = &mut self.per_query[query];
        tally.frames += 1;
        tally.hits += new_hits;
    }

    /// Record one pick of query `query` dropped from fan-out because its
    /// detection failed (degraded failure modes).
    #[inline]
    pub(crate) fn record_dropped(&mut self, query: usize) {
        if self.per_query.len() <= query {
            self.per_query
                .resize(query + 1, WorkerQueryTally::default());
        }
        self.per_query[query].dropped += 1;
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
/// [`ShardWorker::detect_direct`]), and a pure function of
/// `(detector, frame, policy)`.  The frame is attempted individually up to
/// `policy.max_attempts` times; a permanent error stops retrying
/// immediately.  Because the frame's attempt history is always one batch
/// probe plus its own per-frame tries, the record — and every tally
/// [`ShardWorker::absorb_recovery`] derives from it — is identical however
/// the failed batch was composed: the engine's fault determinism guarantee.
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

/// Gather the stage's detector demand — every worker's misses per logical
/// group, in canonical `(group, shard, frame-within-lane)` order — and cut it
/// into `lanes` contiguous [`Slice`]s of equal frame count (the first
/// `total % lanes` get the odd frame), recording each gathered frame's owning
/// worker in `owners`.  Never builds an empty slice: `slices` ends up with
/// `min(lanes, total)` entries, none at all when every frame was a cache hit.
///
/// A batch never spans groups, and a group is cut only where a lane boundary
/// falls inside it — so the slices hold at most `groups + lanes − 1` batches
/// between them, exactly `groups` of them when `lanes` is 1, for any shard
/// count.  `detectors[g]` is logical group `g`'s detector.
pub(crate) fn gather_slices<'a>(
    workers: &[ShardWorker],
    detectors: &[&'a dyn Detector],
    lanes: usize,
    policy: DetectPolicy,
    slices: &mut Vec<Slice<'a>>,
    owners: &mut Vec<u32>,
) {
    let groups = detectors.len();
    let total: usize = workers
        .iter()
        .flat_map(|worker| &worker.lanes[..groups])
        .map(|lane| lane.misses.len())
        .sum();
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
    owners.clear();
    if spans == 0 {
        return;
    }
    let quota = |span: usize| total / spans + usize::from(span < total % spans);
    let mut span = 0;
    let mut room = quota(0);
    for (group, &detector) in detectors.iter().enumerate() {
        for (owner, worker) in workers.iter().enumerate() {
            let mut misses = worker.lanes[group].misses.as_slice();
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
                owners.extend(std::iter::repeat_n(owner as u32, taken.len()));
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
}

/// Apply the run slices' outcomes to the owning workers, in the canonical
/// order [`gather_slices`] laid the frames out in (`owners` is its record of
/// who owns each).  Results land in the owner's lane, logical tallies
/// (detected frames, per-group counts, retry/backoff/failure telemetry) on
/// the owner too — so they are identical for any shard layout and any lane
/// count — and each *physical* batch probe (with its batch statistics) is
/// attributed to the shard owning the batch's first frame, so per-shard call
/// counts stay well-defined and `batches.count` keeps tracking
/// `detector_calls` everywhere.
///
/// Under fail-fast the pass stops at the first exhausted frame in canonical
/// order, parked as its owner's [`ShardWorker::fatal`]: whatever lanes ran
/// beyond it is discarded, which makes the reported failure independent of
/// the lane count, and the engine abandons the stage before any commit.
pub(crate) fn scatter_slices(
    workers: &mut [ShardWorker],
    detector_slots: &[DetectorSlot],
    share_lanes: bool,
    slices: &mut [Slice<'_>],
    owners: &[u32],
) {
    let mut gathered = 0;
    for slice in slices.iter_mut() {
        let policy = slice.policy;
        let mut start = 0;
        for (batch, outcome) in slice.batches.iter().zip(slice.outcomes.drain(..)) {
            let group = batch.group;
            let slot = detector_slots[group];
            let frames = &slice.frames[start..start + batch.len];
            let owners = &owners[gathered..gathered + batch.len];
            start += batch.len;
            gathered += batch.len;
            workers[owners[0] as usize].record_call(slot, batch.len as u64);
            let owned = frames.iter().zip(owners);
            match outcome {
                BatchOutcome::Detected(detections) => {
                    for ((&frame, &owner), detections) in owned.zip(detections) {
                        workers[owner as usize].absorb_detection(group, slot, frame, detections);
                    }
                }
                BatchOutcome::Recovered(recoveries) => {
                    for ((&frame, &owner), recovery) in owned.zip(recoveries) {
                        let worker = &mut workers[owner as usize];
                        worker.absorb_recovery(group, slot, frame, recovery, policy);
                        if worker.fatal.is_some() {
                            return;
                        }
                    }
                }
            }
        }
    }
    if share_lanes {
        for worker in workers.iter_mut() {
            worker.share_joined(detector_slots);
        }
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

    /// A worker with `frames` routed into group 0 and probed against `cache`.
    fn faulty_stage_worker(frames: &[FrameId], cache: &StripedDetectionCache) -> ShardWorker {
        let mut worker = ShardWorker::new(0);
        worker.begin_stage(1, 1);
        for &frame in frames {
            worker.push_frame(0, frame);
        }
        // Coalescing off keeps the lane in insertion order, so the tests can
        // pin exactly which frames are attempted before a fail-fast abort.
        worker.probe(&[0], false, Some(cache));
        worker
    }

    /// One stage's DETECT over `workers`' probed lanes: gather over `lanes`
    /// lanes, run every slice, scatter.  Returns each slice's frame count.
    fn detect_stage(
        workers: &mut [ShardWorker],
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
        policy: DetectPolicy,
        lanes: usize,
    ) -> Vec<usize> {
        let (mut slices, mut owners) = (Vec::new(), Vec::new());
        gather_slices(workers, detectors, lanes, policy, &mut slices, &mut owners);
        slices.iter_mut().for_each(Slice::run);
        let sizes = slices.iter().map(|slice| slice.frames.len()).collect();
        scatter_slices(workers, slots, true, &mut slices, &owners);
        sizes
    }

    /// [`detect_stage`] for one worker on one lane.
    fn detect(
        worker: &mut ShardWorker,
        detectors: &[&dyn Detector],
        slots: &[DetectorSlot],
        policy: DetectPolicy,
    ) {
        detect_stage(std::slice::from_mut(worker), detectors, slots, policy, 1);
    }

    /// Run the serial arbitration pass for one worker against `cache`.
    fn arbitrate(worker: &mut ShardWorker, slots: &[DetectorSlot], cache: &StripedDetectionCache) {
        arbitrate_cache(std::slice::from_mut(worker), slots, cache);
    }

    #[test]
    fn failed_frames_are_never_cached_and_a_recovered_retry_commits_once() {
        // Frame 5 fails its first two attempts (batch probe + first per-frame
        // try), frame 9 fails permanently, frame 1 is healthy.
        let detector = FlakyDetector::new(vec![(5, 2)], vec![9]);
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let mut worker = faulty_stage_worker(&[1, 5, 9], &cache);
        let policy = DetectPolicy {
            max_attempts: 3,
            backoff_cost: 4,
            fail_fast: false,
        };
        detect(&mut worker, &[&detector], &[0], policy);

        // Frame 5 recovered on its retry; frame 9 exhausted its attempts.
        assert!(worker.result(0, 1).is_some());
        assert!(worker.result(0, 5).is_some());
        assert!(worker.result(0, 9).is_none());
        assert_eq!(worker.stage_detected_frames(), 2);
        assert_eq!(worker.stage_failed_frames(), 1);
        assert_eq!(worker.stage_retries, 1, "frame 5 needed one retry");
        assert_eq!(
            worker.stage_backoff, 4,
            "first retry costs backoff_cost * 1"
        );
        assert_eq!(worker.failed_frames, 1);
        assert_eq!(worker.per_detector[0].failures, 1);
        // Permanent errors stop retrying immediately: probe + one per-frame
        // try, despite the 3-attempt budget.
        assert_eq!(detector.attempts_on(9), 2);

        // Cache hygiene: the failed frame is never committed; the recovered
        // one is committed exactly once.
        arbitrate(&mut worker, &[0], &cache);
        assert!(
            cache.probe(0, 9).is_none(),
            "failed frame must not be cached"
        );
        let held = cache.probe(0, 5).expect("recovered frame is cached");
        // Cache entry + lane result + our handle.
        assert_eq!(Arc::strong_count(&held), 3);
        // Releasing the lane leaves exactly one committed handle (plus ours):
        // the retry committed once, not once per attempt.
        worker.begin_stage(1, 1);
        assert_eq!(Arc::strong_count(&held), 2);
        assert_eq!(cache.stats().len, 2);

        // A follow-up stage over the same frames re-detects only frame 9.
        let calls_before = detector.calls.load(Ordering::SeqCst);
        let mut worker = faulty_stage_worker(&[1, 5, 9], &cache);
        detect(&mut worker, &[&detector], &[0], policy);
        assert!(
            detector.calls.load(Ordering::SeqCst) > calls_before,
            "frame 9 still misses the cache"
        );
        assert_eq!(worker.stage_detected_frames(), 0, "only frame 9 was missed");
        assert_eq!(worker.stage_failed_frames(), 1);
    }

    #[test]
    fn fail_fast_records_the_first_failure_and_stops_the_lane() {
        let detector = FlakyDetector::new(Vec::new(), vec![9]);
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let mut worker = faulty_stage_worker(&[2, 9, 4], &cache);
        detect(&mut worker, &[&detector], &[0], DetectPolicy::infallible());
        let fatal = worker
            .fatal
            .as_ref()
            .expect("fail-fast records the failure");
        assert_eq!(fatal.frame, 9);
        assert_eq!(fatal.slot, 0);
        assert_eq!(fatal.attempts, 2, "batch probe + one per-frame try");
        assert!(!fatal.error.is_transient());
        // The lane stopped at the failure: frame 4 was never attempted
        // per-frame (only the probe charged it) and nothing after the
        // failure can reach the cache.
        assert_eq!(detector.attempts_on(4), 1);
        arbitrate(&mut worker, &[0], &cache);
        assert!(cache.probe(0, 9).is_none());
        assert!(cache.probe(0, 4).is_none());
    }

    #[test]
    fn retries_off_fails_transient_frames_without_retrying() {
        let detector = FlakyDetector::new(vec![(5, 2)], Vec::new());
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let mut worker = faulty_stage_worker(&[5], &cache);
        let policy = DetectPolicy {
            max_attempts: 1,
            backoff_cost: 10,
            fail_fast: false,
        };
        detect(&mut worker, &[&detector], &[0], policy);
        assert!(worker.result(0, 5).is_none());
        assert_eq!(worker.stage_failed_frames(), 1);
        assert_eq!(worker.stage_retries, 0, "no retry budget, no retries");
        assert_eq!(worker.stage_backoff, 0);
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
        let mut worker = ShardWorker::new(0);
        worker.begin_stage(2, 2);
        for &frame in &[3u64, 7] {
            worker.push_frame(0, frame);
            worker.push_frame(1, frame);
        }
        // Two lanes carry the same detector slot (coalescing off).
        worker.probe(&[0, 0], false, Some(&cache));
        // Each distinct (detector, frame) probes once: 1 hit (frame 3),
        // 1 miss (frame 7) — not two of each, matching the single physical
        // detection frame 7 will cost.
        assert_eq!(worker.stage_cache.hits, 1);
        assert_eq!(worker.stage_cache.misses, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The second lane shares the hit's result immediately...
        assert!(worker.result(1, 3).is_some());
        // ...and detect resolves the shared miss once, sharing it across
        // both lanes with a single commit.
        let detector = FlakyDetector::new(Vec::new(), Vec::new());
        detect(
            &mut worker,
            &[&detector, &detector],
            &[0, 0],
            DetectPolicy::infallible(),
        );
        assert!(worker.result(0, 7).is_some());
        assert!(worker.result(1, 7).is_some());
        assert_eq!(worker.stage_detected_frames(), 1, "frame 7 detected once");
        arbitrate(&mut worker, &[0, 0], &cache);
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().misses, 1, "commit does not re-probe");
    }

    /// `shards` workers with `frames` all routed to worker `hot`, group 0,
    /// probed without a cache.
    fn skewed_workers(shards: u32, hot: usize, frames: &[FrameId]) -> Vec<ShardWorker> {
        let mut workers: Vec<ShardWorker> = (0..shards).map(ShardWorker::new).collect();
        for worker in &mut workers {
            worker.begin_stage(1, 1);
        }
        for &frame in frames {
            workers[hot].push_frame(0, frame);
        }
        for worker in &mut workers {
            worker.probe(&[0], false, None);
        }
        workers
    }

    #[test]
    fn slices_are_even_and_never_empty_however_skewed_the_routing() {
        let detector = FlakyDetector::new(Vec::new(), Vec::new());
        let frames: Vec<FrameId> = (100..109).collect();
        for (lanes, expected) in [
            (1usize, vec![9usize]),
            (2, vec![5, 4]),
            (4, vec![3, 2, 2, 2]),
            (16, vec![1; 9]),
        ] {
            // Every frame sits on shard 2 of 4: the lanes still share evenly.
            let mut workers = skewed_workers(4, 2, &frames);
            let sizes = detect_stage(
                &mut workers,
                &[&detector],
                &[0],
                DetectPolicy::infallible(),
                lanes,
            );
            assert_eq!(sizes, expected, "{lanes} lanes");
            // One group, so one batch per slice, all attributed to the shard
            // owning the frames; nothing was lost or detected twice.
            assert_eq!(workers[2].stage_batches.count, expected.len() as u64);
            assert_eq!(workers[2].stage_detected_frames(), 9);
            for &frame in &frames {
                assert!(workers[2].result(0, frame).is_some());
            }
        }
        // No demand, no slice: nothing is ever handed an empty batch.
        let mut idle = skewed_workers(4, 2, &[]);
        let calls = detector.calls.load(Ordering::SeqCst);
        let sizes = detect_stage(&mut idle, &[&detector], &[0], DetectPolicy::infallible(), 4);
        assert!(sizes.is_empty());
        assert_eq!(detector.calls.load(Ordering::SeqCst), calls);
    }

    #[test]
    fn a_group_is_cut_only_where_a_lane_boundary_falls_inside_it() {
        // Three groups of 2, 5 and 4 frames on one worker, cut over 3 lanes
        // (4 + 4 + 3): slice 0 holds group 0 and the head of group 1, slice 1
        // the rest of group 1 and one frame of group 2, slice 2 the tail —
        // 3 groups + 2 cuts = 5 batches, and none spans two groups.
        let detectors: Vec<FlakyDetector> = (0..3)
            .map(|_| FlakyDetector::new(Vec::new(), Vec::new()))
            .collect();
        let refs: Vec<&dyn Detector> = detectors.iter().map(|d| d as &dyn Detector).collect();
        let mut worker = ShardWorker::new(0);
        worker.begin_stage(3, 3);
        for (group, count) in [(0usize, 2u64), (1, 5), (2, 4)] {
            for frame in 0..count {
                worker.push_frame(group, group as u64 * 100 + frame);
            }
        }
        worker.probe(&[0, 1, 2], true, None);
        let sizes = detect_stage(
            std::slice::from_mut(&mut worker),
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
        assert_eq!(worker.stage_batches.count, 5);
        assert_eq!(worker.lane_detected, vec![2, 5, 4]);
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
        let run = |lanes: usize| {
            let detector = FlakyDetector::new(vec![(5, 2)], vec![9]);
            let mut workers = skewed_workers(3, 1, &frames);
            detect_stage(&mut workers, &[&detector], &[0], policy, lanes);
            let worker = workers.swap_remove(1);
            let resolved: Vec<bool> = frames
                .iter()
                .map(|&frame| worker.result(0, frame).is_some())
                .collect();
            (
                worker.stage_detected_frames(),
                worker.stage_failed_frames(),
                worker.stage_retries,
                worker.stage_backoff,
                resolved,
            )
        };
        let serial = run(1);
        assert_eq!(
            (serial.0, serial.1, serial.2, serial.3),
            (9, 1, 1, 4),
            "frame 5 recovers on its one retry, frame 9 is dropped"
        );
        for lanes in [2usize, 3, 5, 10] {
            assert_eq!(run(lanes), serial, "{lanes} lanes");
        }
    }

    #[test]
    fn fail_fast_stops_at_the_first_failure_in_canonical_order_for_any_lane_count() {
        // Frames 9 and 11 both fail permanently.  Whichever lanes they fall
        // into, the stage reports frame 9 — first in gather order — and
        // applies nothing after it, even what another lane did detect.
        let frames = [2u64, 9, 4, 11, 6];
        for lanes in [1usize, 2, 3, 5] {
            let detector = FlakyDetector::new(Vec::new(), vec![9, 11]);
            let mut workers = skewed_workers(2, 0, &frames);
            detect_stage(
                &mut workers,
                &[&detector],
                &[0],
                DetectPolicy::infallible(),
                lanes,
            );
            let fatal = workers[0].fatal.as_ref().expect("fail-fast parks it");
            assert_eq!((fatal.frame, fatal.attempts), (9, 2), "{lanes} lanes");
            assert!(workers[0].result(0, 2).is_some(), "{lanes} lanes");
            for after in [4u64, 11, 6] {
                assert!(workers[0].result(0, after).is_none(), "{lanes} lanes");
            }
            assert_eq!(workers[0].stage_failed_frames(), 1, "{lanes} lanes");
        }
    }

    #[test]
    fn a_joined_frame_shares_the_failure_of_the_lane_it_rides_on() {
        // Coalescing off, cache on: lane 1 joins lane 0's misses.  Frame 9
        // fails permanently — once, for lane 0 — and lane 1 is left without
        // a result too instead of demanding the frame a second time.
        let cache = StripedDetectionCache::new(CacheConfig::new(8));
        let detector = FlakyDetector::new(Vec::new(), vec![9]);
        let mut worker = ShardWorker::new(0);
        worker.begin_stage(2, 2);
        for &frame in &[3u64, 9] {
            worker.push_frame(0, frame);
            worker.push_frame(1, frame);
        }
        worker.probe(&[0, 0], false, Some(&cache));
        let policy = DetectPolicy {
            max_attempts: 1,
            backoff_cost: 0,
            fail_fast: false,
        };
        detect(&mut worker, &[&detector, &detector], &[0, 0], policy);
        assert!(worker.result(0, 3).is_some() && worker.result(1, 3).is_some());
        assert!(worker.result(0, 9).is_none() && worker.result(1, 9).is_none());
        assert_eq!(worker.stage_failed_frames(), 1);
        assert_eq!(detector.attempts_on(9), 2, "one probe, one per-frame try");
        arbitrate(&mut worker, &[0, 0], &cache);
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
    fn router_agrees_with_the_sharded_repository() {
        let repo = VideoRepository::single_clip(1_000);
        let chunking = Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks: 10 });
        for p in [ShardPartitioner::RoundRobin, ShardPartitioner::Contiguous] {
            let spec = ShardSpec::new(p, chunking.len(), 3);
            let router = ShardRouter::new(&chunking, &spec).unwrap();
            let sharded = ShardedRepository::new(repo.clone(), chunking.clone(), spec);
            for frame in 0..1_000 {
                assert_eq!(
                    router.shard_of(frame) as u32,
                    sharded.shard_of_frame(frame).0,
                    "{p:?} frame {frame}"
                );
            }
            let via_repo = ShardRouter::from_repository(&sharded);
            assert_eq!(via_repo.shard_of(999), router.shard_of(999));
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
