//! Shard routing and per-shard engine workers.
//!
//! A sharded engine splits the DETECT phase of every stage across shards: each
//! query's picks are routed to the shard owning the picked frame's chunk (the
//! [`ShardRouter`]), and each shard's [`ShardWorker`] runs the batched
//! detector invocations for the frames routed to it, keeping its own cost and
//! hit tallies.  PICK stays global (per-query policies span the full chunk
//! space and own their RNG streams) and FAN-OUT stays in registration/pick
//! order, which is what makes a merged sharded run bitwise-identical to the
//! unsharded run — see the crate docs for the full determinism argument.
//!
//! A worker's stage work is split into three phases:
//!
//! 1. [`ShardWorker::probe`] (serial **or** parallel) — coalesce each lane's
//!    frames and answer what it can from the shared lock-striped cross-stage
//!    cache ([`StripedDetectionCache::probe`], membership reads plus
//!    commutative per-stripe tallies — never a recency or membership
//!    mutation), recording each lane's hits and misses as this worker's
//!    commit *intents*;
//! 2. [`ShardWorker::detect`] (serial **or** parallel) — run the batched
//!    detector invocations for the cache misses.  Phases 1 and 2 touch only
//!    the worker's own lanes and tallies plus shared-and-`Sync` state (the
//!    `&dyn Detector`s, the striped cache), so workers are data-independent
//!    and the engine may run them concurrently in any order on the
//!    persistent per-run worker pool (`crate::runtime`, where whole
//!    `ShardWorker`s travel to the pool's lanes by value and their buffers
//!    are recycled across stages);
//! 3. [`arbitrate_cache`] (serial, under one [`crate::cache::CacheTxn`]) —
//!    the arbitration pass: collect every worker's recorded hits and fresh
//!    results as intents, sort each kind into canonical `(slot, frame)`
//!    order, then apply all touches followed by all inserts.  The canonical
//!    order depends only on *which* frames were probed and detected — never
//!    on how they were partitioned across shards — so cache accounting is
//!    bitwise-identical across shard counts and partitioners, not just
//!    across thread counts at a fixed layout.
//!
//! Because cache membership never changes between a stage's probes and its
//! arbitration, probe outcomes are a pure function of the membership set and
//! phase 3's fixed replay order — not locking — is what makes parallel
//! execution bitwise-identical to serial execution, cache on or off.
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

/// How a worker's detect phase handles detector failures — the engine's
/// [`crate::RetryPolicy`] and [`crate::FailureMode`] flattened into the
/// `Copy` form every lane carries.
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

/// A fatal detect failure recorded by a worker under fail-fast: the engine
/// surfaces the first one in shard order as
/// [`EngineError::DetectorFailed`].
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
    /// in lane order — the exact batch [`ShardWorker::detect`] runs.
    misses: Vec<FrameId>,
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

/// Per-shard execution state: the frames routed to this shard in the current
/// stage, plus the shard's cumulative cost and hit tallies.
///
/// All scratch is worker-owned (detection buffer, per-group detected counts),
/// so [`ShardWorker::detect`] needs no shared mutable state and the engine
/// can run workers' detect phases on pool threads.
#[derive(Debug)]
pub(crate) struct ShardWorker {
    shard: u32,
    lanes: Vec<Lane>,
    /// Lanes in use this stage (dead slots keep their allocations).
    live_lanes: usize,
    /// Scratch for `detect_batch` output (reused across lanes and stages).
    detect_buf: Vec<FrameDetections>,
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
    /// The first fatal failure recorded under fail-fast, if any; the engine
    /// checks workers in shard order after every detect pass and aborts the
    /// stage on the first one it finds.
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
            detect_buf: Vec::new(),
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

    /// Phase 1 of the worker's stage: coalesce each lane and split it into
    /// cache hits (answered in place with an `Arc` clone of the cached entry,
    /// and recorded in probe order as this worker's touch intents) and misses
    /// (left for [`ShardWorker::detect`]).
    ///
    /// When `coalesce` is set, each lane's frames are sorted and deduplicated
    /// first (queries on the same shard share the detector bill).  Runs once
    /// per worker per stage — inline on the coordinator or inside the
    /// parallel dispatch (`runtime::detect_chunk`) — and only *reads* cache
    /// membership while tallying per-stripe counters, so probe outcomes are
    /// a pure function of the membership set and the hit/miss sums are
    /// identical no matter which thread carries which worker.
    ///
    /// With coalescing *off*, two same-stage lanes of this worker can carry
    /// the same detector; a later lane dedupes against earlier same-slot
    /// lanes at probe time instead of probing the cache again: a frame an
    /// earlier lane hit is shared immediately, a frame an earlier lane
    /// missed joins this lane's misses untallied (the detect phase's
    /// same-slot reuse resolves it without a second detection or commit).
    /// Each distinct `(detector, frame)` pair therefore counts exactly once
    /// per shard per stage — matching the single physical detection it can
    /// cost.
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
                            lane.misses.push(frame);
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

    /// Phase 2 of the worker's stage: run the batched detector invocations
    /// for every lane with cache misses.
    ///
    /// `detectors[g]` / `detector_slots[g]` give the logical group's detector
    /// and its registry slot.  Touches only this worker's own lanes, scratch
    /// and tallies plus the shared (`Send + Sync`) detectors — no cache, no
    /// engine state — so the engine may run workers' detect phases
    /// concurrently on pool threads without changing any observable result.
    ///
    /// Detection may fail.  Each lane is first probed with one batched
    /// [`Detector::try_detect_batch`] call — the fault-free path, identical
    /// in cost and behaviour to the pre-fault-tolerance engine.  If the probe
    /// errs, the lane falls back to per-frame recovery: every miss is
    /// attempted individually up to `policy.max_attempts` times (a permanent
    /// error stops retrying immediately), retries and their deterministic
    /// backoff cost are tallied per frame, and a frame whose attempts are
    /// exhausted is *removed from the lane's misses* — it gains no result, is
    /// never committed to the cache, and (under fail-fast) is recorded in
    /// [`ShardWorker::fatal`] and aborts this worker's detect pass.  Because
    /// every frame's attempt history depends only on its own schedule (one
    /// probe plus its own per-frame tries), the per-frame tallies are
    /// independent of how frames are batched into shards — the engine's
    /// fault determinism guarantee.
    ///
    /// When the cross-stage cache is enabled and coalescing is off, two lanes
    /// of the same stage can carry the same detector (each picking query gets
    /// its own group); lanes are processed in order and a later lane reuses
    /// any frame an earlier same-slot lane already resolved this stage, so a
    /// (detector, frame) pair is detected at most once per shard per stage —
    /// the worker-local, execution-mode-independent replacement for the
    /// intra-stage sharing that interleaving cache inserts with probes used
    /// to provide.  Without a cache, uncoalesced lanes deliberately pay the
    /// full bill (that is what "uncoalesced detector work" measures), exactly
    /// as before.
    pub(crate) fn detect(
        &mut self,
        detectors: &[&dyn Detector],
        detector_slots: &[DetectorSlot],
        share_lanes: bool,
        policy: DetectPolicy,
    ) {
        for g in 0..self.live_lanes {
            if self.lanes[g].misses.is_empty() {
                continue;
            }
            let slot = detector_slots[g];
            if share_lanes {
                self.reuse_shared_lane(g, detector_slots);
            }
            let misses = &self.lanes[g].misses;
            if misses.is_empty() {
                continue;
            }
            let probed = misses.len() as u64;
            self.detect_buf.clear();
            let probe = detectors[g].try_detect_batch(misses, &mut self.detect_buf);
            self.record_call(slot, probed);
            match probe {
                Ok(()) => {
                    // Fault-free path: identical bookkeeping to the
                    // pre-fault-tolerance engine.
                    self.record_detected(g, slot, probed);
                    let lane = &mut self.lanes[g];
                    lane.results.reserve(self.detect_buf.len());
                    for (&frame, detections) in lane.misses.iter().zip(self.detect_buf.drain(..)) {
                        lane.results.insert(frame, Arc::new(detections));
                    }
                }
                Err(_) => {
                    // The batch probe failed somewhere in the lane: fall back
                    // to per-frame recovery, in lane order.  Each frame's
                    // attempt history is one probe plus its own per-frame
                    // tries, so tallies are independent of lane/shard
                    // composition.
                    for idx in 0..self.lanes[g].misses.len() {
                        let frame = self.lanes[g].misses[idx];
                        self.recover_frame(detectors[g], g, slot, frame, policy);
                        if self.fatal.is_some() {
                            break;
                        }
                    }
                    // Failed (and, under fail-fast, unprocessed) frames leave
                    // the miss list so they can never be committed to the
                    // cache or fanned out.
                    let Lane {
                        misses, results, ..
                    } = &mut self.lanes[g];
                    misses.retain(|frame| results.contains_key(frame));
                    if self.fatal.is_some() {
                        return;
                    }
                }
            }
        }
    }

    /// Reuse results an earlier same-slot lane of this worker already
    /// resolved this stage — the cache-on, coalesce-off intra-stage sharing
    /// described on [`ShardWorker::detect`].  The scan only arms with
    /// genuinely duplicated detectors; the common paths pay one slice scan
    /// per lane at most.
    fn reuse_shared_lane(&mut self, g: usize, detector_slots: &[DetectorSlot]) {
        let slot = detector_slots[g];
        if !detector_slots[..g].contains(&slot) {
            return;
        }
        let (earlier, rest) = self.lanes.split_at_mut(g);
        let Lane {
            misses, results, ..
        } = &mut rest[0];
        misses.retain(|&frame| {
            let reused = detector_slots[..g]
                .iter()
                .zip(earlier.iter())
                .find_map(|(&s, other)| {
                    if s == slot {
                        other.results.get(&frame)
                    } else {
                        None
                    }
                });
            match reused {
                Some(detections) => {
                    results.insert(frame, Arc::clone(detections));
                    false
                }
                None => true,
            }
        });
    }

    /// Per-frame recovery of one frame after a failed batch probe — the one
    /// retry loop every detect path shares ([`ShardWorker::detect`]'s lanes,
    /// [`aggregate_detect`]'s cross-shard batches and
    /// [`ShardWorker::detect_direct`]), charged to this worker (the frame's
    /// owner).  The frame is attempted individually up to
    /// `policy.max_attempts` times (a permanent error stops retrying
    /// immediately), each retry charging its deterministic backoff cost.
    /// Because the frame's attempt history is always one batch probe plus its
    /// own per-frame tries, its tallies are identical however the failed
    /// batch was composed.  A recovered frame lands in the group's lane
    /// results; an exhausted one gains no result and, under fail-fast, is
    /// parked in [`ShardWorker::fatal`].
    fn recover_frame(
        &mut self,
        detector: &dyn Detector,
        group: usize,
        slot: DetectorSlot,
        frame: FrameId,
        policy: DetectPolicy,
    ) {
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut retries = 0u64;
        let mut backoff = 0u64;
        let outcome = loop {
            attempts += 1;
            self.detect_buf.clear();
            match detector.try_detect_batch(std::slice::from_ref(&frame), &mut self.detect_buf) {
                Ok(()) => {
                    break Ok(self
                        .detect_buf
                        .pop()
                        .expect("one detection set per detected frame"));
                }
                Err(err) => {
                    if !err.is_transient() || attempts >= max_attempts {
                        break Err(err);
                    }
                    // The upcoming try is retry number `attempts` (1-based).
                    retries += 1;
                    backoff += policy.retry_cost(attempts);
                }
            }
        };
        self.detector_calls += u64::from(attempts);
        self.record_batches(1, u64::from(attempts));
        self.per_detector_entry(slot).calls += u64::from(attempts);
        self.stage_retries += retries;
        self.retries += retries;
        self.stage_backoff += backoff;
        self.backoff += backoff;
        match outcome {
            Ok(detections) => {
                self.record_detected(group, slot, 1);
                self.lanes[group]
                    .results
                    .insert(frame, Arc::new(detections));
            }
            Err(error) => {
                self.failed_frames += 1;
                self.lane_failed[group] += 1;
                self.per_detector_entry(slot).failures += 1;
                if policy.fail_fast {
                    self.fatal = Some(DetectFailure {
                        slot,
                        frame,
                        // Batch probe + per-frame tries.
                        attempts: attempts + 1,
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
    /// A failed probe falls back to [`ShardWorker::recover_frame`] for every
    /// pick, so the recovered frames (and any fail-fast failure) land in lane
    /// 0 exactly as [`ShardWorker::detect`] would have left them and the
    /// caller fans out through the lane like any 1-shard stage.
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
            self.recover_frame(detector, 0, slot, frame, policy);
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
    /// Cache hygiene under faults: a frame whose detect attempts failed was
    /// removed from the lane's miss list by [`ShardWorker::detect`], so a
    /// failed attempt can never be committed — only frames with an actual
    /// result reach the LRU, and each exactly once per stage.
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
                    // A dedupe-joined miss whose detection lives on the
                    // earlier same-slot lane (which commits it); nothing to
                    // publish here.
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

    /// Whether any lane has routed frames this stage (the cache-off
    /// pre-dispatch work check: no frames means dispatch would only run
    /// no-ops).
    pub(crate) fn has_frames(&self) -> bool {
        self.lanes[..self.live_lanes]
            .iter()
            .any(|lane| !lane.frames.is_empty())
    }

    /// Whether every frame routed to this worker this stage is already
    /// resident in the cache — the pre-dispatch warm check, evaluated
    /// *before* [`ShardWorker::probe`] runs.  Uses the tally-free
    /// [`StripedDetectionCache::contains`] so the decision never perturbs
    /// the hit/miss accounting the real probe will produce (which keeps
    /// cache accounting execution-invariant: the skip changes where the
    /// probe runs, never what it counts).
    pub(crate) fn is_warm(
        &self,
        detector_slots: &[DetectorSlot],
        cache: &StripedDetectionCache,
    ) -> bool {
        self.lanes[..self.live_lanes]
            .iter()
            .enumerate()
            .all(|(g, lane)| {
                let slot = detector_slots[g];
                lane.frames.iter().all(|&frame| cache.contains(slot, frame))
            })
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

/// Cross-shard aggregated DETECT: the batching replacement for running each
/// worker's [`ShardWorker::detect`] independently.
///
/// For each logical detector group (in group order), the per-shard demand —
/// every worker's cache misses for that group, gathered in deterministic
/// (shard, frame-within-lane) order — is concatenated and issued as batches
/// of at most `max_batch` frames (one batch per group when unbounded), then
/// each result is scattered back into its owning worker's lane.  Logical
/// tallies (detected frames, per-group counts, retry/backoff/failure
/// telemetry) land on the frame's *owner*, so they are identical to the
/// per-shard path for any shard layout; each *physical* call (and its batch
/// statistics) is attributed to the shard owning the batch's first frame, so
/// per-shard call counts remain well-defined and `batches.count` keeps
/// tracking `detector_calls` everywhere.
///
/// Groups are processed strictly in order with all workers completing a group
/// before the next begins, which preserves the same-slot lane reuse semantics
/// of [`ShardWorker::detect`] (a later lane of a worker reuses what any of
/// its earlier lanes resolved).  Faults keep their per-shard shape: a failed
/// batch probe sends exactly that batch's frames through the owner-charged
/// per-frame recovery loop, and under fail-fast a worker whose frame exhausts
/// its attempts skips its own remaining frames (this group and later ones),
/// exactly like the per-worker early return — other shards are unaffected.
///
/// Runs on one thread (the aggregated batch *is* the cross-shard batch, so
/// there is nothing left to parallelise across workers): inline on the
/// coordinator, or as a single pool job when the engine overlaps PICK with
/// DETECT.
pub(crate) fn aggregate_detect(
    workers: &mut [ShardWorker],
    detectors: &[&dyn Detector],
    detector_slots: &[DetectorSlot],
    share_lanes: bool,
    policy: DetectPolicy,
    max_batch: usize,
) {
    let max_batch = max_batch.max(1);
    let mut gather: Vec<(usize, FrameId)> = Vec::new();
    let mut batch_frames: Vec<FrameId> = Vec::new();
    let mut batch_owners: Vec<usize> = Vec::new();
    let mut detect_buf: Vec<FrameDetections> = Vec::new();
    for (g, &slot) in detector_slots.iter().enumerate() {
        gather.clear();
        for (w, worker) in workers.iter_mut().enumerate() {
            if worker.fatal.is_some() {
                continue;
            }
            if share_lanes {
                worker.reuse_shared_lane(g, detector_slots);
            }
            gather.extend(worker.lanes[g].misses.iter().map(|&frame| (w, frame)));
        }
        let mut pos = 0;
        while pos < gather.len() {
            batch_frames.clear();
            batch_owners.clear();
            while pos < gather.len() && batch_frames.len() < max_batch {
                let (w, frame) = gather[pos];
                pos += 1;
                // A worker that went fatal earlier in this group contributes
                // nothing further (fail-fast early-return semantics).
                if workers[w].fatal.is_none() {
                    batch_frames.push(frame);
                    batch_owners.push(w);
                }
            }
            if batch_frames.is_empty() {
                continue;
            }
            detect_buf.clear();
            let probe = detectors[g].try_detect_batch(&batch_frames, &mut detect_buf);
            // The physical call belongs to the shard owning the batch's
            // first frame.
            workers[batch_owners[0]].record_call(slot, batch_frames.len() as u64);
            match probe {
                Ok(()) => {
                    for ((&frame, &w), detections) in batch_frames
                        .iter()
                        .zip(&batch_owners)
                        .zip(detect_buf.drain(..))
                    {
                        let worker = &mut workers[w];
                        worker.record_detected(g, slot, 1);
                        worker.lanes[g].results.insert(frame, Arc::new(detections));
                    }
                }
                Err(_) => {
                    for (&frame, &w) in batch_frames.iter().zip(&batch_owners) {
                        let worker = &mut workers[w];
                        if worker.fatal.is_none() {
                            worker.recover_frame(detectors[g], g, slot, frame, policy);
                        }
                    }
                }
            }
        }
        // Keep only resolved frames in each lane's miss list, in lane order —
        // commit_cache and fan-out read misses as "frames with fresh
        // results", exactly like the per-worker error path leaves them.
        for worker in workers.iter_mut() {
            let Lane {
                misses, results, ..
            } = &mut worker.lanes[g];
            misses.retain(|frame| results.contains_key(frame));
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
        worker.detect(&[&detector], &[0], false, policy);

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
        worker.detect(&[&detector], &[0], false, policy);
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
        worker.detect(&[&detector], &[0], false, DetectPolicy::infallible());
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
        worker.detect(&[&detector], &[0], false, policy);
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
        worker.detect(
            &[&detector, &detector],
            &[0, 0],
            true,
            DetectPolicy::infallible(),
        );
        assert!(worker.result(0, 7).is_some());
        assert!(worker.result(1, 7).is_some());
        assert_eq!(worker.stage_detected_frames(), 1, "frame 7 detected once");
        arbitrate(&mut worker, &[0, 0], &cache);
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().misses, 1, "commit does not re-probe");
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
