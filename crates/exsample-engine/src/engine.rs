//! The batched multi-query execution engine.
//!
//! [`QueryEngine`] runs one or many concurrent distinct-object queries over a
//! shared video repository in *stages*.  Each stage is a three-phase pipeline:
//!
//! ```text
//!          ┌──────────────────────────────────────────────────────────┐
//!  stage:  │ 1. PICK     every live query draws its batch of frame    │
//!          │             ids, clamped to its remaining frame budget,  │
//!          │             from its SamplingPolicy (own RNG stream):    │
//!          │             on the calling thread, or, under             │
//!          │             ExecutionMode::Parallel(n), query i on lane  │
//!          │             i mod n of the run's persistent worker pool  │
//!          │ 2. DETECT   picks are grouped per shared detector; each  │
//!          │             group's cache misses are one batch, the      │
//!          │             stage's batches cut evenly over the lanes:   │
//!          │             one on the calling thread, or, under         │
//!          │             ExecutionMode::Parallel, several on the      │
//!          │             run's persistent worker pool                 │
//!          │ 3. FAN-OUT  per query, in pick order, on the calling     │
//!          │             thread: discriminator observes the frame's   │
//!          │             detections, the policy records the verdict,  │
//!          │             budgets and trajectories advance             │
//!          └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Stages repeat until every query has a [`StopReason`].  The detector is the
//! dominant cost in real deployments, so phase 2 is where multiplexing pays:
//! when several queries ask for the same frame in the same stage, the engine
//! detects it once and fans the (deterministic) result out to each query's own
//! discriminator.  See the crate docs for the exact coalescing semantics.
//!
//! In code the pipeline is one loop of three functions, each phase written
//! once, over one reused `Stage`: `plan` (stop checks, PICK and grouping,
//! query by query — or, when the run has helpers, in three passes whose
//! PICK is one pool job per lane — then loading each detector group's
//! frames into its lane),
//! `detect` (probe the cache, then gather the misses into one slice per
//! lane, run the slices — one pool call when the run has helpers — and
//! scatter the outcomes to the lanes) and `settle` (fail-fast scan, cache
//! commit, tallies, FAN-OUT, stats, sink).
//!
//! Shards are a reporting view, not an execution mode: the router of
//! [`QueryEngine::sharded`] is read only where a tally is recorded, to add it
//! to the shard owning the frame, and [`QueryEngine::report_sharded`]
//! publishes those per-shard tallies.  Every stage executes the same code for
//! any router.
//!
//! Determinism: each query owns an RNG stream seeded from its
//! [`QuerySpec::seed`], detectors are pure functions of the frame id, and
//! phase 3 always visits queries in registration order — so per-query outcomes
//! are a function of the query's own spec, never of how stages interleave,
//! which queries share the engine, or how many threads execute PICK and
//! DETECT.  Parallelism only reorders *work*: a PICK job carries one query's
//! policy and RNG stream, which no other query reads, and is handed back
//! before grouping, which stays in registration order; a DETECT slice is
//! frame ids and detector references whose outcome is a pure function of the
//! two; the
//! cache is probed before the gather and committed after the scatter — both
//! on the calling thread, in canonical order — and FAN-OUT always consumes
//! results in registration/pick order — so no observable result, cache
//! accounting included, ever depends on thread scheduling (the determinism
//! suite pins threads {1, 2, 4}).  Only the *physical* invocation shape
//! follows the lane count: a detector group is cut where a lane boundary
//! falls inside it.

use crate::cache::{CacheActivity, CacheStats, DetectionCache};
use crate::error::EngineError;
use crate::merge::{BatchStats, ShardedReport};
use crate::policy::SamplingPolicy;
use crate::runtime::{PickBatch, PickJob, WorkerPool};
use crate::shard::{self, Lanes, ShardRouter, ShardView, Slice};
use exsample_core::SelectionTelemetry;
use exsample_detect::{Detector, FrameDetections, InstanceId};
use exsample_track::{Discriminator, MatchOutcome, OracleDiscriminator};
use exsample_video::FrameId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;

/// How many lanes a stage's PICK and DETECT are cut over.
///
/// Serial execution (the default) picks for every query and issues one
/// batched detector invocation per detector group per stage, all on the
/// calling thread — pick-for-pick the engine's historical behaviour.
/// Parallel execution runs both on the [`crate::runtime`] module's
/// persistent per-run pool (helper threads spawned once per run, reused by
/// every stage): query `i` picks on lane `i mod n`, and the stage's gathered
/// detector demand is cut into equal slices, one per lane.  A pick reads
/// only its own query's policy and RNG stream, a slice's outcome is a pure
/// function of its frames and detectors, and grouping, probing, scattering,
/// committing and FAN-OUT stay on the calling thread in canonical order, so
/// **every logical result — reports, pick sequences, cache state, the
/// detector failure reported — is bitwise-identical between the two
/// modes** for any thread count; only the physical invocation count grows,
/// by at most `lanes − 1` per stage.  The determinism suite pins this for threads {1, 2, 4}.
///
/// A policy or detector panic on any lane of a parallel run, the calling
/// thread's included, ends the run with [`EngineError::WorkerPanicked`]
/// after every policy is back with its query; a serial run lets it unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Run every stage's PICK and DETECT on the calling thread (default).
    #[default]
    Serial,
    /// Cut every stage's PICK and DETECT over this many lanes: the calling
    /// thread plus the run's persistent pool helpers.
    ///
    /// `Parallel(1)` is serial execution under another name.  A count of zero
    /// is rejected by [`QueryEngine::execution`] as
    /// [`EngineError::InvalidExecution`].
    Parallel(usize),
}

impl ExecutionMode {
    /// The number of threads (lanes) this mode uses: 1 for serial.
    pub fn effective_threads(&self) -> usize {
        match *self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel(threads) => threads.max(1),
        }
    }
}

/// Why a query stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The requested number of distinct results (or ground-truth instances)
    /// was found.
    ResultLimitReached,
    /// The query's frame budget was exhausted before enough results were found.
    FrameBudgetExhausted,
    /// The query's policy ran out of frames to produce.
    RepositoryExhausted,
}

/// One point of a recall trajectory: after `frames` detector invocations paid
/// by this query, `found` distinct ground-truth instances had been found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Frames processed through the detector when the point was recorded.
    pub frames: u64,
    /// Distinct ground-truth instances found at that moment.
    pub found: usize,
}

/// Specification of one query, built builder-style and submitted via
/// [`QueryEngine::push`].
pub struct QuerySpec<'a> {
    label: String,
    policy: Box<dyn SamplingPolicy + 'a>,
    detector: &'a dyn Detector,
    discriminator: Box<dyn Discriminator + 'a>,
    rng: StdRng,
    result_limit: Option<usize>,
    true_limit: Option<usize>,
    frame_budget: Option<u64>,
    batch: usize,
}

impl<'a> QuerySpec<'a> {
    /// Create a spec with an [`OracleDiscriminator`], batch size 1, no limits,
    /// and an RNG stream derived from seed 0.
    pub fn new(
        label: impl Into<String>,
        policy: Box<dyn SamplingPolicy + 'a>,
        detector: &'a dyn Detector,
    ) -> Self {
        QuerySpec {
            label: label.into(),
            policy,
            detector,
            discriminator: Box::new(OracleDiscriminator::new()),
            rng: StdRng::seed_from_u64(0),
            result_limit: None,
            true_limit: None,
            frame_budget: None,
            batch: 1,
        }
    }

    /// Replace the discriminator (default: oracle matching).
    pub fn discriminator(mut self, discriminator: Box<dyn Discriminator + 'a>) -> Self {
        self.discriminator = discriminator;
        self
    }

    /// Seed this query's private RNG stream.  Two engine runs whose specs carry
    /// the same seeds produce identical per-query outcomes regardless of what
    /// else runs alongside.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Stop once the discriminator reports this many distinct objects.
    pub fn result_limit(mut self, limit: usize) -> Self {
        self.result_limit = Some(limit);
        self
    }

    /// Stop once this many distinct *ground-truth* instances have been found
    /// (how recall-level stop conditions are expressed).
    pub fn true_limit(mut self, limit: usize) -> Self {
        self.true_limit = Some(limit);
        self
    }

    /// Stop after this many detector invocations paid by this query.
    pub fn frame_budget(mut self, budget: u64) -> Self {
        self.frame_budget = Some(budget);
        self
    }

    /// Number of frames the query picks per stage (its detector batch
    /// size); a stage picks fewer only when less of the frame budget is left.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

/// What one engine stage did, as seen by cost-accounting hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Stage number (0-based).
    pub stage: u64,
    /// Queries that contributed picks to this stage.
    pub active_queries: usize,
    /// Frames demanded by the queries (what an uncoalesced execution would
    /// have run through detectors).
    pub demanded_frames: u64,
    /// Frames actually run through detectors after coalescing (and, when the
    /// cross-stage cache is enabled, after cache hits).
    pub detector_frames: u64,
    /// Logical batched detector invocations: one per detector group that
    /// needed any detection this stage, regardless of how many lanes the
    /// group's frames were cut across.
    pub detector_calls: u64,
    /// Physical batch-size statistics of this stage's detector invocations
    /// (count / frames / min / mean / max).  Unlike every other field, this
    /// is a *physical* tally: it depends on the lane count (a detector group
    /// is cut where a lane boundary falls inside it) and on which frames
    /// shared a failed batch, so cost hooks wanting execution-invariant
    /// numbers should stick to `detector_frames` /
    /// `detector_calls` and treat this as telemetry (or bill it through a
    /// `per_call + per_frame × n` cost model of their own).
    pub batches: BatchStats,
    /// Cross-stage cache activity this stage (all zeros when the cache is
    /// off): probe hits/misses plus the evictions this stage's commits
    /// triggered.  Execution-invariant like every logical field — the
    /// determinism matrix pins it across thread counts.
    pub cache: CacheActivity,
}

/// Final report for one query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The label the query was submitted under.
    pub label: String,
    /// Name of the query's sampling policy.
    pub policy: String,
    /// Detector invocations paid by this query (demand, not coalesced cost).
    pub frames_processed: u64,
    /// Distinct objects reported by the query's discriminator.
    pub distinct_found: usize,
    /// Distinct ground-truth instances found.
    pub true_found: usize,
    /// The ground-truth instances found, sorted.
    pub found_instances: Vec<InstanceId>,
    /// Recall trajectory: one point per newly found ground-truth instance.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Frames the policy had to scan upfront (proxy-style policies only).
    pub upfront_scan_frames: u64,
    /// Chunk-selection telemetry reported by the query's policy (class-max vs
    /// per-chunk picks and dedup savings; ExSample only, `None` for policies
    /// without a chunk-selection step).
    pub selection: Option<SelectionTelemetry>,
    /// Why the query stopped, or `None` if it has not run to completion
    /// (possible only in reports taken via `QueryEngine::report` before a
    /// run, or after one that returned an error; after a completed
    /// [`QueryEngine::run`] every query has a reason).
    pub stop_reason: Option<StopReason>,
}

/// Aggregate result of an engine run.
#[derive(Debug, Clone)]
#[must_use = "an engine report carries the run's outcomes and cost accounting"]
pub struct EngineReport {
    /// Per-query reports, in registration order.
    pub outcomes: Vec<QueryReport>,
    /// Number of stages executed.
    pub stages: u64,
    /// Total frames demanded by all queries (uncoalesced detector work).
    pub demanded_frames: u64,
    /// Total frames run through detectors (coalesced detector work).
    pub detector_frames: u64,
    /// Total logical batched detector invocations (see
    /// [`StageStats::detector_calls`]; the physical count lives in
    /// [`ShardedReport::physical_detector_calls`]).
    pub detector_calls: u64,
    /// Total cross-stage cache activity (all zeros when the cache is off).
    pub cache: CacheActivity,
}

impl EngineReport {
    /// Detector invocations avoided by cross-query coalescing (plus, when
    /// enabled, the cross-stage cache).
    pub fn coalesced_savings(&self) -> u64 {
        self.demanded_frames - self.detector_frames
    }
}

struct QueryState<'a> {
    label: String,
    policy: Box<dyn SamplingPolicy + 'a>,
    detector: &'a dyn Detector,
    discriminator: Box<dyn Discriminator + 'a>,
    rng: StdRng,
    result_limit: Option<usize>,
    true_limit: Option<usize>,
    frame_budget: Option<u64>,
    batch: usize,
    frames_processed: u64,
    found_true: HashSet<InstanceId>,
    trajectory: Vec<TrajectoryPoint>,
    stop: Option<StopReason>,
}

impl QueryState<'_> {
    /// The stop conditions, checked in the same order as the legacy per-frame
    /// loop: results first, then budget (so a satisfied query never pays for
    /// one more stage).
    fn stop_condition(&self) -> Option<StopReason> {
        if let Some(limit) = self.result_limit {
            if self.discriminator.distinct_count() >= limit {
                return Some(StopReason::ResultLimitReached);
            }
        }
        if let Some(limit) = self.true_limit {
            if self.found_true.len() >= limit {
                return Some(StopReason::ResultLimitReached);
            }
        }
        if let Some(budget) = self.frame_budget {
            if self.frames_processed >= budget {
                return Some(StopReason::FrameBudgetExhausted);
            }
        }
        None
    }

    /// The stop checks, then the query's PICK size: its batch clamped to
    /// what is left of its frame budget.  `None` once the query has
    /// stopped.
    fn next_want(&mut self) -> Option<usize> {
        if self.stop.is_none() {
            self.stop = self.stop_condition();
        }
        if self.stop.is_some() {
            return None;
        }
        // No stop condition holds, so the budget is not yet spent.
        let budget_left = self
            .frame_budget
            .map_or(u64::MAX, |b| b - self.frames_processed);
        Some((self.batch as u64).min(budget_left) as usize)
    }

    fn report(&self) -> QueryReport {
        let mut found_instances: Vec<InstanceId> = self.found_true.iter().copied().collect();
        found_instances.sort();
        QueryReport {
            label: self.label.clone(),
            policy: self.policy.name().to_string(),
            frames_processed: self.frames_processed,
            distinct_found: self.discriminator.distinct_count(),
            true_found: self.found_true.len(),
            found_instances,
            trajectory: self.trajectory.clone(),
            upfront_scan_frames: self.policy.upfront_scan_frames(),
            selection: self.policy.selection_telemetry(),
            stop_reason: self.stop,
        }
    }
}

/// What a query holds while its policy is out on a PICK lane: a policy that
/// picks nothing.  The engine hands the query's own policy back before
/// anything else calls it; boxing this zero-sized stand-in allocates nothing.
struct Lent;

impl SamplingPolicy for Lent {
    fn name(&self) -> &'static str {
        "lent"
    }

    fn next_batch_into(&mut self, _rng: &mut dyn RngCore, _batch: usize, picks: &mut Vec<FrameId>) {
        picks.clear();
    }

    fn record(&mut self, _frame: FrameId, _outcome: &MatchOutcome) {}

    fn remaining(&self) -> Option<u64> {
        Some(0)
    }
}

/// One observed frame's durable facts, collected during a stage's fan-out
/// for the engine's [`StageSink`] (when one is installed).
///
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageObservation {
    /// Query registration index the observation belongs to.
    pub query: usize,
    /// The observed frame.
    pub frame: FrameId,
    /// The belief update the sampling policy received for this frame
    /// (ExSample's `|d0| - |d1|`; what a durable store must replay to
    /// reconstruct the posterior).
    pub n1_delta: i64,
    /// Ground-truth instances first found on this frame.
    pub new_hits: u64,
    /// The ids of those first-found instances, in discovery order.
    pub new_instances: Vec<InstanceId>,
}

/// A checkpoint hook at the engine's stage-commit boundary.
///
/// When installed via [`QueryEngine::stage_sink`], the engine collects one
/// [`StageObservation`] per observed frame during fan-out and hands the
/// stage's batch to the sink **serially**, after the stage's results are
/// folded — the same serial seam the cache's commit transaction uses, so the
/// batch's observation order is a pure function of (query registration
/// order, pick order) and therefore bitwise-identical across routers and
/// thread counts.
///
/// An `Err` aborts the run with [`EngineError::CheckpointFailed`]: a
/// checkpoint that cannot be made durable must stop the run rather than let
/// it silently diverge from its recovery point.  The error is the sink's
/// message; sinks wanting to surface a typed error chain keep it internally
/// and re-chain at their own layer (as `exsample-sim`'s store sink does).
pub trait StageSink {
    /// One committed stage's observations, in deterministic order.
    fn stage_committed(
        &mut self,
        stage: u64,
        observations: &[StageObservation],
    ) -> Result<(), String>;
}

/// One planned stage: the per-query picks and the grouping that
/// [`QueryEngine::plan`] decides and [`QueryEngine::settle`]'s fan-out reads
/// back.  The group frame lists go straight into the lanes; what stays here
/// is what the lanes do not keep — each query's picks in pick order (a lane
/// is sorted and deduplicated by the probe) and which group each query
/// joined.  The stage loop reuses one of these for the whole run.  A stage's
/// shape never picks a DETECT path; it only decides whether there is
/// anything to cut — a one-group stage without pool helpers is detected in
/// place.
#[derive(Default)]
struct Stage<'a> {
    /// The stage's logical detector groups, in group order: one per distinct
    /// detector among the picking queries.
    detectors: Vec<&'a dyn Detector>,
    /// Registry slot of each group.
    slots: Vec<u32>,
    /// Query → group map (`usize::MAX` = not picking this stage).
    membership: Vec<usize>,
    /// Under a pool: per-query PICK size (indexed by query registration
    /// order; 0 = not picking this stage).
    wants: Vec<usize>,
    /// Per-query picks (indexed by query registration order).
    picks: Vec<Vec<FrameId>>,
    /// Under a pool: each lane's PICK batch, empty between stages (its
    /// allocation is recycled).
    pick_batches: Vec<PickBatch<'a>>,
    /// Queries that contributed picks.
    active: usize,
    /// Frames demanded by those picks.
    demanded: u64,
}

/// The batched multi-query execution engine.  See the module docs for the
/// stage pipeline and determinism guarantees.
pub struct QueryEngine<'a> {
    queries: Vec<QueryState<'a>>,
    /// The per-shard report view: which shard each tally is added to
    /// ([`ShardRouter::single`], one shard, by default).
    view: ShardView,
    /// The stage's DETECT state: one lane per logical detector group, holding
    /// its frames and results, and the stage's tallies.
    lanes: Lanes,
    /// This stage's DETECT work: the lanes' gathered misses, cut into one
    /// slice per lane (recycled across stages).
    slices: Vec<Slice<'a>>,
    /// How many lanes DETECT is cut over (serial — one — by default).
    execution: ExecutionMode,
    /// The run's worker pool: `Some` only while [`QueryEngine::run_with`] is
    /// executing a parallel run (the threads live in that call's
    /// `std::thread::scope`, and the pool — whose drop is their shutdown
    /// signal — is dropped before the scope closes on every path).
    pool: Option<WorkerPool<'a>>,
    /// Stages that dispatched DETECT work to the pool (cumulative across
    /// runs).  Stages whose demand fits one slice stay inline and don't
    /// count.
    pooled_dispatches: u64,
    /// Optional cross-stage frame→detections cache (off by default).
    cache: Option<DetectionCache>,
    /// Run total of the cache activity (see [`EngineReport::cache`]).
    cache_total: CacheActivity,
    /// Registry of distinct detectors seen, in first-seen order.  Membership
    /// is by *fat* pointer (`std::ptr::eq` on `&dyn Detector` compares data
    /// address and vtable), so two distinct zero-sized detector types at the
    /// same address can never share a slot — an identity mismatch can only
    /// cost a missed coalescing/caching opportunity, never correctness.
    detector_slots: Vec<&'a dyn Detector>,
    stages: u64,
    demanded_frames: u64,
    detector_frames: u64,
    detector_calls: u64,
    /// Optional checkpoint hook flushed serially at each stage commit (off
    /// by default; see [`QueryEngine::stage_sink`]).
    sink: Option<Box<dyn StageSink + 'a>>,
    /// Reused per-stage scratch: the fan-out observations handed to `sink`.
    /// Stays empty when no sink is installed.
    stage_observations: Vec<StageObservation>,
}

impl Default for QueryEngine<'_> {
    fn default() -> Self {
        QueryEngine::new()
    }
}

impl<'a> QueryEngine<'a> {
    /// Create an engine with a single shard, serial execution and no
    /// cross-stage cache.
    pub fn new() -> Self {
        QueryEngine {
            queries: Vec::new(),
            view: ShardView::new(ShardRouter::single()),
            lanes: Lanes::default(),
            slices: Vec::new(),
            execution: ExecutionMode::Serial,
            pool: None,
            pooled_dispatches: 0,
            cache: None,
            cache_total: CacheActivity::default(),
            detector_slots: Vec::new(),
            stages: 0,
            demanded_frames: 0,
            detector_frames: 0,
            detector_calls: 0,
            sink: None,
            stage_observations: Vec::new(),
        }
    }

    /// Install a checkpoint hook at the stage-commit boundary (see
    /// [`StageSink`]).  The sink is invoked serially once per stage with the
    /// stage's observations in deterministic (query registration, pick)
    /// order; a sink error aborts the run with
    /// [`EngineError::CheckpointFailed`].  Installing a sink never changes
    /// any query's outcome — only whether the run's belief updates are also
    /// handed to the sink — which the engine's sink test pins down.
    pub fn stage_sink(mut self, sink: Box<dyn StageSink + 'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Group [`QueryEngine::report_sharded`]'s per-shard tallies by
    /// `router`: every tally is attributed to the shard owning the frame it
    /// was paid for, and each physical call to the shard owning its batch's
    /// first frame.  A view, never an execution mode: what runs, and the
    /// global report, are the same for any router.
    pub fn sharded(mut self, router: ShardRouter) -> Self {
        self.view = ShardView::new(router);
        self
    }

    /// Choose how many lanes PICK and DETECT are cut over (default:
    /// [`ExecutionMode::Serial`], which is pick-for-pick the historical
    /// behaviour).  Parallel execution never changes any logical result —
    /// see [`ExecutionMode`] — only how many threads draw the picks and pay
    /// the detector bill; a policy or detector panic becomes
    /// [`EngineError::WorkerPanicked`].
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidExecution`] for
    /// [`ExecutionMode::Parallel`] with zero threads.
    pub fn execution(mut self, mode: ExecutionMode) -> Result<Self, EngineError> {
        if let ExecutionMode::Parallel(0) = mode {
            return Err(EngineError::InvalidExecution { threads: 0 });
        }
        self.execution = mode;
        Ok(self)
    }

    /// Number of stages, across all of this engine's runs, that dispatched
    /// DETECT work to the persistent worker pool.  Serial stages and stages
    /// whose demand after the cache probe fits one slice — fully cache-warm
    /// ones above all — stay inline on the calling thread and don't count;
    /// the runtime lifecycle tests use this to pin the warm-skip down.
    pub fn pooled_stage_dispatches(&self) -> u64 {
        self.pooled_dispatches
    }

    /// Enable the bounded cross-stage frame→detections cache with the given
    /// capacity (in frames), evicting the least-recently-used entry past it;
    /// `0` means no cache.  Off by default: the cache never changes query
    /// outcomes (detectors are pure functions of the frame id), but warm hits
    /// bypass `detect_batch`, so the detector cost accounting of a cached run
    /// is not comparable to an uncached one.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| DetectionCache::new(capacity));
        self
    }

    /// Hit/miss/eviction counters of the cross-stage cache, if enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(DetectionCache::stats)
    }

    /// Register a query; returns its index (reports come back in this order).
    ///
    /// # Errors
    /// Returns [`EngineError::ZeroBatch`] if the spec's batch size is zero.
    pub fn push(&mut self, spec: QuerySpec<'a>) -> Result<usize, EngineError> {
        if spec.batch == 0 {
            return Err(EngineError::ZeroBatch { label: spec.label });
        }
        self.queries.push(QueryState {
            label: spec.label,
            policy: spec.policy,
            detector: spec.detector,
            discriminator: spec.discriminator,
            rng: spec.rng,
            result_limit: spec.result_limit,
            true_limit: spec.true_limit,
            frame_budget: spec.frame_budget,
            batch: spec.batch,
            frames_processed: 0,
            found_true: HashSet::new(),
            trajectory: Vec::new(),
            stop: None,
        });
        Ok(self.queries.len() - 1)
    }

    /// The registry slot of `detector`, assigned in first-seen order.
    fn detector_slot(slots: &mut Vec<&'a dyn Detector>, detector: &'a dyn Detector) -> u32 {
        match slots.iter().position(|&d| std::ptr::eq(d, detector)) {
            Some(slot) => slot as u32,
            None => {
                slots.push(detector);
                (slots.len() - 1) as u32
            }
        }
    }

    /// PICK + group the next stage into `stage`, and load each group's
    /// frames into its lane.  Runs against the engine state as of the last
    /// settled stage.  A serial run checks, picks and groups query by query;
    /// a run with a pool does it in three passes — stop checks and PICK
    /// sizes, PICK on the lanes, grouping — so that only PICK leaves the
    /// coordinator.  Returns `false` when no query picked: the run is over.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if a policy panicked under
    /// [`ExecutionMode::Parallel`]; every policy is back with its query.
    fn plan(&mut self, stage: &mut Stage<'a>) -> Result<bool, EngineError> {
        stage.detectors.clear();
        stage.slots.clear();
        stage.membership.clear();
        stage.membership.resize(self.queries.len(), usize::MAX);
        stage.active = 0;
        stage.demanded = 0;
        if stage.picks.len() < self.queries.len() {
            stage.picks.resize_with(self.queries.len(), Vec::new);
        }

        // With a pool, passes 1 and 2: each live query's PICK size in
        // registration order (0 = not picking), then PICK on the lanes.
        let pooled = self.pool.is_some();
        if let Some(pool) = self.pool.as_mut() {
            stage.wants.clear();
            let queries = self.queries.iter_mut().zip(&mut stage.picks);
            stage.wants.extend(queries.map(|(q, picks)| {
                picks.clear();
                q.next_want().unwrap_or(0)
            }));
            Self::pick_on_lanes(pool, &mut self.queries, stage)?;
        }

        // Stop checks and PICK (serial), then grouping, query by query: a
        // query that picked joins the group of its detector's registry slot
        // (groups in first-appearance order); one that picked nothing has
        // exhausted its repository.
        for (i, (q, picks)) in self.queries.iter_mut().zip(&mut stage.picks).enumerate() {
            if pooled {
                if stage.wants[i] == 0 {
                    continue;
                }
            } else {
                picks.clear();
                let Some(want) = q.next_want() else {
                    continue;
                };
                q.policy.next_batch_into(&mut q.rng, want, picks);
            }
            if picks.is_empty() {
                q.stop = Some(StopReason::RepositoryExhausted);
                continue;
            }
            stage.active += 1;
            stage.demanded += picks.len() as u64;
            let slot = Self::detector_slot(&mut self.detector_slots, q.detector);
            stage.membership[i] = match stage.slots.iter().position(|&s| s == slot) {
                Some(group) => group,
                None => {
                    stage.detectors.push(q.detector);
                    stage.slots.push(slot);
                    stage.slots.len() - 1
                }
            };
        }
        if stage.active == 0 {
            return Ok(false);
        }

        // Lay every group's picks out in its lane, in (query, pick) arrival
        // order.
        self.lanes.begin_stage(stage.detectors.len());
        for (picks, &group) in stage.picks.iter().zip(&stage.membership) {
            if group != usize::MAX {
                self.lanes.push_frames(group, picks);
            }
        }
        Ok(true)
    }

    /// Pass 2 of [`QueryEngine::plan`] on the pool: lend each picking
    /// query's policy, RNG stream and pick buffer to its lane's batch —
    /// query `i` always picks on lane `i mod n` — run the batches, and hand
    /// everything back, whatever the batches did.
    fn pick_on_lanes(
        pool: &mut WorkerPool<'a>,
        queries: &mut [QueryState<'a>],
        stage: &mut Stage<'a>,
    ) -> Result<(), EngineError> {
        let lanes = pool.lanes();
        stage.pick_batches.resize_with(lanes, Vec::new);
        let lent = queries.iter_mut().zip(&mut stage.picks).zip(&stage.wants);
        for (i, ((q, picks), &want)) in lent.enumerate() {
            if want > 0 {
                stage.pick_batches[i % lanes].push(PickJob {
                    query: i,
                    policy: std::mem::replace(&mut q.policy, Box::new(Lent)),
                    rng: q.rng.clone(),
                    want,
                    picks: std::mem::take(picks),
                });
            }
        }
        let picked = pool.run_picks(&mut stage.pick_batches);
        for job in stage
            .pick_batches
            .iter_mut()
            .flat_map(|batch| batch.drain(..))
        {
            let q = &mut queries[job.query];
            q.policy = job.policy;
            q.rng = job.rng;
            stage.picks[job.query] = job.picks;
        }
        picked
    }

    /// DETECT for a planned stage: probe the cache, then gather the misses
    /// into one slice per lane, run the slices and scatter the outcomes to
    /// the lanes.
    ///
    /// The probe runs first, on the coordinator, because the gather needs its
    /// result.  A stage answered entirely from the cache gathers no slice at
    /// all, so it never reaches the pool; no lane is ever handed an empty
    /// slice; and a one-batch stage — one group, no pool helpers to cut it
    /// for — gathers none: it is detected in place.  With helpers, the
    /// slices are one [`WorkerPool::run_stage`] call, which runs the
    /// coordinator's slice under the same panic containment as the helpers'
    /// and rejoins them.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if a lane's detect pass
    /// panicked under [`ExecutionMode::Parallel`]; the stage is abandoned
    /// before its scatter, commit and fan-out.
    fn detect(&mut self, stage: &Stage<'a>) -> Result<(), EngineError> {
        self.lanes
            .probe(&stage.slots, self.cache.as_mut(), &mut self.view);
        if self.pool.is_none() && stage.detectors.len() == 1 {
            let (detector, slot) = (stage.detectors[0], stage.slots[0]);
            self.lanes.detect_in_place(&mut self.view, detector, slot);
            return Ok(());
        }
        shard::gather_slices(
            &self.lanes,
            &stage.detectors,
            self.pool.as_ref().map_or(1, WorkerPool::lanes),
            &mut self.slices,
        );
        match self.pool.as_mut() {
            Some(pool) if !self.slices.is_empty() => {
                if self.slices.len() > 1 {
                    self.pooled_dispatches += 1;
                }
                pool.run_stage(&mut self.slices)?;
            }
            _ => self.slices.iter_mut().for_each(Slice::run),
        }
        shard::scatter_slices(
            &mut self.lanes,
            &mut self.view,
            &stage.slots,
            &mut self.slices,
        );
        Ok(())
    }

    /// Fold a detected stage into the engine: fail-fast scan, cache commit,
    /// tallies, FAN-OUT, stats, sink flush, run counters — the
    /// serial half of every stage, identical in every execution
    /// configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::DetectorFailed`] if a frame failed its batch
    /// probe and its per-frame try (the stage is abandoned before its cache
    /// commit and fan-out, so no result of the doomed stage is ever
    /// published), and
    /// [`EngineError::CheckpointFailed`] if the stage sink refused the
    /// stage.  Reports and cost accounting are unspecified after either.
    fn settle(&mut self, stage: &Stage<'a>) -> Result<StageStats, EngineError> {
        // Fail-fast scan: the scatter stopped at the stage's first failed
        // frame (in canonical order) and parked it on the lanes; it aborts
        // the stage *before* the cache commit.
        if let Some(failure) = self.lanes.fatal.take() {
            let class = self.detector_slots[failure.slot as usize]
                .class()
                .to_string();
            return Err(EngineError::DetectorFailed {
                class,
                frame: failure.frame,
                // The batch probe and the one per-frame try.
                attempts: 2,
                source: failure.error,
            });
        }

        // Serial cache commit under one transaction, canonical (slot, frame)
        // order: first every touch (the hits), then every insert (the fresh
        // results).  The order is a pure function of the frames probed and
        // detected this stage, so the LRU's eviction sequence is identical no
        // matter how many lanes detected.
        if let Some(cache) = self.cache.as_mut() {
            self.lanes.commit(&stage.slots, cache, &mut self.view);
        }

        // Logical calls are counted once per group that needed any
        // detection, regardless of how many lanes its frames were cut
        // across; the physical ones are in the stage's batch statistics.
        let detector_frames = self.lanes.detected_frames();
        let detector_calls = self.lanes.detected.iter().filter(|&&n| n > 0).count() as u64;

        // FAN-OUT in registration order, each query in its own pick order.
        // Observation collection is active only when a sink is installed, so
        // sink-less runs pay nothing.  The scratch vector is moved out of
        // `self` for the fan-out (which borrows `self` mutably) and moved
        // back after the flush so its allocation is reused across stages.
        let mut observations = std::mem::take(&mut self.stage_observations);
        let collect = self.sink.is_some();
        for (i, &group) in stage.membership.iter().enumerate() {
            if group == usize::MAX {
                continue;
            }
            let q = &mut self.queries[i];
            for &frame in &stage.picks[i] {
                // Every pick has a result: a frame that failed aborted the
                // stage above.
                let detections = self.lanes.result(group, frame);
                debug_assert!(
                    detections.is_some(),
                    "pick {frame} of query {i} reached FAN-OUT without a result"
                );
                if let Some(detections) = detections {
                    let new_hits =
                        Self::observe_frame(q, i, frame, detections, collect, &mut observations);
                    self.view.observed(i, frame, new_hits);
                }
            }
        }

        let stats = StageStats {
            stage: self.stages,
            active_queries: stage.active,
            demanded_frames: stage.demanded,
            detector_frames,
            detector_calls,
            batches: self.lanes.batches,
            cache: self.lanes.cache,
        };
        // Stage commit: flush the sink at the same serial seam as the cache
        // transaction, before the stage counter advances.  A sink error
        // abandons the stage's stats exactly like a detector failure would.
        let flush = self.flush_stage_sink(self.stages, &mut observations);
        self.stage_observations = observations;
        flush?;
        self.stages += 1;
        self.demanded_frames += stage.demanded;
        self.detector_frames += detector_frames;
        self.detector_calls += detector_calls;
        self.cache_total.absorb(stats.cache);
        Ok(stats)
    }

    /// Hand the stage's observations to the installed sink (if any) and
    /// clear the scratch buffer either way.  Runs serially at the
    /// stage-commit boundary — the same serial seam as the cache transaction
    /// — so a sink never sees concurrent calls, and maps a sink refusal to
    /// [`EngineError::CheckpointFailed`].
    fn flush_stage_sink(
        &mut self,
        stage: u64,
        observations: &mut Vec<StageObservation>,
    ) -> Result<(), EngineError> {
        let result = match self.sink.as_mut() {
            Some(sink) => sink
                .stage_committed(stage, observations)
                .map_err(|message| EngineError::CheckpointFailed { stage, message }),
            None => Ok(()),
        };
        observations.clear();
        result
    }

    /// One frame's fan-out for one query: discriminator verdict, policy
    /// feedback, budget and trajectory bookkeeping.  Returns the number of
    /// ground-truth instances first found on this frame (the view's hit
    /// tally).
    ///
    /// When `collect` is set (a [`StageSink`] is installed) the frame's
    /// belief update is also pushed onto `observations` — at the same code
    /// point that feeds the policy, so the sink sees exactly what the
    /// sampler saw, in the same (registration, pick) order.
    fn observe_frame(
        q: &mut QueryState<'_>,
        query: usize,
        frame: FrameId,
        detections: &FrameDetections,
        collect: bool,
        observations: &mut Vec<StageObservation>,
    ) -> u64 {
        let outcome = q.discriminator.observe(detections);
        q.policy.record(frame, &outcome);
        q.frames_processed += 1;
        let mut new_hits = 0u64;
        let mut new_instances = Vec::new();
        for det in &outcome.new {
            if let Some(id) = det.truth {
                if q.found_true.insert(id) {
                    new_hits += 1;
                    q.trajectory.push(TrajectoryPoint {
                        frames: q.frames_processed,
                        found: q.found_true.len(),
                    });
                    if collect {
                        new_instances.push(id);
                    }
                }
            }
        }
        if collect {
            observations.push(StageObservation {
                query,
                frame,
                n1_delta: outcome.n1_delta(),
                new_hits,
                new_instances,
            });
        }
        new_hits
    }

    /// Run every query to completion, invoking `on_stage` after each stage
    /// (the per-stage cost-accounting hook `exsample-sim` charges its virtual
    /// clock from).
    ///
    /// Under [`ExecutionMode::Parallel`] this is where the persistent worker
    /// runtime lives: one `std::thread::scope` wraps the whole stage loop,
    /// `n - 1` helper threads are spawned into it once, and every stage with
    /// picks on more than one lane, or more detection work than one slice,
    /// hands them their jobs instead of spawning fresh threads.  The pool is
    /// dropped — which is every helper's shutdown signal — before the scope
    /// closes on *every* path out of the loop (completion, a stage error,
    /// even a panicking `on_stage` hook), and the scope then joins the
    /// helpers, so a run can neither leak nor deadlock its threads.
    ///
    /// # Errors
    /// Returns [`EngineError::NoQueries`] if no query was registered,
    /// [`EngineError::WorkerPanicked`] if a policy or detector panicked on a
    /// lane of a parallel run, [`EngineError::DetectorFailed`] if a frame
    /// failed its batch probe and its per-frame try, and
    /// [`EngineError::CheckpointFailed`] if the stage sink refused a stage
    /// (the run stops at the offending stage).
    pub fn run_with<F: FnMut(&StageStats)>(
        &mut self,
        mut on_stage: F,
    ) -> Result<EngineReport, EngineError> {
        if self.queries.is_empty() {
            return Err(EngineError::NoQueries);
        }
        let threads = self.execution.effective_threads();
        if threads > 1 {
            return std::thread::scope(|scope| {
                self.pool = Some(WorkerPool::spawn(scope, threads - 1));
                // Clears the pool on unwind too: dropping it is what lets the
                // scoped helpers exit, so the scope's implicit join cannot
                // hang even if `on_stage` panics mid-run.
                struct PoolGuard<'g, 'a>(&'g mut QueryEngine<'a>);
                impl Drop for PoolGuard<'_, '_> {
                    fn drop(&mut self) {
                        self.0.pool = None;
                    }
                }
                let guard = PoolGuard(self);
                guard.0.drive(&mut on_stage)
            });
        }
        self.drive(&mut on_stage)
    }

    /// The stage loop: `plan → detect → settle` per stage, over one reused
    /// [`Stage`], until a plan finds no query picking.
    fn drive<F: FnMut(&StageStats)>(
        &mut self,
        on_stage: &mut F,
    ) -> Result<EngineReport, EngineError> {
        let mut stage = Stage::default();
        while self.plan(&mut stage)? {
            self.detect(&stage)?;
            let stats = self.settle(&stage)?;
            on_stage(&stats);
        }
        Ok(self.report())
    }

    /// [`QueryEngine::run_with`] without a stage hook.
    ///
    /// # Errors
    /// Returns [`EngineError::NoQueries`] if no query was registered.
    pub fn run(&mut self) -> Result<EngineReport, EngineError> {
        self.run_with(|_| {})
    }

    /// Build the report for the engine's current state.
    #[must_use = "an engine report carries the run's outcomes and cost accounting"]
    pub(crate) fn report(&self) -> EngineReport {
        EngineReport {
            outcomes: self.queries.iter().map(QueryState::report).collect(),
            stages: self.stages,
            demanded_frames: self.demanded_frames,
            detector_frames: self.detector_frames,
            detector_calls: self.detector_calls,
            cache: self.cache_total,
        }
    }

    /// Build the report with its per-shard breakdown: the global
    /// [`EngineReport`] plus one [`crate::ShardReport`] per shard of the
    /// [`QueryEngine::sharded`] router, each holding the tallies attributed
    /// to it.
    #[must_use = "a sharded report carries the run's outcomes and cost accounting"]
    pub fn report_sharded(&self) -> ShardedReport {
        let shards = self.view.publish(self.queries.len(), |slot| {
            self.detector_slots[slot].class().to_string()
        });
        ShardedReport::new(self.report(), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ExSamplePolicy, FrameSamplerPolicy};
    use exsample_core::ExSampleConfig;
    use exsample_detect::{GroundTruth, ObjectClass, ObjectInstance, PerfectDetector};
    use exsample_video::{Chunking, ChunkingPolicy, ShardSpec, VideoRepository};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn setup(frames: u64, chunks: u32) -> (Chunking, Arc<GroundTruth>, PerfectDetector) {
        let repo = VideoRepository::single_clip(frames);
        let chunking = Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks });
        let mut instances = Vec::new();
        let start0 = frames * 7 / 8;
        let span = (frames / 96).max(2);
        for i in 0..12u64 {
            let start = start0 + i * span;
            let end = (start + span - 1).min(frames - 1);
            if start >= frames {
                break;
            }
            instances.push(ObjectInstance::simple(i, "car", start, end));
        }
        let truth = Arc::new(GroundTruth::from_instances(frames, instances));
        let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));
        (chunking, truth, detector)
    }

    #[test]
    fn single_query_finds_results_and_reports_stop_reason() {
        let (chunking, _truth, detector) = setup(40_000, 8);
        let mut engine = QueryEngine::new();
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        engine
            .push(
                QuerySpec::new("q", Box::new(policy), &detector)
                    .seed(3)
                    .batch(16)
                    .result_limit(5),
            )
            .unwrap();
        let report = engine.run().unwrap();
        let q = &report.outcomes[0];
        assert_eq!(q.stop_reason, Some(StopReason::ResultLimitReached));
        assert!(q.distinct_found >= 5);
        assert_eq!(q.true_found, q.found_instances.len());
        assert!(report.stages > 0);
        assert_eq!(report.demanded_frames, q.frames_processed);
    }

    #[test]
    fn frame_budget_is_exact_even_with_large_batches() {
        let (chunking, _truth, detector) = setup(40_000, 8);
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel(2)] {
            let mut engine = QueryEngine::new().execution(mode).unwrap();
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
            engine
                .push(
                    QuerySpec::new("q", Box::new(policy), &detector)
                        .seed(5)
                        .batch(64)
                        .frame_budget(100),
                )
                .unwrap();
            let report = engine.run().unwrap();
            let q = &report.outcomes[0];
            assert_eq!(q.frames_processed, 100, "{mode:?}");
            assert_eq!(q.stop_reason, Some(StopReason::FrameBudgetExhausted));
        }
    }

    #[test]
    fn repository_exhaustion_stops_queries() {
        let (chunking, _truth, detector) = setup(256, 4);
        let mut engine = QueryEngine::new();
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        engine
            .push(
                QuerySpec::new("q", Box::new(policy), &detector)
                    .seed(7)
                    .batch(32),
            )
            .unwrap();
        let report = engine.run().unwrap();
        let q = &report.outcomes[0];
        assert_eq!(q.stop_reason, Some(StopReason::RepositoryExhausted));
        assert_eq!(q.frames_processed, 256);
    }

    #[test]
    fn coalescing_reduces_detector_work_but_not_outcomes() {
        // Two identical uniform queries over a tiny repository *must* collide
        // on frames within a stage once enough of the range is covered.
        let (_chunking, _truth, detector) = setup(512, 4);
        let run = |seeds: &[u64]| {
            let mut engine = QueryEngine::new();
            for (i, &seed) in seeds.iter().enumerate() {
                engine
                    .push(
                        QuerySpec::new(
                            format!("q{i}"),
                            Box::new(FrameSamplerPolicy::uniform(512)),
                            &detector,
                        )
                        .seed(seed)
                        .batch(64),
                    )
                    .unwrap();
            }
            engine.run().unwrap()
        };
        let seeds = [11u64, 11, 13];
        let coalesced = run(&seeds);
        let solo: Vec<EngineReport> = seeds.iter().map(|&seed| run(&[seed])).collect();
        // Each query's outcome is bit-identical to its solo run's.
        for (a, solo) in coalesced.outcomes.iter().zip(&solo) {
            let b = &solo.outcomes[0];
            assert_eq!(a.frames_processed, b.frames_processed);
            assert_eq!(a.found_instances, b.found_instances);
            assert_eq!(a.trajectory, b.trajectory);
            assert_eq!(a.stop_reason, b.stop_reason);
        }
        // The queries demand exactly what their solo runs detected, and
        // queries 0 and 1 share a seed, so their per-stage picks are
        // identical and coalescing halves that part of the detector bill.
        let solo_frames: u64 = solo.iter().map(|report| report.detector_frames).sum();
        assert_eq!(coalesced.demanded_frames, solo_frames);
        assert!(coalesced.detector_frames < coalesced.demanded_frames);
        assert!(coalesced.coalesced_savings() > 0);
    }

    #[test]
    fn zero_batch_and_empty_engine_are_typed_errors() {
        let (chunking, _truth, detector) = setup(256, 4);
        let mut engine = QueryEngine::new();
        let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
        let err = engine
            .push(QuerySpec::new("bad", Box::new(policy), &detector).batch(0))
            .unwrap_err();
        assert!(matches!(err, EngineError::ZeroBatch { .. }));
        assert!(matches!(engine.run(), Err(EngineError::NoQueries)));
    }

    #[test]
    fn queries_with_different_budgets_finish_independently() {
        let (chunking, _truth, detector) = setup(40_000, 8);
        let mut engine = QueryEngine::new();
        for (label, budget) in [("short", 50u64), ("long", 400)] {
            let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
            engine
                .push(
                    QuerySpec::new(label, Box::new(policy), &detector)
                        .seed(17)
                        .batch(25)
                        .frame_budget(budget),
                )
                .unwrap();
        }
        let report = engine.run().unwrap();
        assert_eq!(report.outcomes[0].frames_processed, 50);
        assert_eq!(report.outcomes[1].frames_processed, 400);
        // The long query keeps running after the short one stops: one batch
        // per stage, so ceil(400 / 25) stages.
        assert_eq!(report.stages, 16);
    }

    #[test]
    fn sharded_stage_loop_matches_unsharded_outcomes() {
        let (chunking, _truth, detector) = setup(8_000, 8);
        let run = |shards: Option<u32>| {
            let mut engine = QueryEngine::new();
            if let Some(shards) = shards {
                let spec = ShardSpec::round_robin(chunking.len(), shards);
                engine = engine.sharded(ShardRouter::new(&chunking, &spec).unwrap());
            }
            for (label, seed) in [("a", 31u64), ("b", 37)] {
                let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
                engine
                    .push(
                        QuerySpec::new(label, Box::new(policy), &detector)
                            .seed(seed)
                            .batch(16)
                            .frame_budget(300),
                    )
                    .unwrap();
            }
            let _ = engine.run().unwrap();
            engine.report_sharded()
        };
        let unsharded = run(None);
        let sharded = run(Some(4));
        assert_eq!(sharded.shards.len(), 4);
        assert_eq!(unsharded.shards.len(), 1);
        for (a, b) in unsharded
            .report
            .outcomes
            .iter()
            .zip(&sharded.report.outcomes)
        {
            assert_eq!(a.frames_processed, b.frames_processed);
            assert_eq!(a.found_instances, b.found_instances);
            assert_eq!(a.trajectory, b.trajectory);
            assert_eq!(a.stop_reason, b.stop_reason);
        }
        assert_eq!(unsharded.report.stages, sharded.report.stages);
        assert_eq!(
            unsharded.report.detector_frames,
            sharded.report.detector_frames
        );
        assert_eq!(
            unsharded.report.detector_calls,
            sharded.report.detector_calls
        );
        // A shard view costs no physical invocation: a serial run issues
        // exactly the logical calls whatever the router.
        for merged in [&sharded, &unsharded] {
            assert_eq!(merged.physical_detector_calls, merged.report.detector_calls);
        }
        // Every query's frames partition across the shards.
        for i in 0..2 {
            let routed: u64 = sharded.shards.iter().map(|s| s.per_query[i].frames).sum();
            assert_eq!(routed, sharded.report.outcomes[i].frames_processed);
        }
    }

    #[test]
    fn invalid_execution_mode_is_a_typed_error() {
        let err = QueryEngine::new()
            .execution(ExecutionMode::Parallel(0))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidExecution { threads: 0 }));
        // Valid modes build, and the lane count is the thread count asked
        // for.
        assert!(QueryEngine::new()
            .execution(ExecutionMode::Parallel(64))
            .is_ok());
        assert_eq!(ExecutionMode::Parallel(64).effective_threads(), 64);
        assert_eq!(ExecutionMode::Serial.effective_threads(), 1);
        assert_eq!(ExecutionMode::Parallel(1).effective_threads(), 1);
    }

    #[test]
    fn parallel_execution_matches_serial_bitwise() {
        let (chunking, _truth, detector) = setup(8_000, 9);
        let run = |mode: ExecutionMode| {
            let spec = ShardSpec::round_robin(chunking.len(), 3);
            let mut engine = QueryEngine::new()
                .sharded(ShardRouter::new(&chunking, &spec).unwrap())
                .execution(mode)
                .unwrap();
            for (label, seed) in [("a", 61u64), ("b", 67)] {
                let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
                engine
                    .push(
                        QuerySpec::new(label, Box::new(policy), &detector)
                            .seed(seed)
                            .batch(16)
                            .frame_budget(400),
                    )
                    .unwrap();
            }
            let _ = engine.run().unwrap();
            engine.report_sharded()
        };
        let serial = run(ExecutionMode::Serial);
        assert_eq!(serial.physical_detector_calls, serial.report.detector_calls);
        for threads in [1usize, 2, 4, 16] {
            let parallel = run(ExecutionMode::Parallel(threads));
            // Only the physical shape follows the lane count: at most one
            // extra call per lane boundary per stage.
            let extra = parallel.physical_detector_calls - serial.physical_detector_calls;
            assert!(
                extra <= serial.report.stages * (threads as u64 - 1),
                "{threads} threads: {extra} extra physical calls"
            );
            for (p, s) in parallel.shards.iter().zip(&serial.shards) {
                assert_eq!(p.detector_frames, s.detector_frames, "{threads} threads");
                assert_eq!(p.per_query, s.per_query, "{threads} threads");
            }
            for (a, b) in parallel.report.outcomes.iter().zip(&serial.report.outcomes) {
                assert_eq!(a.frames_processed, b.frames_processed);
                assert_eq!(a.found_instances, b.found_instances);
                assert_eq!(a.trajectory, b.trajectory);
                assert_eq!(a.stop_reason, b.stop_reason);
            }
            assert_eq!(parallel.report.stages, serial.report.stages);
            assert_eq!(
                parallel.report.detector_frames,
                serial.report.detector_frames
            );
            assert_eq!(parallel.report.detector_calls, serial.report.detector_calls);
        }
    }

    #[test]
    fn parallel_execution_with_cache_matches_serial_accounting() {
        // The cache is probed and committed on the coordinator in both modes,
        // so even the hit/miss accounting — not just query outcomes — is
        // identical under parallel execution.
        let (chunking, _truth, detector) = setup(2_000, 6);
        let run = |mode: ExecutionMode| {
            let spec = ShardSpec::round_robin(chunking.len(), 3);
            let mut engine = QueryEngine::new()
                .sharded(ShardRouter::new(&chunking, &spec).unwrap())
                .execution(mode)
                .unwrap()
                .cache_capacity(64);
            for (label, seed) in [("a", 71u64), ("b", 71), ("c", 73)] {
                engine
                    .push(
                        QuerySpec::new(
                            label,
                            Box::new(FrameSamplerPolicy::uniform(2_000)),
                            &detector,
                        )
                        .seed(seed)
                        .batch(32)
                        .frame_budget(500),
                    )
                    .unwrap();
            }
            let _ = engine.run().unwrap();
            let stats = engine.cache_stats().expect("cache enabled");
            (engine.report_sharded(), stats)
        };
        let (serial, serial_stats) = run(ExecutionMode::Serial);
        let (parallel, parallel_stats) = run(ExecutionMode::Parallel(3));
        assert_eq!(parallel_stats, serial_stats, "cache accounting");
        assert_eq!(
            parallel.report.detector_frames,
            serial.report.detector_frames
        );
        assert_eq!(parallel.report.detector_calls, serial.report.detector_calls);
        assert!(parallel.physical_detector_calls >= serial.physical_detector_calls);
        for (a, b) in parallel.report.outcomes.iter().zip(&serial.report.outcomes) {
            assert_eq!(a.found_instances, b.found_instances);
            assert_eq!(a.trajectory, b.trajectory);
        }
        assert!(serial_stats.hits > 0, "setup exercises the cache");
    }

    /// A detector that counts its batched invocations (atomically — the
    /// `Detector` trait requires `Sync`, and parallel engines really do call
    /// it from several worker threads).
    struct CountingDetector {
        inner: PerfectDetector,
        batch_calls: AtomicU64,
    }

    impl Detector for CountingDetector {
        fn detect(&self, frame: FrameId) -> FrameDetections {
            self.inner.detect(frame)
        }

        fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.detect_batch(frames, out);
        }

        fn class(&self) -> &ObjectClass {
            self.inner.class()
        }
    }

    #[test]
    fn warm_cache_requery_issues_zero_detector_calls() {
        let (_chunking, truth, _detector) = setup(256, 4);
        let detector = CountingDetector {
            inner: PerfectDetector::new(truth, ObjectClass::from("car")),
            batch_calls: AtomicU64::new(0),
        };
        let mut engine = QueryEngine::new().cache_capacity(1_024);
        engine
            .push(
                QuerySpec::new(
                    "cold",
                    Box::new(FrameSamplerPolicy::uniform(256)),
                    &detector,
                )
                .seed(41)
                .batch(32),
            )
            .unwrap();
        let cold = engine.run().unwrap();
        assert_eq!(cold.outcomes[0].frames_processed, 256);
        let cold_calls = detector.batch_calls.load(Ordering::Relaxed);
        let cold_frames = engine.detector_frames;
        assert!(cold_calls > 0);

        // A warm re-query over the same repository: every frame is cached, so
        // not a single new detect_batch invocation is issued.
        engine
            .push(
                QuerySpec::new(
                    "warm",
                    Box::new(FrameSamplerPolicy::uniform(256)),
                    &detector,
                )
                .seed(43)
                .batch(32),
            )
            .unwrap();
        let warm = engine.run().unwrap();
        assert_eq!(warm.outcomes[1].frames_processed, 256);
        assert_eq!(
            detector.batch_calls.load(Ordering::Relaxed),
            cold_calls,
            "warm re-query must be served entirely from the cache"
        );
        assert_eq!(engine.detector_frames, cold_frames);
        let stats = engine.cache_stats().expect("cache enabled");
        assert!(stats.hits >= 256);
        // Outcomes are identical to an uncached run of the same query.
        let truth_check = {
            let mut uncached = QueryEngine::new();
            uncached
                .push(
                    QuerySpec::new(
                        "warm",
                        Box::new(FrameSamplerPolicy::uniform(256)),
                        &detector,
                    )
                    .seed(43)
                    .batch(32),
                )
                .unwrap();
            uncached.run().unwrap()
        };
        assert_eq!(
            warm.outcomes[1].found_instances,
            truth_check.outcomes[0].found_instances
        );
        assert_eq!(
            warm.outcomes[1].trajectory,
            truth_check.outcomes[0].trajectory
        );
    }

    #[test]
    fn zero_cache_capacity_means_no_cache() {
        let (_chunking, _truth, detector) = setup(512, 4);
        let run = |capacity: Option<usize>| {
            let mut engine = QueryEngine::new();
            if let Some(capacity) = capacity {
                engine = engine.cache_capacity(capacity);
            }
            engine
                .push(
                    QuerySpec::new("q", Box::new(FrameSamplerPolicy::uniform(512)), &detector)
                        .seed(53)
                        .batch(16),
                )
                .unwrap();
            let report = engine.run().unwrap();
            (format!("{report:?}"), engine.cache_stats())
        };
        let (uncached, none) = run(None);
        assert_eq!(none, None);
        let (zero, stats) = run(Some(0));
        assert_eq!(stats, None, "capacity 0 builds no cache");
        assert_eq!(zero, uncached, "and runs exactly like an uncached engine");
    }
}
