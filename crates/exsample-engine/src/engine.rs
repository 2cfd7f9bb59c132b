//! The batched multi-query execution engine.
//!
//! [`QueryEngine`] runs one or many concurrent distinct-object queries over a
//! shared video repository in *stages*.  Each stage is a four-phase pipeline:
//!
//! ```text
//!          ┌──────────────────────────────────────────────────────────┐
//!  stage:  │ 1. SCHEDULE the StageScheduler allots each live query a  │
//!          │             pick quota (default: its configured batch)   │
//!          │ 2. PICK     every live query draws ≤ quota frame ids     │
//!          │             from its SamplingPolicy (own RNG stream)     │
//!          │ 3. DETECT   picks are grouped per shared detector; each  │
//!          │             group's cache misses are one batch, the      │
//!          │             stage's batches cut evenly over the lanes:   │
//!          │             one on the calling thread, or, under         │
//!          │             ExecutionMode::Parallel, several on the      │
//!          │             run's persistent worker pool                 │
//!          │ 4. FAN-OUT  per query, in pick order: discriminator      │
//!          │             observes the frame's detections, the policy  │
//!          │             records the verdict, budgets and             │
//!          │             trajectories advance                         │
//!          └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Stages repeat until every query has a [`StopReason`].  The detector is the
//! dominant cost in real deployments, so phase 3 is where multiplexing pays:
//! when several queries ask for the same frame in the same stage, the engine
//! detects it once and fans the (deterministic) result out to each query's own
//! discriminator.  See the crate docs for the exact coalescing semantics.
//!
//! In code the pipeline is one loop of four functions, each phase written
//! once: `plan` (stop checks, SCHEDULE, PICK and grouping into a `Stage`
//! buffer holding one frame list per detector group), `launch` (load the
//! lanes, probe the cache, gather the misses into one slice per lane and
//! hand the pool helpers theirs, if the run has any), `land` (run the
//! coordinator's slice, rejoin the helpers, scatter the outcomes to the
//! lanes) and `settle` (fail-fast scan, cache commit, tallies, FAN-OUT,
//! quarantine, stats, sink).  [`QueryEngine::overlap`] only moves
//! `plan(n + 1)` from after `settle(n)` to between `launch(n)` and `land(n)`.
//!
//! Shards are a reporting view, not an execution mode: the router of
//! [`QueryEngine::sharded`] is read only where a tally is recorded, to add it
//! to the shard owning the frame, and [`QueryEngine::report_sharded`]
//! publishes those per-shard tallies.  Every stage executes the same code for
//! any router.
//!
//! Determinism: each query owns an RNG stream seeded from its
//! [`QuerySpec::seed`], detectors are pure functions of the frame id, and
//! phase 4 always visits queries in registration order — so per-query outcomes
//! are a function of the query's own spec, never of how stages interleave,
//! which queries share the engine, whether coalescing is enabled, or how many
//! threads execute DETECT.  Parallelism only reorders *work*: what a lane
//! runs is a slice of frame ids and detector references whose outcome is a
//! pure function of the two, the cache is probed before the gather and
//! committed after the scatter — both on the calling thread, in canonical
//! order — and FAN-OUT always consumes results in registration/pick order —
//! so no observable result, cache accounting included, ever depends on
//! thread scheduling (the determinism suite pins threads {1, 2, 4}).  Only
//! the *physical* invocation shape follows the lane count: a detector group
//! is cut where a lane boundary falls inside it.

use crate::cache::{CacheActivity, CacheConfig, CacheStats, StripedDetectionCache};
use crate::error::EngineError;
use crate::merge::{BatchStats, ShardedReport};
use crate::policy::SamplingPolicy;
use crate::runtime::{PoolCounters, StageDispatch, WorkerPool};
use crate::scheduler::{QueryLoad, RoundRobin, StageScheduler};
use crate::shard::{self, DetectPolicy, Lanes, ShardRouter, ShardView, Slice};
use exsample_core::SelectionTelemetry;
use exsample_detect::{Detector, FrameDetections, InstanceId};
use exsample_track::{Discriminator, OracleDiscriminator};
use exsample_video::FrameId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// How many lanes a stage's DETECT is cut over.
///
/// Serial execution (the default) issues one batched detector invocation per
/// detector group per stage on the calling thread — pick-for-pick the
/// engine's historical behaviour.  Parallel execution cuts the stage's
/// gathered detector demand into equal slices, one per lane, and runs them on
/// the [`crate::runtime`] module's persistent per-run pool (helper threads
/// spawned once per run, woken per stage).  A slice's outcome is a pure function of its
/// frames and detectors, and probing, scattering and committing stay on the
/// calling thread in canonical order, so **every logical result — reports,
/// pick sequences, cache state, fault tallies — is bitwise-identical between
/// the two modes** for any thread count; only the physical invocation count
/// grows, by at most `lanes − 1` per stage.  The determinism suite pins this
/// for threads {1, 2, 4}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Run every stage's DETECT on the calling thread (default).
    #[default]
    Serial,
    /// Cut every stage's DETECT over this many lanes: the calling thread
    /// plus the run's persistent pool helpers.
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
    /// The query's detector was quarantined: under
    /// [`FailureMode::Quarantine`], a detector whose cumulative failed-frame
    /// count exceeded the failure threshold is disabled for the rest of the
    /// run, and every query bound to it stops with this reason at the next
    /// stage boundary.
    DetectorQuarantined,
}

/// How (and whether) the engine retries a frame whose detect attempt failed.
///
/// Off by default ([`RetryPolicy::none`]): a run with retries disabled is
/// pick-for-pick identical to the pre-fault-tolerance engine.  When enabled,
/// a frame that fails with a transient
/// [`DetectError`](exsample_detect::DetectError) is retried up to the
/// attempt budget; permanent errors are never retried.  Each retry is charged
/// a *deterministic* backoff cost — the `k`-th retry of a frame costs
/// `backoff_cost * 2^(k-1)` cost units — accounted as stage cost
/// ([`StageStats::backoff_cost`]) instead of wall-clock sleeping, so retrying
/// runs stay bitwise-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    backoff_cost: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries (the default): a frame gets exactly one recovery attempt
    /// after a failed batch probe, and a transient fault that persists past
    /// it fails the frame.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_cost: 0,
        }
    }

    /// Retry each failing frame until it has been attempted `max_attempts`
    /// times (batch probes excluded), with no backoff cost.
    ///
    /// # Panics
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "retry policy needs at least one attempt");
        RetryPolicy {
            max_attempts,
            backoff_cost: 0,
        }
    }

    /// Charge this many cost units for a frame's first retry (doubling per
    /// further retry — deterministic exponential backoff).
    pub fn backoff_cost(mut self, cost: u64) -> Self {
        self.backoff_cost = cost;
        self
    }

    /// The per-frame attempt budget.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }
}

/// What the engine does when a frame's detect attempts are exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Abort the run with a typed [`EngineError::DetectorFailed`] carrying
    /// the detector class, frame and attempt count (the default).
    #[default]
    FailFast,
    /// Degrade: exclude failed frames from fan-out (no query observes them,
    /// they are never cached) and tally them in the reports
    /// ([`EngineReport::failed_frames`], [`QueryReport::dropped_frames`]).
    DropFrames,
    /// Degrade like [`FailureMode::DropFrames`], and additionally disable any
    /// detector whose cumulative failed-frame count *exceeds* the threshold:
    /// its queries stop with [`StopReason::DetectorQuarantined`] at the next
    /// stage boundary and it is never invoked again this run.
    Quarantine {
        /// Cumulative failed frames a detector may accrue before being
        /// disabled (`0` quarantines on the first failure).
        failure_threshold: u64,
    },
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
    rng: Box<dyn RngCore + 'a>,
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
            rng: Box::new(StdRng::seed_from_u64(0)),
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
        self.rng = Box::new(StdRng::seed_from_u64(seed));
        self
    }

    /// Use an external RNG instead of a seeded private stream (the legacy
    /// `run_query` wrapper threads its caller's generator through here).
    pub fn rng(mut self, rng: Box<dyn RngCore + 'a>) -> Self {
        self.rng = rng;
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

    /// Number of frames the query requests per stage (its detector batch
    /// size).  The [`StageScheduler`] may grant fewer or more.
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
    /// Per-frame retry attempts issued this stage (0 on fault-free stages).
    pub retries: u64,
    /// Frames whose detect attempts were exhausted this stage (degraded
    /// failure modes only; fail-fast aborts instead of counting).
    pub failed_frames: u64,
    /// Deterministic backoff cost charged for this stage's retries (see
    /// [`RetryPolicy::backoff_cost`]) — cost-accounting hooks should bill it
    /// alongside `detector_frames`.
    pub backoff_cost: u64,
    /// Physical batch-size statistics of this stage's detector invocations
    /// (count / frames / min / mean / max).  Unlike every other field, this
    /// is a *physical* tally: it depends on the lane count (a detector group
    /// is cut where a lane boundary falls inside it) and on which frames
    /// shared a failed batch, so cost hooks wanting execution-invariant
    /// numbers should stick to `detector_frames` /
    /// `detector_calls` and treat this as telemetry (or bill it through a
    /// [`BatchCostModel`](exsample_detect::BatchCostModel)).
    pub batches: BatchStats,
    /// Cross-stage cache activity this stage (all zeros when the cache is
    /// off): probe hits/misses plus the evictions and admission rejects this
    /// stage's commits triggered.  Execution-invariant like every logical
    /// field — the determinism matrix pins it across the full thread ×
    /// overlap grid.
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
    /// Picks of this query dropped from fan-out because their detection
    /// failed (degraded failure modes only; always 0 under fail-fast).
    pub dropped_frames: u64,
    /// Chunk-selection telemetry reported by the query's policy (class-max vs
    /// per-chunk picks and dedup savings; ExSample only, `None` for policies
    /// without a chunk-selection step).
    pub selection: Option<SelectionTelemetry>,
    /// Why the query stopped, or `None` if it has not run to completion
    /// (possible only in reports taken via [`QueryEngine::report`] before a
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
    /// Total per-frame retry attempts issued by the run (0 when fault-free).
    pub detect_retries: u64,
    /// Total frames whose detect attempts were exhausted (degraded failure
    /// modes only).
    pub failed_frames: u64,
    /// Total deterministic backoff cost charged for retries.
    pub backoff_cost: u64,
    /// Class labels of detectors quarantined during the run, in registry
    /// (first-seen) order.  Empty unless [`FailureMode::Quarantine`] tripped.
    pub quarantined_detectors: Vec<String>,
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
    rng: Box<dyn RngCore + 'a>,
    result_limit: Option<usize>,
    true_limit: Option<usize>,
    frame_budget: Option<u64>,
    batch: usize,
    frames_processed: u64,
    found_true: HashSet<InstanceId>,
    trajectory: Vec<TrajectoryPoint>,
    stop: Option<StopReason>,
    /// Picks dropped from fan-out because their detection failed.
    dropped_frames: u64,
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
            dropped_frames: self.dropped_frames,
            selection: self.policy.selection_telemetry(),
            stop_reason: self.stop,
        }
    }
}

/// One observed frame's durable facts, collected during a stage's fan-out
/// for the engine's [`StageSink`] (when one is installed).
///
/// Dropped frames produce no observation: a frame the failure policy dropped
/// never updated a policy's beliefs, so there is nothing to persist.
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
/// order, pick order) and therefore bitwise-identical across routers, thread
/// counts and overlap.
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

/// One planned stage: everything [`QueryEngine::plan`] decides (SCHEDULE +
/// PICK + group) and the later phases consume.
///
/// The plan lives here rather than in the lanes because under
/// [`QueryEngine::overlap`] stage `n + 1` is planned while stage `n`'s
/// slices are still mid-DETECT on pool helpers, and stage `n`'s fan-out
/// still needs *its* picks afterwards.  The stage loop ping-pongs two of
/// these; [`QueryEngine::launch`] swaps the group frame lists into the
/// lanes, so both sides' allocations recycle across stages.
#[derive(Default)]
struct Stage<'a> {
    /// The stage's logical detector groups, in group order: one per distinct
    /// detector among the picking queries (per picking query when coalescing
    /// is off).
    detectors: Vec<&'a dyn Detector>,
    /// Registry slot of each group.
    slots: Vec<u32>,
    /// Query → group map (`usize::MAX` = not picking this stage).
    membership: Vec<usize>,
    /// Picked frames per group, in (query, pick) arrival order.
    frames: Vec<Vec<FrameId>>,
    /// Per-query picks (indexed by query registration order).
    picks: Vec<Vec<FrameId>>,
    /// Queries that contributed picks.
    active: usize,
    /// Frames demanded by those picks.
    demanded: u64,
    /// The fast path: the stage's single picking query is detected straight
    /// from its pick buffer (see [`QueryEngine::plan`] for when).
    direct: bool,
}

/// The batched multi-query execution engine.  See the module docs for the
/// stage pipeline and determinism guarantees.
pub struct QueryEngine<'a> {
    queries: Vec<QueryState<'a>>,
    coalesce: bool,
    /// Per-stage batch allocation policy (default: [`RoundRobin`]).
    scheduler: Box<dyn StageScheduler + 'a>,
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
    /// Plan each stage while the previous stage's DETECT is in flight (off
    /// by default; see [`QueryEngine::overlap`]).
    overlap: bool,
    /// The run's worker pool: `Some` only while [`QueryEngine::run_with`] is
    /// executing a parallel run (the threads live in that call's
    /// `std::thread::scope`, and the pool — whose job senders are their
    /// shutdown signal — is dropped before the scope closes on every path).
    pool: Option<WorkerPool<'a>>,
    /// Lifecycle counts of the helper threads this engine's pools spawn.
    pool_counters: Arc<PoolCounters>,
    /// Stages that dispatched work to the pool (cumulative across runs).
    /// Stages whose demand fits one slice stay inline and don't count.
    pooled_dispatches: u64,
    /// Optional cross-stage frame→detections cache (off by default).
    cache: Option<StripedDetectionCache>,
    /// Retry policy for failed detect attempts (off by default).
    retry: RetryPolicy,
    /// What happens when a frame's attempts are exhausted (fail-fast by
    /// default).
    failure: FailureMode,
    /// Cumulative failed frames per detector registry slot (drives
    /// [`FailureMode::Quarantine`]).
    slot_failures: Vec<u64>,
    /// Quarantined detector registry slots.
    quarantined: Vec<bool>,
    /// Run totals of the fault telemetry (see [`EngineReport`]).
    detect_retries: u64,
    failed_frames: u64,
    backoff_total: u64,
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
    /// Reused per-stage scratch: the scheduler inputs/outputs.
    loads: Vec<QueryLoad>,
    allocation: Vec<usize>,
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
    /// Create an engine with cross-query coalescing enabled, a single shard,
    /// the [`RoundRobin`] scheduler, and no cross-stage cache.
    pub fn new() -> Self {
        QueryEngine {
            queries: Vec::new(),
            coalesce: true,
            scheduler: Box::new(RoundRobin),
            view: ShardView::new(ShardRouter::single()),
            lanes: Lanes::default(),
            slices: Vec::new(),
            execution: ExecutionMode::Serial,
            overlap: false,
            pool: None,
            pool_counters: Arc::new(PoolCounters::default()),
            pooled_dispatches: 0,
            cache: None,
            retry: RetryPolicy::none(),
            failure: FailureMode::FailFast,
            slot_failures: Vec::new(),
            quarantined: Vec::new(),
            detect_retries: 0,
            failed_frames: 0,
            backoff_total: 0,
            cache_total: CacheActivity::default(),
            detector_slots: Vec::new(),
            stages: 0,
            demanded_frames: 0,
            detector_frames: 0,
            detector_calls: 0,
            loads: Vec::new(),
            allocation: Vec::new(),
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

    /// Enable or disable cross-query frame coalescing (enabled by default).
    /// Disabling it never changes any query's outcome — only how much detector
    /// work is paid — which the determinism tests pin down.
    pub fn coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Replace the per-stage batch allocation policy (default:
    /// [`RoundRobin`], which reproduces the historical "one batch per live
    /// query per stage" rule exactly).
    pub fn scheduler(mut self, scheduler: Box<dyn StageScheduler + 'a>) -> Self {
        self.scheduler = scheduler;
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

    /// Choose how many lanes DETECT is cut over (default:
    /// [`ExecutionMode::Serial`], which is pick-for-pick the historical
    /// behaviour).  Parallel execution never changes any logical result —
    /// see [`ExecutionMode`] — only how many threads pay the detector bill.
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

    /// The engine's execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.execution
    }

    /// Plan each stage (SCHEDULE + PICK + ROUTE) while the *previous* stage's
    /// DETECT is in flight (off by default).
    ///
    /// The stage loop is `plan → launch → land → settle`, and this flag
    /// decides exactly one thing: where `plan(n + 1)` runs.  Off, it runs
    /// after `settle(n)`; on, it runs between `launch(n)` — which hands stage
    /// `n`'s slices to the pool helpers — and `land(n)`, which rejoins them,
    /// so under [`ExecutionMode::Parallel`] the coordinator picks while the
    /// helpers detect.  Runs without helpers (serial mode) and stages whose
    /// demand fits one slice have nothing in flight to overlap with but
    /// plan at the same point, which is what keeps overlapped runs
    /// bitwise-identical across thread counts.
    /// On a saturated or single-vCPU host the pool's reclaim pass takes the
    /// dispatched work back after the overlapped plan — the handoff stays
    /// two mutex operations and never regresses below serial execution.
    ///
    /// The semantic difference from a non-overlapped run: stage *n + 1* is
    /// planned *before* stage *n*'s fan-out, so stop conditions, budget
    /// clamps and quarantine checks see state that is one stage stale.  An
    /// overlapped run is therefore **not** pick-for-pick identical to a
    /// non-overlapped one — a query may overshoot its frame budget or result
    /// limit by up to one stage's batch before stopping (budgets stay exact
    /// in *accounting*, only the stop decision lags) — but it is fully
    /// deterministic: the determinism suite pins overlapped runs across the
    /// whole execution matrix and against a golden digest.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Whether stage-overlapped execution is enabled.
    pub fn overlap_enabled(&self) -> bool {
        self.overlap
    }

    /// Number of stages, across all of this engine's runs, that dispatched
    /// DETECT work to the persistent worker pool.  Serial stages and stages
    /// whose demand after the cache probe fits one slice — fully cache-warm
    /// ones above all — stay inline (no turnstile hand-off, no wake) and
    /// don't count; the runtime lifecycle tests use this to pin the
    /// warm-skip down.
    pub fn pooled_stage_dispatches(&self) -> u64 {
        self.pooled_dispatches
    }

    /// Pool helper threads of this engine currently alive.  Pools live only
    /// for the duration of a run (its `std::thread::scope` joins them), so
    /// between runs this is zero — the "no leaked threads" guarantee made
    /// observable.
    pub fn live_helper_threads(&self) -> usize {
        self.pool_counters.live()
    }

    /// Pool helper threads this engine has ever spawned: an `n`-way parallel
    /// run grows this by exactly `n - 1` — once per run, however many stages
    /// the run executes.
    pub fn spawned_helper_threads(&self) -> usize {
        self.pool_counters.spawned()
    }

    /// Enable the bounded cross-stage frame→detections cache with the given
    /// capacity (in frames), using the default lock-stripe count and
    /// admission policy.  Off by default: the cache never changes query
    /// outcomes (detectors are pure functions of the frame id), but warm hits
    /// bypass `detect_batch`, so the detector cost accounting of a cached run
    /// is not comparable to an uncached one.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use [`QueryEngine::cache_config`] for a
    /// non-panicking, fully-configurable variant).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(StripedDetectionCache::new(CacheConfig::new(capacity)));
        self
    }

    /// Enable the cross-stage cache from a full [`CacheConfig`] (capacity,
    /// lock-stripe count, admission policy).  Stripe count and admission
    /// policy never change *which* entries survive relative to the
    /// determinism contract — stripes affect contention only, and the
    /// admission gate is itself deterministic — but
    /// [`AdmissionPolicy::Frequency`](crate::AdmissionPolicy::Frequency)
    /// changes the admission decisions versus the default LRU, so its
    /// accounting is only comparable between runs sharing the policy.
    ///
    /// # Errors
    /// [`EngineError::InvalidCache`] if the capacity or stripe count is zero.
    pub fn cache_config(mut self, config: CacheConfig) -> Result<Self, EngineError> {
        if config.capacity == 0 || config.stripes == 0 {
            return Err(EngineError::InvalidCache {
                capacity: config.capacity,
                stripes: config.stripes,
            });
        }
        self.cache = Some(StripedDetectionCache::new(config));
        Ok(self)
    }

    /// Hit/miss/eviction/admission-reject counters of the cross-stage cache,
    /// if enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(StripedDetectionCache::stats)
    }

    /// Per-stripe counters of the cross-stage cache, if enabled (contention
    /// diagnostics; the aggregate view is [`QueryEngine::cache_stats`]).
    pub fn cache_stripe_stats(&self) -> Option<Vec<CacheStats>> {
        self.cache.as_ref().map(StripedDetectionCache::stripe_stats)
    }

    /// Set the retry policy for failed detect attempts (default:
    /// [`RetryPolicy::none`]).  With retries off, a fault-free run is
    /// pick-for-pick identical to the pre-fault-tolerance engine.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Choose what happens when a frame's detect attempts are exhausted
    /// (default: [`FailureMode::FailFast`]).
    pub fn failure_mode(mut self, failure: FailureMode) -> Self {
        self.failure = failure;
        self
    }

    /// The flattened fault-handling policy every slice of this engine carries.
    fn detect_policy(&self) -> DetectPolicy {
        DetectPolicy {
            max_attempts: self.retry.max_attempts,
            backoff_cost: self.retry.backoff_cost,
            fail_fast: matches!(self.failure, FailureMode::FailFast),
        }
    }

    /// Number of shards [`QueryEngine::report_sharded`] groups tallies into.
    pub fn shard_count(&self) -> usize {
        self.view.router().shard_count()
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
            dropped_frames: 0,
        });
        Ok(self.queries.len() - 1)
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Total frames demanded by queries so far (uncoalesced detector work).
    pub fn demanded_frames(&self) -> u64 {
        self.demanded_frames
    }

    /// Total frames run through detectors so far (after coalescing).
    pub fn detector_frames(&self) -> u64 {
        self.detector_frames
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

    /// SCHEDULE + PICK + group stage `number` into `stage`, without touching
    /// the lanes or the slices (which may be mid-DETECT on pool helpers).
    ///
    /// Runs against the engine state as of the last settled stage — under
    /// [`QueryEngine::overlap`] that is one stage stale (the in-flight
    /// stage's results are not folded in yet), which is exactly the
    /// documented semantic difference of overlapped runs.  Returns `false`
    /// when no query picked: the run ends once the in-flight stage settles.
    fn plan(&mut self, stage: &mut Stage<'a>, number: u64) -> bool {
        stage.detectors.clear();
        stage.slots.clear();
        stage.membership.clear();
        stage.active = 0;
        stage.demanded = 0;
        let queries = self.queries.len();
        if stage.picks.len() < queries {
            stage.picks.resize_with(queries, Vec::new);
        }

        // Stop checks and SCHEDULE.  A quarantined detector stops its
        // queries here, at the stage boundary after the quarantine decision
        // — deterministically, regardless of threading.
        self.loads.clear();
        for q in &mut self.queries {
            let quarantined = !self.quarantined.is_empty()
                && self
                    .detector_slots
                    .iter()
                    .position(|&d| std::ptr::eq(d, q.detector))
                    .is_some_and(|slot| self.quarantined.get(slot).copied().unwrap_or(false));
            let live = if q.stop.is_some() {
                false
            } else if let Some(reason) = q.stop_condition() {
                q.stop = Some(reason);
                false
            } else if quarantined {
                q.stop = Some(StopReason::DetectorQuarantined);
                false
            } else {
                true
            };
            self.loads.push(QueryLoad {
                live,
                batch: q.batch,
                budget_left: q.frame_budget.map(|b| b - q.frames_processed.min(b)),
            });
        }
        // Cleared defensively so a scheduler that appends without clearing
        // (against the trait contract) cannot replay last stage's quotas.
        self.allocation.clear();
        self.scheduler
            .allocate(number, &self.loads, &mut self.allocation);

        // PICK.  The engine clamps every live allocation to
        // `1..=budget_left` so no scheduler can livelock a run or overrun a
        // budget.
        for (i, q) in self.queries.iter_mut().enumerate() {
            let picks = &mut stage.picks[i];
            picks.clear();
            let load = self.loads[i];
            if !load.live {
                continue;
            }
            let granted = self.allocation.get(i).copied().unwrap_or(load.batch).max(1);
            let want = (granted as u64).min(load.budget_left.unwrap_or(u64::MAX)) as usize;
            q.policy.next_batch_into(q.rng.as_mut(), want, picks);
            if picks.is_empty() {
                q.stop = Some(StopReason::RepositoryExhausted);
                continue;
            }
            stage.active += 1;
            stage.demanded += picks.len() as u64;
        }
        if stage.active == 0 {
            return false;
        }

        // Logical grouping: one group per distinct detector among the picking
        // queries (per picking query when coalescing is off).
        for (q, picks) in self.queries.iter().zip(&stage.picks) {
            if picks.is_empty() {
                stage.membership.push(usize::MAX);
                continue;
            }
            let group = if self.coalesce {
                stage
                    .detectors
                    .iter()
                    .position(|&d| std::ptr::eq(d, q.detector))
            } else {
                None
            };
            let group = group.unwrap_or_else(|| {
                stage.detectors.push(q.detector);
                stage
                    .slots
                    .push(Self::detector_slot(&mut self.detector_slots, q.detector));
                stage.detectors.len() - 1
            });
            stage.membership.push(group);
        }

        // The group frame lists, cleared.
        let groups = stage.detectors.len();
        if stage.frames.len() < groups {
            stage.frames.resize_with(groups, Vec::new);
        }
        for frames in &mut stage.frames {
            frames.clear();
        }

        // Fast path for stages with a single picking query (the whole run,
        // for a single-query engine — e.g. the per-frame sim runner at batch
        // 1): no coalescing, no result map — DETECT is one batched call over
        // the pick buffer and fan-out consumes the detections straight out
        // of it in pick order.  It is the one measured fork of the stage loop
        // (forcing it off costs the benchmark's `fig5_sweep` 2–7 %
        // wall-clock, see CHANGES.md PR 13), selected from what the run and
        // the stage look like, never by a setting.  It is only taken under
        // the bounds-free unsharded router, and it skips the probe and the
        // gather, so it cannot honour a cache or cut the batch over the lanes
        // of a run that has helpers.
        let router = self.view.router();
        stage.direct = stage.active == 1
            && router.shard_count() == 1
            && self.cache.is_none()
            && self.pool.is_none()
            && !router.checks_bounds();
        if stage.direct {
            return true;
        }

        // Lay every group's picks out in (query, pick) arrival order.
        for (picks, &group) in stage.picks.iter().zip(&stage.membership) {
            if group != usize::MAX {
                stage.frames[group].extend_from_slice(picks);
            }
        }
        true
    }

    /// Load a planned stage into the lanes, probe the cache, gather the misses
    /// into one slice per lane and, when the run has pool helpers, hand them
    /// theirs.  Returns the in-flight handle [`QueryEngine::land`]
    /// joins.
    ///
    /// The probe runs here, on the coordinator, because the gather needs its
    /// result — and what it leaves decides the dispatch: a stage answered
    /// entirely from the cache gathers no slice at all, and one whose demand
    /// fits a single slice has nothing to hand a helper, so neither pays a
    /// turnstile hand-off or a wake.  No lane is ever handed an empty slice.
    fn launch(&mut self, stage: &mut Stage<'a>) -> Option<StageDispatch> {
        let groups = stage.detectors.len();
        self.lanes.begin_stage(groups);
        for (group, frames) in stage.frames[..groups].iter_mut().enumerate() {
            self.lanes.adopt_frames(group, frames);
        }
        if stage.direct {
            return None;
        }
        self.lanes.probe(
            &stage.slots,
            self.coalesce,
            self.cache.as_ref(),
            &mut self.view,
        );
        // Uncoalesced, uncached groups may carry the same (detector, frame)
        // twice.  A detector that counts its attempts per frame (fault
        // injection does) must see them in group order whatever the lane
        // count, so such a stage is not cut.  (With the cache on, the probe
        // has already joined the duplicates to one detection.)
        let repeats_detector = !self.coalesce
            && self.cache.is_none()
            && (1..groups).any(|g| stage.slots[..g].contains(&stage.slots[g]));
        let spans = match &self.pool {
            Some(pool) if !repeats_detector => pool.lanes(),
            _ => 1,
        };
        shard::gather_slices(
            &self.lanes,
            &stage.detectors,
            spans,
            self.detect_policy(),
            &mut self.slices,
        );
        let pool = self.pool.as_mut()?;
        if self.slices.is_empty() {
            return None;
        }
        if self.slices.len() > 1 {
            self.pooled_dispatches += 1;
        }
        Some(pool.dispatch_stage(&mut self.slices))
    }

    /// Complete a launched stage's DETECT: run the slices — through the pool
    /// when the run has one, which runs the coordinator's slice under the
    /// same panic containment as the helpers' and rejoins them — and scatter
    /// the outcomes to the lanes.
    ///
    /// # Errors
    /// Returns [`EngineError::WorkerPanicked`] if a lane's detect pass
    /// panicked under [`ExecutionMode::Parallel`]; the stage is abandoned
    /// before its scatter, commit and fan-out.
    fn land(
        &mut self,
        stage: &mut Stage<'a>,
        flight: Option<StageDispatch>,
    ) -> Result<(), EngineError> {
        if stage.direct {
            let policy = self.detect_policy();
            let index = stage
                .membership
                .iter()
                .position(|&group| group != usize::MAX)
                .expect("one query picked this stage");
            // A failed batch probe recovers the picks frame by frame into
            // lane 0: fan out through the lane.
            stage.direct = self.lanes.detect_direct(
                &mut self.view,
                stage.detectors[0],
                stage.slots[0],
                &stage.picks[index],
                self.coalesce,
                policy,
            );
            return Ok(());
        }
        match flight {
            // The reclaim pass inside `join_stage` runs *after* whatever the
            // coordinator did since `launch`: on a saturated host it takes
            // the queued slices back here and pays two mutex operations.
            Some(dispatch) => {
                let pool = self.pool.as_mut().expect("only a live pool dispatches");
                pool.join_stage(&mut self.slices, dispatch)?;
            }
            None => self.slices.iter_mut().for_each(Slice::run),
        }
        shard::scatter_slices(
            &mut self.lanes,
            &mut self.view,
            &stage.slots,
            self.cache.is_some(),
            &mut self.slices,
        );
        Ok(())
    }

    /// Fold a landed stage into the engine: fail-fast scan, cache commit,
    /// tallies, FAN-OUT, quarantine, stats, sink flush, run counters — the
    /// serial half of every stage, identical in every execution
    /// configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::DetectorFailed`] if a detector exhausted a
    /// frame's attempts under [`FailureMode::FailFast`] (the stage is
    /// abandoned before its cache commit and fan-out, so no result of the
    /// doomed stage is ever published), and
    /// [`EngineError::CheckpointFailed`] if the stage sink refused the
    /// stage.  Reports and cost accounting are unspecified after either.
    fn settle(&mut self, stage: &Stage<'a>) -> Result<StageStats, EngineError> {
        // Fail-fast scan: under `FailureMode::FailFast` the scatter stopped at
        // the stage's first exhausted frame (in canonical order) and parked
        // it on the lanes; it aborts the stage *before* the cache commit.
        if let Some(failure) = self.lanes.fatal.take() {
            let class = self.detector_slots[failure.slot as usize]
                .class()
                .to_string();
            return Err(EngineError::DetectorFailed {
                class,
                frame: failure.frame,
                attempts: failure.attempts,
                source: failure.error,
            });
        }

        // Serial cache commit under one transaction, canonical (slot, frame)
        // order: first every touch (the hits), then every insert (the fresh
        // results).  The order is a pure function of the frames probed and
        // detected this stage, so the LRU's eviction sequence is identical no
        // matter how many lanes detected.
        if let Some(cache) = self.cache.as_ref() {
            self.lanes.commit(&stage.slots, cache, &mut self.view);
        }

        // Logical calls are counted once per group that needed any
        // detection, regardless of how many lanes its frames were cut
        // across; the physical ones are in the stage's batch statistics.
        let detector_frames = self.lanes.detected_frames();
        let detector_calls = self.lanes.detected.iter().filter(|&&n| n > 0).count() as u64;

        // Logical per-detector failure counts, charged to each group's
        // registry slot so quarantine decisions see the run-cumulative view.
        let mut stage_failed = 0u64;
        for (g, &failures) in self.lanes.failed.iter().enumerate() {
            if failures > 0 {
                stage_failed += failures;
                let slot = stage.slots[g] as usize;
                if self.slot_failures.len() <= slot {
                    self.slot_failures.resize(slot + 1, 0);
                }
                self.slot_failures[slot] += failures;
            }
        }

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
            if stage.direct {
                for (&frame, detections) in stage.picks[i].iter().zip(self.lanes.direct.drain(..)) {
                    let new_hits =
                        Self::observe_frame(q, i, frame, &detections, collect, &mut observations);
                    self.view.observed(i, frame, new_hits);
                }
                continue;
            }
            for &frame in &stage.picks[i] {
                // A pick with no result was dropped by the failure policy
                // (every terminal failure under `FailFast` aborted the stage
                // above): the query simply never observes the frame, and the
                // degradation is tallied instead.
                match self.lanes.result(group, frame) {
                    Some(detections) => {
                        let new_hits = Self::observe_frame(
                            q,
                            i,
                            frame,
                            detections,
                            collect,
                            &mut observations,
                        );
                        self.view.observed(i, frame, new_hits);
                    }
                    None => {
                        q.dropped_frames += 1;
                        self.view.dropped(i, frame);
                    }
                }
            }
        }
        self.apply_quarantine();

        let stats = StageStats {
            stage: self.stages,
            active_queries: stage.active,
            demanded_frames: stage.demanded,
            detector_frames,
            detector_calls,
            retries: self.lanes.retries,
            failed_frames: stage_failed,
            backoff_cost: self.lanes.backoff,
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
        self.detect_retries += stats.retries;
        self.failed_frames += stage_failed;
        self.backoff_total += stats.backoff_cost;
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

    /// Quarantine every detector whose cumulative failed-frame count exceeds
    /// the threshold (no-op in the other failure modes).  Decided at the
    /// stage boundary from the logical per-detector failure counts, so the
    /// decision is identical across thread counts.
    fn apply_quarantine(&mut self) {
        let FailureMode::Quarantine { failure_threshold } = self.failure else {
            return;
        };
        for (slot, &failures) in self.slot_failures.iter().enumerate() {
            if failures > failure_threshold {
                if self.quarantined.len() <= slot {
                    self.quarantined.resize(slot + 1, false);
                }
                self.quarantined[slot] = true;
            }
        }
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
    /// more detection work than one slice wakes them over their turnstiles
    /// instead of spawning fresh threads.  The pool is dropped — and with it every helper's
    /// shutdown signal sent — before the scope closes on *every* path out of
    /// the loop (completion, a stage error, even a panicking `on_stage`
    /// hook), and the scope then joins the helpers, so a run can neither leak
    /// nor deadlock its threads.
    ///
    /// # Errors
    /// Returns [`EngineError::NoQueries`] if no query was registered,
    /// [`EngineError::WorkerPanicked`] if a pooled worker lane's detector
    /// panicked, [`EngineError::DetectorFailed`] if a detector exhausted a
    /// frame's attempts under [`FailureMode::FailFast`], and
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
                self.pool = Some(WorkerPool::spawn(scope, threads - 1, &self.pool_counters));
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

    /// The stage loop: `plan → launch → land → settle` per stage, over two
    /// ping-ponged [`Stage`] buffers, until a plan finds no query picking.
    ///
    /// [`QueryEngine::overlap`] is nothing but the position of `plan(n + 1)`:
    /// after `settle(n)` by default, between `launch(n)` and `land(n)` when
    /// overlapped — there it runs while stage `n`'s DETECT is in flight on
    /// the pool helpers, and sees state one stage stale.
    fn drive<F: FnMut(&StageStats)>(
        &mut self,
        on_stage: &mut F,
    ) -> Result<EngineReport, EngineError> {
        let mut current = Stage::default();
        let mut next = Stage::default();
        let mut more = self.plan(&mut next, self.stages);
        while more {
            // `next` becomes the executing stage; the old `current`'s
            // buffers are recycled for planning the one after.
            std::mem::swap(&mut current, &mut next);
            let flight = self.launch(&mut current);
            if self.overlap {
                more = self.plan(&mut next, self.stages + 1);
            }
            self.land(&mut current, flight)?;
            let stats = self.settle(&current)?;
            on_stage(&stats);
            if !self.overlap {
                more = self.plan(&mut next, self.stages);
            }
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
    pub fn report(&self) -> EngineReport {
        EngineReport {
            outcomes: self.queries.iter().map(QueryState::report).collect(),
            stages: self.stages,
            demanded_frames: self.demanded_frames,
            detector_frames: self.detector_frames,
            detector_calls: self.detector_calls,
            detect_retries: self.detect_retries,
            failed_frames: self.failed_frames,
            backoff_cost: self.backoff_total,
            cache: self.cache_total,
            quarantined_detectors: self
                .quarantined
                .iter()
                .enumerate()
                .filter(|&(_, &quarantined)| quarantined)
                .map(|(slot, _)| self.detector_slots[slot].class().to_string())
                .collect(),
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
    use crate::scheduler::BudgetProportional;
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
        let mut engine = QueryEngine::new();
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
        assert_eq!(q.frames_processed, 100);
        assert_eq!(q.stop_reason, Some(StopReason::FrameBudgetExhausted));
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
        let run = |coalesce: bool| {
            let mut engine = QueryEngine::new().coalesce(coalesce);
            for (i, seed) in [11u64, 11, 13].iter().enumerate() {
                engine
                    .push(
                        QuerySpec::new(
                            format!("q{i}"),
                            Box::new(FrameSamplerPolicy::uniform(512)),
                            &detector,
                        )
                        .seed(*seed)
                        .batch(64),
                    )
                    .unwrap();
            }
            engine.run().unwrap()
        };
        let coalesced = run(true);
        let uncoalesced = run(false);
        // Queries 0 and 1 share a seed, so their per-stage picks are identical
        // and coalescing halves that part of the detector bill.
        assert!(coalesced.detector_frames < coalesced.demanded_frames);
        assert_eq!(uncoalesced.detector_frames, uncoalesced.demanded_frames);
        assert_eq!(coalesced.demanded_frames, uncoalesced.demanded_frames);
        assert!(coalesced.coalesced_savings() > 0);
        // Outcomes are bit-identical either way.
        for (a, b) in coalesced.outcomes.iter().zip(&uncoalesced.outcomes) {
            assert_eq!(a.frames_processed, b.frames_processed);
            assert_eq!(a.found_instances, b.found_instances);
            assert_eq!(a.trajectory, b.trajectory);
            assert_eq!(a.stop_reason, b.stop_reason);
        }
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
        // The long query keeps running after the short one stops.
        assert!(report.stages >= 16);
    }

    #[test]
    fn budget_proportional_scheduler_keeps_budgets_exact() {
        let (chunking, _truth, detector) = setup(40_000, 8);
        let run = |scheduler: Box<dyn StageScheduler>| {
            let mut engine = QueryEngine::new().scheduler(scheduler);
            for (label, budget) in [("heavy", 900u64), ("light", 60)] {
                let policy = ExSamplePolicy::new(ExSampleConfig::default(), &chunking);
                engine
                    .push(
                        QuerySpec::new(label, Box::new(policy), &detector)
                            .seed(23)
                            .batch(16)
                            .frame_budget(budget),
                    )
                    .unwrap();
            }
            engine.run().unwrap()
        };
        let proportional = run(Box::new(BudgetProportional));
        // Budgets are consumed exactly regardless of the allocation policy.
        assert_eq!(proportional.outcomes[0].frames_processed, 900);
        assert_eq!(proportional.outcomes[1].frames_processed, 60);
        // The heavy query dominated stage bandwidth, so the run needs fewer
        // stages than round-robin's max(900/16, 60/16) → 57.
        let round_robin = run(Box::new(RoundRobin));
        assert!(
            proportional.stages < round_robin.stages,
            "proportional {} vs round-robin {}",
            proportional.stages,
            round_robin.stages
        );
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
        // for — whatever the shard count.
        let engine = QueryEngine::new()
            .execution(ExecutionMode::Parallel(64))
            .unwrap();
        assert_eq!(engine.execution_mode(), ExecutionMode::Parallel(64));
        assert_eq!(engine.execution_mode().effective_threads(), 64);
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
    fn uncoalesced_same_detector_lanes_share_through_the_cache_within_a_stage() {
        // With coalescing off, two queries sharing a detector get separate
        // lanes — but with the cache enabled, a (detector, frame) pair must
        // still be detected at most once per shard per stage, in serial and
        // parallel mode alike.  The dedupe now happens at *probe* time: a
        // later same-detector lane joins the earlier lane's probe outcome
        // (sharing its hit or riding its miss) instead of probing again, so
        // the cache tallies each (detector, frame) once per stage too —
        // historically both lanes probed before either detected and the
        // second lane's miss double-counted.
        let (_chunking, truth, _detector) = setup(256, 4);
        let detector = CountingDetector {
            inner: PerfectDetector::new(truth, ObjectClass::from("car")),
            batch_calls: AtomicU64::new(0),
        };
        let run = |mode: ExecutionMode| {
            let mut engine = QueryEngine::new()
                .coalesce(false)
                .execution(mode)
                .unwrap()
                .cache_capacity(1_024);
            // Same seed: the two queries pick identical frames every stage.
            for label in ["twin-a", "twin-b"] {
                engine
                    .push(
                        QuerySpec::new(
                            label,
                            Box::new(FrameSamplerPolicy::uniform(256)),
                            &detector,
                        )
                        .seed(47)
                        .batch(32),
                    )
                    .unwrap();
            }
            let report = engine.run().unwrap();
            let stats = engine.cache_stats().expect("cache enabled");
            (report, stats)
        };
        let (serial, serial_stats) = run(ExecutionMode::Serial);
        assert_eq!(serial.demanded_frames, 512);
        assert_eq!(
            serial.detector_frames, 256,
            "every frame must be detected exactly once despite coalescing off"
        );
        // Probe-time dedupe: the twin lane joins the first lane's probe, so
        // the cache sees each (detector, frame) exactly once — no
        // double-counted misses, and the joined lookups are not fake hits.
        assert_eq!(serial_stats.misses, 256, "one tallied miss per frame");
        assert_eq!(serial_stats.hits, serial.cache.hits);
        assert_eq!(serial.cache.misses, 256);
        let serial_calls = detector.batch_calls.load(Ordering::Relaxed);
        assert_eq!(serial_calls, serial.stages, "one lane per stage detects");
        let (parallel, parallel_stats) = run(ExecutionMode::Parallel(2));
        assert_eq!(parallel.detector_frames, serial.detector_frames);
        assert_eq!(parallel_stats, serial_stats, "cache accounting");
        assert_eq!(
            detector.batch_calls.load(Ordering::Relaxed),
            serial_calls * 3,
            "the parallel run cuts each stage's one batch over its two lanes"
        );
        for (a, b) in parallel.outcomes.iter().zip(&serial.outcomes) {
            assert_eq!(a.found_instances, b.found_instances);
            assert_eq!(a.trajectory, b.trajectory);
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
        let cold_frames = engine.detector_frames();
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
        assert_eq!(engine.detector_frames(), cold_frames);
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
}
