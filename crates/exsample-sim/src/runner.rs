//! End-to-end query execution.
//!
//! [`QueryRunner`] configures one distinct-object query over a [`Dataset`] and runs
//! it with a built-in method ([`QueryRunner::run`]) or any
//! [`SamplingPolicy`] ([`QueryRunner::run_policy`]), producing a
//! [`RunResult`] with the full recall trajectory and virtual time accounting.
//! This is the harness every experiment binary and integration test is built
//! on, and the one way to run a single query.
//!
//! Execution is delegated to `exsample-engine`: the runner translates its stop
//! condition into engine limits and runs the policy on a single-query engine
//! at batch size 1 — the configuration that consumes the RNG stream exactly
//! as the paper's pick→detect→record loop does.  The virtual clock is
//! charged from the engine's per-stage cost-accounting hook.  With
//! [`QueryRunner::parallel`] each stage's detector invocations are cut over
//! the engine's persistent worker pool (spawned once per run, reused by
//! every stage); results are bitwise-identical to the serial run — parallelism
//! only changes where the detector work executes.
//!
//! Configuration and execution errors surface as typed [`SimError`]s instead
//! of panics.

use crate::checkpoint::{CheckpointSink, SharedStore, StoreErrorCell};
use crate::clock::VirtualClock;
use crate::error::SimError;
use exsample_baselines::{ProxyBaseline, ProxyConfig, SequentialScan};
use exsample_core::{ExSample, ExSampleConfig};
use exsample_data::Dataset;
use exsample_detect::{
    Detector, DetectorNoise, FaultInjectingDetector, FaultPlan, InstanceId, ObjectClass,
    PerfectDetector, SimulatedDetector,
};
use exsample_engine::{
    CacheActivity, ExSamplePolicy, ExecutionMode, FailureMode, FrameSamplerPolicy, QueryEngine,
    QuerySpec, RetryPolicy, SamplingPolicy, SelectionTelemetry,
};
use exsample_rand::SeedSequence;
use exsample_store::{BeliefStore, StoreHealth};
use exsample_track::{Discriminator, OracleDiscriminator, TrackingDiscriminator};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// When to stop a query run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Stop after this many distinct results (the paper's limit queries, e.g.
    /// "find 20 traffic lights").
    DistinctResults(usize),
    /// Stop after finding this fraction of all ground-truth instances of the query
    /// class (the recall levels 0.1 / 0.5 / 0.9 of the evaluation).
    Recall(f64),
    /// Stop after processing this many frames through the detector.
    FrameBudget(u64),
    /// Run until the sampling method exhausts the repository.
    Exhaustive,
}

/// Which discriminator the runner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscriminatorKind {
    /// Match detections by ground-truth instance id (controlled simulations).
    Oracle,
    /// The paper-faithful IoU-against-track-positions discriminator.
    Tracking,
}

/// Convenience selector for the built-in sampling methods.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodKind {
    /// ExSample with the given configuration.
    ExSample(ExSampleConfig),
    /// Uniform random sampling without replacement.
    Random,
    /// `random+` hierarchical sampling.
    RandomPlus,
    /// Sequential scan with the given stride.
    Sequential {
        /// Visit one frame out of every `stride`.
        stride: u64,
    },
    /// BlazeIt-style proxy ordering with the given configuration.
    Proxy(ProxyConfig),
}

pub use exsample_engine::TrajectoryPoint;

/// The result of one query run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Name of the sampling method ("exsample", "random", …).
    pub method: String,
    /// Frames processed through the object detector.
    pub frames_processed: u64,
    /// Frames the method had to scan before producing its first pick (proxy only).
    pub upfront_scan_frames: u64,
    /// Distinct objects reported by the discriminator (may include objects created
    /// from false-positive detections).
    pub distinct_found: usize,
    /// Distinct ground-truth instances found.
    pub true_found: usize,
    /// Total ground-truth instances of the query class in the dataset.
    pub total_instances: usize,
    /// The ground-truth instances found.
    pub found_instances: Vec<InstanceId>,
    /// Recall trajectory: one point per newly found ground-truth instance.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Virtual seconds spent scanning (upfront) at the cost model's scan rate.
    pub scan_secs: f64,
    /// Virtual seconds spent on sampled processing (decode + detector),
    /// including any deterministic retry backoff charged as frame-equivalent
    /// cost.
    pub sample_secs: f64,
    /// Detect attempts retried after transient failures (degraded runs only).
    pub detect_retries: u64,
    /// Picked frames whose detection failed terminally (degraded runs only).
    pub failed_frames: u64,
    /// Picked frames the query never observed because the failure mode
    /// dropped them (degraded runs only).
    pub dropped_frames: u64,
    /// Chunk-selection telemetry (ExSample runs only): how many picks went
    /// through the belief-class fold versus per-chunk draws, and how many
    /// Gamma draws the deduplication saved.
    pub selection: Option<SelectionTelemetry>,
    /// Detections-cache telemetry (`Some` only when [`QueryRunner::cache`]
    /// enabled the cache): hits, misses and evictions accumulated over the
    /// run.
    pub cache: Option<CacheActivity>,
    /// Durable-store health counters (`Some` only when
    /// [`QueryRunner::checkpoint`] enabled checkpointing): records replayed
    /// and torn bytes discarded during recovery, and the run's sealed
    /// stages, fsynced group writes, snapshot compactions and storage
    /// retries.
    pub store: Option<StoreHealth>,
}

impl RunResult {
    /// Recall achieved: found ground-truth instances over total instances.
    pub fn recall(&self) -> f64 {
        if self.total_instances == 0 {
            0.0
        } else {
            self.true_found as f64 / self.total_instances as f64
        }
    }

    /// Frames processed when the `count`-th ground-truth instance was found, or
    /// `None` if the run never found that many.
    pub fn frames_to_count(&self, count: usize) -> Option<u64> {
        if count == 0 {
            return Some(0);
        }
        self.trajectory
            .iter()
            .find(|p| p.found >= count)
            .map(|p| p.frames)
    }

    /// Frames processed to reach a recall level, or `None` if never reached.
    pub fn frames_to_recall(&self, recall: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&recall));
        let needed = (recall * self.total_instances as f64).ceil() as usize;
        self.frames_to_count(needed)
    }

    /// Total virtual seconds of the whole run (scan + sampled processing).
    pub fn total_secs(&self) -> f64 {
        self.scan_secs + self.sample_secs
    }
}

/// Builder/executor for one query run.
#[derive(Debug, Clone)]
pub struct QueryRunner<'a> {
    dataset: &'a Dataset,
    /// The query class; resolved to the dataset's first class at run time if
    /// unset ([`SimError::NoClasses`] if the dataset has none).
    class: Option<ObjectClass>,
    stop: StopCondition,
    seed: u64,
    frame_cap: Option<u64>,
    detector_noise: Option<DetectorNoise>,
    discriminator: DiscriminatorKind,
    /// `None` = serial execution (never requested); `Some(n)` is validated by
    /// the engine at run time (`Some(0)` is the typed
    /// `EngineError::InvalidExecution`).
    parallel: Option<usize>,
    retry: RetryPolicy,
    failure: FailureMode,
    fault: Option<FaultPlan>,
    /// Capacity of the engine's detections cache (0 = off, the
    /// default).
    cache: usize,
    /// Directory of the durable belief store every committed stage is
    /// persisted to (`None` = no checkpointing, the default).
    checkpoint: Option<PathBuf>,
    /// Directory of a recovered belief store to seed an ExSample run's
    /// posterior from (`None` = cold start, the default).
    warm_start: Option<PathBuf>,
}

impl<'a> QueryRunner<'a> {
    /// Create a runner for `dataset`, querying its first class, stopping when the
    /// repository is exhausted, with a perfect detector and the oracle
    /// discriminator.
    pub fn new(dataset: &'a Dataset) -> Self {
        QueryRunner {
            dataset,
            class: None,
            stop: StopCondition::Exhaustive,
            seed: 0,
            frame_cap: None,
            detector_noise: None,
            discriminator: DiscriminatorKind::Oracle,
            parallel: None,
            retry: RetryPolicy::none(),
            failure: FailureMode::default(),
            fault: None,
            cache: 0,
            checkpoint: None,
            warm_start: None,
        }
    }

    /// Persist every committed stage's belief deltas and newly found results
    /// to a crash-safe [`BeliefStore`] in `path` (created/recovered on run
    /// start; a torn tail from a killed run is truncated and the surviving
    /// log replayed).  Stages reach the disk 64 to a group write, so a
    /// *killed* run recovers a stage prefix at most 63 stages short of where
    /// it died — never a partial stage.  A run that *returns* loses nothing
    /// unless the store itself failed: on success the store is compacted
    /// into a snapshot, on a typed engine failure (fail-fast detector error,
    /// worker panic) the open group is flushed first.  Health counters land
    /// in [`RunResult::store`].
    ///
    /// Checkpointing is a pure observer: outcomes, picks and the virtual
    /// clock are bitwise-identical to the uncheckpointed run.  A storage
    /// failure mid-run aborts the run with the concrete
    /// [`SimError::Store`] error.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Seed an ExSample run's per-chunk posterior from the belief store in
    /// `path` (recovered exactly as [`QueryRunner::checkpoint`] would) before
    /// sampling starts, instead of starting from the prior.
    ///
    /// Only the belief is seeded — the frame pool is untouched, so the warm
    /// run may re-pick frames a previous run already saw; what it skips is
    /// the exploration those earlier samples paid for.  Read only by
    /// [`QueryRunner::run`] with [`MethodKind::ExSample`] (the baselines keep
    /// no per-chunk posterior, and a policy given to
    /// [`QueryRunner::run_policy`] is already built).  A store with no
    /// record of the query class warm-starts to the prior (a cold start).
    pub fn warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Query a specific object class.
    pub fn class(mut self, class: impl Into<ObjectClass>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Cut each stage's detector invocations over this many lanes — the
    /// calling thread plus the engine's persistent worker-pool threads.
    /// Results are bitwise-identical to serial
    /// execution for any thread count.  A value of 1 means serial
    /// execution (the default when this method is never called); a value of
    /// 0 asks for a worker pool with no threads and surfaces the engine's
    /// typed `EngineError::InvalidExecution` (wrapped in
    /// [`SimError::Engine`]) when the run starts.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.parallel = Some(threads);
        self
    }

    /// Enable the engine's detections cache with this capacity
    /// (entries; 0 — the default — leaves the cache off).  Cached results
    /// are shared across stages; accounting is bitwise-deterministic across
    /// thread counts, and the run's telemetry lands in
    /// [`RunResult::cache`].
    pub fn cache(mut self, capacity: usize) -> Self {
        self.cache = capacity;
        self
    }

    /// Retry frames whose detect attempt failed transiently, per `retry`.
    ///
    /// Off by default ([`RetryPolicy::none`]); retry backoff is charged to
    /// the virtual clock as frame-equivalent sampled cost, so degraded runs
    /// stay bitwise-reproducible (no wall-clock sleeping).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// What the engine does when a frame's detect attempts are exhausted
    /// (fail fast by default; see [`FailureMode`]).
    pub fn failure_mode(mut self, failure: FailureMode) -> Self {
        self.failure = failure;
        self
    }

    /// Wrap the run's detector in a deterministic fault injector driven by
    /// `plan` (see [`FaultPlan`]) — the harness for experimenting with
    /// degraded runs.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Set the stop condition.
    pub fn stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Set the RNG seed for the run (sampling decisions and detector noise).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a hard cap on detector invocations regardless of the stop condition.
    pub fn frame_cap(mut self, cap: u64) -> Self {
        self.frame_cap = Some(cap);
        self
    }

    /// Use a noisy simulated detector instead of the perfect one.
    pub fn detector_noise(mut self, noise: DetectorNoise) -> Self {
        self.detector_noise = Some(noise);
        self
    }

    /// Choose the discriminator implementation.
    pub fn discriminator(mut self, kind: DiscriminatorKind) -> Self {
        self.discriminator = kind;
        self
    }

    /// The class this run queries: the explicitly chosen one, or the
    /// dataset's first class.
    ///
    /// # Errors
    /// Returns [`SimError::NoClasses`] if neither exists.
    fn query_class(&self) -> Result<ObjectClass, SimError> {
        match &self.class {
            Some(class) => Ok(class.clone()),
            None => self
                .dataset
                .classes()
                .into_iter()
                .next()
                .ok_or(SimError::NoClasses),
        }
    }

    /// Run one of the built-in methods.
    ///
    /// ExSample starts from a fresh sampler over the dataset's chunking; with
    /// [`QueryRunner::warm_start`] set, its posterior is seeded from the
    /// recovered store first.
    ///
    /// # Errors
    /// Returns a [`SimError`] if the run is misconfigured: no query class,
    /// [`SimError::ZeroStride`] for a sequential scan with stride 0, a
    /// warm-start store that cannot be recovered ([`SimError::Store`]), or an
    /// engine configuration the engine rejects.
    pub fn run(self, kind: MethodKind) -> Result<RunResult, SimError> {
        let total = self.dataset.total_frames();
        let policy: Box<dyn SamplingPolicy> = match kind {
            MethodKind::ExSample(config) => {
                let mut sampler = ExSample::new(config, &self.dataset.chunk_lengths());
                if let Some(path) = &self.warm_start {
                    let class = self.query_class()?;
                    let (store, _) = BeliefStore::open_dir(path)?;
                    // A store that never saw this class seeds nothing: the
                    // warm start degenerates to a cold one instead of
                    // erroring, so a first run and a resumed run share one
                    // code path.
                    if let Some(class_id) = store.state().class_id(class.name()) {
                        for (chunk, cell) in store.state().beliefs_for(class_id) {
                            if (chunk as usize) < sampler.chunk_count() {
                                sampler.apply_prior(chunk as usize, cell.n1, cell.samples);
                            }
                        }
                    }
                }
                Box::new(ExSamplePolicy::from_sampler(
                    sampler,
                    self.dataset.chunking(),
                )?)
            }
            MethodKind::Random => Box::new(FrameSamplerPolicy::uniform(total)),
            MethodKind::RandomPlus => Box::new(FrameSamplerPolicy::random_plus(total)),
            MethodKind::Sequential { stride: 0 } => return Err(SimError::ZeroStride),
            MethodKind::Sequential { stride } => {
                Box::new(SequentialScan::with_stride(total, stride))
            }
            MethodKind::Proxy(config) => {
                let class = self.query_class()?;
                Box::new(ProxyBaseline::new(
                    self.dataset.ground_truth(),
                    &class,
                    config,
                ))
            }
        };
        self.run_policy(policy)
    }

    /// Run any sampling policy on a single-query engine at batch size 1.
    ///
    /// The result's method name and upfront scan cost are the policy's own
    /// ([`SamplingPolicy::name`], [`SamplingPolicy::upfront_scan_frames`]).
    /// [`QueryRunner::warm_start`] is not applied: a pre-built policy carries
    /// its own state.
    ///
    /// # Errors
    /// Returns a [`SimError`] if the run is misconfigured.
    pub fn run_policy(self, policy: Box<dyn SamplingPolicy + '_>) -> Result<RunResult, SimError> {
        let name = policy.name().to_string();
        let upfront_scan_frames = policy.upfront_scan_frames();
        let seeds = SeedSequence::new(self.seed).derive("query-runner");
        let class = self.query_class()?;

        let truth = Arc::clone(self.dataset.ground_truth());
        let total_instances = truth.count_of_class(&class);

        // Detector.
        let detector: Box<dyn Detector> = match self.detector_noise {
            None => Box::new(PerfectDetector::new(Arc::clone(&truth), class.clone())),
            Some(noise) => Box::new(SimulatedDetector::new(
                Arc::clone(&truth),
                class.clone(),
                noise,
                seeds.derive("detector").seed(),
            )),
        };
        // Optional deterministic fault injection wraps whichever detector the
        // run uses; the plan's seed keeps degraded runs reproducible.
        let detector: Box<dyn Detector> = match self.fault {
            None => detector,
            Some(plan) => Box::new(FaultInjectingDetector::new(detector, plan)),
        };
        // Discriminator.
        let discriminator: Box<dyn Discriminator> = match self.discriminator {
            DiscriminatorKind::Oracle => Box::new(OracleDiscriminator::new()),
            DiscriminatorKind::Tracking => {
                Box::new(TrackingDiscriminator::with_defaults(Arc::clone(&truth)))
            }
        };

        let mut clock = VirtualClock::paper();
        clock.charge_scan(upfront_scan_frames);

        // Translate the stop condition into engine limits, on top of the
        // always-on frame cap.
        let mut spec = QuerySpec::new(name.clone(), policy, detector.as_ref())
            .discriminator(discriminator)
            .seed(seeds.derive("sampling").seed())
            .batch(1);
        let mut frame_budget = self.frame_cap;
        match self.stop {
            StopCondition::DistinctResults(limit) => spec = spec.result_limit(limit),
            StopCondition::Recall(recall) => {
                // A class with no instances can never reach a recall level;
                // such queries run until another limit (or exhaustion) stops
                // them, as the paper's evaluation assumes.
                if total_instances > 0 {
                    let target = (recall * total_instances as f64).ceil() as usize;
                    spec = spec.true_limit(target);
                }
            }
            StopCondition::FrameBudget(budget) => {
                frame_budget = Some(frame_budget.map_or(budget, |cap| cap.min(budget)));
            }
            StopCondition::Exhaustive => {}
        }
        if let Some(budget) = frame_budget {
            spec = spec.frame_budget(budget);
        }

        let mut engine = QueryEngine::new()
            .retry_policy(self.retry)
            .failure_mode(self.failure);
        if self.cache > 0 {
            engine = engine.cache_capacity(self.cache);
        }
        // Durable checkpointing: open (and, after a kill, recover) the
        // belief store, then hook it into the engine's serial stage-commit
        // seam.  The store is shared with this function so the final
        // snapshot and health counters outlive the engine.
        let durable: Option<(SharedStore, StoreErrorCell)> = match &self.checkpoint {
            None => None,
            Some(path) => {
                let (mut store, _recovery) = BeliefStore::open_dir(path)?;
                let class_id = store.intern_class(class.name());
                let store: SharedStore = Rc::new(RefCell::new(store));
                let error: StoreErrorCell = Rc::new(RefCell::new(None));
                engine = engine.stage_sink(Box::new(CheckpointSink {
                    store: Rc::clone(&store),
                    error: Rc::clone(&error),
                    class: class_id,
                    chunking: self.dataset.chunking(),
                }));
                Some((store, error))
            }
        };
        match self.parallel {
            // 1 is serial execution under another name; skip the mode change
            // so the engine stays on its historical default.
            None | Some(1) => {}
            // Everything else — including the invalid 0, which the engine
            // rejects with the typed InvalidExecution error — goes through
            // the engine's own validation.
            Some(threads) => engine = engine.execution(ExecutionMode::Parallel(threads))?,
        }
        engine.push(spec)?;
        // Retry backoff is charged as frame-equivalent sampled cost so the
        // virtual clock stays deterministic (no wall-clock sleeping).
        let report = match engine
            .run_with(|stage| clock.charge_sampled(stage.detector_frames + stage.backoff_cost))
        {
            Ok(report) => report,
            Err(error) => {
                if let Some((store, cell)) = &durable {
                    // The engine's sink seam is stringly typed; if the sink
                    // parked a concrete store error behind the
                    // CheckpointFailed it raised, re-chain that instead (and
                    // leave the failed store alone).
                    if let Some(store_error) = cell.borrow_mut().take() {
                        return Err(SimError::Store(store_error));
                    }
                    // Any other engine failure ends the run, not the store:
                    // make the stages sealed before it durable.  Best-effort
                    // — the engine's error is the one to report.
                    let _ = store.borrow_mut().flush();
                }
                return Err(error.into());
            }
        };
        // Final checkpoint, before anything else can return: compact every
        // sealed stage (the open group included) into a snapshot, so the
        // next run (warm start or resume) recovers from the snapshot
        // instead of replaying the log.
        let store = match &durable {
            None => None,
            Some((store, _)) => {
                let mut store = store.borrow_mut();
                store.checkpoint()?;
                Some(store.health())
            }
        };
        let detect_retries = report.detect_retries;
        let failed_frames = report.failed_frames;
        let cache = (self.cache > 0).then_some(report.cache);
        let outcome = report
            .outcomes
            .into_iter()
            .next()
            .ok_or(SimError::Engine(exsample_engine::EngineError::NoQueries))?;

        Ok(RunResult {
            method: name,
            frames_processed: outcome.frames_processed,
            upfront_scan_frames,
            distinct_found: outcome.distinct_found,
            true_found: outcome.true_found,
            total_instances,
            found_instances: outcome.found_instances,
            trajectory: outcome.trajectory,
            scan_secs: clock.scan_secs(),
            sample_secs: clock.sample_secs(),
            detect_retries,
            failed_frames,
            dropped_frames: outcome.dropped_frames,
            selection: outcome.selection,
            cache,
            store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_data::{GridWorkload, SkewLevel};
    use exsample_video::DecodeCostModel;

    fn skewed_dataset() -> Dataset {
        GridWorkload::builder()
            .frames(120_000)
            .instances(400)
            .chunks(24)
            .mean_duration(120.0)
            .skew(SkewLevel::ThirtySecond)
            .seed(3)
            .build()
            .unwrap()
            .generate()
    }

    #[test]
    fn distinct_results_stop_condition() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::DistinctResults(25))
            .seed(1)
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        assert!(result.distinct_found >= 25);
        assert!(result.true_found >= 25);
        assert_eq!(result.total_instances, 400);
        assert_eq!(result.method, "exsample");
        assert!(result.frames_processed > 0);
        assert_eq!(result.upfront_scan_frames, 0);
        assert_eq!(result.scan_secs, 0.0);
    }

    #[test]
    fn recall_stop_condition_and_trajectory_consistency() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::Recall(0.5))
            .seed(2)
            .run(MethodKind::Random)
            .expect("query run succeeded");
        assert!(result.recall() >= 0.5);
        // Trajectory is monotone in both coordinates and ends at the found count.
        assert!(result
            .trajectory
            .windows(2)
            .all(|w| w[0].frames <= w[1].frames && w[0].found < w[1].found));
        assert_eq!(result.trajectory.last().unwrap().found, result.true_found);
        // frames_to_recall is consistent with the trajectory.
        let frames = result.frames_to_recall(0.5).unwrap();
        assert!(frames <= result.frames_processed);
        assert_eq!(result.frames_to_count(0), Some(0));
    }

    #[test]
    fn frame_budget_is_respected() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(200))
            .seed(3)
            .run(MethodKind::RandomPlus)
            .expect("query run succeeded");
        assert_eq!(result.frames_processed, 200);
        assert_eq!(result.method, "random+");
    }

    #[test]
    fn exsample_beats_random_on_skewed_data() {
        let dataset = skewed_dataset();
        let budget = 4_000u64;
        let ex = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(budget))
            .seed(5)
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        let rnd = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(budget))
            .seed(5)
            .run(MethodKind::Random)
            .expect("query run succeeded");
        assert!(
            ex.true_found as f64 >= rnd.true_found as f64 * 1.2,
            "exsample {} vs random {}",
            ex.true_found,
            rnd.true_found
        );
    }

    #[test]
    fn proxy_pays_upfront_scan() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::DistinctResults(10))
            .seed(7)
            .run(MethodKind::Proxy(ProxyConfig::default()))
            .expect("query run succeeded");
        assert_eq!(result.upfront_scan_frames, dataset.total_frames());
        // The clock charged the whole scan at the paper's scan rate.
        assert_eq!(
            result.scan_secs,
            DecodeCostModel::paper().scan_secs(dataset.total_frames())
        );
    }

    #[test]
    fn run_exsample_accepts_prebuilt_sampler() {
        let dataset = skewed_dataset();
        let sampler = ExSample::new(ExSampleConfig::default(), &dataset.chunk_lengths());
        let policy = ExSamplePolicy::from_sampler(sampler, dataset.chunking()).unwrap();
        let runner = || {
            QueryRunner::new(&dataset)
                .stop(StopCondition::DistinctResults(15))
                .seed(11)
        };
        let result = runner()
            .run_policy(Box::new(policy))
            .expect("query run succeeded");
        assert!(result.distinct_found >= 15);
        assert_eq!(result.method, "exsample");
        // A fresh sampler run as a policy is exactly the built-in method.
        let builtin = runner()
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        assert_eq!(result.found_instances, builtin.found_instances);
        assert_eq!(result.trajectory, builtin.trajectory);
    }

    #[test]
    fn tracking_discriminator_and_noisy_detector_still_find_objects() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(1_500))
            .discriminator(DiscriminatorKind::Tracking)
            .detector_noise(DetectorNoise::default())
            .seed(13)
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        assert!(result.true_found > 0);
        // The tracking discriminator may create a handful of false-positive
        // objects; distinct_found can therefore exceed true_found but not wildly.
        assert!(result.distinct_found >= result.true_found);
    }

    #[test]
    fn sequential_scan_runs_in_order() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(100))
            .seed(17)
            .run(MethodKind::Sequential { stride: 30 })
            .expect("query run succeeded");
        assert_eq!(result.method, "sequential");
        assert_eq!(result.frames_processed, 100);
    }

    #[test]
    fn zero_stride_sequential_scan_is_a_typed_error() {
        let dataset = skewed_dataset();
        let err = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(50))
            .run(MethodKind::Sequential { stride: 0 })
            .unwrap_err();
        assert_eq!(err, SimError::ZeroStride);
        assert!(err.to_string().contains("stride of at least 1"));
    }

    #[test]
    fn parallel_runner_results_are_bitwise_identical() {
        let dataset = skewed_dataset();
        let run = |parallel: Option<usize>| {
            let mut runner = QueryRunner::new(&dataset)
                .stop(StopCondition::FrameBudget(600))
                .seed(23);
            if let Some(threads) = parallel {
                runner = runner.parallel(threads);
            }
            runner
                .run(MethodKind::ExSample(ExSampleConfig::default()))
                .expect("query run succeeded")
        };
        let serial = run(None);
        // Each stage is planned after the last one settled, so the budget is
        // exact: batch-1 stages stop on the 600th frame in every
        // configuration.
        assert_eq!(serial.frames_processed, 600);
        for parallel in [1usize, 2, 4, 64] {
            let threaded = run(Some(parallel));
            assert_eq!(threaded.frames_processed, 600);
            assert_eq!(threaded.found_instances, serial.found_instances);
            assert_eq!(threaded.trajectory, serial.trajectory);
            assert_eq!(threaded.sample_secs, serial.sample_secs);
        }
    }

    #[test]
    fn cached_runner_matches_uncached_outcomes_and_reports_telemetry() {
        let dataset = skewed_dataset();
        let run = |cache: usize, parallel: Option<usize>| {
            let mut runner = QueryRunner::new(&dataset)
                .stop(StopCondition::FrameBudget(600))
                .seed(19)
                .cache(cache);
            if let Some(threads) = parallel {
                runner = runner.parallel(threads);
            }
            runner
                .run(MethodKind::ExSample(ExSampleConfig::default()))
                .expect("query run succeeded")
        };
        let uncached = run(0, None);
        assert!(uncached.cache.is_none(), "cache off reports no telemetry");
        let cached = run(4_096, None);
        // The sampling methods pick without replacement, so a single run
        // over a cold cache misses every frame and hits none — but the
        // outcomes must be untouched and the telemetry fully accounted.
        assert_eq!(cached.found_instances, uncached.found_instances);
        assert_eq!(cached.trajectory, uncached.trajectory);
        assert_eq!(cached.sample_secs, uncached.sample_secs);
        let telemetry = cached.cache.expect("cache enabled");
        assert_eq!(telemetry.misses, cached.frames_processed);
        assert_eq!(telemetry.hits, 0);
        // Cache accounting is part of the determinism contract: identical
        // across thread counts.
        for parallel in [2usize, 4] {
            let other = run(4_096, Some(parallel));
            assert_eq!(other.found_instances, cached.found_instances);
            assert_eq!(other.trajectory, cached.trajectory);
            assert_eq!(other.cache, cached.cache);
        }
    }

    #[test]
    fn parallel_zero_is_a_typed_invalid_execution_error() {
        let dataset = skewed_dataset();
        let err = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(50))
            .parallel(0)
            .run(MethodKind::Random)
            .unwrap_err();
        match err {
            SimError::Engine(exsample_engine::EngineError::InvalidExecution { threads }) => {
                assert_eq!(threads, 0);
            }
            other => panic!("expected InvalidExecution, got {other:?}"),
        }
        // The message tells the caller how to ask for serial execution.
        assert!(err.to_string().contains("at least one worker thread"));
    }

    #[test]
    fn degraded_runs_report_faults_and_stay_deterministic() {
        let dataset = skewed_dataset();
        let plan = FaultPlan::new(41).transient_rate(0.08).permanent_rate(0.02);
        let run = |parallel: Option<usize>| {
            let mut runner = QueryRunner::new(&dataset)
                .stop(StopCondition::FrameBudget(600))
                .seed(29)
                .retry_policy(RetryPolicy::new(3).backoff_cost(3))
                .failure_mode(FailureMode::DropFrames)
                .fault_plan(plan);
            if let Some(threads) = parallel {
                runner = runner.parallel(threads);
            }
            runner
                .run(MethodKind::ExSample(ExSampleConfig::default()))
                .expect("degraded run succeeded")
        };
        let baseline = run(None);
        // The fault rates are high enough that the run is non-vacuous: some
        // frames retried, some dropped, and backoff showed up on the clock.
        assert!(baseline.detect_retries > 0, "expected retries");
        assert!(baseline.dropped_frames > 0, "expected dropped frames");
        // One query, so engine-wide failures equal the query's dropped tally.
        assert_eq!(baseline.failed_frames, baseline.dropped_frames);
        assert!(baseline.true_found > 0, "degraded run still finds objects");
        for parallel in [2usize, 4] {
            let other = run(Some(parallel));
            assert_eq!(other.frames_processed, baseline.frames_processed);
            assert_eq!(other.found_instances, baseline.found_instances);
            assert_eq!(other.trajectory, baseline.trajectory);
            assert_eq!(other.sample_secs, baseline.sample_secs);
            assert_eq!(other.detect_retries, baseline.detect_retries);
            assert_eq!(other.failed_frames, baseline.failed_frames);
            assert_eq!(other.dropped_frames, baseline.dropped_frames);
        }
    }

    #[test]
    fn fault_free_plan_with_retries_matches_the_plain_run() {
        let dataset = skewed_dataset();
        let plain = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(400))
            .seed(37)
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        let guarded = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(400))
            .seed(37)
            .retry_policy(RetryPolicy::new(3).backoff_cost(5))
            .failure_mode(FailureMode::DropFrames)
            .fault_plan(FaultPlan::new(99))
            .run(MethodKind::ExSample(ExSampleConfig::default()))
            .expect("query run succeeded");
        assert_eq!(guarded.found_instances, plain.found_instances);
        assert_eq!(guarded.trajectory, plain.trajectory);
        assert_eq!(guarded.sample_secs, plain.sample_secs);
        assert_eq!(guarded.detect_retries, 0);
        assert_eq!(guarded.failed_frames, 0);
        assert_eq!(guarded.dropped_frames, 0);
    }

    #[test]
    fn fail_fast_fault_surfaces_a_chained_engine_error() {
        let dataset = skewed_dataset();
        let err = QueryRunner::new(&dataset)
            .stop(StopCondition::FrameBudget(400))
            .seed(31)
            .fault_plan(FaultPlan::new(43).permanent_rate(0.05))
            .run(MethodKind::Random)
            .unwrap_err();
        match &err {
            SimError::Engine(exsample_engine::EngineError::DetectorFailed { source, .. }) => {
                assert!(matches!(
                    source,
                    exsample_detect::DetectError::Permanent { .. }
                ));
            }
            other => panic!("expected DetectorFailed, got {other:?}"),
        }
        // The chain is walkable from the sim error down to the detector fault.
        let mut depth = 0;
        let mut cursor: &dyn std::error::Error = &err;
        while let Some(next) = cursor.source() {
            depth += 1;
            cursor = next;
        }
        assert!(depth >= 2, "expected sim -> engine -> detect chain");
    }

    #[test]
    fn recall_is_zero_for_class_with_no_instances() {
        let dataset = skewed_dataset();
        let result = QueryRunner::new(&dataset)
            .class("unicorn")
            .stop(StopCondition::FrameBudget(50))
            .run(MethodKind::Random)
            .expect("query run succeeded");
        assert_eq!(result.total_instances, 0);
        assert_eq!(result.recall(), 0.0);
        assert_eq!(result.true_found, 0);
    }

    fn found_digest(found: &[InstanceId]) -> u64 {
        found
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |digest, &InstanceId(id)| {
                id.to_le_bytes().into_iter().fold(digest, |d, byte| {
                    (d ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
                })
            })
    }

    #[test]
    fn baseline_runs_match_their_pinned_frames_and_finds() {
        // Frames to recall 0.5 and an FNV-1a over the found instances, for
        // random+, the sequential scan and the proxy order.  Captured when
        // the baselines still ran through a separate frame-at-a-time trait
        // and an adapter: any other implementation must pick the same frames
        // and find the same instances.
        let dataset = skewed_dataset();
        for (kind, frames, found) in [
            (MethodKind::RandomPlus, 849, 0x4281_8cdc_28e8_d6e5),
            (
                MethodKind::Sequential { stride: 30 },
                1997,
                0xbbfe_dcc1_0878_0bdf,
            ),
            (
                MethodKind::Proxy(ProxyConfig::default()),
                482,
                0xb1fd_add2_82b2_dd61,
            ),
        ] {
            let result = QueryRunner::new(&dataset)
                .stop(StopCondition::Recall(0.5))
                .seed(43)
                .run(kind.clone())
                .expect("query run succeeded");
            assert_eq!(result.frames_processed, frames, "{kind:?}");
            assert_eq!(found_digest(&result.found_instances), found, "{kind:?}");
        }
    }
}
