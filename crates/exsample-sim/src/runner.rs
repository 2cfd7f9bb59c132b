//! End-to-end query execution.
//!
//! [`QueryRunner`] configures one distinct-object query over a [`Dataset`] and runs
//! it with a built-in method ([`QueryRunner::run`]) or any
//! [`SamplingPolicy`] ([`QueryRunner::run_policy`]), producing a
//! [`RunResult`] with the full recall trajectory and virtual time accounting.
//! This is the harness every `repro` experiment and integration test is built
//! on, and the one way to run a single query.
//!
//! Execution is delegated to `exsample-engine`: the runner translates its stop
//! condition into engine limits and runs the policy on a single-query engine
//! at batch size 1 — the configuration that consumes the RNG stream exactly
//! as the paper's pick→detect→record loop does.  The virtual clock is
//! charged from the engine's per-stage cost-accounting hook.  The engine
//! runs with its defaults (serial, uncached, fail-fast): the paper's
//! experiments vary the sampler, the data and the stop condition, never the
//! engine, so a caller who wants another engine configuration builds a
//! `QueryEngine` directly.
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
    ExSamplePolicy, FrameSamplerPolicy, QueryEngine, QuerySpec, SamplingPolicy, SelectionTelemetry,
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
    /// Virtual seconds spent on sampled processing (decode + detector).
    pub sample_secs: f64,
    /// Chunk-selection telemetry (ExSample runs only): how many picks went
    /// through the belief-class fold versus per-chunk draws, and how many
    /// Gamma draws the deduplication saved.
    pub selection: Option<SelectionTelemetry>,
    /// Durable-store health counters (`Some` only when
    /// [`QueryRunner::checkpoint`] enabled checkpointing): records replayed
    /// and torn bytes discarded during recovery, and the run's sealed
    /// stages, fsynced group writes, snapshot compactions and the store's
    /// own I/O retries (the engine never retries a detector).
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
    fault: Option<FaultPlan>,
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
            fault: None,
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
    /// into a snapshot, on a typed engine failure (a fail-fast detector
    /// error) the open group is flushed first.  Health counters land
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

    /// Wrap the run's detector in a deterministic fault injector driven by
    /// `plan` (see [`FaultPlan`]).  The engine fails fast, so a frame that
    /// fails its per-frame try ends the run with a chained
    /// [`SimError::Engine`] — the seam through which a test makes a run's
    /// engine fail (with [`QueryRunner::checkpoint`], after the sealed stages
    /// are flushed).
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

        let mut engine = QueryEngine::new();
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
        engine.push(spec)?;
        let report = match engine.run_with(|stage| clock.charge_sampled(stage.detector_frames)) {
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
            selection: outcome.selection,
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
