//! Engine determinism guarantees, pinned down end to end:
//!
//! 1. a single-query engine at batch size 1 over an `ExSamplePolicy`
//!    reproduces the hand-written Algorithm 1 loop that preceded the engine
//!    **pick for pick** under the same RNG seed (that loop is replicated
//!    faithfully here); and
//! 2. a multi-query run produces identical per-query outcomes for any stage
//!    interleaving — solo vs. concurrent execution, permuted registration
//!    order, extra companion queries; and
//! 3. the shard view: a router only groups tallies, so under faults, a cache
//!    and two lanes, for shards {1, 3, 7} × both partitioners, the global
//!    `EngineReport` and every pick sequence are the unsharded run's, the
//!    per-shard reports sum to the global figures, and the per-shard
//!    breakdown matches a digest captured before shards became a view; and
//! 4. execution-mode invariance: parallel DETECT execution
//!    (`ExecutionMode::Parallel`) is bitwise-identical to serial execution —
//!    reports, per-query pick sequences, the logical per-shard breakdown —
//!    over threads {1, 2, 4} (serial runs detect inline, parallel runs on the
//!    persistent per-run worker pool); and
//! 5. the physical-shape law: a stage's detector demand is one batch per
//!    detector group, cut evenly over the lanes — so a serial run issues
//!    exactly the logical calls and an `L`-lane run exactly the batches the
//!    closed-form cut predicts (at most `L − 1` more per stage), which are
//!    the calls the report counts; and
//! 6. cache-axis determinism: with the detections cache enabled
//!    (small enough to evict), reports, per-query pick sequences, and the
//!    cache accounting itself (hits/misses/evictions) are bitwise-identical
//!    across threads {1, 2, 4}, and equal to an uncached run's outcomes and
//!    picks at a smaller detector bill.

mod common;

use exsample_baselines::SequentialScan;
use exsample_core::{ExSample, ExSampleConfig};
use exsample_detect::{
    Detector, FaultInjectingDetector, FaultPlan, FrameDetections, GroundTruth, ObjectClass,
    ObjectInstance, PerfectDetector,
};
use exsample_engine::{
    EngineReport, ExSamplePolicy, ExecutionMode, FailureMode, FrameSamplerPolicy, QueryEngine,
    QueryReport, QuerySpec, RetryPolicy, SamplingPolicy, ShardQueryTally, ShardReport, ShardRouter,
    ShardedReport, StageObservation, StageSink, StageStats, StopReason,
};
use exsample_track::{Discriminator, MatchOutcome, OracleDiscriminator};
use exsample_video::{
    Chunking, ChunkingPolicy, FrameId, ShardPartitioner, ShardSpec, VideoRepository,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// A detector that logs every frame it is asked about, in order.  The log is
/// behind a `Mutex` because `Detector` is `Send + Sync` — parallel engines
/// genuinely share one instance across worker threads.
struct RecordingDetector<D: Detector> {
    inner: D,
    log: Mutex<Vec<FrameId>>,
}

impl<D: Detector> RecordingDetector<D> {
    fn new(inner: D) -> Self {
        RecordingDetector {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }
}

impl<D: Detector> Detector for RecordingDetector<D> {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.log.lock().unwrap().push(frame);
        self.inner.detect(frame)
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

fn skewed_setup(frames: u64, chunks: u32) -> (Chunking, Arc<GroundTruth>) {
    let repo = VideoRepository::single_clip(frames);
    let chunking = Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks });
    let mut instances = Vec::new();
    let start0 = frames * 4 / 5;
    let span = (frames / 64).max(2);
    for i in 0..15u64 {
        let start = start0 + i * span;
        if start >= frames {
            break;
        }
        let end = (start + span * 3).min(frames - 1);
        instances.push(ObjectInstance::simple(i, "car", start, end));
    }
    let truth = Arc::new(GroundTruth::from_instances(frames, instances));
    (chunking, truth)
}

/// Faithful replica of the legacy hand-written Algorithm 1 loop, as it stood
/// before the engine existed.  Kept as the equivalence baseline; do not
/// "improve".
fn legacy_run_query(
    sampler: &mut ExSample,
    chunking: &Chunking,
    detector: &dyn Detector,
    discriminator: &mut dyn Discriminator,
    result_limit: usize,
    frame_budget: Option<u64>,
    rng: &mut StdRng,
) -> (u64, StopReason, Vec<FrameId>) {
    let mut frames_processed = 0u64;
    let mut picked = Vec::new();
    let stop_reason = loop {
        if discriminator.distinct_count() >= result_limit {
            break StopReason::ResultLimitReached;
        }
        if frame_budget.is_some_and(|budget| frames_processed >= budget) {
            break StopReason::FrameBudgetExhausted;
        }
        let Some(pick) = sampler.next_frame(rng) else {
            break StopReason::RepositoryExhausted;
        };
        let frame = chunking.chunks()[pick.chunk].start() + pick.offset;
        picked.push(frame);
        let detections = detector.detect(frame);
        let outcome = discriminator.observe(&detections);
        sampler.record(pick.chunk, outcome.n1_delta());
        frames_processed += 1;
    };
    (frames_processed, stop_reason, picked)
}

fn assert_reports_equal(a: &QueryReport, b: &QueryReport, context: &str) {
    assert_eq!(a.label, b.label, "{context}: label");
    assert_eq!(
        a.frames_processed, b.frames_processed,
        "{context}: frames ({})",
        a.label
    );
    assert_eq!(
        a.distinct_found, b.distinct_found,
        "{context}: distinct ({})",
        a.label
    );
    assert_eq!(a.true_found, b.true_found, "{context}: true ({})", a.label);
    assert_eq!(
        a.found_instances, b.found_instances,
        "{context}: instances ({})",
        a.label
    );
    assert_eq!(
        a.trajectory, b.trajectory,
        "{context}: trajectory ({})",
        a.label
    );
    assert_eq!(
        a.stop_reason, b.stop_reason,
        "{context}: stop reason ({})",
        a.label
    );
    assert_eq!(
        a.dropped_frames, b.dropped_frames,
        "{context}: dropped frames ({})",
        a.label
    );
}

/// Frames observed per chunk, counted from the engine's stage commits: the
/// per-chunk sample counts the policy's sampler was fed.
struct ChunkSamples {
    chunking: Chunking,
    counts: Rc<RefCell<Vec<u64>>>,
}

impl StageSink for ChunkSamples {
    fn stage_committed(&mut self, _: u64, observations: &[StageObservation]) -> Result<(), String> {
        let chunks = self.chunking.chunks();
        let mut counts = self.counts.borrow_mut();
        for observation in observations {
            counts[chunks.partition_point(|c| c.end() <= observation.frame)] += 1;
        }
        Ok(())
    }
}

#[test]
fn engine_batch_one_reproduces_the_legacy_loop_pick_for_pick() {
    for (result_limit, frame_budget, seed) in [
        (8, None, 101u64),
        (1_000, Some(700), 102),
        (1_000, None, 103),
    ] {
        let (chunking, truth) = skewed_setup(30_000, 12);
        let class = ObjectClass::from("car");

        // Legacy loop.
        let legacy_detector =
            RecordingDetector::new(PerfectDetector::new(Arc::clone(&truth), class.clone()));
        let mut legacy_discriminator = OracleDiscriminator::new();
        let mut legacy_sampler =
            ExSample::new(ExSampleConfig::default(), &chunking.chunk_lengths());
        let mut legacy_rng = StdRng::seed_from_u64(seed);
        let (legacy_frames, legacy_stop, legacy_picks) = legacy_run_query(
            &mut legacy_sampler,
            &chunking,
            &legacy_detector,
            &mut legacy_discriminator,
            result_limit,
            frame_budget,
            &mut legacy_rng,
        );

        // A batch-1 engine over a fresh ExSample policy, same seed.
        let engine_detector =
            RecordingDetector::new(PerfectDetector::new(Arc::clone(&truth), class.clone()));
        let mut spec = QuerySpec::new(
            "exsample",
            Box::new(ExSamplePolicy::new(ExSampleConfig::default(), &chunking)),
            &engine_detector,
        )
        .seed(seed)
        .result_limit(result_limit)
        .batch(1);
        if let Some(budget) = frame_budget {
            spec = spec.frame_budget(budget);
        }
        let samples_per_chunk = Rc::new(RefCell::new(vec![0u64; chunking.len()]));
        let mut engine = QueryEngine::new().stage_sink(Box::new(ChunkSamples {
            chunking: chunking.clone(),
            counts: Rc::clone(&samples_per_chunk),
        }));
        engine.push(spec).expect("valid spec");
        let report = engine.run().expect("run succeeds");
        let outcome = &report.outcomes[0];

        assert_eq!(
            engine_detector.log.lock().unwrap().as_slice(),
            legacy_picks.as_slice(),
            "pick sequences diverged (limit {result_limit}, budget {frame_budget:?})"
        );
        assert_eq!(outcome.frames_processed, legacy_frames);
        assert_eq!(outcome.stop_reason, Some(legacy_stop));
        assert_eq!(
            outcome.distinct_found,
            legacy_discriminator.distinct_count()
        );
        assert_eq!(
            outcome.found_instances,
            legacy_discriminator.found_instances()
        );
        assert_eq!(
            *samples_per_chunk.borrow(),
            legacy_sampler
                .stats()
                .all()
                .iter()
                .map(|s| s.samples())
                .collect::<Vec<_>>()
        );
    }
}

/// Build the three standard test queries against `detector`.
fn standard_specs<'a>(
    chunking: &Chunking,
    total_frames: u64,
    detector: &'a dyn Detector,
) -> Vec<QuerySpec<'a>> {
    vec![
        QuerySpec::new(
            "exsample",
            Box::new(ExSamplePolicy::new(ExSampleConfig::default(), chunking)),
            detector,
        )
        .seed(201)
        .batch(16)
        .result_limit(10)
        .frame_budget(1_200),
        QuerySpec::new(
            "random",
            Box::new(FrameSamplerPolicy::uniform(total_frames)),
            detector,
        )
        .seed(202)
        .batch(4)
        .frame_budget(500),
        QuerySpec::new(
            "random+",
            Box::new(FrameSamplerPolicy::random_plus(total_frames)),
            detector,
        )
        .seed(203)
        .batch(32)
        .true_limit(6),
    ]
}

#[test]
fn multi_query_outcomes_are_invariant_to_stage_interleaving() {
    let frames = 4_000u64;
    let (chunking, truth) = skewed_setup(frames, 8);
    let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));

    // Baseline: each query runs alone in its own engine.
    let mut solo: Vec<QueryReport> = Vec::new();
    for spec in standard_specs(&chunking, frames, &detector) {
        let mut engine = QueryEngine::new();
        engine.push(spec).unwrap();
        solo.push(engine.run().unwrap().outcomes.remove(0));
    }
    assert!(solo.iter().any(|r| r.true_found > 0), "setup finds nothing");

    // Interleaving 1: all three concurrently, coalescing on.
    let mut together = QueryEngine::new();
    for spec in standard_specs(&chunking, frames, &detector) {
        together.push(spec).unwrap();
    }
    let together = together.run().unwrap();
    for (a, b) in together.outcomes.iter().zip(&solo) {
        assert_reports_equal(a, b, "concurrent+coalesced vs solo");
    }

    // Interleaving 2: registration order reversed.
    let mut reversed = QueryEngine::new();
    for spec in standard_specs(&chunking, frames, &detector)
        .into_iter()
        .rev()
    {
        reversed.push(spec).unwrap();
    }
    for (a, b) in reversed
        .run()
        .unwrap()
        .outcomes
        .iter()
        .zip(solo.iter().rev())
    {
        assert_reports_equal(a, b, "reversed registration vs solo");
    }

    // Interleaving 3: an extra companion query changes the stage pattern but
    // no existing query's outcome.  The companion is a same-seed twin of the
    // `random` query, so its per-stage picks are identical to that query's
    // while both run — guaranteeing the coalescer genuinely shares detector
    // results between queries in this test.
    let mut crowded = QueryEngine::new();
    for spec in standard_specs(&chunking, frames, &detector) {
        crowded.push(spec).unwrap();
    }
    crowded
        .push(
            QuerySpec::new(
                "companion",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(202)
            .batch(4)
            .frame_budget(500),
        )
        .unwrap();
    let crowded = crowded.run().unwrap();
    for (a, b) in crowded.outcomes.iter().zip(&solo) {
        assert_reports_equal(a, b, "with companion vs solo");
    }
    // The twin demanded 500 frames that were all already demanded by
    // `random` in the same stages: coalescing must have absorbed them.
    assert!(
        crowded.coalesced_savings() >= 500,
        "expected the same-seed twin to be fully coalesced, saved only {}",
        crowded.coalesced_savings()
    );
}

/// A pass-through policy that logs every pick it hands to the engine, in
/// production order — the per-query pick sequence the suites compare across
/// configurations.  The log is behind an `Arc<Mutex<_>>` because a policy is
/// `Send`: parallel engines pick on their worker lanes.
struct RecordingPolicy<'a> {
    inner: Box<dyn SamplingPolicy + 'a>,
    log: PickLog,
}

impl SamplingPolicy for RecordingPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn upfront_scan_frames(&self) -> u64 {
        self.inner.upfront_scan_frames()
    }

    fn next_batch_into(&mut self, rng: &mut dyn RngCore, batch: usize, picks: &mut Vec<FrameId>) {
        self.inner.next_batch_into(rng, batch, picks);
        self.log.lock().unwrap().extend_from_slice(picks);
    }

    fn record(&mut self, frame: FrameId, outcome: &MatchOutcome) {
        self.inner.record(frame, outcome);
    }

    fn remaining(&self) -> Option<u64> {
        self.inner.remaining()
    }
}

/// A shared pick log, one per recorded query.
type PickLog = Arc<Mutex<Vec<FrameId>>>;

/// The standard specs with pick logging attached to every query.
fn recorded_specs<'a>(
    chunking: &Chunking,
    total_frames: u64,
    detector: &'a dyn Detector,
) -> (Vec<QuerySpec<'a>>, Vec<PickLog>) {
    recorded_specs_on(chunking, total_frames, [detector; 3])
}

/// [`recorded_specs`] with query `i` bound to `detectors[i]`.
fn recorded_specs_on<'a>(
    chunking: &Chunking,
    total_frames: u64,
    detectors: [&'a dyn Detector; 3],
) -> (Vec<QuerySpec<'a>>, Vec<PickLog>) {
    let inner: Vec<Box<dyn SamplingPolicy>> = vec![
        Box::new(ExSamplePolicy::new(ExSampleConfig::default(), chunking)),
        Box::new(FrameSamplerPolicy::uniform(total_frames)),
        Box::new(FrameSamplerPolicy::random_plus(total_frames)),
    ];
    let mut specs = Vec::new();
    let mut logs = Vec::new();
    for (i, policy) in inner.into_iter().enumerate() {
        let log = PickLog::default();
        let recorded = RecordingPolicy {
            inner: policy,
            log: Arc::clone(&log),
        };
        let detector = detectors[i];
        let spec = match i {
            0 => QuerySpec::new("exsample", Box::new(recorded), detector)
                .seed(201)
                .batch(16)
                .result_limit(10)
                .frame_budget(1_200),
            1 => QuerySpec::new("random", Box::new(recorded), detector)
                .seed(202)
                .batch(4)
                .frame_budget(500),
            _ => QuerySpec::new("random+", Box::new(recorded), detector)
                .seed(203)
                .batch(32)
                .true_limit(6),
        };
        specs.push(spec);
        logs.push(log);
    }
    (specs, logs)
}

fn assert_engine_reports_equal(a: &EngineReport, b: &EngineReport, context: &str) {
    assert_eq!(a.stages, b.stages, "{context}: stages");
    assert_eq!(
        a.demanded_frames, b.demanded_frames,
        "{context}: demanded frames"
    );
    assert_eq!(
        a.detector_frames, b.detector_frames,
        "{context}: detector frames"
    );
    assert_eq!(
        a.detector_calls, b.detector_calls,
        "{context}: logical detector calls"
    );
    assert_eq!(a.detect_retries, b.detect_retries, "{context}: retries");
    assert_eq!(a.failed_frames, b.failed_frames, "{context}: failed frames");
    assert_eq!(a.backoff_cost, b.backoff_cost, "{context}: backoff cost");
    assert_eq!(a.cache, b.cache, "{context}: cache accounting");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{context}: query count");
    for (qa, qb) in a.outcomes.iter().zip(&b.outcomes) {
        assert_reports_equal(qa, qb, context);
    }
}

/// `common::logical_shards` of every layout of the shard-view test, and the
/// whole `report_sharded()` of its contiguous layouts, as `common::
/// debug_digest`s.  First captured at 5251ec3 — before shards became a view,
/// when each shard was still an execution worker — and re-pinned when the
/// quarantine and admission policies were deleted: at c7cd45c each layout's
/// rendering still matched its 5251ec3 digest, and deleting exactly the two
/// fields those policies rendered — the empty quarantined-detector list and
/// the zero admission-reject count — from that same string hashes to the
/// values below.  Round-robin physical attribution is
/// not pinned: it follows the batch cuts, which no longer group a stage's
/// frames by shard.
const SHARD_VIEW_DIGESTS: [(ShardPartitioner, u32, u64, Option<u64>); 6] = [
    (
        ShardPartitioner::RoundRobin,
        1,
        2_658_581_112_182_055_317,
        None,
    ),
    (
        ShardPartitioner::Contiguous,
        1,
        2_658_581_112_182_055_317,
        Some(7_739_193_752_628_142_970),
    ),
    (
        ShardPartitioner::RoundRobin,
        3,
        16_638_605_499_050_068_081,
        None,
    ),
    (
        ShardPartitioner::Contiguous,
        3,
        12_033_583_212_718_015_452,
        Some(4_262_426_239_077_630_889),
    ),
    (
        ShardPartitioner::RoundRobin,
        7,
        4_645_483_077_216_761_617,
        None,
    ),
    (
        ShardPartitioner::Contiguous,
        7,
        2_061_397_326_907_864_856,
        Some(14_357_864_964_744_443_068),
    ),
];

/// The shard view.  A router only decides which shard each tally is added
/// to, so it is checked once, on the richest configuration — dropped-frame
/// faults with retries, a cache small enough to evict, two lanes — instead
/// of as an axis of every matrix: the global report and the picks are the
/// unsharded run's, the per-shard reports sum to the global figures, and the
/// per-shard breakdown is the one each shard's execution worker used to keep.
#[test]
fn sharded_runs_are_bitwise_identical_to_unsharded() {
    let frames = 1_500u64;
    let (chunking, truth) = skewed_setup(frames, 21);
    let plan = FaultPlan::new(2_022)
        .transient_rate(0.10)
        .transient_attempts(2)
        .permanent_rate(0.03);
    let run = |router: ShardRouter| {
        let detector = FaultInjectingDetector::new(
            PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car")),
            plan,
        );
        let (specs, logs) = recorded_specs(&chunking, frames, &detector);
        let mut engine = QueryEngine::new()
            .sharded(router)
            .retry_policy(RetryPolicy::new(3).backoff_cost(4))
            .failure_mode(FailureMode::DropFrames)
            .cache_capacity(MATRIX_CACHE_CAPACITY)
            .execution(ExecutionMode::Parallel(2))
            .expect("valid execution mode");
        for spec in specs {
            engine.push(spec).unwrap();
        }
        let _ = engine.run().unwrap();
        let picks: Vec<Vec<FrameId>> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
        (engine.report_sharded(), picks)
    };

    let (unsharded, unsharded_picks) = run(ShardRouter::single());
    let global = &unsharded.report;
    assert!(
        global.detect_retries > 0 && global.failed_frames > 0,
        "no faults"
    );
    assert!(
        global.cache.hits > 0 && global.cache.evictions > 0,
        "idle cache"
    );
    assert!(
        global.outcomes.iter().any(|r| r.true_found > 0),
        "finds nothing"
    );

    for (partitioner, shards, logical, full) in SHARD_VIEW_DIGESTS {
        let context = format!("{partitioner:?}/{shards} shards");
        let spec = ShardSpec::new(partitioner, chunking.len(), shards);
        let (view, picks) = run(ShardRouter::new(&chunking, &spec).unwrap());
        assert_engine_reports_equal(&view.report, global, &context);
        assert_eq!(picks, unsharded_picks, "{context}: pick sequences");
        assert_eq!(
            view.physical_detector_calls, unsharded.physical_detector_calls,
            "{context}: what runs does not depend on the router"
        );

        // The per-shard reports partition the global one.
        let sum = |tally: fn(&ShardReport) -> u64| view.shards.iter().map(tally).sum::<u64>();
        assert_eq!(view.shards.len(), shards as usize, "{context}");
        assert_eq!(sum(|s| s.detector_frames), global.detector_frames);
        assert_eq!(sum(|s| s.retries), global.detect_retries, "{context}");
        assert_eq!(sum(|s| s.backoff_cost), global.backoff_cost, "{context}");
        assert_eq!(sum(|s| s.failed_frames), global.failed_frames, "{context}");
        assert_eq!(sum(|s| s.cache.hits), global.cache.hits, "{context}");
        assert_eq!(sum(|s| s.cache.misses), global.cache.misses, "{context}");
        assert_eq!(sum(|s| s.cache.evictions), global.cache.evictions);
        for (i, outcome) in global.outcomes.iter().enumerate() {
            let query = |tally: fn(&ShardQueryTally) -> u64| {
                view.shards
                    .iter()
                    .map(|s| tally(&s.per_query[i]))
                    .sum::<u64>()
            };
            assert_eq!(query(|q| q.frames), outcome.frames_processed, "{context}");
            assert_eq!(query(|q| q.hits), outcome.true_found as u64, "{context}");
            assert_eq!(query(|q| q.dropped), outcome.dropped_frames, "{context}");
        }
        for shard in &view.shards {
            assert_eq!(shard.batches.count, shard.detector_calls, "{context}");
        }

        assert_eq!(
            common::debug_digest(&common::logical_shards(&view)),
            logical,
            "{context}: per-shard breakdown"
        );
        if let Some(full) = full {
            assert_eq!(common::debug_digest(&view), full, "{context}: report");
        }
    }
}

/// Everything a sharded report of a `lanes`-lane run carries, against the
/// serial run: the embedded global report and the logical per-shard
/// breakdown (frames, hits, cache and per-detector tallies) bitwise, the
/// physical invocations by the shape law — exactly the logical calls when
/// serial, at most one more per lane boundary per stage otherwise.
fn assert_sharded_reports_agree(
    parallel: &ShardedReport,
    serial: &ShardedReport,
    lanes: usize,
    context: &str,
) {
    assert_engine_reports_equal(&parallel.report, &serial.report, context);
    assert_eq!(
        common::logical_shards(parallel),
        common::logical_shards(serial),
        "{context}: per-shard breakdowns"
    );
    common::assert_physical_shape(serial, 1, context);
    common::assert_physical_shape(parallel, lanes, context);
}

#[test]
fn parallel_execution_matrix_is_bitwise_identical_to_serial() {
    let frames = 4_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);
    let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));
    let run = |mode: ExecutionMode| {
        let (specs, logs) = recorded_specs(&chunking, frames, &detector);
        let mut engine = QueryEngine::new()
            .execution(mode)
            .expect("valid execution mode");
        for spec in specs {
            engine.push(spec).unwrap();
        }
        // The three queries share one detector, so every stage is one
        // group: its frames are cut over the lanes exactly — one batch per
        // lane, or per frame when there are fewer.
        let lanes = mode.effective_threads() as u64;
        let _ = engine
            .run_with(|stats: &StageStats| {
                assert_eq!(stats.detector_calls, 1);
                assert_eq!(stats.batches.count, lanes.min(stats.detector_frames));
                assert_eq!(stats.batches.frames, stats.detector_frames);
            })
            .unwrap();
        let picks: Vec<Vec<FrameId>> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
        (engine.report_sharded(), picks)
    };

    let (serial, serial_picks) = run(ExecutionMode::Serial);
    assert!(
        serial.report.outcomes.iter().any(|r| r.true_found > 0),
        "setup finds nothing"
    );
    for threads in [1usize, 2, 4] {
        let context = format!("{threads} threads");
        let (parallel, parallel_picks) = run(ExecutionMode::Parallel(threads));
        // Per-query pick sequences, frame for frame; reports and the logical
        // breakdown bitwise, physical invocations by the shape law.
        assert_eq!(parallel_picks, serial_picks, "{context}: pick sequences");
        assert_sharded_reports_agree(&parallel, &serial, threads, &context);
    }
}

/// Pooled PICK.  Under `Parallel(n)` query `i` picks on lane `i mod n`, so
/// six queries over two lanes put queries 0, 2 and 4 on the coordinator's
/// lane and 1, 3 and 5 on the helper's.  The even queries stop early — one
/// by its result limit, one by a short budget, one by running its sequential
/// scan dry — so the coordinator's set empties while the helper's still
/// picks, and four lanes leave lanes idle sooner still.  Pick sequences and
/// reports are the serial run's, bit for bit, for each lane count.
#[test]
fn pooled_pick_is_bitwise_identical_as_lanes_empty() {
    let frames = 4_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);
    let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));
    let run = |mode: ExecutionMode| {
        let policies: [(&str, Box<dyn SamplingPolicy>); 6] = [
            (
                "exsample",
                Box::new(ExSamplePolicy::new(ExSampleConfig::default(), &chunking)),
            ),
            ("random", Box::new(FrameSamplerPolicy::uniform(frames))),
            ("scan", Box::new(SequentialScan::with_stride(frames, 100))),
            (
                "exsample",
                Box::new(ExSamplePolicy::new(ExSampleConfig::default(), &chunking)),
            ),
            ("random", Box::new(FrameSamplerPolicy::uniform(frames))),
            ("scan", Box::new(SequentialScan::with_stride(frames, 7))),
        ];
        let mut engine = QueryEngine::new().execution(mode).unwrap();
        let mut logs = Vec::new();
        for (i, (label, inner)) in policies.into_iter().enumerate() {
            let log = PickLog::default();
            let policy = Box::new(RecordingPolicy {
                inner,
                log: Arc::clone(&log),
            });
            let spec = QuerySpec::new(label, policy, &detector).seed(300 + i as u64);
            let spec = match i {
                0 => spec.batch(16).result_limit(3).frame_budget(2_000),
                1 => spec.batch(8).frame_budget(900),
                2 => spec.batch(8),
                3 => spec.batch(12).true_limit(5).frame_budget(1_500),
                4 => spec.batch(16).frame_budget(160),
                _ => spec.batch(16).frame_budget(2_000),
            };
            engine.push(spec).unwrap();
            logs.push(log);
        }
        let report = engine.run().unwrap();
        let picks: Vec<Vec<FrameId>> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
        (report, picks)
    };

    let (serial, serial_picks) = run(ExecutionMode::Serial);
    let stops: Vec<StopReason> = serial
        .outcomes
        .iter()
        .map(|r| r.stop_reason.expect("every query stops"))
        .collect();
    assert_eq!(stops[0], StopReason::ResultLimitReached, "setup: query 0");
    assert_eq!(stops[2], StopReason::RepositoryExhausted, "setup: query 2");
    assert_eq!(stops[4], StopReason::FrameBudgetExhausted, "setup: query 4");
    let longest_even = [0, 2, 4]
        .map(|i| serial.outcomes[i].frames_processed)
        .into_iter()
        .max();
    assert!(
        longest_even < Some(serial.outcomes[5].frames_processed),
        "setup: the coordinator's lane must empty while the helper's still picks"
    );
    for threads in [2usize, 4] {
        let context = format!("pooled PICK, {threads} lanes");
        let (parallel, parallel_picks) = run(ExecutionMode::Parallel(threads));
        assert_eq!(parallel_picks, serial_picks, "{context}: pick sequences");
        assert_engine_reports_equal(&parallel, &serial, &context);
    }
}

/// The `(detector id, frames)` of every batch the detectors of one run were
/// handed, in arrival order.
type BatchLog = Arc<Mutex<Vec<(usize, usize)>>>;

/// A detector that logs the size of every batch it is handed under its id,
/// and refuses an empty one.
struct BatchLoggingDetector {
    id: usize,
    inner: PerfectDetector,
    log: BatchLog,
}

impl Detector for BatchLoggingDetector {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.inner.detect(frame)
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        assert!(!frames.is_empty(), "an empty batch reached a detector");
        self.log.lock().unwrap().push((self.id, frames.len()));
        self.inner.detect_batch(frames, out);
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

#[test]
fn aggregated_runs_are_bitwise_identical_across_the_matrix() {
    // Every run aggregates: a stage's demand is one batch per detector group,
    // cut evenly over the lanes.  Three queries with a detector each make
    // multi-group stages; the batches every stage issues must be exactly the
    // closed-form cut, while picks and reports stay those of the serial run.
    let frames = 4_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);
    let log: BatchLog = Arc::default();
    let detectors: Vec<BatchLoggingDetector> = (0..3)
        .map(|id| BatchLoggingDetector {
            id,
            inner: PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car")),
            log: Arc::clone(&log),
        })
        .collect();

    let mut baseline: Option<(EngineReport, Vec<Vec<FrameId>>)> = None;
    for lanes in [1usize, 2, 4] {
        let context = format!("{lanes} lanes");
        let mut engine = QueryEngine::new()
            .execution(ExecutionMode::Parallel(lanes))
            .expect("valid execution mode");
        // Query `i` owns detector `i`, so a stage's groups come in
        // detector-id order.
        let (specs, logs) = recorded_specs_on(
            &chunking,
            frames,
            [&detectors[0], &detectors[1], &detectors[2]],
        );
        for spec in specs {
            engine.push(spec).unwrap();
        }
        log.lock().unwrap().clear();
        let mut observed_calls = 0u64;
        let _ = engine
            .run_with(|stats: &StageStats| {
                let mut issued = std::mem::take(&mut *log.lock().unwrap());
                observed_calls += issued.len() as u64;
                let mut sizes = [0usize; 3];
                for &(id, batch) in &issued {
                    sizes[id] += batch;
                }
                let ids: Vec<usize> = (0..3).filter(|&id| sizes[id] > 0).collect();
                let demand: Vec<usize> = ids.iter().map(|&id| sizes[id]).collect();
                let mut expected: Vec<(usize, usize)> = common::cut_batches(&demand, lanes)
                    .into_iter()
                    .map(|(group, batch)| (ids[group], batch))
                    .collect();
                // Lanes run concurrently: arrival order is theirs.
                issued.sort_unstable();
                expected.sort_unstable();
                assert_eq!(issued, expected, "{context}: stage {}", stats.stage);
                assert_eq!(stats.detector_calls, ids.len() as u64, "{context}");
                assert_eq!(stats.batches.count, expected.len() as u64, "{context}");
            })
            .unwrap();
        let merged = engine.report_sharded();
        let picks: Vec<Vec<FrameId>> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();

        common::assert_physical_shape(&merged, lanes, &context);
        assert_eq!(
            merged.physical_detector_calls, observed_calls,
            "{context}: the report counts the calls the detectors saw"
        );
        let (report, baseline_picks) =
            baseline.get_or_insert_with(|| (merged.report.clone(), picks.clone()));
        assert!(report.outcomes.iter().any(|r| r.true_found > 0));
        assert_engine_reports_equal(&merged.report, report, &context);
        assert_eq!(&picks, baseline_picks, "{context}: pick sequences");
    }
}

/// Cache capacity for the cache-axis matrix: small enough that the standard
/// workload's distinct probed frames force real evictions, large enough that
/// re-picked frames still find warm entries.
const MATRIX_CACHE_CAPACITY: usize = 256;

#[test]
fn cached_runs_are_bitwise_identical_across_the_matrix() {
    let frames = 4_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);
    let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));

    // The reference is the serial cached run.
    let run_with_cache = |capacity: usize, mode: ExecutionMode| {
        let (specs, logs) = recorded_specs(&chunking, frames, &detector);
        let mut engine = QueryEngine::new()
            .cache_capacity(capacity)
            .execution(mode)
            .expect("valid execution mode");
        for spec in specs {
            engine.push(spec).unwrap();
        }
        let _ = engine.run().unwrap();
        let picks: Vec<Vec<FrameId>> = logs.iter().map(|log| log.lock().unwrap().clone()).collect();
        (engine.report_sharded(), picks)
    };
    let run = |mode: ExecutionMode| run_with_cache(MATRIX_CACHE_CAPACITY, mode);
    let (serial, serial_picks) = run(ExecutionMode::Serial);
    assert!(
        serial.report.outcomes.iter().any(|r| r.true_found > 0),
        "setup finds nothing"
    );
    // The axis must actually be exercised: cold probes, warm re-probes and
    // LRU evictions all occur in the reference run.
    let activity = serial.report.cache;
    assert!(activity.misses > 0, "no cache misses");
    assert!(activity.hits > 0, "no cache hits");
    assert!(activity.evictions > 0, "no evictions");

    // The cache changes the detector bill, never an outcome or a pick.
    let (uncached, uncached_picks) = run_with_cache(0, ExecutionMode::Serial);
    assert_eq!(uncached_picks, serial_picks, "uncached: pick sequences");
    assert_eq!(uncached.report.outcomes.len(), serial.report.outcomes.len());
    for (a, b) in uncached.report.outcomes.iter().zip(&serial.report.outcomes) {
        assert_reports_equal(a, b, "uncached");
    }
    assert!(
        serial.report.detector_frames < uncached.report.detector_frames,
        "cache hits must shrink the detector bill"
    );

    for threads in [1usize, 2, 4] {
        let context = format!("cached/{threads} threads");
        let (parallel, parallel_picks) = run(ExecutionMode::Parallel(threads));
        assert_eq!(parallel_picks, serial_picks, "{context}: pick sequences");
        // The report comparison includes the cache accounting.
        assert_sharded_reports_agree(&parallel, &serial, threads, &context);
    }
}
