//! Fault-tolerance guarantees of the engine, pinned end to end:
//!
//! 1. **fault-free identity** — with retries enabled but no faults scheduled,
//!    a run is bitwise-identical to the pre-fault-tolerance engine (raw
//!    detector, no retry policy): retries stay opt-in and free;
//! 2. **fault determinism matrix** — for a fixed seed and [`FaultPlan`],
//!    degraded runs under [`FailureMode::DropFrames`] are bitwise-identical —
//!    reports, logical breakdowns, retry/backoff/failure/drop tallies —
//!    across threads {1, 2, 4}: a failed batch recovers per frame, so it
//!    never matters which frames shared it;
//! 3. **fail-fast** — the default [`FailureMode::FailFast`] surfaces the
//!    first terminal failure (in gather order) as a typed
//!    [`EngineError::DetectorFailed`] with full context and a chained source,
//!    identically across thread counts and shard routers — a one-batch stage
//!    detected in place and one cut over lanes share one per-frame retry loop
//!    and walk the lane in the same order;
//! 4. **cache hygiene** — failed frames are never committed to the detection
//!    cache (a warm re-query re-attempts and re-drops exactly them), while
//!    frames recovered by a retry are committed exactly once (a warm re-query
//!    triggers zero further retries); and
//! 5. **cache determinism under faults** — with the detections cache
//!    enabled and small enough to evict, degraded runs keep every tally
//!    (including the cache's own hit/miss/eviction accounting) bitwise-
//!    identical across thread counts; and
//! 6. **exact retry budget** — a frame whose transient fault outlasts the
//!    budget is tried exactly `max_attempts` times after its batch probe,
//!    and the retry, failure and drop tallies count exactly that; and
//! 7. **miscounted answers fail** — an `Ok` that does not carry one detection
//!    set per frame asked is a failed batch probe, and a one-frame `Ok` without
//!    exactly one set is a permanent failure of that frame, so no frame is
//!    silently left without a result.

mod common;

use exsample_core::ExSampleConfig;
use exsample_detect::{
    DetectError, Detector, FaultInjectingDetector, FaultPlan, FrameDetections, GroundTruth,
    ObjectClass, ObjectInstance, PerfectDetector,
};
use exsample_engine::{
    EngineError, EngineReport, ExSamplePolicy, ExecutionMode, FailureMode, FrameSamplerPolicy,
    QueryEngine, QueryReport, QuerySpec, RetryPolicy, ShardRouter, ShardedReport, StopReason,
};
use exsample_video::{
    Chunking, ChunkingPolicy, FrameId, ShardPartitioner, ShardSpec, VideoRepository,
};
use std::sync::Arc;

const FAULT_SEED: u64 = 2_022;

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

/// The standard fault schedule the determinism matrix runs under: enough
/// transient faults to exercise retries and enough permanent ones to exercise
/// drops, deterministically from `FAULT_SEED`.
fn faulty_plan() -> FaultPlan {
    FaultPlan::new(FAULT_SEED)
        .transient_rate(0.10)
        .transient_attempts(2)
        .permanent_rate(0.03)
}

/// A fresh fault-injecting wrapper around a fresh perfect detector.  Fresh
/// per engine run: the wrapper's per-frame attempt counters are stateful, so
/// sharing one instance across runs would entangle their schedules.
fn faulty_detector(
    truth: &Arc<GroundTruth>,
    plan: FaultPlan,
) -> FaultInjectingDetector<PerfectDetector> {
    FaultInjectingDetector::new(
        PerfectDetector::new(Arc::clone(truth), ObjectClass::from("car")),
        plan,
    )
}

/// The two standard queries of the fault suite, sharing one detector.
fn fault_specs<'a>(
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
        .seed(301)
        .batch(16)
        .result_limit(10)
        .frame_budget(900),
        QuerySpec::new(
            "random",
            Box::new(FrameSamplerPolicy::uniform(total_frames)),
            detector,
        )
        .seed(302)
        .batch(8)
        .frame_budget(400),
    ]
}

fn assert_query_reports_equal(a: &QueryReport, b: &QueryReport, context: &str) {
    assert_eq!(a.label, b.label, "{context}: label");
    assert_eq!(
        a.frames_processed, b.frames_processed,
        "{context}: frames ({})",
        a.label
    );
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
        assert_query_reports_equal(qa, qb, context);
    }
}

/// Reports and logical breakdowns, bitwise.  Physical call counts are not
/// compared: under faults they depend on which healthy frames shared a
/// failed batch (each pays one extra per-frame call), which is the lane
/// count's to decide.
fn assert_sharded_reports_equal(a: &ShardedReport, b: &ShardedReport, context: &str) {
    assert_engine_reports_equal(&a.report, &b.report, context);
    assert_eq!(
        common::logical_shards(a),
        common::logical_shards(b),
        "{context}: per-shard breakdowns"
    );
}

#[test]
fn fault_free_runs_with_retries_enabled_match_the_baseline() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 12);

    // Pre-fault-tolerance shape: raw detector, default (no-retry) policy.
    let (baseline, baseline_calls) = {
        let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));
        let mut engine = QueryEngine::new();
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let report = engine.run().unwrap();
        (report, engine.report_sharded().physical_detector_calls)
    };
    assert!(
        baseline.outcomes.iter().any(|r| r.true_found > 0),
        "setup finds nothing"
    );

    // Retries armed, failure mode degraded, a fault wrapper in place — but a
    // zero-rate plan: nothing may change, bitwise.
    let (guarded, guarded_calls) = {
        let detector = faulty_detector(&truth, FaultPlan::new(FAULT_SEED));
        let mut engine = QueryEngine::new()
            .retry_policy(RetryPolicy::new(3).backoff_cost(5))
            .failure_mode(FailureMode::DropFrames);
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let report = engine.run().unwrap();
        assert_eq!(detector.injected_faults(), 0, "zero-rate plan injected");
        (report, engine.report_sharded().physical_detector_calls)
    };
    assert_engine_reports_equal(&guarded, &baseline, "fault-free guarded vs baseline");
    assert_eq!(guarded_calls, baseline_calls, "physical detector calls");
    assert_eq!(guarded.detect_retries, 0);
    assert_eq!(guarded.failed_frames, 0);
    assert_eq!(guarded.backoff_cost, 0);
    assert!(guarded.outcomes.iter().all(|r| r.dropped_frames == 0));
}

#[test]
fn degraded_runs_are_bitwise_deterministic_across_the_execution_matrix() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);

    let run = |mode: ExecutionMode| {
        let detector = faulty_detector(&truth, faulty_plan());
        let mut engine = QueryEngine::new()
            .retry_policy(RetryPolicy::new(3).backoff_cost(4))
            .failure_mode(FailureMode::DropFrames)
            .execution(mode)
            .expect("valid execution mode");
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let _ = engine.run().unwrap();
        engine.report_sharded()
    };

    // Baseline: serial.  The assertions below are only meaningful if the
    // plan genuinely degraded the run, so pin that first.
    let baseline = run(ExecutionMode::Serial);
    assert!(
        baseline.report.detect_retries > 0,
        "plan scheduled no transient faults — the matrix would be vacuous"
    );
    assert!(
        baseline.report.failed_frames > 0,
        "plan scheduled no permanent faults — the matrix would be vacuous"
    );
    assert!(
        baseline.report.backoff_cost > 0,
        "retries charged no backoff"
    );
    assert!(
        baseline
            .report
            .outcomes
            .iter()
            .map(|r| r.dropped_frames)
            .sum::<u64>()
            > 0,
        "no frame was dropped"
    );
    assert!(
        baseline.report.outcomes.iter().any(|r| r.true_found > 0),
        "the degraded run found nothing at all"
    );

    // The lanes cut failed and healthy batches differently at every thread
    // count, and tally the same.
    for threads in [1usize, 2, 4] {
        let parallel = run(ExecutionMode::Parallel(threads));
        assert_sharded_reports_equal(&parallel, &baseline, &format!("{threads} threads"));
    }
}

#[test]
fn degraded_runs_with_the_cache_stay_deterministic() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);

    // The same degraded matrix as above with the detections cache in
    // the loop (small enough to evict): retries, drops, cache hygiene and the
    // cache accounting itself must all stay bitwise-identical across thread
    // counts.
    let run = |mode: ExecutionMode| {
        let detector = faulty_detector(&truth, faulty_plan());
        let mut engine = QueryEngine::new()
            .retry_policy(RetryPolicy::new(3).backoff_cost(4))
            .failure_mode(FailureMode::DropFrames)
            .cache_capacity(256)
            .execution(mode)
            .expect("valid execution mode");
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let _ = engine.run().unwrap();
        engine.report_sharded()
    };

    let baseline = run(ExecutionMode::Serial);
    assert!(
        baseline.report.detect_retries > 0,
        "plan scheduled no transient faults — the matrix would be vacuous"
    );
    assert!(
        baseline.report.failed_frames > 0,
        "plan scheduled no permanent faults — the matrix would be vacuous"
    );
    assert!(
        baseline.report.cache.misses > 0,
        "the cache axis is vacuous without misses"
    );

    for threads in [1usize, 2, 4] {
        let parallel = run(ExecutionMode::Parallel(threads));
        assert_sharded_reports_equal(&parallel, &baseline, &format!("cached/{threads} threads"));
    }
}

#[test]
fn single_query_fault_recovery_is_lane_count_invariant() {
    // A single query's stage is one batch when serial — detected in place —
    // and cut over the lanes under `Parallel(2)`.  Both recover a failed
    // batch probe through the one per-frame retry loop, in lane order, so a
    // degraded run must be bitwise-identical either way.
    let frames = 3_000u64;
    let (_chunking, truth) = skewed_setup(frames, 12);
    let run = |mode: ExecutionMode, failure: FailureMode| {
        let detector = faulty_detector(&truth, faulty_plan());
        let mut engine = QueryEngine::new()
            .retry_policy(RetryPolicy::new(3).backoff_cost(4))
            .failure_mode(failure)
            .execution(mode)
            .expect("valid execution mode");
        engine
            .push(
                QuerySpec::new(
                    "solo",
                    Box::new(FrameSamplerPolicy::uniform(frames)),
                    &detector,
                )
                .seed(17)
                .batch(32)
                .frame_budget(600),
            )
            .unwrap();
        engine.run()
    };
    let degraded = |mode| run(mode, FailureMode::DropFrames).unwrap();
    let serial = degraded(ExecutionMode::Serial);
    assert!(serial.detect_retries > 0, "vacuous: no retries exercised");
    assert!(serial.failed_frames > 0, "vacuous: no failures exercised");
    let parallel = degraded(ExecutionMode::Parallel(2));
    assert_engine_reports_equal(&serial, &parallel, "serial vs 2 lanes");

    // Fail-fast: the same frame, after the same number of attempts, is
    // reported at either lane count — the lane is sorted, so both walk it in
    // frame order.
    let fatal = |mode| match run(mode, FailureMode::FailFast) {
        Err(EngineError::DetectorFailed {
            frame,
            attempts,
            source,
            ..
        }) => (frame, attempts, source),
        other => panic!("{mode:?}: expected DetectorFailed, got {other:?}"),
    };
    let (frame, attempts, source) = fatal(ExecutionMode::Serial);
    assert_eq!(attempts, 2, "batch probe + one per-frame try");
    assert!(matches!(source, DetectError::Permanent { .. }));
    assert_eq!(fatal(ExecutionMode::Parallel(2)), (frame, attempts, source));
}

#[test]
fn fail_fast_surfaces_a_typed_error_with_full_context() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 12);
    let plan = FaultPlan::new(FAULT_SEED).permanent_rate(0.10);

    let run = |router: ShardRouter, threads: usize| {
        let detector = faulty_detector(&truth, plan);
        let mut engine = QueryEngine::new()
            .sharded(router)
            .retry_policy(RetryPolicy::new(3).backoff_cost(2))
            .execution(ExecutionMode::Parallel(threads))
            .expect("valid execution mode");
        engine
            .push(
                QuerySpec::new(
                    "doomed",
                    Box::new(FrameSamplerPolicy::uniform(frames)),
                    &detector,
                )
                .seed(31)
                .batch(32)
                .frame_budget(1_000),
            )
            .unwrap();
        match engine.run().unwrap_err() {
            EngineError::DetectorFailed {
                class,
                frame,
                attempts,
                source,
            } => (class, frame, attempts, source),
            other => panic!("expected DetectorFailed, got {other:?}"),
        }
    };

    // One lane on the unsharded router: the stage is detected in place.
    let (class, frame, attempts, source) = run(ShardRouter::single(), 1);
    assert_eq!(class, "car");
    assert!(
        matches!(source, DetectError::Permanent { .. }),
        "a permanent fault must surface as its typed source"
    );
    assert_eq!(source.frame(), frame);
    // Probe + the mandatory single-frame identification try; `Permanent`
    // stops the retry budget (3 attempts) from being burned.
    assert_eq!(attempts, 2);
    let err = EngineError::DetectorFailed {
        class: class.clone(),
        frame,
        attempts,
        source: source.clone(),
    };
    assert!(err.to_string().contains("`car`"));
    assert!(err.to_string().contains(&format!("frame {frame}")));
    let chained = std::error::Error::source(&err).expect("DetectorFailed chains its source");
    assert!(chained.to_string().contains("permanent"));

    // The first fatal frame in gather order is pinned for every lane count
    // and every router: the scatter stops there whatever the lanes beyond it
    // went on to detect, and a router only attributes tallies.
    let mut routers = vec![("unsharded".to_string(), ShardRouter::single())];
    for shards in [1u32, 3, 7] {
        for partitioner in [ShardPartitioner::RoundRobin, ShardPartitioner::Contiguous] {
            let spec = ShardSpec::new(partitioner, chunking.len(), shards);
            let router = ShardRouter::new(&chunking, &spec).unwrap();
            routers.push((format!("{partitioner:?}/{shards} shards"), router));
        }
    }
    for (layout, router) in routers {
        for threads in [1usize, 2, 4] {
            let context = format!("{layout}/{threads} lanes");
            let failure = run(router.clone(), threads);
            assert_eq!(
                failure,
                (class.clone(), frame, attempts, source.clone()),
                "{context}"
            );
        }
    }
}

#[test]
fn failed_frames_are_never_cached_and_recovered_frames_commit_once() {
    let frames = 400u64;
    let (_chunking, truth) = skewed_setup(frames, 12);
    let plan = FaultPlan::new(FAULT_SEED)
        .transient_rate(0.20)
        .transient_attempts(2)
        .permanent_rate(0.05);
    let detector = faulty_detector(&truth, plan);
    let mut engine = QueryEngine::new()
        .cache_capacity(4_096)
        .retry_policy(RetryPolicy::new(3).backoff_cost(2))
        .failure_mode(FailureMode::DropFrames);
    engine
        .push(
            QuerySpec::new(
                "cold",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(41)
            .batch(32),
        )
        .unwrap();
    let cold = engine.run().unwrap();
    let cold_dropped = cold.outcomes[0].dropped_frames;
    let cold_retries = cold.detect_retries;
    let cold_failed = cold.failed_frames;
    assert!(cold_dropped > 0, "vacuous: no permanent faults scheduled");
    assert!(cold_retries > 0, "vacuous: no transient faults scheduled");
    assert_eq!(
        cold.outcomes[0].frames_processed,
        frames - cold_dropped,
        "a dropped frame is never observed by its query"
    );

    // Warm re-query over the same full range.  Every frame that succeeded —
    // directly or via a retry — was committed exactly once and is served from
    // the cache: zero further retries.  Every frame that failed was *never*
    // committed: the warm query re-attempts and re-drops exactly those.
    engine
        .push(
            QuerySpec::new(
                "warm",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(43)
            .batch(32),
        )
        .unwrap();
    let warm = engine.run().unwrap();
    assert_eq!(
        warm.detect_retries, cold_retries,
        "recovered frames must be cache hits on the warm run — a repeat retry \
         means a successful recovery was not committed"
    );
    assert_eq!(
        warm.outcomes[1].dropped_frames, cold_dropped,
        "the warm query must re-drop exactly the frames that failed cold"
    );
    assert_eq!(
        warm.failed_frames,
        cold_failed * 2,
        "failed frames must miss the cache and fail again"
    );
    let stats = engine.cache_stats().expect("cache is configured");
    assert!(stats.hits > 0, "the warm query never hit the cache");
}

#[test]
fn retry_budget_is_spent_exactly_on_faults_that_outlast_it() {
    // Every frame fails its first 10 attempts, more than the batch probe plus
    // a 3-attempt budget can reach: each frame is tried exactly 3 times on its
    // own (2 retries), then dropped.  Pinned counts, not a differential: a
    // budget off by one in either direction moves every one of them.
    let frames = 96u64;
    let (_chunking, truth) = skewed_setup(frames, 12);
    let plan = FaultPlan::new(FAULT_SEED)
        .transient_rate(1.0)
        .transient_attempts(10);
    let detector = faulty_detector(&truth, plan);
    let mut engine = QueryEngine::new()
        .retry_policy(RetryPolicy::new(3))
        .failure_mode(FailureMode::DropFrames);
    engine
        .push(
            QuerySpec::new(
                "budget",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(5)
            .batch(16),
        )
        .unwrap();
    let report = engine.run().unwrap();
    let query = &report.outcomes[0];
    assert_eq!(query.dropped_frames, 96, "every frame exhausts its budget");
    assert_eq!(
        query.frames_processed, 0,
        "a dropped frame is never observed"
    );
    assert_eq!(report.failed_frames, 96);
    assert_eq!(report.detect_retries, 192, "2 retries per frame");
    // 6 batch probes of 16 frames, then 3 single-frame tries per frame.
    assert_eq!(detector.injected_faults(), 96 + 96 * 3);
    assert_eq!(query.stop_reason, Some(StopReason::RepositoryExhausted));
}

/// A detector whose every `Ok` answer carries one detection set fewer than
/// the frames it was asked about.
struct OneShort(PerfectDetector);

impl Detector for OneShort {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.0.detect(frame)
    }

    fn class(&self) -> &ObjectClass {
        self.0.class()
    }

    fn try_detect_batch(
        &self,
        frames: &[FrameId],
        out: &mut Vec<FrameDetections>,
    ) -> Result<(), DetectError> {
        self.0.detect_batch(frames, out);
        out.pop();
        Ok(())
    }
}

#[test]
fn an_ok_answer_one_result_short_fails_its_frames() {
    // Every batch probe comes back one short, so it is recovered per frame,
    // and every one-frame try comes back empty: a permanent failure.
    let frames = 400u64;
    let (_chunking, truth) = skewed_setup(frames, 12);
    let detector = OneShort(PerfectDetector::new(
        Arc::clone(&truth),
        ObjectClass::from("car"),
    ));
    let run = |mode: ExecutionMode, failure: FailureMode| {
        let mut engine = QueryEngine::new()
            .retry_policy(RetryPolicy::new(3))
            .failure_mode(failure)
            .execution(mode)
            .expect("valid execution mode");
        engine
            .push(
                QuerySpec::new(
                    "short",
                    Box::new(FrameSamplerPolicy::uniform(frames)),
                    &detector,
                )
                .seed(19)
                .batch(32)
                .frame_budget(200),
            )
            .unwrap();
        engine.run()
    };

    let fatal = |mode| match run(mode, FailureMode::FailFast) {
        Err(EngineError::DetectorFailed {
            frame,
            attempts,
            source,
            ..
        }) => (frame, attempts, source),
        other => panic!("{mode:?}: expected DetectorFailed, got {other:?}"),
    };
    let (frame, attempts, source) = fatal(ExecutionMode::Serial);
    assert_eq!(attempts, 2, "batch probe + one per-frame try");
    assert!(matches!(source, DetectError::Permanent { .. }));
    assert_eq!(source.frame(), frame);
    assert_eq!(fatal(ExecutionMode::Parallel(2)), (frame, attempts, source));

    for mode in [ExecutionMode::Serial, ExecutionMode::Parallel(2)] {
        let report = run(mode, FailureMode::DropFrames).unwrap();
        let query = &report.outcomes[0];
        assert!(report.failed_frames > 0, "{mode:?}: no frame failed");
        assert_eq!(
            report.failed_frames, query.dropped_frames,
            "{mode:?}: every dropped frame is a failed frame"
        );
        assert_eq!(query.frames_processed, 0, "{mode:?}: a frame was observed");
    }
}
