//! Fault-tolerance guarantees of the engine, pinned end to end.  The engine
//! has one failure rule: a failed batch probe tries each of its frames once
//! on its own, and a frame that fails that try aborts the stage with
//! [`EngineError::DetectorFailed`].
//!
//! 1. **fault-free identity** — a fault-injecting wrapper with no faults
//!    scheduled changes nothing, bitwise, physical calls included;
//! 2. **fault determinism matrix** — for a fixed seed and a [`FaultPlan`]
//!    whose every fault the per-frame try recovers, runs are
//!    bitwise-identical — reports and logical breakdowns, cache accounting
//!    included — across threads {1, 2, 4}, with and without an evicting
//!    cache, and equal to the fault-free run: a failed batch recovers per
//!    frame, so it never matters which frames shared it;
//! 3. **fail-fast** — the first frame that fails its per-frame try (in
//!    gather order) surfaces as a typed [`EngineError::DetectorFailed`] with
//!    full context and a chained source, identically across thread counts
//!    and shard routers — a one-batch stage detected in place and one cut
//!    over lanes share one per-frame try and walk the lane in the same order;
//! 4. **cache hygiene** — frames recovered by their per-frame try are
//!    committed exactly once (a warm re-query calls the detector zero more
//!    times), and a failed stage aborts before its cache commit, so nothing
//!    it detected is cached; and
//! 5. **miscounted answers fail** — an `Ok` that does not carry one detection
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
    EngineError, EngineReport, ExSamplePolicy, ExecutionMode, FrameSamplerPolicy, QueryEngine,
    QueryReport, QuerySpec, ShardRouter, ShardedReport, StageStats,
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

/// The standard fault schedule the determinism matrix runs under: one frame
/// in ten fails its batch probe and recovers on its per-frame try,
/// deterministically from `FAULT_SEED`.
fn recovered_plan() -> FaultPlan {
    FaultPlan::new(FAULT_SEED).transient_rate(0.10)
}

/// [`recovered_plan`] plus frames that fail every attempt: the first of them
/// a run reaches aborts it.
fn fatal_plan() -> FaultPlan {
    recovered_plan().permanent_rate(0.03)
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
fn fault_free_runs_through_the_fault_wrapper_match_the_baseline() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 12);

    // The raw detector.
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

    // A fault wrapper in place, but a zero-rate plan: nothing may change,
    // bitwise.
    let (guarded, guarded_calls) = {
        let detector = faulty_detector(&truth, FaultPlan::new(FAULT_SEED));
        let mut engine = QueryEngine::new();
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let report = engine.run().unwrap();
        assert_eq!(detector.injected_faults(), 0, "zero-rate plan injected");
        (report, engine.report_sharded().physical_detector_calls)
    };
    assert_engine_reports_equal(&guarded, &baseline, "fault-free guarded vs baseline");
    assert_eq!(guarded_calls, baseline_calls, "physical detector calls");
}

#[test]
fn degraded_runs_are_bitwise_deterministic_across_the_execution_matrix() {
    let frames = 3_000u64;
    let (chunking, truth) = skewed_setup(frames, 21);

    // Every fault of the plan is recovered by its frame's per-frame try, so
    // each run completes; the detections cache, when on, is small enough to
    // evict.
    let run = |mode: ExecutionMode, cache: usize, plan: FaultPlan| {
        let detector = faulty_detector(&truth, plan);
        let mut engine = QueryEngine::new()
            .cache_capacity(cache)
            .execution(mode)
            .expect("valid execution mode");
        for spec in fault_specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        let _ = engine.run().unwrap();
        (engine.report_sharded(), detector.injected_faults())
    };

    for cache in [0usize, 256] {
        // Baseline: serial.  The assertions below are only meaningful if the
        // plan genuinely injected faults, so pin that first.
        let (baseline, injected) = run(ExecutionMode::Serial, cache, recovered_plan());
        assert!(
            injected > 0,
            "cache {cache}: the plan injected no fault — the matrix would be vacuous"
        );
        assert!(
            baseline.report.outcomes.iter().any(|r| r.true_found > 0),
            "cache {cache}: the faulty run found nothing at all"
        );
        if cache > 0 {
            let activity = baseline.report.cache;
            assert!(
                activity.misses > 0 && activity.evictions > 0,
                "the cache axis is vacuous without misses and evictions"
            );
        }
        // Recovered faults cost physical calls only: the logical run is the
        // fault-free one's.
        let (fault_free, _) = run(ExecutionMode::Serial, cache, FaultPlan::new(FAULT_SEED));
        assert_sharded_reports_equal(&baseline, &fault_free, &format!("cache {cache}/fault-free"));
        assert!(baseline.physical_detector_calls > fault_free.physical_detector_calls);

        // The lanes cut failed and healthy batches differently at every
        // thread count, and tally the same.
        for threads in [1usize, 2, 4] {
            let (parallel, _) = run(ExecutionMode::Parallel(threads), cache, recovered_plan());
            let context = format!("cache {cache}/{threads} threads");
            assert_sharded_reports_equal(&parallel, &baseline, &context);
        }
    }
}

#[test]
fn single_query_fault_recovery_is_lane_count_invariant() {
    // A single query's stage is one batch when serial — detected in place —
    // and cut over the lanes under `Parallel(2)`.  Both try a failed batch
    // probe's frames one by one through the same per-frame try, in lane
    // order, so a run must be bitwise-identical either way.
    let frames = 3_000u64;
    let (_chunking, truth) = skewed_setup(frames, 12);
    let run = |mode: ExecutionMode, plan: FaultPlan| {
        let detector = faulty_detector(&truth, plan);
        let mut engine = QueryEngine::new()
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
    let recovered = |mode| run(mode, recovered_plan()).unwrap();
    let serial = recovered(ExecutionMode::Serial);
    let parallel = recovered(ExecutionMode::Parallel(2));
    assert_engine_reports_equal(&serial, &parallel, "serial vs 2 lanes");

    // Fail-fast: the same frame, after the same number of attempts, is
    // reported at either lane count — the lane is sorted, so both walk it in
    // frame order.
    let fatal = |mode| match run(mode, fatal_plan()) {
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
    // The batch probe + the one per-frame identification try.
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
    const FRAMES: u64 = 400;
    fn uniform<'a>(label: &str, seed: u64, detector: &'a dyn Detector) -> QuerySpec<'a> {
        QuerySpec::new(
            label,
            Box::new(FrameSamplerPolicy::uniform(FRAMES)),
            detector,
        )
        .seed(seed)
        .batch(32)
    }
    let (_chunking, truth) = skewed_setup(FRAMES, 12);

    // Every fault recovers, so the cold run detects the whole range.
    let detector = faulty_detector(&truth, recovered_plan().transient_rate(0.20));
    let mut engine = QueryEngine::new().cache_capacity(4_096);
    engine.push(uniform("cold", 41, &detector)).unwrap();
    let cold = engine.run().unwrap();
    assert_eq!(cold.outcomes[0].frames_processed, FRAMES);
    let cold_calls = engine.report_sharded().physical_detector_calls;
    let injected = detector.injected_faults();
    assert!(injected > 0, "vacuous: no fault injected");

    // Warm re-query over the same full range: every frame — recovered ones
    // included — was committed exactly once and is served from the cache, so
    // the detector is called zero more times.
    engine.push(uniform("warm", 43, &detector)).unwrap();
    let warm = engine.run().unwrap();
    assert_eq!(warm.outcomes[1].frames_processed, FRAMES);
    assert_eq!(
        engine.report_sharded().physical_detector_calls,
        cold_calls,
        "a warm re-query must call the detector zero more times"
    );
    assert_eq!(detector.injected_faults(), injected);
    assert_eq!(warm.detector_frames, cold.detector_frames);
    let cached = engine.cache_stats().expect("cache is configured").len;
    assert_eq!(cached as u64, FRAMES);

    // A frame that fails aborts its stage before the cache commit: the cache
    // holds exactly the frames of the stages that settled, none of the
    // failed stage's.
    let detector = faulty_detector(&truth, fatal_plan());
    let mut engine = QueryEngine::new().cache_capacity(4_096);
    engine.push(uniform("doomed", 41, &detector)).unwrap();
    let mut settled = 0u64;
    let failed = engine.run_with(|stats: &StageStats| settled += stats.detector_frames);
    assert!(settled > 0, "vacuous: the first stage failed");
    assert!(
        matches!(failed, Err(EngineError::DetectorFailed { .. })),
        "expected DetectorFailed, got {failed:?}"
    );
    let cached = engine.cache_stats().expect("cache is configured").len as u64;
    assert_eq!(cached, settled, "the failed stage committed nothing");
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
    let run = |mode: ExecutionMode| {
        let mut engine = QueryEngine::new()
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

    let fatal = |mode| match run(mode) {
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
}
