//! Lifecycle guarantees of the persistent worker-pool runtime:
//!
//! 1. pool helper threads are spawned once per run — not per stage: an
//!    `n`-lane run detects on at most `n` distinct threads however many
//!    stages it has (thread ids are never reused, so a per-stage spawn would
//!    show more), and a run's `std::thread::scope` joins its helpers before
//!    `run` returns;
//! 2. a panicking detector on any lane — a helper thread *or* the
//!    coordinator's inline lane — surfaces as a typed
//!    [`EngineError::WorkerPanicked`] carrying the panic message, never a
//!    deadlock or an unwinding coordinator — and the same engine can be run
//!    again, while a panicking stage hook unwinds out of a parallel run
//!    without hanging on its helpers; and
//! 3. a fully cache-warm stage skips pool dispatch entirely (no slice is
//!    queued on a helper), pinned via [`QueryEngine::pooled_stage_dispatches`]
//!    (the probe runs before the gather, so a warm stage has no slice to hand
//!    out); and
//! 4. cache accounting does not depend on the lanes: the hit/miss/eviction
//!    tallies of a cold run followed by a warm re-query are bitwise-identical
//!    for every lane count; and
//! 5. lanes share every stage evenly: demand that one shard of a four-shard
//!    view owns entirely is still split in half over two lanes (and its
//!    calls attributed to that shard), an engine uses every lane it was
//!    given — and stays bitwise the serial run — and no detector is ever
//!    handed an empty batch.

mod common;

use exsample_detect::{
    Detector, FrameDetections, GroundTruth, ObjectClass, ObjectInstance, PerfectDetector,
};
use exsample_engine::{
    EngineError, ExecutionMode, FrameSamplerPolicy, QueryEngine, QuerySpec, ShardRouter, StageStats,
};
use exsample_video::{Chunking, ChunkingPolicy, FrameId, ShardSpec, VideoRepository};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn setup(frames: u64) -> Arc<GroundTruth> {
    let mut instances = Vec::new();
    let span = (frames / 32).max(2);
    for i in 0..6u64 {
        let start = frames / 2 + i * span;
        if start >= frames {
            break;
        }
        instances.push(ObjectInstance::simple(
            i,
            "car",
            start,
            (start + span).min(frames - 1),
        ));
    }
    Arc::new(GroundTruth::from_instances(frames, instances))
}

/// A detector that counts its batched invocations, logs their sizes and the
/// threads that made them, and refuses an empty one.
struct ObservantDetector {
    inner: PerfectDetector,
    batch_calls: AtomicU64,
    batch_sizes: Mutex<Vec<usize>>,
    threads: Mutex<HashSet<ThreadId>>,
}

impl ObservantDetector {
    fn new(truth: Arc<GroundTruth>) -> Self {
        ObservantDetector {
            inner: PerfectDetector::new(truth, ObjectClass::from("car")),
            batch_calls: AtomicU64::new(0),
            batch_sizes: Mutex::new(Vec::new()),
            threads: Mutex::new(HashSet::new()),
        }
    }

    /// Distinct threads that have called `detect_batch` so far.
    fn distinct_threads(&self) -> usize {
        self.threads.lock().unwrap().len()
    }
}

impl Detector for ObservantDetector {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        self.inner.detect(frame)
    }

    fn detect_batch(&self, frames: &[FrameId], out: &mut Vec<FrameDetections>) {
        assert!(!frames.is_empty(), "an empty batch reached the detector");
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        self.batch_sizes.lock().unwrap().push(frames.len());
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        self.inner.detect_batch(frames, out);
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

/// A detector that panics on frames at or beyond a threshold.
struct BombDetector {
    inner: PerfectDetector,
    panic_at: FrameId,
}

impl Detector for BombDetector {
    fn detect(&self, frame: FrameId) -> FrameDetections {
        assert!(frame < self.panic_at, "bomb detector refuses frame {frame}");
        self.inner.detect(frame)
    }

    fn class(&self) -> &ObjectClass {
        self.inner.class()
    }
}

fn pooled_engine<'a>(threads: usize) -> QueryEngine<'a> {
    QueryEngine::new()
        .execution(ExecutionMode::Parallel(threads))
        .unwrap()
}

#[test]
fn pooled_runs_detect_on_at_most_n_threads() {
    let frames = 2_000u64;
    let truth = setup(frames);
    for round in 0..5 {
        let detector = ObservantDetector::new(Arc::clone(&truth));
        let mut engine = pooled_engine(3);
        for (label, seed) in [("a", 40u64 + round), ("b", 50 + round)] {
            engine
                .push(
                    QuerySpec::new(
                        label,
                        Box::new(FrameSamplerPolicy::uniform(frames)),
                        &detector,
                    )
                    .seed(seed)
                    .batch(16)
                    .frame_budget(200),
                )
                .unwrap();
        }
        let report = engine.run().unwrap();
        let stages = report.stages;
        assert_eq!(report.outcomes.len(), 2);
        assert!(detector.batch_calls.load(Ordering::SeqCst) > 0);
        assert!(engine.pooled_stage_dispatches() > 0, "pool was never used");
        assert!(
            stages > 1,
            "the spawn-per-run check needs a multi-stage run"
        );
        // The coordinator plus n - 1 = 2 helpers spawned for the whole run —
        // once per run, NOT once per stage: thread ids are never reused, so
        // a per-stage spawn would show more than 3 distinct callers.
        let threads = detector.distinct_threads();
        assert!(
            (1..=3).contains(&threads),
            "round {round}: {threads} threads detected over {stages} stages"
        );
    }
}

#[test]
fn helper_lane_detector_panic_is_a_typed_error() {
    let frames = 3_000u64;
    let truth = setup(frames);
    // Coalesced lanes: a stage's demand is gathered in ascending frame order,
    // so the last third of the frame range falls into the last of the 3
    // lanes — a pool helper's slice (or one the coordinator reclaims); the
    // coordinator's inline lane is the first.
    let detector = BombDetector {
        inner: PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car")),
        panic_at: frames * 2 / 3,
    };
    let mut engine = pooled_engine(3);
    engine
        .push(
            QuerySpec::new(
                "doomed",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(7)
            .batch(64)
            .frame_budget(500),
        )
        .unwrap();
    let err = engine.run().unwrap_err();
    match err {
        EngineError::WorkerPanicked { ref message } => {
            assert!(
                message.contains("bomb detector refuses frame"),
                "unexpected message: {message}"
            );
        }
        ref other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(err.to_string().contains("worker lane panicked"));

    // The pool died with its run, cleanly: the same engine runs again — into
    // the same bomb, typed again — on a fresh set of helpers.
    let again = engine.run().unwrap_err();
    assert!(
        matches!(again, EngineError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got {again:?}"
    );
}

#[test]
fn inline_lane_detector_panic_is_a_typed_error() {
    let frames = 3_000u64;
    let truth = setup(frames);
    // Panic on every frame but frame 0: the coordinator's inline lane meets
    // one first.  The runtime catches it exactly like a helper panic.
    let detector = BombDetector {
        inner: PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car")),
        panic_at: 1,
    };
    let mut engine = pooled_engine(3);
    engine
        .push(
            QuerySpec::new(
                "doomed",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(11)
            .batch(64)
            .frame_budget(500),
        )
        .unwrap();
    let err = engine.run().unwrap_err();
    assert!(
        matches!(err, EngineError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got {err:?}"
    );
}

#[test]
fn a_panicking_stage_hook_unwinds_a_parallel_run() {
    let frames = 2_000u64;
    let truth = setup(frames);
    let detector = ObservantDetector::new(Arc::clone(&truth));
    let mut engine = pooled_engine(2);
    engine
        .push(
            QuerySpec::new(
                "hooked",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(17)
            .batch(16)
            .frame_budget(200),
        )
        .unwrap();
    // The hook panics after the first stage, with the pool's helper parked
    // on its turnstile: the run must drop the pool on the way out, or the
    // scope's join would wait on the helper forever.
    let payload = catch_unwind(AssertUnwindSafe(|| {
        engine.run_with(|_: &StageStats| panic!("hook"))
    }))
    .expect_err("the hook's panic propagates out of run_with");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"hook"));
    assert_eq!(engine.pooled_stage_dispatches(), 1);

    // The engine is left between stages: it runs on, on a fresh pool.
    let report = engine.run().unwrap();
    assert_eq!(report.outcomes[0].frames_processed, 200);
    assert!(detector.distinct_threads() <= 3);
}

#[test]
fn fully_cache_warm_stages_skip_pool_dispatch() {
    let frames = 400u64;
    let truth = setup(frames);
    let detector = ObservantDetector::new(Arc::clone(&truth));
    let mut engine = pooled_engine(3).cache_capacity(4_096);
    engine
        .push(
            QuerySpec::new(
                "cold",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(3)
            .batch(32),
        )
        .unwrap();
    let cold = engine.run().unwrap();
    assert_eq!(cold.outcomes[0].frames_processed, frames);
    let cold_dispatches = engine.pooled_stage_dispatches();
    let cold_calls = detector.batch_calls.load(Ordering::SeqCst);
    assert!(cold_dispatches > 0, "cold run never used the pool");
    assert!(cold_calls > 0);

    // The warm re-query finds every frame in the cache: zero detector
    // invocations *and* zero pool dispatches — warm stages never pay even a
    // channel wake.
    engine
        .push(
            QuerySpec::new(
                "warm",
                Box::new(FrameSamplerPolicy::uniform(frames)),
                &detector,
            )
            .seed(5)
            .batch(32),
        )
        .unwrap();
    let warm = engine.run().unwrap();
    assert_eq!(warm.outcomes[1].frames_processed, frames);
    assert_eq!(
        detector.batch_calls.load(Ordering::SeqCst),
        cold_calls,
        "warm re-query must be served entirely from the cache"
    );
    assert_eq!(
        engine.pooled_stage_dispatches(),
        cold_dispatches,
        "cache-warm stages must skip pool dispatch entirely"
    );
}

#[test]
fn cold_then_warm_cache_accounting_is_lane_count_invariant() {
    let frames = 400u64;
    let truth = setup(frames);
    // A cold run followed by a warm re-query on the same engine:
    // hit/miss/eviction tallies (and reports) must be bitwise-identical
    // however many lanes DETECT is cut over.
    let run = |mode: ExecutionMode| {
        let detector = ObservantDetector::new(Arc::clone(&truth));
        let mut engine = QueryEngine::new()
            .execution(mode)
            .expect("valid execution mode")
            .cache_capacity(64);
        for (label, seed) in [("cold", 3u64), ("warm", 5)] {
            engine
                .push(
                    QuerySpec::new(
                        label,
                        Box::new(FrameSamplerPolicy::uniform(frames)),
                        &detector,
                    )
                    .seed(seed)
                    .batch(32),
                )
                .unwrap();
            let _ = engine.run().unwrap();
        }
        let stats = engine.cache_stats().expect("cache is configured");
        (stats, engine.report_sharded())
    };
    let (reference_stats, reference) = run(ExecutionMode::Serial);
    // Capacity 64 over 400 frames: the run genuinely exercises eviction, and
    // the warm query still lands some hits.
    assert!(reference_stats.hits > 0, "warm query never hit the cache");
    assert!(reference_stats.evictions > 0, "cache never evicted");
    for threads in [1usize, 2, 4] {
        let context = format!("{threads} threads");
        let (stats, report) = run(ExecutionMode::Parallel(threads));
        assert_eq!(stats, reference_stats, "{context}: cache accounting");
        assert_eq!(
            report.report.outcomes.len(),
            reference.report.outcomes.len()
        );
        for (a, b) in report
            .report
            .outcomes
            .iter()
            .zip(&reference.report.outcomes)
        {
            assert_eq!(a.frames_processed, b.frames_processed, "{context}: frames");
            assert_eq!(a.trajectory, b.trajectory, "{context}: trajectory");
            assert_eq!(a.stop_reason, b.stop_reason, "{context}: stop reason");
        }
    }
}

#[test]
fn skewed_demand_is_shared_evenly_by_the_lanes() {
    let frames = 4_000u64;
    let truth = setup(frames);
    let chunking = Chunking::new(
        &VideoRepository::single_clip(frames),
        ChunkingPolicy::FixedCount { chunks: 8 },
    );
    let detector = ObservantDetector::new(Arc::clone(&truth));
    // A view of four contiguous shards of 1000 frames, and a sampler that
    // only ever picks from the first thousand: shard 0 owns every frame of
    // every stage.  The two lanes still get half the stage each, and the
    // view attributes every call to shard 0.
    let spec = ShardSpec::contiguous(chunking.len(), 4);
    let mut engine = pooled_engine(2).sharded(ShardRouter::new(&chunking, &spec).unwrap());
    engine
        .push(
            QuerySpec::new(
                "hot",
                Box::new(FrameSamplerPolicy::uniform(1_000)),
                &detector,
            )
            .seed(13)
            .batch(33)
            .frame_budget(330),
        )
        .unwrap();
    let report = engine
        .run_with(|stats: &StageStats| {
            let mut sizes = std::mem::take(&mut *detector.batch_sizes.lock().unwrap());
            sizes.sort_unstable();
            let n = stats.detector_frames as usize;
            assert_eq!(n, 33);
            assert_eq!(sizes, vec![n / 2, n.div_ceil(2)], "stage {}", stats.stage);
        })
        .unwrap();
    assert_eq!(report.stages, 10);
    assert_eq!(engine.pooled_stage_dispatches(), 10);
    let merged = engine.report_sharded();
    assert_eq!(merged.shards[0].detector_frames, 330);
    assert_eq!(merged.shards[0].detector_calls, 20);
    for cold in &merged.shards[1..] {
        assert_eq!((cold.detector_frames, cold.detector_calls), (0, 0));
    }
}

#[test]
fn an_unsharded_engine_uses_its_lanes_and_matches_the_serial_run() {
    let frames = 2_000u64;
    let truth = setup(frames);
    // One query (which a serial run detects straight from its pick buffer)
    // and two (which it gathers): on two lanes both go through the slices,
    // and nothing but the physical batch shape may tell.
    for queries in [1usize, 2] {
        let run = |mode: ExecutionMode| {
            let detector = ObservantDetector::new(Arc::clone(&truth));
            let mut engine = QueryEngine::new().execution(mode).unwrap();
            for (label, seed) in [("a", 61u64), ("b", 67)].into_iter().take(queries) {
                engine
                    .push(
                        QuerySpec::new(
                            label,
                            Box::new(FrameSamplerPolicy::uniform(frames)),
                            &detector,
                        )
                        .seed(seed)
                        .batch(16)
                        .frame_budget(200),
                    )
                    .unwrap();
            }
            let _ = engine.run().unwrap();
            let pool = (
                detector.distinct_threads(),
                engine.pooled_stage_dispatches(),
            );
            (engine.report_sharded(), pool)
        };
        let (serial, serial_pool) = run(ExecutionMode::Serial);
        assert_eq!(serial_pool, (1, 0));
        common::assert_physical_shape(&serial, 1, "serial");
        assert!(serial.report.outcomes.iter().any(|q| q.true_found > 0));

        let (parallel, (threads, dispatches)) = run(ExecutionMode::Parallel(2));
        let context = format!("{queries} queries");
        assert!(
            threads <= 2,
            "{context}: {threads} threads, one helper at most"
        );
        assert_eq!(dispatches, serial.report.stages, "{context}");
        common::assert_physical_shape(&parallel, 2, &context);
        assert!(parallel.physical_detector_calls > serial.physical_detector_calls);
        assert_eq!(
            common::logical_shards(&parallel),
            common::logical_shards(&serial),
            "{context}: per-shard breakdown"
        );
        let (p, s) = (&parallel.report, &serial.report);
        assert_eq!(
            (
                p.stages,
                p.demanded_frames,
                p.detector_frames,
                p.detector_calls
            ),
            (
                s.stages,
                s.demanded_frames,
                s.detector_frames,
                s.detector_calls
            ),
            "{context}: run totals"
        );
        for (a, b) in p.outcomes.iter().zip(&s.outcomes) {
            assert_eq!(a.frames_processed, b.frames_processed, "{context}");
            assert_eq!(a.found_instances, b.found_instances, "{context}");
            assert_eq!(a.trajectory, b.trajectory, "{context}");
            assert_eq!(a.stop_reason, b.stop_reason, "{context}");
        }
    }
}
