//! The stage-sink checkpoint seam, pinned down:
//!
//! 1. installing a sink never changes any query's outcome;
//! 2. the observation stream — (stage, query, frame, n1_delta, new hits,
//!    new instances), in (query registration, pick) order — is
//!    bitwise-identical between serial and parallel execution, because the
//!    sink is flushed at the serial stage-commit boundary in every
//!    configuration;
//! 3. the stream is internally consistent with the run's report (observation
//!    counts vs frames processed, summed hits vs true found); and
//! 4. a sink refusal aborts the run as `EngineError::CheckpointFailed` with
//!    the sink's own message and the offending stage.

use exsample_core::ExSampleConfig;
use exsample_detect::{GroundTruth, ObjectClass, ObjectInstance, PerfectDetector};
use exsample_engine::{
    EngineError, ExSamplePolicy, ExecutionMode, FrameSamplerPolicy, QueryEngine, QueryReport,
    QuerySpec, StageObservation, StageSink,
};
use exsample_video::{Chunking, ChunkingPolicy, VideoRepository};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One recorded flush: the committed stage and its observations, verbatim.
type RecordedStages = Rc<RefCell<Vec<(u64, Vec<StageObservation>)>>>;

/// A sink that records every flush verbatim.
struct RecordingSink {
    stages: RecordedStages,
}

impl StageSink for RecordingSink {
    fn stage_committed(
        &mut self,
        stage: u64,
        observations: &[StageObservation],
    ) -> Result<(), String> {
        self.stages
            .borrow_mut()
            .push((stage, observations.to_vec()));
        Ok(())
    }
}

/// A sink that refuses every flush from `fail_at` onwards.
struct FailingSink {
    fail_at: u64,
}

impl StageSink for FailingSink {
    fn stage_committed(&mut self, stage: u64, _: &[StageObservation]) -> Result<(), String> {
        if stage >= self.fail_at {
            Err(format!("durable store rejected stage {stage}"))
        } else {
            Ok(())
        }
    }
}

fn setup(frames: u64, chunks: u32) -> (Chunking, Arc<GroundTruth>) {
    let repo = VideoRepository::single_clip(frames);
    let chunking = Chunking::new(&repo, ChunkingPolicy::FixedCount { chunks });
    let mut instances = Vec::new();
    let start0 = frames * 3 / 5;
    let span = (frames / 48).max(2);
    for i in 0..12u64 {
        let start = start0 + i * span;
        if start >= frames {
            break;
        }
        instances.push(ObjectInstance::simple(
            i,
            "car",
            start,
            (start + span * 2).min(frames - 1),
        ));
    }
    let truth = Arc::new(GroundTruth::from_instances(frames, instances));
    (chunking, truth)
}

fn specs<'a>(
    chunking: &Chunking,
    frames: u64,
    detector: &'a PerfectDetector,
) -> Vec<QuerySpec<'a>> {
    vec![
        QuerySpec::new(
            "exsample",
            Box::new(ExSamplePolicy::new(ExSampleConfig::default(), chunking)),
            detector,
        )
        .seed(301)
        .batch(8)
        .frame_budget(600),
        QuerySpec::new(
            "random",
            Box::new(FrameSamplerPolicy::uniform(frames)),
            detector,
        )
        .seed(302)
        .batch(4)
        .frame_budget(300),
    ]
}

type Flushes = Vec<(u64, Vec<StageObservation>)>;

/// `QueryReport` deliberately has no `PartialEq`; compare the outcome fields
/// the sink could plausibly perturb.
fn assert_outcomes_equal(a: &[QueryReport], b: &[QueryReport], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: query count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label, "{context}: label");
        assert_eq!(
            x.frames_processed, y.frames_processed,
            "{context}: frames ({})",
            x.label
        );
        assert_eq!(x.true_found, y.true_found, "{context}: true ({})", x.label);
        assert_eq!(
            x.found_instances, y.found_instances,
            "{context}: instances ({})",
            x.label
        );
        assert_eq!(
            x.stop_reason, y.stop_reason,
            "{context}: stop ({})",
            x.label
        );
    }
}

/// Run the standard queries under `configure`, with a recording sink, and
/// return the flush log plus the per-query outcomes.
fn run_recorded(
    chunking: &Chunking,
    frames: u64,
    truth: &Arc<GroundTruth>,
    configure: impl FnOnce(QueryEngine<'_>) -> QueryEngine<'_>,
) -> (Flushes, Vec<QueryReport>) {
    let detector = PerfectDetector::new(Arc::clone(truth), ObjectClass::from("car"));
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut engine = configure(QueryEngine::new()).stage_sink(Box::new(RecordingSink {
        stages: Rc::clone(&log),
    }));
    for spec in specs(chunking, frames, &detector) {
        engine.push(spec).unwrap();
    }
    let report = engine.run().unwrap();
    drop(engine);
    let flushes = Rc::try_unwrap(log).unwrap().into_inner();
    (flushes, report.outcomes)
}

#[test]
fn observation_stream_is_execution_invariant_and_consistent() {
    let frames = 6_000u64;
    let (chunking, truth) = setup(frames, 9);

    // Reference: no sink at all — installing one must not perturb outcomes.
    let plain = {
        let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));
        let mut engine = QueryEngine::new();
        for spec in specs(&chunking, frames, &detector) {
            engine.push(spec).unwrap();
        }
        engine.run().unwrap().outcomes
    };

    let (baseline, outcomes) = run_recorded(&chunking, frames, &truth, |e| e);
    assert_outcomes_equal(&outcomes, &plain, "a sink must be a pure observer");
    assert!(!baseline.is_empty(), "setup committed no stages");

    // Internal consistency against the reports.
    let observed: usize = baseline.iter().map(|(_, obs)| obs.len()).sum();
    let processed: u64 = outcomes.iter().map(|r| r.frames_processed).sum();
    assert_eq!(observed as u64, processed);
    let hits: u64 = baseline
        .iter()
        .flat_map(|(_, obs)| obs)
        .map(|o| o.new_hits)
        .sum();
    let found: u64 = outcomes.iter().map(|r| r.true_found as u64).sum();
    assert_eq!(hits, found, "summed hits must equal the reports'");
    for (_, obs) in &baseline {
        for o in obs {
            assert_eq!(o.new_instances.len() as u64, o.new_hits);
        }
    }
    // Stages flush in order, each exactly once.
    for (i, (stage, _)) in baseline.iter().enumerate() {
        assert_eq!(*stage, i as u64);
    }

    // Execution invariance: parallel runs flush the identical stream.
    let (flushes, parallel) = run_recorded(&chunking, frames, &truth, |e| {
        e.execution(ExecutionMode::Parallel(2))
            .expect("valid execution mode")
    });
    assert_eq!(flushes, baseline, "observation stream diverged");
    assert_outcomes_equal(&parallel, &outcomes, "parallel");
}

#[test]
fn a_sink_refusal_aborts_the_run_as_checkpoint_failed() {
    let frames = 6_000u64;
    let (chunking, truth) = setup(frames, 9);
    let detector = PerfectDetector::new(Arc::clone(&truth), ObjectClass::from("car"));

    let mut engine = QueryEngine::new().stage_sink(Box::new(FailingSink { fail_at: 3 }));
    for spec in specs(&chunking, frames, &detector) {
        engine.push(spec).unwrap();
    }
    let err = engine.run().expect_err("the sink refused stage 3");
    assert_eq!(
        err,
        EngineError::CheckpointFailed {
            stage: 3,
            message: "durable store rejected stage 3".to_string(),
        }
    );
    assert!(err.to_string().contains("stage 3"));
    assert!(err.to_string().contains("durable store"));
}
