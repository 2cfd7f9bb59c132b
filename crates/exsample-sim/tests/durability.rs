//! End-to-end durability: checkpointing is a pure observer, a torn
//! checkpoint recovers, a run that fails fast still persists what it sealed
//! (past a written group or inside the first), and a warm-started run beats
//! a cold one.
//!
//! These tests run against the real filesystem backend (`FsStorage` under a
//! scratch directory) — the same code path the `repro` experiments'
//! `--checkpoint`/`--warm-start` flags exercise.

use exsample_core::ExSampleConfig;
use exsample_data::{Dataset, GridWorkload, SkewLevel};
use exsample_detect::FaultPlan;
use exsample_engine::EngineError;
use exsample_sim::{MethodKind, QueryRunner, SimError, StopCondition};
use exsample_store::{BeliefState, BeliefStore};
use std::fs::OpenOptions;
use std::path::PathBuf;

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

/// A scratch store directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("exsample-durability-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn checkpointing_is_a_pure_observer_and_persists_the_posterior() {
    let dataset = skewed_dataset();
    let scratch = Scratch::new("observer");
    let budget = 800u64;

    let plain = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(budget))
        .seed(5)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("plain run succeeded");
    assert!(plain.store.is_none(), "no checkpoint, no store health");

    let checkpointed = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(budget))
        .seed(5)
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("checkpointed run succeeded");

    // Pure observer: outcomes and the virtual clock are untouched.
    assert_eq!(checkpointed.frames_processed, plain.frames_processed);
    assert_eq!(checkpointed.found_instances, plain.found_instances);
    assert_eq!(checkpointed.trajectory, plain.trajectory);
    assert_eq!(checkpointed.sample_secs, plain.sample_secs);

    // The run compacted at least its final checkpoint and was never
    // degraded; its stages reached the log 64 to a write, except the tail
    // the final snapshot superseded.
    let health = checkpointed.store.expect("checkpoint reports health");
    assert!(health.snapshot_compactions >= 1);
    assert!(health.stages_committed >= plain.frames_processed);
    assert_eq!(health.durable_writes, health.stages_committed / 64);
    assert_eq!(health.io_retries, 0);
    assert_eq!(health.torn_tail_bytes, 0);

    // The persisted posterior is the run's: one sample per processed frame,
    // one result per found instance, a commit per stage (batch 1 = one
    // observation per stage, minus the stop-condition's final empty stage).
    let (store, report) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
    assert!(report.snapshot_loaded, "final checkpoint wrote a snapshot");
    assert_eq!(
        store.state().classes().len(),
        1,
        "exactly the query class was interned"
    );
    let class = 0u32;
    let samples: u64 = store
        .state()
        .beliefs_for(class)
        .map(|(_, cell)| cell.samples)
        .sum();
    assert_eq!(samples, plain.frames_processed);
    assert_eq!(store.state().result_count(class), plain.true_found);
}

#[test]
fn a_torn_checkpoint_recovers_and_the_run_resumes() {
    let dataset = skewed_dataset();
    let scratch = Scratch::new("torn");

    let first = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(400))
        .seed(7)
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("first run succeeded");
    assert!(first.store.is_some());

    // A completed run's final checkpoint compacts everything into the
    // snapshot, so to stage a kill mid-run, commit a few more stages by
    // hand, flush them (one group append), seal a few more that only a
    // flush would have saved, and drop the store — the kill.  Then chop the
    // tail off the live log, tearing exactly the last flushed commit's frame.
    const MANUAL_STAGES: u64 = 10;
    const UNFLUSHED_STAGES: u64 = 5;
    {
        let (mut store, _) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
        for stage in 1_000..1_000 + MANUAL_STAGES + UNFLUSHED_STAGES {
            store.append_delta(0, 0, 1, 1, stage).expect("delta stages");
            store.commit_stage(stage).expect("stage commits");
            if stage == 1_000 + MANUAL_STAGES - 1 {
                store.flush().expect("group flushes");
            }
        }
        assert_eq!(store.durable_stage(), Some(1_000 + MANUAL_STAGES - 1));
    }
    let log = scratch.0.join("log");
    let len = std::fs::metadata(&log).expect("log exists").len();
    OpenOptions::new()
        .write(true)
        .open(&log)
        .expect("log opens")
        .set_len(len - 7)
        .expect("log truncates");

    // The next checkpointed run must recover — truncating the torn frame,
    // keeping every committed stage — and run to completion on top of the
    // survivors.  Its health counters carry the recovery evidence.
    let resumed = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(100))
        .seed(13)
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("recovery run succeeded");
    let health = resumed.store.expect("checkpoint reports health");
    assert!(
        health.torn_tail_bytes > 0,
        "the torn tail was silently accepted"
    );
    assert!(health.records_replayed > 0, "the surviving log replayed");
    assert_eq!(resumed.frames_processed, 100);

    // The accumulated posterior holds everything that was ever made
    // durable: the first run, the surviving flushed commits (the torn one
    // and the dropped open group were the only losses), and the resumed run.
    let (store, _) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
    let samples: u64 = store
        .state()
        .beliefs_for(0)
        .map(|(_, cell)| cell.samples)
        .sum();
    assert_eq!(
        samples,
        first.frames_processed + (MANUAL_STAGES - 1) + resumed.frames_processed,
        "recovered posterior lost committed history"
    );
}

/// The persisted state of the first `budget` fault-free stages of the
/// `seed`-7 query, as a completed checkpointed run leaves it.
fn state_after(dataset: &Dataset, budget: u64, tag: &str) -> BeliefState {
    let scratch = Scratch::new(tag);
    QueryRunner::new(dataset)
        .stop(StopCondition::FrameBudget(budget))
        .seed(7)
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("fault-free run succeeded");
    let (store, _) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
    store.state().clone()
}

#[test]
fn a_fail_fast_abort_persists_exactly_the_stages_sealed_before_it() {
    let dataset = skewed_dataset();
    let scratch = Scratch::new("failfast");

    // Fail-fast is the default failure mode: the first permanently faulted
    // frame aborts the run with a typed engine error, mid-group.
    let error = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(2_000))
        .seed(7)
        .fault_plan(FaultPlan::new(43).permanent_rate(0.005))
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect_err("the fault plan aborts the run");
    let SimError::Engine(EngineError::DetectorFailed { frame, .. }) = error else {
        panic!("expected the engine's DetectorFailed, got {error:?}");
    };

    let (store, report) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
    let sealed = report.last_committed_stage.map_or(0, |s| s + 1);
    assert!(
        sealed > 64 && sealed % 64 != 0,
        "vacuous: {sealed} sealed stages should span a written group and an open one"
    );
    assert!(!report.snapshot_loaded, "an aborted run takes no snapshot");

    // Batch 1, so stage k observes the k-th pick, and faults never touch the
    // picks: the store must hold exactly the fault-free run's first `sealed`
    // stages, and the next pick must be the frame that failed.
    assert_eq!(
        store.state(),
        &state_after(&dataset, sealed, "failfast-ref")
    );
    let next = state_after(&dataset, sealed + 1, "failfast-next");
    let failed_chunk = dataset.chunking().chunk_of_frame(frame).0;
    for (key, cell) in next.beliefs() {
        let before = store.state().belief(key.0, key.1).unwrap_or_default();
        let expected = before.samples + u64::from(key.1 == failed_chunk);
        assert_eq!(cell.samples, expected, "chunk {}", key.1);
    }
}

#[test]
fn a_fail_fast_abort_inside_the_first_group_persists_its_stages() {
    let dataset = skewed_dataset();
    let scratch = Scratch::new("failfast-open");

    // A fault rate high enough that the run aborts inside its first 64-stage
    // group, which no append has written yet: only the runner's flush of the
    // open group on an engine failure makes those stages durable.
    let error = QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(2_000))
        .seed(7)
        .fault_plan(FaultPlan::new(5).permanent_rate(0.05))
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect_err("the fault plan aborts the run");
    assert!(
        matches!(error, SimError::Engine(EngineError::DetectorFailed { .. })),
        "expected the engine's DetectorFailed, got {error:?}"
    );

    let (store, report) = BeliefStore::open_dir(&scratch.0).expect("store reopens");
    let sealed = report.last_committed_stage.map_or(0, |s| s + 1);
    assert!(
        (2..64).contains(&sealed),
        "vacuous: {sealed} sealed stages should lie inside the first group"
    );
    assert_eq!(
        store.state(),
        &state_after(&dataset, sealed, "failfast-open-ref")
    );
}

#[test]
fn warm_start_reaches_equal_recall_with_strictly_fewer_frames() {
    // A sparser workload than the other tests: few, short-lived instances
    // concentrated by the skew generator, so reaching the recall target
    // genuinely requires learning *where* to sample — the thing a warm
    // start carries over.
    let dataset = GridWorkload::builder()
        .frames(120_000)
        .instances(150)
        .chunks(24)
        .mean_duration(60.0)
        .skew(SkewLevel::ThirtySecond)
        .seed(3)
        .build()
        .unwrap()
        .generate();
    let scratch = Scratch::new("warm");
    let recall = StopCondition::Recall(0.8);

    // Exploration run: a budgeted pass that learns the generator's skew and
    // persists the posterior.  The budget is deliberately moderate — long
    // enough for the per-chunk beliefs to separate, short enough that `N1`
    // (objects seen exactly once) still tracks instance density rather than
    // decaying toward "this chunk is exhausted".
    QueryRunner::new(&dataset)
        .stop(StopCondition::FrameBudget(2_000))
        .seed(19)
        .checkpoint(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("exploration run succeeded");

    // Cold run: pays its own exploration.
    let cold = QueryRunner::new(&dataset)
        .stop(recall)
        .seed(17)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("cold run succeeded");
    assert!(cold.recall() >= 0.8);

    // Warm run: same query, same seed, same recall target, posterior seeded
    // from the exploration run's store.  It skips the exploration the cold
    // run pays for, so it must issue strictly fewer detector frames.
    let warm = QueryRunner::new(&dataset)
        .stop(recall)
        .seed(17)
        .warm_start(&scratch.0)
        .run(MethodKind::ExSample(ExSampleConfig::default()))
        .expect("warm run succeeded");
    assert!(warm.recall() >= 0.8);
    assert!(
        warm.frames_processed < cold.frames_processed,
        "warm start did not help: warm {} vs cold {} frames",
        warm.frames_processed,
        cold.frames_processed
    );
}
