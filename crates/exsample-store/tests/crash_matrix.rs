//! The crash-at-every-write-boundary matrix, under the windowed contract.
//!
//! A deterministic multi-stage workload — several commit groups long, with
//! explicit checkpoints at fixed stages and a final flush — runs once
//! uninterrupted to produce the reference state after every stage and to
//! count how many mutating storage calls the run makes.  Then, for **every**
//! mutating call index `k`, a fresh run is killed at `k` (the injector
//! applies a partial write where one exists — the torn tail — and fails
//! everything after), the surviving bytes are reopened by a fresh store
//! exactly as a restarted process would reopen real files, and:
//!
//! * recovery lands on a sealed-stage **prefix** of the run — never a
//!   partial stage — at most `GROUP_COMMIT_STAGES - 1` stages behind what
//!   the killed run had sealed;
//! * the run resumes after the last recovered stage and its final state is
//!   bitwise-identical to the uninterrupted run.
//!
//! A second matrix runs the same workload under flaky-but-not-fatal storage
//! (transient errors + short writes) and asserts the degraded run is both
//! correct and bitwise-reproducible, PR 6-style.

use exsample_store::{
    BeliefState, BeliefStore, FaultInjectingStorage, MemFiles, MemStorage, StoragePlan, StoreError,
};
use std::sync::Arc;

/// Mirror of the store's private `GROUP_COMMIT_STAGES` (pinned from outside
/// by `tests/group_commit.rs`'s write-count law).
const GROUP: u64 = 64;
/// Four full groups and a remainder that is not a multiple of anything.
const STAGES: u64 = 4 * GROUP + 23;
/// Stages sealed just before an explicit `checkpoint()`: both land mid-group,
/// so a snapshot supersedes an open group twice per run.
const CHECKPOINT_AFTER: [u64; 2] = [100, 200];

/// Deterministic per-stage workload: which deltas and results stage `s`
/// stages before committing.  Pure arithmetic — no RNG — so every run, in
/// every test, agrees on it.
fn apply_stage(store: &mut BeliefStore, stage: u64) -> Result<(), StoreError> {
    let car = store.intern_class("car");
    let person = store.intern_class("person");
    for i in 0..3u64 {
        let chunk = ((stage * 3 + i) % 7) as u32;
        let n1_delta = ((stage + i) % 3) as i64 - 1; // -1, 0, or 1
        store.append_delta(car, chunk, n1_delta, 1, stage)?;
    }
    if stage.is_multiple_of(2) {
        store.append_delta(person, (stage % 5) as u32, 1, 1, stage)?;
    }
    if stage % 4 == 1 {
        store.append_result(car, stage * 100, stage, stage)?;
    }
    store.commit_stage(stage)?;
    if CHECKPOINT_AFTER.contains(&stage) {
        store.checkpoint()?;
    }
    Ok(())
}

/// Run stages `[from, STAGES)` and make the tail durable; `Err` means the
/// storage crashed mid-run.
fn run_stages(store: &mut BeliefStore, from: u64) -> Result<(), StoreError> {
    for stage in from..STAGES {
        apply_stage(store, stage)?;
    }
    store.flush()
}

fn open_with_plan(
    files: &MemFiles,
    plan: StoragePlan,
) -> Result<(BeliefStore, exsample_store::StorageFaultMonitor), StoreError> {
    let storage = FaultInjectingStorage::new(MemStorage::with_files(Arc::clone(files)), plan);
    let monitor = storage.monitor();
    let (store, _) = BeliefStore::open(storage)?;
    Ok((store, monitor))
}

/// How many stages a cursor (`last_committed_stage`) covers.
fn stage_count(last: Option<u64>) -> u64 {
    last.map_or(0, |s| s + 1)
}

/// The uninterrupted reference: the state after every stage count
/// (`prefixes[n]` = after stages `0..n`) plus the mutating-call count that
/// defines the crash matrix.
fn reference() -> (Vec<BeliefState>, u64) {
    let files = MemStorage::new().files();
    let (mut store, monitor) =
        open_with_plan(&files, StoragePlan::new(0)).expect("zero-fault open cannot fail");
    let mut prefixes = vec![store.state().clone()];
    for stage in 0..STAGES {
        apply_stage(&mut store, stage).expect("zero-fault run cannot crash");
        prefixes.push(store.state().clone());
    }
    store.flush().expect("zero-fault flush cannot crash");
    let health = store.health();
    assert_eq!(health.snapshot_compactions, 2, "only the explicit ones");
    assert_eq!(health.stages_committed, STAGES);
    // 0..=63 | checkpoint@100 | 101..=164 | checkpoint@200 | 201..=264 | tail.
    assert_eq!(health.durable_writes, 4, "three full groups and the flush");
    assert_eq!(store.durable_stage(), Some(STAGES - 1));
    // A flushed run loses nothing.
    let (reopened, report) =
        BeliefStore::open(MemStorage::with_files(files)).expect("clean reopen cannot fail");
    assert_eq!(reopened.state(), store.state());
    assert_eq!(report.torn_tail_bytes, 0);
    (prefixes, monitor.mutations())
}

/// Reopen the survivors of a kill as a restarted process would and check
/// the windowed contract: a sealed-stage prefix, at most `GROUP - 1` behind
/// what the killed run had `sealed`.  Returns the store and where to resume.
fn recover_within_window(
    files: &MemFiles,
    prefixes: &[BeliefState],
    sealed: u64,
    context: &str,
) -> (BeliefStore, u64) {
    let (store, report) = BeliefStore::open(MemStorage::with_files(Arc::clone(files)))
        .unwrap_or_else(|e| panic!("recovery after {context} failed: {e}"));
    let recovered = stage_count(report.last_committed_stage);
    assert!(
        recovered <= sealed && sealed - recovered < GROUP,
        "{context}: recovered {recovered} stages of {sealed} sealed — outside the \
         {}-stage loss window (report {report:?})",
        GROUP - 1
    );
    assert_eq!(
        store.state(),
        &prefixes[recovered as usize],
        "{context}: recovered state is not the run's first {recovered} stages"
    );
    (store, recovered)
}

#[test]
fn recover_and_resume_is_bitwise_identical_at_every_crash_point() {
    let (prefixes, total_ops) = reference();
    assert!(total_ops > 20, "matrix unexpectedly small: {total_ops} ops");

    for crash_at in 0..total_ops {
        let files = MemStorage::new().files();
        let plan = StoragePlan::new(0).crash_at(crash_at);

        // Phase 1: run until the kill.  The crash can land inside open()
        // itself (its recovery bootstrap writes a generation marker), inside
        // a group write, or inside a compaction.  `sealed` is what the dying
        // process believed it had committed.
        let sealed = match open_with_plan(&files, plan) {
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Crashed { .. }),
                    "open failed with a non-crash error at op {crash_at}: {e}"
                );
                0
            }
            Ok((mut store, monitor)) => {
                let outcome = run_stages(&mut store, 0);
                assert!(
                    matches!(outcome, Err(StoreError::Crashed { .. })),
                    "crash point {crash_at} < {total_ops} never fired: {outcome:?}"
                );
                assert!(monitor.has_crashed());
                stage_count(store.last_committed_stage())
            }
        };

        // Phase 2: the process restarts — clean storage over the surviving
        // bytes — recovers inside the window, and resumes.
        let context = format!("crash at op {crash_at}");
        let (mut store, resume_from) = recover_within_window(&files, &prefixes, sealed, &context);
        run_stages(&mut store, resume_from)
            .unwrap_or_else(|e| panic!("clean resume after {context} failed: {e}"));

        assert_eq!(
            store.state(),
            &prefixes[STAGES as usize],
            "{context}: recovered+resumed state diverged (resumed from stage {resume_from})"
        );
        assert_eq!(store.durable_stage(), Some(STAGES - 1));
    }
}

#[test]
fn flaky_storage_run_is_correct_and_reproducible() {
    let (prefixes, _) = reference();
    let plan = StoragePlan::new(42)
        .transient_rate(0.35)
        .short_write_rate(0.35)
        .transient_attempts(2);

    let run = || {
        let files = MemStorage::new().files();
        let (mut store, monitor) = open_with_plan(&files, plan).expect("flaky open should survive");
        run_stages(&mut store, 0).expect("flaky run should survive retries");
        // Retried writes left no half group behind: a reopen sees it all.
        let (reopened, report) = BeliefStore::open(MemStorage::with_files(files)).unwrap();
        assert_eq!(reopened.state(), store.state());
        assert_eq!(report.torn_tail_bytes, 0, "no crash, no torn tail");
        (store.state().clone(), store.health(), monitor)
    };

    let (state_a, health_a, monitor_a) = run();
    let (state_b, health_b, _) = run();

    assert_eq!(
        state_a, prefixes[STAGES as usize],
        "retried faults must not change the state"
    );
    assert_eq!(state_a, state_b);
    assert_eq!(
        health_a, health_b,
        "degraded behaviour must be reproducible"
    );
    assert!(
        monitor_a.injected_transients() > 0 && monitor_a.injected_short_writes() > 0,
        "the flaky plan should actually inject ({} transients, {} shorts)",
        monitor_a.injected_transients(),
        monitor_a.injected_short_writes()
    );
    assert_eq!(
        health_a.io_retries,
        monitor_a.injected_transients() + monitor_a.injected_short_writes(),
        "every injected fault should be visible as a retry tally"
    );
    assert_eq!(health_a.durable_writes, 4, "retries are not extra groups");
}

#[test]
fn a_doubly_interrupted_run_still_converges() {
    // Crash, resume under a *second* crash, resume again: recovery must
    // compose, and each kill stays inside the loss window.
    let (prefixes, total_ops) = reference();

    let files = MemStorage::new().files();
    let (mut store, _) = open_with_plan(&files, StoragePlan::new(0).crash_at(total_ops / 3))
        .expect("the first crash lands past open");
    let outcome = run_stages(&mut store, 0);
    assert!(matches!(outcome, Err(StoreError::Crashed { .. })));
    let sealed = stage_count(store.last_committed_stage());
    let (_, resume_from) = recover_within_window(&files, &prefixes, sealed, "first crash");
    assert!(resume_from > 0 && resume_from < STAGES, "{resume_from}");

    // Second life: a fresh injector (fresh op numbering — any index works
    // as long as it fires mid-run; this one dies restarting the log after
    // the next snapshot was renamed in).
    let (mut store, _) = open_with_plan(&files, StoragePlan::new(1).crash_at(5))
        .expect("the second crash lands past open");
    let outcome = run_stages(&mut store, resume_from);
    assert!(
        matches!(outcome, Err(StoreError::Crashed { .. })),
        "the second crash point never fired: {outcome:?}"
    );
    let sealed = stage_count(store.last_committed_stage());
    let (mut store, resume_from) = recover_within_window(&files, &prefixes, sealed, "second crash");

    run_stages(&mut store, resume_from).expect("final clean resume failed");
    assert_eq!(store.state(), &prefixes[STAGES as usize]);
}
