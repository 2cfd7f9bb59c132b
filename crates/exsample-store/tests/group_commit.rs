//! Closed-form laws of the group-commit and compact-by-size cadences: how
//! many durable writes and how many compactions a run of N stages costs is
//! a pure function of N and of the bytes it logged — never of time.

use exsample_store::{
    encode_frames, BeliefStore, FaultInjectingStorage, MemFiles, MemStorage, Record, StoragePlan,
};
use std::sync::Arc;

/// Mirrors of the store's private constants, pinned here from outside.
const GROUP: u64 = 64;
const COMPACT_MIN_LOG_BYTES: u64 = 64 * 1024;

/// Seal `stages` stages of `deltas` belief deltas each, spread round-robin
/// over `cells` distinct chunks, numbering stages from `first`.
fn drive(store: &mut BeliefStore, first: u64, stages: u64, deltas: u64, cells: u64) {
    let class = store.intern_class("car");
    for stage in first..first + stages {
        for i in 0..deltas {
            let chunk = ((stage * deltas + i) % cells) as u32;
            store.append_delta(class, chunk, 1, 1, stage).unwrap();
        }
        store.commit_stage(stage).unwrap();
    }
}

/// Log bytes of one `drive` stage (every delta frame has the same size).
fn stage_bytes(deltas: u64) -> u64 {
    let delta = Record::BeliefDelta {
        class: 0,
        chunk: 0,
        n1_delta: 1,
        samples_delta: 1,
        stage: 0,
    };
    let commit = Record::StageCommit { stage: 0 };
    deltas * encode_frames(&[delta]).len() as u64 + encode_frames(&[commit]).len() as u64
}

fn file_len(files: &MemFiles, name: &str) -> u64 {
    files.lock().unwrap().get(name).map_or(0, Vec::len) as u64
}

#[test]
fn n_stages_cost_ceil_n_over_64_appends_and_syncs() {
    for stages in [1, GROUP - 1, GROUP, GROUP + 1, 3 * GROUP + 7] {
        let storage = FaultInjectingStorage::new(MemStorage::new(), StoragePlan::new(0));
        let monitor = storage.monitor();
        let (mut store, _) = BeliefStore::open(storage).unwrap();
        let opened = monitor.mutations();

        drive(&mut store, 0, stages, 2, 5);
        let full_groups = stages / GROUP;
        assert_eq!(monitor.mutations() - opened, 2 * full_groups, "{stages}");
        assert_eq!(
            store.durable_stage(),
            (full_groups > 0).then(|| full_groups * GROUP - 1),
            "{stages}: the disk trails the sealed stages by the open group"
        );

        store.flush().unwrap();
        let groups = stages.div_ceil(GROUP);
        // One append and one fsync per group, and nothing else.
        assert_eq!(monitor.mutations() - opened, 2 * groups, "{stages}");
        assert_eq!(store.health().durable_writes, groups, "{stages}");
        assert_eq!(store.health().stages_committed, stages);
        assert_eq!(store.health().snapshot_compactions, 0);
        assert_eq!(store.durable_stage(), Some(stages - 1));

        // Flushing an empty group touches nothing.
        store.flush().unwrap();
        assert_eq!(monitor.mutations() - opened, 2 * groups, "{stages}");
        assert_eq!(store.health().durable_writes, groups, "{stages}");
    }
}

#[test]
fn the_size_rule_alone_compacts_at_max_64kib_or_twice_the_snapshot() {
    const DELTAS: u64 = 6;
    let mem = MemStorage::new();
    let files = mem.files();
    let (mut store, _) = BeliefStore::open(mem).unwrap();
    let group_bytes = GROUP * stage_bytes(DELTAS);
    // Groups a fresh log — one generation marker — takes to reach `threshold`.
    let marker = encode_frames(&[Record::Generation { generation: 0 }]).len() as u64;
    let groups_to = |threshold: u64| (threshold - marker).div_ceil(group_bytes);

    // Small snapshot (a handful of cells): the 64 KiB floor rules.
    let per_compaction = groups_to(COMPACT_MIN_LOG_BYTES);
    assert!(per_compaction > 1, "the floor must span several groups");
    let groups = 3 * per_compaction + 1;
    drive(&mut store, 0, groups * GROUP, DELTAS, 5);
    assert_eq!(store.health().snapshot_compactions, 3);
    assert_eq!(store.health().durable_writes, groups);
    assert!(2 * file_len(&files, "snapshot") < COMPACT_MIN_LOG_BYTES);

    // Grow the snapshot past half the floor, pin its size with an explicit
    // checkpoint (which also restarts the log), and the rule follows it.
    let first = groups * GROUP;
    drive(&mut store, first, 20, 200, 4_000);
    store.checkpoint().unwrap();
    let snapshot = file_len(&files, "snapshot");
    assert!(2 * snapshot > COMPACT_MIN_LOG_BYTES, "{snapshot}");
    let before = store.health();
    let per_compaction = groups_to(2 * snapshot);
    let groups = 2 * per_compaction + 1;
    // Same 4 000 cells: the snapshot the rule rewrites keeps its size.
    drive(&mut store, first + 20, groups * GROUP, DELTAS, 4_000);
    let after = store.health();
    assert_eq!(after.snapshot_compactions - before.snapshot_compactions, 2);
    assert_eq!(after.durable_writes - before.durable_writes, groups);
    assert_eq!(file_len(&files, "snapshot"), snapshot);
    // At every group boundary the surviving log is below the threshold.
    assert!(file_len(&files, "log") < 2 * snapshot);

    // And whatever the cadence did, a flushed store reopens to its state.
    store.flush().unwrap();
    let (reopened, _) = BeliefStore::open(MemStorage::with_files(Arc::clone(&files))).unwrap();
    assert_eq!(reopened.state(), store.state());
}
