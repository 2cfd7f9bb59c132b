//! Prefix-recovery property: every byte-prefix of a valid log recovers to a
//! consistent state without panicking — exhaustively over all prefixes of a
//! committed workload (with and without a snapshot present), and
//! property-style over random record batches.  Also the codec round-trip
//! property the satellite asks for: arbitrary belief/result records encode
//! → decode identically.

use exsample_store::{
    encode_frames, next_frame, BeliefCell, BeliefStore, FrameScan, MemStorage, Record,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const STAGES: u64 = 12;

/// Same shape as the crash-matrix workload, kept deliberately tiny: the
/// prefix sweep opens a store once per *byte* of the log.
fn apply_stage(store: &mut BeliefStore, stage: u64) {
    let car = store.intern_class("car");
    let person = store.intern_class("person");
    for i in 0..2u64 {
        let chunk = ((stage * 2 + i) % 5) as u32;
        store
            .append_delta(car, chunk, ((stage + i) % 3) as i64 - 1, 1, stage)
            .unwrap();
    }
    if stage.is_multiple_of(3) {
        store
            .append_delta(person, (stage % 4) as u32, 1, 1, stage)
            .unwrap();
        store
            .append_result(person, stage * 10, stage, stage)
            .unwrap();
    }
    store.commit_stage(stage).unwrap();
}

/// Expected state after stages `0..=last` (`None` = nothing committed),
/// computed independently of the store.
fn expected_state(last: Option<u64>) -> BTreeMap<(u32, u32), BeliefCell> {
    let mut beliefs: BTreeMap<(u32, u32), BeliefCell> = BTreeMap::new();
    let Some(last) = last else {
        return beliefs;
    };
    for stage in 0..=last {
        for i in 0..2u64 {
            let chunk = ((stage * 2 + i) % 5) as u32;
            let cell = beliefs.entry((0, chunk)).or_default();
            cell.n1 += ((stage + i) % 3) as i64 - 1;
            cell.samples += 1;
        }
        if stage % 3 == 0 {
            let cell = beliefs.entry((1, (stage % 4) as u32)).or_default();
            cell.n1 += 1;
            cell.samples += 1;
        }
    }
    beliefs
}

fn sweep_prefixes(files: &exsample_store::MemFiles) {
    let full_log = files
        .lock()
        .unwrap()
        .get("log")
        .cloned()
        .unwrap_or_default();
    let snapshot = files.lock().unwrap().get("snapshot").cloned();
    let mut previous_committed: Option<u64> = None;

    for cut in 0..=full_log.len() {
        let prefix_files = MemStorage::new().files();
        {
            let mut f = prefix_files.lock().unwrap();
            f.insert("log".to_string(), full_log[..cut].to_vec());
            if let Some(snap) = &snapshot {
                f.insert("snapshot".to_string(), snap.clone());
            }
        }
        let (store, report) = BeliefStore::open(MemStorage::with_files(Arc::clone(&prefix_files)))
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes failed recovery: {e}"));

        // Consistency: the recovered state is exactly the state after the
        // stages the prefix committed — never a half-applied stage.
        let last = report.last_committed_stage;
        let recovered: BTreeMap<(u32, u32), BeliefCell> = store.state().beliefs().collect();
        assert_eq!(
            recovered,
            expected_state(last),
            "prefix of {cut}/{} bytes recovered an inconsistent state (report {report:?})",
            full_log.len()
        );

        // Monotonicity: a longer prefix never knows *less*.
        assert!(
            last >= previous_committed,
            "prefix of {cut} bytes lost a committed stage ({last:?} < {previous_committed:?})"
        );
        previous_committed = previous_committed.max(last);

        // Accounting: kept + discarded covers the prefix.
        assert!(report.torn_tail_bytes <= cut as u64);

        // Idempotence: recovery physically repaired the log, so a second
        // open finds nothing left to discard.
        drop(store);
        let (_, second) = BeliefStore::open(MemStorage::with_files(prefix_files))
            .unwrap_or_else(|e| panic!("re-open after prefix {cut} recovery failed: {e}"));
        assert_eq!(
            second.torn_tail_bytes, 0,
            "recovery of prefix {cut} was not idempotent"
        );
        assert_eq!(second.last_committed_stage, last);
    }
}

#[test]
fn every_byte_prefix_of_a_log_only_store_recovers_consistently() {
    let files = MemStorage::new().files();
    {
        let (mut store, _) = BeliefStore::open(MemStorage::with_files(Arc::clone(&files))).unwrap();
        // No compaction: everything stays in the log.
        for stage in 0..STAGES {
            apply_stage(&mut store, stage);
        }
        store.flush().unwrap();
        assert_eq!(store.health().snapshot_compactions, 0);
    }
    sweep_prefixes(&files);
}

#[test]
fn every_byte_prefix_of_a_snapshot_plus_log_store_recovers_consistently() {
    let files = MemStorage::new().files();
    {
        let (mut store, _) = BeliefStore::open(MemStorage::with_files(Arc::clone(&files))).unwrap();
        for stage in 0..STAGES {
            apply_stage(&mut store, stage);
            if stage % 5 == 4 {
                store.checkpoint().unwrap();
            }
        }
        store.flush().unwrap();
        assert_eq!(store.health().snapshot_compactions, 2);
    }
    // The live log extends a snapshot; cutting it anywhere (including
    // through the generation marker) must fall back to the snapshot state.
    sweep_prefixes(&files);
}

/// Strategy-built arbitrary records (the shim has no enum strategy, so draw
/// a tag and fields from integer ranges).
fn record_from(tag: u8, a: u64, b: u64, c: i64, name_len: usize) -> Record {
    let name: String = (0..name_len)
        .map(|i| char::from(b'a' + ((a as usize + i) % 26) as u8))
        .collect();
    match tag % 7 {
        0 => Record::SnapshotHeader {
            generation: a,
            last_stage: b.is_multiple_of(2).then_some(b),
        },
        1 => Record::Generation { generation: a },
        2 => Record::ClassName {
            class: a as u32,
            name,
        },
        3 => Record::BeliefDelta {
            class: a as u32,
            chunk: b as u32,
            n1_delta: c,
            samples_delta: b,
            stage: a,
        },
        4 => Record::BeliefTotal {
            class: a as u32,
            chunk: b as u32,
            n1: c,
            samples: a,
        },
        5 => Record::ResultFound {
            class: a as u32,
            frame: b,
            instance: a ^ b,
            stage: a,
        },
        _ => Record::StageCommit { stage: a },
    }
}

proptest! {
    #[test]
    fn arbitrary_records_round_trip_through_the_codec(
        tags in proptest::collection::vec(0u8..7, 1..40),
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in i64::MIN..i64::MAX,
        name_len in 0usize..24,
    ) {
        let records: Vec<Record> = tags
            .iter()
            .enumerate()
            .map(|(i, &tag)| record_from(tag, a.wrapping_add(i as u64), b.wrapping_sub(i as u64), c, name_len))
            .collect();
        let buf = encode_frames(&records);
        let mut pos = 0;
        let mut decoded = Vec::new();
        loop {
            match next_frame(&buf, pos) {
                FrameScan::Complete { record, next } => {
                    decoded.push(record);
                    pos = next;
                }
                FrameScan::End => break,
                FrameScan::Torn => {
                    return Err(TestCaseError::fail(format!("valid batch torn at byte {pos}")));
                }
            }
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn random_byte_prefixes_of_random_batches_never_panic(
        tags in proptest::collection::vec(0u8..7, 1..20),
        a in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let records: Vec<Record> = tags
            .iter()
            .enumerate()
            .map(|(i, &tag)| record_from(tag, a + i as u64, a ^ 0x5555, -3, 5))
            .collect();
        let buf = encode_frames(&records);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let prefix = &buf[..cut.min(buf.len())];
        // Scanning a prefix terminates (Torn or End), never panics, and
        // every complete frame it yields is one of the originals in order.
        let mut pos = 0;
        let mut seen = 0usize;
        loop {
            match next_frame(prefix, pos) {
                FrameScan::Complete { record, next } => {
                    prop_assert_eq!(&record, &records[seen]);
                    seen += 1;
                    pos = next;
                }
                FrameScan::End => {
                    prop_assert_eq!(pos, prefix.len());
                    break;
                }
                FrameScan::Torn => break,
            }
        }
        prop_assert!(seen <= records.len());
    }
}
