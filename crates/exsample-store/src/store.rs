//! The durable belief store: append-only log + snapshot compaction +
//! torn-tail recovery.
//!
//! # Files
//!
//! A store directory holds up to three flat files:
//!
//! * `log` — append-only [`Record`] frames.  Always begins with a
//!   [`Record::Generation`] marker tying it to the snapshot it extends.
//! * `snapshot` — the compacted absolute state, written atomically
//!   (temp-write → fsync → rename).  Begins with
//!   [`Record::SnapshotHeader`].
//! * `snapshot.tmp` — in-flight compaction output; removed on open.
//!
//! # Commit protocol
//!
//! Callers stage records with [`BeliefStore::append_delta`] /
//! [`BeliefStore::append_result`], then **seal** a stage with
//! [`BeliefStore::commit_stage`]: the staged records plus a
//! [`Record::StageCommit`] marker are folded into the in-memory state and
//! their frames join the open **group**.  The group is the unit of durable
//! I/O: it reaches the log in **one** append and **one** fsync when it holds
//! `GROUP_COMMIT_STAGES` (64) sealed stages or on [`BeliefStore::flush`],
//! and not at all when a compaction supersedes it (the snapshot is built
//! from the in-memory state, which already contains it).  The stage stays
//! the unit of recovery — replay folds log records only up to the last
//! commit marker — so a crash loses at most the last 63 sealed stages, a
//! function of stage count and never of wall-clock time, and never part of
//! a stage.  After each group write the log is compacted once it has reached
//! `max(64 KiB, 2 × snapshot bytes)`, the usual write-ahead-log rule.
//!
//! # Recovery rules
//!
//! 1. Delete `snapshot.tmp` (an interrupted compaction's scratch).
//! 2. Load `snapshot` if present; it must parse completely (snapshots are
//!    written atomically, so damage here is [`StoreError::CorruptSnapshot`],
//!    never silently dropped).
//! 3. Scan `log` frame by frame.  The first invalid frame (incomplete
//!    header, truncated payload, CRC mismatch, undecodable payload) is the
//!    **torn tail**: it and everything after it are discarded.
//! 4. Records replay onto the snapshot only while the log's generation
//!    marker matches the snapshot's generation, and only up to the last
//!    [`Record::StageCommit`].  A stale-generation log (the leftover of a
//!    crash between snapshot-rename and log-truncate) is discarded whole —
//!    its contents are already inside the snapshot, and skipping it is what
//!    prevents double-apply.
//! 5. The log file is physically truncated back to the last committed
//!    frame (or reset to a fresh generation marker), so a recovered store
//!    is byte-for-byte a store that never crashed.
//!
//! All mutating I/O goes through durable helpers that retry transient
//! failures (`ErrorKind::Interrupted`) and roll back short writes by
//! truncating to the pre-write length before retrying — a half-appended
//! frame is never left in front of a later good frame.

use crate::error::StoreError;
use crate::record::{encode_frames, next_frame, FrameScan, Record};
use crate::storage::{FsStorage, Storage};
use std::collections::BTreeMap;

const LOG: &str = "log";
const SNAPSHOT: &str = "snapshot";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Retry budget for one durable operation's transient failures.
const MAX_ATTEMPTS: u32 = 8;

/// Sealed stages per durable group write; a crash loses fewer than this.  A
/// constant, not a knob: the loss window is part of the store's contract.
const GROUP_COMMIT_STAGES: u64 = 64;

/// The log is compacted once it reaches `max(this, 2 × snapshot bytes)`.
const COMPACT_MIN_LOG_BYTES: u64 = 64 * 1024;

/// One `(class, chunk)` belief cell: the ExSample posterior statistics
/// `N1` (signed: track re-matches subtract) and the sample count `n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeliefCell {
    /// Accumulated `N1` for the chunk.
    pub n1: i64,
    /// Accumulated sample count `n` for the chunk.
    pub samples: u64,
}

/// One recovered distinct result: where and when an instance was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResultCell {
    /// Frame the instance was first found on.
    pub frame: u64,
    /// Stage of the find.
    pub stage: u64,
}

/// The merged durable state: interned classes, per-`(class, chunk)` belief
/// cells, and distinct results.  Deterministically ordered (`BTreeMap`s) so
/// two stores that applied the same commits compare — and iterate —
/// bitwise-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BeliefState {
    classes: Vec<String>,
    beliefs: BTreeMap<(u32, u32), BeliefCell>,
    results: BTreeMap<(u32, u64), ResultCell>,
}

impl BeliefState {
    /// Interned class names, densest id first.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// The id a class name was interned to, if it ever appeared.
    pub fn class_id(&self, name: &str) -> Option<u32> {
        self.classes
            .iter()
            .position(|c| c == name)
            .map(|i| i as u32)
    }

    /// One belief cell, if the `(class, chunk)` pair ever recorded.
    pub fn belief(&self, class: u32, chunk: u32) -> Option<BeliefCell> {
        self.beliefs.get(&(class, chunk)).copied()
    }

    /// All belief cells, ordered by `(class, chunk)`.
    pub fn beliefs(&self) -> impl Iterator<Item = ((u32, u32), BeliefCell)> + '_ {
        self.beliefs.iter().map(|(k, v)| (*k, *v))
    }

    /// The belief cells of one class, ordered by chunk.
    pub fn beliefs_for(&self, class: u32) -> impl Iterator<Item = (u32, BeliefCell)> + '_ {
        self.beliefs
            .range((class, 0)..=(class, u32::MAX))
            .map(|(&(_, chunk), &cell)| (chunk, cell))
    }

    /// How many distinct instances a class has recorded.
    pub fn result_count(&self, class: u32) -> usize {
        self.results.range((class, 0)..=(class, u64::MAX)).count()
    }

    /// Fold one record into the state.  Lenient by design: a record that
    /// does not fit (unknown class, duplicate intern) is skipped, because
    /// recovery must never panic or refuse a log whose frames all passed
    /// their CRCs.  Returns whether the record was applied.
    fn apply(&mut self, record: &Record) -> bool {
        match record {
            Record::ClassName { class, name } => {
                let id = *class as usize;
                if id == self.classes.len() {
                    self.classes.push(name.clone());
                    true
                } else {
                    // Re-interning an existing id is idempotent; a gap is
                    // skipped (see method docs).
                    id < self.classes.len()
                }
            }
            Record::BeliefDelta {
                class,
                chunk,
                n1_delta,
                samples_delta,
                ..
            } => {
                let cell = self.beliefs.entry((*class, *chunk)).or_default();
                cell.n1 += n1_delta;
                cell.samples += samples_delta;
                true
            }
            Record::BeliefTotal {
                class,
                chunk,
                n1,
                samples,
            } => {
                self.beliefs.insert(
                    (*class, *chunk),
                    BeliefCell {
                        n1: *n1,
                        samples: *samples,
                    },
                );
                true
            }
            Record::ResultFound {
                class,
                frame,
                instance,
                stage,
            } => {
                // First find wins; later sightings of the same instance are
                // legal in the log (e.g. repeated trials) but change nothing.
                self.results
                    .entry((*class, *instance))
                    .or_insert(ResultCell {
                        frame: *frame,
                        stage: *stage,
                    });
                true
            }
            // Structural records carry no state.
            Record::SnapshotHeader { .. }
            | Record::Generation { .. }
            | Record::StageCommit { .. } => false,
        }
    }
}

/// Cumulative health counters, reported into `RunResult` like the detector
/// fault tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Log records folded into state during recovery.
    pub records_replayed: u64,
    /// Bytes discarded from the log tail during recovery (the torn tail
    /// plus any valid-but-uncommitted suffix).
    pub torn_tail_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshot_compactions: u64,
    /// Transient I/O failures and short writes absorbed by retrying.
    pub io_retries: u64,
    /// Stages sealed by [`BeliefStore::commit_stage`].
    pub stages_committed: u64,
    /// Fsynced group appends to the log (compactions are counted above).
    pub durable_writes: u64,
}

/// What [`BeliefStore::open`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The live snapshot generation (0 for a virgin store).
    pub generation: u64,
    /// The last committed stage visible after recovery.
    pub last_committed_stage: Option<u64>,
    /// Log records folded into state.
    pub records_replayed: u64,
    /// Bytes discarded from the log tail.
    pub torn_tail_bytes: u64,
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
}

/// The crash-safe durable belief store.  See the module docs for the file
/// layout, commit protocol and recovery rules.
pub struct BeliefStore {
    storage: Box<dyn Storage>,
    state: BeliefState,
    pending: Vec<Record>,
    /// Encoded frames of the sealed stages not yet written to the log.
    group: Vec<u8>,
    group_stages: u64,
    /// Snapshot encode buffer, reused across compactions.
    snapshot_buf: Vec<u8>,
    generation: u64,
    last_committed_stage: Option<u64>,
    durable_stage: Option<u64>,
    /// Tracked file lengths: the append rollback base and the size rule.
    log_len: u64,
    snapshot_len: u64,
    health: StoreHealth,
}

impl std::fmt::Debug for BeliefStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeliefStore")
            .field("generation", &self.generation)
            .field("last_committed_stage", &self.last_committed_stage)
            .field("pending", &self.pending.len())
            .field("health", &self.health)
            .finish()
    }
}

impl BeliefStore {
    /// Open a store over `storage`, running recovery.  Returns the store and
    /// what recovery found.
    pub fn open<S: Storage + 'static>(storage: S) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_boxed(Box::new(storage))
    }

    /// Open a store rooted at a real directory.
    pub fn open_dir(
        path: impl Into<std::path::PathBuf>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_boxed(Box::new(FsStorage::open(path)?))
    }

    fn open_boxed(storage: Box<dyn Storage>) -> Result<(Self, RecoveryReport), StoreError> {
        let mut store = BeliefStore {
            storage,
            state: BeliefState::default(),
            pending: Vec::new(),
            group: Vec::new(),
            group_stages: 0,
            snapshot_buf: Vec::new(),
            generation: 0,
            last_committed_stage: None,
            durable_stage: None,
            log_len: 0,
            snapshot_len: 0,
            health: StoreHealth::default(),
        };
        let report = store.recover()?;
        Ok((store, report))
    }

    /// Recovery rule 1–5 (see module docs).
    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        self.remove_durably(SNAPSHOT_TMP)?;

        // Rule 2: the snapshot, which must parse completely.
        let snapshot_loaded = if let Some(bytes) = self.storage.read(SNAPSHOT)? {
            self.load_snapshot(&bytes)?;
            self.snapshot_len = bytes.len() as u64;
            true
        } else {
            false
        };

        // Rules 3–4: scan the log, fold committed records of the live
        // generation, note where the keepable bytes end.
        let log = self.storage.read(LOG)?.unwrap_or_default();
        let mut pos = 0usize;
        let mut keep_end = 0usize;
        let mut replay_generation = 0u64;
        let mut stale = false;
        let mut staged: Vec<Record> = Vec::new();
        let mut replayed = 0u64;
        loop {
            match next_frame(&log, pos) {
                FrameScan::End | FrameScan::Torn => break,
                FrameScan::Complete { record, next } => {
                    match record {
                        Record::Generation { generation } => {
                            replay_generation = generation;
                            if generation == self.generation {
                                keep_end = next;
                            } else {
                                stale = true;
                            }
                        }
                        Record::StageCommit { stage } if replay_generation == self.generation => {
                            for record in staged.drain(..) {
                                if self.state.apply(&record) {
                                    replayed += 1;
                                }
                            }
                            replayed += 1; // the commit marker itself
                            self.last_committed_stage = Some(stage);
                            keep_end = next;
                        }
                        _ if replay_generation == self.generation => staged.push(record),
                        _ => stale = true,
                    }
                    pos = next;
                }
            }
        }

        // Rule 5: make the on-disk log match what replay accepted.
        let torn = if stale {
            // The whole log predates the live snapshot: its effects are
            // already inside it.  Start a fresh generation-marked log.
            let dropped = log.len() as u64;
            self.reset_log()?;
            dropped
        } else {
            let dropped = (log.len() - keep_end) as u64;
            if keep_end == 0 {
                // Nothing worth keeping (virgin store, or the generation
                // marker itself was torn): rewrite the marker from scratch.
                self.reset_log()?;
            } else {
                self.log_len = keep_end as u64;
                if dropped > 0 {
                    self.truncate_durably(LOG, self.log_len)?;
                    self.sync_durably(LOG)?;
                }
            }
            dropped
        };
        self.durable_stage = self.last_committed_stage;

        self.health.records_replayed += replayed;
        self.health.torn_tail_bytes += torn;
        Ok(RecoveryReport {
            generation: self.generation,
            last_committed_stage: self.last_committed_stage,
            records_replayed: replayed,
            torn_tail_bytes: torn,
            snapshot_loaded,
        })
    }

    fn load_snapshot(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut pos = 0usize;
        let mut first = true;
        loop {
            match next_frame(bytes, pos) {
                FrameScan::End => break,
                FrameScan::Torn => {
                    return Err(StoreError::CorruptSnapshot {
                        offset: pos as u64,
                        detail:
                            "invalid frame (snapshots are written atomically; this file is damaged)"
                                .to_string(),
                    });
                }
                FrameScan::Complete { record, next } => {
                    if first {
                        let Record::SnapshotHeader {
                            generation,
                            last_stage,
                        } = record
                        else {
                            return Err(StoreError::CorruptSnapshot {
                                offset: pos as u64,
                                detail: "first record is not a snapshot header".to_string(),
                            });
                        };
                        self.generation = generation;
                        self.last_committed_stage = last_stage;
                        first = false;
                    } else {
                        self.state.apply(&record);
                    }
                    pos = next;
                }
            }
        }
        if first {
            return Err(StoreError::CorruptSnapshot {
                offset: 0,
                detail: "snapshot is empty".to_string(),
            });
        }
        Ok(())
    }

    /// Truncate the log and write a fresh generation marker.
    fn reset_log(&mut self) -> Result<(), StoreError> {
        self.truncate_durably(LOG, 0)?;
        self.log_len = 0;
        let generation = self.generation;
        let marker = encode_frames(&[Record::Generation { generation }]);
        self.append_log(&marker)?;
        self.sync_durably(LOG)
    }

    /// Intern a detector-class name, staging a [`Record::ClassName`] for the
    /// next commit if it is new.
    pub fn intern_class(&mut self, name: &str) -> u32 {
        if let Some(id) = self.state.class_id(name) {
            return id;
        }
        let id = self.state.classes.len() as u32;
        let record = Record::ClassName {
            class: id,
            name: name.to_string(),
        };
        self.state.apply(&record);
        self.pending.push(record);
        id
    }

    /// Stage one belief delta for the next commit.
    pub fn append_delta(
        &mut self,
        class: u32,
        chunk: u32,
        n1_delta: i64,
        samples_delta: u64,
        stage: u64,
    ) -> Result<(), StoreError> {
        self.check_class(class)?;
        self.pending.push(Record::BeliefDelta {
            class,
            chunk,
            n1_delta,
            samples_delta,
            stage,
        });
        Ok(())
    }

    /// Stage one distinct-result record for the next commit.
    pub fn append_result(
        &mut self,
        class: u32,
        frame: u64,
        instance: u64,
        stage: u64,
    ) -> Result<(), StoreError> {
        self.check_class(class)?;
        self.pending.push(Record::ResultFound {
            class,
            frame,
            instance,
            stage,
        });
        Ok(())
    }

    fn check_class(&self, class: u32) -> Result<(), StoreError> {
        if (class as usize) < self.state.classes.len() {
            Ok(())
        } else {
            Err(StoreError::InvalidRecord {
                detail: format!("class id {class} was never interned"),
            })
        }
    }

    /// Seal the staged records as one atomic stage (see module docs): fold
    /// them — or, with none staged, just the commit marker — into the
    /// in-memory state and add their frames to the open group, which is
    /// written once it holds `GROUP_COMMIT_STAGES` stages.  An `Err` is that
    /// group write failing; the stage is sealed in memory either way.
    pub fn commit_stage(&mut self, stage: u64) -> Result<(), StoreError> {
        self.pending.push(Record::StageCommit { stage });
        for record in self.pending.drain(..) {
            record.encode_frame(&mut self.group);
            self.state.apply(&record);
        }
        self.last_committed_stage = Some(stage);
        self.group_stages += 1;
        self.health.stages_committed += 1;
        if self.group_stages >= GROUP_COMMIT_STAGES {
            self.flush()?;
        }
        Ok(())
    }

    /// Write the open group to the log — one append, one fsync — making
    /// every sealed stage durable; a no-op when no stage is waiting.  Call
    /// it wherever "committed" must mean "on disk": dropping the store does
    /// **not** flush (a drop is indistinguishable from a kill).  After an
    /// `Err` the group may or may not have reached the log; reopen the store
    /// rather than retrying on this handle.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.group_stages == 0 {
            return Ok(());
        }
        let group = std::mem::take(&mut self.group);
        let written = self
            .append_log(&group)
            .and_then(|()| self.sync_durably(LOG));
        self.group = group;
        written?;
        self.close_group();
        self.health.durable_writes += 1;
        if self.log_len >= COMPACT_MIN_LOG_BYTES.max(2 * self.snapshot_len) {
            self.compact()?;
        }
        Ok(())
    }

    /// The open group's stages are durable (written, or inside a snapshot).
    fn close_group(&mut self) {
        self.group.clear();
        self.group_stages = 0;
        self.durable_stage = self.last_committed_stage;
    }

    /// Force a snapshot compaction now (also run by the size rule, see module
    /// docs).  Every sealed stage — the open group included — is in the
    /// snapshot and durable on return; staged-but-unsealed records are not.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.compact()
    }

    /// Temp-write → fsync → atomic rename, then restart the log under the
    /// new generation.  Crash-safe at every step: recovery either sees the
    /// old snapshot plus the full old log, or the new snapshot plus a log it
    /// recognises as stale and discards (never both applied).
    fn compact(&mut self) -> Result<(), StoreError> {
        let next_generation = self.generation + 1;
        let mut bytes = std::mem::take(&mut self.snapshot_buf);
        bytes.clear();
        Record::SnapshotHeader {
            generation: next_generation,
            last_stage: self.last_committed_stage,
        }
        .encode_frame(&mut bytes);
        for (id, name) in self.state.classes.iter().enumerate() {
            Record::ClassName {
                class: id as u32,
                name: name.clone(),
            }
            .encode_frame(&mut bytes);
        }
        for (&(class, chunk), cell) in &self.state.beliefs {
            Record::BeliefTotal {
                class,
                chunk,
                n1: cell.n1,
                samples: cell.samples,
            }
            .encode_frame(&mut bytes);
        }
        for (&(class, instance), cell) in &self.state.results {
            Record::ResultFound {
                class,
                frame: cell.frame,
                instance,
                stage: cell.stage,
            }
            .encode_frame(&mut bytes);
        }
        let installed = self
            .put_durably("write", SNAPSHOT_TMP, &bytes, None)
            .and_then(|()| self.sync_durably(SNAPSHOT_TMP))
            .and_then(|()| self.rename_durably(SNAPSHOT_TMP, SNAPSHOT));
        self.snapshot_buf = bytes;
        installed?;
        self.snapshot_len = self.snapshot_buf.len() as u64;
        // The snapshot holds the open group: drop it, never write it to the
        // old log first.
        self.generation = next_generation;
        self.close_group();
        self.reset_log()?;
        self.health.snapshot_compactions += 1;
        Ok(())
    }

    /// The merged state of every **sealed** stage.  It may lead the disk by
    /// the open group (fewer than `GROUP_COMMIT_STAGES` stages); see
    /// [`BeliefStore::durable_stage`].
    pub fn state(&self) -> &BeliefState {
        &self.state
    }

    /// The last sealed stage, if any stage ever committed.
    pub fn last_committed_stage(&self) -> Option<u64> {
        self.last_committed_stage
    }

    /// The last stage known to be on disk: what a crash right now would
    /// recover.  Trails [`BeliefStore::last_committed_stage`] by the open
    /// group.
    pub fn durable_stage(&self) -> Option<u64> {
        self.durable_stage
    }

    /// Cumulative health counters (recovery + run).
    pub fn health(&self) -> StoreHealth {
        self.health
    }

    // ---- durable I/O helpers -------------------------------------------
    //
    // Each helper is one *logical* operation: it calls `begin_op` once, then
    // retries transient failures (and rolls back short writes) up to
    // MAX_ATTEMPTS physical attempts.  Every retry is counted in
    // `health.io_retries`.

    /// Append to the log at the tracked `log_len` (no `stat` per write),
    /// advancing it on success.
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.put_durably("append", LOG, bytes, Some(self.log_len))?;
        self.log_len += bytes.len() as u64;
        Ok(())
    }

    /// Append `bytes` to `name` (`rollback_to` = its current length) or
    /// replace its contents (`None`).  A failed append attempt is truncated
    /// back before the retry, so a half frame is never left in front of the
    /// retried (good) one; a failed whole-file write is simply overwritten.
    fn put_durably(
        &mut self,
        op: &'static str,
        name: &'static str,
        bytes: &[u8],
        rollback_to: Option<u64>,
    ) -> Result<(), StoreError> {
        self.storage.begin_op();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let put = match rollback_to {
                Some(_) => self.storage.append(name, bytes),
                None => self.storage.write(name, bytes),
            };
            let failure = match put {
                Ok(n) if n == bytes.len() => return Ok(()),
                Ok(n) => StoreError::Io {
                    op,
                    file: name.to_string(),
                    kind: std::io::ErrorKind::WriteZero,
                    message: format!("short write: {n} of {} bytes", bytes.len()),
                },
                Err(e) if e.is_transient() => e,
                Err(e) => return Err(e),
            };
            if let Some(base) = rollback_to {
                // Same logical op as the append, so no `begin_op`.
                self.retry_simple("truncate", name, |s, n| s.truncate(n, base))?;
            }
            self.health.io_retries += 1;
            if attempts >= MAX_ATTEMPTS {
                return Err(StoreError::RetriesExhausted {
                    op,
                    file: name.to_string(),
                    attempts,
                    source: Box::new(failure),
                });
            }
        }
    }

    fn sync_durably(&mut self, name: &'static str) -> Result<(), StoreError> {
        self.storage.begin_op();
        self.retry_simple("sync", name, |s, n| s.sync(n))
    }

    fn rename_durably(&mut self, from: &'static str, to: &'static str) -> Result<(), StoreError> {
        self.storage.begin_op();
        self.retry_simple("rename", from, |s, n| s.rename(n, to))
    }

    fn remove_durably(&mut self, name: &'static str) -> Result<(), StoreError> {
        self.storage.begin_op();
        self.retry_simple("remove", name, |s, n| s.remove(n))
    }

    fn truncate_durably(&mut self, name: &'static str, len: u64) -> Result<(), StoreError> {
        self.storage.begin_op();
        self.retry_simple("truncate", name, |s, n| s.truncate(n, len))
    }

    fn retry_simple(
        &mut self,
        op: &'static str,
        name: &'static str,
        mut call: impl FnMut(&mut dyn Storage, &str) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match call(self.storage.as_mut(), name) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempts < MAX_ATTEMPTS => {
                    self.health.io_retries += 1;
                }
                Err(e) if e.is_transient() => {
                    return Err(StoreError::RetriesExhausted {
                        op,
                        file: name.to_string(),
                        attempts,
                        source: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn open_mem(files: &crate::storage::MemFiles) -> (BeliefStore, RecoveryReport) {
        BeliefStore::open(MemStorage::with_files(std::sync::Arc::clone(files))).unwrap()
    }

    #[test]
    fn fresh_store_commits_and_reopens_identically() {
        let mem = MemStorage::new();
        let files = mem.files();
        let state = {
            let (mut store, report) = BeliefStore::open(mem).unwrap();
            assert_eq!(report.generation, 0);
            assert!(!report.snapshot_loaded);
            let car = store.intern_class("car");
            store.append_delta(car, 3, 2, 1, 0).unwrap();
            store.append_delta(car, 5, -1, 1, 0).unwrap();
            store.append_result(car, 101, 7, 0).unwrap();
            store.commit_stage(0).unwrap();
            store.append_delta(car, 3, 1, 1, 1).unwrap();
            store.commit_stage(1).unwrap();
            assert_eq!(store.durable_stage(), None, "sealed, not yet durable");
            store.flush().unwrap();
            assert_eq!(store.durable_stage(), Some(1));
            let state = store.state().clone();
            // Sealed after the flush, then dropped: the open group is lost.
            store.append_delta(car, 9, 1, 1, 2).unwrap();
            store.commit_stage(2).unwrap();
            assert_eq!(store.last_committed_stage(), Some(2));
            state
        };
        let (reopened, report) = open_mem(&files);
        assert_eq!(reopened.state(), &state);
        assert_eq!(report.last_committed_stage, Some(1));
        assert_eq!(report.torn_tail_bytes, 0);
        assert!(report.records_replayed > 0);
        assert_eq!(
            reopened.state().belief(0, 3),
            Some(BeliefCell { n1: 3, samples: 2 })
        );
        assert_eq!(reopened.state().result_count(0), 1);
    }

    #[test]
    fn uncommitted_records_do_not_survive_reopen() {
        let mem = MemStorage::new();
        let files = mem.files();
        {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            let car = store.intern_class("car");
            store.append_delta(car, 0, 5, 1, 0).unwrap();
            store.commit_stage(0).unwrap();
            // Staged but never committed — not even a flush writes it:
            store.append_delta(car, 0, 100, 1, 1).unwrap();
            store.flush().unwrap();
            assert_eq!(store.pending.len(), 1);
        }
        let (reopened, _) = open_mem(&files);
        assert_eq!(
            reopened.state().belief(0, 0),
            Some(BeliefCell { n1: 5, samples: 1 })
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let mem = MemStorage::new();
        let files = mem.files();
        {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            let car = store.intern_class("car");
            store.append_delta(car, 1, 1, 1, 0).unwrap();
            store.commit_stage(0).unwrap();
            store.flush().unwrap();
        }
        // Simulate a kill mid-append: garbage on the log tail.
        let torn_len = {
            let mut f = files.lock().unwrap();
            let log = f.get_mut(LOG).unwrap();
            log.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
            log.len()
        };
        let (reopened, report) = open_mem(&files);
        assert_eq!(report.torn_tail_bytes, 3);
        assert_eq!(
            reopened.state().belief(0, 1),
            Some(BeliefCell { n1: 1, samples: 1 })
        );
        // The log was physically repaired.
        assert_eq!(files.lock().unwrap().get(LOG).unwrap().len(), torn_len - 3);
        // A second open is clean: recovery is idempotent.
        let (_, second) = open_mem(&files);
        assert_eq!(second.torn_tail_bytes, 0);
    }

    #[test]
    fn corrupted_last_record_is_truncated_as_torn() {
        let mem = MemStorage::new();
        let files = mem.files();
        let (prefix_state, prefix_len) = {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            let car = store.intern_class("car");
            store.append_delta(car, 1, 1, 1, 0).unwrap();
            store.commit_stage(0).unwrap();
            store.flush().unwrap();
            let prefix = (store.state().clone(), files.lock().unwrap()[LOG].len());
            store.append_delta(car, 2, 1, 1, 1).unwrap();
            store.commit_stage(1).unwrap();
            store.flush().unwrap();
            assert_ne!(store.state(), &prefix.0, "stage 1 changed nothing");
            prefix
        };
        // Bit rot inside the last record (stage 1's commit marker): its length
        // and framing stay intact and the payload still decodes — to another
        // stage number — so only the CRC can tell that the record is corrupt.
        let full_len = {
            let mut f = files.lock().unwrap();
            let log = f.get_mut(LOG).unwrap();
            *log.last_mut().unwrap() ^= 0x40;
            log.len()
        };
        let (reopened, report) = open_mem(&files);
        // The corrupt commit and the delta it would have sealed are discarded
        // together: recovery keeps exactly the stage-0 prefix.
        assert_eq!(report.torn_tail_bytes, (full_len - prefix_len) as u64);
        assert_eq!(report.last_committed_stage, Some(0));
        assert_eq!(reopened.state(), &prefix_state);
        assert_eq!(files.lock().unwrap()[LOG].len(), prefix_len);
    }

    #[test]
    fn compaction_snapshots_state_and_restarts_the_log() {
        let mem = MemStorage::new();
        let files = mem.files();
        let state = {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            let car = store.intern_class("car");
            for stage in 0..5u64 {
                store
                    .append_delta(car, (stage % 3) as u32, 1, 1, stage)
                    .unwrap();
                store.commit_stage(stage).unwrap();
                if stage % 2 == 0 {
                    // The open group goes into the snapshot, not the log.
                    store.checkpoint().unwrap();
                    assert_eq!(store.durable_stage(), Some(stage));
                }
            }
            assert_eq!(store.health().snapshot_compactions, 3);
            assert_eq!(store.generation, 3);
            assert_eq!(store.health().durable_writes, 0);
            store.state().clone()
        };
        {
            let f = files.lock().unwrap();
            assert!(f.contains_key(SNAPSHOT));
            assert!(!f.contains_key(SNAPSHOT_TMP));
        }
        let (reopened, report) = open_mem(&files);
        assert!(report.snapshot_loaded);
        assert_eq!(reopened.state(), &state);
        assert_eq!(report.last_committed_stage, Some(4));
    }

    #[test]
    fn stale_generation_log_is_never_double_applied() {
        let mem = MemStorage::new();
        let files = mem.files();
        let (state, old_log) = {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            let car = store.intern_class("car");
            store.append_delta(car, 0, 7, 1, 0).unwrap();
            store.commit_stage(0).unwrap();
            store.flush().unwrap();
            let old_log = files.lock().unwrap().get(LOG).unwrap().clone();
            store.checkpoint().unwrap();
            (store.state().clone(), old_log)
        };
        // Simulate the crash window between snapshot-rename and
        // log-truncate: the new snapshot is live but the old log is intact.
        files.lock().unwrap().insert(LOG.to_string(), old_log);
        let (reopened, report) = open_mem(&files);
        assert_eq!(
            reopened.state(),
            &state,
            "stale log must be skipped, not re-applied"
        );
        assert_eq!(report.records_replayed, 0);
        assert!(report.torn_tail_bytes > 0, "the stale log was discarded");
    }

    #[test]
    fn unknown_class_is_a_typed_error() {
        let (mut store, _) = BeliefStore::open(MemStorage::new()).unwrap();
        assert!(matches!(
            store.append_delta(9, 0, 1, 1, 0),
            Err(StoreError::InvalidRecord { .. })
        ));
        assert!(matches!(
            store.append_result(9, 0, 0, 0),
            Err(StoreError::InvalidRecord { .. })
        ));
    }

    #[test]
    fn intern_is_idempotent_and_survives_compaction() {
        let mem = MemStorage::new();
        let files = mem.files();
        {
            let (mut store, _) = BeliefStore::open(mem).unwrap();
            assert_eq!(store.intern_class("car"), 0);
            assert_eq!(store.intern_class("person"), 1);
            assert_eq!(store.intern_class("car"), 0);
            store.commit_stage(0).unwrap();
            store.checkpoint().unwrap();
        }
        let (store, _) = open_mem(&files);
        assert_eq!(store.state().classes(), ["car", "person"]);
        assert_eq!(store.state().class_id("person"), Some(1));
    }
}
