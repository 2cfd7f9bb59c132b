//! Durable checkpointing for the query runner.
//!
//! [`CheckpointSink`] bridges the engine's stage-commit hook
//! ([`exsample_engine::StageSink`]) to a crash-safe
//! [`exsample_store::BeliefStore`]: every committed stage's belief deltas and
//! newly found results are sealed in the store as one atomic stage, and the
//! store writes sealed stages to its log 64 to a group (one append, one
//! fsync).  A killed run therefore recovers the exact posterior of a stage
//! prefix at most 63 stages behind the kill, and warm-starts from it (see
//! [`crate::QueryRunner::checkpoint`] / [`crate::QueryRunner::warm_start`]);
//! the runner — not this sink — makes the open group durable on every path
//! by which a run returns.
//!
//! The engine's sink seam speaks `Result<(), String>` (the engine cannot
//! depend on the store crate); the sink parks the concrete [`StoreError`] in
//! a shared cell so the runner can re-chain the typed error as
//! [`crate::SimError::Store`] instead of surfacing a stringly-typed
//! `CheckpointFailed`.

use exsample_engine::{StageObservation, StageSink};
use exsample_store::{BeliefStore, StoreError};
use exsample_video::Chunking;
use std::cell::RefCell;
use std::rc::Rc;

/// The store, shared between the engine's sink and the runner (the runner
/// flushes or checkpoints it and reads the health counters after the run).
pub(crate) type SharedStore = Rc<RefCell<BeliefStore>>;

/// Where the sink parks a concrete [`StoreError`] for the runner to re-chain.
pub(crate) type StoreErrorCell = Rc<RefCell<Option<StoreError>>>;

/// A [`StageSink`] that persists each committed stage into a [`BeliefStore`].
pub(crate) struct CheckpointSink<'a> {
    pub(crate) store: SharedStore,
    pub(crate) error: StoreErrorCell,
    /// The store's interned id for the run's query class.
    pub(crate) class: u32,
    /// Maps observed frames back to their chunk — the key the belief store
    /// (and the warm-started sampler) is indexed by.
    pub(crate) chunking: &'a Chunking,
}

impl StageSink for CheckpointSink<'_> {
    fn stage_committed(
        &mut self,
        stage: u64,
        observations: &[StageObservation],
    ) -> Result<(), String> {
        let mut store = self.store.borrow_mut();
        let result = (|| -> Result<(), StoreError> {
            for obs in observations {
                let chunk = self.chunking.chunk_of_frame(obs.frame).0;
                store.append_delta(self.class, chunk, obs.n1_delta, 1, stage)?;
                for id in &obs.new_instances {
                    store.append_result(self.class, obs.frame, id.0, stage)?;
                }
            }
            // Stages with no observations still seal a marker, so the
            // recovery cursor tracks the run stage for stage.
            store.commit_stage(stage)
        })();
        result.map_err(|error| {
            let message = error.to_string();
            *self.error.borrow_mut() = Some(error);
            message
        })
    }
}
