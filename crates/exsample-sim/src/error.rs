//! Typed errors for the simulation harness.
//!
//! The runner and sweep entry points historically `expect`ed their invariants
//! (a dataset with at least one class, a successfully configured engine, a
//! positive trial count).  Now that the engine reports typed
//! [`EngineError`]s, the harness propagates them — and its own configuration
//! mistakes — as [`SimError`]s instead of panicking.

use exsample_engine::EngineError;
use exsample_store::StoreError;
use std::fmt;

/// A configuration or execution error from the simulation harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The execution engine rejected the run's configuration.
    Engine(EngineError),
    /// The durable belief store failed — opening or recovering a checkpoint
    /// directory, persisting a stage commit, or writing the final snapshot
    /// (see [`crate::QueryRunner::checkpoint`] and
    /// [`crate::QueryRunner::warm_start`]).  When a stage commit fails
    /// mid-run the runner re-chains the concrete [`StoreError`] here instead
    /// of surfacing the engine's stringly-typed `CheckpointFailed`.
    Store(StoreError),
    /// A query was run over a dataset with no object classes and no explicit
    /// query class.
    NoClasses,
    /// A sweep was requested with zero trials.
    NoTrials,
    /// A sequential scan was asked to visit one frame out of every zero.
    ZeroStride,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Engine(inner) => inner.fmt(f),
            SimError::Store(inner) => inner.fmt(f),
            SimError::NoClasses => write!(
                f,
                "the dataset has no object classes and no query class was chosen"
            ),
            SimError::NoTrials => write!(f, "a sweep needs at least one trial"),
            SimError::ZeroStride => write!(f, "a sequential scan needs a stride of at least 1"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Engine(inner) => Some(inner),
            SimError::Store(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<EngineError> for SimError {
    fn from(inner: EngineError) -> Self {
        SimError::Engine(inner)
    }
}

impl From<StoreError> for SimError {
    fn from(inner: StoreError) -> Self {
        SimError::Store(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_are_wired() {
        let err = SimError::from(EngineError::NoQueries);
        assert!(err.to_string().contains("no queries"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(SimError::NoClasses
            .to_string()
            .contains("no object classes"));
        assert!(SimError::NoTrials
            .to_string()
            .contains("at least one trial"));
        assert!(std::error::Error::source(&SimError::NoTrials).is_none());
        let store = SimError::from(StoreError::InvalidRecord {
            detail: "class id 9 was never interned".to_string(),
        });
        assert!(store.to_string().contains("class id 9"));
        assert!(std::error::Error::source(&store).is_some());
    }
}
