//! Typed, chainable errors for the durable belief store.
//!
//! Every variant is `Clone + PartialEq + Eq` so callers that already derive
//! those (e.g. `exsample-sim`'s `SimError`) can wrap a [`StoreError`] without
//! giving their own derives up.  I/O failures therefore carry the
//! [`std::io::ErrorKind`] plus the rendered message rather than the raw
//! (non-`Clone`) `std::io::Error`.

use std::fmt;

/// An error raised by the store or one of its [`Storage`](crate::Storage)
/// backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed.  `kind == ErrorKind::Interrupted` marks the
    /// failure as transient (the store's durable helpers retry it); every
    /// other kind is permanent and surfaces immediately.
    Io {
        /// Which storage operation failed (`"append"`, `"rename"`, ...).
        op: &'static str,
        /// The file the operation targeted.
        file: String,
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
        /// The rendered underlying error message.
        message: String,
    },
    /// A snapshot file failed validation.  Snapshots are written atomically
    /// (temp + fsync + rename), so unlike a torn log tail this is never
    /// expected and recovery refuses to guess.
    CorruptSnapshot {
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// The storage backend simulated a crash: the process is considered dead
    /// and every further operation fails.  Only
    /// [`FaultInjectingStorage`](crate::FaultInjectingStorage) raises this.
    Crashed {
        /// The mutating-operation index at which the crash fired.
        op: u64,
    },
    /// A durable write kept failing transiently past the retry budget.
    RetriesExhausted {
        /// Which storage operation was being retried.
        op: &'static str,
        /// The file the operation targeted.
        file: String,
        /// How many attempts were made.
        attempts: u32,
        /// The last transient failure.
        source: Box<StoreError>,
    },
    /// A record inside a CRC-valid frame referenced an unknown class id, or a
    /// snapshot/log invariant did not hold after decode.
    InvalidRecord {
        /// What was wrong with it.
        detail: String,
    },
}

impl StoreError {
    /// Build an [`StoreError::Io`] from a real `std::io::Error`.
    pub(crate) fn io(op: &'static str, file: &str, err: &std::io::Error) -> Self {
        StoreError::Io {
            op,
            file: file.to_string(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }

    /// Whether the durable-write helpers should retry this failure.
    ///
    /// Transient means `Io` with `ErrorKind::Interrupted` — the kind the
    /// fault injector uses for its scheduled flaky-disk errors, and the kind
    /// POSIX promises is safe to retry.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(
            self,
            StoreError::Io {
                kind: std::io::ErrorKind::Interrupted,
                ..
            }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                op,
                file,
                kind,
                message,
            } => write!(f, "storage {op} on {file:?} failed ({kind:?}): {message}"),
            StoreError::CorruptSnapshot { offset, detail } => {
                write!(f, "corrupt snapshot at byte {offset}: {detail}")
            }
            StoreError::Crashed { op } => {
                write!(f, "storage crashed at mutating operation {op}")
            }
            StoreError::RetriesExhausted {
                op, file, attempts, ..
            } => write!(
                f,
                "storage {op} on {file:?} still failing after {attempts} attempts"
            ),
            StoreError::InvalidRecord { detail } => {
                write!(f, "invalid record: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::RetriesExhausted { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source_are_wired() {
        let transient = StoreError::Io {
            op: "append",
            file: "log".to_string(),
            kind: std::io::ErrorKind::Interrupted,
            message: "injected".to_string(),
        };
        assert!(transient.is_transient());
        assert!(transient.to_string().contains("append"));

        let exhausted = StoreError::RetriesExhausted {
            op: "append",
            file: "log".to_string(),
            attempts: 8,
            source: Box::new(transient.clone()),
        };
        assert_eq!(
            exhausted.source().map(ToString::to_string),
            Some(transient.to_string())
        );
        assert!(!exhausted.is_transient());

        let crash = StoreError::Crashed { op: 3 };
        assert!(crash.to_string().contains('3'));
        assert!(StoreError::io(
            "read",
            "snapshot",
            &std::io::Error::new(std::io::ErrorKind::NotFound, "gone")
        )
        .to_string()
        .contains("snapshot"));
    }
}
