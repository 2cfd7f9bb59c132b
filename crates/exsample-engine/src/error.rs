//! Typed errors for the engine entry points.
//!
//! The seed implementation wired Algorithm 1 by hand and `assert!`ed its
//! invariants (most notably the sampler-vs-chunking chunk-count agreement);
//! since the engine is the seam a long-running multi-query service is built on,
//! misconfiguration must surface as a recoverable [`EngineError`] instead of a
//! panic.

use exsample_detect::DetectError;
use exsample_video::FrameId;
use std::fmt;

/// A sampler was wired to a chunking with a different number of chunks.
///
/// Every per-chunk statistic of an ExSample sampler belongs to one chunk of a
/// concrete chunking; pairing a sampler with a chunking of a different size
/// would silently misattribute feedback, so adapter constructors (e.g.
/// [`crate::ExSamplePolicy::from_sampler`]) return this typed error instead
/// (historically this was an `assert_eq!`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCountMismatch {
    /// Number of chunks the sampler was built with.
    pub sampler_chunks: usize,
    /// Number of chunks in the chunking it was paired with.
    pub chunking_chunks: usize,
}

impl fmt::Display for ChunkCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sampler and chunking disagree on the number of chunks: \
             sampler has {}, chunking has {}",
            self.sampler_chunks, self.chunking_chunks
        )
    }
}

impl std::error::Error for ChunkCountMismatch {}

/// A configuration error detected by an engine entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A sampler was paired with a chunking holding a different number of
    /// chunks (see [`ChunkCountMismatch`]).
    ChunkCountMismatch(ChunkCountMismatch),
    /// A query was submitted with a batch size of zero; the engine could never
    /// make progress on it.
    ZeroBatch {
        /// Label of the offending query.
        label: String,
    },
    /// [`crate::QueryEngine::run`] was called with no queries registered.
    NoQueries,
    /// A shard spec was paired with a chunking holding a different number of
    /// chunks: the chunk→shard assignment would be meaningless, so
    /// [`crate::ShardRouter::new`] rejects the pair.
    ShardSpecMismatch {
        /// Number of chunks the shard spec covers.
        spec_chunks: usize,
        /// Number of chunks in the chunking it was paired with.
        chunking_chunks: usize,
    },
    /// An execution mode that can never make progress was requested —
    /// `ExecutionMode::Parallel(0)` asks for a worker pool with no threads.
    /// It is the one rejected count: `Parallel(n)` runs `n` lanes for any
    /// `n >= 1`, whatever the shard count.
    InvalidExecution {
        /// The rejected thread count.
        threads: usize,
    },
    /// A frame failed its batch probe and then its one per-frame try — the
    /// engine's only failure rule.
    ///
    /// `attempts` counts every attempt made on the frame during the stage:
    /// the failed batch probe and the per-frame try.  The underlying
    /// [`DetectError`] is preserved and surfaced through
    /// [`std::error::Error::source`].  The run stops at the offending stage;
    /// the engine's reports and cost accounting are unspecified after this
    /// error.
    DetectorFailed {
        /// Class label of the failing detector (as registered with the engine).
        class: String,
        /// The frame whose detection could not be completed.
        frame: FrameId,
        /// Attempts made on the frame this stage (batch probe included).
        attempts: u32,
        /// The final error returned by the detector.
        source: DetectError,
    },
    /// The installed [`crate::StageSink`] rejected a stage commit.
    ///
    /// The sink is flushed serially at the stage-commit boundary; a sink that
    /// cannot persist the stage's observations (e.g. a durable checkpoint
    /// store hitting an I/O failure) aborts the run here rather than letting
    /// the in-memory run drift ahead of its checkpoint.  The message is the
    /// sink's own description; sinks that carry a richer typed error keep it
    /// on their side of the seam and re-chain it at their layer.
    CheckpointFailed {
        /// The stage whose commit the sink rejected.
        stage: u64,
        /// The sink's description of the failure.
        message: String,
    },
    /// A worker lane's PICK or DETECT job panicked during a parallel stage.
    ///
    /// The worker pool catches policy and detector panics on every lane
    /// (helper threads and the coordinator's inline lane alike) and surfaces
    /// them as this typed error instead of unwinding the coordinator or —
    /// worse — leaving it blocked on a helper.  Every policy is back with
    /// its query before the error returns.  The run stops at the offending
    /// stage; the engine's reports and cost accounting are unspecified after
    /// this error.
    WorkerPanicked {
        /// The panic message of the first lane (in lane order) that failed.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ChunkCountMismatch(inner) => inner.fmt(f),
            EngineError::ZeroBatch { label } => {
                write!(f, "query `{label}` was submitted with batch size 0")
            }
            EngineError::NoQueries => write!(f, "the engine has no queries to run"),
            EngineError::ShardSpecMismatch {
                spec_chunks,
                chunking_chunks,
            } => write!(
                f,
                "shard spec and chunking disagree on the number of chunks: \
                 spec covers {spec_chunks}, chunking has {chunking_chunks}"
            ),
            EngineError::InvalidExecution { threads } => write!(
                f,
                "parallel execution requires at least one worker thread (got {threads}); \
                 use 1 thread (or serial mode) for single-threaded execution"
            ),
            EngineError::DetectorFailed {
                class,
                frame,
                attempts,
                ..
            } => write!(
                f,
                "the `{class}` detector failed on frame {frame} after {attempts} attempt(s)"
            ),
            EngineError::CheckpointFailed { stage, message } => write!(
                f,
                "the stage sink rejected the commit of stage {stage}: {message}"
            ),
            EngineError::WorkerPanicked { message } => write!(
                f,
                "a worker lane panicked during a parallel stage: {message}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::ChunkCountMismatch(inner) => Some(inner),
            EngineError::DetectorFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ChunkCountMismatch> for EngineError {
    fn from(inner: ChunkCountMismatch) -> Self {
        EngineError::ChunkCountMismatch(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_are_wired() {
        let mismatch = ChunkCountMismatch {
            sampler_chunks: 4,
            chunking_chunks: 8,
        };
        let err = EngineError::from(mismatch);
        assert!(err.to_string().contains("disagree"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(EngineError::NoQueries.to_string().contains("no queries"));
        let zero = EngineError::ZeroBatch {
            label: "q0".to_string(),
        };
        assert!(zero.to_string().contains("q0"));
        assert!(std::error::Error::source(&zero).is_none());
        let shard = EngineError::ShardSpecMismatch {
            spec_chunks: 5,
            chunking_chunks: 4,
        };
        assert!(shard.to_string().contains("spec covers 5"));
        assert!(std::error::Error::source(&shard).is_none());
        let execution = EngineError::InvalidExecution { threads: 0 };
        assert!(execution.to_string().contains("at least one worker thread"));
        assert!(execution.to_string().contains("got 0"));
        assert!(std::error::Error::source(&execution).is_none());
        let checkpoint = EngineError::CheckpointFailed {
            stage: 7,
            message: "log append hit EIO".to_string(),
        };
        assert!(checkpoint.to_string().contains("stage 7"));
        assert!(checkpoint.to_string().contains("EIO"));
        assert!(std::error::Error::source(&checkpoint).is_none());
        let panicked = EngineError::WorkerPanicked {
            message: "detector exploded".to_string(),
        };
        assert!(panicked.to_string().contains("detector exploded"));
        assert!(panicked.to_string().contains("worker lane panicked"));
        assert!(std::error::Error::source(&panicked).is_none());
    }

    #[test]
    fn detector_failed_chains_its_source() {
        let inner = DetectError::Transient {
            frame: 41,
            message: "socket reset".to_string(),
        };
        let err = EngineError::DetectorFailed {
            class: "car".to_string(),
            frame: 41,
            attempts: 3,
            source: inner.clone(),
        };
        assert!(err.to_string().contains("`car`"));
        assert!(err.to_string().contains("frame 41"));
        assert!(err.to_string().contains("3 attempt(s)"));
        let source = std::error::Error::source(&err).expect("DetectorFailed must chain its source");
        assert_eq!(source.to_string(), inner.to_string());
    }
}
