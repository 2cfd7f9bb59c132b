//! Crash-safe durable belief store for the ExSample reproduction.
//!
//! ExSample's entire edge is its per-chunk posterior `(N1, n)` statistics —
//! and without this crate every run throws them away.  `exsample-store`
//! persists per-(detector-class, chunk) belief deltas and distinct query
//! results to an append-only record log with length+CRC32 framing — 64
//! atomic stages per fsynced group write, so a crash loses at most 63 sealed
//! stages and never part of one — compacts the log by size into snapshots
//! via temp-write → fsync → atomic rename, and recovers by validating
//! checksums, truncating torn tails and replaying the surviving log onto the
//! latest snapshot.  A warm-started query seeds its Thompson-sampling prior
//! from the recovered state instead of starting cold.
//!
//! Robustness is proved, not claimed: all I/O goes through the [`Storage`]
//! seam (real `FsStorage`, in-memory [`MemStorage`]), and the seeded
//! [`FaultInjectingStorage`] — the storage twin of the detector stack's
//! `FaultInjectingDetector` — injects short writes, transient I/O errors and
//! crash points from a pure per-`(op, attempt)` schedule.  The crate's test
//! suite kills a run at **every** mutating write boundary, recovers inside
//! the loss window, resumes and asserts the final state is bitwise-identical
//! to an uninterrupted run; a prefix-recovery property test asserts every
//! byte prefix of a valid log recovers consistently without panicking.
//!
//! See the README for the on-disk format and recovery rules.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod record;
mod storage;
mod store;

pub use error::StoreError;
pub use fault::{FaultInjectingStorage, StorageFaultMonitor, StoragePlan};
pub use record::{encode_frames, next_frame, FrameScan, Record};
pub use storage::{MemFiles, MemStorage, Storage};
pub use store::{BeliefCell, BeliefState, BeliefStore, RecoveryReport, StoreHealth};
