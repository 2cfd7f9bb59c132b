//! # exsample-sim
//!
//! The experiment harness of the ExSample reproduction: it runs distinct-object
//! queries end-to-end (sampling method → simulated decode → simulated detector →
//! discriminator), accounts for virtual GPU/decode time the way the paper does,
//! and aggregates multi-trial sweeps into the medians the evaluation reports.
//!
//! * [`clock`] — virtual time accounting on top of the decode/detector cost model
//!   (scan at ~100 fps, sampled processing at ~20 fps) plus Table-I-style duration
//!   formatting (`"1m37s"`, `"2h58m"`).
//! * [`runner`] — [`runner::QueryRunner`]: configure a query (dataset, class, stop
//!   condition, detector noise, discriminator) and run a built-in
//!   [`runner::MethodKind`] or any `exsample-engine` `SamplingPolicy` — the one
//!   way to run a single query.  Execution happens on a
//!   single-query `exsample-engine` `QueryEngine` (batch 1), with the virtual
//!   clock charged from the engine's per-stage accounting hook.  The engine
//!   keeps its defaults; the runner sets no engine knob.
//! * `checkpoint` (private) — the bridge from the engine's stage-commit
//!   hook to the crash-safe `exsample-store` belief store:
//!   `QueryRunner::checkpoint(path)` persists every committed stage's belief
//!   deltas and results, `QueryRunner::warm_start(path)` seeds a fresh
//!   ExSample run from a recovered store's posterior.
//! * [`metrics`] — recall-trajectory lookups: frames to reach a count, instances
//!   found after a number of frames.
//! * [`sweep`] — run many trials (optionally in parallel) and collect their
//!   results.
//! * [`table`] — plain-text/CSV table rendering for the `repro` experiments.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod checkpoint;
pub mod clock;
pub mod error;
pub mod metrics;
pub mod runner;
pub mod sweep;
pub mod table;

pub use clock::format_duration;
pub use error::SimError;
pub use metrics::frames_to_count;
pub use runner::{MethodKind, QueryRunner, RunResult, StopCondition, TrajectoryPoint};
pub use sweep::{run_trials, TrialSet};
pub use table::Table;
