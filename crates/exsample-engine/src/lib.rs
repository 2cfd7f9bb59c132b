//! # exsample-engine
//!
//! The batched multi-query execution layer of the ExSample reproduction.
//!
//! The paper's Algorithm 1 is a per-frame loop: pick one frame, run the
//! detector, tell the discriminator, update the sampler.  A production system
//! serving many concurrent queries over one video repository cannot afford
//! that shape — detector inference dominates the cost and is vastly cheaper
//! when batched, and concurrent queries frequently want the *same* frames.
//! This crate rebuilds execution around two abstractions:
//!
//! * [`SamplingPolicy`] — one object-safe interface
//!   (`next_batch_into` / `record` / `remaining`) unifying ExSample, the
//!   whole-repository `random` / `random+` samplers, and the
//!   `SamplingMethod` baselines (proxy ordering, sequential scan) behind a
//!   single trait the engine drives without knowing the strategy.
//! * [`QueryEngine`] — a staged pipeline executing one or many queries:
//!
//! ```text
//!   queries      PICK                DETECT                 FAN-OUT
//!   q0: policy ──┐ picks₀ ──┐                         ┌──► d₀ → discr₀/policy₀
//!   q1: policy ──┤ picks₁ ──┼─► coalesce (sort+dedup) ┼──► d₁ → discr₁/policy₁
//!   q2: policy ──┘ picks₂ ──┘    per shared detector  └──► d₂ → discr₂/policy₂
//!                               one batched detect_batch
//!                               invocation per detector
//! ```
//!
//! ## Coalescing semantics
//!
//! Within one stage, the frame ids demanded by all queries that share a
//! detector instance are merged, sorted and deduplicated, and run through a
//! single batched detector invocation; each query then observes the detections
//! of *its own* picks, in its own pick order, through its own discriminator.
//! Because the simulated (and any sane real) detector is a pure function of
//! the frame id, coalescing changes only how much detector work is paid —
//! never any query's outcome — and the engine reports both numbers
//! ([`EngineReport::demanded_frames`] vs [`EngineReport::detector_frames`]).
//! Queries with different detectors (different object classes) coalesce
//! nothing but still share the stage cadence.
//!
//! ## Determinism
//!
//! Every query owns a private RNG stream seeded from its spec, stop conditions
//! are evaluated per query, and fan-out visits queries in registration order.
//! Per-query outcomes are therefore reproducible regardless of stage
//! interleaving: adding or removing concurrent queries, toggling coalescing,
//! or permuting registration order never changes what an individual query
//! finds.  A single-query engine at batch 1 consumes the caller's RNG exactly
//! as the paper's per-frame loop does — [`run_query`] (the legacy driver
//! entry point) is a thin wrapper over the engine, and the determinism tests
//! assert pick-for-pick equivalence against a faithful replica of the old
//! loop.
//!
//! ## One stage loop, one runtime
//!
//! Every run — serial or parallel, overlapped or not, under any shard router
//! — executes the same loop of four phases, each written once in [`engine`]:
//! **plan** (stop checks, SCHEDULE, PICK and grouping into a stage buffer
//! holding one frame list per detector group), **launch** (load the lanes,
//! probe the cache, gather the misses into one slice per lane; hand the pool
//! helpers theirs if there are any), **land** (run the coordinator's slice,
//! rejoin the helpers, scatter the outcomes to the lanes) and **settle**
//! (fail-fast scan, cache commit, tallies, FAN-OUT, quarantine, stats,
//! checkpoint sink).  Serial is the 1-lane case.  The one fork the code takes
//! on its own is the single-query fast path: a stage with one picking query,
//! no cache, no helpers and the unsharded router detects straight from the
//! pick buffer (measured: forcing it off costs the shipped fig5 sweep 2–7 %
//! wall-clock); a failed batch probe drops it back onto the lanes — in the
//! order the lanes would have held the picks — so fault handling exists once.
//!
//! The unit of DETECT work is the **slice** ([`shard`]): the lanes' cache
//! misses, laid end to end in canonical `(group, frame)` order and cut into
//! contiguous spans of equal frame count, one per lane.  A batch never spans
//! groups and a group is cut only where a lane boundary falls inside it, so
//! a stage issues at most `groups + lanes − 1` detector calls — exactly
//! `groups` when serial — and the lanes are evenly loaded however skewed the
//! picks.  A slice carries frame ids and detector references only (its
//! outcome is a pure function of the two; detectors are `Send + Sync`), so
//! [`QueryEngine::execution`] with [`ExecutionMode::Parallel`] runs the
//! slices on the [`runtime`] module's **persistent worker pool**: helper
//! threads spawned once per engine run, parked on a condvar turnstile between
//! stages, woken per stage with detection work, joined when the run ends —
//! never spawned per stage.  The cache probe before the gather, the scatter,
//! the cache commit (a serial fixed-order transaction) and FAN-OUT
//! (registration/pick order) all stay on the calling thread in canonical
//! order — parallelism reorders *work*, never logical results, so parallel
//! runs are bitwise-identical to serial ones in everything but the physical
//! invocation shape (pinned for threads {1, 2, 4}, with the cache on and
//! off).  Serial remains the default, and `Parallel(0)` is a typed
//! [`error::EngineError::InvalidExecution`].  A detector panic on any pool
//! lane surfaces as a typed [`error::EngineError::WorkerPanicked`], never a
//! deadlocked coordinator, a leaked thread or an unwinding stage loop.
//! Helper-thread lifecycle counts are per engine
//! ([`QueryEngine::live_helper_threads`] /
//! [`QueryEngine::spawned_helper_threads`]); the library keeps no global
//! mutable state.
//!
//! ## Shards are a reporting view
//!
//! [`QueryEngine::sharded`] takes a [`ShardRouter`] built from an
//! `exsample-video` `ShardSpec` and decides one thing: how
//! [`QueryEngine::report_sharded`] groups the run's tallies.  Each tally —
//! frames detected, hits, drops, retries, failures, cache activity — is
//! added, where it is recorded, to the shard owning the frame it was paid
//! for, and each physical call to the shard owning its batch's first frame;
//! the [`merge`] module's [`ShardedReport`] publishes them next to the
//! global [`EngineReport`].  Nothing executes per shard, so the global report
//! is the same for any router and the per-shard reports partition it
//! (pinned for shards {1, 3, 7} × both partitioners under faults, a cache
//! and two lanes by the determinism suite).
//!
//! ## Failure model
//!
//! Detectors can *fail*, not just panic: the engine drives the fallible
//! `Detector::try_detect_batch` entry point and reacts per its configured
//! [`RetryPolicy`] and [`FailureMode`].  Retries are off by default (a
//! fault-free run is pick-for-pick and bitwise identical to the
//! pre-fault-tolerance engine); when enabled, each failed frame is retried
//! individually up to the attempt budget with deterministic exponential
//! backoff charged as *stage cost units* — never wall-clock sleeps — so
//! degraded runs stay reproducible.  Terminal failures are then handled per
//! [`FailureMode`]: fail fast with a typed
//! [`error::EngineError::DetectorFailed`] (the default), drop the frame and
//! tally the degradation ([`QueryReport::dropped_frames`]), or quarantine
//! the offending detector for the rest of the run
//! ([`StopReason::DetectorQuarantined`]).  Failed frames are never committed
//! to the detection cache, and fault telemetry (retries, backoff cost,
//! failed/dropped frames, quarantined detectors) flows through the reports
//! with the same bitwise-determinism guarantee as every other tally.
//!
//! ## Batching & overlap
//!
//! Batching is not a setting: every stage issues one batch per detector
//! group, cut over the lanes (see above) — under a GPU-shaped
//! `per_call + per_frame × n` cost model (`exsample-detect`'s
//! `BatchingDetector`) the bill is the same for any shard router, which the
//! `batched_detect` bench axis records.  One opt-in knob remains,
//! bitwise-deterministic and off by default:
//!
//! * [`QueryEngine::overlap`] is *where `plan` runs*: instead of planning
//!   stage `n + 1` after stage `n` has settled, the loop plans it between
//!   `launch(n)` and `land(n)` — while stage `n`'s DETECT is in flight on the
//!   pool helpers.  Nothing else changes (the cache probe runs before the
//!   dispatch and the commit stays a serial canonical-order arbitration
//!   either way).  Stop decisions therefore lag one stage (a
//!   query may overshoot its budget by up to one stage's batch) — the one
//!   documented semantic difference — and each overlapped configuration is
//!   itself bitwise-deterministic across the whole execution matrix and
//!   pinned against a golden digest.
//!
//! Physical batch-size statistics (count/min/mean/max) flow through
//! [`StageStats`], [`ShardReport`] and [`ShardedReport`] as
//! [`merge::BatchStats`].
//!
//! ## Scheduling
//!
//! How many frames each live query may pick per stage is delegated to an
//! object-safe [`StageScheduler`]: [`RoundRobin`] (the default) grants every
//! live query its configured batch — the historical behaviour, pick-for-pick
//! — while [`BudgetProportional`] divides the stage's capacity in proportion
//! to remaining per-query frame budgets.
//!
//! ## Caching
//!
//! An optional bounded (detector, frame)→detections LRU cache
//! ([`QueryEngine::cache_capacity`] / [`QueryEngine::cache_config`], off by
//! default) carries detector results *across* stages and queries: a warm
//! re-query over cached frames issues zero new `detect_batch` invocations.
//! The store is the [`cache`] module's lock-striped
//! [`StripedDetectionCache`]: the coordinator probes the stage's frames
//! before it gathers the stage's detector demand (the gather needs the
//! misses), and all admissions/evictions are applied by a serial fixed-order
//! commit transaction after the scatter, so hit/miss/eviction accounting and
//! the surviving entries are bitwise-identical across every thread count and
//! stripe count.  An opt-in count-min
//! frequency admission policy ([`AdmissionPolicy::Frequency`]) keeps a
//! churning scan from evicting a hot working set.
//!
//! ## Errors
//!
//! Configuration mistakes (sampler/chunking chunk-count mismatch, shard
//! spec/chunking mismatch, zero batch sizes, running an empty engine) surface
//! as typed [`EngineError`]s from the engine entry points instead of the seed
//! implementation's panics.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod driver;
pub mod engine;
pub mod error;
pub mod merge;
pub mod policy;
pub mod runtime;
pub mod scheduler;
pub mod shard;

pub use cache::{
    AdmissionPolicy, CacheActivity, CacheConfig, CacheStats, CacheTxn, CommitOutcome,
    DetectionCache, StripedDetectionCache,
};
pub use driver::{run_query, QueryOutcome};
pub use engine::{
    EngineReport, ExecutionMode, FailureMode, QueryEngine, QueryReport, QuerySpec, RetryPolicy,
    StageObservation, StageSink, StageStats, StopReason, TrajectoryPoint,
};
pub use error::{ChunkCountMismatch, EngineError};
pub use exsample_core::SelectionTelemetry;
pub use merge::{BatchStats, DetectorInvocations, ShardQueryTally, ShardReport, ShardedReport};
pub use policy::{ExSamplePolicy, FrameSamplerPolicy, MethodPolicy, SamplingPolicy};
pub use scheduler::{BudgetProportional, QueryLoad, RoundRobin, StageScheduler};
pub use shard::ShardRouter;
