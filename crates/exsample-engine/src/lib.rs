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
//!   `exsample-baselines` frame orders (proxy ordering, sequential scan)
//!   behind a single trait the engine drives without knowing the strategy.
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
//! Every query owns a private RNG stream seeded from its spec
//! ([`QuerySpec::seed`]; no caller-supplied generator is threaded in), stop
//! conditions are evaluated per query, and fan-out visits queries in
//! registration order.  Per-query outcomes are therefore reproducible
//! regardless of stage interleaving: adding or removing concurrent queries
//! or permuting registration order never changes what an individual query
//! finds.  A single-query engine at batch 1 is the paper's Algorithm 1: it
//! consumes its seeded stream exactly as the per-frame pick → detect →
//! record loop does, and the determinism tests assert pick-for-pick
//! equivalence against a faithful replica of that loop run on a generator
//! with the same seed.
//!
//! ## One stage loop, one runtime
//!
//! Every run — serial or parallel, under any shard router — executes the
//! same loop of three phases over one reused stage buffer, each written once
//! in [`engine`]: **plan** (stop checks, PICK — one pool job per lane when
//! the run has helpers — grouping, and loading each detector group's frames
//! into its lane), **detect** (probe
//! the cache, gather the misses into one slice per lane, run the slices —
//! one pool call when the run has helpers — and scatter the outcomes to the
//! lanes) and **settle** (fail-fast scan, cache commit, tallies, FAN-OUT,
//! stats, checkpoint sink).  Serial is the 1-lane case.  There
//! is one DETECT path: a stage with one detector group and no pool helpers
//! demands exactly one batch, so `detect` runs it in place over the lane's
//! misses instead of gathering and scattering a single slice — through the
//! same absorb calls, in the same order, so fault handling and every tally
//! exist once.
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
//! threads spawned once per engine run, handed their jobs every stage,
//! joined when the run ends — never spawned per stage.  The pool runs each
//! stage's PICK too, the engine's cost when many queries each draw one
//! Gamma per chunk: query `i` picks on lane `i mod n`, its policy
//! ([`SamplingPolicy`] is `Send`) and RNG stream moved to the lane and back,
//! so a pick reads only its own query's state.  The pool is kept on
//! a measured verdict (10 alternating pairs of the repository benchmark on
//! a 2-core host, median `wall_s` pair ratio against the pool): a per-stage
//! `std::thread::scope` is 1.364× slower on `bdd1k_multi` and a pool
//! without the coordinator's reclaim of unstarted slices 1.223× slower,
//! while the pool's completion channel, disengage heuristic and thread
//! counters bought nothing and are gone ([`runtime`] holds the full
//! table).  The cache probe before the gather, the scatter, the cache
//! commit (a serial fixed-order transaction) and FAN-OUT
//! (registration/pick order) all stay on the calling thread in canonical
//! order — parallelism reorders *work*, never logical results, so parallel
//! runs are bitwise-identical to serial ones in everything but the physical
//! invocation shape (pinned for threads {1, 2, 4}, with the cache on and
//! off).  Serial remains the default, and `Parallel(0)` is a typed
//! [`error::EngineError::InvalidExecution`].  A policy or detector panic on
//! any pool lane surfaces as a typed [`error::EngineError::WorkerPanicked`],
//! never a deadlocked coordinator, a leaked thread or an unwinding stage
//! loop.  The
//! library keeps no global mutable state.
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
//! [`error::EngineError::DetectorFailed`] (the default), or drop the frame
//! and tally the degradation ([`QueryReport::dropped_frames`]).  Failed
//! frames are never committed to the detection cache, and fault telemetry
//! (retries, backoff cost, failed/dropped frames) flows through the reports
//! with the same bitwise-determinism guarantee as every other tally.
//!
//! ## Batching
//!
//! Batching is not a setting: every stage issues one batch per detector
//! group, cut over the lanes (see above) — under a GPU-shaped
//! `per_call + per_frame × n` cost model the bill is the same for any shard
//! router, because the physical calls and frames do not depend on it
//! (`sharded_runs_are_bitwise_identical_to_unsharded` pins both).  Each
//! stage plans after the previous one has settled, so every stop decision
//! sees every result and a frame budget is never overshot.
//!
//! Physical batch-size statistics (count/min/mean/max) flow through
//! [`StageStats`], [`ShardReport`] and [`ShardedReport`] as
//! [`merge::BatchStats`].
//!
//! ## Scheduling
//!
//! There is one rule: every live query picks its [`QuerySpec::batch`] per
//! stage, clamped to what is left of its frame budget.  A query that needs
//! bigger stages asks for a bigger batch.
//!
//! ## Caching
//!
//! An optional bounded (detector, frame)→detections LRU cache
//! ([`QueryEngine::cache_capacity`], off by default) carries detector results *across* stages and queries: a warm
//! re-query over cached frames issues zero new `detect_batch` invocations.
//! The store is the [`cache`] module's single-map LRU, owned by the engine
//! and touched only by the coordinator: it probes the stage's frames before
//! it gathers the stage's detector demand (the gather needs the misses), and
//! applies every recency touch, insert and eviction in one serial
//! fixed-order commit after the scatter, so hit/miss/eviction accounting and
//! the surviving entries are bitwise-identical across every thread count.
//! The cache holds no lock.
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
pub mod engine;
pub mod error;
pub mod merge;
pub mod policy;
pub mod runtime;
pub mod shard;

pub use cache::CacheActivity;
pub use engine::{
    EngineReport, ExecutionMode, FailureMode, QueryEngine, QueryReport, QuerySpec, RetryPolicy,
    StageObservation, StageSink, StageStats, StopReason, TrajectoryPoint,
};
pub use error::EngineError;
pub use exsample_core::SelectionTelemetry;
pub use merge::{BatchStats, ShardQueryTally, ShardReport, ShardedReport};
pub use policy::{ExSamplePolicy, FrameSamplerPolicy, SamplingPolicy};
pub use shard::ShardRouter;
