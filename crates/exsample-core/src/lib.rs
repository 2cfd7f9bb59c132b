//! # exsample-core
//!
//! The ExSample algorithm: chunk-based adaptive sampling for distinct-object
//! search over video repositories (Moll et al., ICDE 2022).
//!
//! ## The algorithm in one paragraph
//!
//! The repository is partitioned into `M` temporal chunks.  For each chunk `j`,
//! ExSample tracks `n_j` (frames sampled from the chunk so far) and `N1_j` (the
//! number of distinct objects found in the chunk that have been seen *exactly once*
//! so far).  The expected number of new objects in the next frame sampled from the
//! chunk is estimated as `R̂_j = N1_j / n_j` (Eq. III.1); the uncertainty of that
//! estimate is captured by a `Gamma(N1_j + α₀, n_j + β₀)` belief (Eq. III.4) whose
//! variance matches the bound of Eq. III.3.  Each iteration Thompson-samples one
//! value from every chunk's belief, samples a frame from the winning chunk, runs
//! the object detector, asks the discriminator which detections are new (`d0`) or
//! second sightings (`d1`), and updates `N1_j += |d0| − |d1|`, `n_j += 1`.
//!
//! ## Crate layout
//!
//! * [`config`] — [`ExSampleConfig`]: priors, chunk-selection policy, within-chunk
//!   sampling strategy, batch size.
//! * [`stats`] — [`stats::ChunkStats`] / [`ChunkStatsSet`]: the `(N1, n)` bookkeeping and
//!   belief construction.
//! * [`estimator`] — the `R̂` estimator and the theoretical quantities (bias and
//!   variance bounds, `π_i(n)` terms) used by the validation experiments.
//! * [`policy`] — chunk-selection policies: Thompson sampling (the paper's choice),
//!   Bayes-UCB, greedy point-estimate, and uniform round-robin (ablations).
//! * [`exsample`] — [`ExSample`]: the incremental sampler state machine (pick a
//!   frame / record feedback), including batched picking (Section III-F).
//!
//! The complete Algorithm 1 loop — wiring a detector and discriminator to the
//! sampler — lives in the `exsample-engine` crate: a single-query
//! `QueryEngine` at batch 1 over an `ExSamplePolicy` (which `exsample-sim`'s
//! `QueryRunner` builds); this crate is only the sampling algorithm itself.
//!
//! ## Hot-path design
//!
//! Thompson sampling draws one Gamma value per chunk per pick, so at `M`
//! chunks the selection step executes `M` Gamma draws for every frame that
//! reaches the detector.  The selection hot path is engineered around four
//! invariants (see [`stats`] and [`policy`] for details):
//!
//! * **Belief cache (struct-of-arrays).**  [`ChunkStatsSet`] caches each
//!   chunk's Marsaglia–Tsang sampling constants (`d`, `c`, the `shape < 1`
//!   boost exponent, and the rate) in four parallel arrays.  *Invalidation
//!   rule:* chunk `j`'s entry is refreshed exactly when its `(N1_j, n_j)` pair
//!   changes — inside `record` and `adjust_n1` — and never on the read path, so
//!   a draw is a cheap cached one instead of a distribution construction.  The
//!   cached draws are bitwise identical to sampling a freshly constructed
//!   belief under the same RNG state.
//! * **Allocation-free selection.**  [`ExSample`] maintains the eligibility
//!   mask, eligible-chunk count and total remaining-frame count incrementally
//!   (updated the moment a chunk's last frame is handed out), hands selection
//!   the facts it would otherwise scan the mask for, and keeps reusable scratch
//!   buffers for batched selection.  Selection and `remaining_frames`
//!   perform zero heap allocations after warm-up, and a counting-allocator
//!   test pins the policy layer to exactly zero.  The whole pick loop
//!   allocates only when a within-chunk sampler's state grows: with the
//!   default `random+`, whose round buffers are reused, the same test holds
//!   it under one allocation per fifty picks.  Batched
//!   selection makes a *single pass* maintaining `batch` running arg-maxes
//!   instead of `batch` full scans.
//! * **Pruned arg-max.**  A chunk's draw is `d·v³·exp(−E/shape)/rate` with the
//!   boost factor ≤ 1, so a multiply-compare against the running best prunes
//!   the exponential variate, the `exp` and the division for chunks that
//!   provably cannot win; the NaN-total `beats` relation keeps degenerate
//!   draws from masking later chunks.  Equivalence with a textbook full-draw
//!   arg-max is asserted by chi-square tests.
//! * **Hybrid belief-class fold above 64 chunks.**  Chunks sharing a clamped
//!   `(N1, n)` posterior have identical beliefs and are exchangeable under
//!   Thompson sampling, so the maximum over a class of `k` of them is one
//!   exact order-statistic draw (`exsample_rand::GammaTail::max_of_k`, about
//!   0.3 µs — twenty per-chunk draws) and its carrier is uniform in the class.
//!   [`ChunkStatsSet`] maintains the class index incrementally at the same
//!   invalidation seam as the belief cache, and every Thompson pick over more
//!   than `policy::SMALL_M_CHUNKS` chunks walks it once: small classes draw
//!   per chunk through the cache and the prune, large classes draw their
//!   maximum — and skip its inversion when a tail test shows it cannot beat
//!   the running best, which leaves every pick bit for bit where it was
//!   (`GammaTail::max_of_k_above`).  All-singleton posteriors degenerate to
//!   the per-chunk fold, all-prior ones to a single draw; there is no knob.
//!   Repositories of up to 64 chunks keep the per-chunk schedule, pick for
//!   pick with a textbook arg-max under the same seed; above that the fold is
//!   pinned to [`policy::select_chunk_reference`] in distribution by
//!   chi-square tests.  The pick cost scales with posterior diversity instead
//!   of repository size.
//!
//! ## Example
//!
//! ```
//! use exsample_core::{ExSample, ExSampleConfig};
//! use rand::SeedableRng;
//!
//! // Four chunks of 1000 frames each.
//! let mut sampler = ExSample::new(ExSampleConfig::default(), &[1000, 1000, 1000, 1000]);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Sampling loop: pretend chunk 2 is full of new objects.
//! for _ in 0..200 {
//!     let pick = sampler.next_frame(&mut rng).expect("frames remain");
//!     let found_new = if pick.chunk == 2 { 1 } else { 0 };
//!     sampler.record(pick.chunk, found_new);
//! }
//! // The sampler should have concentrated on chunk 2.
//! assert!(sampler.stats().chunk(2).samples() > 60);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod estimator;
pub mod exsample;
pub mod policy;
pub mod stats;

pub use config::{ChunkSelectionPolicy, ExSampleConfig, WithinChunkSampling};
pub use exsample::{ExSample, FramePick, SelectionTelemetry};
pub use stats::ChunkStatsSet;
