//! # exsample
//!
//! Facade crate for the ExSample reproduction workspace.
//!
//! ExSample (Moll et al., *ExSample: Efficient Searches on Video Repositories
//! through Adaptive Sampling*, ICDE 2022) is an adaptive sampling technique for
//! answering *distinct-object limit queries* ("find 20 traffic lights") over large,
//! un-indexed video repositories without running an expensive object detector on
//! every frame.
//!
//! This crate simply re-exports the workspace's sub-crates under stable module
//! names so that downstream users (and the `examples/` and `tests/` directories of
//! this repository) can depend on a single crate:
//!
//! * [`rand_ext`] — from-scratch random distributions (Gamma, LogNormal, …).
//! * [`video`] — the simulated video-repository substrate.
//! * [`detect`] — object detection data model and the simulated detector.
//! * [`track`] — IoU matching, SORT-style tracking, and the discriminator.
//! * [`data`] — synthetic workloads and statistical dataset analogs.
//! * [`core`] — the ExSample algorithm itself (Algorithm 1, Thompson sampling).
//! * [`baselines`] — the sequential scan and the BlazeIt-style proxy order.
//! * [`engine`] — the batched multi-query execution engine: the
//!   `SamplingPolicy` trait unifying every sampling strategy, and the staged
//!   pick/detect/record pipeline with cross-query frame coalescing.
//! * [`opt`] — optimal static chunk-weight solver (Eq. IV.1) and skew metric.
//! * [`sim`] — the query-runner harness, cost model, and experiment sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use exsample::core::ExSampleConfig;
//! use exsample::data::grid::{GridWorkload, SkewLevel};
//! use exsample::sim::runner::{MethodKind, QueryRunner, StopCondition};
//!
//! // Build a small synthetic dataset with skewed instance placement.
//! let workload = GridWorkload::builder()
//!     .frames(100_000)
//!     .instances(200)
//!     .chunks(16)
//!     .mean_duration(100.0)
//!     .skew(SkewLevel::Quarter)
//!     .seed(7)
//!     .build()
//!     .expect("valid workload");
//! let dataset = workload.generate();
//!
//! // Run ExSample until 50 distinct objects are found.
//! let outcome = QueryRunner::new(&dataset)
//!     .stop(StopCondition::DistinctResults(50))
//!     .seed(11)
//!     .run(MethodKind::ExSample(ExSampleConfig::default()))
//!     .expect("query run succeeded");
//! assert!(outcome.distinct_found >= 50);
//! ```

pub use exsample_baselines as baselines;
pub use exsample_core as core;
pub use exsample_data as data;
pub use exsample_detect as detect;
pub use exsample_engine as engine;
pub use exsample_opt as opt;
pub use exsample_rand as rand_ext;
pub use exsample_sim as sim;
pub use exsample_track as track;
pub use exsample_video as video;
