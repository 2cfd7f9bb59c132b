//! # exsample-data
//!
//! Synthetic workloads and statistical dataset analogs for the ExSample
//! reproduction.
//!
//! The paper evaluates ExSample in two regimes:
//!
//! 1. **Controlled simulations** (Section III-D, Section IV, Figures 2–4) in which
//!    object instances are described purely by their per-frame hit probabilities or
//!    by (placement, duration) distributions over a synthetic frame axis.  These are
//!    reproduced exactly by [`independent::IndependentWorkload`] (Figure 2) and
//!    [`grid::GridWorkload`] (Figures 3 and 4).
//!
//! 2. **Real video datasets** (Section V, Table I, Figures 5–6): dashcam, BDD-1k,
//!    BDD MOT, amsterdam, archie and night-street.  The raw video is not available
//!    (and running Faster-RCNN over thousands of hours is outside the scope of a
//!    reproduction); what ExSample's behaviour depends on is the *statistical
//!    structure* of each dataset — how many instances of each class there are, how
//!    long they stay visible, and how skewed their placement across chunks is.
//!    [`datasets`] builds statistical analogs with those properties, calibrated to
//!    the numbers the paper reports (dataset sizes and chunk counts from Section
//!    V-A, instance counts and skew values from Figure 6, query lists from
//!    Table I).
//!
//! Both regimes produce a [`dataset::Dataset`]: a simulated video repository, its
//! chunking, and a ground-truth instance set — everything the query runner in
//! `exsample-sim` needs to execute searches.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dataset;
pub mod datasets;
pub mod grid;
pub mod independent;
pub mod skewgen;

pub use dataset::Dataset;
pub use datasets::{DatasetAnalog, DatasetSpec};
pub use grid::{GridWorkload, SkewLevel};
pub use independent::IndependentWorkload;
